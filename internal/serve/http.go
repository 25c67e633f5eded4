package serve

import (
	"bytes"
	"encoding/json"
	"expvar"
	"fmt"
	"io"
	"net/http"

	"byteslice"
)

// maxBodyBytes bounds request bodies — predicates and append batches are
// small; anything larger is a client error, not a memory obligation.
const maxBodyBytes = 4 << 20

// Handler returns the service's HTTP surface:
//
//	POST /query        run one query (Request → Response JSON)
//	GET  /tables       list mounted tables with schema and version
//	POST /append       append rows to a live ingest mount
//	POST /merge        force a merge on a live ingest mount (epoch bump)
//	POST /reload       re-stat snapshot mounts, remount changed files
//	GET  /stats        observability registry snapshot (indented JSON)
//	GET  /debug/vars   the standard expvar surface
//	GET  /healthz      liveness probe
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/query", s.handleQuery)
	mux.HandleFunc("/tables", s.handleTables)
	mux.HandleFunc("/append", s.handleAppend)
	mux.HandleFunc("/merge", s.handleMerge)
	mux.HandleFunc("/reload", s.handleReload)
	mux.Handle("/stats", s.cfg.Registry.Handler())
	mux.Handle("/debug/vars", expvar.Handler())
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprintln(w, `{"status":"ok"}`)
	})
	return mux
}

// statusOf maps a request failure onto its HTTP status. 499 follows the
// de-facto convention for client-abandoned requests.
func statusOf(err error) int {
	switch errCode(err) {
	case "overloaded":
		return http.StatusTooManyRequests
	case "not_found":
		return http.StatusNotFound
	case "bad_query", "unsupported":
		return http.StatusBadRequest
	case "deadline":
		return http.StatusGatewayTimeout
	case "canceled":
		return 499
	}
	return http.StatusInternalServerError
}

func writeError(w http.ResponseWriter, err error) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(statusOf(err))
	json.NewEncoder(w).Encode(ErrorResponse{Error: err.Error(), Code: errCode(err)}) //nolint:errcheck // best effort past the status line
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(v) //nolint:errcheck // best effort past the status line
}

func readBody(w http.ResponseWriter, r *http.Request) ([]byte, bool) {
	if r.Method != http.MethodPost {
		writeError(w, badQuery("%s needs POST, not %s", r.URL.Path, r.Method))
		return nil, false
	}
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	if err != nil {
		writeError(w, badQueryErr(fmt.Errorf("reading body: %w", err)))
		return nil, false
	}
	return body, true
}

func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	body, ok := readBody(w, r)
	if !ok {
		return
	}
	req, err := DecodeRequest(body)
	if err != nil {
		writeError(w, err)
		return
	}
	if req.Tenant == "" {
		req.Tenant = r.Header.Get("X-Tenant")
	}
	resp, err := s.Do(r.Context(), req)
	if err != nil {
		writeError(w, err)
		return
	}
	writeResponse(w, resp)
}

// writeResponse writes resp's body, the bytes writeJSON would write,
// from the render buffer its exec pass filled or, on a cache hit, from a
// pooled one it renders into now without hashing (the checksum is the
// cached one). A value encoding/json refuses takes writeJSON itself.
func writeResponse(w http.ResponseWriter, resp *Response) {
	bp, ok := resp.body, true
	if bp == nil {
		bp = bodyPool.Get().(*[]byte)
		*bp, _, ok = appendContent((*bp)[:0], resp, false)
	}
	if ok {
		*bp, ok = appendTail(*bp, resp)
	}
	if ok {
		w.Header().Set("Content-Type", "application/json")
		w.Write(*bp) //nolint:errcheck // best effort past the status line
	} else {
		writeJSON(w, resp)
	}
	putBody(bp)
}

// TableInfo is one row of GET /tables.
type TableInfo struct {
	Name    string       `json:"name"`
	Kind    string       `json:"kind"`
	Rows    int          `json:"rows"`
	Epoch   uint64       `json:"epoch"`
	Columns []ColumnInfo `json:"columns"`
}

// ColumnInfo describes one column of a mounted table.
type ColumnInfo struct {
	Name string `json:"name"`
	Kind string `json:"kind"`
}

func (s *Server) handleTables(w http.ResponseWriter, r *http.Request) {
	infos := make([]TableInfo, 0)
	for _, name := range s.cat.Names() {
		b, err := s.cat.bind(name)
		if err != nil {
			continue // unmounted between Names and bind
		}
		info := TableInfo{Name: name, Kind: b.m.kind, Rows: b.rows, Epoch: b.epoch}
		for _, c := range b.schema().Columns() {
			info.Columns = append(info.Columns, ColumnInfo{Name: c.Name(), Kind: c.Kind().String()})
		}
		infos = append(infos, info)
	}
	writeJSON(w, infos)
}

// AppendRequest is the body of POST /append: rows of column-name →
// value maps, appended in order to a live ingest mount.
type AppendRequest struct {
	Table string           `json:"table"`
	Rows  []map[string]any `json:"rows"`
}

func (s *Server) handleAppend(w http.ResponseWriter, r *http.Request) {
	body, ok := readBody(w, r)
	if !ok {
		return
	}
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.UseNumber()
	var req AppendRequest
	if err := dec.Decode(&req); err != nil {
		writeError(w, badQueryErr(err))
		return
	}
	m, err := s.cat.lookup(req.Table)
	if err != nil {
		writeError(w, err)
		return
	}
	if m.ing == nil {
		writeError(w, errUnsupported("table %q is not an ingest mount", req.Table))
		return
	}
	schema := m.ing.Base()
	appended := 0
	for _, row := range req.Rows {
		vals, err := convertRow(schema, row)
		if err != nil {
			writeError(w, err)
			return
		}
		if err := m.ing.Append(vals); err != nil {
			writeError(w, fmt.Errorf("row %d: %w", appended, err))
			return
		}
		appended++
	}
	writeJSON(w, map[string]any{"appended": appended, "epoch": m.ing.Epoch(), "rows": m.ing.Len()})
}

// convertRow types a decoded JSON row for IngestTable.Append, which wants
// exact native types per column kind.
func convertRow(schema *byteslice.Table, row map[string]any) (map[string]any, error) {
	vals := make(map[string]any, len(row))
	for name, v := range row {
		col, err := schema.Column(name)
		if err != nil {
			return nil, badQueryErr(err)
		}
		if v == nil {
			vals[name] = nil
			continue
		}
		switch col.Kind() {
		case byteslice.KindInt:
			num, ok := v.(json.Number)
			if !ok {
				return nil, badQuery("column %s wants an integer, got %T", name, v)
			}
			iv, err := num.Int64()
			if err != nil {
				return nil, badQuery("column %s wants an integer, got %q", name, num.String())
			}
			vals[name] = iv
		case byteslice.KindDecimal:
			num, ok := v.(json.Number)
			if !ok {
				return nil, badQuery("column %s wants a number, got %T", name, v)
			}
			fv, err := num.Float64()
			if err != nil {
				return nil, badQuery("column %s: bad number %q", name, num.String())
			}
			vals[name] = fv
		case byteslice.KindString:
			sv, ok := v.(string)
			if !ok {
				return nil, badQuery("column %s wants a string, got %T", name, v)
			}
			vals[name] = sv
		case byteslice.KindCode:
			num, ok := v.(json.Number)
			if !ok {
				return nil, badQuery("column %s wants a code, got %T", name, v)
			}
			iv, err := num.Int64()
			if err != nil || iv < 0 || iv > int64(^uint32(0)) {
				return nil, badQuery("column %s: bad code %q", name, num.String())
			}
			vals[name] = uint32(iv)
		default:
			return nil, badQuery("column %s has unsupported kind", name)
		}
	}
	return vals, nil
}

// MergeRequest is the body of POST /merge.
type MergeRequest struct {
	Table string `json:"table"`
}

func (s *Server) handleMerge(w http.ResponseWriter, r *http.Request) {
	body, ok := readBody(w, r)
	if !ok {
		return
	}
	var req MergeRequest
	if err := json.Unmarshal(body, &req); err != nil {
		writeError(w, badQueryErr(err))
		return
	}
	m, err := s.cat.lookup(req.Table)
	if err != nil {
		writeError(w, err)
		return
	}
	if m.ing == nil {
		writeError(w, errUnsupported("table %q is not an ingest mount", req.Table))
		return
	}
	if err := m.ing.MergeNow(); err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, map[string]any{"epoch": m.ing.Epoch(), "rows": m.ing.Len(), "delta_rows": m.ing.DeltaLen()})
}

func (s *Server) handleReload(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeError(w, badQuery("/reload needs POST, not %s", r.Method))
		return
	}
	n, err := s.cat.Reload()
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, map[string]any{"reloaded": n})
}
