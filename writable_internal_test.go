package byteslice

import (
	"errors"
	"path/filepath"
	"testing"

	"byteslice/internal/ingest"
)

// deltaCodes reads every row of d back through the tables queries scan:
// codes[i][r] and nulls[i][r] for column i, row r.
func deltaCodes(t *testing.T, base *Table, d delta) (codes [][]uint32, nulls [][]bool) {
	t.Helper()
	parts, err := d.tables(base)
	if err != nil {
		t.Fatal(err)
	}
	codes = make([][]uint32, len(base.cols))
	nulls = make([][]bool, len(base.cols))
	for _, p := range parts {
		for i, c := range p.cols {
			cc, err := materializeCodes(c)
			if err != nil {
				t.Fatal(err)
			}
			codes[i] = append(codes[i], cc...)
			for r := 0; r < p.n; r++ {
				nulls[i] = append(nulls[i], c.IsNull(r))
			}
		}
	}
	return codes, nulls
}

// TestRowPayloadRoundTrip: encodeRowPayload and decodeRowPayloads are
// inverses over every kind, including NULLs.
func TestRowPayloadRoundTrip(t *testing.T) {
	qty, err := NewIntColumn("qty", []int64{5, 50}, 0, 100)
	if err != nil {
		t.Fatal(err)
	}
	mode, err := NewStringColumn("mode", []string{"AIR", "SHIP"})
	if err != nil {
		t.Fatal(err)
	}
	base, err := NewTable(qty, mode)
	if err != nil {
		t.Fatal(err)
	}
	rows := [][]byte{
		encodeRowPayload([]uint32{7, 1}, []bool{false, false}),
		encodeRowPayload([]uint32{0, 0}, []bool{true, false}),
	}
	d, err := decodeRowPayloads(base, rows)
	if err != nil {
		t.Fatal(err)
	}
	codes, nulls := deltaCodes(t, base, d)
	if codes[0][0] != 7 || codes[1][0] != 1 || nulls[0][0] || nulls[1][0] {
		t.Fatalf("row 0 decoded as codes %v/%v nulls %v/%v", codes[0][0], codes[1][0], nulls[0][0], nulls[1][0])
	}
	if !nulls[0][1] || codes[0][1] != 0 {
		t.Fatalf("row 1 NULL decoded as code %d null %v", codes[0][1], nulls[0][1])
	}
}

// TestDecodeRowPayloadsRejects: replayed rows that passed their CRC but
// disagree with the schema are corruption, not data.
func TestDecodeRowPayloadsRejects(t *testing.T) {
	qty, err := NewIntColumn("qty", []int64{5, 50}, 0, 100)
	if err != nil {
		t.Fatal(err)
	}
	base, err := NewTable(qty)
	if err != nil {
		t.Fatal(err)
	}
	cases := map[string][]byte{
		"short row":       {0, 7, 0, 0},
		"long row":        {0, 7, 0, 0, 0, 0},
		"bad NULL flag":   {2, 0, 0, 0, 0},
		"NULL with code":  {1, 7, 0, 0, 0},
		"code over width": {0, 0xFF, 0xFF, 0, 0},
	}
	for name, row := range cases {
		if _, err := decodeRowPayloads(base, [][]byte{row}); !errors.Is(err, ingest.ErrCorrupt) {
			t.Errorf("%s: err = %v, want ErrCorrupt", name, err)
		}
	}
}

// TestAppendTableRows: the WAL-rotation path for the delta rows a merge
// does not cover re-frames every row — codes and NULLs — losslessly.
func TestAppendTableRows(t *testing.T) {
	qty, err := NewIntColumn("qty", []int64{5, 50, 7}, 0, 100, WithNulls([]int{1}))
	if err != nil {
		t.Fatal(err)
	}
	mode, err := NewStringColumn("mode", []string{"AIR", "SHIP", "AIR"})
	if err != nil {
		t.Fatal(err)
	}
	seg, err := NewTable(qty, mode)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "wal.log")
	w, err := ingest.Create(path, 1, 0, true)
	if err != nil {
		t.Fatal(err)
	}
	if err := appendTableRows(w, seg); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	_, rec, err := ingest.Open(path, true)
	if err != nil {
		t.Fatal(err)
	}
	d, err := decodeRowPayloads(seg, rec.Rows)
	if err != nil {
		t.Fatal(err)
	}
	codes, nulls := deltaCodes(t, seg, d)
	if len(rec.Rows) != 3 {
		t.Fatalf("replayed %d rows, want 3", len(rec.Rows))
	}
	if !nulls[0][1] || nulls[0][0] || nulls[0][2] {
		t.Fatalf("NULL pattern lost: %v", nulls[0])
	}
	// Non-NULL codes survive: decode back through the segment's encoders.
	qcol := seg.cols[0]
	for _, r := range []int{0, 2} {
		wantCodes, err := materializeCodes(qcol)
		if err != nil {
			t.Fatal(err)
		}
		if codes[0][r] != wantCodes[r] {
			t.Fatalf("row %d code = %d, want %d", r, codes[0][r], wantCodes[r])
		}
	}
}
