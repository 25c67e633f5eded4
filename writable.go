package byteslice

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"byteslice/internal/bitvec"
	"byteslice/internal/core"
	"byteslice/internal/ingest"
	"byteslice/internal/obs"
	"byteslice/internal/plan"
)

// IngestTable is the writable facade over the delta-merge design (§2,
// after Krueger et al.): a single-writer append pipeline whose rows are
// made durable through a CRC-framed write-ahead log before they become
// queryable, kept as the delta — one append-only ByteSlice per column —
// and periodically merged into a fresh read-optimised base epoch by a
// background merger.
//
// Readers are wait-free: every query loads one atomic epoch-view pointer
// and sees a consistent snapshot — the base epoch and a fixed prefix of
// the delta — no matter how many appends or merges race past it, and
// scans both with the same Table.Filter kernels. Writers publish by
// swapping the pointer; nothing a published view references is ever
// mutated, because the writer only appends past every published prefix.
//
// Durability is an on-disk directory owned by this table:
//
//	MANIFEST        crash-atomic pointer to the current epoch's artifacts
//	base-<E>.bslc   the epoch's base snapshot (SaveFile format)
//	wal-<E>.log     the epoch's append-only WAL
//
// A merge writes the next epoch's base snapshot, rotates the WAL
// (re-appending the rows appended while it ran) and swaps the manifest
// atomically, so a crash at any byte of the switch leaves either the old
// complete epoch or the new one — never a mix. OpenIngest replays the
// WAL to the last intact frame: a torn tail (crash mid-append) is
// truncated and replay succeeds with every acknowledged row; a full frame
// that fails its checksum is reported as ErrCorrupt, never papered over.
//
// When merging falls behind, appends keep succeeding until the unmerged
// delta reaches the configured bound, then fail with ErrBackpressure
// until a merge catches up. The background merger recovers panics,
// retries with bounded exponential backoff, and never blocks readers or
// the appender.
type IngestTable struct {
	dir string
	cfg ingestConfig

	// view is the epoch-view pointer readers load; see ingestView. Only
	// Load/Store touch it (publish happens under mu).
	view atomic.Pointer[ingestView]

	// mu serialises the write side: appends, merge commits, close.
	// Queries never take it.
	mu     sync.Mutex
	wal    *ingest.WAL
	delta  delta // the writer's unmerged rows; published views window them
	closed bool

	// mergeMu serialises whole merge attempts (background vs MergeNow).
	mergeMu sync.Mutex
	merger  *ingest.Merger
}

// Typed write-path errors, aliased from internal/ingest so errors.Is
// matches whichever vocabulary the caller imported.
var (
	// ErrBackpressure is returned by Append once the unmerged delta has
	// reached WithDeltaBound and merging hasn't caught up.
	ErrBackpressure = ingest.ErrBackpressure
	// ErrTableClosed is returned by Append and MergeNow after Close.
	ErrTableClosed = ingest.ErrClosed
)

// ErrSchema is returned when input rows do not match the table schema —
// wrong value count, missing or unknown columns, malformed CSV shape, or
// an appended value of the wrong type, outside its column's domain or
// outside a string column's dictionary.
var ErrSchema = errors.New("byteslice: schema mismatch")

// ingestView is one immutable published snapshot of the table: readers
// load it once and never block. delta is a window of the writer's delta
// that ends at the view's row count; the writer appends only past it.
type ingestView struct {
	epoch uint64
	base  *Table
	delta delta
}

// rows is the total row count the view exposes to queries.
func (v *ingestView) rows() int { return v.base.n + v.delta.n }

// delta holds unmerged rows as one append-only ByteSlice per column, in
// base order. The writer appends under mu; a published view holds a
// window of it, and tables turns it into plain Tables.
type delta struct {
	n    int
	cols []deltaCol
}

// deltaCol is one column's unmerged rows: byte j of every row's padded
// k-bit code in slices[j], as core.AppendCodes lays them out (a NULL row
// stores code 0), and the NULL rows, ascending.
type deltaCol struct {
	k      int
	slices [][]byte
	nulls  []int
}

// newDelta returns an empty delta shaped like base's columns.
func newDelta(base *Table) delta {
	d := delta{cols: make([]deltaCol, len(base.cols))}
	for i, c := range base.cols {
		d.cols[i] = deltaCol{k: c.Width(), slices: make([][]byte, (c.Width()+7)/8)}
	}
	return d
}

// appendRow appends one encoded row (codes and NULL flags in base order).
func (d *delta) appendRow(codes []uint32, nulls []bool) {
	for i := range d.cols {
		c := &d.cols[i]
		core.AppendCodes(c.slices, c.k, codes[i:i+1])
		if nulls[i] {
			c.nulls = append(c.nulls, d.n)
		}
	}
	d.n++
}

// window returns d cut to its current rows: every slice ends, length and
// capacity, at the last row, so later appends to d write past it or into
// a new array, never into it.
func (d *delta) window() delta {
	nb := 0
	for _, c := range d.cols {
		nb += len(c.slices)
	}
	flat := make([][]byte, 0, nb)
	cols := make([]deltaCol, len(d.cols))
	for i, c := range d.cols {
		lo := len(flat)
		for _, s := range c.slices {
			flat = append(flat, s[:d.n:d.n])
		}
		cols[i] = deltaCol{k: c.k, slices: flat[lo:len(flat):len(flat)], nulls: c.nulls[:len(c.nulls):len(c.nulls)]}
	}
	return delta{n: d.n, cols: cols}
}

// from returns a fresh copy of rows [m, n), renumbered from 0: the rows a
// merge over the first m did not cover.
func (d *delta) from(m int) delta {
	out := delta{n: d.n - m, cols: make([]deltaCol, len(d.cols))}
	for i, c := range d.cols {
		nc := deltaCol{k: c.k, slices: make([][]byte, len(c.slices))}
		for j, s := range c.slices {
			nc.slices[j] = append([]byte(nil), s[m:]...)
		}
		for _, r := range c.nulls[sort.SearchInts(c.nulls, m):] {
			nc.nulls = append(nc.nulls, r-m)
		}
		out.cols[i] = nc
	}
	return out
}

// tables turns d's rows into at most two plain Tables over base's
// encoders and histograms, for Table.Filter to scan like any other: the
// whole 32-row segments wrapped in place, then the partial last segment
// copied into a padded segment of its own. No kernel therefore loads a
// byte at or past d.n, where the writer may be appending.
func (d *delta) tables(base *Table) ([]*Table, error) {
	whole := d.n / core.SegmentSize * core.SegmentSize
	var parts []*Table
	for _, r := range [2][2]int{{0, whole}, {whole, d.n}} {
		if r[0] == r[1] {
			continue
		}
		cols := make([]*Column, len(base.cols))
		for i, c := range base.cols {
			cols[i] = d.cols[i].column(c, r[0], r[1])
		}
		t, err := NewTable(cols...)
		if err != nil {
			return nil, err
		}
		parts = append(parts, t)
	}
	return parts, nil
}

// column wraps rows [lo, hi) as a ByteSlice column sharing like's name,
// kind, encoder and histogram — in place when the rows fill whole
// segments, else copied into one zero-padded segment. Only the NULL
// vector is built.
func (c *deltaCol) column(like *Column, lo, hi int) *Column {
	n := hi - lo
	slices := make([][]byte, len(c.slices))
	for j, s := range c.slices {
		if n%core.SegmentSize == 0 {
			slices[j] = s[lo:hi:hi]
		} else {
			slices[j] = make([]byte, core.SegmentSize)
			copy(slices[j], s[lo:hi])
		}
	}
	col := *like
	col.data = core.Adopt(slices, c.k, n)
	col.nulls = nil
	if nulls := c.nulls[sort.SearchInts(c.nulls, lo):sort.SearchInts(c.nulls, hi)]; len(nulls) > 0 {
		col.nulls = bitvec.New(n)
		for _, r := range nulls {
			col.nulls.Set(r-lo, true)
		}
	}
	return &col
}

// IngestOption configures CreateIngest / OpenIngest.
type IngestOption func(*ingestConfig)

type ingestConfig struct {
	deltaBound int
	autoMerge  bool
	syncEach   bool
	merger     ingest.MergerConfig
}

func ingestDefaults() ingestConfig {
	return ingestConfig{deltaBound: 1 << 18, autoMerge: true, syncEach: true}
}

func applyIngestOpts(opts []IngestOption) ingestConfig {
	cfg := ingestDefaults()
	for _, o := range opts {
		o(&cfg)
	}
	if cfg.deltaBound < 1 {
		cfg.deltaBound = 1
	}
	return cfg
}

// WithDeltaBound caps the unmerged delta (in rows; default 262144). At
// the bound Append fails with ErrBackpressure — and triggers a merge —
// instead of growing the delta without limit while the merger is failing
// or behind.
func WithDeltaBound(n int) IngestOption {
	return func(c *ingestConfig) { c.deltaBound = n }
}

// WithAutoMerge enables (the default) or disables the cost-based merge
// trigger: after each append the plan.ShouldMerge advisory decides
// whether to wake the background merger. Disabled, merges happen only at
// the delta bound or via MergeNow.
func WithAutoMerge(enabled bool) IngestOption {
	return func(c *ingestConfig) { c.autoMerge = enabled }
}

// WithSyncedAppends controls per-append fsync (default true): every
// acknowledged Append is durable before it returns. Disabled, WAL writes
// are batched by the OS and fsynced at merges and Close — faster, but a
// power cut can lose the acknowledged-but-unsynced suffix (never corrupt
// the prefix).
func WithSyncedAppends(enabled bool) IngestOption {
	return func(c *ingestConfig) { c.syncEach = enabled }
}

// baseName / walName are an epoch's artifact filenames.
func baseName(e uint64) string { return fmt.Sprintf("base-%d.bslc", e) }
func walName(e uint64) string  { return fmt.Sprintf("wal-%d.log", e) }

// ingestErr translates an internal/ingest failure into the facade's
// vocabulary: corruption and version failures additionally wrap the
// package-level ErrCorrupt / ErrVersion so either sentinel matches.
func ingestErr(op string, err error) error {
	switch {
	case err == nil:
		return nil
	case errors.Is(err, ingest.ErrCorrupt):
		return fmt.Errorf("byteslice: %s: %w: %w", op, ErrCorrupt, err)
	case errors.Is(err, ingest.ErrVersion):
		return fmt.Errorf("byteslice: %s: %w: %w", op, ErrVersion, err)
	}
	return fmt.Errorf("byteslice: %s: %w", op, err)
}

// CreateIngest initialises dir as a new ingest directory around base
// (epoch 1: base snapshot, empty WAL, manifest) and returns the writable
// table. dir is created if missing; a directory that already holds a
// manifest is refused — use OpenIngest to resume it.
func CreateIngest(dir string, base *Table, opts ...IngestOption) (*IngestTable, error) {
	cfg := applyIngestOpts(opts)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("byteslice: create ingest: %w", err)
	}
	if _, err := os.Stat(filepath.Join(dir, ingest.ManifestName)); err == nil {
		return nil, fmt.Errorf("byteslice: create ingest: %w: %s already holds an ingest manifest (use OpenIngest)", os.ErrExist, dir)
	}
	const epoch = 1
	if err := base.SaveFile(filepath.Join(dir, baseName(epoch))); err != nil {
		return nil, err
	}
	wal, err := ingest.Create(filepath.Join(dir, walName(epoch)), epoch, uint64(base.Len()), cfg.syncEach)
	if err != nil {
		return nil, ingestErr("create ingest", err)
	}
	m := ingest.Manifest{Epoch: epoch, Base: baseName(epoch), WAL: walName(epoch)}
	if err := ingest.WriteManifest(dir, m); err != nil {
		wal.Close() //nolint:errcheck // already failing
		return nil, ingestErr("create ingest", err)
	}
	return newIngestTable(dir, cfg, base, wal, epoch, newDelta(base)), nil
}

// OpenIngest resumes an ingest directory: it reads the manifest, loads
// the epoch's base snapshot, replays the WAL to the last intact frame
// (truncating a torn tail) and re-publishes base + replayed rows. A WAL
// frame whose bytes verify wrong fails with ErrCorrupt; a WAL that does
// not belong to the base snapshot fails with ingest.ErrMismatch. Orphan
// artifacts from a crashed epoch switch are removed.
func OpenIngest(dir string, opts ...IngestOption) (*IngestTable, error) {
	cfg := applyIngestOpts(opts)
	m, err := ingest.ReadManifest(dir)
	if err != nil {
		return nil, ingestErr("open ingest "+dir, err)
	}
	base, err := LoadFile(filepath.Join(dir, m.Base))
	if err != nil {
		return nil, err
	}
	wal, rec, err := ingest.Open(filepath.Join(dir, m.WAL), cfg.syncEach)
	if err != nil {
		return nil, ingestErr("open ingest "+dir, err)
	}
	if wal.Epoch() != m.Epoch || wal.BaseRows() != uint64(base.Len()) {
		wal.Close() //nolint:errcheck // already failing
		return nil, fmt.Errorf("byteslice: open ingest %s: %w: WAL (epoch %d, %d base rows) vs manifest epoch %d over %d rows",
			dir, ingest.ErrMismatch, wal.Epoch(), wal.BaseRows(), m.Epoch, base.Len())
	}
	d, err := decodeRowPayloads(base, rec.Rows)
	if err != nil {
		wal.Close() //nolint:errcheck // already failing
		return nil, ingestErr("open ingest "+dir, err)
	}
	obs.Default.Ingest.ReplayedRows.Add(int64(len(rec.Rows)))
	obs.Default.Ingest.TruncatedBytes.Add(rec.Truncated)
	t := newIngestTable(dir, cfg, base, wal, m.Epoch, d)
	t.cleanOrphans(m)
	return t, nil
}

// newIngestTable assembles the in-memory state, publishes the first view
// and starts the background merger.
func newIngestTable(dir string, cfg ingestConfig, base *Table, wal *ingest.WAL, epoch uint64, d delta) *IngestTable {
	t := &IngestTable{dir: dir, cfg: cfg, wal: wal, delta: d}
	t.mu.Lock()
	t.publishLocked(epoch, base)
	t.mu.Unlock()
	t.merger = ingest.NewMerger(cfg.merger, t.mergeOnce)
	t.syncGauges()
	return t
}

// cleanOrphans removes epoch artifacts the manifest does not reference —
// the debris of a crash mid-epoch-switch — so retried merges can recreate
// them and the directory stays inspectable.
func (t *IngestTable) cleanOrphans(m ingest.Manifest) {
	entries, err := os.ReadDir(t.dir)
	if err != nil {
		return
	}
	for _, e := range entries {
		name := e.Name()
		keep := name == ingest.ManifestName || name == m.Base || name == m.WAL
		orphan := strings.HasPrefix(name, "base-") && strings.HasSuffix(name, ".bslc") ||
			strings.HasPrefix(name, "wal-") && strings.HasSuffix(name, ".log") ||
			strings.HasSuffix(name, ".tmp")
		if !keep && orphan {
			os.Remove(filepath.Join(t.dir, name)) //nolint:errcheck // best-effort
		}
	}
}

// encodeRowPayload frames one row for the WAL: per column (base order),
// a NULL flag byte then the 4-byte little-endian code.
func encodeRowPayload(codes []uint32, nulls []bool) []byte {
	buf := make([]byte, 5*len(codes))
	for i, c := range codes {
		if nulls[i] {
			buf[5*i] = 1
		}
		buf[5*i+1] = byte(c)
		buf[5*i+2] = byte(c >> 8)
		buf[5*i+3] = byte(c >> 16)
		buf[5*i+4] = byte(c >> 24)
	}
	return buf
}

// decodeRowPayloads validates replayed WAL rows against the base table's
// schema and code domains and appends them, in order, to a fresh delta.
// Any violation — wrong width, a code outside its column's domain, a
// NULL flag with a non-zero code — wraps ingest.ErrCorrupt: the frame's
// checksum passed, so the log was written by something that disagrees
// with this schema, which must surface rather than decode as garbage.
func decodeRowPayloads(base *Table, rows [][]byte) (delta, error) {
	ncols := len(base.cols)
	d := newDelta(base)
	codes := make([]uint32, ncols)
	nulls := make([]bool, ncols)
	for r, p := range rows {
		if len(p) != 5*ncols {
			return delta{}, fmt.Errorf("%w: WAL row %d has %d bytes, schema wants %d", ingest.ErrCorrupt, r, len(p), 5*ncols)
		}
		for i, c := range base.cols {
			flag := p[5*i]
			code := uint32(p[5*i+1]) | uint32(p[5*i+2])<<8 | uint32(p[5*i+3])<<16 | uint32(p[5*i+4])<<24
			switch {
			case flag > 1:
				return delta{}, fmt.Errorf("%w: WAL row %d column %s: NULL flag %d", ingest.ErrCorrupt, r, c.name, flag)
			case flag == 1 && code != 0:
				return delta{}, fmt.Errorf("%w: WAL row %d column %s: NULL row carries code %d", ingest.ErrCorrupt, r, c.name, code)
			case flag == 0 && code > c.maxCode():
				return delta{}, fmt.Errorf("%w: WAL row %d column %s: code %d exceeds width %d", ingest.ErrCorrupt, r, c.name, code, c.Width())
			case flag == 0 && c.kind == KindString && int64(code) >= int64(c.dict.Cardinality()):
				return delta{}, fmt.Errorf("%w: WAL row %d column %s: code %d outside dictionary", ingest.ErrCorrupt, r, c.name, code)
			}
			codes[i], nulls[i] = code, flag == 1
		}
		d.appendRow(codes, nulls)
	}
	return d, nil
}

// Append appends one row. vals maps column names to native values —
// int64 for integer columns, float64 for decimal, string for string,
// uint32 for code columns — or nil for NULL. Every column must be
// present; a row that does not fit the schema fails with ErrSchema. The
// row is validated and encoded atomically, made durable in the WAL, then
// published to readers; when Append returns nil the row survives a
// crash. At the delta bound it fails with ErrBackpressure and wakes the
// merger.
func (t *IngestTable) Append(vals map[string]any) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.closed {
		return fmt.Errorf("byteslice: append: %w", ErrTableClosed)
	}
	v := t.view.Load()
	if t.delta.n >= t.cfg.deltaBound {
		obs.Default.Ingest.Backpressure.Add(1)
		t.merger.Trigger()
		return fmt.Errorf("byteslice: append: %d unmerged delta rows at bound %d: %w",
			t.delta.n, t.cfg.deltaBound, ErrBackpressure)
	}
	base := v.base
	if len(vals) != len(base.cols) {
		return fmt.Errorf("%w: row has %d values, table has %d columns", ErrSchema, len(vals), len(base.cols))
	}
	codes := make([]uint32, len(base.cols))
	nulls := make([]bool, len(base.cols))
	for i, c := range base.cols {
		val, ok := vals[c.name]
		if !ok {
			return fmt.Errorf("%w: row is missing column %s", ErrSchema, c.name)
		}
		if val == nil {
			nulls[i] = true
			continue
		}
		code, err := c.encodeValue(val)
		if err != nil {
			return err
		}
		codes[i] = code
	}

	// Durability before visibility: the WAL frame lands (and, with synced
	// appends, reaches disk) before the row is published to readers.
	payload := encodeRowPayload(codes, nulls)
	if err := t.wal.Append(payload); err != nil {
		return fmt.Errorf("byteslice: append: %w", err)
	}
	t.delta.appendRow(codes, nulls)
	t.publishLocked(v.epoch, base)
	obs.Default.Ingest.AppendedRows.Add(1)
	obs.Default.Ingest.AppendedBytes.Add(int64(len(payload)) + 9)
	obs.Default.Ingest.DeltaRows.Store(int64(t.delta.n))
	obs.Default.Ingest.WALBytes.Store(t.wal.Size())
	if t.cfg.autoMerge && plan.ShouldMerge(base.n, t.delta.n) {
		t.merger.Trigger()
	}
	return nil
}

// encodeValue encodes one native value for the column, type-checked. A
// value of the wrong type, outside the column's domain or outside a
// string column's dictionary wraps ErrSchema.
func (c *Column) encodeValue(v any) (uint32, error) {
	switch c.kind {
	case KindInt:
		x, ok := v.(int64)
		if !ok {
			return 0, fmt.Errorf("%w: column %s wants int64, got %T", ErrSchema, c.name, v)
		}
		code, err := c.ints.Encode(x)
		if err != nil {
			return 0, fmt.Errorf("%w: column %s: %w", ErrSchema, c.name, err)
		}
		return code, nil
	case KindDecimal:
		x, ok := v.(float64)
		if !ok {
			return 0, fmt.Errorf("%w: column %s wants float64, got %T", ErrSchema, c.name, v)
		}
		code, err := c.decs.Encode(x)
		if err != nil {
			return 0, fmt.Errorf("%w: column %s: %w", ErrSchema, c.name, err)
		}
		return code, nil
	case KindString:
		x, ok := v.(string)
		if !ok {
			return 0, fmt.Errorf("%w: column %s wants string, got %T", ErrSchema, c.name, v)
		}
		code, err := c.dict.Encode(x)
		if err != nil {
			return 0, fmt.Errorf("%w: column %s: %w (the dictionary is fixed at build time)", ErrSchema, c.name, err)
		}
		return code, nil
	case KindCode:
		x, ok := v.(uint32)
		if !ok {
			return 0, fmt.Errorf("%w: column %s wants uint32, got %T", ErrSchema, c.name, v)
		}
		if x > c.maxCode() {
			return 0, fmt.Errorf("%w: column %s: code %d exceeds width %d", ErrSchema, c.name, x, c.Width())
		}
		return x, nil
	}
	return 0, fmt.Errorf("byteslice: unknown kind %v", c.kind)
}

// publishLocked atomically publishes a view of base and the writer's
// current delta. Callers hold mu.
func (t *IngestTable) publishLocked(epoch uint64, base *Table) {
	t.view.Store(&ingestView{epoch: epoch, base: base, delta: t.delta.window()})
}

// mergeOnce is one merge attempt, the background merger's run function:
// build the next epoch's base off-lock from the current view — its base
// and every delta row it published — then commit under the writer lock:
// rotate the WAL, re-appending the rows appended since, swap the manifest
// atomically and publish the new epoch. A failure at any step leaves the
// previous epoch intact on disk and in memory; the merger retries with
// backoff.
func (t *IngestTable) mergeOnce() error {
	t.mergeMu.Lock()
	defer t.mergeMu.Unlock()

	t.mu.Lock()
	closed := t.closed
	v := t.view.Load()
	t.mu.Unlock()
	if closed || v.delta.n == 0 {
		return nil
	}

	// Off-lock: the view is immutable, so the build races nothing.
	// Appends proceed concurrently past its delta window; commit
	// re-appends them into the rotated WAL.
	parts, err := v.delta.tables(v.base)
	if err != nil {
		obs.Default.Ingest.MergeFailures.Add(1)
		return err
	}
	merged, err := mergeTables(v.base, parts)
	if err != nil {
		obs.Default.Ingest.MergeFailures.Add(1)
		return err
	}
	newEpoch := v.epoch + 1
	basePath := filepath.Join(t.dir, baseName(newEpoch))
	if err := merged.SaveFile(basePath); err != nil {
		obs.Default.Ingest.MergeFailures.Add(1)
		return err
	}

	t.mu.Lock()
	defer t.mu.Unlock()
	if t.closed {
		os.Remove(basePath) //nolint:errcheck // best-effort cleanup
		return nil
	}
	err = t.commitMergeLocked(merged, newEpoch, v.delta.n)
	if err != nil {
		obs.Default.Ingest.MergeFailures.Add(1)
	}
	return err
}

// commitMergeLocked rotates the WAL and swaps the manifest to publish
// newEpoch, whose base covers the first `covered` delta rows; the rest
// become the new delta. Callers hold mu. On failure the previous epoch's
// WAL, base, manifest and delta are untouched and the partial new WAL is
// removed.
//
// The new WAL takes the rest's rows unsynced and syncs once before the
// manifest rename: until that rename the old WAL, which holds every one
// of them durably, stays authoritative. Appends after the commit follow
// the table's sync policy again.
func (t *IngestTable) commitMergeLocked(merged *Table, newEpoch uint64, covered int) error {
	walPath := filepath.Join(t.dir, walName(newEpoch))
	os.Remove(walPath) //nolint:errcheck // clear debris of a failed earlier attempt
	nw, err := ingest.Create(walPath, newEpoch, uint64(merged.Len()), false)
	if err != nil {
		return fmt.Errorf("byteslice: merge: %w", err)
	}
	abort := func(err error) error {
		nw.Close()         //nolint:errcheck // already failing
		os.Remove(walPath) //nolint:errcheck // best-effort cleanup
		return fmt.Errorf("byteslice: merge: %w", err)
	}
	rest := t.delta.from(covered)
	parts, err := rest.tables(merged)
	if err != nil {
		return abort(err)
	}
	for _, p := range parts {
		if err := appendTableRows(nw, p); err != nil {
			return abort(err)
		}
	}
	if err := nw.Sync(); err != nil {
		return abort(err)
	}
	nw.SetSyncEach(t.cfg.syncEach)
	m := ingest.Manifest{Epoch: newEpoch, Base: baseName(newEpoch), WAL: walName(newEpoch)}
	if err := ingest.WriteManifest(t.dir, m); err != nil {
		return abort(err)
	}

	// The manifest rename committed the switch; everything after is
	// bookkeeping on the now-stale epoch.
	old := t.wal
	t.wal = nw
	t.delta = rest
	t.publishLocked(newEpoch, merged)
	oldPath := old.Path()
	old.Close()                                           //nolint:errcheck // stale epoch
	os.Remove(oldPath)                                    //nolint:errcheck // best-effort
	os.Remove(filepath.Join(t.dir, baseName(newEpoch-1))) //nolint:errcheck // best-effort
	obs.Default.Ingest.Merges.Add(1)
	obs.Default.Ingest.Epoch.Store(int64(newEpoch))
	obs.Default.Ingest.DeltaRows.Store(int64(t.delta.n))
	obs.Default.Ingest.WALBytes.Store(t.wal.Size())
	return nil
}

// mergeTables rebuilds base followed by the delta's tables into one fresh
// Table, column by column, preserving each base column's format, encoder
// and zone maps.
func mergeTables(base *Table, delta []*Table) (*Table, error) {
	parts := append([]*Table{base}, delta...)
	total := 0
	for _, p := range parts {
		total += p.n
	}
	cols := make([]*Column, len(base.cols))
	for i, c := range base.cols {
		codes := make([]uint32, total)
		var nullRows []int
		off := 0
		for _, p := range parts {
			if err := gatherCodes(p.cols[i], 0, codes[off:off+p.n]); err != nil {
				return nil, err
			}
			for _, r := range p.cols[i].nullRows() {
				nullRows = append(nullRows, off+r)
			}
			off += p.n
		}
		col, err := newColumn(*c, c.Width(), codes, nullRows, c.Format(), c.HasZoneMaps())
		if err != nil {
			return nil, err
		}
		cols[i] = col
	}
	return NewTable(cols...)
}

// appendTableRows re-frames a table's rows into a WAL — the rotation path
// for the delta rows a merge does not cover.
func appendTableRows(w *ingest.WAL, seg *Table) error {
	colCodes := make([][]uint32, len(seg.cols))
	for i, c := range seg.cols {
		codes, err := materializeCodes(c)
		if err != nil {
			return err
		}
		colCodes[i] = codes
	}
	row := make([]uint32, len(seg.cols))
	nulls := make([]bool, len(seg.cols))
	for r := 0; r < seg.n; r++ {
		for i := range seg.cols {
			if seg.cols[i].IsNull(r) {
				row[i], nulls[i] = 0, true
			} else {
				row[i], nulls[i] = colCodes[i][r], false
			}
		}
		if err := w.Append(encodeRowPayload(row, nulls)); err != nil {
			return err
		}
	}
	return nil
}

// Filter evaluates the conjunction of the filters over one consistent
// view: the base epoch with its storage layouts, then the delta as
// ByteSlice. Row numbers are stable across appends and merges (base
// order, then append order). Readers never block: concurrent appends and
// merges affect only later calls.
func (t *IngestTable) Filter(filters []Filter, opts ...QueryOption) (*Result, error) {
	return t.Pin().Filter(filters, opts...)
}

// FilterAny evaluates the disjunction over the same consistent view.
func (t *IngestTable) FilterAny(filters []Filter, opts ...QueryOption) (*Result, error) {
	return t.Pin().FilterAny(filters, opts...)
}

// Query evaluates a boolean expression tree over one consistent view,
// exactly as Table.Query does over an immutable table.
func (t *IngestTable) Query(e Expr, opts ...QueryOption) (*Result, error) {
	return t.Pin().Query(e, opts...)
}

// Pinned is one immutable published view of an IngestTable: the epoch's
// base and a fixed prefix of the delta. Every query through the same
// Pinned sees exactly the same rows no matter how many appends or merges
// race past it — Epoch and Len are the consistency anchor a result cache
// can key on, because the row set a Pinned exposes is fully determined by
// (Epoch, Len): appends grow Len within an epoch and merges bump Epoch
// without changing Len, and published rows are never mutated.
//
//bsvet:sealed
type Pinned struct {
	v *ingestView
}

// Pin captures the table's current published view.
func (t *IngestTable) Pin() Pinned { return Pinned{v: t.view.Load()} }

// Epoch returns the pinned view's epoch.
func (p Pinned) Epoch() uint64 { return p.v.epoch }

// Len returns the pinned view's total row count.
func (p Pinned) Len() int { return p.v.rows() }

// DeltaLen returns the pinned view's unmerged row count.
func (p Pinned) DeltaLen() int { return p.v.delta.n }

// Base returns the pinned epoch's immutable base table — the schema
// authority for resolving filters against this view.
func (p Pinned) Base() *Table { return p.v.base }

// Filter evaluates the conjunction over the pinned view.
func (p Pinned) Filter(filters []Filter, opts ...QueryOption) (*Result, error) {
	return p.v.eval(filters, false, opts)
}

// FilterAny evaluates the disjunction over the pinned view.
func (p Pinned) FilterAny(filters []Filter, opts ...QueryOption) (*Result, error) {
	return p.v.eval(filters, true, opts)
}

// Query evaluates a boolean expression tree over the pinned view. Unlike
// IngestTable.Query called repeatedly, the sub-evaluations of one
// expression cannot straddle an append or merge: they all see this view.
func (p Pinned) Query(e Expr, opts ...QueryOption) (*Result, error) {
	return evalExpr(p, e, opts)
}

// eval evaluates the filters over the view: Table.Filter / FilterAny on
// the base and on each of the delta's tables alike. The base writes into
// the first rows of the view-length result, and each delta result is
// spliced in at its rows' offset.
func (v *ingestView) eval(filters []Filter, disjunct bool, opts []QueryOption) (*Result, error) {
	out := bitvec.New(v.rows())
	baseRes, err := v.base.evalInto(filters, disjunct, opts, out.Prefix(v.base.n))
	if err != nil {
		return nil, err
	}
	parts, err := v.delta.tables(v.base)
	if err != nil {
		return nil, err
	}

	// The delta's evaluations run with per-query observability off, so a
	// logical query counts once in the process-wide registry (the base
	// evaluation); their work lands in one scan(delta) stage.
	var cfg queryConfig
	for _, o := range opts {
		o(&cfg)
	}
	st, done := cfg.stage(baseRes.stats, "scan(delta)", "delta")
	defer done()
	partOpts := append(append([]QueryOption(nil), opts...), WithObservability(false), withoutExplain)
	off := v.base.n
	for _, p := range parts {
		res, err := p.eval(filters, disjunct, partOpts)
		if err != nil {
			return nil, err
		}
		out.OrAt(res.bv, off)
		off += p.n
	}
	if st != nil {
		slices := 0
		for _, f := range filters {
			slices += (v.base.byName[f.Col].Width() + 7) / 8
		}
		st.AddRows(int64(v.delta.n), int64(v.delta.n*slices))
	}
	return &Result{bv: out, explain: baseRes.explain, zoneSkipped: baseRes.zoneSkipped, stats: baseRes.stats}, nil
}

// withoutExplain is the delta parts' query option: their results are
// spliced into the view's and dropped, so their plans are never printed.
func withoutExplain(c *queryConfig) { c.noExplain = true }

// Len returns the total queryable rows (base epoch + unmerged delta).
func (t *IngestTable) Len() int { return t.view.Load().rows() }

// DeltaLen returns the unmerged rows.
func (t *IngestTable) DeltaLen() int { return t.view.Load().delta.n }

// Epoch returns the current epoch number.
func (t *IngestTable) Epoch() uint64 { return t.view.Load().epoch }

// Base returns the current epoch's immutable base table.
func (t *IngestTable) Base() *Table { return t.view.Load().base }

// MergeNow runs one synchronous merge attempt (serialised with the
// background merger) and reports its outcome.
func (t *IngestTable) MergeNow() error {
	t.mu.Lock()
	closed := t.closed
	t.mu.Unlock()
	if closed {
		return fmt.Errorf("byteslice: merge: %w", ErrTableClosed)
	}
	return t.mergeOnce()
}

// MergeStats reports the background merger's lifetime successful merges
// and recovered panics, and its last failure (nil after a success).
func (t *IngestTable) MergeStats() (merges, panics int64, lastErr error) {
	return t.merger.Stats()
}

// Close stops the background merger (waiting out an in-flight merge),
// syncs and closes the WAL. Queries keep working on the last published
// view; appends and merges fail with ErrTableClosed.
func (t *IngestTable) Close() error {
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return nil
	}
	t.closed = true
	t.mu.Unlock()
	// Outside mu: the merger's in-flight attempt needs the lock to
	// observe closed and bail.
	t.merger.Close()
	t.mu.Lock()
	defer t.mu.Unlock()
	if err := t.wal.Close(); err != nil {
		return fmt.Errorf("byteslice: close ingest: %w", err)
	}
	return nil
}

// syncGauges publishes the pipeline's position to the process-wide
// registry (last table wins when several are open).
func (t *IngestTable) syncGauges() {
	v := t.view.Load()
	obs.Default.Ingest.Epoch.Store(int64(v.epoch))
	obs.Default.Ingest.DeltaRows.Store(int64(v.delta.n))
	obs.Default.Ingest.WALBytes.Store(t.wal.Size())
}
