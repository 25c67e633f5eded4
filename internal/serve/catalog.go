package serve

import (
	"fmt"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"byteslice"
	"byteslice/internal/obs"
)

// Catalog is the set of mounted tables a Server queries. Three mount
// kinds exist:
//
//   - snapshot: a .bslc file loaded via LoadFile. Immutable until Reload
//     notices the file changed and remounts it under the next version.
//   - ingest: a WAL-backed ingest directory resumed via OpenIngest. Live:
//     appends and merges flow through the mounted IngestTable, and every
//     request pins one consistent view.
//   - mem: an in-process *Table handed to MountTable (tests, bsbench).
//
// Mounting happens at startup or behind Reload; lookups on the query
// path are one RLock + map probe plus an atomic pointer load.
type Catalog struct {
	reg *obs.Registry

	mu sync.RWMutex
	m  map[string]*mount
}

func newCatalog(reg *obs.Registry) *Catalog {
	return &Catalog{reg: reg, m: make(map[string]*mount)}
}

// mount is one catalog entry. Exactly one of snap/ing is used: snap for
// snapshot and mem mounts (an atomic pointer so Reload swaps without
// blocking queries), ing for live ingest mounts.
type mount struct {
	name string
	kind string // "snapshot", "ingest", "mem"
	path string // source file or directory ("" for mem)

	snap atomic.Pointer[snapState]
	ing  *byteslice.IngestTable
}

// snapState is one loaded generation of a snapshot/mem mount. version
// starts at 1 and bumps on every remount, playing the role an ingest
// epoch plays for cache keying.
type snapState struct {
	tbl     *byteslice.Table
	version uint64
	mtime   time.Time
	size    int64
}

// MountSnapshot loads a .bslc snapshot file and mounts it under name.
func (c *Catalog) MountSnapshot(name, path string) error {
	st, err := loadSnapState(path, 1)
	if err != nil {
		return err
	}
	m := &mount{name: name, kind: "snapshot", path: path}
	m.snap.Store(st)
	return c.add(m)
}

// MountIngest resumes an ingest directory and mounts its live table
// under name. The table's background merger runs for the life of the
// mount; Close stops it.
func (c *Catalog) MountIngest(name, dir string, opts ...byteslice.IngestOption) error {
	it, err := byteslice.OpenIngest(dir, opts...)
	if err != nil {
		return err
	}
	return c.add(&mount{name: name, kind: "ingest", path: dir, ing: it})
}

// MountTable mounts an in-process table under name.
func (c *Catalog) MountTable(name string, t *byteslice.Table) error {
	m := &mount{name: name, kind: "mem"}
	m.snap.Store(&snapState{tbl: t, version: 1})
	return c.add(m)
}

func (c *Catalog) add(m *mount) error {
	if m.name == "" {
		return fmt.Errorf("serve: mount needs a table name")
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, dup := c.m[m.name]; dup {
		return fmt.Errorf("serve: table %q already mounted", m.name)
	}
	c.m[m.name] = m
	return nil
}

func loadSnapState(path string, version uint64) (*snapState, error) {
	info, err := os.Stat(path)
	if err != nil {
		return nil, fmt.Errorf("serve: mount %s: %w", path, err)
	}
	tbl, err := byteslice.LoadFile(path)
	if err != nil {
		return nil, err
	}
	return &snapState{tbl: tbl, version: version, mtime: info.ModTime(), size: info.Size()}, nil
}

// lookup resolves a mount by name.
func (c *Catalog) lookup(name string) (*mount, error) {
	c.mu.RLock()
	m := c.m[name]
	c.mu.RUnlock()
	if m == nil {
		return nil, fmt.Errorf("%w: %q", ErrNoTable, name)
	}
	return m, nil
}

// Names returns the mounted table names in sorted order.
func (c *Catalog) Names() []string {
	c.mu.RLock()
	names := make([]string, 0, len(c.m))
	for n := range c.m {
		names = append(names, n)
	}
	c.mu.RUnlock()
	sort.Strings(names)
	return names
}

// Reload re-examines every snapshot mount and remounts the ones whose
// backing file changed (mtime or size), bumping their version so cached
// results keyed on the old version can never serve the new data. Ingest
// and mem mounts are live already and reload nothing. It returns how
// many mounts were remounted; the first load failure aborts the sweep
// (already-swapped mounts stay swapped, the failed one keeps serving its
// old generation).
func (c *Catalog) Reload() (int, error) {
	c.mu.RLock()
	mounts := make([]*mount, 0, len(c.m))
	for _, m := range c.m {
		mounts = append(mounts, m)
	}
	c.mu.RUnlock()

	reloaded := 0
	for _, m := range mounts {
		if m.kind != "snapshot" {
			continue
		}
		cur := m.snap.Load()
		info, err := os.Stat(m.path)
		if err != nil {
			return reloaded, fmt.Errorf("serve: reload %s: %w", m.name, err)
		}
		if info.ModTime().Equal(cur.mtime) && info.Size() == cur.size {
			continue
		}
		st, err := loadSnapState(m.path, cur.version+1)
		if err != nil {
			return reloaded, fmt.Errorf("serve: reload %s: %w", m.name, err)
		}
		m.snap.Store(st)
		reloaded++
		c.reg.Serve.Reloads.Add(1)
	}
	return reloaded, nil
}

// Close closes every ingest mount (stopping mergers, closing WALs).
func (c *Catalog) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	var first error
	for _, m := range c.m {
		if m.ing != nil {
			if err := m.ing.Close(); err != nil && first == nil {
				first = err
			}
		}
	}
	return first
}

// binding pins one consistent generation of a mount for the duration of
// a request: the immutable table (snapshot/mem) or the pinned ingest
// view, plus the (epoch, rows) version the result cache keys on. Within
// a binding the visible row set cannot change, so a result computed
// through it is exactly reproducible from its version.
type binding struct {
	m    *mount
	tbl  *byteslice.Table // snapshot/mem mounts
	pin  byteslice.Pinned // ingest mounts
	live bool

	epoch uint64
	rows  int
}

// bind pins the named table's current generation.
func (c *Catalog) bind(name string) (binding, error) {
	m, err := c.lookup(name)
	if err != nil {
		return binding{}, err
	}
	if m.ing != nil {
		p := m.ing.Pin()
		return binding{m: m, pin: p, live: true, epoch: p.Epoch(), rows: p.Len()}, nil
	}
	st := m.snap.Load()
	return binding{m: m, tbl: st.tbl, epoch: st.version, rows: st.tbl.Len()}, nil
}

// schema returns the table whose columns resolve this binding's filters:
// the table itself, or the pinned epoch's base for live mounts (the
// delta shares the base schema).
func (b binding) schema() *byteslice.Table {
	if b.live {
		return b.pin.Base()
	}
	return b.tbl
}

// query evaluates the expression over the pinned generation.
func (b binding) query(e byteslice.Expr, opts ...byteslice.QueryOption) (*byteslice.Result, error) {
	if b.live {
		return b.pin.Query(e, opts...)
	}
	return b.tbl.Query(e, opts...)
}
