// Package cache implements a set-associative, multi-level, inclusive cache
// hierarchy simulator with LRU replacement and a next-line stream prefetcher.
//
// The simulator models the memory subsystem of the paper's evaluation
// machine (an Intel i7-4770 "Haswell": 32 KB 8-way L1d, 256 KB 8-way L2,
// 8 MB 16-way shared L3, 64-byte lines). Storage layouts register the
// simulated addresses they touch during scans and lookups, and the
// hierarchy records at which level each line was served. The perf package
// turns those counts into modelled stall cycles.
//
// Addresses are purely logical: an Arena hands out disjoint address ranges
// so that distinct columns live in distinct memory regions, which is what
// makes cache conflict behaviour between columns observable (Figure 12b and
// Figure 19b of the paper measure exactly that).
package cache

import (
	"fmt"
	"sync/atomic"
)

// Level is the outcome of a single line access: the component of the
// hierarchy that served the line.
type Level int

const (
	// L1 means the line was already resident in the first-level cache
	// (or was streamed in by the prefetcher ahead of the access).
	L1 Level = iota
	// L2 means the line was served by the second-level cache.
	L2
	// L3 means the line was served by the last-level cache.
	L3
	// Memory means the line had to be fetched from DRAM.
	Memory
)

// String returns the conventional name of the serving level.
func (l Level) String() string {
	switch l {
	case L1:
		return "L1"
	case L2:
		return "L2"
	case L3:
		return "L3"
	case Memory:
		return "Memory"
	}
	return fmt.Sprintf("Level(%d)", int(l))
}

// LevelConfig describes one cache level.
type LevelConfig struct {
	// Size is the total capacity in bytes.
	Size uint64
	// Ways is the set associativity.
	Ways int
}

// Config describes a hierarchy. The zero value is not usable; use
// DefaultConfig for the paper's machine.
type Config struct {
	// LineSize is the cache line size in bytes and must be a power of two.
	LineSize uint64
	// Levels are ordered from the innermost (L1) outwards.
	Levels []LevelConfig
	// PrefetchStreams is the number of concurrent sequential streams the
	// next-line prefetcher tracks. Zero disables prefetching.
	PrefetchStreams int
}

// DefaultConfig models the Intel i7-4770 used in the paper's experiments.
func DefaultConfig() Config {
	return Config{
		LineSize: 64,
		Levels: []LevelConfig{
			{Size: 32 << 10, Ways: 8},
			{Size: 256 << 10, Ways: 8},
			{Size: 8 << 20, Ways: 16},
		},
		PrefetchStreams: 16,
	}
}

// Stats aggregates access outcomes. Hits[L1] counts lines served by L1
// (including prefetched lines), Hits[Memory] counts DRAM fetches.
type Stats struct {
	Accesses     uint64
	Hits         [4]uint64
	PrefetchHits uint64
	// MemFetches counts lines brought in from DRAM — demand misses plus
	// prefetches — i.e. the memory-bandwidth consumption in lines.
	MemFetches uint64
}

// Add accumulates o into s.
func (s *Stats) Add(o Stats) {
	s.Accesses += o.Accesses
	for i := range s.Hits {
		s.Hits[i] += o.Hits[i]
	}
	s.PrefetchHits += o.PrefetchHits
	s.MemFetches += o.MemFetches
}

// MissesBelow returns the number of accesses not served at or before the
// given level, e.g. MissesBelow(L2) is the paper's "L2 cache misses".
func (s *Stats) MissesBelow(l Level) uint64 {
	var served uint64
	for i := Level(0); i <= l; i++ {
		served += s.Hits[i]
	}
	return s.Accesses - served
}

// level is one set-associative cache level with LRU replacement. Lines are
// identified by line number (addr / lineSize); each set is a small slice
// ordered most-recently-used first.
type level struct {
	setMask uint64
	ways    int
	sets    [][]uint64
}

func newLevel(cfg LevelConfig, lineSize uint64) *level {
	nsets := cfg.Size / (lineSize * uint64(cfg.Ways))
	if nsets == 0 {
		nsets = 1
	}
	if nsets&(nsets-1) != 0 {
		panic(fmt.Sprintf("cache: level size %d / (line %d * ways %d) is not a power-of-two set count", cfg.Size, lineSize, cfg.Ways))
	}
	return &level{
		setMask: nsets - 1,
		ways:    cfg.Ways,
		sets:    make([][]uint64, nsets),
	}
}

// touch looks the line up and, on hit, promotes it to MRU.
func (lv *level) touch(line uint64) bool {
	set := lv.sets[line&lv.setMask]
	for i, l := range set {
		if l == line {
			copy(set[1:i+1], set[:i])
			set[0] = line
			return true
		}
	}
	return false
}

// peek reports whether the line is resident, without recency side effects.
func (lv *level) peek(line uint64) bool {
	for _, l := range lv.sets[line&lv.setMask] {
		if l == line {
			return true
		}
	}
	return false
}

// fill inserts the line at MRU, evicting the LRU line if the set is full.
func (lv *level) fill(line uint64) {
	idx := line & lv.setMask
	set := lv.sets[idx]
	if len(set) < lv.ways {
		set = append(set, 0)
	}
	copy(set[1:], set)
	set[0] = line
	lv.sets[idx] = set
}

// stream is one tracked forward access stream. A stream activates on its
// second nearby forward access and then keeps streamDepth lines prefetched
// ahead; forward gaps up to streamReach lines continue the stream, which is
// what lets the prefetcher cover both dense sequential scans and the gappy
// deeper-slice accesses an early-stopping scan produces (hardware
// streamers behave this way, and the paper additionally uses software
// prefetching in all implementations).
type stream struct {
	last  uint64 // last line accessed by the stream
	depth uint64 // highest line prefetched so far
	hits  int
	age   uint64
}

const (
	// streamReach is the maximum forward gap (in lines) that continues a
	// stream.
	streamReach = 8
	// streamDepth is how many lines the streamer keeps prefetched ahead.
	streamDepth = 4
)

// Hierarchy is a simulated cache hierarchy. It is not safe for concurrent
// use; parallel scans use one Hierarchy per worker and merge Stats.
type Hierarchy struct {
	cfg       Config
	lineShift uint
	levels    []*level
	streams   []stream
	clock     uint64
	stats     Stats
}

// New builds a hierarchy from cfg.
func New(cfg Config) *Hierarchy {
	if cfg.LineSize == 0 || cfg.LineSize&(cfg.LineSize-1) != 0 {
		panic("cache: line size must be a non-zero power of two")
	}
	if len(cfg.Levels) == 0 || len(cfg.Levels) > 3 {
		panic("cache: between one and three levels are supported")
	}
	shift := uint(0)
	for 1<<shift != cfg.LineSize {
		shift++
	}
	h := &Hierarchy{cfg: cfg, lineShift: shift}
	for _, lc := range cfg.Levels {
		h.levels = append(h.levels, newLevel(lc, cfg.LineSize))
	}
	if cfg.PrefetchStreams > 0 {
		h.streams = make([]stream, cfg.PrefetchStreams)
	}
	return h
}

// Stats returns the accumulated access statistics.
func (h *Hierarchy) Stats() Stats { return h.stats }

// ResetStats clears the statistics but keeps cache contents warm.
func (h *Hierarchy) ResetStats() { h.stats = Stats{} }

// Access simulates a read of size bytes at the given simulated address,
// touching every cache line the range covers. It returns the outermost
// (slowest) level that served any of the touched lines, which the cost
// model converts into stall cycles.
func (h *Hierarchy) Access(addr, size uint64) Level {
	if size == 0 {
		return L1
	}
	first := addr >> h.lineShift
	last := (addr + size - 1) >> h.lineShift
	worst := L1
	for line := first; line <= last; line++ {
		if l := h.accessLine(line); l > worst {
			worst = l
		}
	}
	return worst
}

// Peek returns the level that would serve the access right now, without
// changing any cache, prefetcher or statistics state. Grouped lookups are
// charged from Peek before their accesses are applied: the loads of one
// lookup issue together, so a prefetch triggered by the first load cannot
// arrive in time for the others (the simulator has no notion of time, so
// without this a multi-line VBP lookup would be rescued by prefetches real
// hardware could not issue early enough).
func (h *Hierarchy) Peek(addr, size uint64) Level {
	if size == 0 {
		return L1
	}
	first := addr >> h.lineShift
	last := (addr + size - 1) >> h.lineShift
	worst := L1
	for line := first; line <= last; line++ {
		level := Memory
		for i, lv := range h.levels {
			if lv.peek(line) {
				level = Level(i)
				break
			}
		}
		if level > worst {
			worst = level
		}
	}
	return worst
}

func (h *Hierarchy) accessLine(line uint64) Level {
	h.stats.Accesses++
	h.clock++

	prefetched := h.notifyStreams(line)

	for i, lv := range h.levels {
		if lv.touch(line) {
			h.stats.Hits[Level(i)]++
			if i == 0 && prefetched {
				h.stats.PrefetchHits++
			}
			// Refresh recency in inner levels.
			for j := 0; j < i; j++ {
				h.levels[j].fill(line)
			}
			return Level(i)
		}
	}
	h.stats.Hits[Memory]++
	h.stats.MemFetches++
	for _, lv := range h.levels {
		lv.fill(line)
	}
	return Memory
}

// notifyStreams advances the prefetcher. It returns true when the line was
// inside an active stream's prefetched window. A forward access within
// streamReach of a tracked stream continues (and on the second hit,
// activates) it; anything else recycles the oldest stream slot.
func (h *Hierarchy) notifyStreams(line uint64) bool {
	if len(h.streams) == 0 {
		return false
	}
	oldest := 0
	for i := range h.streams {
		s := &h.streams[i]
		if s.hits > 0 && line == s.last {
			// Re-access of the stream's current line.
			s.age = h.clock
			return s.hits > 1 && line <= s.depth
		}
		if line > s.last && line-s.last <= streamReach {
			s.hits++
			s.age = h.clock
			covered := s.hits > 2 && line <= s.depth
			if s.hits > 1 {
				start := line + 1
				if s.depth+1 > start {
					start = s.depth + 1
				}
				target := line + streamDepth
				for l := start; l <= target; l++ {
					h.prefill(l)
				}
				if target > s.depth {
					s.depth = target
				}
			}
			s.last = line
			return covered
		}
		if s.age < h.streams[oldest].age {
			oldest = i
		}
	}
	h.streams[oldest] = stream{last: line, age: h.clock, hits: 1}
	return false
}

func (h *Hierarchy) prefill(line uint64) {
	resident := false
	for _, lv := range h.levels {
		if lv.touch(line) {
			resident = true
			break
		}
	}
	if !resident {
		h.stats.MemFetches++
	}
	for _, lv := range h.levels {
		if !lv.touch(line) {
			lv.fill(line)
		}
	}
}

// Arena hands out disjoint simulated address ranges. Regions are aligned
// to cache lines and separated by one guard line so that accesses to
// different regions never share a line. Alloc is safe for concurrent use.
type Arena struct {
	lineSize uint64
	next     atomic.Uint64
}

// NewArena returns an arena whose regions are aligned to lineSize.
func NewArena(lineSize uint64) *Arena {
	if lineSize == 0 {
		lineSize = 64
	}
	a := &Arena{lineSize: lineSize}
	a.next.Store(lineSize)
	return a
}

// Alloc reserves size bytes and returns the region's base address.
func (a *Arena) Alloc(size uint64) uint64 {
	step := (size + 2*a.lineSize - 1) / a.lineSize * a.lineSize
	return a.next.Add(step) - step
}
