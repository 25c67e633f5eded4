// Package perf models the processor-side costs the paper reports: retired
// instructions, branch mispredictions, and memory stall cycles.
//
// The paper evaluates storage layouts with hardware performance counters
// (Intel PCM on a Haswell i7-4770). Go exposes no such counters for an
// emulated instruction stream, so this package provides the synthetic
// equivalent: every emulated SIMD or scalar operation increments an
// instruction counter, conditional branches run through a simulated 2-bit
// saturating branch predictor, and memory accesses run through the cache
// simulator (internal/cache). A Model converts the counts into modelled
// cycles:
//
//	cycles = instructions·CPI + mispredicts·penalty + Σ level-hits·latency
//
// Absolute constants are calibration only; the figures reproduced in this
// repository depend on the counts, which are exact for the emulated
// instruction streams.
package perf

import (
	"fmt"

	"byteslice/internal/cache"
)

// Model holds the cost calibration constants.
type Model struct {
	// CPI is the base cycles-per-instruction of the modelled core for the
	// mostly-dependent SIMD streams the layouts execute. Haswell sustains
	// an IPC well above 1 on these kernels, hence CPI < 1.
	CPI float64
	// MispredictPenalty is the cycle cost of one branch misprediction.
	MispredictPenalty float64
	// L2HitLatency, L3HitLatency and MemoryLatency are the additional
	// stall cycles charged for a line served by L2, L3 or DRAM. L1 hits
	// (including prefetched lines) are covered by the pipeline and cost
	// nothing extra.
	L2HitLatency  float64
	L3HitLatency  float64
	MemoryLatency float64
	// BandwidthBytesPerCycle is the peak DRAM bandwidth of the socket in
	// bytes per core-cycle, shared by all threads. It caps multi-threaded
	// scan throughput (Figure 13).
	BandwidthBytesPerCycle float64
	// MLP is the memory-level parallelism of the core: how many
	// independent outstanding loads overlap (line-fill buffers). Grouped
	// loads — e.g. the ⌈k/8⌉ slice reads of one ByteSlice lookup, whose
	// addresses are all known upfront — divide their stall time by up to
	// this factor. This models the paper's observation that ByteSlice
	// code reconstruction overlaps in the instruction pipeline (§3.2).
	MLP int
}

// latency returns the stall charge for a line served at the given level.
func (m Model) latency(l cache.Level) float64 {
	switch l {
	case cache.L2:
		return m.L2HitLatency
	case cache.L3:
		return m.L3HitLatency
	case cache.Memory:
		return m.MemoryLatency
	}
	return 0
}

// DefaultModel approximates the paper's 3.4 GHz Haswell with dual-channel
// DDR3-1600 (~25.6 GB/s ≈ 7.5 B/cycle).
func DefaultModel() Model {
	return Model{
		CPI:                    0.55,
		MispredictPenalty:      15,
		L2HitLatency:           8,
		L3HitLatency:           26,
		MemoryLatency:          90,
		BandwidthBytesPerCycle: 7.5,
		MLP:                    8,
	}
}

// Counters is the raw event record of one profiled run.
type Counters struct {
	// SIMD counts emulated vector instructions, Scalar counts modelled
	// scalar ALU/shift/mask instructions, and Branches counts executed
	// conditional branches (each branch is also one instruction).
	SIMD     uint64
	Scalar   uint64
	Branches uint64
	// Mispredicts counts branches the simulated predictor got wrong.
	Mispredicts uint64
}

// Instructions is the total modelled instruction count.
func (c Counters) Instructions() uint64 { return c.SIMD + c.Scalar + c.Branches }

// predictorState is a 2-bit saturating counter: 0,1 predict not-taken;
// 2,3 predict taken.
type predictorState uint8

// Predictor simulates a per-site branch predictor with 2-bit saturating
// counters, the textbook model for the "highly predictable branch" argument
// the paper makes for ByteSlice's early-stopping check (§3.1.1).
type Predictor struct {
	states []predictorState
}

// Site allocates a new branch site and returns its id. Each static branch
// in a scan kernel owns one site.
func (p *Predictor) Site() int {
	p.states = append(p.states, 1)
	return len(p.states) - 1
}

// Observe records the outcome of one execution of the branch at site and
// reports whether the predictor mispredicted it.
func (p *Predictor) Observe(site int, taken bool) bool {
	s := p.states[site]
	predicted := s >= 2
	if taken {
		if s < 3 {
			p.states[site] = s + 1
		}
	} else {
		if s > 0 {
			p.states[site] = s - 1
		}
	}
	return predicted != taken
}

// Reset returns every site to its initial weakly-not-taken state.
func (p *Predictor) Reset() {
	for i := range p.states {
		p.states[i] = 1
	}
}

// Profile bundles everything one profiled execution records: instruction
// counters, the branch predictor, the optional cache hierarchy, and the
// cost model used to convert counts to cycles.
type Profile struct {
	C     Counters
	Pred  Predictor
	Cache *cache.Hierarchy
	Model Model

	// stalls accrues memory stall cycles as accesses happen, so grouped
	// (overlapped) accesses can be charged less than serial ones.
	stalls float64
}

// Span is one memory access of a grouped load.
type Span struct {
	Addr, Size uint64
}

// NewProfile returns a profile with the default cost model and a cache
// hierarchy modelling the paper's machine.
func NewProfile() *Profile {
	return &Profile{Model: DefaultModel(), Cache: cache.New(cache.DefaultConfig())}
}

// NewProfileNoCache returns a profile that counts instructions and branches
// but does not simulate the memory hierarchy (memory stalls are zero).
func NewProfileNoCache() *Profile {
	return &Profile{Model: DefaultModel()}
}

// Branch executes a conditional branch at the given predictor site: it
// counts the instruction, consults the predictor, and returns cond so call
// sites read naturally as `if p.Branch(site, cond) { ... }`.
func (p *Profile) Branch(site int, cond bool) bool {
	p.C.Branches++
	if p.Pred.Observe(site, cond) {
		p.C.Mispredicts++
	}
	return cond
}

// Touch records a serial memory access of size bytes at the simulated
// address and charges its full stall latency.
func (p *Profile) Touch(addr, size uint64) {
	if p.Cache != nil {
		p.stalls += p.Model.latency(p.Cache.Access(addr, size))
	}
}

// TouchGroup records a group of independent memory accesses whose
// addresses are all known before any of them issues, so the core overlaps
// them: the group's stall charge is the sum of the individual latencies
// divided by the effective parallelism min(len, MLP), floored at the
// slowest single access. Latencies are taken against the cache state
// before the group issues (a prefetch triggered inside the group cannot
// arrive in time for the group itself); the accesses are then applied
// normally so later groups see warmed, trained state.
func (p *Profile) TouchGroup(spans []Span) {
	p.touchGroup(spans, p.Model.MLP)
}

// TouchGroupWindowed is TouchGroup for a long series of grouped loads whose
// overlap is additionally limited to window consecutive accesses — e.g. a
// VBP lookup, whose k loads are independent but whose merging loop only
// exposes a few iterations to the out-of-order window at a time.
func (p *Profile) TouchGroupWindowed(spans []Span, window int) {
	if window < 1 {
		window = 1
	}
	p.touchGroup(spans, window)
}

func (p *Profile) touchGroup(spans []Span, window int) {
	if p.Cache == nil || len(spans) == 0 {
		return
	}
	// Latencies are peeked for the whole group before any access is
	// applied: nothing the group itself triggers (fills, prefetches) can
	// arrive in time for the group.
	var latBuf [48]float64
	lat := latBuf[:0]
	for _, s := range spans {
		lat = append(lat, p.Model.latency(p.Cache.Peek(s.Addr, s.Size)))
	}
	for _, s := range spans {
		p.Cache.Access(s.Addr, s.Size)
	}
	if p.Model.MLP > 0 && window > p.Model.MLP {
		window = p.Model.MLP
	}
	for lo := 0; lo < len(lat); lo += window {
		hi := lo + window
		if hi > len(lat) {
			hi = len(lat)
		}
		var sum, worst float64
		for _, l := range lat[lo:hi] {
			sum += l
			if l > worst {
				worst = l
			}
		}
		charge := sum / float64(hi-lo)
		if charge < worst {
			charge = worst
		}
		p.stalls += charge
	}
}

// MemStalls is the modelled memory stall component in cycles.
func (p *Profile) MemStalls() float64 { return p.stalls }

// Cycles is the modelled cycle count for everything recorded so far.
func (p *Profile) Cycles() float64 {
	return float64(p.C.Instructions())*p.Model.CPI +
		float64(p.C.Mispredicts)*p.Model.MispredictPenalty +
		p.MemStalls()
}

// Instructions is the modelled instruction count recorded so far.
func (p *Profile) Instructions() uint64 { return p.C.Instructions() }

// Reset clears counters, predictor state and cache statistics (cache
// contents stay warm, mirroring repeated-measurement methodology).
func (p *Profile) Reset() {
	p.C = Counters{}
	p.Pred.Reset()
	p.stalls = 0
	if p.Cache != nil {
		p.Cache.ResetStats()
	}
}

// String summarises the profile.
func (p *Profile) String() string {
	return fmt.Sprintf("instr=%d (simd=%d scalar=%d br=%d misp=%d) cycles=%.0f",
		p.C.Instructions(), p.C.SIMD, p.C.Scalar, p.C.Branches, p.C.Mispredicts, p.Cycles())
}
