package perf

import (
	"testing"

	"byteslice/internal/cache"
)

func TestCountersInstructions(t *testing.T) {
	a := Counters{SIMD: 11, Scalar: 22, Branches: 33, Mispredicts: 3}
	if a.Instructions() != 11+22+33 {
		t.Fatalf("Instructions = %d", a.Instructions())
	}
}

// TestPredictorSaturation drives one site through the 2-bit state machine.
func TestPredictorSaturation(t *testing.T) {
	var p Predictor
	s := p.Site()
	// Initial state is weakly-not-taken: first taken branch mispredicts,
	// second (now weakly-taken) predicts correctly.
	if !p.Observe(s, true) {
		t.Fatal("first taken branch should mispredict")
	}
	if p.Observe(s, true) {
		t.Fatal("second taken branch should be predicted")
	}
	for i := 0; i < 10; i++ {
		p.Observe(s, true) // saturate
	}
	// One not-taken blip mispredicts but does not flip the prediction.
	if !p.Observe(s, false) {
		t.Fatal("blip should mispredict")
	}
	if p.Observe(s, true) {
		t.Fatal("prediction should still be taken after one blip")
	}
}

func TestPredictorAlternatingWorstCase(t *testing.T) {
	var p Predictor
	s := p.Site()
	misses := 0
	for i := 0; i < 100; i++ {
		if p.Observe(s, i%2 == 0) {
			misses++
		}
	}
	if misses < 50 {
		t.Fatalf("alternating pattern should mispredict at least half: %d", misses)
	}
}

func TestPredictorIndependentSites(t *testing.T) {
	var p Predictor
	a, b := p.Site(), p.Site()
	for i := 0; i < 5; i++ {
		p.Observe(a, true)
		p.Observe(b, false)
	}
	if p.Observe(a, true) || p.Observe(b, false) {
		t.Fatal("sites should have trained independently")
	}
	p.Reset()
	if !p.Observe(a, true) {
		t.Fatal("Reset should restore weakly-not-taken")
	}
}

func TestProfileBranchCounts(t *testing.T) {
	p := NewProfileNoCache()
	s := p.Pred.Site()
	if p.Branch(s, false) {
		t.Fatal("Branch must return its condition")
	}
	if !p.Branch(s, true) {
		t.Fatal("Branch must return its condition")
	}
	if p.C.Branches != 2 {
		t.Fatalf("branches = %d", p.C.Branches)
	}
	if p.C.Mispredicts != 1 {
		t.Fatalf("mispredicts = %d (one flip expected)", p.C.Mispredicts)
	}
}

func TestCycleModel(t *testing.T) {
	p := NewProfileNoCache()
	p.Model = Model{CPI: 1, MispredictPenalty: 10}
	p.C = Counters{SIMD: 100, Scalar: 50, Branches: 10, Mispredicts: 2}
	if got, want := p.Cycles(), float64(160+20); got != want {
		t.Fatalf("Cycles = %v, want %v", got, want)
	}
	if p.MemStalls() != 0 {
		t.Fatal("no cache ⇒ no stalls")
	}
}

func TestMemStalls(t *testing.T) {
	p := NewProfile()
	p.Model = Model{CPI: 0, MemoryLatency: 100, L2HitLatency: 10, L3HitLatency: 30}
	p.Touch(0, 1) // cold: memory
	p.Touch(0, 1) // L1 hit: free
	if got := p.MemStalls(); got != 100 {
		t.Fatalf("MemStalls = %v, want 100", got)
	}
	if got := p.Cycles(); got != 100 {
		t.Fatalf("Cycles = %v, want 100", got)
	}
}

func TestProfileReset(t *testing.T) {
	p := NewProfile()
	s := p.Pred.Site()
	p.Branch(s, true)
	p.Touch(4096, 8)
	p.C.SIMD = 7
	p.Reset()
	if p.C != (Counters{}) {
		t.Fatalf("counters not reset: %+v", p.C)
	}
	if p.Cache.Stats() != (cache.Stats{}) {
		t.Fatalf("cache stats not reset")
	}
	if p.Instructions() != 0 || p.Cycles() != 0 {
		t.Fatal("derived metrics not zero after reset")
	}
}

func TestProfileString(t *testing.T) {
	p := NewProfileNoCache()
	p.C.SIMD = 3
	if s := p.String(); len(s) == 0 {
		t.Fatal("empty String()")
	}
}

func TestDefaultModelSane(t *testing.T) {
	m := DefaultModel()
	if m.CPI <= 0 || m.MispredictPenalty <= 0 || m.MemoryLatency <= m.L3HitLatency ||
		m.L3HitLatency <= m.L2HitLatency || m.BandwidthBytesPerCycle <= 0 {
		t.Fatalf("implausible default model: %+v", m)
	}
}

func TestTouchGroupOverlap(t *testing.T) {
	p := NewProfile()
	p.Model = Model{MemoryLatency: 100, L2HitLatency: 10, L3HitLatency: 30, MLP: 8}
	// Four cold lines in distinct regions: overlapped charge is the max,
	// not the sum (4×100/4 = 100, floored at 100).
	spans := []Span{{Addr: 0, Size: 1}, {Addr: 4096, Size: 1}, {Addr: 8192, Size: 1}, {Addr: 12288, Size: 1}}
	p.TouchGroup(spans)
	if got := p.MemStalls(); got != 100 {
		t.Fatalf("overlapped stall = %v, want 100", got)
	}
	// The accesses were applied: repeating the group is free.
	p.TouchGroup(spans)
	if got := p.MemStalls(); got != 100 {
		t.Fatalf("warm group should add nothing: %v", got)
	}
}

func TestTouchGroupMLPCap(t *testing.T) {
	p := NewProfile()
	p.Model = Model{MemoryLatency: 100, MLP: 4}
	spans := make([]Span, 16)
	for i := range spans {
		spans[i] = Span{Addr: uint64(i) * 4096, Size: 1}
	}
	p.TouchGroup(spans)
	// 16 misses with MLP 4: sum 1600 / 4 = 400.
	if got := p.MemStalls(); got != 400 {
		t.Fatalf("MLP-capped stall = %v, want 400", got)
	}
}

func TestTouchGroupWindowed(t *testing.T) {
	p := NewProfile()
	p.Model = Model{MemoryLatency: 100, MLP: 8}
	spans := make([]Span, 16)
	for i := range spans {
		spans[i] = Span{Addr: uint64(i) * 4096, Size: 1}
	}
	p.TouchGroupWindowed(spans, 2)
	// Windows of 2: per window 200/2 = 100 floored at 100 → 8×100.
	if got := p.MemStalls(); got != 800 {
		t.Fatalf("windowed stall = %v, want 800", got)
	}
	q := NewProfile()
	q.Model = Model{MemoryLatency: 100, MLP: 8}
	q.TouchGroupWindowed(spans[:1], 0) // degenerate window clamps to 1
	if got := q.MemStalls(); got != 100 {
		t.Fatalf("degenerate window stall = %v", got)
	}
}

func TestTouchGroupPeeksBeforeAccess(t *testing.T) {
	// A group touching the same cold line twice is charged twice from the
	// pre-state (the loads issue together), not once.
	p := NewProfile()
	p.Model = Model{MemoryLatency: 100, MLP: 8}
	spans := []Span{{Addr: 0, Size: 1}, {Addr: 8, Size: 1}, {Addr: 4096, Size: 1}}
	p.TouchGroup(spans)
	// latencies 100,100,100 → 300/3 = 100 floored at 100.
	if got := p.MemStalls(); got != 100 {
		t.Fatalf("stall = %v, want 100", got)
	}
}

func TestTouchGroupNilCache(t *testing.T) {
	p := NewProfileNoCache()
	p.TouchGroup([]Span{{Addr: 0, Size: 8}})
	p.TouchGroupWindowed(nil, 4)
	if p.MemStalls() != 0 {
		t.Fatal("no cache ⇒ no stalls")
	}
}

func TestModelLatencyLevels(t *testing.T) {
	m := Model{L2HitLatency: 2, L3HitLatency: 3, MemoryLatency: 4}
	if m.latency(cache.L1) != 0 || m.latency(cache.L2) != 2 ||
		m.latency(cache.L3) != 3 || m.latency(cache.Memory) != 4 {
		t.Fatal("latency mapping wrong")
	}
}
