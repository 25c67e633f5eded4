package main

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"time"
)

// span is one timed call into a layer. Spans of one request share Req;
// Parent is the span that was open when this one started (0 for a root).
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Req    int64  `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() int64 { return s.End - s.Start }

// layer is the span name's prefix: serve, facade, kernel, ingest,
// persist or request.
func (s span) layer() string {
	l, _, _ := strings.Cut(s.Name, ".")
	return l
}

// recorder keeps one goroutine's spans in memory. It is also the
// byteslice.Tracer of that goroutine's facade calls: the facade opens
// and closes stage spans on the calling goroutine, so they nest under
// whichever recorder span is open.
type recorder struct {
	t0    time.Time
	next  int64
	req   int64
	spans []span
	open  []int // indices into spans, innermost last
}

// newRecorder gives each goroutine its own id space so ids stay unique
// without coordination.
func newRecorder(t0 time.Time, goroutine int) *recorder {
	return &recorder{t0: t0, next: int64(goroutine+1) << 40}
}

// request starts a new request: spans begun until the next call share
// its id.
func (r *recorder) request() {
	r.next++
	r.req = r.next
}

// begin opens a span and returns the function that closes it.
func (r *recorder) begin(name string) func() {
	r.next++
	s := span{ID: r.next, Req: r.req, Name: name, Start: time.Since(r.t0).Nanoseconds()}
	if n := len(r.open); n > 0 {
		s.Parent = r.spans[r.open[n-1]].ID
	}
	idx := len(r.spans)
	r.spans = append(r.spans, s)
	r.open = append(r.open, idx)
	return func() {
		r.spans[idx].End = time.Since(r.t0).Nanoseconds()
		r.open = r.open[:len(r.open)-1]
	}
}

// StartSpan implements byteslice.Tracer for the facade's plan stages.
func (r *recorder) StartSpan(name string) func() { return r.begin("kernel." + name) }

// selfTimes returns each span's self time: its duration minus the part
// of it its children cover (children are clipped to the parent and their
// overlaps counted once).
func selfTimes(spans []span) map[int64]int64 {
	children := make(map[int64][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[int64]int64, len(spans))
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		covered, reach := int64(0), s.Start
		for _, k := range kids {
			lo, hi := max(k.Start, reach), min(k.End, s.End)
			if hi > lo {
				covered += hi - lo
				reach = hi
			}
		}
		self[s.ID] = s.dur() - covered
	}
	return self
}

// layerTable prints per-layer self time for one replay phase: total,
// mean per request and share of all self time.
func layerTable(w io.Writer, phase string, spans []span) {
	self := selfTimes(spans)
	total := make(map[string]int64)
	reqs := make(map[int64]bool)
	var all int64
	for _, s := range spans {
		total[s.layer()] += self[s.ID]
		all += self[s.ID]
		reqs[s.Req] = true
	}
	layers := make([]string, 0, len(total))
	for l := range total {
		layers = append(layers, l)
	}
	sort.Slice(layers, func(i, j int) bool { return total[layers[i]] > total[layers[j]] })
	fmt.Fprintf(w, "  %s: self time by layer over %d requests\n", phase, len(reqs))
	for _, l := range layers {
		fmt.Fprintf(w, "    %-8s %10.3f ms total %10.2f us/req %6.1f%%\n", l,
			float64(total[l])/1e6, float64(total[l])/1e3/float64(max(len(reqs), 1)), 100*float64(total[l])/float64(max(all, 1)))
	}
}
