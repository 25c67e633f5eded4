package experiments

import (
	"os"
	"strings"
	"testing"
)

// goldenFigures are the experiments that evaluate queries through the
// facade's modelled (WithProfile) path: the complex-predicate figures and
// the TPC-H and real-data suites.
var goldenFigures = []string{"fig12", "fig14", "fig19", "fig20", "fig21", "fig22"}

// TestModelledOutputGolden pins the rendered output of goldenFigures at
// Quick scale, so a change to the evaluator, the cost model or the
// simulated address layout that moves any modelled number fails here. The
// golden file is bsbench's CSV rendering of the same runs; regenerate it
// from the repository root with
//
//	for e in fig12 fig14 fig19 fig20 fig21 fig22; do
//		go run ./cmd/bsbench -quick -format csv -exp $e
//	done > internal/experiments/testdata/modelled_quick.golden
func TestModelledOutputGolden(t *testing.T) {
	want, err := os.ReadFile("testdata/modelled_quick.golden")
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	for _, id := range goldenFigures {
		reports, err := Run(id, Quick())
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range reports {
			b.WriteString(r.CSV())
			b.WriteByte('\n')
		}
	}
	got := strings.Split(b.String(), "\n")
	wantLines := strings.Split(string(want), "\n")
	for i := 0; i < len(got) || i < len(wantLines); i++ {
		var g, w string
		if i < len(got) {
			g = got[i]
		}
		if i < len(wantLines) {
			w = wantLines[i]
		}
		if g != w {
			t.Fatalf("modelled output differs from testdata/modelled_quick.golden at line %d:\n got: %q\nwant: %q", i+1, g, w)
		}
	}
}
