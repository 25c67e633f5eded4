package realdata_test

import (
	"testing"

	"byteslice"
	"byteslice/internal/realdata"
	"byteslice/internal/tpch"
)

func TestDatasetsShape(t *testing.T) {
	a := realdata.Adult(1)
	if len(a.Raw["age"]) != realdata.AdultRows {
		t.Fatalf("ADULT rows = %d", len(a.Raw["age"]))
	}
	for _, s := range a.Specs {
		if s.K >= 20 && s.Name != "fnlwgt" {
			t.Fatalf("ADULT column %s is %d bits; dataset should encode narrowly", s.Name, s.K)
		}
	}
	if len(a.Queries) != 4 {
		t.Fatalf("ADULT queries = %d", len(a.Queries))
	}

	b := realdata.Baseball(1)
	if len(b.Raw["year"]) != realdata.BaseballRows {
		t.Fatalf("BASEBALL rows = %d", len(b.Raw["year"]))
	}
	for _, s := range b.Specs {
		if s.K >= 20 {
			t.Fatalf("BASEBALL column %s is %d bits", s.Name, s.K)
		}
	}
	if len(b.Queries) != 3 {
		t.Fatalf("BASEBALL queries = %d", len(b.Queries))
	}
}

func TestSkewShapes(t *testing.T) {
	a := realdata.Adult(2)
	zeros := 0
	for _, v := range a.Raw["capital_gain"] {
		if v == 0 {
			zeros++
		}
	}
	if float64(zeros)/float64(realdata.AdultRows) < 0.85 {
		t.Fatalf("capital_gain should be mostly zero: %d", zeros)
	}
	us := 0
	for _, v := range a.Raw["native_country"] {
		if v == 38 {
			us++
		}
	}
	if float64(us)/float64(realdata.AdultRows) < 0.85 {
		t.Fatalf("native_country should be dominated by one value: %d", us)
	}

	b := realdata.Baseball(2)
	big := 0
	for _, v := range b.Raw["home_runs"] {
		if v >= 40 {
			big++
		}
	}
	if big == 0 || float64(big)/float64(realdata.BaseballRows) > 0.05 {
		t.Fatalf("home_runs ≥ 40 should be rare but present: %d", big)
	}
}

// TestQueriesAllLayouts runs every kernel on every layout the facade
// evaluates, on the modelled and the native path, against the scalar
// oracle.
func TestQueriesAllLayouts(t *testing.T) {
	opts := map[string]byteslice.ColumnOption{"ByteSlice+compression": byteslice.WithCompression()}
	for _, f := range byteslice.Formats() {
		opts[string(f)] = byteslice.WithFormat(f)
	}
	for _, d := range []*realdata.Dataset{realdata.Adult(3), realdata.Baseball(3)} {
		for name, opt := range opts {
			tb, err := tpch.BuildTable(d.Specs, opt)
			if err != nil {
				t.Fatal(err)
			}
			for _, q := range d.Queries {
				for _, prof := range []*byteslice.Profile{byteslice.NewProfile(), nil} {
					res, err := tpch.Run(tb, q, tpch.StrategyFor(name), prof)
					if err != nil {
						t.Fatalf("%s/%s/%s: %v", d.Name, name, q.Name, err)
					}
					if err := tpch.Validate(d.Raw, q, res.Matches); err != nil {
						t.Fatalf("%s/%s profiled=%v: %v", d.Name, name, prof != nil, err)
					}
				}
			}
		}
	}
}

func TestDeterminism(t *testing.T) {
	a, b := realdata.Adult(7), realdata.Adult(7)
	for name := range a.Raw {
		for i := range a.Raw[name] {
			if a.Raw[name][i] != b.Raw[name][i] {
				t.Fatalf("column %s differs at %d for identical seeds", name, i)
			}
		}
	}
}
