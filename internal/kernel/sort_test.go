package kernel

import (
	"context"
	"errors"
	"math/rand/v2"
	"slices"
	"sort"
	"testing"

	"byteslice/internal/core"
)

// stableOrder is the reference ORDER BY: rows stably sorted by code.
func stableOrder(codes []uint32, rows []int32) []int32 {
	idx := make([]int, len(rows))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return codes[idx[a]] < codes[idx[b]] })
	out := make([]int32, len(rows))
	for i, j := range idx {
		out[i] = rows[j]
	}
	return out
}

// TestSortCodesMatchesStableSort checks SortCodes against a stable
// comparison sort across widths and domains that force ties through
// every byte.
func TestSortCodesMatchesStableSort(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 2))
	const n = 5000
	for _, k := range []int{1, 5, 8, 9, 16, 23, 32} {
		for _, domain := range []uint64{1, 3, 300, 1 << uint(k)} {
			codes := make([]uint32, n)
			mask := uint64(1)<<uint(k) - 1
			for i := range codes {
				codes[i] = uint32((mask - rng.Uint64N(min(domain, mask+1))) & mask)
			}
			b := core.New(codes, k, nil)
			var rows []int32
			for i := 0; i < n; i++ {
				if rng.IntN(3) > 0 {
					rows = append(rows, int32(i))
				}
			}
			gathered := make([]uint32, len(rows))
			if err := LookupMany(Exec{}, b, rows, gathered); err != nil {
				t.Fatal(err)
			}
			want := stableOrder(gathered, rows)
			got, err := SortCodes(Exec{}, gathered, k, rows)
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(got, want) {
				t.Fatalf("k=%d domain=%d: SortCodes differs from the stable sort", k, domain)
			}
		}
	}
}

// TestSortCodesFaultsAndCancellation: the sort runs in protected batches,
// so a panic becomes a *PanicError and a cancelled context stops it.
func TestSortCodesFaultsAndCancellation(t *testing.T) {
	b := execColumn(t, 40_000)
	rows := make([]int32, b.Len())
	codes := make([]uint32, b.Len())
	for i := range rows {
		rows[i] = int32(i)
		codes[i] = Lookup(b, i)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := SortCodes(Exec{Ctx: ctx}, slices.Clone(codes), 10, rows); !errors.Is(err, context.Canceled) {
		t.Errorf("SortCodes under a cancelled context: %v", err)
	}
	BatchHook = func(int, int) { panic("injected") }
	defer func() { BatchHook = nil }()
	var pe *PanicError
	if _, err := SortCodes(Exec{}, slices.Clone(codes), 10, rows); !errors.As(err, &pe) {
		t.Errorf("SortCodes with a panicking batch: %v", err)
	}
}
