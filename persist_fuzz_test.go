package byteslice_test

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"byteslice"
	"byteslice/internal/faultio"
)

// FuzzReadTable throws arbitrary bytes at the snapshot reader. The
// invariants: ReadTable never panics and never allocates past the input's
// own scale (a corrupt header must not trigger a multi-GB allocation —
// enforced structurally by the chunked readers, and observationally here
// because the fuzzer would OOM); any accepted input re-serialises into a
// stream that reads back with the same shape.
func FuzzReadTable(f *testing.F) {
	// Seeds: two valid v3 streams — a mixed int/string table with a
	// zone-mapped column (recorded in the metadata flags byte) and a
	// decimal/code table in the HBP and compressed layouts — and the
	// committed v2 fixture, plus framed mutations of each so the fuzzer
	// starts at interesting boundaries.
	n := 40
	ints := make([]int64, n)
	strs := make([]string, n)
	decs := make([]float64, n)
	codes := make([]uint32, n)
	words := []string{"x", "yy", "zzz"}
	for i := 0; i < n; i++ {
		ints[i] = int64(i) - 20
		strs[i] = words[i%len(words)]
		decs[i] = float64(i%9) / 4
		codes[i] = uint32(i * 13 % 512)
	}
	ic, err := byteslice.NewIntColumn("i", ints, -20, 20, byteslice.WithNulls([]int{1, 7}), byteslice.WithZoneMaps())
	if err != nil {
		f.Fatal(err)
	}
	sc, err := byteslice.NewStringColumn("s", strs)
	if err != nil {
		f.Fatal(err)
	}
	dc, err := byteslice.NewDecimalColumn("d", decs, 0, 2, 2, byteslice.WithFormat(byteslice.FormatHBP), byteslice.WithNulls([]int{3}))
	if err != nil {
		f.Fatal(err)
	}
	cc, err := byteslice.NewCodeColumn("c", codes, 9, byteslice.WithFormat(byteslice.FormatByteSliceC))
	if err != nil {
		f.Fatal(err)
	}
	mixed := v3Stream(f, ic, sc)
	other := v3Stream(f, dc, cc)
	v2, err := os.ReadFile(filepath.Join("testdata", "snapshot_v2.bslc"))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(mixed)
	f.Add(v2)
	f.Add(other)
	for _, src := range [][]byte{mixed, v2, other} {
		for _, off := range []int{0, 4, 6, len(src) / 2, len(src) - 5} {
			f.Add(faultio.Flip(src, off, 0x10))
			f.Add(faultio.Truncate(src, off))
		}
		// Declared-length attacks: huge row/column counts in a short stream.
		huge := append([]byte{}, src...)
		for i := 6; i < 20 && i < len(huge); i++ {
			huge[i] = 0xFF
		}
		f.Add(huge)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := byteslice.ReadTable(bytes.NewReader(data))
		if err != nil {
			if got != nil {
				t.Fatal("ReadTable returned a table alongside an error")
			}
			return
		}
		// Accepted input: the decoded table must re-serialise and read
		// back with identical shape.
		var buf bytes.Buffer
		if _, err := got.WriteTo(&buf); err != nil {
			t.Fatalf("re-serialise of accepted table failed: %v", err)
		}
		again, err := byteslice.ReadTable(&buf)
		if err != nil {
			t.Fatalf("re-read of re-serialised table failed: %v", err)
		}
		if again.Len() != got.Len() {
			t.Fatalf("round trip changed row count: %d vs %d", again.Len(), got.Len())
		}
	})
}

// v3Stream serialises a table of the given columns in the current format.
func v3Stream(f *testing.F, cols ...*byteslice.Column) []byte {
	f.Helper()
	tbl, err := byteslice.NewTable(cols...)
	if err != nil {
		f.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := tbl.WriteTo(&buf); err != nil {
		f.Fatal(err)
	}
	return buf.Bytes()
}

// FuzzReadTableErrors complements FuzzReadTable on the error taxonomy: any
// rejection of a pure in-memory stream must be an ErrCorrupt or ErrVersion
// (there is no real I/O to fail here).
func FuzzReadTableErrors(f *testing.F) {
	f.Add([]byte("BSLC"))
	f.Add([]byte("BSLC\x02\x00T"))
	f.Add([]byte("BSLC\x03\x00T"))
	f.Add([]byte("BSLC\x01\x00"))
	f.Fuzz(func(t *testing.T, data []byte) {
		_, err := byteslice.ReadTable(bytes.NewReader(data))
		if err != nil && !errors.Is(err, byteslice.ErrCorrupt) && !errors.Is(err, byteslice.ErrVersion) {
			t.Fatalf("in-memory rejection %v is neither ErrCorrupt nor ErrVersion", err)
		}
	})
}
