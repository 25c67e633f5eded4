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
	// Seeds: valid v3 and v1 streams of a mixed-kind table with a
	// zone-mapped column (v3 records it in the metadata flags byte), the
	// committed v2 fixture, plus framed mutations of each so the fuzzer
	// starts at interesting boundaries.
	n := 40
	ints := make([]int64, n)
	strs := make([]string, n)
	words := []string{"x", "yy", "zzz"}
	for i := 0; i < n; i++ {
		ints[i] = int64(i) - 20
		strs[i] = words[i%len(words)]
	}
	ic, err := byteslice.NewIntColumn("i", ints, -20, 20, byteslice.WithNulls([]int{1, 7}), byteslice.WithZoneMaps())
	if err != nil {
		f.Fatal(err)
	}
	sc, err := byteslice.NewStringColumn("s", strs)
	if err != nil {
		f.Fatal(err)
	}
	tbl, err := byteslice.NewTable(ic, sc)
	if err != nil {
		f.Fatal(err)
	}
	var v3, v1 bytes.Buffer
	if _, err := tbl.WriteTo(&v3); err != nil {
		f.Fatal(err)
	}
	if _, err := tbl.WriteToV1(&v1); err != nil {
		f.Fatal(err)
	}
	v2, err := os.ReadFile(filepath.Join("testdata", "snapshot_v2.bslc"))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(v3.Bytes())
	f.Add(v2)
	f.Add(v1.Bytes())
	for _, src := range [][]byte{v3.Bytes(), v2, v1.Bytes()} {
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

// FuzzReadTableErrors complements FuzzReadTable on the error taxonomy: any
// rejection of a pure in-memory stream must be an ErrCorrupt or ErrVersion
// (there is no real I/O to fail here).
func FuzzReadTableErrors(f *testing.F) {
	f.Add([]byte("BSLC"))
	f.Add([]byte("BSLC\x02\x00T"))
	f.Add([]byte("BSLC\x03\x00T"))
	f.Fuzz(func(t *testing.T, data []byte) {
		_, err := byteslice.ReadTable(bytes.NewReader(data))
		if err != nil && !errors.Is(err, byteslice.ErrCorrupt) && !errors.Is(err, byteslice.ErrVersion) {
			t.Fatalf("in-memory rejection %v is neither ErrCorrupt nor ErrVersion", err)
		}
	})
}
