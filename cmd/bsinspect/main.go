// Command bsinspect visualises how a handful of values are laid out under
// each storage format — an educational companion to §2 and §3 of the paper.
//
// Usage:
//
//	bsinspect -k 11 -values 1024,129,4,2047
//	bsinspect -k 11 -values 1024,129 -scan "<" -const 129
//	bsinspect -ingest /path/to/ingest-dir
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"byteslice/internal/bitvec"
	"byteslice/internal/compress"
	"byteslice/internal/core"
	"byteslice/internal/ingest"
	"byteslice/internal/kernel"
	"byteslice/internal/layout"
	"byteslice/internal/layout/bp"
	"byteslice/internal/layout/hbp"
	"byteslice/internal/layout/vbp"
	"byteslice/internal/perf"
	"byteslice/internal/plan"
	"byteslice/internal/simd"
)

func main() {
	var (
		k      = flag.Int("k", 11, "code width in bits")
		vals   = flag.String("values", "1024,129,4,2047,0", "comma-separated code values")
		scan   = flag.String("scan", "", "optionally evaluate a predicate: one of < <= > >= = <>")
		konst  = flag.Uint64("const", 0, "predicate constant")
		zones  = flag.Bool("zones", false, "with -scan: show per-segment zone-map verdicts and the cost-based plan")
		compr  = flag.Bool("compression", false, "show the compressed-layout report: block modes, footprints and the build decision")
		ingDir = flag.String("ingest", "", "inspect an ingest directory: manifest, epoch artifacts and WAL health (non-mutating)")
	)
	flag.Parse()

	if *ingDir != "" {
		report, err := ingestReport(*ingDir)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bsinspect:", err)
			os.Exit(1)
		}
		fmt.Print(report)
		return
	}

	codes, err := parseValues(*vals, *k)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bsinspect:", err)
		os.Exit(2)
	}

	fmt.Printf("%d codes of width k=%d bits\n\n", len(codes), *k)
	for i, c := range codes {
		fmt.Printf("  v%-3d = %*b (%d)\n", i+1, *k, c, c)
	}

	bs := core.New(codes, *k, nil)
	fmt.Printf("\n— ByteSlice: %d byte slice(s), %d codes per segment, %d bytes —\n",
		bs.NumSlices(), core.SegmentSize, bs.SizeBytes())
	for j := 0; j < bs.NumSlices(); j++ {
		fmt.Printf("  BS%d:", j+1)
		for i := range codes {
			fmt.Printf(" %08b", bs.SliceByte(j, i))
		}
		fmt.Println()
	}

	v := vbp.New(codes, *k, nil)
	fmt.Printf("\n— VBP: %d-code segments, %d words of 256 bits each, %d bytes —\n",
		vbp.SegmentSize, *k, v.SizeBytes())
	fmt.Printf("  (word Wi holds bit i of every code; bit j of Wi belongs to code j)\n")
	for i := 0; i < *k; i++ {
		fmt.Printf("  W%-3d:", i+1)
		for _, c := range codes {
			fmt.Printf(" %d", c>>uint(*k-1-i)&1)
		}
		fmt.Println()
	}

	h := hbp.New(codes, *k, nil)
	fmt.Printf("\n— HBP: %d-bit fields with delimiter, %d codes per 256-bit word, %d bytes —\n",
		*k+1, h.PerWord(), h.SizeBytes())
	perBank := h.PerWord() / 4
	for b := 0; b*perBank < len(codes); b++ {
		fmt.Printf("  bank %d:", b)
		for s := 0; s < perBank && b*perBank+s < len(codes); s++ {
			fmt.Printf(" [0|%0*b]", *k, codes[b*perBank+s])
		}
		fmt.Println("   (delimiter bit | value, low slots first)")
	}

	b := bp.New(codes, *k, nil)
	fmt.Printf("\n— Bit-Packed: %d bits used, %d bytes allocated —\n", len(codes)**k, b.SizeBytes())

	if *compr {
		fmt.Printf("\n%s", compressionReport(codes, *k))
	}

	if *scan != "" {
		op, err := parseOp(*scan)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bsinspect:", err)
			os.Exit(2)
		}
		c, err := parseConst(*konst, *k)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bsinspect:", err)
			os.Exit(2)
		}
		p := layout.Predicate{Op: op, C1: c}
		prof := perf.NewProfileNoCache()
		out := bitvec.New(len(codes))
		bs.Scan(simd.New(prof), p, out)
		fmt.Printf("\nScan %s on ByteSlice:\n", p)
		for i, c := range codes {
			mark := " "
			if out.Get(i) {
				mark = "✓"
			}
			fmt.Printf("  %s v%-3d = %d\n", mark, i+1, c)
		}
		fmt.Printf("%d of %d match; %s\n", out.Count(), len(codes), prof)
		if *zones {
			fmt.Printf("\n%s", zoneReport(codes, *k, p))
		}
	} else if *zones {
		fmt.Fprintln(os.Stderr, "bsinspect: -zones needs -scan (a predicate to classify segments against)")
		os.Exit(2)
	}
}

// zoneReport renders the zone-map view of the sample column for one
// predicate — each segment's first-byte bounds with its zone verdict, the
// resulting prune rate, and the cost-based planner's Explain for the scan
// (workers pinned to 1 so the output is machine-independent).
func zoneReport(codes []uint32, k int, p layout.Predicate) string {
	var b strings.Builder
	bs := core.New(codes, k, nil)
	bs.BuildZoneMaps()
	mn, mx := bs.ZoneBounds()
	c1, c2 := bs.ZoneFirstBytes(p)
	fmt.Fprintf(&b, "— Zone maps: %d segment(s) of %d codes, first-byte min/max —\n",
		bs.Segments(), core.SegmentSize)
	for seg := 0; seg < bs.Segments(); seg++ {
		verdict := "scan"
		switch d := core.ZoneDecisionBytes(p.Op, mn[seg], mx[seg], c1, c2); {
		case d > 0:
			verdict = "all-match, skipped"
		case d < 0:
			verdict = "no-match, skipped"
		}
		fmt.Fprintf(&b, "  seg %-3d [%3d, %3d] → %s\n", seg, mn[seg], mx[seg], verdict)
	}
	fmt.Fprintf(&b, "  prune rate for %s: %.2f\n\n", p, bs.ZonePruneRate(p))

	// The sample column has no histogram, so the planner sees the exact
	// selectivity of the predicate over the given values.
	out := bitvec.New(len(codes))
	if _, err := kernel.Scan(kernel.Exec{}, bs, p, nil, false, out); err != nil {
		fmt.Fprintf(&b, "scan failed: %v\n", err)
		return b.String()
	}
	d := plan.Plan(
		plan.Query{Rows: len(codes), Segments: bs.Segments(), Workers: 1, MaxWorkers: 1},
		[]plan.Pred{{
			Col:        "values",
			Slices:     bs.NumSlices(),
			Sel:        float64(out.Count()) / float64(len(codes)),
			ZonePrune:  bs.ZonePruneRate(p),
			HasZoneMap: true,
		}})
	b.WriteString(d.Explain())
	b.WriteString("\n")
	return b.String()
}

// compressionReport renders the compressed ByteSlice view of the sample
// column: every 512-code block's mode (frame-of-reference or delta), exact
// bounds and data footprint, the column totals against the raw ByteSlice
// layout, and the bytes-moved model's build-time decision. Everything is a
// pure function of the codes, so the output is machine-independent.
func compressionReport(codes []uint32, k int) string {
	var b strings.Builder
	cc := compress.New(codes, k, nil)
	st := cc.ColumnStats()
	offs := cc.DataOffs()
	fmt.Fprintf(&b, "— Compressed ByteSlice: %d block(s) of %d codes, FOR/delta with per-code length control —\n",
		st.Blocks, compress.BlockCodes)
	for blk := 0; blk < cc.Blocks(); blk++ {
		mode := "for  "
		if cc.BlockDelta(blk) {
			mode = "delta"
		}
		uni := ""
		if !cc.BlockDelta(blk) && cc.BlockUniformLen(blk) == 1 {
			uni = ", uniform 1B (no-decode scan)"
		}
		fmt.Fprintf(&b, "  block %-3d %4d row(s)  %s ref=%-6d bounds [%d, %d]  %d data byte(s)%s\n",
			blk, cc.BlockRows(blk), mode, cc.Refs()[blk], cc.Mins()[blk], cc.Maxs()[blk],
			offs[blk+1]-offs[blk], uni)
	}
	fmt.Fprintf(&b, "  raw ByteSlice %d bytes → compressed %d bytes (ratio %.2fx, %.2f B/row)\n",
		st.RawBytes, st.CompBytes, st.Ratio, st.BytesPerRow)
	fmt.Fprintf(&b, "  block prune estimate %.2f, delta blocks %d/%d, uniform-1 blocks %d/%d\n",
		st.PruneEst, st.DeltaBlocks, st.Blocks, st.Uniform1, st.Blocks)
	decision := "stay raw (bytes-moved model prices the SWAR scan cheaper)"
	if st.Compressed {
		decision = "compress (bytes-moved model prices the fused scan cheaper)"
	}
	fmt.Fprintf(&b, "  decision: %s\n", decision)
	return b.String()
}

// ingestReport renders an ingest directory's durability state without
// mutating it: the manifest's current epoch, each artifact's presence and
// size, and the WAL's frame-level health (clean, torn tail, or corrupt).
func ingestReport(dir string) (string, error) {
	m, err := ingest.ReadManifest(dir)
	if err != nil {
		return "", err
	}
	var b strings.Builder
	fmt.Fprintf(&b, "— Ingest directory %s —\n", dir)
	fmt.Fprintf(&b, "  manifest: epoch %d, base %s, wal %s\n", m.Epoch, m.Base, m.WAL)

	basePath := filepath.Join(dir, m.Base)
	if fi, err := os.Stat(basePath); err != nil {
		fmt.Fprintf(&b, "  base:     MISSING (%v)\n", err)
	} else {
		fmt.Fprintf(&b, "  base:     %d bytes\n", fi.Size())
	}

	info, err := ingest.Inspect(filepath.Join(dir, m.WAL))
	if err != nil {
		return "", err
	}
	switch {
	case info.Err != nil:
		fmt.Fprintf(&b, "  wal:      CORRUPT at byte %d: %v\n", info.GoodBytes, info.Err)
		fmt.Fprintf(&b, "            %d intact row(s) in the clean prefix\n", info.Rows)
	default:
		fmt.Fprintf(&b, "  wal:      epoch %d over %d base rows, %d appended row(s), %s tail\n",
			info.Epoch, info.BaseRows, info.Rows, info.Tail)
		if info.Tail == "torn" {
			fmt.Fprintf(&b, "            %d/%d bytes intact (%d torn bytes would be truncated on open)\n",
				info.GoodBytes, info.FileBytes, info.FileBytes-info.GoodBytes)
		}
		if info.Epoch != m.Epoch {
			fmt.Fprintf(&b, "            MISMATCH: WAL epoch %d vs manifest epoch %d\n", info.Epoch, m.Epoch)
		}
	}

	entries, err := os.ReadDir(dir)
	if err != nil {
		return "", err
	}
	for _, e := range entries {
		name := e.Name()
		if name == ingest.ManifestName || name == m.Base || name == m.WAL {
			continue
		}
		if strings.HasPrefix(name, "base-") || strings.HasPrefix(name, "wal-") || strings.HasSuffix(name, ".tmp") {
			fmt.Fprintf(&b, "  orphan:   %s (unreferenced; removed on next open)\n", name)
		}
	}
	return b.String(), nil
}

func parseValues(s string, k int) ([]uint32, error) {
	if k < 1 || k > 32 {
		return nil, fmt.Errorf("code width %d out of range [1,32]", k)
	}
	parts := strings.Split(s, ",")
	codes := make([]uint32, 0, len(parts))
	max := uint64(1)<<uint(k) - 1
	for _, p := range parts {
		v, err := strconv.ParseUint(strings.TrimSpace(p), 10, 32)
		if err != nil {
			return nil, fmt.Errorf("bad value %q: %v", p, err)
		}
		if v > max {
			return nil, fmt.Errorf("value %d exceeds %d-bit domain", v, k)
		}
		codes = append(codes, uint32(v))
	}
	if len(codes) == 0 {
		return nil, fmt.Errorf("no values")
	}
	return codes, nil
}

// parseConst checks a predicate constant against the k-bit code domain
// the scanned values live in (k already checked by parseValues).
func parseConst(c uint64, k int) (uint32, error) {
	if max := uint64(1)<<uint(k) - 1; c > max {
		return 0, fmt.Errorf("constant %d exceeds %d-bit domain", c, k)
	}
	return uint32(c), nil
}

func parseOp(s string) (layout.Op, error) {
	switch s {
	case "<":
		return layout.Lt, nil
	case "<=":
		return layout.Le, nil
	case ">":
		return layout.Gt, nil
	case ">=":
		return layout.Ge, nil
	case "=":
		return layout.Eq, nil
	case "<>", "!=":
		return layout.Ne, nil
	}
	return 0, fmt.Errorf("unknown operator %q", s)
}
