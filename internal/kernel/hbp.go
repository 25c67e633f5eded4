// Native SWAR kernels for the HBP (Horizontal Bit-Parallel) layout. HBP is
// the lookup-optimised layout of the paper's comparison (§2.3): all bits of
// a code sit in one 64-bit bank, so a point lookup is a single 8-byte load
// plus shift-and-mask where the ByteSlice stitch (Lookup, LookupMany)
// touches one cache line per byte slice. The scan runs the word-parallel
// XOR/ADD/NOT/AND guard arithmetic of BitWeaving Figure 4 on plain uint64
// banks — no early stopping exists in this format, which is why a caller
// lays out only lookup-dominated columns here (Table.WithLayout).
package kernel

import (
	"encoding/binary"
	"math/bits"

	"byteslice/internal/bitvec"
	"byteslice/internal/layout"
	"byteslice/internal/layout/hbp"
)

// hbpBankBytes is the column data one HBP lookup touches: a single 64-bit
// bank, regardless of code width.
const hbpBankBytes = 8

// hbpSuperBanks is the bank count of one scan work unit. 32 banks hold
// exactly 32·perBank codes — a whole number of 32-code result words for
// every width — so worker partitions and batch boundaries stay aligned
// with the bit vector's SetWord32 stores.
const hbpSuperBanks = 32

// hbpMask returns the k-bit extraction mask (all ones at k = 32).
func hbpMask(k int) uint32 {
	return uint32(uint64(1)<<uint(k) - 1)
}

// hbpRecip returns the round-up 64-bit reciprocal ⌈2^64/perBank⌉ used to
// strength-reduce the bank-index division i/perBank to one multiply-high:
// ⌊i·recip/2^64⌋ = ⌊i/perBank⌋ exactly for every i·(perBank−(2^64 mod
// perBank)) < 2^64, which all int32 row numbers satisfy by a wide margin.
// perBank must be ≥ 2 (the perBank == 1 widths take hbpLookupRange1).
func hbpRecip(perBank int) uint64 {
	return ^uint64(0)/uint64(perBank) + 1
}

// hbpLookupRange gathers the codes of rows out of the packed banks: bank
// i/perBank starts at byte offset 8·(i/perBank) because banks are laid out
// consecutively, so each lookup is one load, one multiply-high and a
// shift-and-mask.
//
//bsvet:hotloop
func hbpLookupRange(data []byte, w int, recip, perBank uint64, mask uint32, rows []int32, out []uint32) {
	for x, r := range rows {
		i := uint64(uint32(r))
		bank, _ := bits.Mul64(i, recip)
		slot := i - bank*perBank
		lane := binary.LittleEndian.Uint64(data[bank*hbpBankBytes:])
		out[x] = uint32(lane>>(slot*uint64(w))) & mask
	}
}

// hbpLookupRange1 is the one-code-per-bank specialisation (k = 32, where
// k+1 > 32 leaves room for a single field): bank i is row i and the slot
// shift is always zero.
//
//bsvet:hotloop
func hbpLookupRange1(data []byte, mask uint32, rows []int32, out []uint32) {
	for x, r := range rows {
		lane := binary.LittleEndian.Uint64(data[uint64(uint32(r))*hbpBankBytes:])
		out[x] = uint32(lane) & mask
	}
}

// LookupHBP extracts code i from an HBP column — the native counterpart of
// the modelled hbp.HBP.Lookup and the HBP peer of Lookup: one 8-byte load
// against the ⌈k/8⌉ cache lines of the ByteSlice stitch.
func LookupHBP(h *hbp.HBP, i int) uint32 {
	pb := h.PerBank()
	mask := hbpMask(h.Width())
	lane := binary.LittleEndian.Uint64(h.Data()[(i/pb)*hbpBankBytes:])
	return uint32(lane>>uint((i-(i/pb)*pb)*(h.Width()+1))) & mask
}

// LookupManyHBP gathers the codes of rows into out (len(out) must equal
// len(rows)) — the projection fast path for HBP columns — with disjoint row
// ranges filled by x.Workers goroutines. Each looked-up row reads one
// 8-byte bank.
func LookupManyHBP(x Exec, h *hbp.HBP, rows []int32, out []uint32) error {
	if len(out) != len(rows) {
		panic("kernel: LookupMany output length mismatch")
	}
	pb := h.PerBank()
	mask := hbpMask(h.Width())
	return parallelRows(x, len(rows), func(lo, hi int) {
		if pb == 1 {
			hbpLookupRange1(h.Data(), mask, rows[lo:hi], out[lo:hi])
		} else {
			hbpLookupRange(h.Data(), h.Width()+1, hbpRecip(pb), uint64(pb), mask, rows[lo:hi], out[lo:hi])
		}
		if st := x.Stage; st != nil {
			st.AddRows(int64(hi-lo), int64(hi-lo)*hbpBankBytes)
		}
	})
}

// hbpScanner carries the predicate constants of one HBP scan: the guard
// mask (delimiter bit positions), the zero-detect addend, the replicated
// comparison constants, and the geometry needed to extract result bits.
type hbpScanner struct {
	op         layout.Op
	guard      uint64
	addend     uint64
	wc1, wc1h  uint64
	wc2h       uint64
	w, perBank int
	data       []byte
	n          int
}

// prepareHBP builds the scan constants outside the hot loop.
func prepareHBP(h *hbp.HBP, p layout.Predicate) hbpScanner {
	layout.CheckPredicate(p, h.Width())
	guard, addend, wc1 := h.Patterns(p.C1)
	sc := hbpScanner{
		op: p.Op, guard: guard, addend: addend,
		wc1: wc1, wc1h: wc1 | guard,
		w: h.Width() + 1, perBank: h.PerBank(),
		data: h.Data(), n: h.Len(),
	}
	if p.Op == layout.Between {
		_, _, wc2 := h.Patterns(p.C2)
		sc.wc2h = wc2 | guard
	}
	return sc
}

// scanSuperBanks evaluates the predicate over super-banks [lo, hi) — 32
// banks each, i.e. rows [lo·32·perBank, hi·32·perBank) — with the
// XOR/ADD/NOT/AND guard arithmetic of BitWeaving Figure 4 on plain uint64
// banks, gathering the delimiter result bits into 32-code words of the
// result vector. Padding lanes past the column length evaluate to garbage
// bits that SetWord32 truncates.
//
//bsvet:hotloop
func (sc *hbpScanner) scanSuperBanks(lo, hi int, out *bitvec.Vector) {
	H, ADD := sc.guard, sc.addend
	WC1, WC1H, WC2H := sc.wc1, sc.wc1h, sc.wc2h
	w, perBank := sc.w, sc.perBank
	data := sc.data
	totalBanks := len(data) / hbpBankBytes
	k := uint(w - 1)
	for sb := lo; sb < hi; sb++ {
		b0 := sb * hbpSuperBanks
		bEnd := b0 + hbpSuperBanks
		if bEnd > totalBanks {
			bEnd = totalBanks
		}
		row := b0 * perBank
		var acc uint64
		filled := 0
		for b := b0; b < bEnd; b++ {
			lane := binary.LittleEndian.Uint64(data[b*hbpBankBytes:])
			var res uint64
			switch sc.op {
			case layout.Eq:
				res = ^((lane ^ WC1) + ADD) & H
			case layout.Ne:
				res = ((lane ^ WC1) + ADD) & H
			case layout.Lt:
				res = ^((lane | H) - WC1) & H
			case layout.Ge:
				res = ((lane | H) - WC1) & H
			case layout.Gt:
				res = ^(WC1H - lane) & H
			case layout.Le:
				res = (WC1H - lane) & H
			case layout.Between:
				res = ((lane | H) - WC1) & (WC2H - lane) & H
			}
			// Gather the per-field guard bits into record order.
			var got uint64
			for s := 0; s < perBank; s++ {
				got |= res >> (uint(s*w) + k) & 1 << uint(s)
			}
			acc |= got << uint(filled)
			filled += perBank
			if filled >= 32 {
				out.SetWord32(row, uint32(acc))
				acc >>= 32
				filled -= 32
				row += 32
			}
		}
		if filled > 0 {
			out.SetWord32(row, uint32(acc))
		}
	}
}

// hbpSupers returns the number of 32-bank scan work units of the column.
func hbpSupers(h *hbp.HBP) int {
	banks := len(h.Data()) / hbpBankBytes
	return (banks + hbpSuperBanks - 1) / hbpSuperBanks
}

// ScanHBP evaluates the predicate over an HBP column with the bank range
// chunked across workers — the native counterpart of the modelled
// hbp.HBP.Scan. HBP has no early stopping or zone maps: every bit of every
// code is examined by construction, which is why HBP suits only
// lookup-dominated columns. For the stage, a super-bank is
// perBank 32-code segments and reads 32 banks of 8 bytes.
func ScanHBP(x Exec, h *hbp.HBP, p layout.Predicate, out *bitvec.Vector) error {
	if out.Len() != h.Len() {
		panic("kernel: result vector length mismatch")
	}
	sc := prepareHBP(h, p)
	perSuper := int64(hbpSuperBanks * hbpBankBytes)
	st := x.Stage
	_, err := parallelRanges(x, hbpSupers(h), rowCost*hbpSuperBanks, func(lo, hi int) struct{} {
		sc.scanSuperBanks(lo, hi, out)
		if st != nil {
			st.AddSegments(int64(hi-lo)*int64(sc.perBank), int64(hi-lo)*perSuper)
		}
		return struct{}{}
	}, dropUnit)
	return err
}
