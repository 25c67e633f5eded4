package kernel

// SortCodes is the native ORDER BY over gathered codes — the counterpart
// of the modelled sortpart.Sort: a stable least-significant-byte radix
// sort, one counting pass per code byte. It runs on one worker in
// protected row batches (parallelRows): each pass fills one shared
// histogram, and a selective filter leaves few rows to fan out. A
// cancelled context stops it within a batch; a panic surfaces as a
// *PanicError.

// SortCodes returns rows ordered by their codes (codes[i] is the k-bit
// code of rows[i]), ties in the order given, skipping bytes every row
// shares. rows is not modified; codes doubles as the sort's working
// buffer and comes back in no particular order.
func SortCodes(x Exec, codes []uint32, k int, rows []int32) ([]int32, error) {
	if len(codes) != len(rows) {
		panic("kernel: SortCodes rows/codes length mismatch")
	}
	x.Workers = 1
	m := len(rows)
	out := make([]int32, m)
	copy(out, rows)
	var tmpC []uint32
	var tmpR []int32
	for p := 0; p < (k+7)/8; p++ {
		sh := uint(8 * p)
		var offs [256]int32
		if err := parallelRows(x, m, func(lo, hi int) {
			sortHist(codes[lo:hi], sh, &offs)
		}); err != nil {
			return nil, err
		}
		if m == 0 || int(offs[byte(codes[0]>>sh)]) == m {
			continue // one bucket: the pass would not move anything
		}
		var sum int32
		for d, c := range offs {
			offs[d] = sum
			sum += c
		}
		if tmpR == nil {
			tmpC, tmpR = make([]uint32, m), make([]int32, m)
		}
		if err := parallelRows(x, m, func(lo, hi int) {
			sortScatter(codes[lo:hi], out[lo:hi], sh, &offs, tmpC, tmpR)
		}); err != nil {
			return nil, err
		}
		codes, tmpC = tmpC, codes
		out, tmpR = tmpR, out
	}
	return out, nil
}

// sortHist counts byte codes[i]>>sh of one batch.
//
//bsvet:hotloop
func sortHist(codes []uint32, sh uint, hist *[256]int32) {
	for _, c := range codes {
		hist[byte(c>>sh)]++
	}
}

// sortScatter moves one batch to its buckets' next free slots.
//
//bsvet:hotloop
func sortScatter(codes []uint32, rows []int32, sh uint, offs *[256]int32, dstC []uint32, dstR []int32) {
	rows = rows[:len(codes)]
	for i, c := range codes {
		d := byte(c >> sh)
		o := offs[d]
		offs[d]++
		dstC[o] = c
		dstR[o] = rows[i]
	}
}
