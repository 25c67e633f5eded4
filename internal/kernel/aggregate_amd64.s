#include "textflag.h"
#include "go_asm.h"

// The AVX2 aggregate loops (see aggregate.go). A loop walks a run of
// 64-row mask words [wLo, wHi) whose rows lie in whole segments of every
// byte slice: word w covers bytes [64w, 64w+64) of each slice, two
// 32-byte loads. aggCols carries the slices, the mask words (nil selects
// every row) and, for Min/Max, the key flip and the domain bound's key.
//
// A masked loop expands a mask word to one byte lane per row: the word is
// broadcast, VPSHUFB copies mask byte i to the eight lanes of its rows,
// and a VPAND/VPCMPEQB against 0x8040201008040201 leaves lane r all ones
// (or, compared with zero, all zeros) when row r is selected. One VPTEST
// skips four dead mask words at a time; inside a group with a live word,
// every word runs without a branch on its bits, a dead one adding
// nothing (a branch per word mispredicts on sparse selections, where
// live and dead words alternate at random).
//
// Only VEX-encoded moves are used, as in avx2_amd64.s.

// expandlo and expandhi are the VPSHUFB controls that copy byte i of a
// broadcast mask word to the byte lanes of its eight rows: rows 0-31 and
// rows 32-63. VPSHUFB indexes within a 128-bit lane, and the broadcast
// word fills both halves of each.
DATA expandlo<>+0x00(SB)/8, $0x0000000000000000
DATA expandlo<>+0x08(SB)/8, $0x0101010101010101
DATA expandlo<>+0x10(SB)/8, $0x0202020202020202
DATA expandlo<>+0x18(SB)/8, $0x0303030303030303
GLOBL expandlo<>(SB), RODATA|NOPTR, $32

DATA expandhi<>+0x00(SB)/8, $0x0404040404040404
DATA expandhi<>+0x08(SB)/8, $0x0505050505050505
DATA expandhi<>+0x10(SB)/8, $0x0606060606060606
DATA expandhi<>+0x18(SB)/8, $0x0707070707070707
GLOBL expandhi<>(SB), RODATA|NOPTR, $32

// bytesel holds 1<<(i%8) in byte i: the bit of a row's mask byte.
DATA bytesel<>+0x00(SB)/8, $0x8040201008040201
GLOBL bytesel<>(SB), RODATA|NOPTR, $8

// popnib holds the bit count of each nibble value, once per 128-bit lane.
DATA popnib<>+0x00(SB)/8, $0x0302020102010100
DATA popnib<>+0x08(SB)/8, $0x0403030203020201
DATA popnib<>+0x10(SB)/8, $0x0302020102010100
DATA popnib<>+0x18(SB)/8, $0x0403030203020201
GLOBL popnib<>(SB), RODATA|NOPTR, $32

// HSUM adds the four 64-bit lanes of y (whose low half is x) into reg,
// using tmp.
#define HSUM(y, x, tmp, reg) \
	VEXTRACTI128 $1, y, tmp   \
	VPADDQ       tmp, x, x    \
	VPSHUFD      $0x4E, x, tmp \
	VPADDQ       tmp, x, x    \
	VMOVQ        x, reg

// EXPAND spreads the mask word at (DI)(R8*8) over the byte lanes of its
// rows, rows 0-31 into lo and rows 32-63 into hi, through the controls
// ctllo and ctlhi and the selector sel: a lane ends up all ones where the
// row's bit, masked by sel, equals cmp's lane (cmp = sel: the row is
// selected; cmp = zero: it is not). Uses Y0.
#define EXPAND(ctllo, ctlhi, sel, cmp, lo, hi) \
	VPBROADCASTQ (DI)(R8*8), Y0 \
	VPSHUFB      ctllo, Y0, lo  \
	VPSHUFB      ctlhi, Y0, hi  \
	VPAND        sel, lo, lo    \
	VPCMPEQB     cmp, lo, lo    \
	VPAND        sel, hi, hi    \
	VPCMPEQB     cmp, hi, hi

// LIVE_SEGS adds to dst the segments of the mask word in AX that hold a
// selected row (its low and high halves), using CX and DX.
#define LIVE_SEGS(dst) \
	XORL CX, CX  \
	MOVL AX, DX  \
	NEGL DX      \
	ADCL $0, CX  \
	MOVQ AX, DX  \
	SHRQ $32, DX \
	NEGL DX      \
	ADCL $0, CX  \
	ADDQ CX, dst

// NIBBLE_COUNT turns the 32 bytes in v into their bit counts (at most 8
// each) by looking both nibbles up in popnib (Y1) under the nibble mask
// Y2, using t.
#define NIBBLE_COUNT(v, t) \
	VPSRLW  $4, v, t \
	VPAND   Y2, v, v \
	VPAND   Y2, t, t \
	VPSHUFB v, Y1, v \
	VPSHUFB t, Y1, t \
	VPADDB  t, v, v

// func popcountAVX2(words []uint64) int
//
// The set bits of words: per 128 bytes, each nibble's count by VPSHUFB
// from popnib (Mula, Kurz and Lemire), added per byte (at most 32 per
// 128 bytes) over up to seven blocks, then per 8 bytes into 64-bit lanes
// by one VPSADBW against zero. The last words of a length not divisible
// by sixteen take POPCNT.
TEXT ·popcountAVX2(SB), NOSPLIT, $0-32
	MOVQ         words_base+0(FP), SI
	MOVQ         words_len+8(FP), CX
	VMOVDQU      popnib<>(SB), Y1
	MOVL         $0x0F, AX
	VMOVD        AX, X2
	VPBROADCASTB X2, Y2
	VPXOR        Y0, Y0, Y0
	VPXOR        Y3, Y3, Y3
	XORQ         AX, AX

pcRound:
	VPXOR Y8, Y8, Y8
	MOVL  $7, DX

pcBlock:
	CMPQ    CX, $16
	JLT     pcFlush
	VMOVDQU (SI), Y4
	VMOVDQU 32(SI), Y5
	VMOVDQU 64(SI), Y6
	VMOVDQU 96(SI), Y7
	NIBBLE_COUNT(Y4, Y9)
	NIBBLE_COUNT(Y5, Y10)
	NIBBLE_COUNT(Y6, Y11)
	NIBBLE_COUNT(Y7, Y12)
	VPADDB  Y4, Y5, Y4
	VPADDB  Y6, Y7, Y6
	VPADDB  Y4, Y6, Y4
	VPADDB  Y4, Y8, Y8
	ADDQ    $128, SI
	SUBQ    $16, CX
	DECL    DX
	JNZ     pcBlock

pcFlush:
	VPSADBW Y3, Y8, Y8
	VPADDQ  Y8, Y0, Y0
	CMPQ    CX, $16
	JGE     pcRound

pcTail:
	TESTQ   CX, CX
	JZ      pcDone
	POPCNTQ (SI), DX
	ADDQ    DX, AX
	ADDQ    $8, SI
	DECQ    CX
	JMP     pcTail

pcDone:
	HSUM(Y0, X0, X4, DX)
	ADDQ DX, AX
	MOVQ AX, ret+24(FP)
	VZEROUPPER
	RET

// func sumSegmentsAVX2(a *aggCols, segLo, segHi int) uint64
//
// The unmasked sum: per byte slice, VPSADBW against zero adds every 8
// bytes of segments [segLo, segHi) into a 64-bit lane, and the slice sums
// combine as Σ 256^(nb-1-j) · sum_j (Horner's rule, one shift per slice).
TEXT ·sumSegmentsAVX2(SB), NOSPLIT, $0-32
	MOVQ  a+0(FP), R13
	MOVQ  aggCols_nb(R13), R12
	MOVQ  segLo+8(FP), R8
	SHLQ  $5, R8
	MOVQ  segHi+16(FP), R9
	SHLQ  $5, R9
	VPXOR Y0, Y0, Y0
	XORQ  AX, AX
	XORQ  CX, CX

ssSlice:
	LEAQ  (CX)(CX*2), BX
	MOVQ  aggCols_slices(R13)(BX*8), SI
	VPXOR Y1, Y1, Y1
	VPXOR Y2, Y2, Y2
	MOVQ  R8, DX

ssPair:
	LEAQ    64(DX), BX
	CMPQ    BX, R9
	JGT     ssOne
	VPSADBW (SI)(DX*1), Y0, Y3
	VPSADBW 32(SI)(DX*1), Y0, Y4
	VPADDQ  Y3, Y1, Y1
	VPADDQ  Y4, Y2, Y2
	MOVQ    BX, DX
	JMP     ssPair

ssOne:
	CMPQ    DX, R9
	JGE     ssFold
	VPSADBW (SI)(DX*1), Y0, Y3
	VPADDQ  Y3, Y1, Y1

ssFold:
	VPADDQ Y2, Y1, Y1
	HSUM(Y1, X1, X3, BX)
	SHLQ   $8, AX
	ADDQ   BX, AX
	INCQ   CX
	CMPQ   CX, R12
	JLT    ssSlice
	MOVQ   AX, ret+24(FP)
	VZEROUPPER
	RET

// MASKED_SAD adds the selected bytes of one slice's 64-byte stretch at
// (base)(DX*1) into acc's four 64-bit lanes: Y8 and Y9 hold the expanded
// selection, Y12 zero.
#define MASKED_SAD(base, acc) \
	VPAND   (base)(DX*1), Y8, Y10   \
	VPAND   32(base)(DX*1), Y9, Y11 \
	VPSADBW Y12, Y10, Y10           \
	VPSADBW Y12, Y11, Y11           \
	VPADDQ  Y10, acc, acc           \
	VPADDQ  Y11, acc, acc

// func sumMaskedAVX2(a *aggCols, wLo, wHi int) (padded uint64, count, loaded int)
//
// The masked sum over mask words [wLo, wHi): each live word is expanded
// once and masks every byte slice's 64 bytes, which VPSADBW adds into
// that slice's accumulator (Y4-Y7 for slices 0-3); four dead words at a
// time load no data. It also counts the selected rows and the segments
// holding one. Registers:
//
//	SI, BX, R10, R11 byte slices 0-3   DI mask words   R12 nb
//	R8 word                            R9 wHi          R13 group end
TEXT ·sumMaskedAVX2(SB), NOSPLIT, $0-48
	MOVQ         a+0(FP), R13
	MOVQ         aggCols_nb(R13), R12
	MOVQ         aggCols_slices(R13), SI
	MOVQ         aggCols_slices+24(R13), BX
	MOVQ         aggCols_slices+48(R13), R10
	MOVQ         aggCols_slices+72(R13), R11
	MOVQ         aggCols_mw(R13), DI
	MOVQ         wLo+8(FP), R8
	MOVQ         wHi+16(FP), R9
	MOVQ         $0, count+32(FP)
	MOVQ         $0, loaded+40(FP)
	VMOVDQU      expandlo<>(SB), Y1
	VMOVDQU      expandhi<>(SB), Y2
	VPBROADCASTQ bytesel<>(SB), Y3
	VPXOR        Y4, Y4, Y4
	VPXOR        Y5, Y5, Y5
	VPXOR        Y6, Y6, Y6
	VPXOR        Y7, Y7, Y7
	VPXOR        Y12, Y12, Y12

smGroup:
	CMPQ    R8, R9
	JGE     smDone
	LEAQ    4(R8), R13
	CMPQ    R13, R9
	JGT     smTail
	VMOVDQU (DI)(R8*8), Y0
	VPTEST  Y0, Y0
	JNZ     smWords
	MOVQ    R13, R8
	JMP     smGroup

smTail:
	MOVQ R9, R13

smWords:
	CMPQ    R8, R13
	JGE     smGroup
	MOVQ    (DI)(R8*8), AX
	POPCNTQ AX, DX
	ADDQ    DX, count+32(FP)
	LIVE_SEGS(loaded+40(FP))
	EXPAND(Y1, Y2, Y3, Y3, Y8, Y9)
	MOVQ    R8, DX
	SHLQ    $6, DX
	MASKED_SAD(SI, Y4)
	CMPQ    R12, $2
	JLT     smNext
	MASKED_SAD(BX, Y5)
	CMPQ    R12, $3
	JLT     smNext
	MASKED_SAD(R10, Y6)
	CMPQ    R12, $4
	JLT     smNext
	MASKED_SAD(R11, Y7)

smNext:
	INCQ R8
	JMP  smWords

smDone:
	HSUM(Y4, X4, X10, AX)
	CMPQ R12, $2
	JLT  smStore
	HSUM(Y5, X5, X10, CX)
	SHLQ $8, AX
	ADDQ CX, AX
	CMPQ R12, $3
	JLT  smStore
	HSUM(Y6, X6, X10, CX)
	SHLQ $8, AX
	ADDQ CX, AX
	CMPQ R12, $4
	JLT  smStore
	HSUM(Y7, X7, X10, CX)
	SHLQ $8, AX
	ADDQ CX, AX

smStore:
	MOVQ AX, padded+24(FP)
	VZEROUPPER
	RET

// The Min/Max passes compare keys: a byte, or a padded code, XORed with
// aggCols.flip (zero for a minimum, all ones for a maximum), so the best
// is always the smallest key and one loop serves both.

// FOLD_MARK folds the keyed first bytes of a word's rows (Y9: rows 0-31,
// Y10: rows 32-63) into the window's minimum Y5, and leaves in CX the
// rows whose key byte ties or beats t (Y1).
#define FOLD_MARK \
	VPMINUB   Y9, Y5, Y5    \
	VPMINUB   Y10, Y5, Y5   \
	VPMINUB   Y9, Y1, Y11   \
	VPCMPEQB  Y11, Y9, Y11  \
	VPMOVMSKB Y11, CX       \
	VPMINUB   Y10, Y1, Y11  \
	VPCMPEQB  Y11, Y10, Y11 \
	VPMOVMSKB Y11, DX       \
	SHLQ      $32, DX       \
	ORQ       DX, CX

// func extremeFirstAVX2(a *aggCols, wLo, wHi int, t uint32, cand *[zoneWindow / 2]uint64) (fold uint32, live int)
//
// The Min/Max decide pass over mask words [wLo, wHi), at most one
// window: it loads the first byte slice only (four dead words at a time
// load nothing), forces the key byte of every unselected row to 0xFF,
// folds the window's smallest key byte with VPMINUB and stores, per word,
// the selected rows whose key byte is at most t in cand[w-wLo]; there is
// no branch on the data. It returns
// the fold (0xFF when no row is selected) and the segments holding a
// selected row. Registers:
//
//	SI byte slice 0   DI mask words   R8 word      R9 wHi
//	R10 cand cursor   R11 group end   R12 live
TEXT ·extremeFirstAVX2(SB), NOSPLIT, $0-56
	MOVQ         a+0(FP), R13
	MOVQ         aggCols_slices(R13), SI
	MOVQ         aggCols_mw(R13), DI
	VPBROADCASTB aggCols_flip(R13), Y13
	MOVL         t+24(FP), AX
	VMOVD        AX, X1
	VPBROADCASTB X1, Y1
	VMOVDQU      expandlo<>(SB), Y14
	VMOVDQU      expandhi<>(SB), Y2
	VPBROADCASTQ bytesel<>(SB), Y3
	VPCMPEQB     Y5, Y5, Y5
	VPXOR        Y15, Y15, Y15
	MOVQ         wLo+8(FP), R8
	MOVQ         wHi+16(FP), R9
	MOVQ         cand+32(FP), R10
	XORQ         R12, R12
	TESTQ        DI, DI
	JZ           efAll

efGroup:
	CMPQ    R8, R9
	JGE     efDone
	LEAQ    4(R8), R11
	CMPQ    R11, R9
	JGT     efTail
	VMOVDQU (DI)(R8*8), Y6
	VPTEST  Y6, Y6
	JNZ     efWords
	VMOVDQU Y15, (R10)
	ADDQ    $32, R10
	MOVQ    R11, R8
	JMP     efGroup

efTail:
	MOVQ R9, R11

efWords:
	CMPQ  R8, R11
	JGE   efGroup
	MOVQ  (DI)(R8*8), AX
	LIVE_SEGS(R12)
	EXPAND(Y14, Y2, Y3, Y15, Y7, Y8)
	MOVQ  R8, DX
	SHLQ  $6, DX
	VPXOR (SI)(DX*1), Y13, Y9
	VPOR  Y7, Y9, Y9
	VPXOR 32(SI)(DX*1), Y13, Y10
	VPOR  Y8, Y10, Y10
	FOLD_MARK
	ANDQ  AX, CX
	MOVQ  CX, (R10)
	ADDQ  $8, R10
	INCQ  R8
	JMP   efWords

efAll:
	MOVQ R9, R12
	SUBQ R8, R12
	SHLQ $1, R12

efAllWord:
	CMPQ  R8, R9
	JGE   efDone
	MOVQ  R8, DX
	SHLQ  $6, DX
	VPXOR (SI)(DX*1), Y13, Y9
	VPXOR 32(SI)(DX*1), Y13, Y10
	FOLD_MARK
	MOVQ  CX, (R10)
	ADDQ  $8, R10
	INCQ  R8
	JMP   efAllWord

efDone:
	VEXTRACTI128 $1, Y5, X6
	VPMINUB      X6, X5, X5
	VPSRLDQ      $8, X5, X6
	VPMINUB      X6, X5, X5
	VPSRLDQ      $4, X5, X6
	VPMINUB      X6, X5, X5
	VPSRLDQ      $2, X5, X6
	VPMINUB      X6, X5, X5
	VPSRLDQ      $1, X5, X6
	VPMINUB      X6, X5, X5
	VMOVD        X5, AX
	ANDL         $0xFF, AX
	MOVL         AX, fold+40(FP)
	MOVQ         R12, live+48(FP)
	VZEROUPPER
	RET

// func extremeResolveAVX2(a *aggCols, wLo, wHi int, t uint32, cand *[zoneWindow / 2]uint64, key uint64) (best uint64, stop int)
//
// The Min/Max resolve pass: it walks the rows cand marks, in row order,
// skips those whose first key byte is not t, the window's best, and
// stitches the deeper slices of the rest into their key, keeping the
// smallest below key. It stops at the first row whose key is the domain
// bound's and returns its word as stop, else -1. Registers:
//
//	SI byte slice 0   R8 word   R9 wHi   R10 cand cursor   R11 t, unkeyed
//	R12 key flip      R13 a     DI best  CX the word's rows left
TEXT ·extremeResolveAVX2(SB), NOSPLIT, $0-64
	MOVQ a+0(FP), R13
	MOVQ aggCols_slices(R13), SI
	MOVL aggCols_flip(R13), R12
	MOVL t+24(FP), R11
	XORL R12, R11
	ANDL $0xFF, R11
	MOVQ wLo+8(FP), R8
	MOVQ wHi+16(FP), R9
	MOVQ cand+32(FP), R10
	MOVQ key+40(FP), DI
	MOVQ $-1, stop+56(FP)

erWord:
	CMPQ R8, R9
	JGE  erDone
	MOVQ (R10), CX

erRow:
	TESTQ   CX, CX
	JZ      erNext
	BSFQ    CX, AX
	LEAQ    -1(CX), DX
	ANDQ    DX, CX
	MOVQ    R8, DX
	SHLQ    $6, DX
	ADDQ    DX, AX
	MOVBLZX (SI)(AX*1), DX
	CMPL    DX, R11
	JNE     erRow
	CMPQ    aggCols_nb(R13), $2
	JLT     erKey
	MOVQ    aggCols_slices+24(R13), BX
	MOVBLZX (BX)(AX*1), BX
	SHLL    $8, DX
	ORL     BX, DX
	CMPQ    aggCols_nb(R13), $3
	JLT     erKey
	MOVQ    aggCols_slices+48(R13), BX
	MOVBLZX (BX)(AX*1), BX
	SHLL    $8, DX
	ORL     BX, DX
	CMPQ    aggCols_nb(R13), $4
	JLT     erKey
	MOVQ    aggCols_slices+72(R13), BX
	MOVBLZX (BX)(AX*1), BX
	SHLL    $8, DX
	ORL     BX, DX

erKey:
	XORL R12, DX
	CMPQ DX, DI
	JAE  erRow
	MOVQ DX, DI
	CMPL DX, aggCols_bound(R13)
	JNE  erRow
	MOVQ R8, stop+56(FP)

erDone:
	MOVQ DI, best+48(FP)
	RET

erNext:
	ADDQ $8, R10
	INCQ R8
	JMP  erWord
