#include "textflag.h"
#include "go_asm.h"

// The AVX2 range loops (see avx2.go). Each loop covers a segment range
// [segLo, segHi) of whole segments: one 32-byte load holds byte j of 32
// codes, so a segment's first-slice compare is one instruction and its 32
// result bits are one VPMOVMSKB. Tied segments resolve through the deeper
// byte slices inside the same loop, and each segment's result is stored
// as one 32-bit word at its place in the bit vector.
//
// All three loops share one segment walk. It takes the range in chunks
// of 32 segments; und, when non-nil, holds one 32-bit word per chunk
// whose set bits name the segments to evaluate (the zone walk's
// undecided ones), and nil evaluates every segment. Registers across the
// walk:
//
//	R8  chunk base segment     R9  segHi        R10 und cursor (0 = all)
//	R11 chunk's pending bits   AX  segment      DX  segment byte offset
//	SI  byte slice 0           DI  result words R12 byte slices (nb)
//	R13 *scanner               CX  deeper slice index, then depth
//
// A segment that loads a deeper slice counts once at deep[depth]; the
// callers derive the depth-1 count from the range.
//
// Only VEX-encoded moves are used: a legacy SSE instruction while the
// upper YMM halves are dirty costs a state transition per use.

// CHUNK_BITS loads the next chunk's pending bits into R11 and masks them
// to the segments left in the range; it jumps to done past the range.
#define CHUNK_BITS(done) \
	CMPQ    R8, R9        \
	JGE     done          \
	MOVL    $-1, R11      \
	TESTQ   R10, R10      \
	JZ      3(PC)         \
	MOVL    (R10), R11    \
	ADDQ    $4, R10       \
	MOVQ    R9, CX        \
	SUBQ    R8, CX        \
	MOVL    $32, DX       \
	CMPQ    CX, DX        \
	CMOVQGT DX, CX        \
	MOVL    $1, DX        \
	SHLQ    CX, DX        \
	DECQ    DX            \
	ANDL    DX, R11

// NEXT_SEGMENT pops the lowest pending bit into AX (the segment) and DX
// (its byte offset), or jumps to next when the chunk is done.
#define NEXT_SEGMENT(next) \
	TESTL R11, R11         \
	JZ    next             \
	BSFL  R11, AX          \
	LEAL  -1(R11), DX      \
	ANDL  DX, R11          \
	ADDQ  R8, AX           \
	MOVQ  AX, DX           \
	SHLQ  $5, DX

// SLICE_J loads byte slice CX's base pointer into BX.
#define SLICE_J \
	LEAQ (CX)(CX*2), BX                \
	MOVQ scanner_slices(R13)(BX*8), BX

// LOAD_ARGS loads the three loops' common arguments into the walk's
// registers.
#define LOAD_ARGS \
	MOVQ sc+0(FP), R13                 \
	MOVQ scanner_nb(R13), R12          \
	MOVQ scanner_slices(R13), SI       \
	MOVQ segLo+16(FP), R8              \
	MOVQ segHi+24(FP), R9              \
	MOVQ und+32(FP), R10               \
	MOVQ out_base+40(FP), DI

// func eqAVX2(sc *scanner, ne uint32, segLo, segHi int, und *[zoneWindowWords]uint32, out []uint64, deep *obs.DepthCounts)
//
// Eq and Ne: a lane stays live while every loaded slice equals the
// constant's byte; deeper slices load while any lane is live. ne
// complements the segment's bits.
TEXT ·eqAVX2(SB), NOSPLIT, $0-72
	LOAD_ARGS
	VPBROADCASTB scanner_c1(R13), Y0

eqChunk:
	CHUNK_BITS(eqDone)

eqSegment:
	NEXT_SEGMENT(eqNext)
	VPCMPEQB (SI)(DX*1), Y0, Y3
	CMPQ     R12, $1
	JEQ      eqStore
	VPTEST   Y3, Y3
	JZ       eqStore
	MOVQ     $1, CX

eqDeep:
	SLICE_J
	VPBROADCASTB scanner_c1(R13)(CX*8), Y4
	VPCMPEQB     (BX)(DX*1), Y4, Y4
	VPAND        Y4, Y3, Y3
	INCQ         CX
	VPTEST       Y3, Y3
	JZ           eqCount
	CMPQ         CX, R12
	JLT          eqDeep

eqCount:
	MOVQ deep+64(FP), BX
	INCQ (BX)(CX*8)

eqStore:
	VPMOVMSKB Y3, BX
	XORL      ne+8(FP), BX
	MOVL      BX, (DI)(AX*4)
	JMP       eqSegment

eqNext:
	ADDQ $32, R8
	JMP  eqChunk

eqDone:
	VZEROUPPER
	RET

// func cmpAVX2(sc *scanner, flip uint32, segLo, segHi int, und *[zoneWindowWords]uint32, out []uint64, deep *obs.DepthCounts)
//
// Strict Lt and Gt. flip's low byte is 0x80 for Lt and 0x7F for Gt: a
// lane matches on slice j when (c_j^flip) > (w_j^flip) as signed bytes,
// which is w_j < c_j unsigned for 0x80 and w_j > c_j for 0x7F. Lanes tied
// with the constant's first byte resolve through the deeper slices.
TEXT ·cmpAVX2(SB), NOSPLIT, $0-72
	LOAD_ARGS
	VPBROADCASTB scanner_c1(R13), Y0
	MOVL         flip+8(FP), BX
	VMOVD        BX, X1
	VPBROADCASTB X1, Y1
	VPXOR        Y0, Y1, Y2

cmpChunk:
	CHUNK_BITS(cmpDone)

cmpSegment:
	NEXT_SEGMENT(cmpNext)
	VMOVDQU  (SI)(DX*1), Y3
	VPXOR    Y3, Y1, Y4
	VPCMPGTB Y4, Y2, Y4
	CMPQ     R12, $1
	JEQ      cmpStore
	VPCMPEQB Y3, Y0, Y5
	VPTEST   Y5, Y5
	JZ       cmpStore
	MOVQ     $1, CX

cmpDeep:
	SLICE_J
	VMOVDQU      (BX)(DX*1), Y8
	VPBROADCASTB scanner_c1(R13)(CX*8), Y6
	VPXOR        Y6, Y1, Y7
	VPXOR        Y8, Y1, Y9
	VPCMPGTB     Y9, Y7, Y9
	VPAND        Y9, Y5, Y9
	VPOR         Y9, Y4, Y4
	INCQ         CX
	CMPQ         CX, R12
	JGE          cmpCount
	VPCMPEQB     Y8, Y6, Y8
	VPAND        Y8, Y5, Y5
	VPTEST       Y5, Y5
	JNZ          cmpDeep

cmpCount:
	MOVQ deep+64(FP), BX
	INCQ (BX)(CX*8)

cmpStore:
	VPMOVMSKB Y4, BX
	MOVL      BX, (DI)(AX*4)
	JMP       cmpSegment

cmpNext:
	ADDQ $32, R8
	JMP  cmpChunk

cmpDone:
	VZEROUPPER
	RET

// func betweenAVX2(sc *scanner, same uint32, segLo, segHi int, und *[zoneWindowWords]uint32, out []uint64, deep *obs.DepthCounts)
//
// The open interval (a, b): on the first slice a lane is inside when
// a_0 < w_0 < b_0. Lanes tied with a bound's first byte walk the deeper
// slices for both bounds at once — g collects the lanes tied with a that
// turn out above it, l those tied with b that turn out below it — while
// any lane is still tied. same is nonzero when the bounds share their
// first byte: a lane must then pass both (g AND l); otherwise a lane tied
// with one bound lies strictly inside the other (g OR l).
TEXT ·betweenAVX2(SB), NOSPLIT, $0-72
	LOAD_ARGS
	VPBROADCASTB scanner_c1(R13), Y0
	VPBROADCASTB scanner_c2(R13), Y10
	MOVL         $0x80, BX
	VMOVD        BX, X1
	VPBROADCASTB X1, Y1
	VPXOR        Y0, Y1, Y2
	VPXOR        Y10, Y1, Y11

btChunk:
	CHUNK_BITS(btDone)

btSegment:
	NEXT_SEGMENT(btNext)
	VMOVDQU  (SI)(DX*1), Y3
	VPXOR    Y3, Y1, Y4
	VPCMPGTB Y2, Y4, Y5
	VPCMPGTB Y4, Y11, Y4
	VPAND    Y5, Y4, Y4
	CMPQ     R12, $1
	JEQ      btStore
	VPCMPEQB Y3, Y0, Y5
	VPCMPEQB Y3, Y10, Y6
	VPOR     Y5, Y6, Y7
	VPTEST   Y7, Y7
	JZ       btStore
	VPXOR    Y8, Y8, Y8
	VPXOR    Y9, Y9, Y9
	MOVQ     $1, CX

btDeep:
	SLICE_J
	VMOVDQU      (BX)(DX*1), Y3
	VPBROADCASTB scanner_c1(R13)(CX*8), Y12
	VPBROADCASTB scanner_c2(R13)(CX*8), Y13
	VPXOR        Y3, Y1, Y14
	VPXOR        Y12, Y1, Y7
	VPCMPGTB     Y7, Y14, Y7
	VPAND        Y7, Y5, Y7
	VPOR         Y7, Y8, Y8
	VPXOR        Y13, Y1, Y7
	VPCMPGTB     Y14, Y7, Y7
	VPAND        Y7, Y6, Y7
	VPOR         Y7, Y9, Y9
	INCQ         CX
	CMPQ         CX, R12
	JGE          btCount
	VPCMPEQB     Y3, Y12, Y12
	VPAND        Y12, Y5, Y5
	VPCMPEQB     Y3, Y13, Y13
	VPAND        Y13, Y6, Y6
	VPOR         Y5, Y6, Y7
	VPTEST       Y7, Y7
	JNZ          btDeep

btCount:
	MOVQ  deep+64(FP), BX
	INCQ  (BX)(CX*8)
	MOVL  same+8(FP), BX
	TESTL BX, BX
	JZ    btEither
	VPAND Y8, Y9, Y8
	JMP   btMerge

btEither:
	VPOR Y8, Y9, Y8

btMerge:
	VPOR Y8, Y4, Y4

btStore:
	VPMOVMSKB Y4, BX
	MOVL      BX, (DI)(AX*4)
	JMP       btSegment

btNext:
	ADDQ $32, R8
	JMP  btChunk

btDone:
	VZEROUPPER
	RET

// bitsel holds 1<<i in dword i: ANDing a broadcast 32-bit mask with it
// and comparing for equality expands the mask into 32 dwords of all
// zeros or all ones.
DATA bitsel<>+0x00(SB)/4, $0x00000001
DATA bitsel<>+0x04(SB)/4, $0x00000002
DATA bitsel<>+0x08(SB)/4, $0x00000004
DATA bitsel<>+0x0c(SB)/4, $0x00000008
DATA bitsel<>+0x10(SB)/4, $0x00000010
DATA bitsel<>+0x14(SB)/4, $0x00000020
DATA bitsel<>+0x18(SB)/4, $0x00000040
DATA bitsel<>+0x1c(SB)/4, $0x00000080
DATA bitsel<>+0x20(SB)/4, $0x00000100
DATA bitsel<>+0x24(SB)/4, $0x00000200
DATA bitsel<>+0x28(SB)/4, $0x00000400
DATA bitsel<>+0x2c(SB)/4, $0x00000800
DATA bitsel<>+0x30(SB)/4, $0x00001000
DATA bitsel<>+0x34(SB)/4, $0x00002000
DATA bitsel<>+0x38(SB)/4, $0x00004000
DATA bitsel<>+0x3c(SB)/4, $0x00008000
DATA bitsel<>+0x40(SB)/4, $0x00010000
DATA bitsel<>+0x44(SB)/4, $0x00020000
DATA bitsel<>+0x48(SB)/4, $0x00040000
DATA bitsel<>+0x4c(SB)/4, $0x00080000
DATA bitsel<>+0x50(SB)/4, $0x00100000
DATA bitsel<>+0x54(SB)/4, $0x00200000
DATA bitsel<>+0x58(SB)/4, $0x00400000
DATA bitsel<>+0x5c(SB)/4, $0x00800000
DATA bitsel<>+0x60(SB)/4, $0x01000000
DATA bitsel<>+0x64(SB)/4, $0x02000000
DATA bitsel<>+0x68(SB)/4, $0x04000000
DATA bitsel<>+0x6c(SB)/4, $0x08000000
DATA bitsel<>+0x70(SB)/4, $0x10000000
DATA bitsel<>+0x74(SB)/4, $0x20000000
DATA bitsel<>+0x78(SB)/4, $0x40000000
DATA bitsel<>+0x7c(SB)/4, $0x80000000
GLOBL bitsel<>(SB), RODATA|NOPTR, $128

// func zoneAVX2(z *zoneInfo, segLo, segHi int, out []uint64, und *[zoneWindowWords]uint32)
//
// The zone walk over [segLo, segHi), at most zoneWindow segments: 32
// segments' min and max first bytes per compare, decided as
// core.ZoneDecisionBytes decides one (a padding-only zone, mn > mx,
// never matches). Every segment of the range gets a 32-bit result word —
// all ones when its zone decides a match for every row, else zero — and
// und gets one word per 32 segments whose set bits are the undecided
// segments, for the segment body to overwrite; und's unused words are
// zeroed. Loads start at min(seg, len(mn)-32), so they never read past the
// zone arrays, which the caller guarantees hold at least 32 segments.
TEXT ·zoneAVX2(SB), NOSPLIT, $0-56
	MOVQ z+0(FP), R13
	MOVQ zoneInfo_mn(R13), SI
	MOVQ zoneInfo_mx(R13), BX
	MOVQ zoneInfo_mn+8(R13), R12
	SUBQ $32, R12
	MOVQ zoneInfo_kind(R13), R11
	MOVL $0x80, AX
	VMOVD AX, X1
	VPBROADCASTB X1, Y1
	VPBROADCASTB zoneInfo_c1(R13), Y0
	VPXOR Y0, Y1, Y0
	VPBROADCASTB zoneInfo_c2(R13), Y2
	VPXOR Y2, Y1, Y2
	VMOVDQU bitsel<>+0x00(SB), Y10
	VMOVDQU bitsel<>+0x20(SB), Y11
	VMOVDQU bitsel<>+0x40(SB), Y12
	VMOVDQU bitsel<>+0x60(SB), Y13
	MOVQ segLo+8(FP), R8
	MOVQ segHi+16(FP), R9
	MOVQ out_base+24(FP), DI
	MOVQ und+48(FP), R10
	VPXOR   Y3, Y3, Y3
	VMOVDQU Y3, (R10)

zChunk:
	CMPQ    R8, R9
	JGE     zDone
	MOVQ    R8, DX
	CMPQ    DX, R12
	CMOVQGT R12, DX
	MOVQ    R8, CX
	SUBQ    DX, CX
	VMOVDQU (SI)(DX*1), Y3
	VMOVDQU (BX)(DX*1), Y4
	VPXOR   Y3, Y1, Y3
	VPXOR   Y4, Y1, Y4
	VPCMPGTB Y4, Y3, Y5
	VPCMPGTB Y4, Y0, Y6
	VPCMPGTB Y0, Y3, Y7
	CMPQ    R11, $const_zoneBelow
	JEQ     zBelow
	CMPQ    R11, $const_zoneAbove
	JEQ     zAbove
	CMPQ    R11, $const_zoneEq
	JEQ     zEq
	CMPQ    R11, $const_zoneNe
	JEQ     zNe
	VPCMPGTB Y4, Y2, Y8
	VPAND    Y8, Y7, Y8
	VPCMPGTB Y2, Y3, Y9
	VPOR     Y9, Y6, Y9
	JMP      zMasks

zBelow:
	VMOVDQU Y6, Y8
	VMOVDQU Y7, Y9
	JMP     zMasks

zAbove:
	VMOVDQU Y7, Y8
	VMOVDQU Y6, Y9
	JMP     zMasks

zEq:
	VPXOR Y8, Y8, Y8
	VPOR  Y6, Y7, Y9
	JMP   zMasks

zNe:
	VPOR  Y6, Y7, Y8
	VPXOR Y9, Y9, Y9

zMasks:
	VPANDN    Y8, Y5, Y8
	VPOR      Y5, Y9, Y9
	VPMOVMSKB Y8, AX
	VPMOVMSKB Y9, DX
	SHRL      CX, AX
	SHRL      CX, DX
	ORL       AX, DX
	MOVQ      R9, CX
	SUBQ      R8, CX
	MOVL      $-1, R13
	CMPQ      CX, $32
	JGE       zRange
	MOVL      $1, R13
	SHLL      CX, R13
	DECL      R13

zRange:
	ANDL         R13, AX
	NOTL         DX
	ANDL         R13, DX
	MOVL         DX, (R10)
	ADDQ         $4, R10
	VMOVD        AX, X8
	VPBROADCASTD X8, Y8
	VPAND        Y10, Y8, Y4
	VPCMPEQD     Y10, Y4, Y4
	VPAND        Y11, Y8, Y5
	VPCMPEQD     Y11, Y5, Y5
	VPAND        Y12, Y8, Y6
	VPCMPEQD     Y12, Y6, Y6
	VPAND        Y13, Y8, Y7
	VPCMPEQD     Y13, Y7, Y7
	LEAQ         (DI)(R8*4), DX
	CMPL         R13, $-1
	JNE          zPartial
	VMOVDQU      Y4, (DX)
	VMOVDQU      Y5, 32(DX)
	VMOVDQU      Y6, 64(DX)
	VMOVDQU      Y7, 96(DX)
	JMP          zNext

zPartial:
	VMOVD        R13, X9
	VPBROADCASTD X9, Y9
	VPAND        Y10, Y9, Y3
	VPCMPEQD     Y10, Y3, Y3
	VPMASKMOVD   Y4, Y3, (DX)
	VPAND        Y11, Y9, Y3
	VPCMPEQD     Y11, Y3, Y3
	VPMASKMOVD   Y5, Y3, 32(DX)
	VPAND        Y12, Y9, Y3
	VPCMPEQD     Y12, Y3, Y3
	VPMASKMOVD   Y6, Y3, 64(DX)
	VPAND        Y13, Y9, Y3
	VPCMPEQD     Y13, Y3, Y3
	VPMASKMOVD   Y7, Y3, 96(DX)

zNext:
	ADDQ $32, R8
	JMP  zChunk

zDone:
	VZEROUPPER
	RET

// func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL leaf+0(FP), AX
	MOVL sub+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv() (eax, edx uint32)
TEXT ·xgetbv(SB), NOSPLIT, $0-8
	MOVL $0, CX
	XGETBV
	MOVL AX, eax+0(FP)
	MOVL DX, edx+4(FP)
	RET
