#include "textflag.h"

// Lane c's index, for the range masks.
DATA lanes<>+0(SB)/4, $0
DATA lanes<>+4(SB)/4, $1
DATA lanes<>+8(SB)/4, $2
DATA lanes<>+12(SB)/4, $3
DATA lanes<>+16(SB)/4, $4
DATA lanes<>+20(SB)/4, $5
DATA lanes<>+24(SB)/4, $6
DATA lanes<>+28(SB)/4, $7
DATA lanes<>+32(SB)/4, $8
DATA lanes<>+36(SB)/4, $9
DATA lanes<>+40(SB)/4, $10
DATA lanes<>+44(SB)/4, $11
DATA lanes<>+48(SB)/4, $12
DATA lanes<>+52(SB)/4, $13
DATA lanes<>+56(SB)/4, $14
DATA lanes<>+60(SB)/4, $15
DATA lanes<>+64(SB)/4, $16
DATA lanes<>+68(SB)/4, $17
DATA lanes<>+72(SB)/4, $18
DATA lanes<>+76(SB)/4, $19
DATA lanes<>+80(SB)/4, $20
DATA lanes<>+84(SB)/4, $21
DATA lanes<>+88(SB)/4, $22
DATA lanes<>+92(SB)/4, $23
DATA lanes<>+96(SB)/4, $24
DATA lanes<>+100(SB)/4, $25
DATA lanes<>+104(SB)/4, $26
DATA lanes<>+108(SB)/4, $27
DATA lanes<>+112(SB)/4, $28
DATA lanes<>+116(SB)/4, $29
DATA lanes<>+120(SB)/4, $30
DATA lanes<>+124(SB)/4, $31
GLOBL lanes<>(SB), RODATA|NOPTR, $128

// VPERMD indices that rotate eight lanes up by 1, 2 and 4.
DATA rot1<>+0(SB)/4, $7
DATA rot1<>+4(SB)/4, $0
DATA rot1<>+8(SB)/4, $1
DATA rot1<>+12(SB)/4, $2
DATA rot1<>+16(SB)/4, $3
DATA rot1<>+20(SB)/4, $4
DATA rot1<>+24(SB)/4, $5
DATA rot1<>+28(SB)/4, $6
GLOBL rot1<>(SB), RODATA|NOPTR, $32
DATA rot2<>+0(SB)/4, $6
DATA rot2<>+4(SB)/4, $7
DATA rot2<>+8(SB)/4, $0
DATA rot2<>+12(SB)/4, $1
DATA rot2<>+16(SB)/4, $2
DATA rot2<>+20(SB)/4, $3
DATA rot2<>+24(SB)/4, $4
DATA rot2<>+28(SB)/4, $5
GLOBL rot2<>(SB), RODATA|NOPTR, $32
DATA rot4<>+0(SB)/4, $4
DATA rot4<>+4(SB)/4, $5
DATA rot4<>+8(SB)/4, $6
DATA rot4<>+12(SB)/4, $7
DATA rot4<>+16(SB)/4, $0
DATA rot4<>+20(SB)/4, $1
DATA rot4<>+24(SB)/4, $2
DATA rot4<>+28(SB)/4, $3
GLOBL rot4<>(SB), RODATA|NOPTR, $32

// Row layout: H lanes at 0(DI), E lanes at 160(DI); the row above's H at
// -320(DI) and E at -160(DI). Lanes 8k to 8k+7 are 32k bytes in.
#define UP_H -320
#define UP_E -160
#define ROW_E 160

// PHASE1 computes lanes 8k..8k+7 (byte offset off): E = max(upH[c+1] −
// open, upE[c+1] − extend), stored as E in range and −∞ outside it, and
// H′ = max(0, upH[c] + score, E) in range and 0 outside it, left in hp.
// Y4 = cHi+1, Y5 = cLo, Y12 = 0, Y13 = extend, Y14 = open and Y15 = −∞
// broadcast; Y8–Y11 are scratch.
#define PHASE1(off, hp) \
	VMOVDQU    UP_H+4+off(DI), Y8 \
	VMOVDQU    UP_E+4+off(DI), Y9 \
	VPSUBD     Y14, Y8, Y8 \
	VPSUBD     Y13, Y9, Y9 \
	VPMAXSD    Y9, Y8, Y8 \
	VMOVDQU    off(SI), Y9 \
	VPCMPEQD   Y10, Y10, Y10 \
	VPXOR      Y11, Y11, Y11 \
	VPGATHERDD Y10, (DX)(Y9*4), Y11 \
	VMOVDQU    UP_H+off(DI), hp \
	VPADDD     Y11, hp, hp \
	VPMAXSD    Y8, hp, hp \
	VPMAXSD    Y12, hp, hp \
	VPCMPGTD   lanes<>+off(SB), Y4, Y10 \
	VPCMPGTD   lanes<>+off(SB), Y5, Y11 \
	VPANDN     Y10, Y11, Y10 \
	VPAND      Y10, hp, hp \
	VPBLENDVB  Y10, Y8, Y15, Y8 \
	VMOVDQU    Y8, ROW_E+off(DI)

// SHIFT takes X (Y4–Y7) to max(X, X shifted up s lanes − decay), −∞
// shifted in at lane 0, for s < 8: Y12 holds the rotation by s, blend
// the mask of the s lanes a register takes from the one below, and Y14
// the decay. Each register is rotated before it is updated.
#define SHIFT(blend) \
	VPERMD   Y4, Y12, Y8 \
	VPBLENDD $blend, Y15, Y8, Y10 \
	VPSUBD   Y14, Y10, Y10 \
	VPMAXSD  Y10, Y4, Y4 \
	VPERMD   Y5, Y12, Y9 \
	VPBLENDD $blend, Y8, Y9, Y10 \
	VPSUBD   Y14, Y10, Y10 \
	VPMAXSD  Y10, Y5, Y5 \
	VPERMD   Y6, Y12, Y8 \
	VPBLENDD $blend, Y9, Y8, Y10 \
	VPSUBD   Y14, Y10, Y10 \
	VPMAXSD  Y10, Y6, Y6 \
	VPERMD   Y7, Y12, Y9 \
	VPBLENDD $blend, Y8, Y9, Y10 \
	VPSUBD   Y14, Y10, Y10 \
	VPMAXSD  Y10, Y7, Y7

// PHASE3 finishes lanes 8k..8k+7: H = max(H′, F) in range, 0 off the
// subject and −∞ from lane width on, stored. Y12 = cHi+1, Y13 = cLo and
// Y14 = width broadcast; Y10 and Y11 are scratch.
#define PHASE3(off, hp, f) \
	VPMAXSD   hp, f, f \
	VPCMPGTD  lanes<>+off(SB), Y12, Y10 \
	VPCMPGTD  lanes<>+off(SB), Y13, Y11 \
	VPANDN    Y10, Y11, Y10 \
	VPCMPGTD  lanes<>+off(SB), Y14, Y11 \
	VPANDN    Y15, Y11, Y11 \
	VPBLENDVB Y10, f, Y11, f \
	VMOVDQU   f, off(DI)

// func bandRowAVX2(row, res *int32, scores *[256]int32, cLo, cHi, width int, open, extend int32) (best int32, at int)
TEXT ·bandRowAVX2(SB), NOSPLIT, $0-72
	MOVQ         row+0(FP), DI
	MOVQ         res+8(FP), SI
	MOVQ         scores+16(FP), DX
	MOVQ         cHi+32(FP), R9
	INCQ         R9
	MOVL         $0xE0000000, AX     // negInf
	VMOVD        AX, X15
	VPBROADCASTD X15, Y15
	MOVL         open+48(FP), AX
	VMOVD        AX, X14
	VPBROADCASTD X14, Y14
	MOVL         extend+52(FP), AX
	VMOVD        AX, X13
	VPBROADCASTD X13, Y13
	VPXOR        Y12, Y12, Y12
	MOVQ         cLo+24(FP), R8
	MOVQ         width+40(FP), R10
	VMOVD        R9, X4
	VPBROADCASTD X4, Y4
	VMOVD        R8, X5
	VPBROADCASTD X5, Y5

	// H′ and E, from the row above.
	PHASE1(0, Y0)
	PHASE1(32, Y1)
	PHASE1(64, Y2)
	PHASE1(96, Y3)

	// F ≤ 0 ≤ H′ in every lane unless some H′ exceeds open: then H = H′,
	// and the scan is skipped.
	VPCMPGTD Y14, Y0, Y8
	VPCMPGTD Y14, Y1, Y9
	VPCMPGTD Y14, Y2, Y10
	VPCMPGTD Y14, Y3, Y11
	VPOR     Y8, Y9, Y8
	VPOR     Y10, Y11, Y10
	VPOR     Y8, Y10, Y8
	VPTEST   Y8, Y8
	JNZ      scan
	VMOVDQU  Y15, Y4
	VMOVDQU  Y15, Y5
	VMOVDQU  Y15, Y6
	VMOVDQU  Y15, Y7
	JMP      finish

scan:
	// X = H′ shifted up one lane, −∞ in at lane 0, minus open.
	VMOVDQU  rot1<>(SB), Y12
	VPERMD   Y0, Y12, Y8
	VPBLENDD $1, Y15, Y8, Y4
	VPERMD   Y1, Y12, Y9
	VPBLENDD $1, Y8, Y9, Y5
	VPERMD   Y2, Y12, Y8
	VPBLENDD $1, Y9, Y8, Y6
	VPERMD   Y3, Y12, Y9
	VPBLENDD $1, Y8, Y9, Y7
	VPSUBD   Y14, Y4, Y4
	VPSUBD   Y14, Y5, Y5
	VPSUBD   Y14, Y6, Y6
	VPSUBD   Y14, Y7, Y7

	// F = X's prefix maximum, extend lost per lane: shifts of 1, 2, 4,
	// 8 and 16 lanes cover every distance up to 31.
	VMOVDQU Y13, Y14
	SHIFT(0x01)
	VMOVDQU rot2<>(SB), Y12
	VPADDD  Y14, Y14, Y14
	SHIFT(0x03)
	VMOVDQU rot4<>(SB), Y12
	VPADDD  Y14, Y14, Y14
	SHIFT(0x0F)
	VPADDD  Y14, Y14, Y14 // 8·extend: a whole register up
	VPSUBD  Y14, Y6, Y10
	VPMAXSD Y10, Y7, Y7
	VPSUBD  Y14, Y5, Y10
	VPMAXSD Y10, Y6, Y6
	VPSUBD  Y14, Y4, Y10
	VPMAXSD Y10, Y5, Y5
	VPADDD  Y14, Y14, Y14 // 16·extend: two registers up
	VPSUBD  Y14, Y5, Y10
	VPMAXSD Y10, Y7, Y7
	VPSUBD  Y14, Y4, Y10
	VPMAXSD Y10, Y6, Y6

finish:
	// H, and the lanes outside [cLo, cHi].
	VMOVD        R9, X12
	VPBROADCASTD X12, Y12
	VMOVD        R8, X13
	VPBROADCASTD X13, Y13
	VMOVD        R10, X14
	VPBROADCASTD X14, Y14
	PHASE3(0, Y0, Y4)
	PHASE3(32, Y1, Y5)
	PHASE3(64, Y2, Y6)
	PHASE3(96, Y3, Y7)
	VMOVDQU Y15, 128(DI)
	VMOVDQU Y15, ROW_E+128(DI)

	// The best H: in range every lane is ≥ 0 and outside it ≤ 0, so the
	// maximum over all lanes is the row's. Its first lane from cLo on
	// is in range.
	VPMAXSD      Y4, Y5, Y8
	VPMAXSD      Y6, Y7, Y9
	VPMAXSD      Y8, Y9, Y8
	VEXTRACTI128 $1, Y8, X9
	VPMAXSD      X9, X8, X8
	VPSHUFD      $0x4E, X8, X9
	VPMAXSD      X9, X8, X8
	VPSHUFD      $0xB1, X8, X9
	VPMAXSD      X9, X8, X8
	VMOVD        X8, AX
	MOVL         AX, best+56(FP)
	VPBROADCASTD X8, Y8
	VPCMPEQD     Y8, Y4, Y4
	VPCMPEQD     Y8, Y5, Y5
	VPCMPEQD     Y8, Y6, Y6
	VPCMPEQD     Y8, Y7, Y7
	VMOVMSKPS    Y4, AX
	VMOVMSKPS    Y5, BX
	SHLL         $8, BX
	ORL          BX, AX
	VMOVMSKPS    Y6, BX
	SHLL         $16, BX
	ORL          BX, AX
	VMOVMSKPS    Y7, BX
	SHLL         $24, BX
	ORL          BX, AX
	MOVQ         R8, CX
	MOVL         $-1, BX
	SHLL         CX, BX
	ANDL         BX, AX
	BSFL         AX, AX
	MOVQ         AX, at+64(FP)
	VZEROUPPER
	RET
