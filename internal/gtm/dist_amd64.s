#include "textflag.h"

// func sqDist16AVX(dst, group, x []float64)
//
// Y0–Y3 accumulate the four blocks' lanes; block b of the group starts
// b·32·len(x) bytes after the first, and each dimension moves every
// block on by 32 bytes and x by 8.
TEXT ·sqDist16AVX(SB), NOSPLIT, $0-72
	MOVQ dst_base+0(FP), DI
	MOVQ group_base+24(FP), SI
	MOVQ x_base+48(FP), DX
	MOVQ x_len+56(FP), CX
	MOVQ CX, R8
	SHLQ $5, R8             // bytes per block
	LEAQ (R8)(R8*2), R9     // three blocks
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	TESTQ CX, CX
	JZ    done

loop:
	VBROADCASTSD (DX), Y4
	VMOVUPD      (SI), Y5
	VMOVUPD      (SI)(R8*1), Y6
	VMOVUPD      (SI)(R8*2), Y7
	VMOVUPD      (SI)(R9*1), Y8
	VSUBPD       Y4, Y5, Y5 // y − x
	VSUBPD       Y4, Y6, Y6
	VSUBPD       Y4, Y7, Y7
	VSUBPD       Y4, Y8, Y8
	VMULPD       Y5, Y5, Y5
	VMULPD       Y6, Y6, Y6
	VMULPD       Y7, Y7, Y7
	VMULPD       Y8, Y8, Y8
	VADDPD       Y5, Y0, Y0 // s += d·d
	VADDPD       Y6, Y1, Y1
	VADDPD       Y7, Y2, Y2
	VADDPD       Y8, Y3, Y3
	ADDQ         $8, DX
	ADDQ         $32, SI
	DECQ         CX
	JNZ          loop

done:
	VMOVUPD Y0, (DI)
	VMOVUPD Y1, 32(DI)
	VMOVUPD Y2, 64(DI)
	VMOVUPD Y3, 96(DI)
	VZEROUPPER
	RET
