#include "textflag.h"

// func probe() (avx, avx2 bool)
TEXT ·probe(SB), NOSPLIT, $0-2
	MOVB $0, avx+0(FP)
	MOVB $0, avx2+1(FP)
	XORL AX, AX
	XORL CX, CX
	CPUID                // EAX: the highest leaf
	MOVL AX, R8
	MOVL $1, AX
	XORL CX, CX
	CPUID
	ANDL $0x18000000, CX // OSXSAVE and AVX
	CMPL CX, $0x18000000
	JNE  done
	XORL CX, CX
	XGETBV               // XCR0 into DX:AX
	ANDL $6, AX          // XMM and YMM state enabled
	CMPL AX, $6
	JNE  done
	MOVB $1, avx+0(FP)
	CMPL R8, $7
	JB   done
	MOVL $7, AX
	XORL CX, CX
	CPUID
	BTL  $5, BX          // AVX2
	JCC  done
	MOVB $1, avx2+1(FP)

done:
	RET
