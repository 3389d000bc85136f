//go:build amd64

#include "go_asm.h"
#include "textflag.h"

// func prefetch(tags *uint32, stack *uint64)
TEXT ·prefetch(SB), NOSPLIT|NOFRAME, $0-16
	MOVQ tags+0(FP), AX
	MOVQ stack+8(FP), BX
	PREFETCHT0 (AX)
	PREFETCHT0 (BX)
	RET

// func scanSSE2(set *uint32, n int, tag uint32) (hits, frees uint64)
//
// The loop walks the set from its last four ways to its first, shifting
// each group's 16 mask bits in below the groups after it.
TEXT ·scanSSE2(SB), NOSPLIT|NOFRAME, $0-40
	MOVQ set+0(FP), SI
	MOVQ n+8(FP), CX
	MOVL tag+16(FP), AX
	MOVD AX, X0
	PSHUFL $0, X0, X0 // tag in every lane
	MOVL $~(const_tagDirty|const_tagStream), AX
	MOVD AX, X1
	PSHUFL $0, X1, X1 // flag mask in every lane
	PXOR X2, X2
	XORQ R8, R8
	XORQ R9, R9
	LEAQ -16(SI)(CX*4), SI
	SHRQ $2, CX

loop:
	MOVOU (SI), X3
	MOVO X3, X4
	PAND X1, X3
	PCMPEQL X0, X3
	PCMPEQL X2, X4
	PMOVMSKB X3, AX
	PMOVMSKB X4, DX
	SHLQ $16, R8
	SHLQ $16, R9
	ORQ AX, R8
	ORQ DX, R9
	SUBQ $16, SI
	DECQ CX
	JNZ loop

	MOVQ R8, hits+24(FP)
	MOVQ R9, frees+32(FP)
	RET
