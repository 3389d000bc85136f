//go:build amd64

#include "textflag.h"

// func prefetch(tags *uint32, stack *uint64)
TEXT ·prefetch(SB), NOSPLIT|NOFRAME, $0-16
	MOVQ tags+0(FP), AX
	MOVQ stack+8(FP), BX
	PREFETCHT0 (AX)
	PREFETCHT0 (BX)
	RET
