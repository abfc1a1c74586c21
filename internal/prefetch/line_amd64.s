#include "textflag.h"

// func Line(p unsafe.Pointer)
TEXT ·Line(SB), NOSPLIT, $0-8
	MOVQ	p+0(FP), AX
	PREFETCHT0	(AX)
	RET
