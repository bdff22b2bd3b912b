#include "textflag.h"

// One step of one lane whose cursor is in R: BX = link[R], X = thr[R],
// R = left, BX = feature, then UCOMISD sets CF when thr < x[feature] or
// either is NaN — exactly when !(x[feature] <= thr) — and ADCL adds it:
// R = left + CF, in 32 bits like the Go walk's uint32.
#define STEP(R, X) \
	MOVQ    (DI)(R*8), BX; \
	MOVSD   (SI)(R*8), X; \
	MOVL    BX, R; \
	SHRQ    $32, BX; \
	UCOMISD (DX)(BX*8), X; \
	ADCL    $0, R

// Add lane R's leaf probability to the sum; stop after the last tree.
// CX holds the trees left, counting this group's.
#define ADDLEAF(R, N) \
	ADDSD (AX)(R*8), X8; \
	CMPQ  CX, $N; \
	JLE   done

// func sumLeaves(thr *float64, link *uint64, prob *float64, x *float64, roots *uint32, depths *int32, trees int) float64
//
// The lanes' cursors live in R8-R15. The loop state that does not fit
// in registers (the next group's roots and depth, the trees left) is
// kept in the argument slots.
TEXT ·sumLeaves(SB), NOSPLIT, $0-64
	MOVQ  thr+0(FP), SI
	MOVQ  link+8(FP), DI
	MOVQ  x+24(FP), DX
	XORPS X8, X8

group:
	MOVQ    trees+48(FP), CX
	TESTQ   CX, CX
	JLE     done
	MOVQ    depths+40(FP), AX
	MOVLQSX (AX), CX
	ADDQ    $4, AX
	MOVQ    AX, depths+40(FP)
	MOVQ    roots+32(FP), AX
	MOVL    0(AX), R8
	MOVL    4(AX), R9
	MOVL    8(AX), R10
	MOVL    12(AX), R11
	MOVL    16(AX), R12
	MOVL    20(AX), R13
	MOVL    24(AX), R14
	MOVL    28(AX), R15
	ADDQ    $32, AX
	MOVQ    AX, roots+32(FP)
	TESTQ   CX, CX
	JLE     sum

walk:
	STEP(R8, X0)
	STEP(R9, X1)
	STEP(R10, X2)
	STEP(R11, X3)
	STEP(R12, X4)
	STEP(R13, X5)
	STEP(R14, X6)
	STEP(R15, X7)
	DECQ CX
	JNZ  walk

sum:
	MOVQ prob+16(FP), AX
	MOVQ trees+48(FP), CX
	ADDLEAF(R8, 1)
	ADDLEAF(R9, 2)
	ADDLEAF(R10, 3)
	ADDLEAF(R11, 4)
	ADDLEAF(R12, 5)
	ADDLEAF(R13, 6)
	ADDLEAF(R14, 7)
	ADDSD (AX)(R15*8), X8
	SUBQ  $8, CX
	MOVQ  CX, trees+48(FP)
	JMP   group

done:
	MOVSD X8, ret+56(FP)
	RET
