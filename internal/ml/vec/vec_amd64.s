#include "textflag.h"

// func cpuid(leaf, subleaf uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL leaf+0(FP), AX
	MOVL subleaf+4(FP), CX
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

// One column of a pass of sqDistPairs: Y0 and Y1 hold the running sums
// of the pass's two blocks (four rows each), AX points at q[j], R11 and
// R12 at column j of the two blocks. Per lane: s += (q[j]-x[j])², with
// the subtraction, the square and the addition rounded one at a time.
#define SQDIST_COLUMN \
	VBROADCASTSD (AX), Y2; \
	VSUBPD       (R11), Y2, Y3; \
	VSUBPD       (R12), Y2, Y4; \
	VMULPD       Y3, Y3, Y3; \
	VMULPD       Y4, Y4, Y4; \
	VADDPD       Y3, Y0, Y0; \
	VADDPD       Y4, Y1, Y1; \
	ADDQ         $8, AX; \
	ADDQ         $32, R11; \
	ADDQ         $32, R12

// func sqDistPairs(dst, q, blocks *float64, pairs, w, cut int, bound float64) uint64
TEXT ·sqDistPairs(SB), NOSPLIT, $0-64
	MOVQ         dst+0(FP), DI
	MOVQ         q+8(FP), DX
	MOVQ         blocks+16(FP), SI
	MOVQ         pairs+24(FP), R13
	MOVQ         w+32(FP), R8
	MOVQ         cut+40(FP), R9
	VBROADCASTSD bound+48(FP), Y7
	MOVQ         R8, R10
	SHLQ         $5, R10          // bytes per block: four rows of w
	SUBQ         R9, R8           // columns after the cut
	XORQ         R14, R14         // the mask of rows below the bound
	XORQ         CX, CX           // its bit for the pass's first row

pair:
	TESTQ  R13, R13
	JZ     done
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	MOVQ   DX, AX
	MOVQ   SI, R11
	LEAQ   (SI)(R10*1), R12
	MOVQ   R9, BX

head:
	TESTQ BX, BX
	JZ    check
	SQDIST_COLUMN
	DECQ  BX
	JMP   head

check:
	// Drop the pass when no lane's partial sum is below the bound
	// (ordered compare: a NaN lane is never below it).
	VCMPPD    $0x11, Y7, Y0, Y5
	VCMPPD    $0x11, Y7, Y1, Y6
	VORPD     Y5, Y6, Y5
	VMOVMSKPD Y5, BX
	TESTQ     BX, BX
	JZ        store
	MOVQ      R8, BX

tail:
	TESTQ BX, BX
	JZ    compare
	SQDIST_COLUMN
	DECQ  BX
	JMP   tail

compare:
	VCMPPD    $0x11, Y7, Y0, Y5
	VCMPPD    $0x11, Y7, Y1, Y6
	VMOVMSKPD Y5, AX
	VMOVMSKPD Y6, BX
	SHLQ      $4, BX
	ORQ       BX, AX
	SHLQ      CX, AX
	ORQ       AX, R14

store:
	VMOVUPD Y0, (DI)
	VMOVUPD Y1, 32(DI)
	ADDQ    $64, DI
	LEAQ    (SI)(R10*2), SI
	ADDQ    $8, CX
	DECQ    R13
	JMP     pair

done:
	MOVQ R14, ret+56(FP)
	VZEROUPPER
	RET

// func affineBlocks(dst, bias, blocks, x *float64, n, in int)
TEXT ·affineBlocks(SB), NOSPLIT, $0-48
	MOVQ dst+0(FP), DI
	MOVQ bias+8(FP), DX
	MOVQ blocks+16(FP), SI
	MOVQ x+24(FP), R8
	MOVQ n+32(FP), CX
	MOVQ in+40(FP), R9
	MOVQ R9, R10
	SHLQ $5, R10                 // bytes per block: four units of in weights
	LEAQ (R10)(R10*2), R11       // three blocks

quad:
	// Four blocks (sixteen units) per pass, each lane starting from its
	// bias and adding w*x input by input.
	CMPQ    CX, $4
	JLT     single
	VMOVUPD (DX), Y0
	VMOVUPD 32(DX), Y1
	VMOVUPD 64(DX), Y2
	VMOVUPD 96(DX), Y3
	MOVQ    R8, AX
	MOVQ    SI, R12
	MOVQ    R9, BX

quadinput:
	TESTQ        BX, BX
	JZ           quadstore
	VBROADCASTSD (AX), Y4
	VMULPD       (R12), Y4, Y5
	VMULPD       (R12)(R10*1), Y4, Y6
	VMULPD       (R12)(R10*2), Y4, Y8
	VMULPD       (R12)(R11*1), Y4, Y9
	VADDPD       Y5, Y0, Y0
	VADDPD       Y6, Y1, Y1
	VADDPD       Y8, Y2, Y2
	VADDPD       Y9, Y3, Y3
	ADDQ         $8, AX
	ADDQ         $32, R12
	DECQ         BX
	JMP          quadinput

quadstore:
	VMOVUPD Y0, (DI)
	VMOVUPD Y1, 32(DI)
	VMOVUPD Y2, 64(DI)
	VMOVUPD Y3, 96(DI)
	ADDQ    $128, DI
	ADDQ    $128, DX
	LEAQ    (SI)(R10*4), SI
	SUBQ    $4, CX
	JMP     quad

single:
	// The one to three blocks left, one per pass.
	TESTQ   CX, CX
	JZ      affinedone
	VMOVUPD (DX), Y0
	MOVQ    R8, AX
	MOVQ    SI, R12
	MOVQ    R9, BX

singleinput:
	TESTQ        BX, BX
	JZ           singlestore
	VBROADCASTSD (AX), Y4
	VMULPD       (R12), Y4, Y5
	VADDPD       Y5, Y0, Y0
	ADDQ         $8, AX
	ADDQ         $32, R12
	DECQ         BX
	JMP          singleinput

singlestore:
	VMOVUPD Y0, (DI)
	ADDQ    $32, DI
	ADDQ    $32, DX
	ADDQ    R10, SI
	DECQ    CX
	JMP     single

affinedone:
	VZEROUPPER
	RET
