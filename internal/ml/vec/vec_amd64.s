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
	LEAQ (R10)(R10*4), R13       // five blocks
	LEAQ (R11)(R11*1), R14       // six blocks
	LEAQ (R13)(R10*2), R15       // seven blocks

oct:
	// Eight blocks (thirty-two units) per pass: eight independent sums
	// in flight hide the add latency. Each lane starts from its bias and
	// adds w*x input by input.
	CMPQ    CX, $8
	JLT     quad
	VMOVUPD (DX), Y0
	VMOVUPD 32(DX), Y1
	VMOVUPD 64(DX), Y2
	VMOVUPD 96(DX), Y3
	VMOVUPD 128(DX), Y4
	VMOVUPD 160(DX), Y5
	VMOVUPD 192(DX), Y6
	VMOVUPD 224(DX), Y7
	MOVQ    R8, AX
	MOVQ    SI, R12
	MOVQ    R9, BX

octinput:
	VBROADCASTSD (AX), Y8
	VMULPD       (R12), Y8, Y9
	VMULPD       (R12)(R10*1), Y8, Y10
	VMULPD       (R12)(R10*2), Y8, Y11
	VMULPD       (R12)(R11*1), Y8, Y12
	VADDPD       Y9, Y0, Y0
	VADDPD       Y10, Y1, Y1
	VADDPD       Y11, Y2, Y2
	VADDPD       Y12, Y3, Y3
	VMULPD       (R12)(R10*4), Y8, Y9
	VMULPD       (R12)(R13*1), Y8, Y10
	VMULPD       (R12)(R14*1), Y8, Y11
	VMULPD       (R12)(R15*1), Y8, Y12
	VADDPD       Y9, Y4, Y4
	VADDPD       Y10, Y5, Y5
	VADDPD       Y11, Y6, Y6
	VADDPD       Y12, Y7, Y7
	ADDQ         $8, AX
	ADDQ         $32, R12
	DECQ         BX
	JNZ          octinput

	VMOVUPD Y0, (DI)
	VMOVUPD Y1, 32(DI)
	VMOVUPD Y2, 64(DI)
	VMOVUPD Y3, 96(DI)
	VMOVUPD Y4, 128(DI)
	VMOVUPD Y5, 160(DI)
	VMOVUPD Y6, 192(DI)
	VMOVUPD Y7, 224(DI)
	ADDQ    $256, DI
	ADDQ    $256, DX
	LEAQ    (SI)(R10*8), SI
	SUBQ    $8, CX
	JMP     oct

quad:
	// Four blocks (sixteen units) per pass.
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
	JNZ          quadinput

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
	VBROADCASTSD (AX), Y4
	VMULPD       (R12), Y4, Y5
	VADDPD       Y5, Y0, Y0
	ADDQ         $8, AX
	ADDQ         $32, R12
	DECQ         BX
	JNZ          singleinput

	VMOVUPD Y0, (DI)
	ADDQ    $32, DI
	ADDQ    $32, DX
	ADDQ    R10, SI
	DECQ    CX
	JMP     single

affinedone:
	VZEROUPPER
	RET

// func addOuter(gw, gb, delta, x *float64, out, in int)
//
// Units go in chunks of up to 64. A first pass lists the chunk's units
// whose delta is not zero (a NaN is not zero: the compare is unordered)
// in the frame, without a branch: the ReLU zeroes deltas at random, so
// a branch per unit would be mispredicted about half the time. A second
// pass updates the listed units.
TEXT ·addOuter(SB), NOSPLIT, $256-48
	MOVQ   gw+0(FP), DI
	MOVQ   gb+8(FP), DX
	MOVQ   delta+16(FP), SI
	MOVQ   x+24(FP), R8
	MOVQ   out+32(FP), CX
	MOVQ   in+40(FP), R9
	MOVQ   R9, R10
	SHLQ   $3, R10                // bytes per gradient row
	VXORPD X7, X7, X7
	XORQ   R13, R13               // the chunk's first unit

chunk:
	TESTQ CX, CX
	JZ    outerdone
	MOVQ  CX, R14                 // the chunk's units
	CMPQ  R14, $64
	JLE   list
	MOVQ  $64, R14

list:
	XORQ R12, R12                 // units listed
	XORQ BX, BX

listunit:
	LEAQ     (R13)(BX*1), AX
	MOVL     AX, (SP)(R12*4)
	VMOVSD   (SI)(AX*8), X0
	VUCOMISD X7, X0
	SETNE    R11B
	SETPS    R15B
	ORB      R15B, R11B
	MOVBQZX  R11B, R11
	ADDQ     R11, R12
	INCQ     BX
	CMPQ     BX, R14
	JLT      listunit
	XORQ     BX, BX

unit:
	CMPQ         BX, R12
	JGE          chunkdone
	MOVL         (SP)(BX*4), AX
	VMOVSD       (SI)(AX*8), X0
	VADDSD       (DX)(AX*8), X0, X1 // gb[o] + d, as gb[o] += d
	VMOVSD       X1, (DX)(AX*8)
	VBROADCASTSD X0, Y0
	MOVQ         AX, R11
	IMULQ        R10, R11
	ADDQ         DI, R11
	MOVQ         R8, AX
	MOVQ         R9, R15

sixteenx:
	// Sixteen inputs per step: row[i] + d*x[i], the product rounded
	// first.
	CMPQ    R15, $16
	JLT     fourx
	VMULPD  (AX), Y0, Y1
	VMULPD  32(AX), Y0, Y2
	VMULPD  64(AX), Y0, Y3
	VMULPD  96(AX), Y0, Y4
	VADDPD  (R11), Y1, Y1
	VADDPD  32(R11), Y2, Y2
	VADDPD  64(R11), Y3, Y3
	VADDPD  96(R11), Y4, Y4
	VMOVUPD Y1, (R11)
	VMOVUPD Y2, 32(R11)
	VMOVUPD Y3, 64(R11)
	VMOVUPD Y4, 96(R11)
	ADDQ    $128, AX
	ADDQ    $128, R11
	SUBQ    $16, R15
	JMP     sixteenx

fourx:
	CMPQ    R15, $4
	JLT     onex
	VMULPD  (AX), Y0, Y1
	VADDPD  (R11), Y1, Y1
	VMOVUPD Y1, (R11)
	ADDQ    $32, AX
	ADDQ    $32, R11
	SUBQ    $4, R15
	JMP     fourx

onex:
	TESTQ  R15, R15
	JZ     nextunit
	VMULSD (AX), X0, X1
	VADDSD (R11), X1, X1
	VMOVSD X1, (R11)
	ADDQ   $8, AX
	ADDQ   $8, R11
	DECQ   R15
	JMP    onex

nextunit:
	INCQ BX
	JMP  unit

chunkdone:
	ADDQ R14, R13
	SUBQ R14, CX
	JMP  chunk

outerdone:
	VZEROUPPER
	RET

// AdamStep field offsets.
#define ADAM_INV 0
#define ADAM_L2 8
#define ADAM_BETA1 16
#define ADAM_BETA2 24
#define ADAM_OMB1 32
#define ADAM_OMB2 40
#define ADAM_LR 48
#define ADAM_BC1 56
#define ADAM_BC2 64
#define ADAM_EPS 72
#define ADAM_DECAY 80

// func adamStep(p, m, v, grad *float64, n int, s *AdamStep)
TEXT ·adamStep(SB), NOSPLIT, $0-48
	MOVQ         p+0(FP), DI
	MOVQ         m+8(FP), SI
	MOVQ         v+16(FP), DX
	MOVQ         grad+24(FP), R8
	MOVQ         n+32(FP), CX
	MOVQ         s+40(FP), AX
	VBROADCASTSD ADAM_INV(AX), Y6
	VBROADCASTSD ADAM_L2(AX), Y7
	VBROADCASTSD ADAM_BETA1(AX), Y8
	VBROADCASTSD ADAM_BETA2(AX), Y9
	VBROADCASTSD ADAM_OMB1(AX), Y10
	VBROADCASTSD ADAM_OMB2(AX), Y11
	VBROADCASTSD ADAM_LR(AX), Y12
	VBROADCASTSD ADAM_BC1(AX), Y13
	VBROADCASTSD ADAM_BC2(AX), Y14
	VBROADCASTSD ADAM_EPS(AX), Y15
	MOVBQZX      ADAM_DECAY(AX), R9

adamquad:
	CMPQ    CX, $4
	JLT     adamone
	VMULPD  (R8), Y6, Y0          // g = g*inv
	TESTQ   R9, R9
	JZ      quadmoments
	VMULPD  (DI), Y7, Y1          // g = g + l2*p
	VADDPD  Y1, Y0, Y0

quadmoments:
	VMULPD  (SI), Y8, Y1          // m = beta1*m + (1-beta1)*g
	VMULPD  Y0, Y10, Y2
	VADDPD  Y2, Y1, Y1
	VMOVUPD Y1, (SI)
	VMULPD  (DX), Y9, Y3          // v = beta2*v + (1-beta2)*g*g
	VMULPD  Y0, Y11, Y2
	VMULPD  Y0, Y2, Y2
	VADDPD  Y2, Y3, Y3
	VMOVUPD Y3, (DX)
	VDIVPD  Y13, Y1, Y1           // lr*(m/bc1)
	VMULPD  Y1, Y12, Y1
	VDIVPD  Y14, Y3, Y3           // sqrt(v/bc2) + eps
	VSQRTPD Y3, Y3
	VADDPD  Y15, Y3, Y3
	VDIVPD  Y3, Y1, Y1            // p = p - lr*(m/bc1) / (sqrt(v/bc2) + eps)
	VMOVUPD (DI), Y2
	VSUBPD  Y1, Y2, Y2
	VMOVUPD Y2, (DI)
	ADDQ    $32, DI
	ADDQ    $32, SI
	ADDQ    $32, DX
	ADDQ    $32, R8
	SUBQ    $4, CX
	JMP     adamquad

adamone:
	// The same operations on the last one to three parameters.
	TESTQ   CX, CX
	JZ      adamdone
	VMULSD  (R8), X6, X0
	TESTQ   R9, R9
	JZ      onemoments
	VMULSD  (DI), X7, X1
	VADDSD  X1, X0, X0

onemoments:
	VMULSD  (SI), X8, X1
	VMULSD  X0, X10, X2
	VADDSD  X2, X1, X1
	VMOVSD  X1, (SI)
	VMULSD  (DX), X9, X3
	VMULSD  X0, X11, X2
	VMULSD  X0, X2, X2
	VADDSD  X2, X3, X3
	VMOVSD  X3, (DX)
	VDIVSD  X13, X1, X1
	VMULSD  X1, X12, X1
	VDIVSD  X14, X3, X3
	VSQRTSD X3, X3, X3
	VADDSD  X15, X3, X3
	VDIVSD  X3, X1, X1
	VMOVSD  (DI), X2
	VSUBSD  X1, X2, X2
	VMOVSD  X2, (DI)
	ADDQ    $8, DI
	ADDQ    $8, SI
	ADDQ    $8, DX
	ADDQ    $8, R8
	DECQ    CX
	JMP     adamone

adamdone:
	VZEROUPPER
	RET
