//go:build amd64

#include "textflag.h"

// AVX kernels for the training hot loops: Dense backward, BatchNorm
// forward/backward, the ReLU family, and the loss reductions. Same
// bit-identity contract as dense_kernel_amd64.s: only VMULPD/VADDPD/
// VSUBPD/VDIVPD (and their scalar VEX forms for length tails) — one IEEE
// rounding per lane per operation, exactly what the Go twins in
// simd_kernel.go compute. VFMADD* must never appear here. The reductions
// (vdot/vsum/vmse) fold their four lanes as (acc0+acc2)+(acc1+acc3) via
// VEXTRACTF128/VADDPD/VUNPCKHPD/VADDSD, which is the DEFINITION the Go
// twins implement — golden tests in simd_test.go pin every routine.

DATA simdone<>+0(SB)/8, $0x3ff0000000000000 // 1.0
GLOBL simdone<>(SB), RODATA, $8

DATA simdtwo<>+0(SB)/8, $0x4000000000000000 // 2.0
GLOBL simdtwo<>(SB), RODATA, $8

// func vaddavx(dst, x *float64, n int)
// dst[i] += x[i]
TEXT ·vaddavx(SB), NOSPLIT, $0-24
	MOVQ dst+0(FP), DI
	MOVQ x+8(FP), SI
	MOVQ n+16(FP), CX

	MOVQ CX, DX
	SHRQ $2, DX
	JZ   addtail

addloop:
	VMOVUPD (SI), Y1
	VADDPD  (DI), Y1, Y1
	VMOVUPD Y1, (DI)
	ADDQ    $32, SI
	ADDQ    $32, DI
	DECQ    DX
	JNZ     addloop

addtail:
	ANDQ $3, CX
	JZ   adddone

addtailloop:
	VMOVSD (SI), X1
	VADDSD (DI), X1, X1
	VMOVSD X1, (DI)
	ADDQ   $8, SI
	ADDQ   $8, DI
	DECQ   CX
	JNZ    addtailloop

adddone:
	VZEROUPPER
	RET

// func vmuladdavx(dst, a, b *float64, n int)
// dst[i] += a[i]*b[i]
TEXT ·vmuladdavx(SB), NOSPLIT, $0-32
	MOVQ dst+0(FP), DI
	MOVQ a+8(FP), SI
	MOVQ b+16(FP), BX
	MOVQ n+24(FP), CX

	MOVQ CX, DX
	SHRQ $2, DX
	JZ   matail

maloop:
	VMOVUPD (SI), Y1
	VMULPD  (BX), Y1, Y2
	VADDPD  (DI), Y2, Y2
	VMOVUPD Y2, (DI)
	ADDQ    $32, SI
	ADDQ    $32, BX
	ADDQ    $32, DI
	DECQ    DX
	JNZ     maloop

matail:
	ANDQ $3, CX
	JZ   madone

matailloop:
	VMOVSD (SI), X1
	VMULSD (BX), X1, X2
	VADDSD (DI), X2, X2
	VMOVSD X2, (DI)
	ADDQ   $8, SI
	ADDQ   $8, BX
	ADDQ   $8, DI
	DECQ   CX
	JNZ    matailloop

madone:
	VZEROUPPER
	RET

// func vsqdiffavx(dst, x, m *float64, n int)
// dst[i] += (x[i]-m[i])^2
TEXT ·vsqdiffavx(SB), NOSPLIT, $0-32
	MOVQ dst+0(FP), DI
	MOVQ x+8(FP), SI
	MOVQ m+16(FP), BX
	MOVQ n+24(FP), CX

	MOVQ CX, DX
	SHRQ $2, DX
	JZ   sqtail

sqloop:
	VMOVUPD (SI), Y1
	VSUBPD  (BX), Y1, Y2
	VMULPD  Y2, Y2, Y3
	VADDPD  (DI), Y3, Y3
	VMOVUPD Y3, (DI)
	ADDQ    $32, SI
	ADDQ    $32, BX
	ADDQ    $32, DI
	DECQ    DX
	JNZ     sqloop

sqtail:
	ANDQ $3, CX
	JZ   sqdone

sqtailloop:
	VMOVSD (SI), X1
	VSUBSD (BX), X1, X2
	VMULSD X2, X2, X3
	VADDSD (DI), X3, X3
	VMOVSD X3, (DI)
	ADDQ   $8, SI
	ADDQ   $8, BX
	ADDQ   $8, DI
	DECQ   CX
	JNZ    sqtailloop

sqdone:
	VZEROUPPER
	RET

// func vdivsavx(x *float64, s float64, n int)
// x[i] /= s
TEXT ·vdivsavx(SB), NOSPLIT, $0-24
	MOVQ x+0(FP), DI
	MOVQ n+16(FP), CX

	VBROADCASTSD s+8(FP), Y0

	MOVQ CX, DX
	SHRQ $2, DX
	JZ   divtail

divloop:
	VMOVUPD (DI), Y1
	VDIVPD  Y0, Y1, Y1
	VMOVUPD Y1, (DI)
	ADDQ    $32, DI
	DECQ    DX
	JNZ     divloop

divtail:
	ANDQ $3, CX
	JZ   divdone

divtailloop:
	VMOVSD (DI), X1
	VDIVSD X0, X1, X1
	VMOVSD X1, (DI)
	ADDQ   $8, DI
	DECQ   CX
	JNZ    divtailloop

divdone:
	VZEROUPPER
	RET

// func vscaleavx(dst, x *float64, s float64, n int)
// dst[i] = s * x[i]
TEXT ·vscaleavx(SB), NOSPLIT, $0-32
	MOVQ dst+0(FP), DI
	MOVQ x+8(FP), SI
	MOVQ n+24(FP), CX

	VBROADCASTSD s+16(FP), Y0

	MOVQ CX, DX
	SHRQ $2, DX
	JZ   scaletail

scaleloop:
	VMOVUPD (SI), Y1
	VMULPD  Y0, Y1, Y1
	VMOVUPD Y1, (DI)
	ADDQ    $32, SI
	ADDQ    $32, DI
	DECQ    DX
	JNZ     scaleloop

scaletail:
	ANDQ $3, CX
	JZ   scaledone

scaletailloop:
	VMOVSD (SI), X1
	VMULSD X0, X1, X1
	VMOVSD X1, (DI)
	ADDQ   $8, SI
	ADDQ   $8, DI
	DECQ   CX
	JNZ    scaletailloop

scaledone:
	VZEROUPPER
	RET

// func vbnnormavx(xh, x, mean, std *float64, n int)
// xh[i] = (x[i]-mean[i]) / std[i]
TEXT ·vbnnormavx(SB), NOSPLIT, $0-40
	MOVQ xh+0(FP), DI
	MOVQ x+8(FP), SI
	MOVQ mean+16(FP), BX
	MOVQ std+24(FP), R8
	MOVQ n+32(FP), CX

	MOVQ CX, DX
	SHRQ $2, DX
	JZ   bnntail

bnnloop:
	VMOVUPD (SI), Y1
	VSUBPD  (BX), Y1, Y2
	VDIVPD  (R8), Y2, Y2
	VMOVUPD Y2, (DI)
	ADDQ    $32, SI
	ADDQ    $32, BX
	ADDQ    $32, R8
	ADDQ    $32, DI
	DECQ    DX
	JNZ     bnnloop

bnntail:
	ANDQ $3, CX
	JZ   bnndone

bnntailloop:
	VMOVSD (SI), X1
	VSUBSD (BX), X1, X2
	VDIVSD (R8), X2, X2
	VMOVSD X2, (DI)
	ADDQ   $8, SI
	ADDQ   $8, BX
	ADDQ   $8, R8
	ADDQ   $8, DI
	DECQ   CX
	JNZ    bnntailloop

bnndone:
	VZEROUPPER
	RET

// func vbnaffineavx(o, xh, gamma, beta *float64, n int)
// o[i] = gamma[i]*xh[i] + beta[i]
TEXT ·vbnaffineavx(SB), NOSPLIT, $0-40
	MOVQ o+0(FP), DI
	MOVQ xh+8(FP), SI
	MOVQ gamma+16(FP), BX
	MOVQ beta+24(FP), R8
	MOVQ n+32(FP), CX

	MOVQ CX, DX
	SHRQ $2, DX
	JZ   bnatail

bnaloop:
	VMOVUPD (SI), Y1
	VMULPD  (BX), Y1, Y2
	VADDPD  (R8), Y2, Y2
	VMOVUPD Y2, (DI)
	ADDQ    $32, SI
	ADDQ    $32, BX
	ADDQ    $32, R8
	ADDQ    $32, DI
	DECQ    DX
	JNZ     bnaloop

bnatail:
	ANDQ $3, CX
	JZ   bnadone

bnatailloop:
	VMOVSD (SI), X1
	VMULSD (BX), X1, X2
	VADDSD (R8), X2, X2
	VMOVSD X2, (DI)
	ADDQ   $8, SI
	ADDQ   $8, BX
	ADDQ   $8, R8
	ADDQ   $8, DI
	DECQ   CX
	JNZ    bnatailloop

bnadone:
	VZEROUPPER
	RET

// func vbnbackavx(gi, grad, xh, coef, sumG, sumGX *float64, nf float64, n int)
// gi[i] = coef[i] * (nf*g[i] - sumG[i] - xh[i]*sumGX[i])
TEXT ·vbnbackavx(SB), NOSPLIT, $0-64
	MOVQ gi+0(FP), DI
	MOVQ grad+8(FP), SI
	MOVQ xh+16(FP), BX
	MOVQ coef+24(FP), R8
	MOVQ sumG+32(FP), R9
	MOVQ sumGX+40(FP), R10
	MOVQ n+56(FP), CX

	VBROADCASTSD nf+48(FP), Y0

	MOVQ CX, DX
	SHRQ $2, DX
	JZ   bnbtail

bnbloop:
	VMOVUPD (SI), Y1
	VMULPD  Y0, Y1, Y2
	VSUBPD  (R9), Y2, Y2
	VMOVUPD (BX), Y3
	VMULPD  (R10), Y3, Y3
	VSUBPD  Y3, Y2, Y2
	VMULPD  (R8), Y2, Y2
	VMOVUPD Y2, (DI)
	ADDQ    $32, SI
	ADDQ    $32, BX
	ADDQ    $32, R8
	ADDQ    $32, R9
	ADDQ    $32, R10
	ADDQ    $32, DI
	DECQ    DX
	JNZ     bnbloop

bnbtail:
	ANDQ $3, CX
	JZ   bnbdone

bnbtailloop:
	VMOVSD (SI), X1
	VMULSD X0, X1, X2
	VSUBSD (R9), X2, X2
	VMOVSD (BX), X3
	VMULSD (R10), X3, X3
	VSUBSD X3, X2, X2
	VMULSD (R8), X2, X2
	VMOVSD X2, (DI)
	ADDQ   $8, SI
	ADDQ   $8, BX
	ADDQ   $8, R8
	ADDQ   $8, R9
	ADDQ   $8, R10
	ADDQ   $8, DI
	DECQ   CX
	JNZ    bnbtailloop

bnbdone:
	VZEROUPPER
	RET

// func vreluavx(dst, x *float64, n int)
// dst[i] = MAXPD(+0, x[i]): 0 for negatives, x for -0/NaN/non-negatives —
// exactly the scalar `if x < 0 { 0 } else { x }`.
TEXT ·vreluavx(SB), NOSPLIT, $0-24
	MOVQ dst+0(FP), DI
	MOVQ x+8(FP), SI
	MOVQ n+16(FP), CX

	VXORPD Y0, Y0, Y0

	MOVQ CX, DX
	SHRQ $2, DX
	JZ   relutail

reluloop:
	VMOVUPD (SI), Y1
	VMAXPD  Y1, Y0, Y2
	VMOVUPD Y2, (DI)
	ADDQ    $32, SI
	ADDQ    $32, DI
	DECQ    DX
	JNZ     reluloop

relutail:
	ANDQ $3, CX
	JZ   reludone

relutailloop:
	VMOVSD (SI), X1
	VMAXSD X1, X0, X2
	VMOVSD X2, (DI)
	ADDQ   $8, SI
	ADDQ   $8, DI
	DECQ   CX
	JNZ    relutailloop

reludone:
	VZEROUPPER
	RET

// func vlreluavx(dst, x *float64, alpha float64, n int)
// dst[i] = x[i] < 0 ? alpha*x[i] : x[i]
TEXT ·vlreluavx(SB), NOSPLIT, $0-32
	MOVQ dst+0(FP), DI
	MOVQ x+8(FP), SI
	MOVQ n+24(FP), CX

	VBROADCASTSD alpha+16(FP), Y0
	VXORPD       Y2, Y2, Y2

	MOVQ CX, DX
	SHRQ $2, DX
	JZ   lrtail

lrloop:
	VMOVUPD   (SI), Y1
	VCMPPD    $0x11, Y2, Y1, Y3
	VMULPD    Y0, Y1, Y4
	VBLENDVPD Y3, Y4, Y1, Y5
	VMOVUPD   Y5, (DI)
	ADDQ      $32, SI
	ADDQ      $32, DI
	DECQ      DX
	JNZ       lrloop

lrtail:
	ANDQ $3, CX
	JZ   lrdone

lrtailloop:
	VMOVSD    (SI), X1
	VCMPSD    $0x11, X2, X1, X3
	VMULSD    X0, X1, X4
	VBLENDVPD X3, X4, X1, X5
	VMOVSD    X5, (DI)
	ADDQ      $8, SI
	ADDQ      $8, DI
	DECQ      CX
	JNZ       lrtailloop

lrdone:
	VZEROUPPER
	RET

// func vlrelubwdavx(gi, grad, x *float64, alpha float64, n int)
// gi[i] = g[i] * (x[i] < 0 ? alpha : 1); alpha=0 is the ReLU backward.
TEXT ·vlrelubwdavx(SB), NOSPLIT, $0-40
	MOVQ gi+0(FP), DI
	MOVQ grad+8(FP), SI
	MOVQ x+16(FP), BX
	MOVQ n+32(FP), CX

	VBROADCASTSD alpha+24(FP), Y0
	VBROADCASTSD simdone<>(SB), Y1
	VXORPD       Y4, Y4, Y4

	MOVQ CX, DX
	SHRQ $2, DX
	JZ   lbtail

lbloop:
	VMOVUPD   (BX), Y2
	VCMPPD    $0x11, Y4, Y2, Y5
	VBLENDVPD Y5, Y0, Y1, Y6
	VMOVUPD   (SI), Y7
	VMULPD    Y6, Y7, Y7
	VMOVUPD   Y7, (DI)
	ADDQ      $32, SI
	ADDQ      $32, BX
	ADDQ      $32, DI
	DECQ      DX
	JNZ       lbloop

lbtail:
	ANDQ $3, CX
	JZ   lbdone

lbtailloop:
	VMOVSD    (BX), X2
	VCMPSD    $0x11, X4, X2, X5
	VBLENDVPD X5, X0, X1, X6
	VMOVSD    (SI), X7
	VMULSD    X6, X7, X7
	VMOVSD    X7, (DI)
	ADDQ      $8, SI
	ADDQ      $8, BX
	ADDQ      $8, DI
	DECQ      CX
	JNZ       lbtailloop

lbdone:
	VZEROUPPER
	RET

// func vdotavx(a, b *float64, n int) float64
// 4-lane dot: lane k sums elements i = k (mod 4); fold (l0+l2)+(l1+l3);
// sequential scalar tail.
TEXT ·vdotavx(SB), NOSPLIT, $0-32
	MOVQ a+0(FP), SI
	MOVQ b+8(FP), BX
	MOVQ n+16(FP), CX

	// Four independent accumulators (lanes 0-3, 4-7, 8-11, 12-15) so the
	// VADDPD chains overlap instead of serializing on one register.
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3

	MOVQ CX, DX
	SHRQ $4, DX
	JZ   dotfold

dotloop:
	VMOVUPD (SI), Y4
	VMULPD  (BX), Y4, Y4
	VADDPD  Y4, Y0, Y0
	VMOVUPD 32(SI), Y5
	VMULPD  32(BX), Y5, Y5
	VADDPD  Y5, Y1, Y1
	VMOVUPD 64(SI), Y4
	VMULPD  64(BX), Y4, Y4
	VADDPD  Y4, Y2, Y2
	VMOVUPD 96(SI), Y5
	VMULPD  96(BX), Y5, Y5
	VADDPD  Y5, Y3, Y3
	ADDQ    $128, SI
	ADDQ    $128, BX
	DECQ    DX
	JNZ     dotloop

dotfold:
	// f[k] = (l[k]+l[k+8]) + (l[k+4]+l[k+12]), then the 4-lane horizontal
	// fold (f0+f2) + (f1+f3) — matching vdotGo exactly.
	VADDPD Y2, Y0, Y0
	VADDPD Y3, Y1, Y1
	VADDPD Y1, Y0, Y0

	VEXTRACTF128 $1, Y0, X1
	VADDPD       X1, X0, X0
	VUNPCKHPD    X0, X0, X2
	VADDSD       X2, X0, X0

	ANDQ $15, CX
	JZ   dotdone

dottailloop:
	VMOVSD (SI), X1
	VMULSD (BX), X1, X1
	VADDSD X1, X0, X0
	ADDQ   $8, SI
	ADDQ   $8, BX
	DECQ   CX
	JNZ    dottailloop

dotdone:
	VMOVSD X0, ret+24(FP)
	VZEROUPPER
	RET

// func vsumavx(x *float64, n int) float64
// 4-lane sum with the same fold and tail order as vdotavx.
TEXT ·vsumavx(SB), NOSPLIT, $0-24
	MOVQ x+0(FP), SI
	MOVQ n+8(FP), CX

	VXORPD Y0, Y0, Y0

	MOVQ CX, DX
	SHRQ $2, DX
	JZ   sumfold

sumloop:
	VADDPD (SI), Y0, Y0
	ADDQ   $32, SI
	DECQ   DX
	JNZ    sumloop

sumfold:
	VEXTRACTF128 $1, Y0, X1
	VADDPD       X1, X0, X0
	VUNPCKHPD    X0, X0, X2
	VADDSD       X2, X0, X0

	ANDQ $3, CX
	JZ   sumdone

sumtailloop:
	VADDSD (SI), X0, X0
	ADDQ   $8, SI
	DECQ   CX
	JNZ    sumtailloop

sumdone:
	VMOVSD X0, ret+16(FP)
	VZEROUPPER
	RET

// func vmseavx(grad, pred, target *float64, n int) float64
// grad[i] = 2*(pred[i]-target[i]); returns the 4-lane sum of squared
// differences (unnormalized).
TEXT ·vmseavx(SB), NOSPLIT, $0-40
	MOVQ grad+0(FP), DI
	MOVQ pred+8(FP), SI
	MOVQ target+16(FP), BX
	MOVQ n+24(FP), CX

	VXORPD       Y0, Y0, Y0
	VBROADCASTSD simdtwo<>(SB), Y1

	MOVQ CX, DX
	SHRQ $2, DX
	JZ   msefold

mseloop:
	VMOVUPD (SI), Y2
	VSUBPD  (BX), Y2, Y2
	VMULPD  Y1, Y2, Y3
	VMOVUPD Y3, (DI)
	VMULPD  Y2, Y2, Y4
	VADDPD  Y4, Y0, Y0
	ADDQ    $32, SI
	ADDQ    $32, BX
	ADDQ    $32, DI
	DECQ    DX
	JNZ     mseloop

msefold:
	VEXTRACTF128 $1, Y0, X5
	VADDPD       X5, X0, X0
	VUNPCKHPD    X0, X0, X6
	VADDSD       X6, X0, X0

	ANDQ $3, CX
	JZ   msedone

msetailloop:
	VMOVSD (SI), X2
	VSUBSD (BX), X2, X2
	VMULSD X1, X2, X3
	VMOVSD X3, (DI)
	VMULSD X2, X2, X4
	VADDSD X4, X0, X0
	ADDQ   $8, SI
	ADDQ   $8, BX
	ADDQ   $8, DI
	DECQ   CX
	JNZ    msetailloop

msedone:
	VMOVSD X0, ret+32(FP)
	VZEROUPPER
	RET

// func adamavx(data, grad, m, v *float64, k *adamCoef, n int)
//
// One Adam update in the scalar loop's evaluation order (see vadamGo):
// g (+ wd·data when decay is on), m = b1·m + c1·g, v = b2·v + (c2·g)·g,
// data -= (lr·(m/bc1)) / (sqrt(v/bc2) + eps), grad = 0. VDIVPD and
// VSQRTPD are correctly rounded, so every lane matches DIVSD/SQRTSD.
TEXT ·adamavx(SB), NOSPLIT, $0-48
	MOVQ data+0(FP), DI
	MOVQ grad+8(FP), SI
	MOVQ m+16(FP), R8
	MOVQ v+24(FP), R9
	MOVQ k+32(FP), AX
	MOVQ n+40(FP), CX

	VBROADCASTSD 0(AX), Y7   // b1
	VBROADCASTSD 8(AX), Y8   // c1 = 1-b1
	VBROADCASTSD 16(AX), Y9  // b2
	VBROADCASTSD 24(AX), Y10 // c2 = 1-b2
	VBROADCASTSD 32(AX), Y11 // bc1
	VBROADCASTSD 40(AX), Y12 // bc2
	VBROADCASTSD 48(AX), Y13 // lr
	VBROADCASTSD 56(AX), Y14 // eps
	VBROADCASTSD 64(AX), Y15 // wd
	MOVQ         72(AX), BX  // decay flag
	VXORPD       Y6, Y6, Y6

	MOVQ CX, DX
	SHRQ $2, DX
	JZ   adamtail

adamloop:
	VMOVUPD (SI), Y0
	TESTQ   BX, BX
	JZ      adamnodecay
	VMULPD  (DI), Y15, Y1
	VADDPD  Y1, Y0, Y0

adamnodecay:
	VMULPD  (R8), Y7, Y1
	VMULPD  Y0, Y8, Y2
	VADDPD  Y2, Y1, Y1
	VMOVUPD Y1, (R8)
	VMULPD  (R9), Y9, Y3
	VMULPD  Y0, Y10, Y4
	VMULPD  Y0, Y4, Y4
	VADDPD  Y4, Y3, Y3
	VMOVUPD Y3, (R9)
	VDIVPD  Y11, Y1, Y1
	VDIVPD  Y12, Y3, Y3
	VSQRTPD Y3, Y3
	VADDPD  Y14, Y3, Y3
	VMULPD  Y1, Y13, Y1
	VDIVPD  Y3, Y1, Y1
	VMOVUPD (DI), Y5
	VSUBPD  Y1, Y5, Y5
	VMOVUPD Y5, (DI)
	VMOVUPD Y6, (SI)
	ADDQ    $32, DI
	ADDQ    $32, SI
	ADDQ    $32, R8
	ADDQ    $32, R9
	DECQ    DX
	JNZ     adamloop

adamtail:
	ANDQ $3, CX
	JZ   adamdone

adamtailloop:
	VMOVSD (SI), X0
	TESTQ  BX, BX
	JZ     adamtailnodecay
	VMULSD (DI), X15, X1
	VADDSD X1, X0, X0

adamtailnodecay:
	VMULSD  (R8), X7, X1
	VMULSD  X0, X8, X2
	VADDSD  X2, X1, X1
	VMOVSD  X1, (R8)
	VMULSD  (R9), X9, X3
	VMULSD  X0, X10, X4
	VMULSD  X0, X4, X4
	VADDSD  X4, X3, X3
	VMOVSD  X3, (R9)
	VDIVSD  X11, X1, X1
	VDIVSD  X12, X3, X3
	VSQRTSD X3, X3, X3
	VADDSD  X14, X3, X3
	VMULSD  X1, X13, X1
	VDIVSD  X3, X1, X1
	VMOVSD  (DI), X5
	VSUBSD  X1, X5, X5
	VMOVSD  X5, (DI)
	VMOVSD  X6, (SI)
	ADDQ    $8, DI
	ADDQ    $8, SI
	ADDQ    $8, R8
	ADDQ    $8, R9
	DECQ    CX
	JNZ     adamtailloop

adamdone:
	VZEROUPPER
	RET
