//go:build amd64

#include "textflag.h"

// AVX kernels for the Dense products. Bit-identity contract:
// only VMULPD/VADDPD and their VEX scalar forms are used — each lane is a
// single IEEE-rounded multiply followed by a single IEEE-rounded add,
// exactly what the portable Go kernels compute. VFMADD* must never be
// used here: fusing the multiply-add skips the intermediate rounding and
// would break the Infer == ForwardT golden tests.

// func cpuHasAVX() bool
TEXT ·cpuHasAVX(SB), NOSPLIT, $0-1
	MOVL $1, AX
	CPUID
	// AVX needs the CPU flags (ECX bit 28) and OSXSAVE (ECX bit 27).
	MOVL CX, BX
	ANDL $(1<<27 | 1<<28), BX
	CMPL BX, $(1<<27 | 1<<28)
	JNE  noavx
	// XGETBV: the OS must save both XMM (bit 1) and YMM (bit 2) state.
	XORL CX, CX
	XGETBV
	ANDL $6, AX
	CMPL AX, $6
	JNE  noavx
	MOVB $1, ret+0(FP)
	RET

noavx:
	MOVB $0, ret+0(FP)
	RET

// func axpy1avx(v float64, w, o *float64, n int)
//
// o[k] += v * w[k] for k in 0..n-1.
TEXT ·axpy1avx(SB), NOSPLIT, $0-32
	MOVQ w+8(FP), SI
	MOVQ o+16(FP), R8
	MOVQ n+24(FP), CX

	VBROADCASTSD v+0(FP), Y0

	MOVQ CX, DX
	SHRQ $3, DX
	JZ   tail1

loop1:
	VMOVUPD (SI), Y4
	VMULPD  Y4, Y0, Y5
	VADDPD  (R8), Y5, Y5
	VMOVUPD Y5, (R8)
	VMOVUPD 32(SI), Y6
	VMULPD  Y6, Y0, Y7
	VADDPD  32(R8), Y7, Y7
	VMOVUPD Y7, 32(R8)
	ADDQ    $64, SI
	ADDQ    $64, R8
	DECQ    DX
	JNZ     loop1

tail1:
	ANDQ $7, CX
	JZ   done1

tailloop1:
	VMOVSD (SI), X4
	VMULSD X4, X0, X5
	VADDSD (R8), X5, X5
	VMOVSD X5, (R8)
	ADDQ   $8, SI
	ADDQ   $8, R8
	DECQ   CX
	JNZ    tailloop1

done1:
	VZEROUPPER
	RET

// func gemmaccavx(c *float64, ldc int, a *float64, ars, ats int, b *float64, ldb, m, n, k int) bool
//
// The register-blocked tile kernel behind every Dense product (and the
// TNet feature gate): C[r][j] += Σ_t A(r,t)·B[t][j] for r < m, j < n,
// t ascending, where A(r,t) = a[r*ars + t*ats]. Strides are in elements.
// Each output element keeps the order of an axpy sweep — its terms are
// added in t order, each as one rounded VMULPD (broadcast A first) and one
// rounded VADDPD (product first) — while a tile of rows × columns stays in
// registers for the whole reduction. Tiles: 4 rows × 8 columns, then a
// 4-column block and single columns for the column tail; leftover rows
// (m mod 4) run as single rows of 16, 4 and 1 columns. Returns whether
// any stored C element is NaN (the callers' zero-skip exactness check).
TEXT ·gemmaccavx(SB), NOSPLIT, $0-81
	MOVQ c+0(FP), DI
	MOVQ ldc+8(FP), R8
	SHLQ $3, R8
	LEAQ (R8)(R8*2), R13
	MOVQ a+16(FP), SI
	MOVQ ars+24(FP), R9
	SHLQ $3, R9
	LEAQ (R9)(R9*2), R10
	MOVQ ats+32(FP), R11
	SHLQ $3, R11
	MOVQ ldb+48(FP), R12
	SHLQ $3, R12
	VXORPD Y15, Y15, Y15 // NaN flag lanes

g4rows:
	MOVQ m+56(FP), AX
	CMPQ AX, $4
	JLT  g1rows
	XORQ BX, BX // column byte offset

g4c8:
	MOVQ n+64(FP), AX
	SHLQ $3, AX
	SUBQ BX, AX // remaining column bytes
	CMPQ AX, $64
	JLT  g4c4
	LEAQ (DI)(BX*1), AX
	VMOVUPD (AX), Y0
	VMOVUPD 32(AX), Y1
	VMOVUPD (AX)(R8*1), Y2
	VMOVUPD 32(AX)(R8*1), Y3
	VMOVUPD (AX)(R8*2), Y4
	VMOVUPD 32(AX)(R8*2), Y5
	VMOVUPD (AX)(R13*1), Y6
	VMOVUPD 32(AX)(R13*1), Y7
	MOVQ SI, AX
	MOVQ b+40(FP), CX
	ADDQ BX, CX
	MOVQ k+72(FP), DX
	TESTQ DX, DX
	JZ   g4c8store

g4c8loop:
	PREFETCHT0   (CX)(R12*8)
	VMOVUPD      (CX), Y8
	VMOVUPD      32(CX), Y9
	VBROADCASTSD (AX), Y10
	VMULPD       Y8, Y10, Y11
	VADDPD       Y0, Y11, Y0
	VMULPD       Y9, Y10, Y12
	VADDPD       Y1, Y12, Y1
	VBROADCASTSD (AX)(R9*1), Y10
	VMULPD       Y8, Y10, Y11
	VADDPD       Y2, Y11, Y2
	VMULPD       Y9, Y10, Y12
	VADDPD       Y3, Y12, Y3
	VBROADCASTSD (AX)(R9*2), Y10
	VMULPD       Y8, Y10, Y11
	VADDPD       Y4, Y11, Y4
	VMULPD       Y9, Y10, Y12
	VADDPD       Y5, Y12, Y5
	VBROADCASTSD (AX)(R10*1), Y10
	VMULPD       Y8, Y10, Y11
	VADDPD       Y6, Y11, Y6
	VMULPD       Y9, Y10, Y12
	VADDPD       Y7, Y12, Y7
	ADDQ         R11, AX
	ADDQ         R12, CX
	DECQ         DX
	JNZ          g4c8loop

g4c8store:
	LEAQ    (DI)(BX*1), AX
	VMOVUPD Y0, (AX)
	VMOVUPD Y1, 32(AX)
	VMOVUPD Y2, (AX)(R8*1)
	VMOVUPD Y3, 32(AX)(R8*1)
	VMOVUPD Y4, (AX)(R8*2)
	VMOVUPD Y5, 32(AX)(R8*2)
	VMOVUPD Y6, (AX)(R13*1)
	VMOVUPD Y7, 32(AX)(R13*1)
	VCMPPD  $3, Y1, Y0, Y12
	VCMPPD  $3, Y3, Y2, Y13
	VORPD   Y13, Y12, Y12
	VCMPPD  $3, Y5, Y4, Y13
	VORPD   Y13, Y12, Y12
	VCMPPD  $3, Y7, Y6, Y13
	VORPD   Y13, Y12, Y12
	VORPD   Y12, Y15, Y15
	ADDQ    $64, BX
	JMP     g4c8

g4c4:
	CMPQ AX, $32
	JLT  g4c1
	LEAQ (DI)(BX*1), AX
	VMOVUPD (AX), Y0
	VMOVUPD (AX)(R8*1), Y1
	VMOVUPD (AX)(R8*2), Y2
	VMOVUPD (AX)(R13*1), Y3
	MOVQ SI, AX
	MOVQ b+40(FP), CX
	ADDQ BX, CX
	MOVQ k+72(FP), DX
	TESTQ DX, DX
	JZ   g4c4store

g4c4loop:
	VMOVUPD      (CX), Y8
	VBROADCASTSD (AX), Y10
	VMULPD       Y8, Y10, Y11
	VADDPD       Y0, Y11, Y0
	VBROADCASTSD (AX)(R9*1), Y10
	VMULPD       Y8, Y10, Y12
	VADDPD       Y1, Y12, Y1
	VBROADCASTSD (AX)(R9*2), Y10
	VMULPD       Y8, Y10, Y11
	VADDPD       Y2, Y11, Y2
	VBROADCASTSD (AX)(R10*1), Y10
	VMULPD       Y8, Y10, Y12
	VADDPD       Y3, Y12, Y3
	ADDQ         R11, AX
	ADDQ         R12, CX
	DECQ         DX
	JNZ          g4c4loop

g4c4store:
	LEAQ    (DI)(BX*1), AX
	VMOVUPD Y0, (AX)
	VMOVUPD Y1, (AX)(R8*1)
	VMOVUPD Y2, (AX)(R8*2)
	VMOVUPD Y3, (AX)(R13*1)
	VCMPPD  $3, Y1, Y0, Y12
	VCMPPD  $3, Y3, Y2, Y13
	VORPD   Y13, Y12, Y12
	VORPD   Y12, Y15, Y15
	ADDQ    $32, BX

g4c1:
	MOVQ n+64(FP), AX
	SHLQ $3, AX
	SUBQ BX, AX
	JZ   g4next
	LEAQ (DI)(BX*1), AX
	VMOVSD (AX), X0
	VMOVSD (AX)(R8*1), X1
	VMOVSD (AX)(R8*2), X2
	VMOVSD (AX)(R13*1), X3
	MOVQ SI, AX
	MOVQ b+40(FP), CX
	ADDQ BX, CX
	MOVQ k+72(FP), DX
	TESTQ DX, DX
	JZ   g4c1store

g4c1loop:
	VMOVSD (CX), X8
	VMOVSD (AX), X10
	VMULSD X8, X10, X11
	VADDSD X0, X11, X0
	VMOVSD (AX)(R9*1), X10
	VMULSD X8, X10, X12
	VADDSD X1, X12, X1
	VMOVSD (AX)(R9*2), X10
	VMULSD X8, X10, X11
	VADDSD X2, X11, X2
	VMOVSD (AX)(R10*1), X10
	VMULSD X8, X10, X12
	VADDSD X3, X12, X3
	ADDQ   R11, AX
	ADDQ   R12, CX
	DECQ   DX
	JNZ    g4c1loop

g4c1store:
	LEAQ   (DI)(BX*1), AX
	VMOVSD X0, (AX)
	VMOVSD X1, (AX)(R8*1)
	VMOVSD X2, (AX)(R8*2)
	VMOVSD X3, (AX)(R13*1)
	VCMPPD $3, X1, X0, X12
	VCMPPD $3, X3, X2, X13
	VORPD  X13, X12, X12
	VORPD  Y12, Y15, Y15
	ADDQ   $8, BX
	JMP    g4c1

g4next:
	LEAQ (DI)(R8*4), DI
	LEAQ (SI)(R9*4), SI
	SUBQ $4, m+56(FP)
	JMP  g4rows

g1rows:
	MOVQ  m+56(FP), AX
	TESTQ AX, AX
	JZ    gdone
	XORQ  BX, BX

g1c16:
	MOVQ n+64(FP), AX
	SHLQ $3, AX
	SUBQ BX, AX
	CMPQ AX, $128
	JLT  g1c4
	LEAQ (DI)(BX*1), AX
	VMOVUPD (AX), Y0
	VMOVUPD 32(AX), Y1
	VMOVUPD 64(AX), Y2
	VMOVUPD 96(AX), Y3
	MOVQ SI, AX
	MOVQ b+40(FP), CX
	ADDQ BX, CX
	MOVQ k+72(FP), DX
	TESTQ DX, DX
	JZ   g1c16store

g1c16loop:
	PREFETCHT0   (CX)(R12*8)
	PREFETCHT0   64(CX)(R12*8)
	VBROADCASTSD (AX), Y10
	VMULPD       (CX), Y10, Y11
	VADDPD       Y0, Y11, Y0
	VMULPD       32(CX), Y10, Y12
	VADDPD       Y1, Y12, Y1
	VMULPD       64(CX), Y10, Y11
	VADDPD       Y2, Y11, Y2
	VMULPD       96(CX), Y10, Y12
	VADDPD       Y3, Y12, Y3
	ADDQ         R11, AX
	ADDQ         R12, CX
	DECQ         DX
	JNZ          g1c16loop

g1c16store:
	LEAQ    (DI)(BX*1), AX
	VMOVUPD Y0, (AX)
	VMOVUPD Y1, 32(AX)
	VMOVUPD Y2, 64(AX)
	VMOVUPD Y3, 96(AX)
	VCMPPD  $3, Y1, Y0, Y12
	VCMPPD  $3, Y3, Y2, Y13
	VORPD   Y13, Y12, Y12
	VORPD   Y12, Y15, Y15
	ADDQ    $128, BX
	JMP     g1c16

g1c4:
	CMPQ AX, $32
	JLT  g1c1
	LEAQ (DI)(BX*1), AX
	VMOVUPD (AX), Y0
	MOVQ SI, AX
	MOVQ b+40(FP), CX
	ADDQ BX, CX
	MOVQ k+72(FP), DX
	TESTQ DX, DX
	JZ   g1c4store

g1c4loop:
	VBROADCASTSD (AX), Y10
	VMULPD       (CX), Y10, Y11
	VADDPD       Y0, Y11, Y0
	ADDQ         R11, AX
	ADDQ         R12, CX
	DECQ         DX
	JNZ          g1c4loop

g1c4store:
	LEAQ    (DI)(BX*1), AX
	VMOVUPD Y0, (AX)
	VCMPPD  $3, Y0, Y0, Y12
	VORPD   Y12, Y15, Y15
	ADDQ    $32, BX
	MOVQ    n+64(FP), AX
	SHLQ    $3, AX
	SUBQ    BX, AX
	JMP     g1c4

g1c1:
	TESTQ AX, AX
	JZ    g1next
	LEAQ  (DI)(BX*1), AX
	VMOVSD (AX), X0
	MOVQ  SI, AX
	MOVQ  b+40(FP), CX
	ADDQ  BX, CX
	MOVQ  k+72(FP), DX
	TESTQ DX, DX
	JZ    g1c1store

g1c1loop:
	VMOVSD (AX), X10
	VMULSD (CX), X10, X11
	VADDSD X0, X11, X0
	ADDQ   R11, AX
	ADDQ   R12, CX
	DECQ   DX
	JNZ    g1c1loop

g1c1store:
	LEAQ   (DI)(BX*1), AX
	VMOVSD X0, (AX)
	VCMPPD $3, X0, X0, X12
	VORPD  Y12, Y15, Y15
	ADDQ   $8, BX
	MOVQ   n+64(FP), AX
	SHLQ   $3, AX
	SUBQ   BX, AX
	JMP    g1c1

g1next:
	ADDQ R8, DI
	ADDQ R9, SI
	DECQ m+56(FP)
	JMP  g1rows

gdone:
	VMOVMSKPD Y15, AX
	TESTL     AX, AX
	SETNE     ret+80(FP)
	VZEROUPPER
	RET

// func dotrowsavx(out, a, b *float64, ldb, nj, n int)
//
// out[j] = vdot(a[0:n], b[j*ldb : j*ldb+n]) for j < nj, under vdot's fixed
// 16-lane definition (see vdotGo): the Dense input-gradient tile. Three
// weight rows share each load of a and keep 12 independent accumulator
// chains in flight; the per-output fold and sequential tail are exactly
// vdotavx's.
TEXT ·dotrowsavx(SB), NOSPLIT, $0-48
	MOVQ out+0(FP), DI
	MOVQ a+8(FP), SI
	MOVQ b+16(FP), BX
	MOVQ ldb+24(FP), R8
	SHLQ $3, R8
	MOVQ nj+32(FP), R9
	MOVQ n+40(FP), R11
	MOVQ R11, R12
	SHRQ $4, R11 // 16-element chunks
	ANDQ $15, R12 // sequential tail

d3:
	CMPQ R9, $3
	JLT  d1
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	VXORPD Y4, Y4, Y4
	VXORPD Y5, Y5, Y5
	VXORPD Y6, Y6, Y6
	VXORPD Y7, Y7, Y7
	VXORPD Y8, Y8, Y8
	VXORPD Y9, Y9, Y9
	VXORPD Y10, Y10, Y10
	VXORPD Y11, Y11, Y11
	MOVQ  SI, AX
	MOVQ  BX, CX
	LEAQ  (BX)(R8*1), DX
	LEAQ  (BX)(R8*2), R13
	MOVQ  R11, R10
	TESTQ R10, R10
	JZ    d3fold

d3loop:
	VMOVUPD (AX), Y12
	VMULPD  (CX), Y12, Y13
	VADDPD  Y13, Y0, Y0
	VMULPD  (DX), Y12, Y13
	VADDPD  Y13, Y4, Y4
	VMULPD  (R13), Y12, Y13
	VADDPD  Y13, Y8, Y8
	VMOVUPD 32(AX), Y12
	VMULPD  32(CX), Y12, Y13
	VADDPD  Y13, Y1, Y1
	VMULPD  32(DX), Y12, Y13
	VADDPD  Y13, Y5, Y5
	VMULPD  32(R13), Y12, Y13
	VADDPD  Y13, Y9, Y9
	VMOVUPD 64(AX), Y12
	VMULPD  64(CX), Y12, Y13
	VADDPD  Y13, Y2, Y2
	VMULPD  64(DX), Y12, Y13
	VADDPD  Y13, Y6, Y6
	VMULPD  64(R13), Y12, Y13
	VADDPD  Y13, Y10, Y10
	VMOVUPD 96(AX), Y12
	VMULPD  96(CX), Y12, Y13
	VADDPD  Y13, Y3, Y3
	VMULPD  96(DX), Y12, Y13
	VADDPD  Y13, Y7, Y7
	VMULPD  96(R13), Y12, Y13
	VADDPD  Y13, Y11, Y11
	ADDQ    $128, AX
	ADDQ    $128, CX
	ADDQ    $128, DX
	ADDQ    $128, R13
	DECQ    R10
	JNZ     d3loop

d3fold:
	VADDPD       Y2, Y0, Y0
	VADDPD       Y3, Y1, Y1
	VADDPD       Y1, Y0, Y0
	VEXTRACTF128 $1, Y0, X1
	VADDPD       X1, X0, X0
	VUNPCKHPD    X0, X0, X2
	VADDSD       X2, X0, X0
	VADDPD       Y6, Y4, Y4
	VADDPD       Y7, Y5, Y5
	VADDPD       Y5, Y4, Y4
	VEXTRACTF128 $1, Y4, X5
	VADDPD       X5, X4, X4
	VUNPCKHPD    X4, X4, X6
	VADDSD       X6, X4, X4
	VADDPD       Y10, Y8, Y8
	VADDPD       Y11, Y9, Y9
	VADDPD       Y9, Y8, Y8
	VEXTRACTF128 $1, Y8, X9
	VADDPD       X9, X8, X8
	VUNPCKHPD    X8, X8, X10
	VADDSD       X10, X8, X8
	MOVQ         R12, R10
	TESTQ        R10, R10
	JZ           d3store

d3tail:
	VMOVSD (AX), X12
	VMULSD (CX), X12, X13
	VADDSD X13, X0, X0
	VMULSD (DX), X12, X13
	VADDSD X13, X4, X4
	VMULSD (R13), X12, X13
	VADDSD X13, X8, X8
	ADDQ   $8, AX
	ADDQ   $8, CX
	ADDQ   $8, DX
	ADDQ   $8, R13
	DECQ   R10
	JNZ    d3tail

d3store:
	VMOVSD X0, (DI)
	VMOVSD X4, 8(DI)
	VMOVSD X8, 16(DI)
	ADDQ   $24, DI
	LEAQ   (BX)(R8*2), BX
	ADDQ   R8, BX
	SUBQ   $3, R9
	JMP    d3

d1:
	TESTQ R9, R9
	JZ    ddone
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	MOVQ  SI, AX
	MOVQ  BX, CX
	MOVQ  R11, R10
	TESTQ R10, R10
	JZ    d1fold

d1loop:
	VMOVUPD (AX), Y12
	VMULPD  (CX), Y12, Y12
	VADDPD  Y12, Y0, Y0
	VMOVUPD 32(AX), Y13
	VMULPD  32(CX), Y13, Y13
	VADDPD  Y13, Y1, Y1
	VMOVUPD 64(AX), Y12
	VMULPD  64(CX), Y12, Y12
	VADDPD  Y12, Y2, Y2
	VMOVUPD 96(AX), Y13
	VMULPD  96(CX), Y13, Y13
	VADDPD  Y13, Y3, Y3
	ADDQ    $128, AX
	ADDQ    $128, CX
	DECQ    R10
	JNZ     d1loop

d1fold:
	VADDPD       Y2, Y0, Y0
	VADDPD       Y3, Y1, Y1
	VADDPD       Y1, Y0, Y0
	VEXTRACTF128 $1, Y0, X1
	VADDPD       X1, X0, X0
	VUNPCKHPD    X0, X0, X2
	VADDSD       X2, X0, X0
	MOVQ         R12, R10
	TESTQ        R10, R10
	JZ           d1store

d1tail:
	VMOVSD (AX), X12
	VMULSD (CX), X12, X12
	VADDSD X12, X0, X0
	ADDQ   $8, AX
	ADDQ   $8, CX
	DECQ   R10
	JNZ    d1tail

d1store:
	VMOVSD X0, (DI)
	ADDQ   $8, DI
	ADDQ   R8, BX
	DECQ   R9
	JMP    d1

ddone:
	VZEROUPPER
	RET
