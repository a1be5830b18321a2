#include "textflag.h"
#include "fp/mont_amd64.h"

// The fused Fp2 kernels: one call per Fp2 operation, with both
// coefficients in registers. An fp2 is c0 at offset 0 and c1 at offset
// 32, four little-endian limbs each. Every kernel loads all of its
// operands before its first store to z, so z may alias a and/or b. Each
// computes the canonical values of its Go body (fp2.go, fp6.go) with the
// same steps, so the two agree word for word. There is no branch on the
// data and no table: modular corrections are CMOV selects.

// LOAD4 and STORE4 move the four limbs at off(p) to and from registers.
#define LOAD4(off, p, t0, t1, t2, t3) \
	MOVQ off+0(p), t0             \
	MOVQ off+8(p), t1             \
	MOVQ off+16(p), t2            \
	MOVQ off+24(p), t3

#define STORE4(t0, t1, t2, t3, off, p) \
	MOVQ t0, off+0(p)              \
	MOVQ t1, off+8(p)              \
	MOVQ t2, off+16(p)             \
	MOVQ t3, off+24(p)

// ADD_UNREDUCED sets t = t + off(p) with no reduction: below 2p for
// operands below p, an operand of MONTMUL only (fp.AddUnreduced).
#define ADD_UNREDUCED(off, p, t0, t1, t2, t3) \
	ADDQ off+0(p), t0                     \
	ADCQ off+8(p), t1                     \
	ADCQ off+16(p), t2                    \
	ADCQ off+24(p), t3

// ADD_P sets t = t + off(p) mod p for t and the addend below p.
#define ADD_P(off, p, t0, t1, t2, t3, s0, s1, s2, s3) \
	ADD_UNREDUCED(off, p, t0, t1, t2, t3)         \
	REDUCE_P(t0, t1, t2, t3, s0, s1, s2, s3)

// DOUBLE_P sets t = 2t mod p for t below p.
#define DOUBLE_P(t0, t1, t2, t3, s0, s1, s2, s3) \
	ADDQ t0, t0                              \
	ADCQ t1, t1                              \
	ADCQ t2, t2                              \
	ADCQ t3, t3                              \
	REDUCE_P(t0, t1, t2, t3, s0, s1, s2, s3)

// FIX_BORROW follows a SUB/SBB chain t − b of values below p: where it
// borrowed (CF), it adds p back. MOVQ keeps CF, and CMOV selects the
// limbs of p or zero.
#define FIX_BORROW(t0, t1, t2, t3, s0, s1, s2, s3) \
	MOVQ    $0, s0                             \
	MOVQ    $0, s1                             \
	MOVQ    $0, s2                             \
	MOVQ    $0, s3                             \
	CMOVQCS QCONSTS+0(SB), s0                  \
	CMOVQCS QCONSTS+8(SB), s1                  \
	CMOVQCS QCONSTS+16(SB), s2                 \
	CMOVQCS QCONSTS+24(SB), s3                 \
	ADDQ    s0, t0                             \
	ADCQ    s1, t1                             \
	ADCQ    s2, t2                             \
	ADCQ    s3, t3

// SUB_P sets t = t − off(p) mod p for t and the subtrahend below p.
#define SUB_P(off, p, t0, t1, t2, t3, s0, s1, s2, s3) \
	SUBQ off+0(p), t0                             \
	SBBQ off+8(p), t1                             \
	SBBQ off+16(p), t2                            \
	SBBQ off+24(p), t3                            \
	FIX_BORROW(t0, t1, t2, t3, s0, s1, s2, s3)

// SUB_REGS_P sets t = t − u mod p for t and u below p, u in registers.
#define SUB_REGS_P(t0, t1, t2, t3, u0, u1, u2, u3, s0, s1, s2, s3) \
	SUBQ u0, t0                                                \
	SBBQ u1, t1                                                \
	SBBQ u2, t2                                                \
	SBBQ u3, t3                                                \
	FIX_BORROW(t0, t1, t2, t3, s0, s1, s2, s3)

// NEG_P sets t = p − off(p), or 0 where the operand is 0 (then m is 0,
// and CMOVQEQ copies it).
#define NEG_P(off, p, t0, t1, t2, t3, m) \
	MOVQ    off+0(p), m              \
	ORQ     off+8(p), m              \
	ORQ     off+16(p), m             \
	ORQ     off+24(p), m             \
	MOVQ    QCONSTS+0(SB), t0        \
	SUBQ    off+0(p), t0             \
	MOVQ    QCONSTS+8(SB), t1        \
	SBBQ    off+8(p), t1             \
	MOVQ    QCONSTS+16(SB), t2       \
	SBBQ    off+16(p), t2            \
	MOVQ    QCONSTS+24(SB), t3       \
	SBBQ    off+24(p), t3            \
	TESTQ   m, m                     \
	CMOVQEQ m, t0                    \
	CMOVQEQ m, t1                    \
	CMOVQEQ m, t2                    \
	CMOVQEQ m, t3

// func fp2Add(z, a, b *fp2)
TEXT ·fp2Add(SB), NOSPLIT, $0-24
	MOVQ a+8(FP), AX
	MOVQ b+16(FP), DX
	LOAD4(0, AX, R8, R9, R10, R11)
	ADD_P(0, DX, R8, R9, R10, R11, R12, R13, R14, CX)
	LOAD4(32, AX, BX, SI, DI, AX)
	ADD_P(32, DX, BX, SI, DI, AX, R12, R13, R14, CX)
	MOVQ z+0(FP), DX
	STORE4(R8, R9, R10, R11, 0, DX)
	STORE4(BX, SI, DI, AX, 32, DX)
	RET

// func fp2Sub(z, a, b *fp2)
TEXT ·fp2Sub(SB), NOSPLIT, $0-24
	MOVQ a+8(FP), AX
	MOVQ b+16(FP), DX
	LOAD4(0, AX, R8, R9, R10, R11)
	SUB_P(0, DX, R8, R9, R10, R11, R12, R13, R14, CX)
	LOAD4(32, AX, BX, SI, DI, AX)
	SUB_P(32, DX, BX, SI, DI, AX, R12, R13, R14, CX)
	MOVQ z+0(FP), DX
	STORE4(R8, R9, R10, R11, 0, DX)
	STORE4(BX, SI, DI, AX, 32, DX)
	RET

// func fp2Double(z, a *fp2)
TEXT ·fp2Double(SB), NOSPLIT, $0-16
	MOVQ a+8(FP), AX
	LOAD4(0, AX, R8, R9, R10, R11)
	DOUBLE_P(R8, R9, R10, R11, R12, R13, R14, CX)
	LOAD4(32, AX, BX, SI, DI, AX)
	DOUBLE_P(BX, SI, DI, AX, R12, R13, R14, CX)
	MOVQ z+0(FP), DX
	STORE4(R8, R9, R10, R11, 0, DX)
	STORE4(BX, SI, DI, AX, 32, DX)
	RET

// func fp2Neg(z, a *fp2)
TEXT ·fp2Neg(SB), NOSPLIT, $0-16
	MOVQ a+8(FP), AX
	NEG_P(0, AX, R8, R9, R10, R11, CX)
	NEG_P(32, AX, R12, R13, R14, BX, DX)
	MOVQ z+0(FP), SI
	STORE4(R8, R9, R10, R11, 0, SI)
	STORE4(R12, R13, R14, BX, 32, SI)
	RET

// func mulByXi(z, a *fp2)
//
// z = a·(9 + i) = (9a0 − a1) + (9a1 + a0)·i, each 9x as three doublings
// and an addition, reduced after every step as mulByXiGeneric does.
TEXT ·mulByXi(SB), NOSPLIT, $0-16
	MOVQ a+8(FP), AX
	LOAD4(0, AX, R8, R9, R10, R11)
	DOUBLE_P(R8, R9, R10, R11, R12, R13, R14, CX)
	DOUBLE_P(R8, R9, R10, R11, R12, R13, R14, CX)
	DOUBLE_P(R8, R9, R10, R11, R12, R13, R14, CX)
	ADD_P(0, AX, R8, R9, R10, R11, R12, R13, R14, CX)
	SUB_P(32, AX, R8, R9, R10, R11, R12, R13, R14, CX)
	LOAD4(32, AX, BX, SI, DI, DX)
	DOUBLE_P(BX, SI, DI, DX, R12, R13, R14, CX)
	DOUBLE_P(BX, SI, DI, DX, R12, R13, R14, CX)
	DOUBLE_P(BX, SI, DI, DX, R12, R13, R14, CX)
	ADD_P(32, AX, BX, SI, DI, DX, R12, R13, R14, CX)
	ADD_P(0, AX, BX, SI, DI, DX, R12, R13, R14, CX)
	MOVQ z+0(FP), AX
	STORE4(R8, R9, R10, R11, 0, AX)
	STORE4(BX, SI, DI, DX, 32, AX)
	RET

// func fp2Mul(z, a, b *fp2)
//
// The product needs ADX and BMI2; without them the entry jumps to
// fp2MulGeneric with the arguments in place.
TEXT ·fp2Mul(SB), NOSPLIT, $0-24
	CMPB USEADX(SB), $0
	JEQ  generic
	JMP  fp2MulADX<>(SB)

generic:
	JMP ·fp2MulGeneric(SB)

// fp2MulADX is Karatsuba over i² = −1 with three MONTMULs:
// s = (a0+a1)(b0+b1) with both sums unreduced (below 2p), v0 = a0·b0 and
// v1 = a1·b1; then c0 = v0 − v1 and c1 = s − v0 − v1. The frame holds
// b0+b1 at 0(SP), where MONTMUL reads it, then s at 32(SP) and v0 at
// 64(SP).
TEXT fp2MulADX<>(SB), NOSPLIT, $96-24
	MOVQ b+16(FP), SI
	LOAD4(0, SI, R8, R9, R10, R11)
	ADD_UNREDUCED(32, SI, R8, R9, R10, R11)
	STORE4(R8, R9, R10, R11, 0, SP)
	MOVQ a+8(FP), DI
	LOAD4(0, DI, R8, R9, R10, R11)
	ADD_UNREDUCED(32, DI, R8, R9, R10, R11)
	LEAQ 0(SP), SI
	MONTMUL
	STORE4(BX, R12, R13, R14, 32, SP)

	MOVQ a+8(FP), DI
	LOAD4(0, DI, R8, R9, R10, R11)
	MOVQ b+16(FP), SI
	MONTMUL
	STORE4(BX, R12, R13, R14, 64, SP)

	MOVQ a+8(FP), DI
	LOAD4(32, DI, R8, R9, R10, R11)
	MOVQ b+16(FP), SI
	ADDQ $32, SI
	MONTMUL

	// v1 is in BX, R12, R13, R14.
	LOAD4(32, SP, R8, R9, R10, R11)
	SUB_P(64, SP, R8, R9, R10, R11, AX, CX, DX, DI)
	SUB_REGS_P(R8, R9, R10, R11, BX, R12, R13, R14, AX, CX, DX, DI)
	LOAD4(64, SP, AX, CX, DX, DI)
	SUB_REGS_P(AX, CX, DX, DI, BX, R12, R13, R14, BX, R12, R13, R14)
	MOVQ z+0(FP), SI
	STORE4(AX, CX, DX, DI, 0, SI)
	STORE4(R8, R9, R10, R11, 32, SI)
	RET

// func fp2Square(z, a *fp2)
//
// As fp2Mul: without ADX and BMI2 the entry jumps to fp2SquareGeneric.
TEXT ·fp2Square(SB), NOSPLIT, $0-16
	CMPB USEADX(SB), $0
	JEQ  generic
	JMP  fp2SquareADX<>(SB)

generic:
	JMP ·fp2SquareGeneric(SB)

// fp2SquareADX is (a0 + a1·i)² = (a0−a1)(a0+a1) + 2a0a1·i with two
// MONTMULs, a0+a1 unreduced. The frame holds a0+a1 at 0(SP), where
// MONTMUL reads it, and c1 at 32(SP).
TEXT fp2SquareADX<>(SB), NOSPLIT, $64-16
	MOVQ a+8(FP), SI
	LOAD4(0, SI, R8, R9, R10, R11)
	ADDQ $32, SI
	MONTMUL
	DOUBLE_P(BX, R12, R13, R14, R8, R9, R10, R11)
	STORE4(BX, R12, R13, R14, 32, SP)

	MOVQ a+8(FP), DI
	LOAD4(0, DI, R8, R9, R10, R11)
	ADD_UNREDUCED(32, DI, R8, R9, R10, R11)
	STORE4(R8, R9, R10, R11, 0, SP)
	LOAD4(0, DI, R8, R9, R10, R11)
	SUB_P(32, DI, R8, R9, R10, R11, AX, BX, CX, DX)
	LEAQ 0(SP), SI
	MONTMUL
	MOVQ z+0(FP), SI
	STORE4(BX, R12, R13, R14, 0, SI)
	LOAD4(32, SP, AX, CX, DX, DI)
	STORE4(AX, CX, DX, DI, 32, SI)
	RET
