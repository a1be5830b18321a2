#include "go_asm.h"
#include "textflag.h"
#include "fp/mont_amd64.h"

// The fused Fp2 kernels: one call per Fp2 operation, with both
// coefficients in registers. An fp2 is c0 at offset 0 and c1 at offset
// 32, four little-endian limbs each. Every kernel loads all of its
// operands before its first store to z, so z may alias a and/or b. Each
// returns the canonical values of its Go body (fp2.go, fp6.go), so the
// two agree word for word, though Mul, Square and mulByXi reduce fewer
// times than their Go bodies do. There is no branch on the data and no
// table: modular corrections are CMOV selects.

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

// NINE sets t = 9·off(p) as five limbs: 8x by shifts, then + x.
#define NINE(off, p, t0, t1, t2, t3, t4) \
	LOAD4(off, p, t0, t1, t2, t3)    \
	MOVQ t3, t4                      \
	SHRQ $61, t4                     \
	SHLQ $3, t2, t3                  \
	SHLQ $3, t1, t2                  \
	SHLQ $3, t0, t1                  \
	SHLQ $3, t0                      \
	ADD_UNREDUCED(off, p, t0, t1, t2, t3) \
	ADCQ $0, t4

// MOD10P sets t = t mod p for the five limbs t0..t4 of t < 10p. The
// quotient q = ⌊t/p⌋ ≤ 9 is estimated as ⌊⌊t/2^194⌋·xiMu/2^123⌋ with
// xiMu = ⌊2^317/p⌋: a multiply-high that never exceeds q and falls short
// of it by at most one, so t − q̂·p is below 2p and fits t0..t3, where
// four-limb arithmetic mod 2^256 computes it; REDUCE_P finishes. q̂·p is
// MULQ for the three low limbs of p and IMULQ for the top one, whose
// high word falls outside 2^256. It clobbers q, m1..m3, AX and DX, and
// t4, which holds q̂·p's low limb.
#define MOD10P(t0, t1, t2, t3, t4, q, m1, m2, m3) \
	MOVQ  t3, AX                              \
	SHRQ  $2, t4, AX                          \
	MULQ  xiMu<>(SB)                          \
	SHRQ  $59, DX                             \
	MOVQ  DX, q                               \
	MOVQ  q, AX                               \
	MULQ  QCONSTS+0(SB)                       \
	MOVQ  AX, t4                              \
	MOVQ  DX, m1                              \
	MOVQ  q, AX                               \
	MULQ  QCONSTS+8(SB)                       \
	ADDQ  AX, m1                              \
	ADCQ  $0, DX                              \
	MOVQ  DX, m2                              \
	MOVQ  q, AX                               \
	MULQ  QCONSTS+16(SB)                      \
	ADDQ  AX, m2                              \
	ADCQ  $0, DX                              \
	MOVQ  DX, m3                              \
	IMULQ QCONSTS+24(SB), q                   \
	ADDQ  q, m3                               \
	SUBQ  t4, t0                              \
	SBBQ  m1, t1                              \
	SBBQ  m2, t2                              \
	SBBQ  m3, t3                              \
	REDUCE_P(t0, t1, t2, t3, t4, m1, m2, m3)

// xiMu = ⌊2^317/p⌋, the reciprocal of MOD10P's quotient estimate.
DATA xiMu<>+0(SB)/8, $const_xiMu
GLOBL xiMu<>(SB), RODATA|NOPTR, $8

// func mulByXi(z, a *fp2)
//
// z = a·(9 + i) = (9a0 − a1) + (a0 + 9a1)·i, each coefficient formed
// unreduced below 10p, as 9a0 + p − a1 and 9a1 + a0, and reduced once by
// MOD10P. Baseline amd64: MULQ and IMULQ, no MULX. The frame holds c0
// until the loads of a are done.
TEXT ·mulByXi(SB), NOSPLIT, $32-16
	MOVQ a+8(FP), SI
	NINE(0, SI, R8, R9, R10, R11, R12)
	ADDQ QCONSTS+0(SB), R8
	ADCQ QCONSTS+8(SB), R9
	ADCQ QCONSTS+16(SB), R10
	ADCQ QCONSTS+24(SB), R11
	ADCQ $0, R12
	SUBQ 32(SI), R8
	SBBQ 40(SI), R9
	SBBQ 48(SI), R10
	SBBQ 56(SI), R11
	SBBQ $0, R12
	MOD10P(R8, R9, R10, R11, R12, CX, R13, R14, BX)
	STORE4(R8, R9, R10, R11, 0, SP)

	NINE(32, SI, R8, R9, R10, R11, R12)
	ADD_UNREDUCED(0, SI, R8, R9, R10, R11)
	ADCQ $0, R12
	MOD10P(R8, R9, R10, R11, R12, CX, R13, R14, BX)
	MOVQ z+0(FP), SI
	STORE4(R8, R9, R10, R11, 32, SI)
	LOAD4(0, SP, R8, R9, R10, R11)
	STORE4(R8, R9, R10, R11, 0, SI)
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

// SUB512 subtracts the eight limbs at off(p) from the 512-bit value in
// R8..R11 (low half) and BX, R12, R13, R14 (high half), mod 2^512.
#define SUB512(off, p)       \
	SUBQ off+0(p), R8    \
	SBBQ off+8(p), R9    \
	SBBQ off+16(p), R10  \
	SBBQ off+24(p), R11  \
	SBBQ off+32(p), BX   \
	SBBQ off+40(p), R12  \
	SBBQ off+48(p), R13  \
	SBBQ off+56(p), R14

// pSquare = p², eight limbs: the offset that keeps fp2MulADX's c0 positive.
DATA pSquare<>+0(SB)/8, $const_pSquare0
DATA pSquare<>+8(SB)/8, $const_pSquare1
DATA pSquare<>+16(SB)/8, $const_pSquare2
DATA pSquare<>+24(SB)/8, $const_pSquare3
DATA pSquare<>+32(SB)/8, $const_pSquare4
DATA pSquare<>+40(SB)/8, $const_pSquare5
DATA pSquare<>+48(SB)/8, $const_pSquare6
DATA pSquare<>+56(SB)/8, $const_pSquare7
GLOBL pSquare<>(SB), RODATA|NOPTR, $64

// fp2MulADX is Karatsuba over i² = −1 with lazy reduction: three 512-bit
// products v0 = a0·b0, v1 = a1·b1 and s = (a0+a1)(b0+b1), the sums
// unreduced (below 2p), then c1 = s − v0 − v1 = a0·b1 + a1·b0 in
// [0, 2p²) and c0 = v0 − v1 + p² in (0, 2p²), each reduced once by REDC:
// two Montgomery reductions in place of the three of three MONTMULs.
// The frame holds v0 at 0(SP), v1 at 64(SP), the low half of s at
// 128(SP) and b0+b1 at 160(SP), where MULPRE reads it.
TEXT fp2MulADX<>(SB), NOSPLIT, $192-24
	MOVQ a+8(FP), DI
	LOAD4(0, DI, R8, R9, R10, R11)
	MOVQ b+16(FP), SI
	MULPRE(0, SP)
	STORE4(BX, R12, R13, R14, 32, SP)

	MOVQ a+8(FP), DI
	LOAD4(32, DI, R8, R9, R10, R11)
	MOVQ b+16(FP), SI
	ADDQ $32, SI
	MULPRE(64, SP)
	STORE4(BX, R12, R13, R14, 96, SP)

	MOVQ b+16(FP), SI
	LOAD4(0, SI, R8, R9, R10, R11)
	ADD_UNREDUCED(32, SI, R8, R9, R10, R11)
	STORE4(R8, R9, R10, R11, 160, SP)
	MOVQ a+8(FP), DI
	LOAD4(0, DI, R8, R9, R10, R11)
	ADD_UNREDUCED(32, DI, R8, R9, R10, R11)
	LEAQ 160(SP), SI
	MULPRE(128, SP)

	// s's high half is in BX, R12, R13, R14.
	LOAD4(128, SP, R8, R9, R10, R11)
	SUB512(0, SP)
	SUB512(64, SP)
	REDC(R8, R9, R10, R11, CX, BX, R12, R13, R14)
	MOVQ z+0(FP), SI
	STORE4(CX, R8, R9, R10, 32, SI)

	LOAD4(0, SP, R8, R9, R10, R11)
	LOAD4(32, SP, BX, R12, R13, R14)
	SUB512(64, SP)
	ADDQ pSquare<>+0(SB), R8
	ADCQ pSquare<>+8(SB), R9
	ADCQ pSquare<>+16(SB), R10
	ADCQ pSquare<>+24(SB), R11
	ADCQ pSquare<>+32(SB), BX
	ADCQ pSquare<>+40(SB), R12
	ADCQ pSquare<>+48(SB), R13
	ADCQ pSquare<>+56(SB), R14
	REDC(R8, R9, R10, R11, CX, BX, R12, R13, R14)
	STORE4(CX, R8, R9, R10, 0, SI)
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
// MONTMULs whose operands stay unreduced (below 2p): c1 = MONTMUL(2a0, a1)
// and c0 = MONTMUL(a0 + p − a1, a0 + a1). The frame holds a0+a1 at 0(SP),
// where MONTMUL reads it, and c1 at 32(SP).
TEXT fp2SquareADX<>(SB), NOSPLIT, $64-16
	MOVQ a+8(FP), SI
	LOAD4(0, SI, R8, R9, R10, R11)
	ADDQ R8, R8
	ADCQ R9, R9
	ADCQ R10, R10
	ADCQ R11, R11
	ADDQ $32, SI
	MONTMUL
	STORE4(BX, R12, R13, R14, 32, SP)

	MOVQ a+8(FP), DI
	LOAD4(0, DI, R8, R9, R10, R11)
	ADD_UNREDUCED(32, DI, R8, R9, R10, R11)
	STORE4(R8, R9, R10, R11, 0, SP)
	MOVQ QCONSTS+0(SB), R8
	MOVQ QCONSTS+8(SB), R9
	MOVQ QCONSTS+16(SB), R10
	MOVQ QCONSTS+24(SB), R11
	SUBQ 32(DI), R8
	SBBQ 40(DI), R9
	SBBQ 48(DI), R10
	SBBQ 56(DI), R11
	ADD_UNREDUCED(0, DI, R8, R9, R10, R11)
	LEAQ 0(SP), SI
	MONTMUL
	MOVQ z+0(FP), SI
	STORE4(BX, R12, R13, R14, 0, SI)
	LOAD4(32, SP, AX, CX, DX, DI)
	STORE4(AX, CX, DX, DI, 32, SI)
	RET
