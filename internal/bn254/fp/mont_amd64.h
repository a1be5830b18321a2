// Montgomery product and reduction macros shared by mul_amd64.s and the
// Fp2 kernels of package bn254 (../fp2_amd64.s), so the ADX product is
// written once: MONTMUL, and the two halves of a lazy reduction, MULPRE
// (a 512-bit product) and REDC (one reduction of a 512-bit value). Both
// files read the limbs of p and qInvNeg from the one table that
// mul_amd64.s defines, and the flag useADX, by the full symbol names
// QCONSTS and USEADX, which resolve the same from either package.
//
// Registers of MONTMUL: a0..a3 in R8..R11, the pointer to b in SI, the
// multiplier of MULX in DX, low and high product words in AX and DI, and
// the running value t in five of R12, R13, R14, CX, BX. Every round
// leaves t one limb down, so the macros take the five registers in their
// current roles and the caller rotates them: the low limb cancelled by a
// reduction becomes the top limb t4 of the next row.
//
// MULX sets no flags; XORQ clears CF and OF, so each macro starts two
// independent carry chains, ADCX on CF and ADOX on OF. MOVQ keeps the
// flags, so MOVQ $0 can fold a chain's last carry into t4.

#define QCONSTS typepre∕internal∕bn254∕fp·qConsts
#define USEADX typepre∕internal∕bn254∕fp·useADX

// ROW0 sets t = a·DX, with t4 the top limb.
#define ROW0(t0, t1, t2, t3, t4) \
	XORQ  AX, AX             \
	MULXQ R8, t0, t1         \
	MULXQ R9, AX, t2         \
	ADOXQ AX, t1             \
	MULXQ R10, AX, t3        \
	ADOXQ AX, t2             \
	MULXQ R11, AX, t4        \
	ADOXQ AX, t3             \
	MOVQ  $0, AX             \
	ADOXQ AX, t4

// ROW adds a·DX to t0..t3 and sets t4 to the top limb of the sum: the low
// product words go on the OF chain, the high ones on the CF chain.
#define ROW(t0, t1, t2, t3, t4) \
	XORQ  AX, AX            \
	MULXQ R8, AX, DI        \
	ADOXQ AX, t0            \
	ADCXQ DI, t1            \
	MULXQ R9, AX, DI        \
	ADOXQ AX, t1            \
	ADCXQ DI, t2            \
	MULXQ R10, AX, DI       \
	ADOXQ AX, t2            \
	ADCXQ DI, t3            \
	MULXQ R11, AX, t4       \
	ADOXQ AX, t3            \
	MOVQ  $0, AX            \
	ADCXQ AX, t4            \
	ADOXQ AX, t4

// REDUCE adds m·p with m = t0·qInvNeg mod 2^64, which cancels t0, and
// leaves (t + m·p)/2^64 in t1..t4. The low product words go on the CF
// chain (its first step only makes t0's carry), the high ones on OF. The
// running value stays below a + p < 2^256 (see mulGeneric), so no carry
// leaves t4.
#define REDUCE(t0, t1, t2, t3, t4)   \
	MOVQ  t0, DX                 \
	IMULQ QCONSTS+32(SB), DX     \
	XORQ  AX, AX                 \
	MULXQ QCONSTS+0(SB), AX, DI  \
	ADCXQ t0, AX                 \
	ADOXQ DI, t1                 \
	MULXQ QCONSTS+8(SB), AX, DI  \
	ADCXQ AX, t1                 \
	ADOXQ DI, t2                 \
	MULXQ QCONSTS+16(SB), AX, DI \
	ADCXQ AX, t2                 \
	ADOXQ DI, t3                 \
	MULXQ QCONSTS+24(SB), AX, DI \
	ADCXQ AX, t3                 \
	ADOXQ DI, t4                 \
	MOVQ  $0, AX                 \
	ADCXQ AX, t4

// REDUCE_P takes t = (t0..t3) < 2p to t mod p: it computes t − p in
// s0..s3 and keeps it with CMOV unless the subtraction borrows. No
// branch, so the instruction sequence does not depend on t.
#define REDUCE_P(t0, t1, t2, t3, s0, s1, s2, s3) \
	MOVQ    t0, s0                           \
	SUBQ    QCONSTS+0(SB), s0                \
	MOVQ    t1, s1                           \
	SBBQ    QCONSTS+8(SB), s1                \
	MOVQ    t2, s2                           \
	SBBQ    QCONSTS+16(SB), s2               \
	MOVQ    t3, s3                           \
	SBBQ    QCONSTS+24(SB), s3               \
	CMOVQCC s0, t0                           \
	CMOVQCC s1, t1                           \
	CMOVQCC s2, t2                           \
	CMOVQCC s3, t3

// MONTMUL sets (BX, R12, R13, R14) = a·b·R⁻¹ mod p for a in R8..R11 and
// b at 0(SI), both below 2p: the no-carry CIOS of mulGeneric in four
// rounds of ROW and REDUCE, then its final subtraction of p with CMOV in
// place of the mask. It reads b one limb per round and writes no memory;
// it clobbers AX, CX, DX, DI and R8..R11.
#define MONTMUL                                       \
	MOVQ 0(SI), DX                            \
	ROW0(R12, R13, R14, CX, BX)                   \
	REDUCE(R12, R13, R14, CX, BX)                 \
	MOVQ 8(SI), DX                            \
	ROW(R13, R14, CX, BX, R12)                    \
	REDUCE(R13, R14, CX, BX, R12)                 \
	MOVQ 16(SI), DX                           \
	ROW(R14, CX, BX, R12, R13)                    \
	REDUCE(R14, CX, BX, R12, R13)                 \
	MOVQ 24(SI), DX                           \
	ROW(CX, BX, R12, R13, R14)                    \
	REDUCE(CX, BX, R12, R13, R14)                 \
	REDUCE_P(BX, R12, R13, R14, R8, R9, R10, R11)

// MULPRE sets the 512-bit product a·b for a in R8..R11 and b at 0(SI),
// any 256-bit values: the four rows of MONTMUL without its REDUCE rounds.
// The running value keeps its five limbs below 2^320, so no row overflows.
// Each row completes one low limb, which it stores at off(p) upward, so p
// must be a register the macro leaves alone (SP in the kernels); the high
// limbs are left in BX, R12, R13, R14, the registers of MONTMUL's result.
// It clobbers AX, CX, DX and DI.
#define MULPRE(off, p)          \
	MOVQ 0(SI), DX              \
	ROW0(R12, R13, R14, CX, BX) \
	MOVQ R12, off+0(p)          \
	MOVQ 8(SI), DX              \
	ROW(R13, R14, CX, BX, R12)  \
	MOVQ R13, off+8(p)          \
	MOVQ 16(SI), DX             \
	ROW(R14, CX, BX, R12, R13)  \
	MOVQ R14, off+16(p)         \
	MOVQ 24(SI), DX             \
	ROW(CX, BX, R12, R13, R14)  \
	MOVQ CX, off+24(p)

// REDC sets (t4, t0, t1, t2) = T·R⁻¹ mod p for the 512-bit T = L + H·2^256
// with L in t0..t3 and H in h0..h3, for any T below p·2^256. Four REDUCE
// rounds take L alone to (L + m·p)/R ≤ p, each round starting its top
// limb at zero in the register the previous round cancelled; adding H < p
// then gives T·R⁻¹ mod p plus a multiple of p below 2p, and REDUCE_P, with
// h0..h3 as scratch, makes it canonical. It clobbers AX, DX and DI.
#define REDC(t0, t1, t2, t3, t4, h0, h1, h2, h3) \
	XORQ t4, t4                              \
	REDUCE(t0, t1, t2, t3, t4)               \
	XORQ t0, t0                              \
	REDUCE(t1, t2, t3, t4, t0)               \
	XORQ t1, t1                              \
	REDUCE(t2, t3, t4, t0, t1)               \
	XORQ t2, t2                              \
	REDUCE(t3, t4, t0, t1, t2)               \
	ADDQ h0, t4                              \
	ADCQ h1, t0                              \
	ADCQ h2, t1                              \
	ADCQ h3, t2                              \
	REDUCE_P(t4, t0, t1, t2, h0, h1, h2, h3)
