#include "go_asm.h"
#include "textflag.h"

// The limbs of p, as memory operands for MULX.
DATA q<>+0(SB)/8, $const_q0
DATA q<>+8(SB)/8, $const_q1
DATA q<>+16(SB)/8, $const_q2
DATA q<>+24(SB)/8, $const_q3
GLOBL q<>(SB), RODATA|NOPTR, $32

// Registers of mulADX: a0..a3 in R8..R11, the pointer to b in SI, the
// multiplier of MULX in DX, low and high product words in AX and DI, and
// the running value t in five of R12, R13, R14, CX, BX. Every round
// leaves t one limb down, so the macros take the five registers in their
// current roles and the caller rotates them: the low limb cancelled by a
// reduction becomes the top limb t4 of the next row.
//
// MULX sets no flags; XORQ clears CF and OF, so each macro starts two
// independent carry chains, ADCX on CF and ADOX on OF. MOVQ keeps the
// flags, so MOVQ $0 can fold a chain's last carry into t4.

// ROW0 sets t = a·DX, with t4 the top limb.
#define ROW0(t0, t1, t2, t3, t4) \
	XORQ  AX, AX      \
	MULXQ R8, t0, t1  \
	MULXQ R9, AX, t2  \
	ADOXQ AX, t1      \
	MULXQ R10, AX, t3 \
	ADOXQ AX, t2      \
	MULXQ R11, AX, t4 \
	ADOXQ AX, t3      \
	MOVQ  $0, AX      \
	ADOXQ AX, t4

// ROW adds a·DX to t0..t3 and sets t4 to the top limb of the sum: the low
// product words go on the OF chain, the high ones on the CF chain.
#define ROW(t0, t1, t2, t3, t4) \
	XORQ  AX, AX      \
	MULXQ R8, AX, DI  \
	ADOXQ AX, t0      \
	ADCXQ DI, t1      \
	MULXQ R9, AX, DI  \
	ADOXQ AX, t1      \
	ADCXQ DI, t2      \
	MULXQ R10, AX, DI \
	ADOXQ AX, t2      \
	ADCXQ DI, t3      \
	MULXQ R11, AX, t4 \
	ADOXQ AX, t3      \
	MOVQ  $0, AX      \
	ADCXQ AX, t4      \
	ADOXQ AX, t4

// REDUCE adds m·p with m = t0·qInvNeg mod 2^64, which cancels t0, and
// leaves (t + m·p)/2^64 in t1..t4. The low product words go on the CF
// chain (its first step only makes t0's carry), the high ones on OF. The
// running value stays below a + p < 2^256 (see mulGeneric), so no carry
// leaves t4.
#define REDUCE(t0, t1, t2, t3, t4) \
	MOVQ  $const_qInvNeg, DX \
	IMULQ t0, DX             \
	XORQ  AX, AX             \
	MULXQ q<>+0(SB), AX, DI  \
	ADCXQ t0, AX             \
	ADOXQ DI, t1             \
	MULXQ q<>+8(SB), AX, DI  \
	ADCXQ AX, t1             \
	ADOXQ DI, t2             \
	MULXQ q<>+16(SB), AX, DI \
	ADCXQ AX, t2             \
	ADOXQ DI, t3             \
	MULXQ q<>+24(SB), AX, DI \
	ADCXQ AX, t3             \
	ADOXQ DI, t4             \
	MOVQ  $0, AX             \
	ADCXQ AX, t4

// func mulADX(z, a, b *Element)
//
// The no-carry CIOS of mulGeneric in four rounds of ROW and REDUCE, then
// the same final subtraction of p with CMOV in place of the mask. z is
// stored only after the last load of a and b, so it may alias either.
TEXT ·mulADX(SB), NOSPLIT, $0-24
	MOVQ a+8(FP), DI
	MOVQ 0(DI), R8
	MOVQ 8(DI), R9
	MOVQ 16(DI), R10
	MOVQ 24(DI), R11
	MOVQ b+16(FP), SI

	MOVQ   0(SI), DX
	ROW0(R12, R13, R14, CX, BX)
	REDUCE(R12, R13, R14, CX, BX)

	MOVQ   8(SI), DX
	ROW(R13, R14, CX, BX, R12)
	REDUCE(R13, R14, CX, BX, R12)

	MOVQ   16(SI), DX
	ROW(R14, CX, BX, R12, R13)
	REDUCE(R14, CX, BX, R12, R13)

	MOVQ   24(SI), DX
	ROW(CX, BX, R12, R13, R14)
	REDUCE(CX, BX, R12, R13, R14)

	// t = (BX, R12, R13, R14) < 2p. Take t − p unless it borrows (CF set).
	MOVQ    z+0(FP), SI
	MOVQ    BX, R8
	SUBQ    q<>+0(SB), R8
	MOVQ    R12, R9
	SBBQ    q<>+8(SB), R9
	MOVQ    R13, R10
	SBBQ    q<>+16(SB), R10
	MOVQ    R14, R11
	SBBQ    q<>+24(SB), R11
	CMOVQCC R8, BX
	CMOVQCC R9, R12
	CMOVQCC R10, R13
	CMOVQCC R11, R14
	MOVQ    BX, 0(SI)
	MOVQ    R12, 8(SI)
	MOVQ    R13, 16(SI)
	MOVQ    R14, 24(SI)
	RET

// func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL leaf+0(FP), AX
	MOVL sub+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET
