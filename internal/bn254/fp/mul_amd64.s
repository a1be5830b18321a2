#include "go_asm.h"
#include "textflag.h"
#include "mont_amd64.h"

// The limbs of p, then qInvNeg: memory operands for MULX, SUB and IMUL.
// The symbol is global so that the Fp2 kernels of package bn254 read this
// one copy (see mont_amd64.h).
DATA ·qConsts+0(SB)/8, $const_q0
DATA ·qConsts+8(SB)/8, $const_q1
DATA ·qConsts+16(SB)/8, $const_q2
DATA ·qConsts+24(SB)/8, $const_q3
DATA ·qConsts+32(SB)/8, $const_qInvNeg
GLOBL ·qConsts(SB), RODATA|NOPTR, $40

// func mul(z, a, b *Element)
//
// Mul's kernel. With ADX and BMI2 it runs MONTMUL; z is stored only after
// the last load of a and b, so it may alias either. Without them it jumps
// to mulGeneric with the arguments in place. useADX is fixed at init, so
// the branch depends only on the CPU.
TEXT ·mul(SB), NOSPLIT, $0-24
	CMPB USEADX(SB), $0
	JEQ  generic
	MOVQ a+8(FP), DI
	MOVQ 0(DI), R8
	MOVQ 8(DI), R9
	MOVQ 16(DI), R10
	MOVQ 24(DI), R11
	MOVQ b+16(FP), SI
	MONTMUL
	MOVQ z+0(FP), SI
	MOVQ BX, 0(SI)
	MOVQ R12, 8(SI)
	MOVQ R13, 16(SI)
	MOVQ R14, 24(SI)
	RET

generic:
	JMP ·mulGeneric(SB)

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
