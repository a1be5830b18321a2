package fp

// useADX selects the assembly Mul kernel. MULX is a BMI2 instruction and
// ADCX/ADOX are ADX; neither needs OS support (they touch no extended
// register state), so the CPUID feature bits alone decide. The kernels
// read it themselves: mul_amd64.s here, fp2_amd64.s in package bn254.
var useADX = hasADXAndBMI2()

// hasADXAndBMI2 reads CPUID leaf 7, sub-leaf 0: BMI2 is EBX bit 8, ADX is
// EBX bit 19. Leaf 0 reports the highest leaf; below 7 neither exists.
func hasADXAndBMI2() bool {
	maxLeaf, _, _, _ := cpuid(0, 0)
	if maxLeaf < 7 {
		return false
	}
	_, ebx, _, _ := cpuid(7, 0)
	const bmi2, adx = 1 << 8, 1 << 19
	return ebx&bmi2 != 0 && ebx&adx != 0
}

// cpuid executes CPUID with EAX = leaf and ECX = sub.
func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)

// mul sets z = a·b·R⁻¹ mod p with the contract of mulGeneric: the ADX
// kernel where useADX is set, else a jump to mulGeneric.
//
//go:noescape
func mul(z, a, b *Element)
