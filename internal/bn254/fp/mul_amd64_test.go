package fp

import (
	"math/big"
	"math/rand"
	"os"
	"runtime"
	"strings"
	"testing"
)

// TestADXKernelSelected checks the CPUID probe against the kernel's own
// view of the CPU: where /proc/cpuinfo lists adx and bmi2, Mul must run the
// assembly kernel, so a broken probe cannot silently drop the speed-up.
func TestADXKernelSelected(t *testing.T) {
	if runtime.GOOS != "linux" {
		t.Skip("reads /proc/cpuinfo")
	}
	info, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		t.Skipf("no /proc/cpuinfo: %v", err)
	}
	for _, line := range strings.Split(string(info), "\n") {
		name, flags, ok := strings.Cut(line, ":")
		if !ok || strings.TrimSpace(name) != "flags" {
			continue
		}
		has := map[string]bool{}
		for _, f := range strings.Fields(flags) {
			has[f] = true
		}
		if has["adx"] && has["bmi2"] && !useADX {
			t.Fatal("/proc/cpuinfo lists adx and bmi2, but Mul runs mulGeneric")
		}
		t.Logf("adx=%v bmi2=%v useADX=%v", has["adx"], has["bmi2"], useADX)
		return
	}
	t.Skip("/proc/cpuinfo has no flags line")
}

// TestMulWithoutADX runs Mul with useADX cleared, as on an amd64 CPU
// without ADX or BMI2, where the assembly entry jumps to mulGeneric with
// the arguments in place.
func TestMulWithoutADX(t *testing.T) {
	defer func(saved bool) { useADX = saved }(useADX)
	useADX = false
	r := rand.New(rand.NewSource(12))
	twoP := new(big.Int).Lsh(modulus, 1)
	for i := 0; i < 1000; i++ {
		a, b := elementOf(new(big.Int).Rand(r, twoP)), elementOf(new(big.Int).Rand(r, twoP))
		var want Element
		mulGeneric(&want, &a, &b)
		if got := a; *got.Mul(&got, &b) != want {
			t.Fatalf("z=a, z.Mul(z, b) (%x, %x) = %x, mulGeneric %x", a, b, got, want)
		}
	}
}
