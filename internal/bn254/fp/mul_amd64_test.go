package fp

import (
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
