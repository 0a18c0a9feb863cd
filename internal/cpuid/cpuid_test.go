package cpuid

import (
	"os"
	"runtime"
	"strings"
	"testing"
)

// The probe agrees with the flags Linux reports for the first CPU, when
// there are any to read.
func TestProbeMatchesProcCPUInfo(t *testing.T) {
	if runtime.GOOS != "linux" || runtime.GOARCH != "amd64" {
		t.Skip("compares against /proc/cpuinfo's x86 flags")
	}
	raw, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		t.Skip(err)
	}
	flags := map[string]bool{}
	for _, line := range strings.Split(string(raw), "\n") {
		if name, value, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(name) == "flags" {
			for _, f := range strings.Fields(value) {
				flags[f] = true
			}
			break
		}
	}
	if len(flags) == 0 {
		t.Skip("no flags line in /proc/cpuinfo")
	}
	if HasAVX() != flags["avx"] || HasAVX2() != flags["avx2"] {
		t.Errorf("probe: AVX %v, AVX2 %v; /proc/cpuinfo: avx %v, avx2 %v", HasAVX(), HasAVX2(), flags["avx"], flags["avx2"])
	}
	if HasAVX2() && !HasAVX() {
		t.Error("AVX2 without AVX")
	}
}
