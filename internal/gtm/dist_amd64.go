package gtm

func init() {
	if cpuHasAVX() {
		distKernel = sqDist16AVX
	}
}

// cpuHasAVX reports whether the CPU has AVX (CPUID leaf 1 ECX bit 28)
// and the OS saves the YMM registers (ECX bit 27 OSXSAVE, then XCR0
// bits 1 and 2).
func cpuHasAVX() bool

// sqDist16AVX is sqDist16Go in four 4-wide AVX accumulators, one per
// block: per dimension it broadcasts x[t], loads the block rows, and
// adds (y−x)² to each lane with VSUBPD, VMULPD and VADDPD, never FMA.
// It reads len(x) values of x and 16·len(x) of group and writes 16 of
// dst; sqDist16 checks those lengths before it is called.
//
//go:noescape
func sqDist16AVX(dst, group, x []float64)
