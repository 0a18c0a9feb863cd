// Package cpuid answers, once at start-up, which vector instruction sets
// the CPU has and the operating system saves the registers of: the one
// probe the vector kernels in internal/gtm and internal/blast choose
// their path by. On amd64 an assembly probe (CPUID and XGETBV) sets the
// answers in init; on every other architecture nothing sets them, and
// both read false.
package cpuid

var hasAVX, hasAVX2 bool

// HasAVX reports whether the CPU has AVX and the OS saves the YMM
// registers.
func HasAVX() bool { return hasAVX }

// HasAVX2 reports whether the CPU has AVX2 and the OS saves the YMM
// registers.
func HasAVX2() bool { return hasAVX2 }
