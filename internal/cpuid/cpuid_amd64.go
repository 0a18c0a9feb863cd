package cpuid

func init() { hasAVX, hasAVX2 = probe() }

// probe reads AVX from CPUID leaf 1 (ECX bit 28) and AVX2 from leaf 7
// (EBX bit 5), and reports neither unless the OS has enabled XSAVE
// (leaf 1 ECX bit 27) and saves the XMM and YMM state (XCR0 bits 1 and
// 2).
func probe() (avx, avx2 bool)
