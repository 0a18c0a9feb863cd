package gtm

import (
	"encoding/binary"
	"math"
	"math/rand"
	"testing"

	"repro/internal/linalg"
)

// sameBits is bit equality, except that any NaN equals any NaN: the two
// kernels may propagate different NaN payloads.
func sameBits(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || math.IsNaN(a) && math.IsNaN(b)
}

// checkKernel compares, group by group, the dispatched distance kernel
// with sqDist16Go, and both with linalg.SquaredDistance on the real rows
// and with ‖x‖² on the zero padding rows.
func checkKernel(t *testing.T, y *linalg.Matrix, x []float64) {
	t.Helper()
	yk := kernelLayout(y)
	padded := len(yk) / len(x)
	got, want := make([]float64, padded), make([]float64, padded)
	span := groupRows * len(x)
	for g := 0; g < padded/groupRows; g++ {
		sqDist16(got[g*groupRows:(g+1)*groupRows], yk[g*span:(g+1)*span], x)
		sqDist16Go(want[g*groupRows:(g+1)*groupRows], yk[g*span:(g+1)*span], x)
	}
	zero := make([]float64, len(x))
	for i := range got {
		ref := linalg.SquaredDistance(zero, x)
		if i < y.Rows {
			ref = linalg.SquaredDistance(y.Row(i), x)
		}
		if !sameBits(got[i], want[i]) || !sameBits(want[i], ref) {
			t.Fatalf("K = %d, dims = %d, row %d: kernel %v (%#x), portable %v (%#x), SquaredDistance %v",
				y.Rows, len(x), i, got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]), ref)
		}
	}
}

// specials are the values whose arithmetic differs most between ways of
// computing a sum of squares: signed zeros, subnormals, values whose
// squares overflow, infinities and NaN.
var specials = []float64{0, math.Copysign(0, -1), 5e-324, -2.2250738585072e-308, 1e-160,
	1e200, -1e200, math.MaxFloat64, math.Inf(1), math.Inf(-1), math.NaN()}

func TestSqDistMatchesGeneric(t *testing.T) {
	rng := rand.New(rand.NewSource(34))
	for _, k := range []int{1, 3, 4, 15, 16, 17, 100, 113} {
		for _, dims := range []int{1, 2, 7, 166} {
			// One draw of ordinary values only, and one where about one
			// value in 1+dims/4 is special, so some rows stay finite.
			for _, withSpecials := range []bool{false, true} {
				value := func() float64 {
					if withSpecials && rng.Intn(1+dims/4) == 0 {
						return specials[rng.Intn(len(specials))]
					}
					return rng.NormFloat64() * math.Pow(10, float64(rng.Intn(9)-4))
				}
				y := linalg.NewMatrix(k, dims)
				for i := range y.Data {
					y.Data[i] = value()
				}
				x := make([]float64, dims)
				for i := range x {
					x[i] = value()
				}
				checkKernel(t, y, x)
			}
		}
	}
}

// FuzzSqDist checks the same agreement on fuzzed shapes and values: the
// bytes, read eight at a time and cycled, are the rows of Y and then x.
func FuzzSqDist(f *testing.F) {
	f.Add(uint8(16), uint8(3), []byte{1, 2, 3, 4, 5, 6, 7, 8})
	f.Add(uint8(17), uint8(166), binary.LittleEndian.AppendUint64(nil, math.Float64bits(1e200)))
	f.Add(uint8(5), uint8(2), binary.LittleEndian.AppendUint64(
		binary.LittleEndian.AppendUint64(nil, 0x7ff8000000000001), 1))
	f.Fuzz(func(t *testing.T, k, dims uint8, data []byte) {
		if k == 0 || dims == 0 || len(data) < 8 {
			return
		}
		words := len(data) / 8
		next := 0
		value := func() float64 {
			v := math.Float64frombits(binary.LittleEndian.Uint64(data[next*8:]))
			next = (next + 1) % words
			return v
		}
		y := linalg.NewMatrix(int(k), int(dims))
		for i := range y.Data {
			y.Data[i] = value()
		}
		x := make([]float64, dims)
		for i := range x {
			x[i] = value()
		}
		checkKernel(t, y, x)
	})
}
