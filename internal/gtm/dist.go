package gtm

import (
	"math"

	"repro/internal/linalg"
)

// The distance kernel computes the squared distances from one point to
// the model's projections Y = Φ·W, sixteen latent rows per pass over the
// point. Y is stored only in the kernel's layout: its K rows padded with
// zero rows to a multiple of groupRows, each group of 16 rows held as
// four blocks of 4, each block interleaved by dimension ([D][4]float64),
// so one load reads one dimension of four rows.
const (
	groupRows = 16
	blockRows = 4
)

// kernelLayout copies the K×D matrix y into the kernel's layout.
func kernelLayout(y *linalg.Matrix) []float64 {
	d := y.Cols
	out := make([]float64, (y.Rows+groupRows-1)/groupRows*groupRows*d)
	for i := 0; i < y.Rows; i++ {
		block := out[i/blockRows*blockRows*d:]
		for t, v := range y.Row(i) {
			block[t*blockRows+i%blockRows] = v
		}
	}
	return out
}

// distKernel is the kernel that runs: sqDist16Go, or the AVX kernel when
// dist_amd64.go's init finds the CPU and OS support AVX. Both add each
// row's (y−x)² from left to right with no fused multiply-add, so every
// distance is bit for bit linalg.SquaredDistance(y_k, x).
var distKernel = sqDist16Go

// sqDist16 writes to dst the squared distances from x to the 16 rows of
// group, one group of the kernel layout.
func sqDist16(dst, group, x []float64) {
	if len(dst) != groupRows || len(group) != groupRows*len(x) {
		panic("gtm: distance kernel: slice lengths disagree")
	}
	distKernel(dst, group, x)
}

// sqDist16Go is the portable kernel, four scalar accumulators per block,
// and the oracle the AVX kernel is tested against.
func sqDist16Go(dst, group, x []float64) {
	n := blockRows * len(x)
	for b := 0; b < groupRows/blockRows; b++ {
		block := group[b*n : (b+1)*n]
		var s0, s1, s2, s3 float64
		for t, xt := range x {
			y := block[t*blockRows : (t+1)*blockRows : (t+1)*blockRows]
			d0, d1, d2, d3 := y[0]-xt, y[1]-xt, y[2]-xt, y[3]-xt
			s0 += d0 * d0
			s1 += d1 * d1
			s2 += d2 * d2
			s3 += d3 * d3
		}
		dst[b*blockRows], dst[b*blockRows+1], dst[b*blockRows+2], dst[b*blockRows+3] = s0, s1, s2, s3
	}
}

// logWeights sets logw[i] = scale·‖y_i − x‖² for every padded row of yk
// and returns the largest over the first k, the model's real rows.
func logWeights(logw, yk, x []float64, scale float64, k int) float64 {
	span := groupRows * len(x)
	for g := 0; g < len(logw)/groupRows; g++ {
		sqDist16(logw[g*groupRows:(g+1)*groupRows], yk[g*span:(g+1)*span], x)
	}
	maxLog := math.Inf(-1)
	for i, s := range logw[:k] {
		lw := scale * s
		logw[i] = lw
		if lw > maxLog {
			maxLog = lw
		}
	}
	return maxLog
}
