// Package linalg implements the dense linear algebra needed by the GTM
// trainer and interpolator: row-major matrices, cache-blocked and
// goroutine-parallel multiplication, Cholesky factorization, and
// symmetric positive-definite solves.
package linalg

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"sync"
)

// Matrix is a dense row-major matrix.
type Matrix struct {
	Rows, Cols int
	Data       []float64 // len == Rows*Cols
}

// NewMatrix allocates a zero matrix of the given shape. It panics on
// non-positive dimensions, which indicate a caller bug.
func NewMatrix(rows, cols int) *Matrix {
	if rows <= 0 || cols <= 0 {
		panic(fmt.Sprintf("linalg: invalid shape %dx%d", rows, cols))
	}
	return &Matrix{Rows: rows, Cols: cols, Data: make([]float64, rows*cols)}
}

// FromRows builds a matrix from a slice of equal-length rows.
func FromRows(rows [][]float64) *Matrix {
	if len(rows) == 0 || len(rows[0]) == 0 {
		panic("linalg: FromRows needs at least one non-empty row")
	}
	m := NewMatrix(len(rows), len(rows[0]))
	for i, r := range rows {
		if len(r) != m.Cols {
			panic(fmt.Sprintf("linalg: ragged row %d: %d vs %d", i, len(r), m.Cols))
		}
		copy(m.Row(i), r)
	}
	return m
}

// At returns element (i,j).
func (m *Matrix) At(i, j int) float64 { return m.Data[i*m.Cols+j] }

// Set assigns element (i,j).
func (m *Matrix) Set(i, j int, v float64) { m.Data[i*m.Cols+j] = v }

// Row returns a mutable view of row i.
func (m *Matrix) Row(i int) []float64 { return m.Data[i*m.Cols : (i+1)*m.Cols] }

// Clone returns a deep copy.
func (m *Matrix) Clone() *Matrix {
	out := NewMatrix(m.Rows, m.Cols)
	copy(out.Data, m.Data)
	return out
}

// Transpose returns mᵀ as a new matrix.
func (m *Matrix) Transpose() *Matrix {
	out := NewMatrix(m.Cols, m.Rows)
	for i := 0; i < m.Rows; i++ {
		row := m.Row(i)
		for j, v := range row {
			out.Data[j*out.Cols+i] = v
		}
	}
	return out
}

// AddDiagonal adds v to every diagonal element of a square matrix.
func (m *Matrix) AddDiagonal(v float64) *Matrix {
	if m.Rows != m.Cols {
		panic("linalg: AddDiagonal on non-square matrix")
	}
	for i := 0; i < m.Rows; i++ {
		m.Data[i*m.Cols+i] += v
	}
	return m
}

// blockSize is the tile edge used by the cache-blocked multiply.
const blockSize = 64

// Mul returns a×b using a cache-blocked single-threaded kernel.
func Mul(a, b *Matrix) *Matrix {
	if a.Cols != b.Rows {
		panic(fmt.Sprintf("linalg: Mul shape mismatch %dx%d × %dx%d", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	out := NewMatrix(a.Rows, b.Cols)
	mulRange(a, b, out, 0, a.Rows)
	return out
}

// MulParallel returns a×b, splitting row bands across GOMAXPROCS workers.
// Falls back to the serial kernel for small outputs where goroutine
// overhead dominates.
func MulParallel(a, b *Matrix) *Matrix {
	if a.Cols != b.Rows {
		panic(fmt.Sprintf("linalg: MulParallel shape mismatch %dx%d × %dx%d", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	out := NewMatrix(a.Rows, b.Cols)
	workers := runtime.GOMAXPROCS(0)
	if workers > a.Rows {
		workers = a.Rows
	}
	if workers <= 1 || a.Rows*b.Cols < 64*64 {
		mulRange(a, b, out, 0, a.Rows)
		return out
	}
	var wg sync.WaitGroup
	band := (a.Rows + workers - 1) / workers
	for w := 0; w < workers; w++ {
		lo := w * band
		hi := lo + band
		if hi > a.Rows {
			hi = a.Rows
		}
		if lo >= hi {
			break
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			mulRange(a, b, out, lo, hi)
		}(lo, hi)
	}
	wg.Wait()
	return out
}

// mulRange computes out[lo:hi] = a[lo:hi] × b with ikj loop order and
// tiling over the k dimension.
func mulRange(a, b, out *Matrix, lo, hi int) {
	n, p := a.Cols, b.Cols
	for k0 := 0; k0 < n; k0 += blockSize {
		k1 := k0 + blockSize
		if k1 > n {
			k1 = n
		}
		for i := lo; i < hi; i++ {
			arow := a.Row(i)
			orow := out.Row(i)
			for k := k0; k < k1; k++ {
				aik := arow[k]
				if aik == 0 {
					continue
				}
				brow := b.Data[k*p : (k+1)*p]
				for j, bv := range brow {
					orow[j] += aik * bv
				}
			}
		}
	}
}

// ErrNotPositiveDefinite reports a failed Cholesky factorization.
var ErrNotPositiveDefinite = errors.New("linalg: matrix not positive definite")

// Cholesky computes the lower-triangular L with L·Lᵀ = a for a symmetric
// positive-definite matrix.
func Cholesky(a *Matrix) (*Matrix, error) {
	if a.Rows != a.Cols {
		return nil, fmt.Errorf("linalg: Cholesky on non-square %dx%d matrix", a.Rows, a.Cols)
	}
	n := a.Rows
	l := NewMatrix(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j <= i; j++ {
			sum := a.At(i, j)
			li, lj := l.Row(i), l.Row(j)
			for k := 0; k < j; k++ {
				sum -= li[k] * lj[k]
			}
			if i == j {
				if sum <= 0 || math.IsNaN(sum) {
					return nil, ErrNotPositiveDefinite
				}
				li[j] = math.Sqrt(sum)
			} else {
				li[j] = sum / lj[j]
			}
		}
	}
	return l, nil
}

// SolveSPD solves a·X = b for symmetric positive-definite a via Cholesky.
// b may have multiple right-hand-side columns.
func SolveSPD(a, b *Matrix) (*Matrix, error) {
	if a.Rows != b.Rows {
		return nil, fmt.Errorf("linalg: SolveSPD shape mismatch %dx%d vs %dx%d", a.Rows, a.Cols, b.Rows, b.Cols)
	}
	l, err := Cholesky(a)
	if err != nil {
		return nil, err
	}
	n, m := a.Rows, b.Cols
	x := b.Clone()
	// Forward substitution: L·Y = B.
	for i := 0; i < n; i++ {
		li := l.Row(i)
		xi := x.Row(i)
		for k := 0; k < i; k++ {
			lik := li[k]
			if lik == 0 {
				continue
			}
			xk := x.Row(k)
			for c := 0; c < m; c++ {
				xi[c] -= lik * xk[c]
			}
		}
		inv := 1 / li[i]
		for c := 0; c < m; c++ {
			xi[c] *= inv
		}
	}
	// Backward substitution: Lᵀ·X = Y.
	for i := n - 1; i >= 0; i-- {
		xi := x.Row(i)
		for k := i + 1; k < n; k++ {
			lki := l.At(k, i)
			if lki == 0 {
				continue
			}
			xk := x.Row(k)
			for c := 0; c < m; c++ {
				xi[c] -= lki * xk[c]
			}
		}
		inv := 1 / l.At(i, i)
		for c := 0; c < m; c++ {
			xi[c] *= inv
		}
	}
	return x, nil
}

// Dot returns the inner product of two equal-length vectors.
func Dot(a, b []float64) float64 {
	if len(a) != len(b) {
		panic(fmt.Sprintf("linalg: Dot length mismatch %d vs %d", len(a), len(b)))
	}
	var s float64
	for i := range a {
		s += a[i] * b[i]
	}
	return s
}

// SquaredDistance returns ‖a−b‖².
func SquaredDistance(a, b []float64) float64 {
	if len(a) != len(b) {
		panic(fmt.Sprintf("linalg: SquaredDistance length mismatch %d vs %d", len(a), len(b)))
	}
	var s float64
	for i := range a {
		d := a[i] - b[i]
		s += d * d
	}
	return s
}
