package linalg

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func approxEqual(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

// MaxAbsDiff returns the largest absolute element-wise difference.
func MaxAbsDiff(a, b *Matrix) float64 {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		panic("MaxAbsDiff: shape mismatch")
	}
	var max float64
	for i := range a.Data {
		max = math.Max(max, math.Abs(a.Data[i]-b.Data[i]))
	}
	return max
}

func randomMatrix(rng *rand.Rand, rows, cols int) *Matrix {
	m := NewMatrix(rows, cols)
	for i := range m.Data {
		m.Data[i] = rng.NormFloat64()
	}
	return m
}

// randomSPD builds a well-conditioned symmetric positive-definite matrix.
func randomSPD(rng *rand.Rand, n int) *Matrix {
	a := randomMatrix(rng, n, n)
	spd := Mul(a, a.Transpose())
	spd.AddDiagonal(float64(n)) // guarantee positive definiteness
	return spd
}

func TestMulSmall(t *testing.T) {
	a := FromRows([][]float64{{1, 2}, {3, 4}})
	b := FromRows([][]float64{{5, 6}, {7, 8}})
	c := Mul(a, b)
	want := FromRows([][]float64{{19, 22}, {43, 50}})
	if MaxAbsDiff(c, want) > 1e-12 {
		t.Errorf("Mul = %v, want %v", c.Data, want.Data)
	}
}

func TestMulIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	a := randomMatrix(rng, 7, 7)
	identity := NewMatrix(7, 7).AddDiagonal(1)
	if MaxAbsDiff(Mul(a, identity), a) > 1e-12 {
		t.Error("a × I != a")
	}
	if MaxAbsDiff(Mul(identity, a), a) > 1e-12 {
		t.Error("I × a != a")
	}
}

func TestMulNonSquare(t *testing.T) {
	a := FromRows([][]float64{{1, 0, 2}, {0, 3, -1}})
	b := FromRows([][]float64{{3, 1}, {2, 1}, {1, 0}})
	c := Mul(a, b)
	want := FromRows([][]float64{{5, 1}, {5, 3}})
	if MaxAbsDiff(c, want) > 1e-12 {
		t.Errorf("Mul = %v, want %v", c.Data, want.Data)
	}
}

func TestMulParallelMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, shape := range []struct{ m, n, p int }{
		{1, 1, 1}, {2, 3, 4}, {50, 70, 30}, {128, 96, 200}, {300, 64, 150},
	} {
		a := randomMatrix(rng, shape.m, shape.n)
		b := randomMatrix(rng, shape.n, shape.p)
		serial := Mul(a, b)
		parallel := MulParallel(a, b)
		if d := MaxAbsDiff(serial, parallel); d > 1e-9 {
			t.Errorf("shape %v: parallel differs from serial by %g", shape, d)
		}
	}
}

func TestMulShapeMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Mul with mismatched shapes should panic")
		}
	}()
	Mul(NewMatrix(2, 3), NewMatrix(2, 3))
}

func TestTranspose(t *testing.T) {
	a := FromRows([][]float64{{1, 2, 3}, {4, 5, 6}})
	at := a.Transpose()
	if at.Rows != 3 || at.Cols != 2 {
		t.Fatalf("shape = %dx%d", at.Rows, at.Cols)
	}
	for i := 0; i < a.Rows; i++ {
		for j := 0; j < a.Cols; j++ {
			if a.At(i, j) != at.At(j, i) {
				t.Errorf("transpose mismatch at %d,%d", i, j)
			}
		}
	}
}

// Property: (AB)ᵀ = BᵀAᵀ.
func TestTransposeProduct(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		m, n, p := 1+r.Intn(20), 1+r.Intn(20), 1+r.Intn(20)
		a := randomMatrix(rng, m, n)
		b := randomMatrix(rng, n, p)
		left := Mul(a, b).Transpose()
		right := Mul(b.Transpose(), a.Transpose())
		return MaxAbsDiff(left, right) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestCholeskyReconstruction(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, n := range []int{1, 2, 5, 20, 64} {
		a := randomSPD(rng, n)
		l, err := Cholesky(a)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if d := MaxAbsDiff(Mul(l, l.Transpose()), a); d > 1e-8*float64(n) {
			t.Errorf("n=%d: ‖LLᵀ−A‖∞ = %g", n, d)
		}
		// L must be lower triangular.
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				if l.At(i, j) != 0 {
					t.Errorf("n=%d: upper part nonzero at %d,%d", n, i, j)
				}
			}
		}
	}
}

func TestCholeskyNotPD(t *testing.T) {
	a := FromRows([][]float64{{1, 2}, {2, 1}}) // eigenvalues 3, -1
	if _, err := Cholesky(a); err != ErrNotPositiveDefinite {
		t.Errorf("err = %v, want ErrNotPositiveDefinite", err)
	}
}

func TestSolveSPD(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	for _, n := range []int{1, 3, 10, 40} {
		a := randomSPD(rng, n)
		want := randomMatrix(rng, n, 3)
		b := Mul(a, want)
		got, err := SolveSPD(a, b)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if d := MaxAbsDiff(got, want); d > 1e-6 {
			t.Errorf("n=%d: solution error %g", n, d)
		}
	}
}

// Property: SolveSPD(A, A·x) recovers x for random SPD A.
func TestSolveSPDQuick(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(15)
		a := randomSPD(rng, n)
		x := randomMatrix(rng, n, 1)
		b := Mul(a, x)
		got, err := SolveSPD(a, b)
		if err != nil {
			return false
		}
		return MaxAbsDiff(got, x) < 1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestAddDiagonal(t *testing.T) {
	a := NewMatrix(3, 3)
	a.AddDiagonal(2.5)
	for i := 0; i < 3; i++ {
		if a.At(i, i) != 2.5 {
			t.Errorf("diag[%d] = %v", i, a.At(i, i))
		}
	}
}

func TestDotAndSquaredDistance(t *testing.T) {
	a := []float64{1, 2, 3}
	b := []float64{4, 5, 6}
	if Dot(a, b) != 32 {
		t.Errorf("Dot = %v, want 32", Dot(a, b))
	}
	if SquaredDistance(a, b) != 27 {
		t.Errorf("SquaredDistance = %v, want 27", SquaredDistance(a, b))
	}
}

func TestFromRowsRaggedPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("ragged FromRows should panic")
		}
	}()
	FromRows([][]float64{{1, 2}, {3}})
}

func BenchmarkMulParallel256(b *testing.B) {
	rng := rand.New(rand.NewSource(8))
	x := randomMatrix(rng, 256, 256)
	y := randomMatrix(rng, 256, 256)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MulParallel(x, y)
	}
}

func TestConstructorErrorPaths(t *testing.T) {
	for _, fn := range []func(){
		func() { NewMatrix(0, 3) },
		func() { NewMatrix(3, -1) },
		func() { FromRows(nil) },
		func() { FromRows([][]float64{{}}) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic for invalid construction")
				}
			}()
			fn()
		}()
	}
}

func TestShapeMismatchPanics(t *testing.T) {
	a := NewMatrix(2, 2)
	b := NewMatrix(3, 3)
	for _, fn := range []func(){
		func() { NewMatrix(2, 3).AddDiagonal(1) },
		func() { MulParallel(a, NewMatrix(3, 2)) },
		func() { MaxAbsDiff(a, b) },
		func() { Dot([]float64{1}, []float64{1, 2}) },
		func() { SquaredDistance([]float64{1}, []float64{1, 2}) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic for shape mismatch")
				}
			}()
			fn()
		}()
	}
}

func TestSolveSPDErrorPaths(t *testing.T) {
	if _, err := Cholesky(NewMatrix(2, 3)); err == nil {
		t.Error("non-square Cholesky accepted")
	}
	if _, err := SolveSPD(NewMatrix(2, 2), NewMatrix(3, 1)); err == nil {
		t.Error("mismatched SolveSPD accepted")
	}
	notPD := FromRows([][]float64{{0, 1}, {1, 0}})
	if _, err := SolveSPD(notPD, NewMatrix(2, 1)); err == nil {
		t.Error("non-PD SolveSPD accepted")
	}
}

func TestSetAndAt(t *testing.T) {
	m := NewMatrix(2, 2)
	m.Set(1, 0, 7)
	if m.At(1, 0) != 7 {
		t.Error("Set/At mismatch")
	}
}
