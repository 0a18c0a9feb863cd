// Package gtm implements Generative Topographic Mapping (Bishop,
// Svensén & Williams 1998) and its out-of-sample interpolation extension
// (Bae, Choi, Qiu et al. 2010) — the dimension-reduction workload of the
// paper. A GTM model is trained with EM on a small sample of
// high-dimensional points; GTM Interpolation then projects millions of
// out-of-sample points through the trained model, one independent data
// shard at a time, which is exactly the pleasingly parallel task the
// frameworks distribute.
//
// A GTM task is compute-bound, not memory-bound. On a 2-core amd64 box,
// one 400 × 166 shard (531 KB of points) against a K = 100 model is
// ≈ 6.6 M squared differences in Interpolate. The distance kernel
// (dist.go) computes them sixteen latent rows per pass over a point,
// four 4-wide AVX accumulators where the CPU has AVX and four scalar
// ones per block of four rows elsewhere, with no fused multiply-add, so
// either path gives the bits one linalg.SquaredDistance per pair would.
// With AVX that is about half of Interpolate's ≈ 2 ms (BenchmarkKernelGTM);
// most of the rest is one math.Exp per latent row and point. Inflating the
// gzip-compressed shard in DecodeShard (BenchmarkKernelGTMDecode) is now
// the larger half of Run (BenchmarkKernelGTMRun): the package inflates
// a shard with its own one-pass decoder over the whole byte slice
// (inflate.go) rather than the standard library's stream reader, which
// took more than half. README's kernel table has the measured ns/op.
package gtm

import (
	"errors"
	"fmt"
	"math"
	"math/rand"

	"repro/internal/linalg"
)

// Config controls model structure and training.
type Config struct {
	LatentGridSize int     // latent points per axis; K = n² (default 10)
	BasisGridSize  int     // RBF centers per axis; M = m² (default 4)
	BasisWidth     float64 // RBF width relative to basis spacing (default 1.0)
	Lambda         float64 // weight regularization (default 1e-3)
	MaxIter        int     // EM iterations (default 30)
	Tol            float64 // relative log-likelihood convergence tolerance (default 1e-5)
	Seed           int64   // RNG seed for initialization
}

func (c Config) withDefaults() Config {
	if c.LatentGridSize == 0 {
		c.LatentGridSize = 10
	}
	if c.BasisGridSize == 0 {
		c.BasisGridSize = 4
	}
	if c.BasisWidth == 0 {
		c.BasisWidth = 1.0
	}
	if c.Lambda == 0 {
		c.Lambda = 1e-3
	}
	if c.MaxIter == 0 {
		c.MaxIter = 30
	}
	if c.Tol == 0 {
		c.Tol = 1e-5
	}
	return c
}

// LatentDims is the dimensionality of the GTM latent space (2-D maps,
// as used for visualization in the paper).
const LatentDims = 2

// Model is a trained GTM.
type Model struct {
	Latent *linalg.Matrix // K×2 latent grid points in [-1,1]²
	Phi    *linalg.Matrix // K×(M+1) basis activations (last column bias)
	W      *linalg.Matrix // (M+1)×D weights
	Beta   float64        // noise precision
	D      int            // data dimensionality
	LogL   []float64      // per-iteration training log-likelihood

	// yk is Y = Φ·W, the K×D projections of the latent points into data
	// space, in the distance kernel's layout (dist.go). It is set once the
	// model is final (end of Train, UnmarshalModel): every shard
	// Interpolate sees reads the same one.
	yk []float64
}

// K returns the number of latent points.
func (m *Model) K() int { return m.Latent.Rows }

// project computes Y = Φ·W for the current weights.
func (m *Model) project() *linalg.Matrix { return linalg.MulParallel(m.Phi, m.W) }

// grid returns n² points covering [-1,1]² row-major.
func grid(n int) *linalg.Matrix {
	g := linalg.NewMatrix(n*n, LatentDims)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			row := g.Row(i*n + j)
			if n == 1 {
				row[0], row[1] = 0, 0
				continue
			}
			row[0] = -1 + 2*float64(i)/float64(n-1)
			row[1] = -1 + 2*float64(j)/float64(n-1)
		}
	}
	return g
}

// basisMatrix builds the K×(M+1) RBF activation matrix of latent points
// against basis centers, with a trailing bias column.
func basisMatrix(latent, centers *linalg.Matrix, sigma float64) *linalg.Matrix {
	k, m := latent.Rows, centers.Rows
	phi := linalg.NewMatrix(k, m+1)
	inv := 1 / (2 * sigma * sigma)
	for i := 0; i < k; i++ {
		row := phi.Row(i)
		for j := 0; j < m; j++ {
			row[j] = math.Exp(-linalg.SquaredDistance(latent.Row(i), centers.Row(j)) * inv)
		}
		row[m] = 1
	}
	return phi
}

// Train fits a GTM to data (n points × dims, row-major).
func Train(data []float64, dims int, cfg Config) (*Model, error) {
	cfg = cfg.withDefaults()
	if dims <= 0 {
		return nil, fmt.Errorf("gtm: invalid dims %d", dims)
	}
	if len(data) == 0 || len(data)%dims != 0 {
		return nil, fmt.Errorf("gtm: data length %d not a multiple of dims %d", len(data), dims)
	}
	n := len(data) / dims
	if n < 2 {
		return nil, errors.New("gtm: need at least 2 training points")
	}

	latent := grid(cfg.LatentGridSize)
	centers := grid(cfg.BasisGridSize)
	spacing := 2.0
	if cfg.BasisGridSize > 1 {
		spacing = 2.0 / float64(cfg.BasisGridSize-1)
	}
	phi := basisMatrix(latent, centers, cfg.BasisWidth*spacing)
	x := &linalg.Matrix{Rows: n, Cols: dims, Data: data}

	model := &Model{Latent: latent, Phi: phi, D: dims}
	if err := initWeights(model, x, cfg); err != nil {
		return nil, err
	}

	prevL := math.Inf(-1)
	for iter := 0; iter < cfg.MaxIter; iter++ {
		r, logL, err := responsibilities(model, x)
		if err != nil {
			return nil, err
		}
		model.LogL = append(model.LogL, logL)
		if err := mStep(model, x, r, cfg.Lambda); err != nil {
			return nil, err
		}
		if iter > 0 && math.Abs(logL-prevL) <= cfg.Tol*math.Abs(prevL) {
			break
		}
		prevL = logL
	}
	model.yk = kernelLayout(model.project())
	return model, nil
}

// initWeights seeds W so the latent grid maps onto a 2-D slice of the
// data spanned by two random orthonormal directions scaled to the data
// spread, then sets β from the initial reconstruction.
func initWeights(m *Model, x *linalg.Matrix, cfg Config) error {
	rng := rand.New(rand.NewSource(cfg.Seed + 1))
	n, d := x.Rows, x.Cols
	mean := make([]float64, d)
	for i := 0; i < n; i++ {
		row := x.Row(i)
		for j, v := range row {
			mean[j] += v
		}
	}
	for j := range mean {
		mean[j] /= float64(n)
	}
	variance := 0.0
	for i := 0; i < n; i++ {
		variance += linalg.SquaredDistance(x.Row(i), mean)
	}
	variance /= float64(n * d)
	scale := math.Sqrt(variance)

	// Two random orthonormal directions (Gram–Schmidt).
	e1 := make([]float64, d)
	e2 := make([]float64, d)
	for j := range e1 {
		e1[j] = rng.NormFloat64()
		e2[j] = rng.NormFloat64()
	}
	norm := math.Sqrt(linalg.Dot(e1, e1))
	for j := range e1 {
		e1[j] /= norm
	}
	proj := linalg.Dot(e1, e2)
	for j := range e2 {
		e2[j] -= proj * e1[j]
	}
	norm = math.Sqrt(linalg.Dot(e2, e2))
	for j := range e2 {
		e2[j] /= norm
	}

	// Target projections: Y_k = mean + scale·(u₁·e1 + u₂·e2).
	k := m.K()
	target := linalg.NewMatrix(k, d)
	for i := 0; i < k; i++ {
		u := m.Latent.Row(i)
		row := target.Row(i)
		for j := 0; j < d; j++ {
			row[j] = mean[j] + scale*(u[0]*e1[j]+u[1]*e2[j])
		}
	}
	// Solve (ΦᵀΦ + λI) W = Φᵀ target.
	pt := m.Phi.Transpose()
	a := linalg.MulParallel(pt, m.Phi).AddDiagonal(cfg.Lambda)
	b := linalg.MulParallel(pt, target)
	w, err := linalg.SolveSPD(a, b)
	if err != nil {
		return fmt.Errorf("gtm: weight initialization: %w", err)
	}
	m.W = w

	// β from average reconstruction distance.
	y := m.project()
	sum := 0.0
	for i := 0; i < n; i++ {
		bestD := math.Inf(1)
		for kk := 0; kk < k; kk++ {
			if dd := linalg.SquaredDistance(y.Row(kk), x.Row(i)); dd < bestD {
				bestD = dd
			}
		}
		sum += bestD
	}
	avg := sum / float64(n*d)
	if avg <= 0 {
		avg = 1e-6
	}
	m.Beta = 1 / avg
	return nil
}

// responsibilities computes the K×N posterior matrix and the data
// log-likelihood under the current model.
func responsibilities(m *Model, x *linalg.Matrix) (*linalg.Matrix, float64, error) {
	yk := kernelLayout(m.project())
	k, n, d := m.K(), x.Rows, m.D
	r := linalg.NewMatrix(k, n)
	logPrefactor := 0.5*float64(d)*math.Log(m.Beta/(2*math.Pi)) - math.Log(float64(k))
	logL := 0.0
	col := make([]float64, len(yk)/d)
	for j := 0; j < n; j++ {
		maxLog := logWeights(col, yk, x.Row(j), -0.5*m.Beta, k)
		sum := 0.0
		for i := 0; i < k; i++ {
			col[i] = math.Exp(col[i] - maxLog)
			sum += col[i]
		}
		if sum == 0 || math.IsNaN(sum) {
			return nil, 0, errors.New("gtm: responsibilities underflow; model diverged")
		}
		for i := 0; i < k; i++ {
			r.Set(i, j, col[i]/sum)
		}
		logL += logPrefactor + maxLog + math.Log(sum)
	}
	return r, logL, nil
}

// mStep re-estimates W and β given responsibilities.
func mStep(m *Model, x *linalg.Matrix, r *linalg.Matrix, lambda float64) error {
	k := m.K()
	n, d := x.Rows, x.Cols
	// G = diag(Σ_n r_kn); A = Φᵀ G Φ + (λ/β) I; B = Φᵀ R X.
	g := make([]float64, k)
	for i := 0; i < k; i++ {
		row := r.Row(i)
		s := 0.0
		for _, v := range row {
			s += v
		}
		g[i] = s
	}
	// Φᵀ G Φ: scale Φ rows by g then multiply.
	scaled := m.Phi.Clone()
	for i := 0; i < k; i++ {
		row := scaled.Row(i)
		for j := range row {
			row[j] *= g[i]
		}
	}
	pt := m.Phi.Transpose()
	a := linalg.MulParallel(pt, scaled).AddDiagonal(lambda / m.Beta)
	b := linalg.MulParallel(pt, linalg.MulParallel(r, x))
	w, err := linalg.SolveSPD(a, b)
	if err != nil {
		return fmt.Errorf("gtm: m-step solve: %w", err)
	}
	m.W = w

	// β update: 1/β = (1/ND) Σ_kn r_kn ‖y_k − x_n‖².
	y := m.project()
	sum := 0.0
	for i := 0; i < k; i++ {
		row := r.Row(i)
		yi := y.Row(i)
		for j := 0; j < n; j++ {
			if row[j] == 0 {
				continue
			}
			sum += row[j] * linalg.SquaredDistance(yi, x.Row(j))
		}
	}
	inv := sum / float64(n*d)
	if inv <= 0 || math.IsNaN(inv) {
		return errors.New("gtm: beta update degenerate")
	}
	m.Beta = 1 / inv
	return nil
}

// expUnderflow is below the argument under which math.Exp returns
// exactly 0 (−745.13…), so a term it skips would have added nothing.
const expUnderflow = -746

// Interpolate projects out-of-sample points (n×dims row-major) into the
// latent space, returning n×2 row-major posterior-mean coordinates. This
// is the per-shard computation the frameworks parallelize. Its cost is
// the K×n squared distances to the model's projections, which the
// distance kernel (dist.go) computes sixteen latent rows per pass over
// each point: with AVX where the CPU has it, chosen once at package
// init, else in portable Go. Neither fuses a multiply-add, and each
// distance keeps its own left-to-right sum, so the result is bit for bit
// that of one linalg.SquaredDistance per pair. A point at no finite
// distance from any projection (a NaN or infinite coordinate, or one so
// large its squares overflow) is an error.
func (m *Model) Interpolate(points []float64, dims int) ([]float64, error) {
	if dims != m.D {
		return nil, fmt.Errorf("gtm: point dims %d != model dims %d", dims, m.D)
	}
	if len(points)%dims != 0 {
		return nil, fmt.Errorf("gtm: data length %d not a multiple of dims %d", len(points), dims)
	}
	n := len(points) / dims
	k := m.K()
	latent := m.Latent.Data
	scale := -0.5 * m.Beta
	out := make([]float64, n*LatentDims)
	logw := make([]float64, len(m.yk)/dims)
	for j := 0; j < n; j++ {
		maxLog := logWeights(logw, m.yk, points[j*dims:(j+1)*dims], scale, k)
		// β > 0 keeps every log-weight at or below 0 and a NaN one is
		// never the largest, so −∞ is how a non-finite maximum shows.
		if math.IsInf(maxLog, -1) {
			return nil, fmt.Errorf("gtm: point %d is at no finite distance from the model", j)
		}
		var sum, u0, u1 float64
		for i, lw := range logw[:k] {
			if lw-maxLog < expUnderflow {
				continue
			}
			wgt := math.Exp(lw - maxLog)
			sum += wgt
			u0 += wgt * latent[i*LatentDims]
			u1 += wgt * latent[i*LatentDims+1]
		}
		out[j*LatentDims] = u0 / sum
		out[j*LatentDims+1] = u1 / sum
	}
	return out, nil
}
