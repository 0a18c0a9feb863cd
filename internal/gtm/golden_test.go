package gtm

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"testing"

	"repro/internal/workload"
)

// goldenShapes are the (training points, shard points) shapes of the
// golden corpus: bench/workloads' mixed_tenants GTM job (a model trained
// on 300 points, shards of 400) and two smaller ones.
var goldenShapes = [][2]int{{300, 400}, {120, 100}, {60, 16}}

// goldenShards is how many shards of each shape the corpus holds.
const goldenShards = 2

// goldenCase is one line of testdata/golden.json.
type goldenCase struct {
	Seed          int64
	Train, Points int
	Shard         int
	SHA256        string  // of EncodeEmbedding(Interpolate(shard))
	AbsSum        float64 // Σ|coordinate|: tells a reordered sum from a changed answer
}

// goldenModel trains the model mixed_tenants submits for a seed, on
// trainPoints points, and goldenShard draws that job's i-th shard —
// bench/workloads.mixedJobs' recipe, seed offsets included.
func goldenModel(tb testing.TB, seed int64, trainPoints int) *Model {
	tb.Helper()
	model, err := Train(workload.ChemicalPoints(seed+2, trainPoints, 3), workload.PubChemDims,
		Config{MaxIter: 10, Seed: seed})
	if err != nil {
		tb.Fatal(err)
	}
	return model
}

func goldenShard(seed int64, i, points int) []float64 {
	return workload.ChemicalPoints(seed+100+int64(i), points, 3)
}

// TestGoldenInterpolate pins Interpolate's output bits on a seeded corpus
// to what the kernel produced at PR 22's commit, before any work on it
// (testdata/golden.json was recorded there, on amd64). bench/e2e compares
// every GTM output with a direct kernel call, so a kernel change that
// moves these bits moves them on both sides and the benchmark cannot see
// it; this test can. A digest mismatch whose AbsSum still agrees to 1e-9
// is a reordered floating-point sum (or a fused multiply-add on another
// architecture), which is a decision to take knowingly; one whose AbsSum
// moved is a different answer.
func TestGoldenInterpolate(t *testing.T) {
	raw, err := os.ReadFile("testdata/golden.json")
	if err != nil {
		t.Fatal(err)
	}
	var want []goldenCase
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	const seed = 1
	var got []goldenCase
	for _, shape := range goldenShapes {
		model := goldenModel(t, seed, shape[0])
		for i := 0; i < goldenShards; i++ {
			coords, err := model.Interpolate(goldenShard(seed, i, shape[1]), workload.PubChemDims)
			if err != nil {
				t.Fatal(err)
			}
			c := goldenCase{Seed: seed, Train: shape[0], Points: shape[1], Shard: i,
				SHA256: fmt.Sprintf("%x", sha256.Sum256(EncodeEmbedding(coords)))}
			for _, v := range coords {
				c.AbsSum += math.Abs(v)
			}
			got = append(got, c)
		}
	}
	if len(got) != len(want) {
		t.Fatalf("corpus has %d cases, testdata/golden.json %d", len(got), len(want))
	}
	for i, c := range got {
		switch w := want[i]; {
		case c == w:
		case c.SHA256 != w.SHA256 && math.Abs(c.AbsSum-w.AbsSum) <= 1e-9*w.AbsSum:
			t.Errorf("model on %d points, shard %d of %d: output bits changed, values agree to 1e-9 (Σ|u| %v, recorded %v)",
				c.Train, c.Shard, c.Points, c.AbsSum, w.AbsSum)
		default:
			line, _ := json.Marshal(c)
			t.Errorf("model on %d points, shard %d of %d: a different embedding:\n got %s\nwant %+v", c.Train, c.Shard, c.Points, line, w)
		}
	}
}

var kernelSink []float64

// BenchmarkKernelGTM times Interpolate on one mixed_tenants shard per op
// (400 points × 166 dimensions against the 300-point model), the GTM
// task of bench/e2e; CI's -bench=Kernel smoke picks it up.
func BenchmarkKernelGTM(b *testing.B) {
	const seed = 1
	model := goldenModel(b, seed, 300)
	shards := make([][]float64, 8)
	for i := range shards {
		shards[i] = goldenShard(seed, i, 400)
	}
	b.SetBytes(int64(8 * len(shards[0])))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		coords, err := model.Interpolate(shards[i%len(shards)], workload.PubChemDims)
		if err != nil {
			b.Fatal(err)
		}
		kernelSink = coords
	}
}
