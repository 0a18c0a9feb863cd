package gtm

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"hash/crc32"
	"math"
	"strconv"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/linalg"
	"repro/internal/workload"
)

func trainSmall(t *testing.T, n int) (*Model, []float64, []int) {
	t.Helper()
	pts, labels := workload.ChemicalPointsLabeled(3, n, 3)
	model, err := Train(pts, workload.PubChemDims, Config{
		LatentGridSize: 8,
		BasisGridSize:  3,
		MaxIter:        20,
		Seed:           5,
	})
	if err != nil {
		t.Fatalf("Train: %v", err)
	}
	return model, pts, labels
}

func TestGridShape(t *testing.T) {
	g := grid(4)
	if g.Rows != 16 || g.Cols != 2 {
		t.Fatalf("grid shape %dx%d", g.Rows, g.Cols)
	}
	// Corners must be at ±1.
	first, last := g.Row(0), g.Row(15)
	if first[0] != -1 || first[1] != -1 || last[0] != 1 || last[1] != 1 {
		t.Errorf("grid corners: %v, %v", first, last)
	}
	single := grid(1)
	if single.Row(0)[0] != 0 || single.Row(0)[1] != 0 {
		t.Error("1-point grid should sit at origin")
	}
}

func TestBasisMatrixProperties(t *testing.T) {
	latent := grid(5)
	centers := grid(2)
	phi := basisMatrix(latent, centers, 1.0)
	if phi.Rows != 25 || phi.Cols != 5 {
		t.Fatalf("phi shape %dx%d", phi.Rows, phi.Cols)
	}
	for i := 0; i < phi.Rows; i++ {
		row := phi.Row(i)
		if row[len(row)-1] != 1 {
			t.Errorf("row %d bias = %v, want 1", i, row[len(row)-1])
		}
		for j := 0; j < len(row)-1; j++ {
			if row[j] <= 0 || row[j] > 1 {
				t.Errorf("phi[%d][%d] = %v outside (0,1]", i, j, row[j])
			}
		}
	}
}

func TestTrainImprovesLikelihood(t *testing.T) {
	model, _, _ := trainSmall(t, 300)
	if len(model.LogL) < 2 {
		t.Fatalf("only %d iterations recorded", len(model.LogL))
	}
	first, last := model.LogL[0], model.LogL[len(model.LogL)-1]
	if last <= first {
		t.Errorf("log-likelihood did not improve: %.2f → %.2f", first, last)
	}
	// EM must be (near-)monotonic.
	for i := 1; i < len(model.LogL); i++ {
		if model.LogL[i] < model.LogL[i-1]-math.Abs(model.LogL[i-1])*1e-6 {
			t.Errorf("log-likelihood decreased at iter %d: %.4f → %.4f",
				i, model.LogL[i-1], model.LogL[i])
		}
	}
	if model.Beta <= 0 {
		t.Errorf("beta = %v, want positive", model.Beta)
	}
}

func TestInterpolateSeparatesClusters(t *testing.T) {
	model, _, _ := trainSmall(t, 300)
	// Fresh out-of-sample points from the same generator distribution.
	pts, labels := workload.ChemicalPointsLabeled(3, 200, 3)
	coords, err := model.Interpolate(pts, workload.PubChemDims)
	if err != nil {
		t.Fatalf("Interpolate: %v", err)
	}
	if len(coords) != 200*LatentDims {
		t.Fatalf("got %d coords", len(coords))
	}
	// All embeddings must live inside the latent square.
	for i := 0; i < len(coords); i++ {
		if coords[i] < -1-1e-9 || coords[i] > 1+1e-9 {
			t.Fatalf("coord %d = %v outside [-1,1]", i, coords[i])
		}
	}
	// Same-cluster latent distances must be smaller on average than
	// cross-cluster distances: the map separates the mixture.
	var same, cross float64
	var nSame, nCross int
	for i := 0; i < 200; i++ {
		for j := i + 1; j < 200; j++ {
			d := linalg.SquaredDistance(coords[i*2:i*2+2], coords[j*2:j*2+2])
			if labels[i] == labels[j] {
				same += d
				nSame++
			} else {
				cross += d
				nCross++
			}
		}
	}
	if nSame == 0 || nCross == 0 {
		t.Skip("degenerate labels")
	}
	if same/float64(nSame) >= cross/float64(nCross) {
		t.Errorf("within-cluster latent distance %.4f ≥ cross-cluster %.4f",
			same/float64(nSame), cross/float64(nCross))
	}
}

func TestInterpolateMatchesTrainingAssignments(t *testing.T) {
	model, pts, _ := trainSmall(t, 200)
	// Interpolating the training points should give finite, in-square coords.
	coords, err := model.Interpolate(pts, workload.PubChemDims)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range coords {
		if math.IsNaN(c) || math.IsInf(c, 0) {
			t.Fatal("non-finite embedding")
		}
	}
}

func TestTrainInputValidation(t *testing.T) {
	if _, err := Train(nil, 10, Config{}); err == nil {
		t.Error("empty data should error")
	}
	if _, err := Train(make([]float64, 7), 3, Config{}); err == nil {
		t.Error("ragged data should error")
	}
	if _, err := Train(make([]float64, 6), 0, Config{}); err == nil {
		t.Error("zero dims should error")
	}
	if _, err := Train(make([]float64, 3), 3, Config{}); err == nil {
		t.Error("single point should error")
	}
}

func TestInterpolateDimsMismatch(t *testing.T) {
	model, _, _ := trainSmall(t, 100)
	if _, err := model.Interpolate(make([]float64, 10), 10); err == nil {
		t.Error("dims mismatch should error")
	}
	if _, err := model.Interpolate(make([]float64, workload.PubChemDims+1), workload.PubChemDims); err == nil {
		t.Error("ragged points should error")
	}
}

func TestResponsibilitiesSumToOne(t *testing.T) {
	model, pts, _ := trainSmall(t, 120)
	x := &linalg.Matrix{Rows: 120, Cols: workload.PubChemDims, Data: pts}
	r, _, err := responsibilities(model, x)
	if err != nil {
		t.Fatal(err)
	}
	for j := 0; j < x.Rows; j++ {
		sum := 0.0
		for i := 0; i < model.K(); i++ {
			v := r.At(i, j)
			if v < 0 || v > 1 {
				t.Fatalf("r[%d][%d] = %v outside [0,1]", i, j, v)
			}
			sum += v
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Fatalf("column %d sums to %v", j, sum)
		}
	}
}

func TestModelSerializationRoundTrip(t *testing.T) {
	model, pts, _ := trainSmall(t, 150)
	blob, err := model.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	back, err := UnmarshalModel(blob)
	if err != nil {
		t.Fatal(err)
	}
	if back.Beta != model.Beta || back.D != model.D {
		t.Errorf("scalar fields differ: beta %v vs %v, D %d vs %d",
			back.Beta, model.Beta, back.D, model.D)
	}
	a, err := model.Interpolate(pts[:10*workload.PubChemDims], workload.PubChemDims)
	if err != nil {
		t.Fatal(err)
	}
	b, err := back.Interpolate(pts[:10*workload.PubChemDims], workload.PubChemDims)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("embedding %d differs after round trip: %v vs %v", i, a[i], b[i])
		}
	}
}

func TestUnmarshalModelCorrupt(t *testing.T) {
	if _, err := UnmarshalModel([]byte("junk")); err == nil {
		t.Error("corrupt model should error")
	}
	// A model whose matrices disagree on their shapes must be refused,
	// not panic projecting Y = Φ·W.
	model, _, _ := trainSmall(t, 60)
	for name, corrupt := range map[string]func(*modelWire){
		"short W":            func(w *modelWire) { w.W = w.W[:len(w.W)-1] },
		"Φ columns ≠ W rows": func(w *modelWire) { w.PhiCols++ },
		"W columns ≠ D":      func(w *modelWire) { w.D++ },
		"3-D latent points":  func(w *modelWire) { w.LatentCols = 3 },
		// Train never writes these; Interpolate would weight far points
		// over near ones, or return NaN.
		"β = 0":   func(w *modelWire) { w.Beta = 0 },
		"β < 0":   func(w *modelWire) { w.Beta = -w.Beta },
		"β = NaN": func(w *modelWire) { w.Beta = math.NaN() },
	} {
		wire := modelWire{
			LatentRows: model.Latent.Rows, LatentCols: model.Latent.Cols, Latent: model.Latent.Data,
			PhiRows: model.Phi.Rows, PhiCols: model.Phi.Cols, Phi: model.Phi.Data,
			WRows: model.W.Rows, WCols: model.W.Cols, W: model.W.Data,
			Beta: model.Beta, D: model.D,
		}
		corrupt(&wire)
		var buf bytes.Buffer
		if err := gob.NewEncoder(&buf).Encode(wire); err != nil {
			t.Fatal(err)
		}
		if _, err := UnmarshalModel(buf.Bytes()); err == nil {
			t.Errorf("%s: decoded, want an error", name)
		}
	}
}

// A point no projection is at a finite distance from has no posterior
// mean: every log-weight is −∞ (or NaN), and the normalisation would
// make its coordinates NaN.
func TestInterpolateRefusesPointsAtNoFiniteDistance(t *testing.T) {
	model, _, _ := trainSmall(t, 60)
	for name, v := range map[string]float64{
		"NaN coordinate":           math.NaN(),
		"+Inf coordinate":          math.Inf(1),
		"-Inf coordinate":          math.Inf(-1),
		"squares overflow (1e200)": 1e200,
	} {
		pts := workload.ChemicalPoints(4, 3, 3)
		pts[2*workload.PubChemDims+7] = v
		coords, err := model.Interpolate(pts, workload.PubChemDims)
		if err == nil {
			t.Errorf("%s: got %v, want an error", name, coords[4:])
			continue
		}
		if !strings.Contains(err.Error(), "point 2 ") {
			t.Errorf("%s: error %q does not name point 2", name, err)
		}
	}
}

func TestShardRoundTrip(t *testing.T) {
	pts := workload.ChemicalPoints(9, 40, 2)
	blob, err := EncodeShard(pts, workload.PubChemDims)
	if err != nil {
		t.Fatal(err)
	}
	back, dims, err := DecodeShard(blob)
	if err != nil {
		t.Fatal(err)
	}
	if dims != workload.PubChemDims || len(back) != len(pts) {
		t.Fatalf("shape %d×? dims=%d", len(back), dims)
	}
	for i := range pts {
		if back[i] != pts[i] {
			t.Fatal("shard values differ")
		}
	}
	// The format, byte for byte: magic "GTM1", dims, points, each a
	// little-endian uint32, then every value's little-endian float64 bits.
	small, err := EncodeShard([]float64{1, -2, 0.5, 3, 0, -0.25}, 3)
	if err != nil {
		t.Fatal(err)
	}
	want := []byte{
		0x31, 0x4d, 0x54, 0x47, 3, 0, 0, 0, 2, 0, 0, 0,
		0, 0, 0, 0, 0, 0, 0xf0, 0x3f, // 1
		0, 0, 0, 0, 0, 0, 0x00, 0xc0, // -2
		0, 0, 0, 0, 0, 0, 0xe0, 0x3f, // 0.5
		0, 0, 0, 0, 0, 0, 0x08, 0x40, // 3
		0, 0, 0, 0, 0, 0, 0x00, 0x00, // 0
		0, 0, 0, 0, 0, 0, 0xd0, 0xbf, // -0.25
	}
	if !bytes.Equal(small, want) {
		t.Fatalf("EncodeShard wrote\n% x\nwant\n% x", small, want)
	}
}

func TestShardValidation(t *testing.T) {
	if _, err := EncodeShard(make([]float64, 5), 2); err == nil {
		t.Error("ragged shard should error")
	}
	if _, _, err := DecodeShard([]byte("definitely not a shard")); err == nil {
		t.Error("corrupt shard should error")
	}
	// The header holds both as 32 bits: beyond that, a shard would
	// decode to some other shape, or not at all. A 32-bit int cannot
	// hold such a shape.
	if strconv.IntSize == 64 {
		for _, dims := range []int64{1<<32 + 166, 1 << 32} {
			if _, err := EncodeShard(nil, int(dims)); err == nil {
				t.Errorf("EncodeShard(nil, %d) encoded a shard, want an error", dims)
			}
		}
	}
}

// shardBytes is a shard as EncodeShard lays it out: header, body.
func shardBytes(magic, dims, n uint32, body []byte) []byte {
	raw := binary.LittleEndian.AppendUint32(nil, magic)
	raw = binary.LittleEndian.AppendUint32(raw, dims)
	raw = binary.LittleEndian.AppendUint32(raw, n)
	return append(raw, body...)
}

// gzipStored wraps raw in one gzip member holding one stored deflate
// block: the form shards had when they were gzipped, spelt by hand.
func gzipStored(raw []byte) []byte {
	out := []byte{0x1f, 0x8b, 8, 0, 0, 0, 0, 0, 0, 0xff, 1}
	out = binary.LittleEndian.AppendUint16(out, uint16(len(raw)))
	out = binary.LittleEndian.AppendUint16(out, ^uint16(len(raw)))
	out = append(out, raw...)
	out = binary.LittleEndian.AppendUint32(out, crc32.ChecksumIEEE(raw))
	return binary.LittleEndian.AppendUint32(out, uint32(len(raw)))
}

// malformedShards are shards DecodeShard must refuse, and good is one it
// must decode: 4 points × 166 dims.
func malformedShards(t testing.TB) (good []byte, bad map[string][]byte) {
	good, err := EncodeShard(workload.ChemicalPoints(9, 4, 2), workload.PubChemDims)
	if err != nil {
		t.Fatal(err)
	}
	body := good[12:]
	return good, map[string][]byte{
		"truncated body":             shardBytes(shardMagic, workload.PubChemDims, 4, body[:len(body)-8]),
		"trailing data":              append(bytes.Clone(good), make([]byte, 8)...),
		"body not a multiple of 8":   shardBytes(shardMagic, workload.PubChemDims, 4, append(bytes.Clone(body), 0, 0, 0)),
		"cut in half":                good[:len(good)/2],
		"zero dims":                  shardBytes(shardMagic, 0, 4, nil),
		"bad magic":                  shardBytes(shardMagic+1, workload.PubChemDims, 4, body),
		"short header":               shardBytes(shardMagic, workload.PubChemDims, 4, nil)[:10],
		"header claims 2⁶² values":   shardBytes(shardMagic, 1<<31, 1<<31, nil),
		"gzipped, the parent format": gzipStored(good[:12+8*workload.PubChemDims]),
	}
}

// DecodeShard reads exactly the body its header announces, so each of
// these malformed shards must fail rather than decode.
func TestDecodeShardRejectsMalformed(t *testing.T) {
	good, bad := malformedShards(t)
	for name, shard := range bad {
		if pts, dims, err := DecodeShard(shard); err == nil {
			t.Errorf("%s: decoded %d values × %d dims, want an error", name, len(pts), dims)
		}
	}
	if _, _, err := DecodeShard(good); err != nil {
		t.Fatalf("the unmodified shard: %v", err)
	}
}

// On arbitrary bytes DecodeShard errors or decodes, never panics, and
// whatever it decodes EncodeShard writes back as exactly those bytes.
// The seeds are the malformed shards and every prefix of a small one.
func FuzzDecodeShard(f *testing.F) {
	good, bad := malformedShards(f)
	f.Add(good)
	for _, shard := range bad {
		f.Add(shard)
	}
	small, err := EncodeShard([]float64{1, -2, 0.5, 3, 0, -0.25}, 3)
	if err != nil {
		f.Fatal(err)
	}
	for n := range len(small) + 1 {
		f.Add(small[:n])
	}
	f.Fuzz(func(t *testing.T, shard []byte) {
		points, dims, err := DecodeShard(shard)
		if err != nil {
			return
		}
		back, err := EncodeShard(points, dims)
		if err != nil {
			t.Fatalf("decoded %d values × %d dims, which do not encode: %v", len(points), dims, err)
		}
		if !bytes.Equal(back, shard) {
			t.Fatalf("decoded %d values × %d dims, which encode to\n% x\nnot\n% x", len(points), dims, back, shard)
		}
	})
}

// Property: embedding round trip is exact for arbitrary float vectors.
func TestQuickEmbeddingRoundTrip(t *testing.T) {
	f := func(vals []float64) bool {
		back, err := DecodeEmbedding(EncodeEmbedding(vals))
		if err != nil || len(back) != len(vals) {
			return false
		}
		for i := range vals {
			// NaN-safe comparison via bit equality semantics.
			if back[i] != vals[i] && !(math.IsNaN(back[i]) && math.IsNaN(vals[i])) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestRunEndToEnd(t *testing.T) {
	model, _, _ := trainSmall(t, 150)
	pts := workload.ChemicalPoints(11, 60, 3)
	shard, err := EncodeShard(pts, workload.PubChemDims)
	if err != nil {
		t.Fatal(err)
	}
	out, err := Run(model, shard)
	if err != nil {
		t.Fatal(err)
	}
	coords, err := DecodeEmbedding(out)
	if err != nil {
		t.Fatal(err)
	}
	if len(coords) != 60*LatentDims {
		t.Fatalf("got %d coords, want %d", len(coords), 60*LatentDims)
	}
}

// interpolateRef is Interpolate one latent row at a time, with Y computed
// afresh and every exp taken: the form the blocked kernel must reproduce.
func interpolateRef(m *Model, points []float64, dims int) []float64 {
	y := m.project()
	n, k := len(points)/dims, m.K()
	out := make([]float64, n*LatentDims)
	logw := make([]float64, k)
	for j := 0; j < n; j++ {
		xj := points[j*dims : (j+1)*dims]
		maxLog := math.Inf(-1)
		for i := 0; i < k; i++ {
			logw[i] = -0.5 * m.Beta * linalg.SquaredDistance(y.Row(i), xj)
			maxLog = math.Max(maxLog, logw[i])
		}
		var sum, u0, u1 float64
		for i := 0; i < k; i++ {
			wgt := math.Exp(logw[i] - maxLog)
			sum += wgt
			u0 += wgt * m.Latent.Row(i)[0]
			u1 += wgt * m.Latent.Row(i)[1]
		}
		out[j*LatentDims], out[j*LatentDims+1] = u0/sum, u1/sum
	}
	return out
}

// K = 9 and 25 fill one and two distance-kernel groups only in part, so
// zero padding rows sit beside the real ones; the sample includes every
// projection y_k, so each row, the last included, dominates some point. A
// sharp model (large β) makes most exp terms underflow, so the skip is
// exercised.
func TestInterpolateMatchesReference(t *testing.T) {
	pts := workload.ChemicalPoints(3, 120, 3)
	for _, g := range []int{3, 5} {
		model, err := Train(pts, workload.PubChemDims, Config{LatentGridSize: g, BasisGridSize: 2, MaxIter: 5, Seed: 5})
		if err != nil {
			t.Fatal(err)
		}
		sample := append(workload.ChemicalPoints(22, 50, 3), model.project().Data...)
		for _, beta := range []float64{model.Beta, model.Beta * 1e4} {
			model.Beta = beta
			got, err := model.Interpolate(sample, workload.PubChemDims)
			if err != nil {
				t.Fatal(err)
			}
			want := interpolateRef(model, sample, workload.PubChemDims)
			for i := range want {
				if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
					t.Fatalf("K = %d, β = %g: coordinate %d is %v, reference %v", g*g, beta, i, got[i], want[i])
				}
			}
		}
	}
}

func BenchmarkInterpolate1000Points(b *testing.B) {
	pts, _ := workload.ChemicalPointsLabeled(3, 300, 3)
	model, err := Train(pts, workload.PubChemDims, Config{
		LatentGridSize: 8, BasisGridSize: 3, MaxIter: 10, Seed: 5,
	})
	if err != nil {
		b.Fatal(err)
	}
	sample := workload.ChemicalPoints(21, 1000, 3)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := model.Interpolate(sample, workload.PubChemDims); err != nil {
			b.Fatal(err)
		}
	}
}
