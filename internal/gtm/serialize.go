package gtm

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"fmt"
	"math"
	"sync"

	"repro/internal/linalg"
)

// modelWire is the serialized form of a trained model.
type modelWire struct {
	LatentRows, LatentCols int
	Latent                 []float64
	PhiRows, PhiCols       int
	Phi                    []float64
	WRows, WCols           int
	W                      []float64
	Beta                   float64
	D                      int
}

// Marshal serializes a trained model (the artifact shipped to every
// worker before interpolation starts, like the paper's trained 100k-point
// GTM seed).
func (m *Model) Marshal() ([]byte, error) {
	wire := modelWire{
		LatentRows: m.Latent.Rows, LatentCols: m.Latent.Cols, Latent: m.Latent.Data,
		PhiRows: m.Phi.Rows, PhiCols: m.Phi.Cols, Phi: m.Phi.Data,
		WRows: m.W.Rows, WCols: m.W.Cols, W: m.W.Data,
		Beta: m.Beta, D: m.D,
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(wire); err != nil {
		return nil, fmt.Errorf("gtm: encoding model: %w", err)
	}
	return buf.Bytes(), nil
}

// UnmarshalModel reverses Marshal.
func UnmarshalModel(data []byte) (*Model, error) {
	var wire modelWire
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&wire); err != nil {
		return nil, fmt.Errorf("gtm: decoding model: %w", err)
	}
	latent := &linalg.Matrix{Rows: wire.LatentRows, Cols: wire.LatentCols, Data: wire.Latent}
	phi := &linalg.Matrix{Rows: wire.PhiRows, Cols: wire.PhiCols, Data: wire.Phi}
	w := &linalg.Matrix{Rows: wire.WRows, Cols: wire.WCols, Data: wire.W}
	if latent.Cols != LatentDims || phi.Rows != latent.Rows || phi.Cols != w.Rows || w.Cols != wire.D ||
		!wellShaped(latent) || !wellShaped(phi) || !wellShaped(w) {
		return nil, fmt.Errorf("gtm: corrupt model")
	}
	// Train only ever sets β to the inverse of a positive variance. A β
	// of zero or below would weight far latent points over near ones,
	// and a NaN one would make every interpolated coordinate NaN.
	if !(wire.Beta > 0 && wire.Beta <= math.MaxFloat64) {
		return nil, fmt.Errorf("gtm: corrupt model: noise precision β = %v", wire.Beta)
	}
	m := &Model{Latent: latent, Phi: phi, W: w, Beta: wire.Beta, D: wire.D}
	m.yk = kernelLayout(m.project())
	return m, nil
}

func wellShaped(m *linalg.Matrix) bool {
	return m.Rows > 0 && m.Cols > 0 && len(m.Data) == m.Rows*m.Cols
}

// shardMagic marks encoded data shards.
const shardMagic = 0x47544d31 // "GTM1"

// EncodeShard packs a block of points into the on-storage format: a
// 12-byte header (magic, dims, points, each a little-endian uint32), then
// the values as little-endian float64s. The paper ships "compressed data
// splits, which were unzipped before handing over to the executable"; a
// shard here is stored raw, because Gaussian float64 coordinates gzip
// only to 96.9 % of their size, and inflating them cost more of a task
// than its Interpolate.
func EncodeShard(points []float64, dims int) ([]byte, error) {
	if dims <= 0 || len(points)%dims != 0 || uint64(dims) > math.MaxUint32 || uint64(len(points)/dims) > math.MaxUint32 {
		return nil, fmt.Errorf("gtm: bad shard shape: %d values, %d dims", len(points), dims)
	}
	out := make([]byte, 0, 12+8*len(points))
	out = binary.LittleEndian.AppendUint32(out, shardMagic)
	out = binary.LittleEndian.AppendUint32(out, uint32(dims))
	out = binary.LittleEndian.AppendUint32(out, uint32(len(points)/dims))
	for _, v := range points {
		out = binary.LittleEndian.AppendUint64(out, math.Float64bits(v))
	}
	return out, nil
}

// decodeShard reverses EncodeShard, decoding into dst's array when it is
// big enough. A shard whose body is not exactly the n·dims values its
// header announces is an error.
func decodeShard(dst []float64, data []byte) (points []float64, dims int, err error) {
	if len(data) < 12 || binary.LittleEndian.Uint32(data) != shardMagic {
		return nil, 0, fmt.Errorf("gtm: bad shard header")
	}
	dims = int(binary.LittleEndian.Uint32(data[4:]))
	n := int(binary.LittleEndian.Uint32(data[8:]))
	body := data[12:]
	// n·dims fits in 64 bits (both are 32-bit), and comparing it with a
	// count of values rather than bytes cannot wrap.
	if dims == 0 || len(body)%8 != 0 || uint64(n)*uint64(dims) != uint64(len(body)/8) {
		return nil, 0, fmt.Errorf("gtm: bad shard shape: %d points × %d dims in a %d-byte body", n, dims, len(body))
	}
	if points = dst; cap(points) < n*dims {
		points = make([]float64, n*dims)
	}
	points = points[:n*dims]
	for i := range points {
		points[i] = math.Float64frombits(binary.LittleEndian.Uint64(body[8*i:]))
	}
	return points, dims, nil
}

// EncodeEmbedding packs interpolation output (n×2 latent coordinates).
func EncodeEmbedding(coords []float64) []byte {
	out := make([]byte, 8*len(coords))
	for i, v := range coords {
		binary.LittleEndian.PutUint64(out[i*8:], math.Float64bits(v))
	}
	return out
}

// DecodeEmbedding reverses EncodeEmbedding.
func DecodeEmbedding(data []byte) ([]float64, error) {
	if len(data)%8 != 0 {
		return nil, fmt.Errorf("gtm: embedding blob length %d not a multiple of 8", len(data))
	}
	coords := make([]float64, len(data)/8)
	for i := range coords {
		coords[i] = math.Float64frombits(binary.LittleEndian.Uint64(data[i*8:]))
	}
	return coords, nil
}

// pointBufs holds Run's decoded points: Interpolate keeps none of them,
// so the array one shard was decoded into serves the next.
var pointBufs = sync.Pool{New: func() any { return new([]float64) }}

// Run is the executable-style entry point used by the execution
// frameworks: a raw shard of points in (EncodeShard's format), packed 2-D
// embeddings out.
func Run(model *Model, shard []byte) ([]byte, error) {
	buf := pointBufs.Get().(*[]float64)
	defer pointBufs.Put(buf)
	points, dims, err := decodeShard(*buf, shard)
	if err != nil {
		return nil, err
	}
	*buf = points
	coords, err := model.Interpolate(points, dims)
	if err != nil {
		return nil, err
	}
	return EncodeEmbedding(coords), nil
}
