package gtm

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"encoding/gob"
	"fmt"
	"io"
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

// EncodeShard packs a block of points into the compressed on-storage
// format, mirroring the paper's "compressed data splits, which were
// unzipped before handing over to the executable".
func EncodeShard(points []float64, dims int) ([]byte, error) {
	if dims <= 0 || len(points)%dims != 0 || uint64(dims) > math.MaxUint32 || uint64(len(points)/dims) > math.MaxUint32 {
		return nil, fmt.Errorf("gtm: bad shard shape: %d values, %d dims", len(points), dims)
	}
	var buf bytes.Buffer
	zw := gzip.NewWriter(&buf)
	hdr := make([]byte, 12)
	binary.LittleEndian.PutUint32(hdr[0:], shardMagic)
	binary.LittleEndian.PutUint32(hdr[4:], uint32(dims))
	binary.LittleEndian.PutUint32(hdr[8:], uint32(len(points)/dims))
	if _, err := zw.Write(hdr); err != nil {
		return nil, err
	}
	raw := make([]byte, 8*len(points))
	for i, v := range points {
		binary.LittleEndian.PutUint64(raw[i*8:], math.Float64bits(v))
	}
	if _, err := zw.Write(raw); err != nil {
		return nil, err
	}
	if err := zw.Close(); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// maxDeflateRatio bounds how far deflate can expand its input (1032:1),
// so a header claiming more points than the compressed bytes can hold is
// refused before anything is allocated for them, and inflating past
// that many bytes is an error.
const maxDeflateRatio = 1032

// trustedRatio caps how far decodeShard believes a shard's ISIZE before
// inflating it: a truncated shard ends in arbitrary bytes, which must
// not buy an allocation of 1032 times its length. A shard that does
// expand further grows its buffer as it inflates.
const trustedRatio = 16

// inflaters holds decodeShard's decoders: the points are copied out of
// the inflated bytes, so the buffer that holds them can serve the next
// shard.
var inflaters = sync.Pool{New: func() any { return new(inflater) }}

// decodeShard reverses EncodeShard, decoding into dst's array when it is
// big enough. It inflates the whole gzip stream in one pass into one
// buffer, sized from the last member's ISIZE, checking every member's
// CRC-32 and size; then it reads the header and exactly the body the
// header announces. A stream the standard gzip reader would refuse, or a
// body that is short or long, is an error.
func decodeShard(dst []float64, data []byte) (points []float64, dims int, err error) {
	f := inflaters.Get().(*inflater)
	defer inflaters.Put(f)
	limit := maxDeflateRatio * len(data)
	size := 0
	if len(data) >= 4 {
		size = min(int(binary.LittleEndian.Uint32(data[len(data)-4:])), trustedRatio*len(data))
	}
	raw, err := f.gunzip(data, size, limit)
	if err != nil {
		return nil, 0, fmt.Errorf("gtm: decompressing shard: %w", err)
	}
	if len(raw) < 12 || binary.LittleEndian.Uint32(raw) != shardMagic {
		return nil, 0, fmt.Errorf("gtm: bad shard header")
	}
	dims = int(binary.LittleEndian.Uint32(raw[4:]))
	n := int(binary.LittleEndian.Uint32(raw[8:]))
	if dims == 0 || uint64(n)*uint64(dims) > maxDeflateRatio*uint64(len(data))/8 {
		return nil, 0, fmt.Errorf("gtm: bad shard shape: %d points × %d dims in %d bytes", n, dims, len(data))
	}
	body := raw[12:]
	switch {
	case len(body) < 8*n*dims:
		return nil, 0, fmt.Errorf("gtm: reading shard body: %w", io.ErrUnexpectedEOF)
	case len(body) > 8*n*dims:
		return nil, 0, fmt.Errorf("gtm: shard longer than its %d × %d header", n, dims)
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
// frameworks: a compressed shard of points in, packed 2-D embeddings out.
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
