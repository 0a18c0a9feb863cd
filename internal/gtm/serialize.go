package gtm

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"encoding/gob"
	"fmt"
	"io"
	"math"

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
	m := &Model{Latent: latent, Phi: phi, W: w, Beta: wire.Beta, D: wire.D}
	m.y = m.project()
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
	if dims <= 0 || len(points)%dims != 0 {
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
// refused before anything is allocated for them.
const maxDeflateRatio = 1032

// DecodeShard reverses EncodeShard. It reads the header, then exactly the
// body the header announces, then on to EOF so gzip verifies its CRC; a
// body that is short, long or fails the CRC is an error.
func DecodeShard(data []byte) (points []float64, dims int, err error) {
	zr, err := gzip.NewReader(bytes.NewReader(data))
	if err != nil {
		return nil, 0, fmt.Errorf("gtm: decompressing shard: %w", err)
	}
	defer zr.Close()
	var buf [4096]byte
	if _, err := io.ReadFull(zr, buf[:12]); err != nil || binary.LittleEndian.Uint32(buf[0:]) != shardMagic {
		return nil, 0, fmt.Errorf("gtm: bad shard header")
	}
	dims = int(binary.LittleEndian.Uint32(buf[4:]))
	n := int(binary.LittleEndian.Uint32(buf[8:]))
	if dims == 0 || uint64(n)*uint64(dims) > maxDeflateRatio*uint64(len(data))/8 {
		return nil, 0, fmt.Errorf("gtm: bad shard shape: %d points × %d dims in %d bytes", n, dims, len(data))
	}
	points = make([]float64, n*dims)
	for i := 0; i < len(points); {
		chunk := buf[:min(len(buf), 8*(len(points)-i))]
		if _, err := io.ReadFull(zr, chunk); err != nil {
			return nil, 0, fmt.Errorf("gtm: reading shard body: %w", err)
		}
		for ; len(chunk) >= 8; chunk = chunk[8:] {
			points[i] = math.Float64frombits(binary.LittleEndian.Uint64(chunk))
			i++
		}
	}
	switch _, err := io.ReadFull(zr, buf[:1]); err {
	case io.EOF:
		return points, dims, nil
	case nil:
		return nil, 0, fmt.Errorf("gtm: shard longer than its %d × %d header", n, dims)
	default:
		return nil, 0, fmt.Errorf("gtm: reading shard: %w", err)
	}
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

// Run is the executable-style entry point used by the execution
// frameworks: a compressed shard of points in, packed 2-D embeddings out.
func Run(model *Model, shard []byte) ([]byte, error) {
	points, dims, err := DecodeShard(shard)
	if err != nil {
		return nil, err
	}
	coords, err := model.Interpolate(points, dims)
	if err != nil {
		return nil, err
	}
	return EncodeEmbedding(coords), nil
}
