package gtm

import (
	"bytes"
	"compress/flate"
	"compress/gzip"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"math/bits"
	"math/rand"
	"testing"

	"repro/internal/workload"
)

// decodeShardGzip is DecodeShard as it was written over compress/gzip's
// stream reader: the oracle the flat decoder must agree with.
func decodeShardGzip(data []byte) (points []float64, dims int, err error) {
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

// agree reports how DecodeShard and the oracle differ on shard, or "".
func agree(shard []byte) string {
	got, gotDims, err := DecodeShard(shard)
	want, wantDims, wantErr := decodeShardGzip(shard)
	switch {
	case (err == nil) != (wantErr == nil):
		return "DecodeShard: " + errString(err) + "; compress/gzip: " + errString(wantErr)
	case err != nil:
		return ""
	case gotDims != wantDims || len(got) != len(want):
		return "a different shape"
	}
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			return "a different value"
		}
	}
	return ""
}

func errString(err error) string {
	if err == nil {
		return "decoded"
	}
	return err.Error()
}

// rawShard is a shard holding body, one value per 8 bytes, so any bytes
// can be made to decode.
func rawShard(body []byte) []byte {
	return shardBytes(shardMagic, 1, uint32(len(body)/8), body[:len(body)&^7])
}

// gzipMember compresses raw as one gzip member at level. With a dict,
// the deflate stream may refer into dict, which no gzip reader has.
func gzipMember(t testing.TB, raw []byte, level int, dict []byte) []byte {
	t.Helper()
	var body bytes.Buffer
	zw, err := flate.NewWriterDict(&body, level, dict)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := zw.Write(raw); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	return wrapDeflate([]byte{0x1f, 0x8b, 8, 0, 0, 0, 0, 0, 0, 0xff}, body.Bytes(), raw)
}

// wrapDeflate is header ‖ deflate ‖ the trailer raw's CRC-32 and size make.
func wrapDeflate(header, deflate, raw []byte) []byte {
	out := append(bytes.Clone(header), deflate...)
	out = binary.LittleEndian.AppendUint32(out, crc32.ChecksumIEEE(raw))
	return binary.LittleEndian.AppendUint32(out, uint32(len(raw)))
}

// gzipWithHeader compresses raw with compress/gzip and the given header.
func gzipWithHeader(t testing.TB, raw []byte, hdr gzip.Header) []byte {
	t.Helper()
	var buf bytes.Buffer
	zw := gzip.NewWriter(&buf)
	zw.Header = hdr
	if _, err := zw.Write(raw); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// bitWriter packs a deflate stream by hand, least significant bit first.
type bitWriter struct {
	out []byte
	acc uint64
	n   uint
}

func (w *bitWriter) bits(v uint64, n uint) {
	w.acc |= v << w.n
	for w.n += n; w.n >= 8; w.n -= 8 {
		w.out = append(w.out, byte(w.acc))
		w.acc >>= 8
	}
}

// code writes a Huffman code, which deflate packs most significant bit first.
func (w *bitWriter) code(c uint16, n uint8) {
	w.bits(uint64(bits.Reverse16(c)>>(16-n)), uint(n))
}

func (w *bitWriter) flush() []byte {
	if w.n > 0 {
		w.out = append(w.out, byte(w.acc))
	}
	return w.out
}

// canonical assigns RFC 1951's canonical codes to lens.
func canonical(lens []uint8) []uint16 {
	var count [16]int
	for _, n := range lens {
		count[n]++
	}
	count[0] = 0
	var next [16]int
	for n, c := 1, 0; n < 16; n++ {
		c = (c + count[n-1]) << 1
		next[n] = c
	}
	codes := make([]uint16, len(lens))
	for s, n := range lens {
		if n > 0 {
			codes[s] = uint16(next[n])
			next[n]++
		}
	}
	return codes
}

// token is one symbol of a hand-built block: a literal (sym < 256), or a
// length symbol 257–264 followed by distance symbol dist 0–3 (neither
// with extra bits).
type token struct{ sym, dist int }

// dynamicBlock is one final dynamic-Huffman block with the given code
// lengths and tokens, ended by symbol 256. Lengths travel in a
// code-length code of sixteen 4-bit codes, one per length 0–15.
func dynamicBlock(litLens, distLens []uint8, toks []token) []byte {
	var w bitWriter
	w.bits(1, 1) // BFINAL
	w.bits(2, 2) // dynamic
	w.bits(uint64(len(litLens)-257), 5)
	w.bits(uint64(len(distLens)-1), 5)
	w.bits(19-4, 4)
	for _, s := range codeOrder {
		if s < 16 {
			w.bits(4, 3)
		} else {
			w.bits(0, 3)
		}
	}
	for _, n := range append(bytes.Clone(litLens), distLens...) {
		w.code(uint16(n), 4) // all sixteen lengths are 4 bits: symbol s has code s
	}
	lit, dist := canonical(litLens), canonical(distLens)
	for _, tk := range append(toks, token{sym: 256}) {
		w.code(lit[tk.sym], litLens[tk.sym])
		if tk.sym > 256 {
			w.code(dist[tk.dist], distLens[tk.dist])
		}
	}
	return w.flush()
}

// literalLens is a complete lit/len code: bytes 0–254 in 8 bits, byte
// 255 and end-of-block in 9, no distance code. Without byte 255 it is
// incomplete, which compress/flate refuses even when 255 never occurs.
func literalLens(complete bool) []uint8 {
	lens := make([]uint8, 257)
	for s := range 255 {
		lens[s] = 8
	}
	lens[256] = 9
	if complete {
		lens[255] = 9
	}
	return lens
}

func literals(raw []byte) []token {
	toks := make([]token, len(raw))
	for i, c := range raw {
		toks[i] = token{sym: int(c)}
	}
	return toks
}

// handBuilt are deflate streams compress/flate's writer does not emit:
// incomplete and degenerate codes, and distances their code can or
// cannot reach.
func handBuilt(t testing.TB) map[string][]byte {
	hdr := []byte{0x1f, 0x8b, 8, 0, 0, 0, 0, 0, 0, 0xff}
	raw := rawShard(bytes.Repeat([]byte{1, 2, 3, 4, 5, 6, 7, 8}, 6))
	// A run: byte 7 three more times, then the rest of the body.
	run := rawShard(append([]byte{9, 9, 9, 9, 7, 7, 7, 7}, bytes.Repeat([]byte{1}, 8)...))
	runToks := literals(run[:17])
	runToks = append(runToks, token{sym: 257, dist: 0})
	runToks = append(runToks, literals(run[20:])...)
	// Lit/len: bytes 0–254 in 8 bits, end-of-block and length 3 in 9.
	matchLens := literalLens(false)
	matchLens = append(matchLens, 9) // symbol 257, length 3
	oneDist := []uint8{1}            // a single 1-bit distance code: distance 1
	badDist := dynamicBlock(matchLens, oneDist, runToks)
	// Distance code 0 is one 0 bit; the 1 bit has no symbol. The
	// match's distance bit follows its 9-bit length code, after the
	// block header, 259 4-bit code lengths and 17 8-bit literals.
	at := 3 + 14 + 19*3 + 259*4 + 17*8 + 9
	badDist[at/8] |= 1 << (at % 8)
	return map[string][]byte{
		"hand-built complete code":   wrapDeflate(hdr, dynamicBlock(literalLens(true), []uint8{0}, literals(raw)), raw),
		"hand-built incomplete code": wrapDeflate(hdr, dynamicBlock(literalLens(false), []uint8{0}, literals(raw)), raw),
		"degenerate distance code":   wrapDeflate(hdr, dynamicBlock(matchLens, oneDist, runToks), run),
		"unused degenerate code bit": wrapDeflate(hdr, badDist, run),
		"empty distance code used":   wrapDeflate(hdr, dynamicBlock(matchLens, []uint8{0}, runToks), run),
		"distance past member start": wrapDeflate(hdr, dynamicBlock(matchLens, oneDist, []token{{sym: 257}}), []byte{0, 0, 0}),
		// A member whose lit/len code is one 1-bit code, end-of-block.
		"degenerate lit/len code": append(wrapDeflate(hdr, dynamicBlock(literalLens(true), []uint8{0}, literals(raw)), raw),
			wrapDeflate(hdr, dynamicBlock(append(make([]uint8, 256), 1), []uint8{0}, nil), nil)...),
	}
}

// shardCases are the streams the decoder must agree on, each valid or
// not: EncodeShard's own output, every compress/flate level, several
// members, every optional header field, and hand-built streams.
func shardCases(t testing.TB) map[string][]byte {
	small, err := EncodeShard(workload.ChemicalPoints(9, 1, 2), workload.PubChemDims)
	if err != nil {
		t.Fatal(err)
	}
	empty, err := EncodeShard(nil, 4)
	if err != nil {
		t.Fatal(err)
	}
	cases := map[string][]byte{"EncodeShard": small, "EncodeShard, no points": empty}
	// Floats, bytes skewed enough for 15-bit codes, and long runs.
	floats := shardBytes(shardMagic, workload.PubChemDims, 2, EncodeEmbedding(workload.ChemicalPoints(4, 2, 2)))
	rng := rand.New(rand.NewSource(1))
	skewed := make([]byte, 1<<12)
	for i := range skewed {
		skewed[i] = byte(min(255, int(rng.ExpFloat64()*6)))
	}
	runs := make([]byte, 1<<12)
	for i := range runs {
		runs[i] = byte(i / 700 % 3)
	}
	bodies := map[string][]byte{"floats": floats, "skewed": rawShard(skewed), "runs": rawShard(runs)}
	// EncodeShard stores random floats verbatim; this one is a dynamic block.
	cases["short skewed"] = gzipMember(t, rawShard(skewed[:512]), 6, nil)
	for name, raw := range bodies {
		for level := flate.HuffmanOnly; level <= flate.BestCompression; level++ {
			cases[fmt.Sprintf("%s at level %d", name, level)] = gzipMember(t, raw, level, nil)
		}
		third := len(raw) / 3
		cases[name+", two members"] = append(gzipMember(t, raw[:third], 6, nil), gzipMember(t, raw[third:], 1, nil)...)
		cases[name+", three members"] = append(append(gzipMember(t, raw[:third], 0, nil),
			gzipMember(t, raw[third:2*third], 9, nil)...), gzipMember(t, raw[2*third:], -2, nil)...)
		// The second member's stream refers into the first's output.
		cases[name+", reference into the previous member"] = append(gzipMember(t, raw[:third], 6, nil),
			gzipMember(t, raw[third:], 6, raw[:third])...)
	}
	cases["empty member after the shard"] = append(bytes.Clone(small), gzipMember(t, nil, 6, nil)...)
	cases["FNAME, FCOMMENT, FEXTRA"] = gzipWithHeader(t, floats, gzip.Header{Name: "shard", Comment: "a comment", Extra: []byte{1, 2, 3, 4}})
	cases["FNAME of 511 bytes"] = gzipWithHeader(t, floats, gzip.Header{Name: string(bytes.Repeat([]byte{'n'}, 511))})
	cases["FCOMMENT of 512 bytes"] = gzipWithHeader(t, floats, gzip.Header{Comment: string(bytes.Repeat([]byte{'c'}, 512))})
	var deflated bytes.Buffer
	zw, _ := flate.NewWriter(&deflated, 6)
	zw.Write(floats)
	zw.Close()
	hdr := []byte{0x1f, 0x8b, 8, gzipFlagHdrCrc, 0, 0, 0, 0, 0, 0xff}
	hdr = binary.LittleEndian.AppendUint16(hdr, uint16(crc32.ChecksumIEEE(hdr)))
	cases["FHCRC"] = wrapDeflate(hdr, deflated.Bytes(), floats)
	hdr[10] ^= 1
	cases["wrong FHCRC"] = wrapDeflate(hdr, deflated.Bytes(), floats)
	for name, c := range handBuilt(t) {
		cases[name] = c
	}
	return cases
}

// The flat decoder accepts what compress/gzip accepts and yields the
// same values: on every case, and on every truncation and every single
// bit flip of a small stored shard and a small dynamic-Huffman one.
func TestDecodeShardMatchesGzip(t *testing.T) {
	cases := shardCases(t)
	for name, c := range cases {
		if d := agree(c); d != "" {
			t.Errorf("%s: %s", name, d)
		}
	}
	for _, name := range []string{"hand-built complete code", "degenerate distance code", "FHCRC", "floats, three members", "skewed at level 1", "short skewed", "degenerate lit/len code"} {
		if _, _, err := DecodeShard(cases[name]); err != nil {
			t.Errorf("%s: %v, want it to decode", name, err)
		}
	}
	for _, name := range []string{"EncodeShard", "short skewed"} {
		small := cases[name]
		for n := range small {
			if d := agree(small[:n]); d != "" {
				t.Errorf("%s, first %d bytes: %s", name, n, d)
			}
		}
		for i := range 8 * len(small) {
			flipped := bytes.Clone(small)
			flipped[i/8] ^= 1 << (i % 8)
			if d := agree(flipped); d != "" {
				t.Errorf("%s, bit %d flipped: %s", name, i, d)
			}
		}
	}
}

func FuzzDecodeShard(f *testing.F) {
	for _, c := range shardCases(f) {
		f.Add(c)
	}
	f.Fuzz(func(t *testing.T, shard []byte) {
		if d := agree(shard); d != "" {
			t.Fatal(d)
		}
	})
}
