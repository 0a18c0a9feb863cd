package gtm

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"io"
	"math/bits"
)

// This file is the gzip + deflate decoder behind DecodeShard (RFC 1952,
// RFC 1951). It inflates a whole shard held in memory into one flat
// buffer, so a back-reference copies from the output itself and no byte
// passes through an interface call or a ring. It accepts exactly what
// the standard library's multistream gzip.Reader, read to EOF, accepts,
// and produces the same bytes; TestDecodeShardMatchesGzip and
// FuzzDecodeShard hold it to that.

var (
	errGzipHeader = errors.New("gzip: invalid header")
	errDeflate    = errors.New("flate: corrupt input")
	errChecksum   = errors.New("gzip: invalid checksum")
	errTooLarge   = errors.New("gzip: output exceeds the deflate ratio bound")
)

const (
	gzipFlagHdrCrc  = 1 << 1
	gzipFlagExtra   = 1 << 2
	gzipFlagName    = 1 << 3
	gzipFlagComment = 1 << 4
	gzipMaxString   = 512 // the standard gzip reader's limit on FNAME and FCOMMENT, NUL included

	maxLit   = 286 // lit/len symbols a dynamic block may declare
	maxDist  = 30  // distance symbols a dynamic block may declare
	maxMatch = 258
	// slack is the room kept free past the write position before a
	// symbol is decoded: three literals, or one whole match plus the
	// overshoot of its 8-byte copy.
	slack = maxMatch + 8

	// A table entry packs, low to high: the code length to consume
	// (bits 0–3), the count of extra bits that follow the code
	// (bits 8–11), four flags (bits 12–15) and a 16-bit value
	// (bits 16–31) — the literal byte, the length or distance base, the
	// code-length symbol, or for entrySub the offset of a second-level
	// table whose index width is the entry's extra count.
	entryLit = 1 << 12
	entryEOB = 1 << 13
	entrySub = 1 << 14
	entryBad = 1 << 15 // no code, or a symbol no stream may use

	tableBits = 10 // first-level index width of the lit/len and distance tables
	tableMask = 1<<tableBits - 1
	// A second-level table serves one 10-bit prefix and holds at least
	// two codes, so a table needs at most half its symbols' worth of
	// 2^(15−10)-entry second levels.
	tableSize     = 1<<tableBits + maxLit/2<<(15-tableBits)
	clenTableBits = 7 // code-length codes are at most 7 bits: one level
)

// litBase, distBase and clenBase are each symbol's entry without its
// code length; buildTable ORs the length in.
var litBase, distBase, clenBase = func() (lit [288]uint32, dist [32]uint32, clen [19]uint32) {
	for s := range 256 {
		lit[s] = entryLit | uint32(s)<<16
	}
	lit[256] = entryEOB
	base := 3
	for s := 257; s < 285; s++ {
		extra := 0
		if s >= 265 {
			extra = (s - 261) / 4
		}
		lit[s] = uint32(base)<<16 | uint32(extra)<<8
		base += 1 << extra
	}
	lit[285] = maxMatch << 16
	lit[286], lit[287] = entryBad, entryBad
	for s := range 30 {
		if s < 4 {
			dist[s] = uint32(s+1) << 16
			continue
		}
		extra := s/2 - 1
		dist[s] = uint32(1+(2+s&1)<<extra)<<16 | uint32(extra)<<8
	}
	dist[30], dist[31] = entryBad, entryBad
	for s := range clen {
		clen[s] = uint32(s) << 16
	}
	return
}()

// fixedLit and fixedDist decode the fixed-code blocks of RFC 1951
// §3.2.6. Symbols 286, 287 and distances 30, 31 have codes there but
// are errors when used.
var fixedLit, fixedDist = func() (lit, dist *table) {
	var lens [288]uint8
	for s := range lens {
		switch {
		case s < 144:
			lens[s] = 8
		case s < 256:
			lens[s] = 9
		case s < 280:
			lens[s] = 7
		default:
			lens[s] = 8
		}
	}
	var dlens [32]uint8
	for s := range dlens {
		dlens[s] = 5
	}
	lit, dist = new(table), new(table)
	buildTable(lit[:], tableBits, lens[:], litBase[:])
	buildTable(dist[:], tableBits, dlens[:], distBase[:])
	return
}()

// buildTable fills t with the canonical Huffman decoding table for the
// code lengths lens, whose symbol s decodes to base[s] | its length. A
// first-level entry is indexed by the next root bits of the stream
// (least significant first); a longer code's prefix holds an entrySub
// entry pointing at a second-level table indexed by the bits after it.
//
// It reports false for a code the standard flate reader refuses:
// over-subscribed, or incomplete unless it is empty or a single 1-bit
// code. Those two keep entryBad where no code reaches, so a stream fails
// when it uses a missing code — and an empty distance code is legal
// until used.
func buildTable(t []uint32, root uint, lens []uint8, base []uint32) bool {
	var count [16]int
	for _, n := range lens {
		count[n]++
	}
	count[0] = 0
	used, maxLen := 0, 0
	for n := 1; n < len(count); n++ {
		used += count[n] << (15 - n)
		if count[n] > 0 {
			maxLen = n
		}
	}
	if used != 1<<15 && used != 0 && !(maxLen == 1 && count[1] == 1) {
		return false
	}
	var next [16]int
	code := 0
	for n := 1; n < len(count); n++ {
		code = (code + count[n-1]) << 1
		next[n] = code
	}
	for i := range 1 << root {
		t[i] = entryBad
	}
	sub := uint(max(maxLen, int(root))) - root
	end := uint32(1) << root
	for s, n := range lens {
		if n == 0 {
			continue
		}
		r := uint(bits.Reverse16(uint16(next[n]))) >> (16 - n)
		next[n]++
		e := base[s] | uint32(n)
		if uint(n) <= root {
			for i := r; i < 1<<root; i += 1 << n {
				t[i] = e
			}
			continue
		}
		p := r & (1<<root - 1)
		if t[p]&entrySub == 0 {
			t[p] = entrySub | end<<16 | uint32(sub)<<8
			end += 1 << sub
		}
		st := t[t[p]>>16 : t[p]>>16+1<<sub]
		for i := r >> root; i < 1<<sub; i += 1 << (uint(n) - root) {
			st[i] = e
		}
	}
	return true
}

// table is a lit/len or distance decoding table built by buildTable.
type table [tableSize]uint32

// entry is the table's entry for the code at the bottom of b.
func (t *table) entry(b uint64) uint32 {
	e := t[b&tableMask]
	if e&entrySub != 0 {
		e = t[e>>16+uint32(b>>tableBits)&(1<<(e>>8&15)-1)]
	}
	return e
}

// inflater is one shard's decoding state: the flat output and the
// tables of the block being decoded. DecodeShard keeps them in a pool.
type inflater struct {
	out  []byte
	lit  table
	dist table
	clen [1 << clenTableBits]uint32
	lens [maxLit + maxDist]uint8
}

// gunzip decodes every gzip member of in into f.out, which starts with
// room for size bytes. Output past limit is an error.
func (f *inflater) gunzip(in []byte, size, limit int) ([]byte, error) {
	if cap(f.out) < size+slack {
		f.out = make([]byte, 0, size+slack)
	}
	f.out = f.out[:0]
	pos := 0
	for first := true; first || pos < len(in); first = false {
		n, err := gzipHeader(in[pos:])
		if err != nil {
			return nil, err
		}
		start := len(f.out)
		if pos, err = f.inflate(in, pos+n, start, limit); err != nil {
			return nil, err
		}
		if len(f.out) > limit {
			return nil, errTooLarge
		}
		if len(in)-pos < 8 {
			return nil, io.ErrUnexpectedEOF
		}
		member := f.out[start:]
		if binary.LittleEndian.Uint32(in[pos:]) != crc32.ChecksumIEEE(member) ||
			binary.LittleEndian.Uint32(in[pos+4:]) != uint32(len(member)) {
			return nil, errChecksum
		}
		pos += 8
	}
	return f.out, nil
}

// gzipHeader returns the length of the member header at the start of in.
func gzipHeader(in []byte) (int, error) {
	if len(in) < 10 {
		return 0, io.ErrUnexpectedEOF
	}
	if in[0] != 0x1f || in[1] != 0x8b || in[2] != 8 {
		return 0, errGzipHeader
	}
	flg, p := in[3], 10
	if flg&gzipFlagExtra != 0 {
		if len(in)-p < 2 {
			return 0, io.ErrUnexpectedEOF
		}
		p += 2 + int(binary.LittleEndian.Uint16(in[p:]))
		if p > len(in) {
			return 0, io.ErrUnexpectedEOF
		}
	}
	for _, flag := range [...]byte{gzipFlagName, gzipFlagComment} {
		if flg&flag == 0 {
			continue
		}
		i := bytes.IndexByte(in[p:min(len(in), p+gzipMaxString)], 0)
		if i < 0 && len(in)-p < gzipMaxString {
			return 0, io.ErrUnexpectedEOF
		}
		if i < 0 {
			return 0, errGzipHeader
		}
		p += i + 1
	}
	if flg&gzipFlagHdrCrc != 0 {
		if len(in)-p < 2 {
			return 0, io.ErrUnexpectedEOF
		}
		if binary.LittleEndian.Uint16(in[p:]) != uint16(crc32.ChecksumIEEE(in[:p])) {
			return 0, errGzipHeader
		}
		p += 2
	}
	return p, nil
}

// refill tops the bit buffer b, holding nb bits, up to at least 56 bits
// from in[pos:], one byte at a time. Past the end of in it feeds zero
// bytes and still advances pos, so pos*8 − nb is always the offset of
// the next unread bit; once that offset is past the input, the stream
// has used bits it does not have and is truncated.
func refill(in []byte, pos int, b uint64, nb uint) (int, uint64, uint, error) {
	if pos*8-int(nb) > len(in)*8 {
		return pos, b, nb, io.ErrUnexpectedEOF
	}
	for ; nb <= 56; nb += 8 {
		if pos < len(in) {
			b |= uint64(in[pos]) << nb
		}
		pos++
	}
	return pos, b, nb, nil
}

// grow makes room for need more bytes after out[:o], refusing to pass
// limit by more than slack.
func grow(out []byte, o, need, limit int) ([]byte, error) {
	if o+need > limit+slack {
		return nil, errTooLarge
	}
	n := min(max(2*len(out), o+need, 4096), limit+slack)
	grown := make([]byte, n)
	copy(grown, out[:o])
	return grown, nil
}

// inflate decodes the deflate stream at in[pos:] onto f.out, where the
// current gzip member's output began at start, and returns the position
// of the first byte after the stream.
func (f *inflater) inflate(in []byte, pos, start, limit int) (int, error) {
	buf, o := f.out[:cap(f.out)], len(f.out)
	var b uint64 // bit buffer: the next nb bits of the stream, least significant first
	var nb uint
	var err error
	for final := false; !final; {
		if nb < 3 {
			if pos, b, nb, err = refill(in, pos, b, nb); err != nil {
				return 0, err
			}
		}
		final = b&1 != 0
		typ := b >> 1 & 3
		b >>= 3
		nb -= 3
		var lt, dt *table
		switch typ {
		case 0:
			// Stored: skip to the byte boundary; the whole bytes still
			// buffered are the next input.
			pos -= int(nb >> 3)
			b, nb = 0, 0
			if pos > len(in)-4 {
				return 0, io.ErrUnexpectedEOF
			}
			n := int(binary.LittleEndian.Uint16(in[pos:]))
			if binary.LittleEndian.Uint16(in[pos+2:]) != ^uint16(n) {
				return 0, errDeflate
			}
			pos += 4
			if len(in)-pos < n {
				return 0, io.ErrUnexpectedEOF
			}
			if len(buf)-o < n+slack {
				if buf, err = grow(buf, o, n+slack, limit); err != nil {
					return 0, err
				}
			}
			o += copy(buf[o:], in[pos:pos+n])
			pos += n
			continue
		case 1:
			lt, dt = fixedLit, fixedDist
		case 2:
			if pos, b, nb, err = f.readTables(in, pos, b, nb); err != nil {
				return 0, err
			}
			lt, dt = &f.lit, &f.dist
		default:
			return 0, errDeflate
		}
		for {
			if nb < 48 {
				if pos <= len(in)-8 {
					b |= binary.LittleEndian.Uint64(in[pos:]) << nb
					pos += int(63-nb) >> 3
					nb |= 56
				} else if pos, b, nb, err = refill(in, pos, b, nb); err != nil {
					return 0, err
				}
			}
			if len(buf)-o < slack {
				if buf, err = grow(buf, o, slack, limit); err != nil {
					return 0, err
				}
			}
			e := lt.entry(b)
			if e&entryLit != 0 {
				// The refill left at least 56 bits and a code takes at
				// most 15, so up to three literals decode on it.
				b >>= e & 15
				nb -= uint(e & 15)
				buf[o] = byte(e >> 16)
				o++
				if e = lt.entry(b); e&entryLit == 0 {
					continue
				}
				b >>= e & 15
				nb -= uint(e & 15)
				buf[o] = byte(e >> 16)
				o++
				if e = lt.entry(b); e&entryLit == 0 {
					continue
				}
				b >>= e & 15
				nb -= uint(e & 15)
				buf[o] = byte(e >> 16)
				o++
				continue
			}
			b >>= e & 15
			nb -= uint(e & 15)
			if e&(entryEOB|entryBad) != 0 {
				if e&entryBad != 0 {
					return 0, errDeflate
				}
				break
			}
			x := uint(e >> 8 & 15)
			length := int(e>>16) + int(b&(1<<x-1))
			b >>= x
			nb -= x
			e = dt.entry(b)
			if e&entryBad != 0 {
				return 0, errDeflate
			}
			b >>= e & 15
			nb -= uint(e & 15)
			x = uint(e >> 8 & 15)
			dist := int(e>>16) + int(b&(1<<x-1))
			b >>= x
			nb -= x
			if dist > o-start {
				return 0, errDeflate
			}
			copyMatch(buf, o, dist, length)
			o += length
		}
	}
	// The stream ends at the byte holding its last bit.
	pos -= int(nb >> 3)
	if pos > len(in) {
		return 0, io.ErrUnexpectedEOF
	}
	f.out = buf[:o]
	return pos, nil
}

// copyMatch writes the length bytes that start dist bytes back at
// buf[o:]. With dist ≥ 8 each 8-byte word it reads is already written,
// so it copies words and may write up to 7 bytes past the match; a
// shorter distance repeats its pattern byte by byte.
func copyMatch(buf []byte, o, dist, length int) {
	src := o - dist
	if dist < 8 {
		for i := range length {
			buf[o+i] = buf[src+i]
		}
		return
	}
	for i := 0; i < length; i += 8 {
		binary.LittleEndian.PutUint64(buf[o+i:], binary.LittleEndian.Uint64(buf[src+i:]))
	}
}

// codeOrder is the order of the code-length code lengths (RFC 1951 §3.2.7).
var codeOrder = [19]uint8{16, 17, 18, 0, 8, 7, 9, 6, 10, 5, 11, 4, 12, 3, 13, 2, 14, 1, 15}

// readTables reads a dynamic block's header into f.lit and f.dist.
func (f *inflater) readTables(in []byte, pos int, b uint64, nb uint) (int, uint64, uint, error) {
	var err error
	if nb < 14 {
		if pos, b, nb, err = refill(in, pos, b, nb); err != nil {
			return pos, b, nb, err
		}
	}
	nlit, ndist, nclen := int(b&31)+257, int(b>>5&31)+1, int(b>>10&15)+4
	b >>= 14
	nb -= 14
	if nlit > maxLit || ndist > maxDist {
		return pos, b, nb, errDeflate
	}
	var cl [19]uint8
	for _, s := range codeOrder[:nclen] {
		if nb < 3 {
			if pos, b, nb, err = refill(in, pos, b, nb); err != nil {
				return pos, b, nb, err
			}
		}
		cl[s] = uint8(b & 7)
		b >>= 3
		nb -= 3
	}
	if !buildTable(f.clen[:], clenTableBits, cl[:], clenBase[:]) {
		return pos, b, nb, errDeflate
	}
	lens := f.lens[:nlit+ndist]
	for i := 0; i < len(lens); {
		if nb < 14 {
			if pos, b, nb, err = refill(in, pos, b, nb); err != nil {
				return pos, b, nb, err
			}
		}
		e := f.clen[b&(1<<clenTableBits-1)]
		if e&entryBad != 0 {
			return pos, b, nb, errDeflate
		}
		b >>= e & 15
		nb -= uint(e & 15)
		sym := uint8(e >> 16)
		if sym < 16 {
			lens[i] = sym
			i++
			continue
		}
		var rep int
		var val uint8
		switch sym {
		case 16:
			if i == 0 {
				return pos, b, nb, errDeflate
			}
			rep, val = 3+int(b&3), lens[i-1]
			b >>= 2
			nb -= 2
		case 17:
			rep = 3 + int(b&7)
			b >>= 3
			nb -= 3
		default:
			rep = 11 + int(b&127)
			b >>= 7
			nb -= 7
		}
		if i+rep > len(lens) {
			return pos, b, nb, errDeflate
		}
		for range rep {
			lens[i] = val
			i++
		}
	}
	// A block without an end-of-block code can never end.
	if lens[256] == 0 ||
		!buildTable(f.lit[:], tableBits, lens[:nlit], litBase[:]) ||
		!buildTable(f.dist[:], tableBits, lens[nlit:], distBase[:]) {
		return pos, b, nb, errDeflate
	}
	return pos, b, nb, nil
}
