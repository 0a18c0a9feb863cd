// Package bio provides primitive biological sequence types and utilities
// shared by the Cap3 assembler and the BLAST search engine: nucleotide and
// amino-acid alphabets, reverse complements, k-mer encoding, and the
// BLOSUM62 substitution matrix.
package bio

import (
	"bytes"
	"fmt"
	"slices"
	"unicode/utf8"
)

// DNAAlphabet is the canonical nucleotide alphabet.
const DNAAlphabet = "ACGT"

// ProteinAlphabet is the 20-letter amino-acid alphabet in BLOSUM62 order.
const ProteinAlphabet = "ARNDCQEGHILKMFPSTWYV"

// complement maps a nucleotide to its Watson-Crick complement. Ambiguity
// codes map to 'N'.
var complement [256]byte

func init() {
	for i := range complement {
		complement[i] = 'N'
	}
	pairs := []struct{ a, b byte }{
		{'A', 'T'}, {'C', 'G'}, {'G', 'C'}, {'T', 'A'}, {'N', 'N'},
		{'a', 't'}, {'c', 'g'}, {'g', 'c'}, {'t', 'a'}, {'n', 'n'},
	}
	for _, p := range pairs {
		complement[p.a] = p.b
	}
}

// ReverseComplement returns the reverse complement of a DNA sequence as a
// new slice. Unknown characters map to 'N'.
func ReverseComplement(seq []byte) []byte { return AppendReverseComplement(nil, seq) }

// AppendReverseComplement appends the reverse complement of seq to dst
// and returns the extended slice. Unknown characters map to 'N'.
func AppendReverseComplement(dst, seq []byte) []byte {
	n := len(dst)
	dst = slices.Grow(dst, len(seq))[:n+len(seq)]
	out := dst[n:]
	for i, c := range seq {
		out[len(seq)-1-i] = complement[c]
	}
	return dst
}

// AppendUpper appends seq upper-cased to dst, as bytes.ToUpper returns it,
// and returns the extended slice. ASCII input is upper-cased straight into
// dst's room; anything else goes through bytes.ToUpper, which maps
// non-ASCII text rune by rune and may return more bytes than it was given.
func AppendUpper(dst, seq []byte) []byte {
	n := len(dst)
	dst = slices.Grow(dst, len(seq))[:n+len(seq)]
	for i, c := range seq {
		if c >= utf8.RuneSelf {
			return append(dst[:n], bytes.ToUpper(seq)...)
		}
		if 'a' <= c && c <= 'z' {
			c -= 'a' - 'A'
		}
		dst[n+i] = c
	}
	return dst
}

// baseCode maps A,C,G,T to 0..3; every other byte maps to 0xFF.
var baseCode [256]byte

func init() {
	for i := range baseCode {
		baseCode[i] = 0xFF
	}
	for i := 0; i < 4; i++ {
		baseCode[DNAAlphabet[i]] = byte(i)
		baseCode[DNAAlphabet[i]+('a'-'A')] = byte(i)
	}
}

// BaseCode returns the 2-bit code of a nucleotide and whether it was valid.
func BaseCode(c byte) (uint8, bool) {
	code := baseCode[c]
	return code, code != 0xFF
}

// BaseFromCode is the inverse of BaseCode for valid codes 0..3.
func BaseFromCode(code uint8) byte { return DNAAlphabet[code&3] }

// KmerCoder packs DNA k-mers (k ≤ 31) into uint64 keys.
type KmerCoder struct {
	K    int
	mask uint64
}

// NewKmerCoder returns a coder for k-mers of length k. It panics for
// k outside [1,31] because such coders are always program bugs.
func NewKmerCoder(k int) *KmerCoder {
	if k < 1 || k > 31 {
		panic(fmt.Sprintf("bio: k-mer length %d out of range [1,31]", k))
	}
	return &KmerCoder{K: k, mask: (uint64(1) << (2 * uint(k))) - 1}
}

// Encode packs seq[0:K] into a key. The second return is false if the
// window contains a non-ACGT byte.
func (kc *KmerCoder) Encode(seq []byte) (uint64, bool) {
	if len(seq) < kc.K {
		return 0, false
	}
	var key uint64
	for i := 0; i < kc.K; i++ {
		code := baseCode[seq[i]]
		if code == 0xFF {
			return 0, false
		}
		key = key<<2 | uint64(code)
	}
	return key, true
}

// EachKmer calls fn for every valid k-mer window in seq with its start
// offset, its key (as Encode packs it) and the key of its reverse
// complement. Windows containing non-ACGT bytes are skipped.
func (kc *KmerCoder) EachKmer(seq []byte, fn func(pos int, fwd, rc uint64)) {
	if len(seq) < kc.K {
		return
	}
	top := 2 * uint(kc.K-1) // where the complement of the newest base enters rc
	var fwd, rc uint64
	valid := 0 // number of consecutive valid bases ending at current position
	for i, c := range seq {
		code := baseCode[c]
		if code == 0xFF {
			valid = 0
			continue
		}
		// K valid bases shift every earlier one out of both keys.
		fwd = (fwd<<2 | uint64(code)) & kc.mask
		rc = rc>>2 | uint64(3-code)<<top // 3−code: A↔T, C↔G
		valid++
		if valid >= kc.K {
			fn(i-kc.K+1, fwd, rc)
		}
	}
}

// aaIndex maps an amino-acid byte to its BLOSUM62 row, or -1.
var aaIndex [256]int8

func init() {
	for i := range aaIndex {
		aaIndex[i] = -1
	}
	for i := 0; i < len(ProteinAlphabet); i++ {
		aaIndex[ProteinAlphabet[i]] = int8(i)
		aaIndex[ProteinAlphabet[i]+('a'-'A')] = int8(i)
	}
}

// AAIndex returns the substitution-matrix row of an amino acid, or -1 for
// characters outside the 20-letter alphabet.
func AAIndex(c byte) int { return int(aaIndex[c]) }

// Blosum62 is the standard BLOSUM62 substitution matrix indexed by
// AAIndex order (ARNDCQEGHILKMFPSTWYV).
var Blosum62 = [20][20]int8{
	{4, -1, -2, -2, 0, -1, -1, 0, -2, -1, -1, -1, -1, -2, -1, 1, 0, -3, -2, 0},
	{-1, 5, 0, -2, -3, 1, 0, -2, 0, -3, -2, 2, -1, -3, -2, -1, -1, -3, -2, -3},
	{-2, 0, 6, 1, -3, 0, 0, 0, 1, -3, -3, 0, -2, -3, -2, 1, 0, -4, -2, -3},
	{-2, -2, 1, 6, -3, 0, 2, -1, -1, -3, -4, -1, -3, -3, -1, 0, -1, -4, -3, -3},
	{0, -3, -3, -3, 9, -3, -4, -3, -3, -1, -1, -3, -1, -2, -3, -1, -1, -2, -2, -1},
	{-1, 1, 0, 0, -3, 5, 2, -2, 0, -3, -2, 1, 0, -3, -1, 0, -1, -2, -1, -2},
	{-1, 0, 0, 2, -4, 2, 5, -2, 0, -3, -3, 1, -2, -3, -1, 0, -1, -3, -2, -2},
	{0, -2, 0, -1, -3, -2, -2, 6, -2, -4, -4, -2, -3, -3, -2, 0, -2, -2, -3, -3},
	{-2, 0, 1, -1, -3, 0, 0, -2, 8, -3, -3, -1, -2, -1, -2, -1, -2, -2, 2, -3},
	{-1, -3, -3, -3, -1, -3, -3, -4, -3, 4, 2, -3, 1, 0, -3, -2, -1, -3, -1, 3},
	{-1, -2, -3, -4, -1, -2, -3, -4, -3, 2, 4, -2, 2, 0, -3, -2, -1, -2, -1, 1},
	{-1, 2, 0, -1, -3, 1, 1, -2, -1, -3, -2, 5, -1, -3, -1, 0, -1, -3, -2, -2},
	{-1, -1, -2, -3, -1, 0, -2, -3, -2, 1, 2, -1, 5, 0, -2, -1, -1, -1, -1, 1},
	{-2, -3, -3, -3, -2, -3, -3, -3, -1, 0, 0, -3, 0, 6, -4, -2, -2, 1, 3, -1},
	{-1, -2, -2, -1, -3, -1, -1, -2, -2, -3, -3, -1, -2, -4, 7, -1, -1, -4, -3, -2},
	{1, -1, 1, 0, -1, 0, 0, 0, -1, -2, -2, 0, -1, -2, -1, 4, 1, -3, -2, -2},
	{0, -1, 0, -1, -1, -1, -1, -2, -2, -1, -1, -1, -1, -2, -1, 1, 5, -2, -2, 0},
	{-3, -3, -4, -4, -2, -2, -3, -2, -2, -3, -2, -3, -1, 1, -4, -3, -2, 11, 2, -3},
	{-2, -2, -2, -3, -2, -1, -2, -3, 2, -1, -1, -2, -1, 3, -3, -2, -2, 2, 7, -1},
	{0, -3, -3, -3, -1, -2, -2, -3, -3, 3, 1, -2, 1, -1, -2, -2, 0, -3, -1, 4},
}

// Score62 returns the BLOSUM62 score of aligning amino acids a and b.
// Unknown residues score as a mild mismatch (-1).
func Score62(a, b byte) int {
	ia, ib := aaIndex[a], aaIndex[b]
	if ia < 0 || ib < 0 {
		return -1
	}
	return int(Blosum62[ia][ib])
}
