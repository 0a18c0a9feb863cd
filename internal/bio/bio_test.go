package bio

import (
	"bytes"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"testing/quick"
)

func TestReverseComplement(t *testing.T) {
	cases := []struct{ in, want string }{
		{"ACGT", "ACGT"},
		{"AAAA", "TTTT"},
		{"ACCGGT", "ACCGGT"},
		{"GATTACA", "TGTAATC"},
		{"", ""},
		{"ANA", "TNT"},
	}
	for _, c := range cases {
		got := ReverseComplement([]byte(c.in))
		if string(got) != c.want {
			t.Errorf("ReverseComplement(%q) = %q, want %q", c.in, got, c.want)
		}
	}
}

// Property: reverse complement is an involution on DNA.
func TestReverseComplementInvolution(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	f := func(n uint8) bool {
		seq := make([]byte, int(n)%500)
		for i := range seq {
			seq[i] = DNAAlphabet[rng.Intn(4)]
		}
		return bytes.Equal(ReverseComplement(ReverseComplement(seq)), seq)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestBaseCodeRoundTrip(t *testing.T) {
	for i := 0; i < 4; i++ {
		c := DNAAlphabet[i]
		code, ok := BaseCode(c)
		if !ok || code != uint8(i) {
			t.Errorf("BaseCode(%c) = %d,%v", c, code, ok)
		}
		if BaseFromCode(code) != c {
			t.Errorf("BaseFromCode(%d) = %c, want %c", code, BaseFromCode(code), c)
		}
	}
	if _, ok := BaseCode('N'); ok {
		t.Error("BaseCode(N) should be invalid")
	}
}

func TestKmerEncodeDecode(t *testing.T) {
	kc := NewKmerCoder(5)
	key, ok := kc.Encode([]byte("ACGTA"))
	if !ok {
		t.Fatal("Encode failed")
	}
	if key != 0b00_01_10_11_00 { // two bits a base, first base highest
		t.Errorf("Encode(ACGTA) = %#b", key)
	}
	if _, ok := kc.Encode([]byte("ACGN!")); ok {
		t.Error("Encode should fail on non-ACGT")
	}
	if _, ok := kc.Encode([]byte("AC")); ok {
		t.Error("Encode should fail on short input")
	}
}

// TestEachKmerMatchesEncode: every window EachKmer reports is one Encode
// accepts, with Encode's key for the window and for its reverse
// complement, and no window Encode accepts is missed — across lower-case
// bases, N and other bytes, and k from 1 to 31.
func TestEachKmerMatchesEncode(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	seqs := [][]byte{
		[]byte("ACGTACGGTTCA"),
		[]byte("acgtNNacgGTTcaXtgcaACGT"),
		[]byte("GAATTCgaattc"), // palindromic windows: both keys equal
	}
	for n := 0; n < 20; n++ {
		seq := make([]byte, 80)
		for i := range seq {
			seq[i] = "ACGTacgtN"[rng.Intn(9)]
		}
		seqs = append(seqs, seq)
	}
	for _, k := range []int{1, 2, 3, 4, 7, 14, 31} {
		kc := NewKmerCoder(k)
		for _, seq := range seqs {
			var want []int
			for pos := 0; pos+k <= len(seq); pos++ {
				if _, ok := kc.Encode(seq[pos:]); ok {
					want = append(want, pos)
				}
			}
			var got []int
			kc.EachKmer(seq, func(pos int, fwd, rc uint64) {
				got = append(got, pos)
				win := seq[pos : pos+k]
				if key, _ := kc.Encode(win); fwd != key {
					t.Errorf("k=%d %q at %d: forward key %x, Encode %x", k, seq, pos, fwd, key)
				}
				if key, _ := kc.Encode(ReverseComplement(win)); rc != key {
					t.Errorf("k=%d %q at %d: reverse-complement key %x, Encode %x", k, seq, pos, rc, key)
				}
			})
			if !slices.Equal(got, want) {
				t.Errorf("k=%d %q: windows %v, Encode accepts %v", k, seq, got, want)
			}
		}
	}
}

func TestEachKmerSkipsInvalid(t *testing.T) {
	kc := NewKmerCoder(3)
	seq := []byte("ACGNACG")
	var positions []int
	kc.EachKmer(seq, func(pos int, _, _ uint64) {
		positions = append(positions, pos)
	})
	// Valid windows: [0..2] then after the N at index 3: [4..6].
	want := []int{0, 4}
	if len(positions) != len(want) {
		t.Fatalf("positions = %v, want %v", positions, want)
	}
	for i := range want {
		if positions[i] != want[i] {
			t.Fatalf("positions = %v, want %v", positions, want)
		}
	}
}

func TestEachKmerCount(t *testing.T) {
	kc := NewKmerCoder(11)
	seq := bytes.Repeat([]byte("ACGT"), 25) // 100 bases
	n := 0
	kc.EachKmer(seq, func(int, uint64, uint64) { n++ })
	if n != 100-11+1 {
		t.Errorf("kmer count = %d, want %d", n, 100-11+1)
	}
}

func TestNewKmerCoderPanicsOutOfRange(t *testing.T) {
	for _, k := range []int{0, -1, 32} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewKmerCoder(%d) did not panic", k)
				}
			}()
			NewKmerCoder(k)
		}()
	}
}

// Property: BLOSUM62 is symmetric with positive diagonal.
func TestBlosum62Properties(t *testing.T) {
	for i := 0; i < 20; i++ {
		if Blosum62[i][i] <= 0 {
			t.Errorf("diagonal [%d][%d] = %d, want > 0", i, i, Blosum62[i][i])
		}
		for j := 0; j < 20; j++ {
			if Blosum62[i][j] != Blosum62[j][i] {
				t.Errorf("asymmetry at [%d][%d]", i, j)
			}
		}
	}
}

func TestScore62(t *testing.T) {
	if got := Score62('A', 'A'); got != 4 {
		t.Errorf("Score62(A,A) = %d, want 4", got)
	}
	if got := Score62('W', 'W'); got != 11 {
		t.Errorf("Score62(W,W) = %d, want 11", got)
	}
	if got := Score62('A', 'W'); got != -3 {
		t.Errorf("Score62(A,W) = %d, want -3", got)
	}
	if got := Score62('A', 'X'); got != -1 {
		t.Errorf("Score62(A,X) = %d, want -1 for unknown", got)
	}
	// Case-insensitive lookup.
	if Score62('a', 'a') != Score62('A', 'A') {
		t.Error("Score62 should be case-insensitive")
	}
}

func TestAAIndex(t *testing.T) {
	for i := 0; i < len(ProteinAlphabet); i++ {
		if AAIndex(ProteinAlphabet[i]) != i {
			t.Errorf("AAIndex(%c) = %d, want %d", ProteinAlphabet[i], AAIndex(ProteinAlphabet[i]), i)
		}
	}
	if AAIndex('Z') != -1 {
		t.Error("AAIndex(Z) should be -1")
	}
}

func TestUpper(t *testing.T) {
	if got := Upper([]byte("acgT")); string(got) != "ACGT" {
		t.Errorf("Upper = %q", got)
	}
	// Upper went through strings.ToUpper until PR 20; kernels' outputs are
	// pinned byte for byte, so the two must agree off the ASCII path too.
	for _, in := range []string{"", "acgtn-*", "ac\xffgt", "stra\u00dfe \u00e9\u01c6", "\xe2\x82"} {
		src := []byte(in)
		if got := Upper(src); string(got) != strings.ToUpper(in) {
			t.Errorf("Upper(%q) = %q, strings.ToUpper gives %q", in, got, strings.ToUpper(in))
		}
		if string(src) != in {
			t.Errorf("Upper(%q) changed its argument to %q", in, src)
		}
	}
}
