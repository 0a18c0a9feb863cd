// Package cap3 implements a CAP3-style DNA sequence assembler. It mirrors
// the processing stages of the CAP3 program the paper runs as its external
// executable (Huang & Madan 1999): removal of poor end regions, overlap
// detection between fragments, rejection of false overlaps, joining of
// fragments into contigs, and consensus generation.
//
// The assembler is the real computation behind the paper's Cap3 workload:
// one FASTA file of shotgun reads in, one FASTA file of assembled contigs
// out. Overlap detection is seeded by shared k-mers and verified by
// ungapped identity, which is sufficient for substitution-noise reads and
// keeps per-file cost proportional to genuine overlap structure, exactly
// the "run time depends on the contents of the input file" property the
// paper highlights.
//
// Seeding is where a file's time goes, and it runs on flat arrays sized
// from the input, allocating nothing per k-mer. Each k-mer occurrence of
// each read goes once into one open-addressing table, under its canonical
// key — the smaller of the k-mer and its reverse complement. A slot heads
// two chains through a single arena of (read, pos) occurrences, newest
// first, one per strand: the occurrences where the read holds the key
// itself, and those where it holds its reverse complement. Reads go in
// last to first, so when an occurrence is added every later read is
// already there, and it records two entry points: skip, the first
// same-strand occurrence of its key in another read, and cross, the first
// opposite-strand one (for a palindromic k-mer, one equal to its own
// reverse complement, both are its own chain). The table is probed only
// while it is built. Read a then votes in two passes
// over its occurrences, walking every chain from skip (a forward against
// each later read b) and then every chain from cross (a reverse
// complemented): each step is a hit against a read b > a, so each pair is
// voted once. The hits of a are counted in one cell per (b, orientation
// of a), first diagonal inline; the rare pair hit on several diagonals
// gets a count per possible diagonal, so a vote is O(1) on repeats too.
// Cells in use are bits of a bitmap, and reading it in ascending order is
// (b, orientation) order: overlaps come out in one fixed order without a
// sort, which is what makes Run a function of its input and a redelivered
// task harmless.
//
// A file with fewer than two reads left after trimming and the MinReadLen
// drop has no pair to overlap: it is all singletons, and Assemble returns
// them before seeding, with the bytes and Stats the full pipeline would
// give. A one-read file, the paper's smallest task, so pays for parsing
// and its output, not for a k-mer index.
//
// Around seeding and alignment a file pays for little else. The layout
// takes overlaps best score first through one unstable sort of
// precomputed keys, (score descending, place in findOverlaps' order),
// which is exactly the order a stable sort by score gives: the union-find
// sees the same sequence. A file's working memory — the index, the vote
// cells, the overlaps and their ranking, read views over one arena of
// upper-cased bases and their reverse complements, and the consensus
// counts — is a scratch taken from a sync.Pool and given back, so a
// worker running file after file allocates little beyond parsing its
// input and writing its output. The pool lets the GC reclaim a scratch
// no file has taken for two cycles, so a worker that has stopped
// assembling keeps none of it.
package cap3

import (
	"cmp"
	"fmt"
	"math"
	"math/bits"
	"slices"
	"sync"

	"repro/internal/bio"
	"repro/internal/fasta"
)

// Options configure the assembler. Zero values select defaults.
type Options struct {
	// SeedK is the k-mer length used to seed candidate overlaps.
	SeedK int
	// MinOverlap is the minimum accepted overlap length in bases.
	MinOverlap int
	// MinIdentity is the minimum fraction of matching bases within an
	// overlap for it to be accepted.
	MinIdentity float64
	// TrimWindow is the window size used when clipping poor end regions.
	TrimWindow int
	// TrimMaxBaseFrac: a window whose most frequent base exceeds this
	// fraction is considered poor quality and clipped.
	TrimMaxBaseFrac float64
	// MinReadLen drops reads shorter than this after trimming.
	MinReadLen int
}

func (o Options) withDefaults() Options {
	if o.SeedK == 0 {
		o.SeedK = 14
	}
	if o.MinOverlap == 0 {
		o.MinOverlap = 40
	}
	if o.MinIdentity == 0 {
		o.MinIdentity = 0.92
	}
	if o.TrimWindow == 0 {
		o.TrimWindow = 8
	}
	if o.TrimMaxBaseFrac == 0 {
		o.TrimMaxBaseFrac = 0.8
	}
	if o.MinReadLen == 0 {
		o.MinReadLen = 50
	}
	return o
}

// Placement records where a read landed inside a contig.
type Placement struct {
	ReadID   string
	Offset   int  // start position in contig coordinates
	Reversed bool // true if the read was placed as its reverse complement
}

// Contig is one assembled consensus sequence.
type Contig struct {
	ID        string
	Consensus []byte
	Reads     []Placement
}

// Stats summarize an assembly for reporting and calibration.
type Stats struct {
	InputReads     int
	TrimmedBases   int
	DroppedReads   int
	SeedCandidates int
	OverlapsTested int
	OverlapsKept   int
	FalseOverlaps  int // rejected by identity or layout inconsistency
	Contigs        int
	Singletons     int
	ConsensusBases int
}

// Result is the output of Assemble.
type Result struct {
	Contigs    []*Contig
	Singletons []string // IDs of reads that joined no contig
	Stats      Stats
}

// trimPoorRegions clips low-complexity windows from both read ends,
// standing in for CAP3's quality-based clipping.
func trimPoorRegions(seq []byte, opt Options) (trimmed []byte, clipped int) {
	w := opt.TrimWindow
	isPoor := func(win []byte) bool {
		var counts [4]int
		for _, c := range win {
			if code, ok := bio.BaseCode(c); ok {
				counts[code]++
			}
		}
		max := 0
		for _, n := range counts {
			if n > max {
				max = n
			}
		}
		return float64(max) >= opt.TrimMaxBaseFrac*float64(len(win))
	}
	start, end := 0, len(seq)
	for end-start >= w && isPoor(seq[start:start+w]) {
		start += w
	}
	for end-start >= w && isPoor(seq[end-w:end]) {
		end -= w
	}
	return seq[start:end], start + (len(seq) - end)
}

// read is the assembler's working view of an input fragment.
type read struct {
	id  string
	seq []byte // trimmed forward sequence, upper case
	rc  []byte // its reverse complement
}

// scratch is the working memory of one file: everything Assemble builds
// and does not return. A file takes one from scratches and puts it back,
// so a worker running file after file reuses the same k-mer index, vote
// cells, overlaps and their ranking, read views over one arena of bases,
// and consensus counts.
type scratch struct {
	idx      kmerIndex
	views    []read
	reads    []*read    // &views[i], the reads every stage indexes
	bases    []byte     // each kept read's upper-cased bases, then its reverse complement
	cells    []voteCell // all zero between files, as live: verification clears what it reads
	live     []uint64
	spill    []int32
	overlaps []overlap
	ranks    []overlapRank
	roots    []int // each read's component
	order    []int // the reads by component
	placed   []placed
	counts   [][4]int32 // all zero between contigs: buildConsensus clears what it reads
}

// scratches holds the scratch of files not running now. A scratch no file
// takes during two GC cycles is dropped, so a worker that has stopped
// assembling, or runs only other apps, keeps none of its files' memory.
var scratches = sync.Pool{New: func() any { return new(scratch) }}

// grown returns buf resized to n: buf's own array, contents kept, when
// that holds n, and otherwise a new zeroed one with a quarter more room,
// so that a file a little larger than the largest before does not grow
// the arrays again. On a skewed set of 1 000 files (read counts ±50 %)
// the arena grows once, where exact sizes grow it 7 times.
func grown[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n, n+n/4)
	}
	return buf[:n]
}

// readViews trims every record's upper-cased sequence into sc's arena and
// returns the reads long enough to assemble, counting the bases trimmed
// and the reads dropped in st.
func (sc *scratch) readViews(records []*fasta.Record, opt Options, st *Stats) []*read {
	n := 0
	for _, rec := range records {
		n += len(rec.Seq)
	}
	// Room for each sequence and its reverse complement: appends reallocate
	// only for non-ASCII input, which upper-cases longer, and a view taken
	// before that keeps the old array, whose bytes stay as they were.
	sc.bases = grown(sc.bases, 2*n)[:0]
	sc.views = sc.views[:0]
	for _, rec := range records {
		start := len(sc.bases)
		sc.bases = bio.AppendUpper(sc.bases, rec.Seq)
		seq, clipped := trimPoorRegions(sc.bases[start:], opt)
		st.TrimmedBases += clipped
		if len(seq) < opt.MinReadLen {
			st.DroppedReads++
			sc.bases = sc.bases[:start]
			continue
		}
		sc.bases = bio.AppendReverseComplement(sc.bases, seq)
		sc.views = append(sc.views, read{id: rec.ID, seq: seq, rc: sc.bases[len(sc.bases)-len(seq):]})
	}
	sc.reads = grown(sc.reads, len(sc.views))
	for i := range sc.views {
		sc.reads[i] = &sc.views[i]
	}
	return sc.reads
}

// transform maps read-local coordinates into component coordinates:
// comp = sign*local + shift. sign == -1 means the read is placed reverse
// complemented.
type transform struct {
	sign  int // +1 or -1
	shift int
}

func compose(outer, inner transform) transform {
	return transform{sign: outer.sign * inner.sign, shift: outer.sign*inner.shift + outer.shift}
}

func invert(t transform) transform {
	return transform{sign: t.sign, shift: -t.sign * t.shift}
}

// layout is a union-find structure tracking each read's transform into
// its component root's coordinate frame.
type layout struct {
	parent []int
	rank   []int
	rel    []transform // rel[x]: x-local → parent[x]-local
}

func newLayout(n int) *layout {
	l := &layout{parent: make([]int, n), rank: make([]int, n), rel: make([]transform, n)}
	for i := range l.parent {
		l.parent[i] = i
		l.rel[i] = transform{sign: 1}
	}
	return l
}

// find returns the root of x and the transform from x-local coordinates
// into root-local coordinates.
func (l *layout) find(x int) (int, transform) {
	t := transform{sign: 1}
	for l.parent[x] != x {
		t = compose(l.rel[x], t)
		x = l.parent[x]
	}
	return x, t
}

// union merges the components of a and b given tAB, the transform of
// b-local coordinates into a-local coordinates derived from a verified
// overlap. It reports false when a and b are already in one component
// and the proposed placement contradicts the existing layout — the
// signature of a false overlap (e.g. a genomic repeat).
func (l *layout) union(a, b int, tAB transform) bool {
	ra, ta := l.find(a)
	rb, tb := l.find(b)
	inRootA := compose(ta, tAB) // b-local → ra frame
	if ra == rb {
		return tb == inRootA
	}
	// Transform rb-frame → ra-frame: local_b = tb⁻¹(comp_rb), then apply inRootA.
	r := compose(inRootA, invert(tb))
	if l.rank[ra] < l.rank[rb] {
		l.parent[ra] = rb
		l.rel[ra] = invert(r)
		return true
	}
	l.parent[rb] = ra
	l.rel[rb] = r
	if l.rank[ra] == l.rank[rb] {
		l.rank[ra]++
	}
	return true
}

// overlap describes a verified overlap between two reads.
type overlap struct {
	a, b   int // read indices
	t      transform
	length int
	ident  float64
}

func (o overlap) score() float64 { return float64(o.length) * o.ident }

// overlapRank is an overlap's place in the layout order: key is its
// score's bits inverted, so ascending keys are descending scores (a score
// is never negative or NaN: an overlap spans a shared k-mer), and i is its
// index in findOverlaps' order.
type overlapRank struct {
	key uint64
	i   int32
}

// rankOverlaps returns, in ranks' array, the indices of overlaps best
// score first and equal scores in findOverlaps' order: the order a stable
// sort by score gives, from one unstable sort of 16-byte keys.
func rankOverlaps(ranks []overlapRank, overlaps []overlap) []overlapRank {
	ranks = grown(ranks, len(overlaps))
	for i, ov := range overlaps {
		ranks[i] = overlapRank{key: ^math.Float64bits(ov.score()), i: int32(i)}
	}
	slices.SortFunc(ranks, func(x, y overlapRank) int {
		if x.key != y.key {
			return cmp.Compare(x.key, y.key)
		}
		return cmp.Compare(x.i, y.i)
	})
	return ranks
}

// Assemble runs the full pipeline over a set of reads.
func Assemble(records []*fasta.Record, opt Options) *Result {
	opt = opt.withDefaults()
	res := &Result{}
	res.Stats.InputReads = len(records)
	sc := scratches.Get().(*scratch)

	// Stage 1: poor-region trimming.
	reads := sc.readViews(records, opt, &res.Stats)
	if len(reads) < 2 {
		// No pair, so no overlap: what is kept is all singletons, and a
		// one-read file never builds a k-mer index.
		for _, r := range reads {
			res.Singletons = append(res.Singletons, r.id)
		}
		res.Stats.Singletons = len(reads)
		scratches.Put(sc)
		return res
	}

	// Stage 2: overlap detection.
	overlaps, stats := sc.findOverlaps(reads, opt)
	res.Stats.SeedCandidates = stats.SeedCandidates
	res.Stats.OverlapsTested = stats.OverlapsTested
	res.Stats.FalseOverlaps = stats.FalseOverlaps
	res.Stats.OverlapsKept = len(overlaps)

	// Stage 3+4: layout via union-find, best overlaps first; inconsistent
	// (false) overlaps are rejected at this stage, as CAP3 rejects
	// overlaps that contradict the growing layout. One keyed sort ranks
	// them, equal scores in findOverlaps' fixed (a, b, sign) order: the
	// order a stable sort by score gives.
	sc.ranks = rankOverlaps(sc.ranks, overlaps)
	lay := newLayout(len(reads))
	for _, r := range sc.ranks {
		ov := &overlaps[r.i]
		if !lay.union(ov.a, ov.b, ov.t) {
			res.Stats.FalseOverlaps++
		}
	}

	// Stage 5: consensus per component, components in ascending order of
	// root and each one's members in ascending order.
	roots, order := grown(sc.roots, len(reads)), grown(sc.order, len(reads))
	for i := range reads {
		roots[i], _ = lay.find(i)
		order[i] = i
	}
	slices.SortFunc(order, func(x, y int) int {
		if roots[x] != roots[y] {
			return cmp.Compare(roots[x], roots[y])
		}
		return cmp.Compare(x, y)
	})
	contigN := 0
	for lo := 0; lo < len(order); {
		hi := lo + 1
		for hi < len(order) && roots[order[hi]] == roots[order[lo]] {
			hi++
		}
		members := order[lo:hi]
		lo = hi
		if len(members) == 1 {
			res.Singletons = append(res.Singletons, reads[members[0]].id)
			res.Stats.Singletons++
			continue
		}
		contigN++
		contig := sc.buildConsensus(fmt.Sprintf("Contig%d", contigN), reads, members, lay)
		res.Stats.ConsensusBases += len(contig.Consensus)
		res.Contigs = append(res.Contigs, contig)
	}
	res.Stats.Contigs = len(res.Contigs)
	// Nothing in res points into sc. A file that panics never gives its
	// scratch back, whose counts may then not be zero.
	sc.roots, sc.order = roots, order
	scratches.Put(sc)
	return res
}

// overlapStats carries counters out of findOverlaps.
type overlapStats struct {
	SeedCandidates int
	OverlapsTested int
	FalseOverlaps  int
}

// kmerIndex holds every k-mer occurrence of a file once, under its
// canonical key (the smaller of the k-mer and its reverse complement): an
// open-addressing table of chain heads, one per strand, over one arena of
// occurrences. It lives in a file's scratch, so a worker running file
// after file reuses the same table, arena and spare table.
type kmerIndex struct {
	slots []kmerSlot // power-of-two length, at most half in use
	used  int
	shift uint       // 64 − log2(len(slots))
	locs  []kmerLoc  // locs[0] is unused: link 0 ends a chain
	spare []kmerSlot // the table add grows into: the one before the last growth
}

type kmerSlot struct {
	key  uint64
	head [2]int32 // the key's newest occurrence on each strand in locs; both 0 mark a free slot
}

// kmerLoc is an occurrence of a canonical key at pos in read, on strand 0
// (the window reads as the key) or 1 (as its reverse complement). next
// links the chain of its key and strand, newest first; skip and cross are
// the first occurrences in another read on the same strand and on the
// opposite one, where the read's two vote walks start.
type kmerLoc struct{ read, pos, next, skip, cross int32 }

// clearedSlots returns a free table of n slots: buf's first n, cleared,
// when buf holds that many, and a new table otherwise.
func clearedSlots(buf []kmerSlot, n int) []kmerSlot {
	if cap(buf) < n {
		return make([]kmerSlot, n)
	}
	buf = buf[:n]
	clear(buf)
	return buf
}

// slot returns key's slot, or the free slot where key belongs.
func (x *kmerIndex) slot(key uint64) *kmerSlot {
	mask := uint64(len(x.slots) - 1)
	for h := key * 0x9E3779B97F4A7C15 >> x.shift; ; h = (h + 1) & mask {
		if s := &x.slots[h]; s.head == [2]int32{} || s.key == key {
			return s
		}
	}
}

// add records the window at pos in read, whose k-mer is fwd and whose
// reverse complement is rc, at the head of its canonical key's chain on
// its strand. Reads must go in last to first: every later read is then
// already in, and the chains from the new occurrence's skip and cross
// hold exactly the later reads' occurrences.
func (x *kmerIndex) add(fwd, rc uint64, read, pos int) {
	key, st := fwd, 0
	if rc < fwd {
		key, st = rc, 1
	}
	s := x.slot(key)
	if s.head == [2]int32{} {
		if x.used++; 2*x.used > len(x.slots) {
			old := x.slots
			x.slots, x.spare, x.shift = clearedSlots(x.spare, 2*len(old)), old, x.shift-1
			for _, o := range old {
				if o.head != [2]int32{} {
					*x.slot(o.key) = o
				}
			}
			s = x.slot(key)
		}
	}
	l := kmerLoc{read: int32(read), pos: int32(pos), next: s.head[st],
		skip: x.past(s.head[st], read), cross: x.past(s.head[1-st], read)}
	if fwd == rc {
		// A palindromic k-mer is its own reverse complement: both of its
		// strands are the one chain it is on.
		l.cross = l.skip
	}
	x.locs = append(x.locs, l)
	s.key, s.head[st] = key, int32(len(x.locs)-1)
}

// past returns the first occurrence of the chain from head that is not in
// read: head itself, or, when head is in read too, head's skip.
func (x *kmerIndex) past(head int32, read int) int32 {
	if head != 0 && int(x.locs[head].read) == read {
		return x.locs[head].skip
	}
	return head
}

// build indexes every k-mer occurrence of reads, last read first (see
// add). The arena is sized for them, and the table for the n/4 distinct
// keys of n occurrences in reads that overlap (add doubles it when a file
// needs more). Every field that steers hashing is set afresh, and only
// the table's new length is cleared: a tiny file after a fat one clears a
// few slots, not the fat file's table.
func (x *kmerIndex) build(reads []*read, k int) {
	kc := bio.NewKmerCoder(k)
	n := 0
	for _, r := range reads {
		n += max(0, len(r.seq)-k+1)
	}
	lg := bits.Len(uint(n / 2))
	x.slots, x.used, x.shift = clearedSlots(x.slots, 1<<lg), 0, uint(64-lg)
	x.locs = grown(x.locs, n+1)[:1]
	for i := len(reads) - 1; i >= 0; i-- {
		kc.EachKmer(reads[i].seq, func(pos int, fwd, rc uint64) { x.add(fwd, rc, i, pos) })
	}
}

// voteCell counts the current read's seed hits against one (read b,
// orientation) pair.
type voteCell struct {
	votes int32 // hits on diag; 0: the pair has none yet
	diag  int32 // b's start in oriented-a coordinates at the first hit
	spill int   // once a second diagonal is hit: where the pair's count per diagonal starts in spill
}

// findOverlaps returns the verified overlaps of reads, in sc's array.
func (sc *scratch) findOverlaps(reads []*read, opt Options) ([]overlap, overlapStats) {
	var stats overlapStats
	k := opt.SeedK
	sc.idx.build(reads, k)

	// cells[2b+s] is the pair (b, s), s = 1 for a forward and 0 for a
	// reverse complemented; live has a bit per cell in use.
	overlaps := sc.overlaps[:0]
	cells := grown(sc.cells, 2*len(reads))
	live := grown(sc.live, (len(cells)+63)/64)
	spill := grown(sc.spill, 1) // spill[0] is unused: voteCell.spill 0 means none
	locs := sc.idx.locs
	// The arena holds each read's occurrences in one run, the last read's
	// first: walking it from the end takes the reads in ascending order.
	for hi := len(locs); hi > 1; {
		a := int(locs[hi-1].read)
		lo := hi - 1
		for lo > 1 && int(locs[lo-1].read) == a {
			lo--
		}
		occs := locs[lo:hi]
		hi = lo
		spill = spill[:1]
		// The diagonals of a pair are [-(len(b)-k), len(a)-k]; its counts
		// in spill are in that order.
		aMax := len(reads[a].seq) - k
		aSpan := aMax + 1
		// Pass s = 1 walks each occurrence's skip chain: b's windows equal
		// to a's. Pass s = 0 walks its cross chain: b's windows equal to
		// the reverse complement of a's, which starts at aMax − pos in a's
		// reverse complement. Each chain holds only reads b > a, so each
		// unordered pair is voted once and never a read with itself.
		for s := 1; s >= 0; s-- {
			for _, o := range occs {
				l, pa := o.skip, o.pos
				if s == 0 {
					l, pa = o.cross, int32(aMax)-o.pos
				}
				for ; l != 0; l = locs[l].next {
					b, diag := int(locs[l].read), pa-locs[l].pos
					ci := 2*b + s
					c := &cells[ci]
					switch {
					case c.votes == 0:
						c.votes, c.diag = 1, diag
						live[ci>>6] |= 1 << (ci & 63)
					case c.spill == 0 && c.diag == diag:
						c.votes++
					default:
						bMax := len(reads[b].seq) - k
						if c.spill == 0 {
							c.spill = len(spill)
							if n := c.spill + bMax + aSpan; n > cap(spill) {
								// Doubling, not append's steps of 1.25–1.5×:
								// a repeat-rich file spills every pair.
								spill = slices.Grow(spill, max(n, 2*cap(spill))-c.spill)
							}
							spill = spill[:c.spill+bMax+aSpan]
							clear(spill[c.spill:])
							spill[c.spill+bMax+int(c.diag)] = c.votes
						}
						spill[c.spill+bMax+int(diag)]++
					}
				}
			}
		}

		// Verify the best-voted diagonal of each pair, equal votes going to
		// the lower offset. Ascending cell order is (b, sign) order, so
		// overlaps are appended in one fixed order with nothing to sort: a
		// redelivered task has to rewrite the same bytes.
		for w, word := range live {
			for ; word != 0; word &= word - 1 {
				ci := w<<6 | bits.TrailingZeros64(word)
				c := cells[ci]
				cells[ci] = voteCell{}
				b, offset, diagonals := ci>>1, int(c.diag), 1
				if c.spill != 0 {
					bMax, best := len(reads[b].seq)-k, int32(0)
					diagonals = 0
					for d, v := range spill[c.spill : c.spill+bMax+aSpan] {
						if v > 0 {
							diagonals++
						}
						if v > best {
							best, offset = v, d-bMax
						}
					}
				}
				stats.SeedCandidates += diagonals
				stats.OverlapsTested++
				ov, ok := verifyOverlap(reads, a, b, 2*(ci&1)-1, offset, opt)
				if !ok {
					stats.FalseOverlaps++
					continue
				}
				overlaps = append(overlaps, ov)
			}
			live[w] = 0
		}
	}
	sc.cells, sc.live, sc.spill, sc.overlaps = cells, live, spill, overlaps
	return overlaps, stats
}

// verifyOverlap checks the ungapped alignment of read b (forward) against
// read a oriented by sign, with b starting at offset in oriented-a
// coordinates. On success it returns the overlap with the transform of
// b-local coordinates into a's frame (a-forward-local coordinates).
func verifyOverlap(reads []*read, a, b, sign, offset int, opt Options) (overlap, bool) {
	ra, rb := reads[a], reads[b]
	aseq := ra.seq
	if sign < 0 {
		aseq = ra.rc
	}
	// Overlapping window in oriented-a coordinates.
	lo := offset
	if lo < 0 {
		lo = 0
	}
	hi := offset + len(rb.seq)
	if hi > len(aseq) {
		hi = len(aseq)
	}
	length := hi - lo
	if length < opt.MinOverlap {
		return overlap{}, false
	}
	matches := 0
	for q := lo; q < hi; q++ {
		if aseq[q] == rb.seq[q-offset] {
			matches++
		}
	}
	ident := float64(matches) / float64(length)
	if ident < opt.MinIdentity {
		return overlap{}, false
	}
	// Transform b-local → a-forward-local frame.
	// Oriented-a coordinate q maps to a-forward local: q (sign=+1) or
	// len(a)-1-q (sign=-1). b-local k sits at q = offset + k.
	var t transform
	if sign > 0 {
		t = transform{sign: 1, shift: offset}
	} else {
		t = transform{sign: -1, shift: len(aseq) - 1 - offset}
	}
	return overlap{a: a, b: b, t: t, length: length, ident: ident}, true
}

// placed is a member read laid into its contig: its first base lands in
// column start, as its reverse complement when rev.
type placed struct {
	idx, start int
	rev        bool
}

// buildConsensus lays member reads into root coordinates and majority-votes
// each column, in one pass over sc's counts that leaves them zero again.
func (sc *scratch) buildConsensus(id string, reads []*read, members []int, lay *layout) *Contig {
	ps := grown(sc.placed, len(members))
	minPos := int(^uint(0) >> 1)
	maxPos := -minPos
	for i, m := range members {
		_, t := lay.find(m)
		p := placed{idx: m, start: t.shift, rev: t.sign < 0}
		if p.rev {
			p.start -= len(reads[m].seq) - 1
		}
		ps[i] = p
		minPos = min(minPos, p.start)
		maxPos = max(maxPos, p.start+len(reads[m].seq)-1)
	}
	width := maxPos - minPos + 1
	counts := grown(sc.counts, width)
	for i := range ps {
		p := &ps[i]
		p.start -= minPos
		r := reads[p.idx]
		src := r.seq
		if p.rev {
			src = r.rc
		}
		col := counts[p.start:][:len(src)]
		for k, c := range src {
			if code, ok := bio.BaseCode(c); ok {
				col[k][code]++
			}
		}
	}
	// By offset, equal offsets in member order.
	slices.SortFunc(ps, func(x, y placed) int { return cmp.Or(cmp.Compare(x.start, y.start), cmp.Compare(x.idx, y.idx)) })
	contig := &Contig{ID: id, Reads: make([]Placement, len(ps))}
	for i, p := range ps {
		contig.Reads[i] = Placement{ReadID: reads[p.idx].id, Offset: p.start, Reversed: p.rev}
	}
	consensus := make([]byte, 0, width)
	for i, col := range counts {
		counts[i] = [4]int32{}
		best := 0 // the first most frequent base
		for code, n := range col {
			if n > col[best] {
				best = code
			}
		}
		if col[best] == 0 {
			continue // uncovered column (cannot happen within one component)
		}
		consensus = append(consensus, bio.BaseFromCode(uint8(best)))
	}
	contig.Consensus = consensus
	sc.placed, sc.counts = ps, counts
	return contig
}

// Run is the executable-style entry point used by the execution
// frameworks: a FASTA document of reads in, a FASTA document of contigs
// (and singletons) out, mirroring how the paper invokes the cap3 binary
// on one input file.
func Run(input []byte, opt Options) ([]byte, error) {
	records, err := fasta.ParseBytes(input)
	if err != nil {
		return nil, fmt.Errorf("cap3: parsing input: %w", err)
	}
	res := Assemble(records, opt)
	out := make([]*fasta.Record, 0, len(res.Contigs))
	for _, c := range res.Contigs {
		out = append(out, &fasta.Record{
			ID:          c.ID,
			Description: fmt.Sprintf("reads=%d length=%d", len(c.Reads), len(c.Consensus)),
			Seq:         c.Consensus,
		})
	}
	doc, err := fasta.MarshalRecords(out)
	if err != nil {
		return nil, fmt.Errorf("cap3: writing contigs: %w", err)
	}
	if len(res.Singletons) > 0 {
		doc = fmt.Appendf(doc, "; %d singletons\n", len(res.Singletons))
	}
	return doc, nil
}
