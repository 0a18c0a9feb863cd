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
// from the input, allocating nothing per k-mer. The forward k-mers of all
// reads go into one open-addressing table whose slots head chains through
// a single arena of (read, pos) occurrences, newest first, so a lookup for
// read a stops at the first occurrence in a read ≤ a. The hits of a are
// counted in one cell per (other read b, orientation of a), first diagonal
// inline; the rare pair hit on several diagonals gets a count per possible
// diagonal, so a vote is O(1) on repeats too. Cells in use are bits of a
// bitmap, and reading it in ascending order is (b, orientation) order:
// overlaps come out in one fixed order without a sort, which is what makes
// Run a function of its input and a redelivered task harmless.
package cap3

import (
	"bytes"
	"cmp"
	"fmt"
	"math/bits"
	"slices"
	"sort"

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
	seq []byte // trimmed forward sequence
	rc  []byte // cached reverse complement
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

// Assemble runs the full pipeline over a set of reads.
func Assemble(records []*fasta.Record, opt Options) *Result {
	opt = opt.withDefaults()
	res := &Result{}
	res.Stats.InputReads = len(records)

	// Stage 1: poor-region trimming.
	reads := make([]*read, 0, len(records))
	for _, rec := range records {
		seq, clipped := trimPoorRegions(bio.Upper(rec.Seq), opt)
		res.Stats.TrimmedBases += clipped
		if len(seq) < opt.MinReadLen {
			res.Stats.DroppedReads++
			continue
		}
		reads = append(reads, &read{id: rec.ID, seq: seq, rc: bio.ReverseComplement(seq)})
	}

	// Stage 2: overlap detection.
	overlaps, stats := findOverlaps(reads, opt)
	res.Stats.SeedCandidates = stats.SeedCandidates
	res.Stats.OverlapsTested = stats.OverlapsTested
	res.Stats.FalseOverlaps = stats.FalseOverlaps
	res.Stats.OverlapsKept = len(overlaps)

	// Stage 3+4: layout via union-find, best overlaps first; inconsistent
	// (false) overlaps are rejected at this stage, as CAP3 rejects
	// overlaps that contradict the growing layout.
	// Stable, so equal scores keep findOverlaps' fixed (a, b, sign) order.
	slices.SortStableFunc(overlaps, func(x, y overlap) int { return cmp.Compare(y.score(), x.score()) })
	lay := newLayout(len(reads))
	for _, ov := range overlaps {
		if !lay.union(ov.a, ov.b, ov.t) {
			res.Stats.FalseOverlaps++
		}
	}

	// Stage 5: consensus per component.
	components := map[int][]int{}
	for i := range reads {
		root, _ := lay.find(i)
		components[root] = append(components[root], i)
	}
	roots := make([]int, 0, len(components))
	for r := range components {
		roots = append(roots, r)
	}
	sort.Ints(roots)
	contigN := 0
	for _, root := range roots {
		members := components[root]
		if len(members) == 1 {
			res.Singletons = append(res.Singletons, reads[members[0]].id)
			res.Stats.Singletons++
			continue
		}
		contigN++
		contig := buildConsensus(fmt.Sprintf("Contig%d", contigN), reads, members, lay)
		res.Stats.ConsensusBases += len(contig.Consensus)
		res.Contigs = append(res.Contigs, contig)
	}
	res.Stats.Contigs = len(res.Contigs)
	return res
}

// overlapStats carries counters out of findOverlaps.
type overlapStats struct {
	SeedCandidates int
	OverlapsTested int
	FalseOverlaps  int
}

// kmerIndex maps each forward k-mer of a file to its occurrences: an
// open-addressing table of chain heads over one arena of occurrences.
type kmerIndex struct {
	slots []kmerSlot // power-of-two length, at most half in use
	used  int
	shift uint      // 64 − log2(len(slots))
	locs  []kmerLoc // locs[0] is unused: link 0 ends a chain
}

type kmerSlot struct {
	key  uint64
	head int32 // the k-mer's newest occurrence in locs; 0 marks a free slot
}

type kmerLoc struct{ read, pos, next int32 }

// newKmerIndex sizes the arena for n occurrences, and the table for the
// n/4 distinct k-mers of reads that overlap: most of the kernel's time is
// cache misses on this table, and one sized for n distinct k-mers costs
// the cap3_fat shape a third more (add doubles it when a file needs that).
func newKmerIndex(n int) *kmerIndex {
	lg := bits.Len(uint(n / 2))
	return &kmerIndex{slots: make([]kmerSlot, 1<<lg), shift: uint(64 - lg), locs: make([]kmerLoc, 1, n+1)}
}

// slot returns key's slot, or the free slot where key belongs.
func (x *kmerIndex) slot(key uint64) *kmerSlot {
	mask := uint64(len(x.slots) - 1)
	for h := key * 0x9E3779B97F4A7C15 >> x.shift; ; h = (h + 1) & mask {
		if s := &x.slots[h]; s.head == 0 || s.key == key {
			return s
		}
	}
}

// add records an occurrence of key at the head of key's chain.
func (x *kmerIndex) add(key uint64, read, pos int) {
	s := x.slot(key)
	if s.head == 0 {
		if x.used++; 2*x.used > len(x.slots) {
			old := x.slots
			x.slots, x.shift = make([]kmerSlot, 2*len(old)), x.shift-1
			for _, o := range old {
				if o.head != 0 {
					*x.slot(o.key) = o
				}
			}
			s = x.slot(key)
		}
	}
	x.locs = append(x.locs, kmerLoc{read: int32(read), pos: int32(pos), next: s.head})
	s.key, s.head = key, int32(len(x.locs)-1)
}

// voteCell counts the current read's seed hits against one (read b,
// orientation) pair.
type voteCell struct {
	votes int32 // hits on diag; 0: the pair has none yet
	diag  int32 // b's start in oriented-a coordinates at the first hit
	spill int   // once a second diagonal is hit: where the pair's count per diagonal starts in spill
}

func findOverlaps(reads []*read, opt Options) ([]overlap, overlapStats) {
	var stats overlapStats
	k := opt.SeedK
	kc := bio.NewKmerCoder(k)

	// Index forward k-mers of every read, in read order: a chain then runs
	// from high read numbers to low.
	total := 0
	for _, r := range reads {
		total += max(0, len(r.seq)-k+1)
	}
	idx := newKmerIndex(total)
	for i, r := range reads {
		kc.EachKmer(r.seq, func(pos int, key uint64) { idx.add(key, i, pos) })
	}

	// cells[2b+s] is the pair (b, s), s = 1 for a forward and 0 for a
	// reverse complemented; live has a bit per cell in use.
	var overlaps []overlap
	cells := make([]voteCell, 2*len(reads))
	live := make([]uint64, (len(cells)+63)/64)
	spill := make([]int32, 1) // spill[0] is unused: voteCell.spill 0 means none
	for a, r := range reads {
		spill = spill[:1]
		// The diagonals of a pair are [-(len(b)-k), len(a)-k]; its counts
		// in spill are in that order.
		aSpan := len(r.seq) - k + 1
		collect := func(seq []byte, s int) {
			kc.EachKmer(seq, func(pos int, key uint64) {
				// Each unordered pair once; skip self.
				for l := idx.slot(key).head; l != 0 && int(idx.locs[l].read) > a; l = idx.locs[l].next {
					b, diag := int(idx.locs[l].read), int32(pos)-idx.locs[l].pos
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
							spill = slices.Grow(spill, bMax+aSpan)[:c.spill+bMax+aSpan]
							clear(spill[c.spill:])
							spill[c.spill+bMax+int(c.diag)] = c.votes
						}
						spill[c.spill+bMax+int(diag)]++
					}
				}
			})
		}
		collect(r.seq, 1)
		collect(r.rc, 0)

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

// buildConsensus lays member reads into root coordinates and majority-votes
// each column.
func buildConsensus(id string, reads []*read, members []int, lay *layout) *Contig {
	type placed struct {
		idx int
		t   transform
	}
	ps := make([]placed, len(members))
	minPos := int(^uint(0) >> 1)
	maxPos := -minPos
	for i, m := range members {
		_, t := lay.find(m)
		ps[i] = placed{idx: m, t: t}
		lo, hi := placedExtent(reads[m], t)
		if lo < minPos {
			minPos = lo
		}
		if hi > maxPos {
			maxPos = hi
		}
	}
	width := maxPos - minPos + 1
	counts := make([][4]int32, width)
	contig := &Contig{ID: id}
	for _, p := range ps {
		r := reads[p.idx]
		rev := p.t.sign < 0
		start := p.t.shift - minPos
		if rev {
			start = p.t.shift - (len(r.seq) - 1) - minPos
		}
		contig.Reads = append(contig.Reads, Placement{ReadID: r.id, Offset: start, Reversed: rev})
		src := r.seq
		if rev {
			src = r.rc
		}
		for k, c := range src {
			if code, ok := bio.BaseCode(c); ok {
				counts[start+k][code]++
			}
		}
	}
	sort.Slice(contig.Reads, func(i, j int) bool { return contig.Reads[i].Offset < contig.Reads[j].Offset })
	consensus := make([]byte, 0, width)
	for _, col := range counts {
		bestCode, bestN := 0, int32(0)
		total := int32(0)
		for code, n := range col {
			total += n
			if n > bestN {
				bestN, bestCode = n, code
			}
		}
		if total == 0 {
			continue // uncovered column (cannot happen within one component)
		}
		consensus = append(consensus, bio.BaseFromCode(uint8(bestCode)))
	}
	contig.Consensus = consensus
	return contig
}

// placedExtent returns the inclusive component-coordinate range covered by
// read r under transform t.
func placedExtent(r *read, t transform) (lo, hi int) {
	p0 := t.sign*0 + t.shift
	p1 := t.sign*(len(r.seq)-1) + t.shift
	if p0 > p1 {
		p0, p1 = p1, p0
	}
	return p0, p1
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
	var out []*fasta.Record
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
	var buf bytes.Buffer
	buf.Write(doc)
	if len(res.Singletons) > 0 {
		fmt.Fprintf(&buf, "; %d singletons\n", len(res.Singletons))
	}
	return buf.Bytes(), nil
}
