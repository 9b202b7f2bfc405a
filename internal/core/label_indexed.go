package core

import (
	"math"
	"math/bits"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"github.com/rockclust/rock/internal/dataset"
	"github.com/rockclust/rock/internal/similarity"
)

// Indexed labeling.
//
// The reference labeler (labelPoint, kept in label.go as the oracle
// fixture) evaluates the measure on every (candidate, labeled point)
// pair: O(|candidates| × Σ|Lᵢ|) similarity calls, each a linear merge of
// two transactions. This file replaces that with an inverted index over
// the labeled points: one pass over a candidate's items accumulates the
// intersection size c = |t ∩ q| for exactly the labeled points q sharing
// an item with t, and the θ-test sim(t,q) ≥ θ is then decided from
// (c, |t|, |q|) alone through the measure's CountedMeasure form.
//
// Exactness argument: every built-in measure (Jaccard, Dice, Cosine,
// Overlap) is a pure function of those three numbers, and the counted
// form IS the Measure's implementation (similarity/counted.go), so the
// decision is bit-identical to the pairwise evaluation. Pairs the index
// never touches have c = 0, where all four measures are ≤ 0 < θ — so for
// θ > 0 skipping them cannot change any neighbor count. Custom Measure
// funcs (similarity.Counted returns nil) and θ ≤ 0 (a disjoint pair is
// then a neighbor) take the pairwise fallback automatically; the choice
// never changes results, only cost.
//
// Block postings and bit-sliced counters: the labeled points are numbered
// in set order, so one cluster's points share a few 64-point blocks. An
// item's posting list holds (block, mask) entries, one bit per labeled
// point holding the item, and the counters are bit-sliced: bit j of plane
// p is bit p of the count for point 64·block+j. Adding a posting entry is
// a ripple-carry add of its mask into the block's planes, so one word
// operation counts up to 64 points. A point holding an item twice gets a
// second entry, never a merged bit, so every count equals the scalar
// |t ∩ q| with its multiplicity.
//
// Integer thresholds: for fixed lengths each built-in counted measure is
// non-decreasing in c on 0 ≤ c ≤ min(|t|,|q|) — the numerator grows, the
// denominator is fixed (Dice, Cosine, Overlap) or shrinks (Jaccard), and
// IEEE division and sqrt are monotone. So cm(c,|t|,|q|) ≥ θ is exactly
// c ≥ need, the smallest passing c, found once by evaluating cm itself.
// A needRow holds that threshold for one candidate length, bit-sliced per
// block like the counters, and c ≥ need is decided for 64 points at once
// by a bit-sliced compare. Rows are derived on first use and never
// serialized. A canonical candidate (strictly ascending items, as every
// reader and NewTransaction produce) has c ≤ min(|t|,|q|); one that is
// not, or one longer than the cached range, takes the float test on each
// nonzero counter.
type labeler struct {
	ts    []dataset.Transaction
	sets  [][]int // L_i per cluster, dataset-global indices
	theta float64
	f     float64
	sim   similarity.Measure

	// denom[i] is (|L_i|+1)^f, hoisted out of the per-candidate loop.
	// math.Pow is pure, so the hoist preserves the reference's bits.
	denom []float64

	// Indexed path (indexed == false ⇒ pairwise fallback).
	indexed  bool
	cm       similarity.CountedMeasure
	ptSet    []int32     // flattened labeled points: owning cluster index
	ptCls    []int32     // flattened labeled points: length class of |q|
	clsLen   []int32     // length class → |q|, ascending
	postings [][]posting // item → block entries of the labeled points holding it

	// postingsMap replaces the dense postings array when the labeled
	// points' item ids are sparse: the dense array is sized by the MAX id,
	// so a single huge id (legal in a FreezeSets call, and reachable from
	// a checksummed-but-mutated model file) would balloon it far past the
	// data. Non-nil ⇔ postings is nil; the lookup is the only difference.
	postingsMap map[dataset.Item][]posting

	// nblocks is the number of 64-point blocks the labeled points fill.
	// width is the plane count for canonical candidates, bits.Len(max|q|+1):
	// their counts are at most max|q| and their needs at most max|q|+1.
	// maxMult is the most times one item occurs in one labeled point (1
	// when every labeled point is canonical); it bounds the counts of
	// non-canonical candidates.
	nblocks int
	width   int
	maxMult int

	// need[|t|] is the lazily built needRow for candidates of length |t|;
	// its length bounds the cached range (see lengthClasses).
	need []atomic.Pointer[needRow]

	// scratch pools labelScratch values, so a long-lived labeler (a
	// Model's) reuses them across batches and goroutines.
	scratch sync.Pool
}

// posting is one block entry of an item's posting list: bit j of mask
// marks labeled point 64·block+j as holding the item.
type posting struct {
	block int32
	mask  uint64
}

// needRow is the threshold for candidates of one fixed length, bit-sliced
// per block: bit j of planes[b·width+p] is bit p of the smallest passing
// intersection size for point 64·b+j (min(|t|,|q|)+1 when none passes).
// live is the decidable mask: live[b] marks the points of block b whose
// need is within reach of a canonical candidate's count, so a block whose
// counted points are all dead is decided without the compare.
type needRow struct {
	live   []uint64
	planes []uint64
}

// needBudget caps the words all cached rows of one labeler may hold
// together (4 MiB), so a labeler over many distinct long lengths and many
// labeled points stays bounded; longer candidates take the float test.
const needBudget = 1 << 19

// newLabeler prepares the labeling phase for the given cluster subsets.
// A nil sim selects Jaccard, mirroring Config.withDefaults.
func newLabeler(ts []dataset.Transaction, sets [][]int, theta, f float64, sim similarity.Measure) *labeler {
	if sim == nil {
		sim = similarity.Jaccard
	}
	lb := &labeler{ts: ts, sets: sets, theta: theta, f: f, sim: sim}
	lb.scratch.New = func() any { return lb.newScratch() }
	lb.denom = make([]float64, len(sets))
	for i, li := range sets {
		lb.denom[i] = math.Pow(float64(len(li)+1), f)
	}
	cm := similarity.Counted(sim)
	if cm == nil || theta <= 0 {
		return lb
	}
	lb.indexed = true
	lb.cm = cm

	npts := 0
	for _, li := range sets {
		npts += len(li)
	}
	ptGlobal := make([]int32, 0, npts)
	lb.ptSet = make([]int32, 0, npts)
	nitems := 0
	occurrences := 0
	maxLen := 0
	lb.maxMult = 1
	for i, li := range sets {
		for _, q := range li {
			ptGlobal = append(ptGlobal, int32(q))
			lb.ptSet = append(lb.ptSet, int32(i))
			occurrences += len(ts[q])
			maxLen = max(maxLen, len(ts[q]))
			lb.maxMult = max(lb.maxMult, maxMultiplicity(ts[q]))
			for _, it := range ts[q] {
				if int(it) >= nitems {
					nitems = int(it) + 1
				}
			}
		}
	}
	lb.nblocks = (npts + 63) / 64
	lb.width = bits.Len(uint(maxLen + 1))
	lb.lengthClasses(ptGlobal, maxLen)
	// Dense array when the id space is within a small factor of the data
	// it indexes (always true for vocabulary-interned ids); map otherwise,
	// so the index stays linear in the labeled points no matter how large
	// an id a caller — or a corrupted-but-checksummed model file — throws
	// at it. The two lookups return the same lists, so the choice is
	// invisible to results.
	if nitems <= 4*occurrences+1024 {
		lb.postings = make([][]posting, nitems)
		for pid, q := range ptGlobal {
			for _, it := range ts[q] {
				lb.postings[it] = addPosting(lb.postings[it], pid)
			}
		}
	} else {
		lb.postingsMap = make(map[dataset.Item][]posting, occurrences)
		for pid, q := range ptGlobal {
			for _, it := range ts[q] {
				lb.postingsMap[it] = addPosting(lb.postingsMap[it], pid)
			}
		}
	}
	return lb
}

// addPosting appends labeled point pid to a posting list built in
// ascending pid order: its bit joins the last entry when that entry is
// for pid's block and does not hold the bit yet, else a new entry starts.
// A point holding the item twice thus gets two entries, one count each.
func addPosting(list []posting, pid int) []posting {
	b, bit := int32(pid>>6), uint64(1)<<(pid&63)
	if n := len(list); n > 0 && list[n-1].block == b && list[n-1].mask&bit == 0 {
		list[n-1].mask |= bit
		return list
	}
	return append(list, posting{block: b, mask: bit})
}

// maxMultiplicity returns the most times one item occurs in t, and 1
// for any canonical transaction.
func maxMultiplicity(t dataset.Transaction) int {
	if canonicalItems(t) {
		return 1
	}
	s := slices.Clone(t)
	slices.Sort(s)
	best, run := 1, 1
	for i := 1; i < len(s); i++ {
		if s[i] == s[i-1] {
			run++
			best = max(best, run)
		} else {
			run = 1
		}
	}
	return best
}

// canonicalItems reports whether t's items are strictly ascending.
func canonicalItems(t dataset.Transaction) bool {
	for i := 1; i < len(t); i++ {
		if t[i] <= t[i-1] {
			return false
		}
	}
	return true
}

// lengthClasses numbers the labeled points' distinct lengths in
// ascending order, records each point's class, and sizes the row cache:
// rows for candidate lengths up to 4·max|q|+64, fewer when the labeled
// points fill many blocks, so all cached rows hold needBudget words at
// most.
func (lb *labeler) lengthClasses(ptGlobal []int32, maxLen int) {
	cls := make([]int32, maxLen+1)
	for _, q := range ptGlobal {
		cls[len(lb.ts[q])] = 1
	}
	for l, used := range cls {
		if used != 0 {
			cls[l] = int32(len(lb.clsLen))
			lb.clsLen = append(lb.clsLen, int32(l))
		}
	}
	lb.ptCls = make([]int32, len(ptGlobal))
	for pid, q := range ptGlobal {
		lb.ptCls[pid] = cls[len(lb.ts[q])]
	}
	rowWords := lb.nblocks * (lb.width + 1) // a live mask and width planes per block
	lb.need = make([]atomic.Pointer[needRow], min(4*maxLen+65, needBudget/max(rowWords, 1)))
}

// needRowFor returns the threshold row for candidates of length lt,
// building it on first use; nil when lt is past the cached range. Two
// goroutines racing on a new length build identical rows and the first
// store wins, so a row is allocated once per labeler, never per query.
func (lb *labeler) needRowFor(lt int) *needRow {
	if lt >= len(lb.need) {
		return nil
	}
	if r := lb.need[lt].Load(); r != nil {
		return r
	}
	lb.need[lt].CompareAndSwap(nil, lb.buildNeedRow(lt))
	return lb.need[lt].Load()
}

// buildNeedRow derives the bit-sliced row for candidate length lt from
// minPassing per length class. A canonical candidate's count for q is at
// most min(lt,|q|) when q holds no item twice, and at most |q| otherwise;
// a point whose need is past that reach is left out of live.
func (lb *labeler) buildNeedRow(lt int) *needRow {
	need := make([]int32, len(lb.clsLen))
	reach := make([]int32, len(lb.clsLen))
	for ci, lq := range lb.clsLen {
		need[ci] = int32(minPassing(lb.cm, lt, int(lq), lb.theta))
		reach[ci] = lq
		if lb.maxMult == 1 {
			reach[ci] = min(int32(lt), lq)
		}
	}
	w := lb.width
	row := &needRow{live: make([]uint64, lb.nblocks), planes: make([]uint64, lb.nblocks*w)}
	for pid, ci := range lb.ptCls {
		b, bit := pid>>6, uint64(1)<<(pid&63)
		if need[ci] <= reach[ci] {
			row.live[b] |= bit
		}
		for p := range w {
			if need[ci]>>p&1 != 0 {
				row.planes[b*w+p] |= bit
			}
		}
	}
	return row
}

// minPassing returns the smallest c in [1, min(lt,lq)] with
// cm(c, lt, lq) ≥ theta, or min(lt,lq)+1 when none passes. It relies on
// cm being non-decreasing in c over that range; the exhaustive threshold
// test checks the result against cm for every c.
func minPassing(cm similarity.CountedMeasure, lt, lq int, theta float64) int {
	hi := min(lt, lq)
	return 1 + sort.Search(hi, func(i int) bool { return cm(i+1, lt, lq) >= theta })
}

// countWidth is the plane count that holds every count of a candidate
// of length lt whose items may repeat: each of its items adds at most
// mult to one point's count. Capped at 32 planes: a count past 2³²
// takes a candidate of billions of items.
func countWidth(lt, mult int) int {
	if lt > math.MaxUint32/mult {
		return 32
	}
	return min(bits.Len(uint(lt*mult)), 32)
}

// labelScratch is one worker's reusable per-candidate state: bit-sliced
// intersection counters over the labeled points' blocks and θ-neighbor
// counters over the sets, each paired with a touched list so clearing
// costs O(touched), not O(total).
type labelScratch struct {
	// words holds stride = width+1 words per block while a candidate is
	// counted: the occupancy word (points with a nonzero count), then the
	// count planes. It is all zero between candidates.
	words       []uint64
	blocks      []int32 // blocks with a nonzero count
	setN        []int32 // per set: θ-neighbors of the candidate found
	touchedSets []int32 // sets with setN > 0
}

func (lb *labeler) newScratch() *labelScratch {
	return &labelScratch{
		words:       make([]uint64, lb.nblocks*(lb.width+1)),
		blocks:      make([]int32, 0, lb.nblocks),
		setN:        make([]int32, len(lb.sets)),
		touchedSets: make([]int32, 0, len(lb.sets)),
	}
}

func (lb *labeler) getScratch() *labelScratch   { return lb.scratch.Get().(*labelScratch) }
func (lb *labeler) putScratch(sc *labelScratch) { lb.scratch.Put(sc) }

// label assigns one candidate: the cluster index maximizing
// N_i / (|L_i|+1)^f, ties toward the smaller index, or -1 when the
// candidate has no θ-neighbor in any L_i.
func (lb *labeler) label(t dataset.Transaction, sc *labelScratch) int {
	if !lb.indexed {
		return labelPoint(t, lb.ts, lb.sets, lb.theta, lb.f, lb.sim)
	}
	return lb.labelIndexed(t, sc)
}

// labelIndexed is the index-driven scoring pass for one candidate.
func (lb *labeler) labelIndexed(t dataset.Transaction, sc *labelScratch) int {
	canonical := canonicalItems(t)
	width := lb.width
	if !canonical {
		width = countWidth(len(t), lb.maxMult)
	}
	stride := width + 1
	if n := lb.nblocks * stride; len(sc.words) < n {
		sc.words = make([]uint64, n)
	}
	words, blocks := sc.words, sc.blocks

	// Accumulate |t ∩ q| for every labeled point q sharing an item, one
	// ripple-carry add per block entry. Items outside the postings range
	// — above it, or negative (invalid per the data model, but the
	// pairwise reference tolerates them in candidates) — occur in no
	// labeled point and cannot contribute. The carry cannot pass the top
	// plane, since width holds every count this candidate can reach; the
	// bound on p matters only past the 32-plane cap, which takes a
	// candidate of billions of items.
	for _, it := range t {
		var plist []posting
		if lb.postings != nil {
			if it < 0 || int(it) >= len(lb.postings) {
				continue
			}
			plist = lb.postings[it]
		} else {
			plist = lb.postingsMap[it]
		}
		for _, e := range plist {
			w := words[int(e.block)*stride:][:stride]
			if w[0] == 0 {
				blocks = append(blocks, e.block)
			}
			w[0] |= e.mask
			for p, carry := 1, e.mask; carry != 0 && p < len(w); p++ {
				x := w[p]
				w[p] = x ^ carry
				carry &= x
			}
		}
	}

	// Threshold each touched block and tally N_i: through the bit-sliced
	// row when the candidate is canonical and its length cached, else
	// through the counted measure itself.
	var row *needRow
	if canonical && len(blocks) > 0 {
		row = lb.needRowFor(len(t))
	}
	for _, b := range blocks {
		w := words[int(b)*stride:][:stride]
		var hits uint64
		if row != nil {
			if hits = w[0] & row.live[b]; hits != 0 {
				hits &= atLeast(w[1:], row.planes[int(b)*width:][:width])
			}
		} else {
			hits = lb.floatHits(len(t), int(b), w)
		}
		clear(w)
		for ; hits != 0; hits &= hits - 1 {
			si := lb.ptSet[int(b)<<6|bits.TrailingZeros64(hits)]
			if sc.setN[si] == 0 {
				sc.touchedSets = append(sc.touchedSets, si)
			}
			sc.setN[si]++
		}
	}
	sc.blocks = blocks[:0]

	// Argmax over the touched sets. The reference scans sets in ascending
	// index with a strict >, keeping the smallest index on score ties;
	// touchedSets is unordered, so the tie goes to the smaller index
	// explicitly — same winner, since both paths compute identical
	// score floats.
	best := -1
	bestScore := 0.0
	for _, si := range sc.touchedSets {
		score := float64(sc.setN[si]) / lb.denom[si]
		sc.setN[si] = 0
		i := int(si)
		if best == -1 || score > bestScore || (score == bestScore && i < best) {
			best, bestScore = i, score
		}
	}
	sc.touchedSets = sc.touchedSets[:0]
	return best
}

// atLeast compares 64 bit-sliced counts against 64 bit-sliced needs of
// the same width and returns the lanes where count ≥ need, deciding from
// the top plane down: a lane is greater at the first plane where the
// count has a 1 and the need a 0 with every higher plane equal.
func atLeast(count, need []uint64) uint64 {
	need = need[:len(count)]
	gt, eq := uint64(0), ^uint64(0)
	for p := len(count) - 1; p >= 0 && eq != 0; p-- {
		gt |= eq & count[p] &^ need[p]
		eq &^= count[p] ^ need[p]
	}
	return gt | eq
}

// floatHits decides block b's counted points through the counted
// measure: w is the block's occupancy word then its count planes.
func (lb *labeler) floatHits(lt, b int, w []uint64) uint64 {
	var hits uint64
	for m := w[0]; m != 0; m &= m - 1 {
		j := bits.TrailingZeros64(m)
		c := 0
		for p, plane := range w[1:] {
			c |= int(plane>>j&1) << p
		}
		lq := int(lb.clsLen[lb.ptCls[b<<6|j]])
		if lb.cm(c, lt, lq) >= lb.theta {
			hits |= 1 << j
		}
	}
	return hits
}

// labelCandidatesReference is the serial pairwise labeling loop — the
// oracle fixture the indexed/parallel labeler is proven byte-identical
// to, in the same role engine_reference.go plays for the merge phase.
func labelCandidatesReference(ts []dataset.Transaction, candidates []int, sets [][]int, theta, f float64, sim similarity.Measure) []int {
	if sim == nil {
		sim = similarity.Jaccard
	}
	out := make([]int, len(candidates))
	for i, p := range candidates {
		out[i] = labelPoint(ts[p], ts, sets, theta, f, sim)
	}
	return out
}
