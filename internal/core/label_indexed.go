package core

import (
	"math"
	"sort"
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
// Integer thresholds: for fixed lengths each built-in counted measure is
// non-decreasing in c on 0 ≤ c ≤ min(|t|,|q|) — the numerator grows, the
// denominator is fixed (Dice, Cosine, Overlap) or shrinks (Jaccard), and
// IEEE division and sqrt are monotone. So cm(c,|t|,|q|) ≥ θ is exactly
// c ≥ need, the smallest passing c, found once by evaluating cm itself.
// A needRow holds that threshold for one candidate length against every
// length class of the labeled points; rows are derived on first use and
// never serialized. A canonical candidate (strictly ascending items, as
// every reader and NewTransaction produce) has c ≤ min(|t|,|q|); one
// that is not, or one longer than the cached range, takes the float test.
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
	ptSet    []int32   // flattened labeled points: owning cluster index
	ptCls    []int32   // flattened labeled points: length class of |q|
	clsLen   []int32   // length class → |q|, ascending
	postings [][]int32 // item → flattened labeled-point ids holding it

	// postingsMap replaces the dense postings array when the labeled
	// points' item ids are sparse: the dense array is sized by the MAX id,
	// so a single huge id (legal in a FreezeSets call, and reachable from
	// a checksummed-but-mutated model file) would balloon it far past the
	// data. Non-nil ⇔ postings is nil; the lookup is the only difference.
	postingsMap map[dataset.Item][]int32

	// need[|t|] is the lazily built needRow for candidates of length |t|;
	// its length bounds the cached range (see lengthClasses).
	need []atomic.Pointer[needRow]
}

// needRow maps a labeled point's length class to the smallest
// intersection size that passes the θ-test against a candidate of one
// fixed length; min(|t|,|q|)+1 when none does.
type needRow []int32

// needRowBudget caps the int32 entries all cached rows may hold
// together, so a labeler over many distinct long lengths stays bounded.
const needRowBudget = 1 << 20

// newLabeler prepares the labeling phase for the given cluster subsets.
// A nil sim selects Jaccard, mirroring Config.withDefaults.
func newLabeler(ts []dataset.Transaction, sets [][]int, theta, f float64, sim similarity.Measure) *labeler {
	if sim == nil {
		sim = similarity.Jaccard
	}
	lb := &labeler{ts: ts, sets: sets, theta: theta, f: f, sim: sim}
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
	for i, li := range sets {
		for _, q := range li {
			ptGlobal = append(ptGlobal, int32(q))
			lb.ptSet = append(lb.ptSet, int32(i))
			occurrences += len(ts[q])
			maxLen = max(maxLen, len(ts[q]))
			for _, it := range ts[q] {
				if int(it) >= nitems {
					nitems = int(it) + 1
				}
			}
		}
	}
	lb.lengthClasses(ptGlobal, maxLen)
	// Dense array when the id space is within a small factor of the data
	// it indexes (always true for vocabulary-interned ids); map otherwise,
	// so the index stays linear in the labeled points no matter how large
	// an id a caller — or a corrupted-but-checksummed model file — throws
	// at it. The two lookups return the same lists, so the choice is
	// invisible to results.
	if nitems <= 4*occurrences+1024 {
		lb.postings = make([][]int32, nitems)
		for pid, q := range ptGlobal {
			for _, it := range ts[q] {
				lb.postings[it] = append(lb.postings[it], int32(pid))
			}
		}
	} else {
		lb.postingsMap = make(map[dataset.Item][]int32, occurrences)
		for pid, q := range ptGlobal {
			for _, it := range ts[q] {
				lb.postingsMap[it] = append(lb.postingsMap[it], int32(pid))
			}
		}
	}
	return lb
}

// lengthClasses numbers the labeled points' distinct lengths in
// ascending order, records each point's class, and sizes the row cache:
// rows for candidate lengths up to 4·max|q|+64, fewer when the classes
// are many, so the cache holds about needRowBudget entries at most.
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
	rows := min(4*maxLen+64, needRowBudget/max(len(lb.clsLen), 1))
	lb.need = make([]atomic.Pointer[needRow], rows+1)
}

// needRowFor returns the threshold row for candidates of length lt,
// building it on first use; nil when lt is past the cached range. Two
// goroutines racing on a new length build identical rows and the first
// store wins, so a row is allocated once per labeler, never per query.
func (lb *labeler) needRowFor(lt int) needRow {
	if lt >= len(lb.need) {
		return nil
	}
	if r := lb.need[lt].Load(); r != nil {
		return *r
	}
	row := make(needRow, len(lb.clsLen))
	for ci, lq := range lb.clsLen {
		row[ci] = int32(minPassing(lb.cm, lt, int(lq), lb.theta))
	}
	lb.need[lt].CompareAndSwap(nil, &row)
	return *lb.need[lt].Load()
}

// minPassing returns the smallest c in [1, min(lt,lq)] with
// cm(c, lt, lq) ≥ theta, or min(lt,lq)+1 when none passes. It relies on
// cm being non-decreasing in c over that range; the exhaustive threshold
// test checks the result against cm for every c.
func minPassing(cm similarity.CountedMeasure, lt, lq int, theta float64) int {
	hi := min(lt, lq)
	return 1 + sort.Search(hi, func(i int) bool { return cm(i+1, lt, lq) >= theta })
}

// labelScratch is one worker's reusable per-candidate state: intersection
// counters over the flattened labeled points and θ-neighbor counters over
// the sets, each paired with a touched list so clearing costs O(touched),
// not O(total).
type labelScratch struct {
	counts      []int32 // per flattened labeled point: |t ∩ q| so far
	touched     []int32 // flattened ids with counts > 0, then one spare slot
	setN        []int32 // per set: θ-neighbors of the candidate found
	touchedSets []int32 // sets with setN > 0
}

func (lb *labeler) newScratch() *labelScratch {
	return &labelScratch{
		counts:      make([]int32, len(lb.ptSet)),
		touched:     make([]int32, len(lb.ptSet)+1),
		setN:        make([]int32, len(lb.sets)),
		touchedSets: make([]int32, 0, len(lb.sets)),
	}
}

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
	// Accumulate |t ∩ q| for every labeled point q sharing an item.
	// Items outside the postings range — above it, or negative (invalid
	// per the data model, but the pairwise reference tolerates them in
	// candidates) — occur in no labeled point and cannot contribute.
	//
	// The first touch of a point is recorded without a branch: pid is
	// written to the next touched slot on every hit, and the slot is kept
	// (nt advances) only when the count was 0 — uint32(c-1)>>31 is 1
	// exactly then. touched has one spare slot for the final overwrite.
	counts, touched := sc.counts, sc.touched
	nt := 0
	canonical := true
	var prev dataset.Item
	for i, it := range t {
		canonical = canonical && (i == 0 || it > prev)
		prev = it
		var plist []int32
		if lb.postings != nil {
			if it < 0 || int(it) >= len(lb.postings) {
				continue
			}
			plist = lb.postings[it]
		} else {
			plist = lb.postingsMap[it]
		}
		for _, pid := range plist {
			c := counts[pid]
			touched[nt] = pid
			nt += int(uint32(c-1) >> 31)
			counts[pid] = c + 1
		}
	}
	// Threshold each touched pair and tally N_i: through the integer row
	// when the candidate is canonical and its length cached, else through
	// the counted measure itself.
	var need needRow
	if canonical {
		need = lb.needRowFor(len(t))
	}
	for _, pid := range touched[:nt] {
		c := counts[pid]
		counts[pid] = 0
		var hit bool
		if need != nil {
			hit = c >= need[lb.ptCls[pid]]
		} else {
			hit = lb.cm(int(c), len(t), int(lb.clsLen[lb.ptCls[pid]])) >= lb.theta
		}
		if hit {
			si := lb.ptSet[pid]
			if sc.setN[si] == 0 {
				sc.touchedSets = append(sc.touchedSets, si)
			}
			sc.setN[si]++
		}
	}

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
