package core

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"github.com/rockclust/rock/internal/dataset"
	"github.com/rockclust/rock/internal/similarity"
)

// scalarLabeler is the per-point counting labeler the block kernel
// replaced, kept as its oracle: one int32 counter per labeled point, a
// touched list with a spare slot and a branchless first-touch record,
// and the θ-test decided as c ≥ need[|q|] for canonical candidates whose
// length is below rows, through the counted measure otherwise.
type scalarLabeler struct {
	sets     [][]int
	theta    float64
	cm       similarity.CountedMeasure
	denom    []float64
	rows     int
	ptSet    []int32
	ptLen    []int32
	postings map[dataset.Item][]int32
	need     map[int][]int32 // need[|t|][|q|], built on first use

	counts      []int32
	touched     []int32
	setN        []int32
	touchedSets []int32
}

// newScalarLabeler builds the oracle over the same inputs as newLabeler;
// rows is the cached-length bound of the kernel it is compared against.
func newScalarLabeler(ts []dataset.Transaction, sets [][]int, theta, f float64, sim similarity.Measure, rows int) *scalarLabeler {
	o := &scalarLabeler{
		sets: sets, theta: theta, cm: similarity.Counted(sim), rows: rows,
		postings: map[dataset.Item][]int32{}, need: map[int][]int32{},
		setN: make([]int32, len(sets)),
	}
	for si, li := range sets {
		o.denom = append(o.denom, math.Pow(float64(len(li)+1), f))
		for _, q := range li {
			pid := int32(len(o.ptSet))
			o.ptSet = append(o.ptSet, int32(si))
			o.ptLen = append(o.ptLen, int32(len(ts[q])))
			for _, it := range ts[q] {
				o.postings[it] = append(o.postings[it], pid)
			}
		}
	}
	o.counts = make([]int32, len(o.ptSet))
	o.touched = make([]int32, len(o.ptSet)+1)
	return o
}

func (o *scalarLabeler) needRow(lt int) []int32 {
	if row, ok := o.need[lt]; ok {
		return row
	}
	row := make([]int32, slices.Max(append(o.ptLen, 0))+1)
	for lq := range row {
		row[lq] = int32(minPassing(o.cm, lt, lq, o.theta))
	}
	o.need[lt] = row
	return row
}

func (o *scalarLabeler) label(t dataset.Transaction) int {
	counts, touched := o.counts, o.touched
	nt := 0
	canonical := true
	var prev dataset.Item
	for i, it := range t {
		canonical = canonical && (i == 0 || it > prev)
		prev = it
		for _, pid := range o.postings[it] {
			c := counts[pid]
			touched[nt] = pid
			nt += int(uint32(c-1) >> 31)
			counts[pid] = c + 1
		}
	}
	var need []int32
	if canonical && len(t) < o.rows {
		need = o.needRow(len(t))
	}
	for _, pid := range touched[:nt] {
		c := counts[pid]
		counts[pid] = 0
		var hit bool
		if need != nil {
			hit = c >= need[o.ptLen[pid]]
		} else {
			hit = o.cm(int(c), len(t), int(o.ptLen[pid])) >= o.theta
		}
		if hit {
			si := o.ptSet[pid]
			if o.setN[si] == 0 {
				o.touchedSets = append(o.touchedSets, si)
			}
			o.setN[si]++
		}
	}
	best := -1
	bestScore := 0.0
	for _, si := range o.touchedSets {
		score := float64(o.setN[si]) / o.denom[si]
		o.setN[si] = 0
		i := int(si)
		if best == -1 || score > bestScore || (score == bestScore && i < best) {
			best, bestScore = i, score
		}
	}
	o.touchedSets = o.touchedSets[:0]
	return best
}

// raceEnabled is set by race_test.go in -race builds.
var raceEnabled bool

// kernelShape is one labeled-point layout for the kernel oracle.
type kernelShape struct {
	npts   int  // labeled points: block edges at 63/64/65/129
	maxLen int  // max|q|: plane-width edges at 2^k−1 and 2^k
	dups   bool // some labeled points hold an item twice
	sparse bool // item ids spread far apart: the map postings
}

// kernelFixture draws labeled points of the given shape, split into
// clusters, and candidates covering every path of the kernel.
func kernelFixture(r *rand.Rand, sh kernelShape) (ts []dataset.Transaction, sets [][]int, cands []dataset.Transaction) {
	universe := 2*sh.maxLen + 4
	id := func(i int) dataset.Item {
		if sh.sparse {
			return dataset.Item(i) * 1_000_003
		}
		return dataset.Item(i)
	}
	draw := func(n int) dataset.Transaction {
		t := make(dataset.Transaction, 0, n)
		for _, i := range r.Perm(universe)[:n] {
			t = append(t, id(i))
		}
		slices.Sort(t)
		return t
	}
	for p := range sh.npts {
		n := 1 + r.Intn(sh.maxLen)
		if p == sh.npts/2 {
			n = sh.maxLen
		}
		q := draw(n)
		if sh.dups && p%3 == 0 {
			q = append(q, q[r.Intn(len(q))])
		}
		ts = append(ts, q)
	}
	// Clusters take the points in a shuffled order, so a set's points
	// are not contiguous in ts; the flattened order is set order anyway.
	perm := r.Perm(sh.npts)
	k := 1 + r.Intn(min(sh.npts, 9))
	cuts := append(r.Perm(sh.npts - 1)[:k-1], sh.npts-1)
	slices.Sort(cuts)
	lo := 0
	for _, c := range cuts {
		sets = append(sets, perm[lo:c+1])
		lo = c + 1
	}

	for range 40 {
		// Canonical candidates: fresh draws and perturbed labeled points.
		cands = append(cands, draw(r.Intn(min(universe, sh.maxLen+3)+1)))
		near := slices.Clone(ts[r.Intn(sh.npts)])
		if len(near) > 0 && r.Intn(2) == 0 {
			near[r.Intn(len(near))] = id(r.Intn(universe))
		}
		slices.Sort(near)
		near = slices.Compact(near)
		cands = append(cands, near)
	}
	// Unsorted, and duplicated past max|q|.
	odd := slices.Clone(ts[r.Intn(sh.npts)])
	r.Shuffle(len(odd), func(a, b int) { odd[a], odd[b] = odd[b], odd[a] })
	cands = append(cands, odd)
	heavy := slices.Clone(ts[r.Intn(sh.npts)])
	for range 3*sh.maxLen + 2 {
		heavy = append(heavy, heavy[0])
	}
	cands = append(cands, heavy, append(slices.Clone(heavy), heavy...))
	// Past the cached range: the whole universe plus ids no labeled
	// point holds, canonical.
	long := draw(universe)
	for i := range 4*sh.maxLen + 70 {
		long = append(long, id(universe+i))
	}
	cands = append(cands, long)
	// Empty, and negative or out-of-range items (canonical and not).
	cands = append(cands, dataset.Transaction{}, nil)
	mixed := append(dataset.Transaction{-7, -1}, ts[0]...)
	cands = append(cands, append(mixed, 1<<30), append(dataset.Transaction{1 << 30, -3}, ts[0]...))
	return ts, sets, cands
}

// kernelShapes crosses the block edges with the plane-width edges.
func kernelShapes() []kernelShape {
	var out []kernelShape
	lens := []int{1, 2, 3, 4, 7, 8, 15, 16, 31, 32}
	for i, npts := range []int{1, 63, 64, 65, 129, 997} {
		for j, maxLen := range lens {
			if (i+j)%3 != 0 {
				continue
			}
			out = append(out, kernelShape{npts: npts, maxLen: maxLen, dups: (i+j)%2 == 1, sparse: j%4 == 1})
		}
	}
	return out
}

// assertKernelMatches runs the sharded block kernel at Workers 1/2/4/8
// and the scalar oracle over cands, then checks that every row the
// kernel built encodes each point's need unwrapped.
func assertKernelMatches(t *testing.T, label string, lb *labeler, o *scalarLabeler, cands []dataset.Transaction) {
	t.Helper()
	want := make([]int, len(cands))
	for i, c := range cands {
		want[i] = o.label(c)
	}
	for _, workers := range labelWorkerCounts {
		got := lb.runSharded(cands, nil, workers)
		if !reflect.DeepEqual(got, want) {
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("%s workers=%d: candidate %d %v: kernel %d, scalar %d", label, workers, i, cands[i], got[i], want[i])
				}
			}
		}
	}
	for lt := range lb.need {
		row := lb.need[lt].Load()
		if row == nil {
			continue
		}
		for pid, ci := range lb.ptCls {
			if got, want := rowNeed(row, lb.width, pid), minPassing(lb.cm, lt, int(lb.clsLen[ci]), lb.theta); got != want {
				t.Fatalf("%s |t|=%d point %d: row encodes need %d, want %d", label, lt, pid, got, want)
			}
		}
	}
}

// TestLabelKernelOracle proves the block kernel assignment-identical to
// the scalar counting labeler for all four built-in measures over the θ
// grid, across block and plane-width edges, labeled points holding an
// item twice, the map postings, and candidates of every kind: canonical,
// unsorted, duplicated past max|q|, past the cached range, empty, and
// carrying negative or out-of-range items.
func TestLabelKernelOracle(t *testing.T) {
	shapes := kernelShapes()
	for mi, m := range labelOracleMeasures[:4] {
		for ti, theta := range thresholdThetas {
			for si, sh := range shapes {
				if (mi+ti+si)%3 != 0 { // each shape still meets every measure and every θ
					continue
				}
				r := rand.New(rand.NewSource(int64(1000*mi + 100*ti + si)))
				ts, sets, cands := kernelFixture(r, sh)
				lb := newLabeler(ts, sets, theta, MarketBasketF(theta), m.fn)
				if sh.sparse != (lb.postingsMap != nil) {
					t.Fatalf("%+v: sparse ids chose the wrong postings", sh)
				}
				o := newScalarLabeler(ts, sets, theta, MarketBasketF(theta), m.fn, len(lb.need))
				assertKernelMatches(t, fmt.Sprintf("%s θ=%v %+v", m.name, theta, sh), lb, o, cands)
			}
		}
	}
}

// TestLabelKernelBudget builds a labeler whose threshold rows cannot all
// be cached: thousands of labeled points and many distinct long lengths.
// The rows built stay within needBudget, lengths past the cached range
// get no row, and every candidate — most of them past the range —
// assigns exactly as the scalar labeler deciding everything through the
// float test.
func TestLabelKernelBudget(t *testing.T) {
	r := rand.New(rand.NewSource(41))
	const npts, maxLen, universe = 5000, 200, 320
	draw := func(n int) dataset.Transaction {
		t := make(dataset.Transaction, 0, n)
		for _, i := range r.Perm(universe)[:n] {
			t = append(t, dataset.Item(i))
		}
		slices.Sort(t)
		return t
	}
	ts := make([]dataset.Transaction, npts)
	for p := range ts {
		ts[p] = draw(1 + r.Intn(maxLen))
	}
	ts[0] = draw(maxLen)
	var sets [][]int
	for lo := 0; lo < npts; lo += 500 {
		set := make([]int, 500)
		for j := range set {
			set[j] = lo + j
		}
		sets = append(sets, set)
	}
	theta := 0.5
	lb := newLabeler(ts, sets, theta, MarketBasketF(theta), similarity.Jaccard)
	if len(lb.need) >= 4*maxLen+65 {
		t.Fatalf("cached range %d: the budget should bind below %d", len(lb.need), 4*maxLen+65)
	}
	var cands []dataset.Transaction
	for lt := 1; lt <= universe; lt += 3 {
		cands = append(cands, draw(lt))
	}
	for lt := universe + 1; lt < 4*maxLen+70; lt += 37 {
		long := draw(universe)
		for i := universe; i < lt; i++ {
			long = append(long, dataset.Item(i))
		}
		cands = append(cands, long)
	}
	got := lb.runSharded(cands, nil, 2)

	words := 0
	for lt := range lb.need {
		if row := lb.need[lt].Load(); row != nil {
			words += len(row.live) + len(row.planes)
		}
	}
	if words == 0 || words > needBudget {
		t.Fatalf("cached rows hold %d words, budget %d", words, needBudget)
	}
	if lb.needRowFor(len(lb.need)) != nil {
		t.Fatal("a length past the budget got a row")
	}
	float := newScalarLabeler(ts, sets, theta, MarketBasketF(theta), similarity.Jaccard, 0)
	for i, c := range cands {
		if want := float.label(c); got[i] != want {
			t.Fatalf("candidate %d (|t|=%d, cached range %d): kernel %d, float test %d", i, len(c), len(lb.need), got[i], want)
		}
	}
}

// TestModelAssignBatchNoAllocsWarm: once a model's threshold rows and
// pooled scratch are warm, a serial AssignBatch allocates only its result
// slice, for one query as for many, and Assign allocates nothing.
func TestModelAssignBatchNoAllocsWarm(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under the race detector")
	}
	r := rand.New(rand.NewSource(5))
	ts := randomTransactionsCore(r, 600, 10, 40)
	m, err := FreezeSets(ts, [][]int{{0, 1, 2, 3, 4, 5, 6, 7}, {100, 101, 102}, {200, 201, 202, 203}}, nil, 0.3, MarketBasketF(0.3), nil)
	if err != nil {
		t.Fatal(err)
	}
	batch := ts[300:]
	m.AssignBatch(batch, 1)
	one := testing.AllocsPerRun(50, func() { m.AssignBatch(batch[:1], 1) })
	many := testing.AllocsPerRun(50, func() { m.AssignBatch(batch, 1) })
	if one != 1 || many != 1 {
		t.Fatalf("AssignBatch allocates %v per call for %d queries, %v for one", many, len(batch), one)
	}
	if n := testing.AllocsPerRun(50, func() { m.Assign(batch[7]) }); n != 0 {
		t.Fatalf("Assign allocates %v per call once warm", n)
	}
}
