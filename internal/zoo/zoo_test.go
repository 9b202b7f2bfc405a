package zoo

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"github.com/rockclust/rock/internal/dataset"
)

// randomRecords draws n random records over the given width and
// alphabet — shared scaffolding for the engine property tests.
func randomRecords(rng *rand.Rand, n, width, alphabet int) []dataset.Record {
	records := make([]dataset.Record, n)
	for i := range records {
		r := make(dataset.Record, width)
		for a := range r {
			r[a] = fmt.Sprintf("v%d", rng.Intn(alphabet))
		}
		records[i] = r
	}
	return records
}

// bruteEntropyCost recomputes COOLCAT's objective Σ_c |C_c|·H(C_c)
// from scratch: the oracle for the incremental Σ c·ln c bookkeeping.
func bruteEntropyCost(records []dataset.Record, assign []int, k, width int) float64 {
	total := 0.0
	for c := 0; c < k; c++ {
		var members []int
		for p, a := range assign {
			if a == c {
				members = append(members, p)
			}
		}
		n := float64(len(members))
		if n == 0 {
			continue
		}
		for a := 0; a < width; a++ {
			counts := map[string]int{}
			for _, p := range members {
				counts[recVal(records[p], a)]++
			}
			h := 0.0
			for _, cnt := range counts {
				p := float64(cnt) / n
				h -= p * math.Log(p)
			}
			total += n * h
		}
	}
	return total
}

// TestCoolcatDeltaAgainstBruteForce proves the O(width) expected-entropy
// delta identical to recomputing (n+1)·H(C∪r) − n·H(C) from scratch,
// across random states — the invariant the whole assignment phase rides
// on.
func TestCoolcatDeltaAgainstBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	width := 4
	for trial := 0; trial < 30; trial++ {
		records := randomRecords(rng, 20, width, 3)
		k := 2 + rng.Intn(3)
		st := newCoolcatState(k, width, len(records))
		assign := make([]int, len(records))
		for p, rec := range records[:15] {
			assign[p] = rng.Intn(k)
			st.add(assign[p], rec)
		}
		before := bruteEntropyCost(records[:15], assign[:15], k, width)
		for _, rec := range records[15:] {
			for c := 0; c < k; c++ {
				got := st.deltaEntropy(c, rec)
				// Brute force: add, recompute, remove.
				st.add(c, rec)
				afterAssign := append(append([]int{}, assign[:15]...), c)
				afterRecords := append(append([]dataset.Record{}, records[:15]...), rec)
				want := bruteEntropyCost(afterRecords, afterAssign, k, width) - before
				st.remove(c, rec)
				if math.Abs(got-want) > 1e-9 {
					t.Fatalf("trial %d: delta %.12f != brute %.12f", trial, got, want)
				}
			}
		}
		if got := st.entropyCost(); math.Abs(got-before) > 1e-9 {
			t.Fatalf("trial %d: entropyCost %.12f != brute %.12f", trial, got, before)
		}
	}
}

// TestCoolcatSeedsFarthestFirst pins the seed selection: the first two
// seeds are a maximally-distant pair, later seeds maximize the minimum
// distance to earlier ones, and duplicate-only remainders stop the
// traversal early.
func TestCoolcatSeedsFarthestFirst(t *testing.T) {
	records := []dataset.Record{
		{"a", "a", "a"},
		{"a", "a", "b"}, // 1 from seed 0
		{"c", "c", "c"}, // 3 from seed 0
		{"a", "a", "a"}, // duplicate of 0
	}
	all := []int{0, 1, 2, 3}
	seeds := coolcatSeeds(records, all, 3)
	if len(seeds) != 3 || seeds[0] != 0 || seeds[1] != 1 || seeds[2] != 2 {
		t.Fatalf("seeds = %v, want [0 1 2]", seeds)
	}
	// Asking for more seeds than distinct records stops early.
	if got := coolcatSeeds(records, all, 4); len(got) != 3 {
		t.Fatalf("k=4 over 3 distinct records gave %d seeds", len(got))
	}
	// All-identical sample collapses to a single seed.
	same := []dataset.Record{{"x"}, {"x"}, {"x"}}
	if got := coolcatSeeds(same, []int{0, 1, 2}, 3); len(got) != 1 {
		t.Fatalf("identical records gave %d seeds, want 1", len(got))
	}
}

// TestCoolcatReprocessing exercises the batch refit path: it must stay
// deterministic and keep the partition canonical, and with clean data
// placement quality must not degrade.
func TestCoolcatReprocessing(t *testing.T) {
	d := plantedDataset(200, 3)
	e := &COOLCATEngine{BatchSize: 32, RefitFraction: 0.25}
	r1, err := e.Fit(d, Config{K: 2, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if err := Check(r1, d.Len()); err != nil {
		t.Fatal(err)
	}
	r2, _ := e.Fit(d, Config{K: 2, Seed: 7})
	if !samePartition(r1, r2) {
		t.Fatal("re-processing run is not deterministic")
	}
	plain, _ := (&COOLCATEngine{}).Fit(d, Config{K: 2, Seed: 7})
	if r1.Stats.Cost > plain.Stats.Cost+1e-9 {
		t.Fatalf("re-processing raised the entropy objective: %.4f > %.4f", r1.Stats.Cost, plain.Stats.Cost)
	}
}

// TestSqueezerStreaming pins the single-pass semantics: cluster ids
// appear in founding order, identical records coalesce, the threshold
// gates admission, and the partition is canonical after every ingest.
func TestSqueezerStreaming(t *testing.T) {
	s := NewSqueezer(2, 0.6)
	a := dataset.Record{"x", "y"}
	b := dataset.Record{"p", "q"}
	if got := s.Ingest(a); got != 0 {
		t.Fatalf("first record in cluster %d, want 0", got)
	}
	if got := s.Ingest(a); got != 0 {
		t.Fatalf("identical record in cluster %d, want 0", got)
	}
	if got := s.Ingest(b); got != 1 {
		t.Fatalf("disjoint record in cluster %d, want a new cluster 1", got)
	}
	if got := s.Ingest(dataset.Record{"x", "q"}); got != 2 {
		// Similarity to cluster 0 is (2/2 + 0)/2 = 0.5 < 0.6, and to
		// cluster 1 it is (0 + 1/1)/2 = 0.5 too; neither admits.
		t.Fatalf("half-matching record joined cluster %d, want a new cluster 2", got)
	}
	if s.K() != 3 || s.Len() != 4 {
		t.Fatalf("K=%d Len=%d, want 3/4", s.K(), s.Len())
	}
	if err := Check(s.Result(), 4); err != nil {
		t.Fatal(err)
	}

	// Threshold 0 funnels everything into the first cluster.
	s0 := NewSqueezer(2, 0)
	s0.Ingest(a)
	if got := s0.Ingest(b); got != 0 {
		t.Fatalf("threshold 0: record founded cluster %d, want join 0", got)
	}

	// Zero-width records are all identical: one cluster regardless.
	sw := NewSqueezer(0, 0.9)
	sw.Ingest(dataset.Record{})
	if got := sw.Ingest(dataset.Record{}); got != 0 {
		t.Fatalf("zero-width: cluster %d, want 0", got)
	}
}

// TestSqueezerIncrementalMatchesEngine proves the engine wrapper is
// exactly the incremental API replayed in input order.
func TestSqueezerIncrementalMatchesEngine(t *testing.T) {
	d := plantedDataset(150, 9)
	records, width := recordsOf(d)
	s := NewSqueezer(width, 0.5)
	for _, rec := range records {
		s.Ingest(rec)
	}
	want := s.Result()
	got, err := (&SqueezerEngine{}).Fit(d, Config{K: 1, Threshold: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if !samePartition(got, want) {
		t.Fatal("engine Fit and incremental Ingest disagree")
	}
}

// TestKHistogramsRefinesKModes pins the center semantics: a cluster's
// histogram distance to a member record is strictly below the distance
// for a record the cluster has never seen, and the engine's objective
// never increases across iterations (checked indirectly: the final cost
// is no worse than the one-iteration cost).
func TestKHistogramsDistance(t *testing.T) {
	h := newHistCenter(2)
	h.add(dataset.Record{"a", "b"}, 2)
	h.add(dataset.Record{"a", "c"}, 2)
	if d := h.distance(dataset.Record{"a", "b"}, 2); math.Abs(d-0.5) > 1e-12 {
		t.Fatalf("member distance %.4f, want 0.5 (full match on a, half on b)", d)
	}
	if d := h.distance(dataset.Record{"z", "z"}, 2); math.Abs(d-2) > 1e-12 {
		t.Fatalf("foreign distance %.4f, want 2", d)
	}
	empty := newHistCenter(2)
	if d := empty.distance(dataset.Record{"a", "b"}, 2); d <= 2 {
		t.Fatalf("empty center distance %.4f should exceed any real distance", d)
	}
}

func TestKHistogramsConvergesOnPlanted(t *testing.T) {
	d := plantedDataset(300, 21)
	res, err := (&KHistogramsEngine{}).Fit(d, Config{K: 2, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	if err := Check(res, d.Len()); err != nil {
		t.Fatal(err)
	}
	if res.Stats.Iters < 1 || res.Stats.Iters >= 100 {
		t.Fatalf("iters = %d, expected convergence before MaxIter", res.Stats.Iters)
	}
	if res.Stats.Cost <= 0 {
		t.Fatalf("cost = %.4f, want positive on noisy data", res.Stats.Cost)
	}
}

// TestRegistryNames pins the registry contents and ordering so bench
// rows and CI regexes stay stable.
func TestRegistryNames(t *testing.T) {
	want := []string{"coolcat", "hierarchical", "k-histograms", "k-modes", "rock", "squeezer", "stirr"}
	engines := Engines()
	if len(engines) != len(want) {
		t.Fatalf("registry has %d engines, want %d", len(engines), len(want))
	}
	for i, e := range engines {
		if e.Name() != want[i] {
			t.Fatalf("engine %d = %q, want %q", i, e.Name(), want[i])
		}
	}
	if _, ok := ByName("rock"); !ok {
		t.Fatal("ByName(rock) not found")
	}
	if _, ok := ByName("nope"); ok {
		t.Fatal("ByName(nope) found")
	}
}

// TestRegisterRejectsDuplicates pins the duplicate guard.
func TestRegisterRejectsDuplicates(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate registration did not panic")
		}
	}()
	Register(&SqueezerEngine{})
}
