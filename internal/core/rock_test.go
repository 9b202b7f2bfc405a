package core

import (
	"math/rand"
	"slices"
	"testing"

	"github.com/rockclust/rock/internal/dataset"
)

// groupedData synthesizes ngroups well-separated transaction groups of the
// given size: group g draws its items from a private pool. Returns the
// transactions and the ground-truth group of each.
func groupedData(ngroups, size int, seed int64) ([]dataset.Transaction, []int) {
	r := rand.New(rand.NewSource(seed))
	var ts []dataset.Transaction
	var truth []int
	const poolSize = 12
	for g := 0; g < ngroups; g++ {
		base := g * poolSize
		for i := 0; i < size; i++ {
			// 6 items from the group pool: any two transactions of a group
			// share ≥ 1 item with high probability, and Jaccard within the
			// group is far above across groups (which share nothing).
			items := make([]dataset.Item, 0, 6)
			for len(items) < 6 {
				items = append(items, dataset.Item(base+r.Intn(poolSize)))
			}
			ts = append(ts, dataset.NewTransaction(items...))
			truth = append(truth, g)
		}
	}
	return ts, truth
}

// checkPartition verifies the structural invariants every Result must
// satisfy: Assign, Clusters and Outliers together partition the input.
func checkPartition(t *testing.T, res *Result, n int) {
	t.Helper()
	seen := make([]int, n) // 0 unseen, 1 cluster, 2 outlier
	for ci, members := range res.Clusters {
		for _, p := range members {
			if seen[p] != 0 {
				t.Fatalf("point %d appears twice", p)
			}
			seen[p] = 1
			if res.Assign[p] != ci {
				t.Fatalf("Assign[%d] = %d, want %d", p, res.Assign[p], ci)
			}
		}
	}
	for _, p := range res.Outliers {
		if seen[p] != 0 {
			t.Fatalf("outlier %d also clustered", p)
		}
		seen[p] = 2
		if res.Assign[p] != -1 {
			t.Fatalf("outlier %d has Assign %d", p, res.Assign[p])
		}
	}
	for p := 0; p < n; p++ {
		if seen[p] == 0 {
			t.Fatalf("point %d neither clustered nor outlier", p)
		}
	}
}

func TestClusterSeparableGroups(t *testing.T) {
	ts, truth := groupedData(3, 40, 1)
	res, err := Cluster(ts, Config{Theta: 0.3, K: 3, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	checkPartition(t, res, len(ts))
	if res.K() != 3 {
		t.Fatalf("found %d clusters, want 3", res.K())
	}
	// Each discovered cluster must be pure with respect to truth.
	for ci, members := range res.Clusters {
		g0 := truth[members[0]]
		for _, p := range members {
			if truth[p] != g0 {
				t.Fatalf("cluster %d mixes groups %d and %d", ci, g0, truth[p])
			}
		}
		if len(members) != 40 {
			t.Fatalf("cluster %d has %d members, want 40", ci, len(members))
		}
	}
	if res.Stats.StoppedEarly {
		t.Fatal("unexpected early stop")
	}
}

func TestClusterPrunesIsolatedPoints(t *testing.T) {
	ts, _ := groupedData(2, 20, 2)
	// Append junk points with items no one else has: zero neighbors.
	for j := 0; j < 3; j++ {
		ts = append(ts, dataset.NewTransaction(dataset.Item(1000+10*j), dataset.Item(1001+10*j)))
	}
	res, err := Cluster(ts, Config{Theta: 0.3, K: 2, MinNeighbors: 2, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	checkPartition(t, res, len(ts))
	if res.Stats.Pruned < 3 {
		t.Fatalf("pruned %d, want at least the 3 junk points", res.Stats.Pruned)
	}
	for _, p := range []int{40, 41, 42} {
		if res.Assign[p] != -1 {
			t.Fatalf("junk point %d was clustered", p)
		}
	}
}

func TestClusterSamplingAndLabeling(t *testing.T) {
	ts, truth := groupedData(3, 200, 4)
	// A generous labeling fraction keeps the per-point miss probability
	// negligible on this moderately fuzzy data.
	res, err := Cluster(ts, Config{Theta: 0.3, K: 3, SampleSize: 90, Seed: 5, LabelFraction: 0.9})
	if err != nil {
		t.Fatal(err)
	}
	checkPartition(t, res, len(ts))
	if len(res.SampleIdx) != 90 {
		t.Fatalf("sample size = %d", len(res.SampleIdx))
	}
	if res.K() != 3 {
		t.Fatalf("found %d clusters, want 3", res.K())
	}
	// Labeling must put ≥ 99% of points into the correct group.
	misassigned := 0
	for ci, members := range res.Clusters {
		counts := map[int]int{}
		for _, p := range members {
			counts[truth[p]]++
		}
		best := 0
		for _, c := range counts {
			if c > best {
				best = c
			}
		}
		misassigned += len(members) - best
		_ = ci
	}
	if total := len(ts); misassigned > total/100 {
		t.Fatalf("%d of %d points mislabeled", misassigned, total)
	}
	if res.Stats.Unlabeled > 6 {
		t.Fatalf("unlabeled = %d", res.Stats.Unlabeled)
	}
}

func TestClusterSampledDegenerateAllPruned(t *testing.T) {
	// Mutually disjoint transactions: no neighbors anywhere; MinNeighbors
	// prunes the whole sample, and out-of-sample points become outliers.
	var ts []dataset.Transaction
	for i := 0; i < 30; i++ {
		ts = append(ts, dataset.NewTransaction(dataset.Item(3*i), dataset.Item(3*i+1)))
	}
	res, err := Cluster(ts, Config{Theta: 0.5, K: 2, SampleSize: 10, MinNeighbors: 1, Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	checkPartition(t, res, len(ts))
	if res.K() != 0 || len(res.Outliers) != 30 {
		t.Fatalf("k=%d outliers=%d, want 0/30", res.K(), len(res.Outliers))
	}
}

func TestClusterDeterminism(t *testing.T) {
	ts, _ := groupedData(3, 60, 7)
	cfg := Config{Theta: 0.35, K: 3, SampleSize: 100, Seed: 11, MinNeighbors: 1, WeedAt: 0.5}
	a, err := Cluster(ts, cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Cluster(ts, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.K() != b.K() {
		t.Fatal("nondeterministic cluster count")
	}
	for i := range a.Assign {
		if a.Assign[i] != b.Assign[i] {
			t.Fatalf("nondeterministic assignment at %d", i)
		}
	}
}

func TestClusterSeedChangesSample(t *testing.T) {
	ts, _ := groupedData(2, 100, 8)
	a, _ := Cluster(ts, Config{Theta: 0.3, K: 2, SampleSize: 50, Seed: 1})
	b, _ := Cluster(ts, Config{Theta: 0.3, K: 2, SampleSize: 50, Seed: 2})
	same := true
	for i := range a.SampleIdx {
		if a.SampleIdx[i] != b.SampleIdx[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds drew identical samples")
	}
}

func TestClusterValidation(t *testing.T) {
	ts, _ := groupedData(1, 5, 9)
	bad := []Config{
		{Theta: -0.1, K: 2},
		{Theta: 1.5, K: 2},
		{Theta: 0.5, K: 0},
		{Theta: 0.5, K: 2, SampleSize: -1},
		{Theta: 0.5, K: 2, WeedAt: 2},
		{Theta: 0.5, K: 2, MinNeighbors: -3},
	}
	for i, cfg := range bad {
		if _, err := Cluster(ts, cfg); err == nil {
			t.Errorf("config %d accepted: %+v", i, cfg)
		}
	}
}

func TestClusterEmptyInput(t *testing.T) {
	res, err := Cluster(nil, Config{Theta: 0.5, K: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res.K() != 0 || len(res.Assign) != 0 {
		t.Fatal("empty input should give empty result")
	}
}

func TestClusterStoppedEarlyReported(t *testing.T) {
	// Two groups, ask for k=1: no cross links exist, so ROCK must stop at
	// two clusters and say so.
	ts, _ := groupedData(2, 20, 10)
	res, err := Cluster(ts, Config{Theta: 0.3, K: 1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Stats.StoppedEarly {
		t.Fatal("early stop not reported")
	}
	if res.K() != 2 {
		t.Fatalf("k = %d, want 2", res.K())
	}
}

func TestResultSizes(t *testing.T) {
	res := &Result{Clusters: [][]int{{1, 2, 3}, {4}}}
	s := res.Sizes()
	if len(s) != 2 || s[0] != 3 || s[1] != 1 {
		t.Fatalf("Sizes = %v", s)
	}
}

func TestClusterWithLSHNeighbors(t *testing.T) {
	ts, truth := groupedData(3, 50, 61)
	exact, err := Cluster(ts, Config{Theta: 0.3, K: 3, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	lsh, err := Cluster(ts, Config{Theta: 0.3, K: 3, Seed: 1, LSHNeighbors: true, LSHHashes: 128, LSHBands: 64})
	if err != nil {
		t.Fatal(err)
	}
	checkPartition(t, lsh, len(ts))
	if lsh.K() != exact.K() {
		t.Fatalf("LSH found %d clusters, exact %d", lsh.K(), exact.K())
	}
	// The approximate run must still recover the group structure.
	for _, members := range lsh.Clusters {
		g := truth[members[0]]
		for _, p := range members {
			if truth[p] != g {
				t.Fatal("LSH clustering mixed groups")
			}
		}
	}
	// Determinism holds for the LSH path too.
	again, err := Cluster(ts, Config{Theta: 0.3, K: 3, Seed: 1, LSHNeighbors: true, LSHHashes: 128, LSHBands: 64})
	if err != nil {
		t.Fatal(err)
	}
	for i := range lsh.Assign {
		if lsh.Assign[i] != again.Assign[i] {
			t.Fatal("LSH path nondeterministic")
		}
	}

	// The run's quality ledger must be populated — and absent on the
	// exact run.
	st := lsh.Stats
	if st.LSHCandidatePairs <= 0 || st.LSHVerifiedEdges <= 0 || st.LSHCandidatePairs < st.LSHVerifiedEdges {
		t.Fatalf("implausible LSH ledger: %+v", st)
	}
	if st.LSHRecallSampled <= 0 || st.LSHRecall <= 0 || st.LSHRecall > 1 {
		t.Fatalf("recall estimate missing from ledger: %+v", st)
	}
	if e := exact.Stats; e.LSHCandidatePairs != 0 || e.LSHVerifiedEdges != 0 || e.LSHRecallSampled != 0 || e.LSHRecall != 0 {
		t.Fatalf("exact run carries an LSH ledger: %+v", e)
	}
	if st.LinkEntries != 2*int64(st.LinkPairs) {
		t.Fatalf("LinkEntries %d != 2×LinkPairs %d", st.LinkEntries, st.LinkPairs)
	}
}

func TestStatsFoldLSHWeightsRecall(t *testing.T) {
	var s Stats
	s.foldLSH(100, 40, 60, 1.0)
	s.foldLSH(50, 10, 0, 0) // sub-run with the estimator disabled
	s.foldLSH(200, 80, 20, 0.6)
	if s.LSHCandidatePairs != 350 || s.LSHVerifiedEdges != 130 {
		t.Fatalf("counts not summed: %+v", s)
	}
	if s.LSHRecallSampled != 80 {
		t.Fatalf("sampled rows = %d, want 80", s.LSHRecallSampled)
	}
	if want := (1.0*60 + 0.6*20) / 80; s.LSHRecall < want-1e-12 || s.LSHRecall > want+1e-12 {
		t.Fatalf("recall = %g, want weighted mean %g", s.LSHRecall, want)
	}
}

// TestClusterResultMatchesAssign pins the shape Cluster builds its
// result in: Outliers is exactly the ascending {p : Assign[p] == -1},
// Clusters[ci] the ascending {p : Assign[p] == ci}, and growing one
// cluster's slice never writes into another's. Runs cover sampled and
// unsampled inputs, LabelOutliers, pruning and weeding, and inputs where
// no cluster forms.
func TestClusterResultMatchesAssign(t *testing.T) {
	r := rand.New(rand.NewSource(17))
	var disjoint []dataset.Transaction
	for i := 0; i < 40; i++ {
		disjoint = append(disjoint, dataset.NewTransaction(dataset.Item(2*i), dataset.Item(2*i+1)))
	}
	for trial := 0; trial < 40; trial++ {
		ts, _ := groupedData(2+r.Intn(3), 20+r.Intn(40), int64(trial))
		if trial%8 == 7 {
			ts = disjoint
		}
		cfg := Config{
			Theta:         0.2 + 0.4*r.Float64(),
			K:             1 + r.Intn(4),
			Seed:          int64(trial),
			MinNeighbors:  r.Intn(3),
			LabelOutliers: r.Intn(2) == 0,
		}
		if r.Intn(3) > 0 {
			cfg.SampleSize = 5 + r.Intn(len(ts))
		}
		if r.Intn(2) == 0 {
			cfg.WeedAt = 0.5
		}
		if trial%8 == 7 {
			cfg.MinNeighbors = 1 // every point pruned: no cluster forms
		}
		res, err := Cluster(ts, cfg)
		if err != nil {
			t.Fatal(err)
		}
		wantOut := []int{}
		wantClusters := make([][]int, len(res.Clusters))
		for p, ci := range res.Assign {
			if ci < 0 {
				wantOut = append(wantOut, p)
			} else {
				wantClusters[ci] = append(wantClusters[ci], p)
			}
		}
		if trial%8 == 7 && len(res.Clusters) != 0 {
			t.Fatalf("trial %d: disjoint input formed %d clusters", trial, len(res.Clusters))
		}
		if !slices.Equal(res.Outliers, wantOut) {
			t.Fatalf("trial %d: Outliers %v, want %v", trial, res.Outliers, wantOut)
		}
		for ci := range res.Clusters {
			if len(res.Clusters[ci]) == 0 || !slices.Equal(res.Clusters[ci], wantClusters[ci]) {
				t.Fatalf("trial %d: Clusters[%d] = %v, want %v", trial, ci, res.Clusters[ci], wantClusters[ci])
			}
		}
		if s := res.Stats; s.LabelCandidates != s.Labeled+s.Unlabeled {
			t.Fatalf("trial %d: ledger %d != %d + %d", trial, s.LabelCandidates, s.Labeled, s.Unlabeled)
		}
		for ci := range res.Clusters {
			_ = append(res.Clusters[ci], -7)
		}
		for ci := range res.Clusters {
			if !slices.Equal(res.Clusters[ci], wantClusters[ci]) {
				t.Fatalf("trial %d: appending to a cluster changed Clusters[%d]", trial, ci)
			}
		}
	}
}
