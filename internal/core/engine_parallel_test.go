package core

import (
	"fmt"
	"reflect"
	"testing"

	"github.com/rockclust/rock/internal/linkage"
	"github.com/rockclust/rock/internal/similarity"
	"github.com/rockclust/rock/internal/synth"
)

// parallelLinkTable builds the link table of a clustered basket workload
// big enough for batches to form.
func parallelLinkTable(t testing.TB, n, clusters int) *linkage.Compact {
	t.Helper()
	d := synth.Basket(synth.BasketConfig{
		Transactions:    n,
		Clusters:        clusters,
		TemplateItems:   15,
		TransactionSize: 12,
		Seed:            7,
	})
	nb := similarity.ComputeIndexed(d.Trans, 0.6, similarity.Options{})
	return linkage.Build(nb, linkage.Options{})
}

// TestEngineOracleParallelPipeline runs the batched engine on real
// pipeline link tables at sizes where rounds hold many merges, comparing
// against the serial arena (itself oracle-verified byte-identical to the
// reference) across worker counts, with and without weeding and tracing.
func TestEngineOracleParallelPipeline(t *testing.T) {
	for _, n := range []int{800, 2000} {
		lt := parallelLinkTable(t, n, n/100)
		k := n / 100
		f := MarketBasketF(0.6)
		configs := []struct {
			name        string
			weedTrigger int
			weedMaxSize int
			trace       bool
		}{
			{"plain", 0, 0, false},
			{"trace", 0, 0, true},
			{"weed+trace", n / 2, 2, true},
		}
		for _, cfg := range configs {
			want := agglomerate(n, lt, k, RockGoodness, f, cfg.weedTrigger, cfg.weedMaxSize, cfg.trace)
			for _, workers := range oracleWorkerCounts {
				label := fmt.Sprintf("n=%d %s workers=%d", n, cfg.name, workers)
				got := agglomerateParallel(n, lt, k, RockGoodness, f, cfg.weedTrigger, cfg.weedMaxSize, cfg.trace, workers)
				checkResultsEqual(t, label, &got, &want)
			}
		}
	}
}

// TestBatchedEngineBatches pins the engine's reason to exist: on a
// clustered workload the conflict-free rounds must hold more than one
// merge, so the round count stays well below the merge count.
func TestBatchedEngineBatches(t *testing.T) {
	n := 2000
	lt := parallelLinkTable(t, n, n/100)
	b := newBatcher(n, lt, RockGoodness, MarketBasketF(0.6), 4)
	res := b.run(n/100, 0, 0, false)
	if res.merges == 0 {
		t.Fatal("workload produced no merges")
	}
	if b.stats.maxBatch < 2 {
		t.Fatalf("max batch = %d; the batched engine never batched (merges=%d, rounds=%d)",
			b.stats.maxBatch, res.merges, b.stats.rounds)
	}
	if b.stats.rounds >= res.merges {
		t.Fatalf("rounds %d >= merges %d; every round degenerated to a single merge",
			b.stats.rounds, res.merges)
	}
	t.Logf("merges=%d rounds=%d maxBatch=%d truncated=%d",
		res.merges, b.stats.rounds, b.stats.maxBatch, b.stats.truncated)
}

// TestBatchedEngineDeterministic: two runs at the same worker count, and
// runs across worker counts, must produce identical traces — worker
// scheduling must never leak into output.
func TestBatchedEngineDeterministic(t *testing.T) {
	n := 800
	lt := parallelLinkTable(t, n, 8)
	f := MarketBasketF(0.6)
	base := agglomerateParallel(n, lt, 8, RockGoodness, f, n/2, 2, true, 4)
	for trial := 0; trial < 3; trial++ {
		again := agglomerateParallel(n, lt, 8, RockGoodness, f, n/2, 2, true, 4)
		if !reflect.DeepEqual(base, again) {
			t.Fatalf("trial %d: repeated run diverged", trial)
		}
	}
	for _, workers := range []int{2, 8} {
		other := agglomerateParallel(n, lt, 8, RockGoodness, f, n/2, 2, true, workers)
		if !reflect.DeepEqual(base, other) {
			t.Fatalf("workers=%d: output depends on worker count", workers)
		}
	}
}

// TestAgglomerateAutoEquivalence drives the dispatcher on both sides of
// DefaultMergeSerialBelow: at every worker count it must yield the serial
// arena's exact result, whether it picks the arena or batched rounds.
func TestAgglomerateAutoEquivalence(t *testing.T) {
	for _, n := range []int{600, DefaultMergeSerialBelow + 52} {
		lt := parallelLinkTable(t, n, n/100)
		f := MarketBasketF(0.6)
		want := agglomerate(n, lt, 6, RockGoodness, f, 0, 0, true)
		for _, workers := range []int{0, 1, 2, 4} {
			got := agglomerateAuto(n, lt, 6, RockGoodness, f, 0, 0, true, workers)
			checkResultsEqual(t, fmt.Sprintf("n=%d workers=%d", n, workers), &got, &want)
		}
	}
}

// TestBatchedEngineStaleScenario replays the stale-entry regression
// scenario (weeding severs a cluster's last link while superseded entries
// sit in the heap array) through the batched engine.
func TestBatchedEngineStaleScenario(t *testing.T) {
	n, lt := staleScenarioTable()
	for _, workers := range oracleWorkerCounts {
		for _, k := range []int{1, 2} {
			want := agglomerateMap(n, lt, k, RockGoodness, 1.0/3.0, 4, 2, false)
			got := agglomerateParallel(n, lt, k, RockGoodness, 1.0/3.0, 4, 2, false, workers)
			checkResultsEqual(t, fmt.Sprintf("k=%d workers=%d", k, workers), &got, &want)
		}
	}
}

// TestBatchedEngineEdgeCases: empty and single-point inputs.
func TestBatchedEngineEdgeCases(t *testing.T) {
	res := agglomerateParallel(0, linkage.CompactFrom(&linkage.Table{}), 1, RockGoodness, 0.3, 0, 0, false, 4)
	if len(res.clusters) != 0 || res.merges != 0 {
		t.Fatalf("n=0: %+v", res)
	}
	res = agglomerateParallel(1, tableFromPairs(1, nil), 1, RockGoodness, 0.3, 0, 0, false, 4)
	if len(res.clusters) != 1 || res.merges != 0 {
		t.Fatalf("n=1: %+v", res)
	}
}
