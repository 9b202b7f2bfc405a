package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"time"

	"github.com/rockclust/rock/internal/core"
	"github.com/rockclust/rock/internal/dataset"
	"github.com/rockclust/rock/internal/linkage"
	"github.com/rockclust/rock/internal/metrics"
	"github.com/rockclust/rock/internal/similarity"
	"github.com/rockclust/rock/internal/synth"
)

// clusterSpec is one offline core.Cluster workload: a generator and the
// pipeline settings it runs with.
type clusterSpec struct {
	gen func(seed int64) *dataset.Dataset
	cfg core.Config // Seed and Workers are filled per run
}

// runMushroom is the paper's E4 run: θ=0.8, K=20, a 1,800-point sample and
// MinNeighbors=1 over the 8,124 mushroom records. The sample sits below
// core.DefaultMergeSerialBelow, so merging runs on the serial arena and
// dominates the run.
func runMushroom(o options, r *report) error {
	spec := clusterSpec{
		gen: func(seed int64) *dataset.Dataset { return synth.Mushroom(synth.MushroomConfig{Seed: seed}) },
		cfg: core.Config{Theta: 0.8, K: 20, SampleSize: 1800, MinNeighbors: 1},
	}
	if o.quick {
		spec.cfg.SampleSize = 600
	}
	return runCluster(spec, o, r)
}

// runBasketSampled is the paper's large-database method: 800,000 baskets
// in the E6 shape, clustered through a 2,500-point sample and labeled.
// Labeling the other 797,500 points dominates; the sample is at or above
// core.DefaultMergeSerialBelow, so with two or more workers merging runs
// on the batched engine.
func runBasketSampled(o options, r *report) error {
	n := 800_000
	if o.quick {
		n = 20_000
	}
	spec := clusterSpec{
		gen: func(seed int64) *dataset.Dataset { return basketE6(n, seed) },
		cfg: core.Config{Theta: 0.6, K: 10, SampleSize: 2500},
	}
	return runCluster(spec, o, r)
}

// basketE6 draws n baskets in the shape of the paper's scalability runs:
// 10 clusters of 15 template items, 12 items per transaction.
func basketE6(n int, seed int64) *dataset.Dataset {
	return synth.Basket(synth.BasketConfig{Transactions: n, Clusters: 10, TemplateItems: 15, TransactionSize: 12, Seed: seed})
}

func runCluster(spec clusterSpec, o options, r *report) error {
	dataSeed, runSeed := o.seed, o.seed+1
	r.seeds["data"], r.seeds["cluster"] = dataSeed, runSeed
	cfg := spec.cfg
	cfg.Seed = runSeed
	cfg.Workers = runtime.GOMAXPROCS(0)

	var d *dataset.Dataset
	setups := make([]float64, setupReps)
	for i := range setups {
		d = nil
		runtime.GC()
		start := time.Now()
		d = spec.gen(dataSeed)
		setups[i] = time.Since(start).Seconds()
	}
	r.set("setup_s", median(setups))
	r.figure("setup_s", median(setups), "s")
	if o.trace {
		return traceCluster(d, cfg, o, r)
	}

	var first *core.Result
	var secs, mbs []float64
	deadline := time.Now().Add(o.seconds)
	for len(secs) < 2 || time.Now().Before(deadline) {
		runtime.GC()
		var res *core.Result
		var err error
		sec, mb := timed(func() { res, err = core.Cluster(d.Trans, cfg) })
		if err != nil {
			return fmt.Errorf("cluster: %w", err)
		}
		secs, mbs = append(secs, sec), append(mbs, mb)
		if first == nil {
			first = res
		}
		r.op(sameClustering(first, res), "repetition %d: Cluster output differs from the first repetition", len(secs))
	}

	w1 := cfg
	w1.Workers = 1
	res1, err := core.Cluster(d.Trans, w1)
	if err != nil {
		return fmt.Errorf("cluster at one worker: %w", err)
	}
	r.op(sameClustering(first, res1), "Cluster output at Workers=%d differs from Workers=1", cfg.Workers)

	purity := metrics.Evaluate(first.Assign, d.Labels).Accuracy
	p50 := median(secs)
	r.set("op_p50_ms", p50*1e3)
	r.set("items_per_s", float64(len(d.Trans))/p50)
	r.set("alloc_mb", median(mbs))
	r.set("purity", purity)
	r.figure("cluster_s", p50, fmt.Sprintf("s (median of %d calls, fastest %.4g s, slowest %.4g s)", len(secs), quantile(secs, 0), quantile(secs, 1)))
	r.figure("alloc_mb", median(mbs), "MB per Cluster call")
	r.figure("purity", purity, "accuracy vs generator labels")
	return nil
}

// sameClustering reports whether two runs produced the same assignment
// and the same run statistics.
func sameClustering(a, b *core.Result) bool {
	return slices.Equal(a.Assign, b.Assign) && a.Stats == b.Stats && len(a.Clusters) == len(b.Clusters)
}

// traceCluster alternates an untraced Cluster call with a traced replay of
// its phases, each phase a span around the layer's exported entry point,
// then repeats the parallel phases at one worker. The tracing overhead is
// the replay's wall time minus the untraced call's.
func traceCluster(d *dataset.Dataset, cfg core.Config, o options, r *report) error {
	tr := &tracer{}
	var first *core.Result
	var clusterS, tracedS []float64
	deadline := time.Now().Add(o.seconds)
	for rep := 0; rep < 2 || time.Now().Before(deadline); rep++ {
		runtime.GC()
		var res *core.Result
		var err error
		sec, _ := timed(func() { res, err = core.Cluster(d.Trans, cfg) })
		if err != nil {
			return fmt.Errorf("cluster: %w", err)
		}
		if first == nil {
			first = res
		}
		r.op(sameClustering(first, res), "repetition %d: Cluster output differs from the first repetition", rep+1)
		clusterS = append(clusterS, sec)
		runtime.GC()
		start := time.Now()
		rp, err := decompose(d.Trans, cfg, res, tr, rep, r)
		if err != nil {
			return err
		}
		tracedS = append(tracedS, time.Since(start).Seconds())

		// The parallel phases again at one worker, for per-layer scaling.
		tr.do("similarity.neighbors_w1", rep, func() { similarity.ComputeIndexed(rp.local, cfg.Theta, similarity.Options{Workers: 1}) })
		tr.do("linkage.links_w1", rep, func() { linkage.Build(rp.kept, linkage.Options{Workers: 1}) })
		tr.do("core.label_w1", rep, func() { _, err = rp.label(1) })
		if err != nil {
			return err
		}
	}

	phases := []string{"core.sample", "similarity.neighbors", "linkage.links", "core.merge", "core.label"}
	var spanSum []float64
	for _, p := range phases {
		secs, mbs := tr.perRep(p)
		r.set(p+".s", median(secs))
		r.set(p+".alloc_mb", median(mbs))
		for i, s := range secs {
			if i == len(spanSum) {
				spanSum = append(spanSum, 0)
			}
			spanSum[i] += s
		}
	}
	for _, p := range []string{"similarity.neighbors", "linkage.links", "core.label"} {
		secs, _ := tr.perRep(p + "_w1")
		r.set(p+".s_w1", median(secs))
	}
	unattributed := make([]float64, len(clusterS))
	overhead := make([]float64, len(clusterS))
	for i := range clusterS {
		unattributed[i] = clusterS[i] - spanSum[i]
		overhead[i] = tracedS[i] - clusterS[i]
	}
	for name, vs := range tr.counts {
		r.set(name, median(vs))
	}
	r.set("core.cluster.s", median(clusterS))
	r.set("core.span_sum.s", median(spanSum))
	r.set("core.unattributed.s", median(unattributed))
	r.set("core.trace_overhead.s", median(overhead))
	r.figures = append(r.figures, fmt.Sprintf("reconcile spans %.4g s + unattributed %.4g s against untraced cluster_s %.4g s; traced wall %.4g s, tracing overhead %.4g s (medians of %d repetitions)",
		median(spanSum), median(unattributed), median(clusterS), median(tracedS), median(overhead), len(clusterS)))
	largest, largestS := "", 0.0
	for _, p := range phases {
		if s := r.metrics[p+".s"]; s > largestS {
			largest, largestS = p, s
		}
	}
	r.figures = append(r.figures, fmt.Sprintf("split largest span %s.s = %.4g s of %.4g s", largest, largestS, median(clusterS)))
	return nil
}

// replay holds a decomposed run's phase inputs, so that phases can be
// repeated at another worker count.
type replay struct {
	local []dataset.Transaction            // the sample
	kept  *similarity.Neighbors            // neighbor lists after pruning
	label func(workers int) ([]int, error) // freeze the run's model, assign the candidates
}

// decompose replays core.Cluster's phases through each layer's exported
// entry point, one span per call, and checks every phase's output against
// the untraced run res. Pruning has no exported entry, so the benchmark
// rebuilds the kept lists itself and leaves that time unattributed.
func decompose(ts []dataset.Transaction, cfg core.Config, res *core.Result, tr *tracer, rep int, r *report) (replay, error) {
	n := len(ts)
	var idx []int
	var local []dataset.Transaction
	tr.do("core.sample", rep, func() {
		idx = core.SampleIndices(n, cfg.SampleSize, rand.New(rand.NewSource(cfg.Seed)))
		local = make([]dataset.Transaction, len(idx))
		for i, j := range idx {
			local[i] = ts[j]
		}
	})
	r.op(slices.Equal(idx, res.SampleIdx), "traced sample differs from Cluster's")

	simOpts := similarity.Options{Workers: cfg.Workers}
	var nb *similarity.Neighbors
	tr.do("similarity.neighbors", rep, func() { nb = similarity.ComputeIndexed(local, cfg.Theta, simOpts) })
	kept, pruned := keepDense(nb, cfg.MinNeighbors)
	r.op(pruned == res.Stats.Pruned, "traced pruning dropped %d points, Cluster %d", pruned, res.Stats.Pruned)

	var lt *linkage.Compact
	tr.do("linkage.links", rep, func() { lt = linkage.Build(kept, linkage.Options{Workers: cfg.Workers}) })
	r.op(lt.Pairs() == res.Stats.LinkPairs, "traced link table has %d pairs, Cluster %d", lt.Pairs(), res.Stats.LinkPairs)

	var merges int
	tr.do("core.merge", rep, func() { _, merges = agglomerate(kept.Len(), lt, cfg.K, core.MarketBasketF(cfg.Theta), cfg.Workers) })
	r.op(merges == res.Stats.Merges, "traced merge made %d merges, Cluster %d", merges, res.Stats.Merges)

	inSample := make([]bool, n)
	for _, j := range idx {
		inSample[j] = true
	}
	var cand []int
	var qs []dataset.Transaction
	for p := 0; p < n; p++ {
		if !inSample[p] {
			cand = append(cand, p)
			qs = append(qs, ts[p])
		}
	}
	label := func(workers int) ([]int, error) {
		m, err := core.Freeze(ts, res, cfg)
		if err != nil {
			return nil, fmt.Errorf("freezing the run's model: %w", err)
		}
		return m.AssignBatch(qs, workers), nil
	}
	var got []int
	var err error
	tr.do("core.label", rep, func() { got, err = label(cfg.Workers) })
	if err != nil {
		return replay{}, err
	}
	labeled := 0
	same := len(got) == len(cand)
	for i := 0; same && i < len(cand); i++ {
		same = got[i] == res.Assign[cand[i]]
		if got[i] >= 0 {
			labeled++
		}
	}
	r.op(same, "traced labels differ from Cluster's assignment of the candidates")

	// Counts, taken where the work happens.
	_, _, edges := nb.Stats()
	tr.count("similarity.edges", float64(edges))
	tr.count("linkage.entries", float64(lt.Entries()))
	tr.count("core.merges", float64(merges))
	tr.count("core.label.candidates", float64(len(cand)))
	if len(cand) > 0 {
		tr.count("core.label.hit_ratio", float64(labeled)/float64(len(cand)))
	}
	return replay{local: local, kept: kept, label: label}, nil
}

// agglomerate calls the merge engine core.Cluster's own rule picks for n
// kept points: the batched engine from core.DefaultMergeSerialBelow points
// up when more than one worker runs, the serial arena otherwise. Removing
// the batched engine changes only this function.
func agglomerate(n int, lt *linkage.Compact, k int, f float64, workers int) (clusters, merges int) {
	if workers > 1 && n >= core.DefaultMergeSerialBelow {
		return core.BenchAgglomerateParallel(n, lt, k, f, workers)
	}
	return core.BenchAgglomerateArena(n, lt, k, f)
}

// keepDense rebuilds the pipeline's pruning step: points with fewer than
// minNeighbors neighbors are dropped and the kept points renumbered in
// order. It returns the kept neighbor lists and the number pruned.
func keepDense(nb *similarity.Neighbors, minNeighbors int) (*similarity.Neighbors, int) {
	newID := make([]int32, nb.Len())
	kept := int32(0)
	for i := range newID {
		newID[i] = -1
		if nb.Degree(i) >= minNeighbors {
			newID[i] = kept
			kept++
		}
	}
	if int(kept) == nb.Len() {
		return nb, 0
	}
	out := &similarity.Neighbors{Lists: make([][]int32, 0, kept)}
	for i, l := range nb.Lists {
		if newID[i] < 0 {
			continue
		}
		var nl []int32
		for _, j := range l {
			if newID[j] >= 0 {
				nl = append(nl, newID[j])
			}
		}
		out.Lists = append(out.Lists, nl)
	}
	return out, nb.Len() - int(kept)
}
