package core

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"github.com/rockclust/rock/internal/dataset"
	"github.com/rockclust/rock/internal/linkage"
	"github.com/rockclust/rock/internal/pqueue"
	"github.com/rockclust/rock/internal/similarity"
)

// Seeded clustering: the incremental-refresh entry point.
//
// A streaming refresh does not need to re-discover the clusters it
// already has — it needs to decide where the newly parked outliers fit
// relative to them. ClusterSeeded runs the same pipeline as Cluster but
// initializes the agglomeration arena from pre-formed groups (the frozen
// model's labeled clusters) instead of singletons: θ-neighbors and
// point-level links are computed over the whole input, the point-level
// link table is folded to the initial-cluster level, and the merge loop
// starts from len(seed) groups plus one singleton per unseeded point.
// The paper's "cluster a sample, label the rest" economics applied
// online: the expensive O(Σ mᵢ²) phases run over reps+outliers (a few
// hundred points) instead of the full retained sample.

// ClusterSeeded runs the ROCK pipeline with the agglomeration seeded
// from pre-formed groups. seed[i] lists input indices of initial group
// i; groups must be non-empty and disjoint (points may be left out —
// they start as singletons). An empty seed degenerates to Cluster over
// the full input: the oracle test proves that case byte-identical.
//
// Differences from Cluster, by construction of the use case:
//   - No sampling (SampleSize must be 0) — the input already is the
//     reduced set.
//   - No merge tracing (TraceMerges must be false) — trace singleton
//     ids are undefined when slots start as groups.
//   - MinNeighbors prunes only unseeded points: seeded points earned
//     membership in the generation being refreshed, and the arena needs
//     every group intact.
//   - The merge phase always runs the serial arena engine; seeded
//     inputs are refresh-sized, far below the parallel crossover.
//
// Weeding (WeedAt/WeedMaxSize) triggers on the count of initial
// clusters (groups + singletons), and cluster size is measured in
// points — a pre-formed group is normally bigger than WeedMaxSize and
// thus immune, which is the intended asymmetry: only stray outlier
// singletons and micro-clusters get discarded.
func ClusterSeeded(ts []dataset.Transaction, seed [][]int, cfg Config) (*Result, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if cfg.SampleSize > 0 {
		return nil, fmt.Errorf("core: seeded clustering does not sample (SampleSize=%d); pass the reduced input directly", cfg.SampleSize)
	}
	if cfg.TraceMerges {
		return nil, fmt.Errorf("core: seeded clustering cannot trace merges: trace singleton ids are undefined for pre-formed groups")
	}
	cfg = cfg.withDefaults()
	n := len(ts)

	seeded := make([]bool, n)
	for gi, group := range seed {
		if len(group) == 0 {
			return nil, fmt.Errorf("core: seed group %d is empty", gi)
		}
		for _, p := range group {
			if p < 0 || p >= n {
				return nil, fmt.Errorf("core: seed group %d references point %d outside the input (n=%d)", gi, p, n)
			}
			if seeded[p] {
				return nil, fmt.Errorf("core: point %d appears in more than one seed group", p)
			}
			seeded[p] = true
		}
	}

	res := &Result{Assign: make([]int, n), Stats: Stats{N: n, Sampled: n, FVal: cfg.fval()}}
	for i := range res.Assign {
		res.Assign[i] = -1
	}
	if n == 0 {
		return res, nil
	}

	rng := rand.New(rand.NewSource(cfg.Seed))

	// θ-neighbors over the whole input — the same switch as Cluster.
	simOpts := similarity.Options{Measure: cfg.Measure, IncludeSelf: cfg.IncludeSelf, Workers: cfg.Workers}
	var nb *similarity.Neighbors
	switch {
	case cfg.LSHNeighbors:
		nb = similarity.ComputeLSH(ts, cfg.Theta, similarity.LSHOptions{
			Hashes:      cfg.LSHHashes,
			Bands:       cfg.LSHBands,
			Seed:        cfg.Seed,
			Measure:     cfg.Measure,
			IncludeSelf: cfg.IncludeSelf,
			Workers:     cfg.Workers,
		})
	case cfg.BruteNeighbors:
		nb = similarity.Compute(ts, cfg.Theta, simOpts)
	default:
		nb = similarity.ComputeIndexed(ts, cfg.Theta, simOpts)
	}
	res.Stats.AvgNeighbors, res.Stats.MaxNeighbors, _ = nb.Stats()
	res.Stats.addLSH(nb.LSH)

	// Prune sparse unseeded points; seeded points are never pruned.
	var kept, pruned []int
	for i := 0; i < n; i++ {
		if seeded[i] || cfg.MinNeighbors <= 0 || nb.Degree(i) >= cfg.MinNeighbors {
			kept = append(kept, i)
		} else {
			pruned = append(pruned, i)
		}
	}
	res.Stats.Pruned = len(pruned)
	res.Outliers = append(res.Outliers, pruned...)
	keptNb := filterNeighbors(nb, kept)

	// Point-level links over the kept input, then folded to the
	// initial-cluster level: initial cluster ids are seed groups
	// 0..len(seed)-1 in seed order, then one singleton per unseeded kept
	// point in ascending order. The fold sums point-level counts between
	// distinct initial clusters; intra-group links vanish, exactly as
	// they would had the groups been merged pairwise.
	plt := linkage.Build(keptNb, linkage.Options{Workers: cfg.Workers})
	res.Stats.LinkPairs = plt.Pairs()
	res.Stats.LinkEntries = int64(plt.Entries())

	keptLocal := make([]int32, n)
	for i := range keptLocal {
		keptLocal[i] = -1
	}
	for l, p := range kept {
		keptLocal[p] = int32(l)
	}
	members := make([][]int32, len(seed), len(seed)+len(kept))
	clusterOf := make([]int32, len(kept))
	for gi, group := range seed {
		ms := make([]int32, len(group))
		for i, p := range group {
			l := keptLocal[p]
			ms[i] = l
			clusterOf[l] = int32(gi)
		}
		members[gi] = ms
	}
	for l, p := range kept {
		if !seeded[p] {
			clusterOf[l] = int32(len(members))
			members = append(members, []int32{int32(l)})
		}
	}
	m := len(members)

	acc := make([]map[int32]int64, m)
	for l := range kept {
		ci := clusterOf[l]
		plt.Row(l, func(j, cnt int) {
			cj := clusterOf[j]
			if cj == ci {
				return
			}
			if acc[ci] == nil {
				acc[ci] = make(map[int32]int64)
			}
			acc[ci][cj] += int64(cnt)
		})
	}
	tab := &linkage.Table{Adj: make([]map[int32]int32, m)}
	for i := range tab.Adj {
		row := make(map[int32]int32, len(acc[i]))
		for j, c := range acc[i] {
			if c > math.MaxInt32 {
				return nil, fmt.Errorf("core: aggregated cross-link count %d between seed clusters exceeds 2^31", c)
			}
			row[j] = int32(c)
		}
		tab.Adj[i] = row
	}
	clt := linkage.CompactFrom(tab)

	// Agglomerate from the seeded arena, always on the serial engine.
	weedTrigger := 0
	if cfg.WeedAt > 0 {
		weedTrigger = int(math.Ceil(cfg.WeedAt * float64(m)))
		if weedTrigger < cfg.K {
			weedTrigger = cfg.K
		}
	}
	eng := runAgglomeration(newArenaSeeded(members, len(kept), clt, cfg.Goodness, cfg.fval()),
		cfg.K, weedTrigger, cfg.WeedMaxSize, false)
	res.Stats.Merges = eng.merges
	res.Stats.StoppedEarly = eng.stoppedEarly
	res.Stats.Weeded = len(eng.weeded)
	for _, l := range eng.weeded {
		res.Outliers = append(res.Outliers, kept[l])
	}

	res.Clusters = make([][]int, len(eng.clusters))
	for ci, ms := range eng.clusters {
		global := make([]int, len(ms))
		for i, l := range ms {
			global[i] = kept[l]
		}
		res.Clusters[ci] = global
		for _, g := range global {
			res.Assign[g] = ci
		}
	}
	res.Stats.ClustersFound = len(res.Clusters)

	// Labeling: with no sampling the only candidates are the outliers,
	// and only under LabelOutliers — the same tail Cluster runs.
	if cfg.LabelOutliers && len(res.Outliers) > 0 {
		candidates := res.Outliers
		res.Outliers = nil
		sort.Ints(candidates)
		res.Stats.LabelCandidates = len(candidates)
		if len(res.Clusters) == 0 {
			res.Stats.Unlabeled += len(candidates)
			res.Outliers = append(res.Outliers, candidates...)
		} else {
			sets := labelSets(res.Clusters, cfg, rng)
			res.LabelSets = sets
			assign := labelCandidates(ts, candidates, sets, cfg)
			for i, p := range candidates {
				ci := assign[i]
				if ci < 0 {
					res.Stats.Unlabeled++
					res.Outliers = append(res.Outliers, p)
					continue
				}
				res.Stats.Labeled++
				res.Assign[p] = ci
				res.Clusters[ci] = append(res.Clusters[ci], p)
			}
			for _, c := range res.Clusters {
				sort.Ints(c)
			}
		}
	}

	sort.Ints(res.Outliers)
	return res, nil
}

// newArenaSeeded builds the arena with one slot per pre-formed group:
// members[s] lists the kept-local point indices of slot s, npts the
// total kept points (the intrusive next chains index points, not slots),
// and lt the cluster-level CSR over slots. Bests are computed in a
// second pass because pairGoodness needs every slot's size in place.
func newArenaSeeded(members [][]int32, npts int, lt *linkage.Compact, good GoodnessFunc, f float64) *arena {
	m := len(members)
	a := &arena{
		good:   good,
		f:      f,
		pw:     rockPowTable(good, f, npts),
		alive:  make([]bool, m),
		id:     make([]int32, m),
		size:   make([]int32, m),
		head:   make([]int32, m),
		tail:   make([]int32, m),
		next:   make([]int32, npts),
		rows:   make([][]linkEntry, m),
		bestTo: make([]int32, m),
		bestG:  make([]float64, m),
		heap:   pqueue.NewLazy(m),
	}
	backing := make([]linkEntry, 0, lt.Entries())
	for s, ms := range members {
		a.alive[s] = true
		a.id[s] = int32(s)
		a.size[s] = int32(len(ms))
		a.head[s], a.tail[s] = ms[0], ms[len(ms)-1]
		for i := 0; i+1 < len(ms); i++ {
			a.next[ms[i]] = ms[i+1]
		}
		a.next[ms[len(ms)-1]] = -1
		start := len(backing)
		lt.Row(s, func(j, cnt int) {
			backing = append(backing, linkEntry{to: int32(j), cnt: int32(cnt)})
		})
		a.rows[s] = backing[start:len(backing):len(backing)]
	}
	for s := 0; s < m; s++ {
		a.rescanBest(int32(s))
		if a.bestTo[s] >= 0 {
			a.heap.BulkSet(s, int32(s), a.bestG[s])
		}
	}
	a.heap.Fix()
	return a
}
