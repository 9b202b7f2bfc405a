package core

import (
	"runtime"

	"github.com/rockclust/rock/internal/chunkwork"
	"github.com/rockclust/rock/internal/dataset"
)

// Parallel labeling.
//
// Candidates are independent: each one's assignment reads only the
// immutable index (or the transactions, on the pairwise fallback) and
// writes its own slot of the output, so sharding them across workers
// cannot reorder or change anything — output is byte-identical for every
// worker count by construction, with no validation machinery needed.
// Workers claim fixed-size chunks off an atomic cursor (the shared
// chunkwork.Run loop), so a candidate with an expensive neighborhood
// doesn't stall a whole static shard.

// labelChunk is the unit of work a worker claims at a time.
const labelChunk = 64

// labelSerialBelow is the batch size under which run labels on the
// serial loop: below 16 chunks the goroutine handoff and the extra
// per-worker scratch cost more than sharding saves at two workers.
const labelSerialBelow = 16 * labelChunk

// run labels a batch of queries — ts[idx[i]] when idx is non-nil, else
// ts[i] — returning the chosen cluster index (or -1) per query in query
// order. It is the one dispatch the labeling phase and Model.AssignBatch
// share: workers ≤ 1 (0 means GOMAXPROCS) or a batch below
// labelSerialBelow takes the serial loop, anything larger runSharded.
// Either way the output is byte-identical, queries being independent.
// Once the labeler is warm the serial loop allocates only the result.
func (lb *labeler) run(ts []dataset.Transaction, idx []int, workers int) []int {
	n := len(ts)
	if idx != nil {
		n = len(idx)
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > 1 && n >= labelSerialBelow {
		return lb.runSharded(ts, idx, workers)
	}
	out := make([]int, n)
	sc := lb.getScratch()
	lb.labelRange(ts, idx, 0, n, out, sc)
	lb.putScratch(sc)
	return out
}

// runSharded labels the batch on chunkwork.Run, the claim loop shared
// with the neighbor and LSH stages; each worker draws one scratch from
// the labeler's pool.
func (lb *labeler) runSharded(ts []dataset.Transaction, idx []int, workers int) []int {
	n := len(ts)
	if idx != nil {
		n = len(idx)
	}
	out := make([]int, n)
	chunkwork.Run(n, workers, labelChunk, func(next func() (int, int, bool)) {
		sc := lb.getScratch()
		for lo, hi, ok := next(); ok; lo, hi, ok = next() {
			lb.labelRange(ts, idx, lo, hi, out, sc)
		}
		lb.putScratch(sc)
	})
	return out
}

// labelRange labels queries [lo,hi) of a batch into out.
func (lb *labeler) labelRange(ts []dataset.Transaction, idx []int, lo, hi int, out []int, sc *labelScratch) {
	for i := lo; i < hi; i++ {
		q := i
		if idx != nil {
			q = idx[i]
		}
		out[i] = lb.label(ts[q], sc)
	}
}

// labelCandidates is the phase-6 entry point: builds the labeler (index
// or fallback per the measure and θ) and labels the candidates across
// cfg.Workers. cfg must already carry defaults.
func labelCandidates(ts []dataset.Transaction, candidates []int, sets [][]int, cfg Config) []int {
	if cfg.labelReference {
		return labelCandidatesReference(ts, candidates, sets, cfg.Theta, cfg.fval(), cfg.Measure)
	}
	return newLabeler(ts, sets, cfg.Theta, cfg.fval(), cfg.Measure).run(ts, candidates, cfg.Workers)
}

// BenchLabelIndexed runs the indexed labeler on the serial path.
func BenchLabelIndexed(ts []dataset.Transaction, candidates []int, sets [][]int, theta, f float64) []int {
	return newLabeler(ts, sets, theta, f, nil).run(ts, candidates, 1)
}

// BenchLabelParallel runs the indexed labeler sharded across the given
// worker count, whatever the batch size.
func BenchLabelParallel(ts []dataset.Transaction, candidates []int, sets [][]int, theta, f float64, workers int) []int {
	return newLabeler(ts, sets, theta, f, nil).runSharded(ts, candidates, workers)
}
