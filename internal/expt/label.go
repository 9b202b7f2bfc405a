package expt

import (
	"encoding/json"
	"fmt"
	"io"
	"reflect"
	"runtime"

	"github.com/rockclust/rock/internal/core"
	"github.com/rockclust/rock/internal/dataset"
	"github.com/rockclust/rock/internal/synth"
)

// LabelBenchRow is one point of the labeling sweep: the serial pairwise
// reference, the indexed labeler, and the indexed labeler sharded across
// workers, all assigning the same candidates against the same L_i sets.
type LabelBenchRow struct {
	N          int     `json:"n"`
	Sampled    int     `json:"sampled"`
	Candidates int     `json:"candidates"`
	Sets       int     `json:"sets"`
	SetPoints  int     `json:"set_points"` // Σ|L_i|
	Theta      float64 `json:"theta"`
	Labeled    int     `json:"labeled"`
	Unlabeled  int     `json:"unlabeled"`
	// Timing: best of 3 runs over prebuilt sets, so only the labeling
	// phase is measured.
	PairwiseSec float64 `json:"pairwise_sec"`
	IndexedSec  float64 `json:"indexed_sec"`
	Speedup     float64 `json:"speedup"` // pairwise_sec / indexed_sec
	// The sharded labeler at each worker count, against the serial
	// indexed labeler as baseline.
	Parallel []LabelParallelPoint `json:"parallel"`
}

// LabelParallelPoint is the sharded labeler's timing at one worker count.
type LabelParallelPoint struct {
	Workers int     `json:"workers"`
	Sec     float64 `json:"sec"`
	Speedup float64 `json:"speedup"` // indexed_sec / sec
}

// LabelBenchReport is the BENCH_label.json payload.
type LabelBenchReport struct {
	GOMAXPROCS int             `json:"gomaxprocs"`
	NumCPU     int             `json:"numcpu"`
	Quick      bool            `json:"quick"`
	Rows       []LabelBenchRow `json:"rows"`
	Notes      []string        `json:"notes"`
}

// labelFixtureTheta is the θ the labeling workload is built and timed at.
const labelFixtureTheta = 0.6

// LabelFixture builds the standard labeling workload shared by the
// rockbench -label sweep and the BenchmarkLabel* micro-benchmarks: a
// basket dataset of n transactions whose every 5th transaction forms the
// sample (the generator orders by cluster template, so a prefix would
// miss most clusters), clustered with full ROCK at θ=0.6; L_i sets take
// every 4th member of each cluster capped at 50 — the shape the default
// LabelFraction/MaxLabelPoints would draw — mapped back to
// dataset-global indices; the remaining points are the candidates.
func LabelFixture(n int, seed int64) (ts []dataset.Transaction, candidates []int, sets [][]int, err error) {
	k := 10
	d := synth.Basket(synth.BasketConfig{
		Transactions:    n,
		Clusters:        k,
		TemplateItems:   15,
		TransactionSize: 12,
		Seed:            seed + int64(n),
	})
	var sampleIdx []int
	var sampleTrans []dataset.Transaction
	for i := 0; i < n; i += 5 {
		sampleIdx = append(sampleIdx, i)
		sampleTrans = append(sampleTrans, d.Trans[i])
	}
	res, err := core.Cluster(sampleTrans, core.Config{Theta: labelFixtureTheta, K: k, Seed: seed + 1})
	if err != nil {
		return nil, nil, nil, fmt.Errorf("expt: clustering the label fixture sample: %w", err)
	}
	sets = make([][]int, 0, len(res.Clusters))
	for _, members := range res.Clusters {
		var li []int
		for i := 0; i < len(members) && len(li) < 50; i += 4 {
			li = append(li, sampleIdx[members[i]])
		}
		sets = append(sets, li)
	}
	candidates = make([]int, 0, n-len(sampleIdx))
	for p := 0; p < n; p++ {
		if p%5 != 0 {
			candidates = append(candidates, p)
		}
	}
	return d.Trans, candidates, sets, nil
}

// BenchLabel times the serial pairwise reference labeler against the
// inverted-index labeler (serial and sharded) on the sampled basket
// workload and writes the result as JSON — the perf trajectory record
// behind `rockbench -label`. Assignment agreement across all three paths
// is re-verified on each dataset before timing (the label oracle test
// provides the byte-level guarantee; this is the belt to its suspenders).
func BenchLabel(w io.Writer, opts Options) error {
	ns := []int{5000, 12500, 25000}
	if opts.Quick {
		ns = []int{1000, 2500}
	}
	theta := labelFixtureTheta

	report := LabelBenchReport{
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		Quick:      opts.Quick,
		Notes: []string{
			cpuNote(),
			"pairwise is the paper's labeling loop (every candidate against every labeled point); indexed counts intersections through block postings over the labeled points into bit-sliced counters, 64 points per machine word, and decides the θ-test exactly from (|t∩q|, |t|, |q|).",
			"the sample is every 5th transaction, clustered with full ROCK; L_i sets take every 4th member of each cluster capped at 50, as Config.LabelFraction/MaxLabelPoints defaults would.",
			"times are best-of-3 seconds for the labeling phase alone over prebuilt sets on the basket workload; speedup = pairwise_sec / indexed_sec.",
			"parallel rows shard candidates across workers over the same index: speedup = indexed_sec / sec.",
			"parallel numbers only show scaling when GOMAXPROCS exceeds one — at GOMAXPROCS=1 the workers serialize and pay only the chunk-handoff overhead; rerun on a multi-core host to capture the curve.",
			"all three paths produce identical assignments on every row (verified before timing); the label oracle test enforces byte-identical pipeline output across measures and worker counts.",
		},
	}
	for _, n := range ns {
		ts, candidates, sets, err := LabelFixture(n, opts.Seed)
		if err != nil {
			return err
		}
		setPoints := 0
		for _, li := range sets {
			setPoints += len(li)
		}
		s := n - len(candidates)
		f := core.MarketBasketF(theta)

		ref := core.BenchLabelReference(ts, candidates, sets, theta, f)
		indexed := core.BenchLabelIndexed(ts, candidates, sets, theta, f)
		if !reflect.DeepEqual(ref, indexed) {
			return fmt.Errorf("expt: labelers disagree at n=%d — refusing to record timings", n)
		}

		row := LabelBenchRow{
			N: n, Sampled: s, Candidates: len(candidates),
			Sets: len(sets), SetPoints: setPoints, Theta: theta,
			PairwiseSec: bestOf(3, func() { core.BenchLabelReference(ts, candidates, sets, theta, f) }),
			IndexedSec:  bestOf(3, func() { core.BenchLabelIndexed(ts, candidates, sets, theta, f) }),
		}
		for _, a := range ref {
			if a >= 0 {
				row.Labeled++
			} else {
				row.Unlabeled++
			}
		}
		row.Speedup = row.PairwiseSec / row.IndexedSec
		for _, workers := range []int{1, 2, 4} {
			wk := workers
			par := core.BenchLabelParallel(ts, candidates, sets, theta, f, wk)
			if !reflect.DeepEqual(ref, par) {
				return fmt.Errorf("expt: sharded labeler disagrees at n=%d workers=%d — refusing to record timings", n, wk)
			}
			sec := bestOf(3, func() { core.BenchLabelParallel(ts, candidates, sets, theta, f, wk) })
			row.Parallel = append(row.Parallel, LabelParallelPoint{
				Workers: wk, Sec: sec, Speedup: row.IndexedSec / sec,
			})
		}
		report.Rows = append(report.Rows, row)
	}

	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(report); err != nil {
		return fmt.Errorf("expt: encoding label bench report: %w", err)
	}
	return nil
}
