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

// LabelBenchRow is one point of the labeling sweep: the indexed labeler
// on the serial loop and sharded across workers, all assigning the same
// candidates against the same L_i sets.
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
	IndexedSec float64 `json:"indexed_sec"`
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

// BenchLabel times the inverted-index labeler, serial and sharded, on
// the sampled basket workload and writes the result as JSON — the perf
// trajectory record behind `rockbench -label`. Assignment agreement
// across the paths is re-verified on each dataset before timing (the
// label oracle test provides the byte-level guarantee against the
// pairwise reference; this is the belt to its suspenders).
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
			"indexed counts intersections through block postings over the labeled points into bit-sliced counters, 64 points per machine word, and decides the θ-test exactly from (|t∩q|, |t|, |q|).",
			"the sample is every 5th transaction, clustered with full ROCK; L_i sets take every 4th member of each cluster capped at 50, as Config.LabelFraction/MaxLabelPoints defaults would.",
			"times are best-of-3 seconds for the labeling phase alone over prebuilt sets on the basket workload.",
			"parallel rows shard candidates across workers over the same index: speedup = indexed_sec / sec.",
			"all paths produce identical assignments on every row (verified before timing); the label oracle test enforces byte-identical pipeline output against the pairwise reference across measures and worker counts.",
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

		indexed := core.BenchLabelIndexed(ts, candidates, sets, theta, f)
		workerCounts := []int{1, 2, 4}
		for _, workers := range workerCounts {
			if !reflect.DeepEqual(indexed, core.BenchLabelParallel(ts, candidates, sets, theta, f, workers)) {
				return fmt.Errorf("expt: sharded labeler disagrees at n=%d workers=%d — refusing to record timings", n, workers)
			}
		}

		row := LabelBenchRow{
			N: n, Sampled: s, Candidates: len(candidates),
			Sets: len(sets), SetPoints: setPoints, Theta: theta,
			IndexedSec: bestOf(3, func() { core.BenchLabelIndexed(ts, candidates, sets, theta, f) }),
		}
		for _, a := range indexed {
			if a >= 0 {
				row.Labeled++
			} else {
				row.Unlabeled++
			}
		}
		for _, workers := range workerCounts {
			sec := bestOf(3, func() { core.BenchLabelParallel(ts, candidates, sets, theta, f, workers) })
			row.Parallel = append(row.Parallel, LabelParallelPoint{
				Workers: workers, Sec: sec, Speedup: row.IndexedSec / sec,
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
