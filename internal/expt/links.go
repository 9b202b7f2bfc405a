package expt

import (
	"encoding/json"
	"fmt"
	"io"
	"runtime"
	"time"

	"github.com/rockclust/rock/internal/linkage"
	"github.com/rockclust/rock/internal/similarity"
	"github.com/rockclust/rock/internal/synth"
)

// LinkBenchRow is one point of the link-builder sweep.
type LinkBenchRow struct {
	N         int                 `json:"n"`
	Theta     float64             `json:"theta"`
	LinkPairs int                 `json:"link_pairs"`
	Parallel  []LinkBenchParallel `json:"parallel"`
}

// LinkBenchParallel is linkage.Build timed at one worker count.
type LinkBenchParallel struct {
	Workers int     `json:"workers"`
	Sec     float64 `json:"sec"`
	Speedup float64 `json:"speedup"` // sec at workers=1 / sec
}

// LinkBenchReport is the BENCH_links.json payload.
type LinkBenchReport struct {
	GOMAXPROCS int            `json:"gomaxprocs"`
	NumCPU     int            `json:"numcpu"`
	Quick      bool           `json:"quick"`
	Rows       []LinkBenchRow `json:"rows"`
	Notes      []string       `json:"notes"`
}

// BenchLinks times the sharded CSR link builder (linkage.Build) across
// worker counts on the E6 ScaleUp workload sizes and writes the result as
// JSON — the perf trajectory record behind `rockbench -links`. Every
// timing is the best of three runs; the table is re-verified identical
// at every worker count before timing.
func BenchLinks(w io.Writer, opts Options) error {
	ns := []int{1000, 2000, 5000}
	if opts.Quick {
		ns = []int{500, 1000}
	}
	theta := 0.6
	workerCounts := uniqueInts([]int{1, 2, 4, runtime.GOMAXPROCS(0)})

	report := LinkBenchReport{
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		Quick:      opts.Quick,
		Notes: []string{
			cpuNote(),
			"linkage.Build is the sharded CSR builder: rows in 128-row shards, dense scratch counting per worker; its tables equal the paper's map-based pair counting (TestParallelCSRMatchesOracles).",
			"times are best-of-3 seconds on the E6 ScaleUp basket workload; speedup = sec at workers=1 / sec.",
		},
	}
	if report.GOMAXPROCS < 4 {
		report.Notes = append(report.Notes,
			fmt.Sprintf("measured at GOMAXPROCS=%d: worker counts above the core count timeshare the CPUs.", report.GOMAXPROCS))
	}
	for _, n := range ns {
		d := synth.Basket(synth.BasketConfig{
			Transactions:    n,
			Clusters:        10,
			TemplateItems:   15,
			TransactionSize: 12,
			Seed:            opts.Seed + int64(n),
		})
		nb := similarity.ComputeIndexed(d.Trans, theta, similarity.Options{})

		base := linkage.Build(nb, linkage.Options{Workers: 1})
		for _, workers := range workerCounts {
			if !linkage.Build(nb, linkage.Options{Workers: workers}).Equal(base) {
				return fmt.Errorf("expt: link tables differ at n=%d workers=%d — refusing to record timings", n, workers)
			}
		}

		row := LinkBenchRow{N: n, Theta: theta, LinkPairs: base.Pairs()}
		for _, workers := range workerCounts {
			sec := bestOf(3, func() { linkage.Build(nb, linkage.Options{Workers: workers}) })
			p := LinkBenchParallel{Workers: workers, Sec: sec, Speedup: 1}
			if len(row.Parallel) > 0 {
				p.Speedup = row.Parallel[0].Sec / sec
			}
			row.Parallel = append(row.Parallel, p)
		}
		report.Rows = append(report.Rows, row)
	}

	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(report); err != nil {
		return fmt.Errorf("expt: encoding link bench report: %w", err)
	}
	return nil
}

// bestOf returns the fastest of k timed runs of f, in seconds.
func bestOf(k int, f func()) float64 {
	best := 0.0
	for i := 0; i < k; i++ {
		start := time.Now()
		f()
		if s := time.Since(start).Seconds(); i == 0 || s < best {
			best = s
		}
	}
	return best
}

// uniqueInts returns a new slice with duplicates dropped, preserving
// first-seen order.
func uniqueInts(xs []int) []int {
	seen := map[int]bool{}
	out := make([]int, 0, len(xs))
	for _, x := range xs {
		if !seen[x] {
			seen[x] = true
			out = append(out, x)
		}
	}
	return out
}
