package expt

import (
	"encoding/json"
	"fmt"
	"io"
	"runtime"

	"github.com/rockclust/rock/internal/core"
	"github.com/rockclust/rock/internal/linkage"
	"github.com/rockclust/rock/internal/similarity"
	"github.com/rockclust/rock/internal/synth"
)

// MergeBenchRow is one point of the agglomeration sweep: the serial
// arena and the parallel batched engine on the same prebuilt link table.
type MergeBenchRow struct {
	N         int     `json:"n"`
	K         int     `json:"k"`
	Theta     float64 `json:"theta"`
	LinkPairs int     `json:"link_pairs"`
	Merges    int     `json:"merges"`
	Clusters  int     `json:"clusters"`
	// Timing: best of 3 runs over a prebuilt link table, so only the
	// agglomeration phase is measured.
	ArenaSec float64 `json:"arena_sec"`
	// ArenaAllocs counts heap allocations for one arena run
	// (runtime.Mallocs delta).
	ArenaAllocs uint64 `json:"arena_allocs"`
	// The serial-vs-parallel column: the batched engine at each worker
	// count, against the serial arena as baseline.
	Parallel []MergeParallelPoint `json:"parallel"`
}

// MergeParallelPoint is the batched engine's timing at one worker count.
type MergeParallelPoint struct {
	Workers int     `json:"workers"`
	Sec     float64 `json:"sec"`
	Speedup float64 `json:"speedup"` // arena_sec / sec
}

// MergeBenchReport is the BENCH_merge.json payload.
type MergeBenchReport struct {
	GOMAXPROCS int             `json:"gomaxprocs"`
	NumCPU     int             `json:"numcpu"`
	Quick      bool            `json:"quick"`
	Rows       []MergeBenchRow `json:"rows"`
	Notes      []string        `json:"notes"`
}

// BenchMerge times the serial arena engine against the batched engine
// across worker counts on basket workloads and writes the result as JSON
// — the perf trajectory record behind `rockbench -merge`. Output
// agreement between the engines is re-verified on each dataset before
// timing (the engine oracle test provides the byte-level guarantee; this
// is the belt to its suspenders).
func BenchMerge(w io.Writer, opts Options) error {
	ns := []int{2000, 5000, 10000}
	if opts.Quick {
		ns = []int{500, 1000}
	}
	theta := 0.6

	report := MergeBenchReport{
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		Quick:      opts.Quick,
		Notes: []string{
			cpuNote(),
			"arena is the flat-slot engine with sorted link rows and a single lazy heap; times are best-of-3 seconds for the agglomeration phase alone, over a prebuilt CSR link table on the basket workload.",
			"parallel rows time the batched merge engine (conflict-free merge rounds executed across workers) against the serial arena: speedup = arena_sec / sec.",
			"arena_allocs is the runtime.Mallocs delta for one arena run.",
			"both engines produce identical clusterings on every row (verified before timing); the engine oracle test enforces byte-identical output against the map-based reference across configurations and worker counts.",
		},
	}
	for _, n := range ns {
		k := n / 100
		if k < 2 {
			k = 2
		}
		d := synth.Basket(synth.BasketConfig{
			Transactions:    n,
			Clusters:        k,
			TemplateItems:   15,
			TransactionSize: 12,
			Seed:            opts.Seed + int64(n),
		})
		nb := similarity.ComputeIndexed(d.Trans, theta, similarity.Options{})
		lt := linkage.Build(nb, linkage.Options{})
		f := core.MarketBasketF(theta)

		ac, am := core.BenchAgglomerateArena(n, lt, k, f)
		workerCounts := []int{1, 2, 4}
		for _, workers := range workerCounts {
			if pc, pm := core.BenchAgglomerateParallel(n, lt, k, f, workers); pc != ac || pm != am {
				return fmt.Errorf("expt: batched engine disagrees at n=%d workers=%d (arena %d/%d, batched %d/%d) — refusing to record timings", n, workers, ac, am, pc, pm)
			}
		}

		row := MergeBenchRow{
			N: n, K: k, Theta: theta,
			LinkPairs:   lt.Pairs(),
			Merges:      am,
			Clusters:    ac,
			ArenaSec:    bestOf(3, func() { core.BenchAgglomerateArena(n, lt, k, f) }),
			ArenaAllocs: mallocsOf(func() { core.BenchAgglomerateArena(n, lt, k, f) }),
		}
		for _, workers := range workerCounts {
			sec := bestOf(3, func() { core.BenchAgglomerateParallel(n, lt, k, f, workers) })
			row.Parallel = append(row.Parallel, MergeParallelPoint{
				Workers: workers, Sec: sec, Speedup: row.ArenaSec / sec,
			})
		}
		report.Rows = append(report.Rows, row)
	}

	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(report); err != nil {
		return fmt.Errorf("expt: encoding merge bench report: %w", err)
	}
	return nil
}

// mallocsOf counts heap allocations performed by one call of f.
func mallocsOf(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs
}
