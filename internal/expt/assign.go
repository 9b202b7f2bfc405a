package expt

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"reflect"
	"runtime"

	"github.com/rockclust/rock/internal/core"
	"github.com/rockclust/rock/internal/dataset"
)

// AssignBenchRow is one point of the frozen-model serving sweep: the
// model's AssignBatch on one worker and across worker counts, answering
// the same queries from the same frozen model — plus the Save/Load cost
// and file size of the model itself.
type AssignBenchRow struct {
	N         int     `json:"n"`
	Queries   int     `json:"queries"`
	Sets      int     `json:"sets"`
	SetPoints int     `json:"set_points"` // Σ|L_i| frozen into the model
	Theta     float64 `json:"theta"`
	Assigned  int     `json:"assigned"`
	Outliers  int     `json:"outliers"`
	// Timing: best of 3 runs against the prebuilt model, so only the
	// serving path is measured.
	AssignSec float64 `json:"assign_sec"`
	// AssignBatch at each worker count, against the single-worker batch
	// as baseline.
	Parallel []AssignParallelPoint `json:"parallel"`
	// The frozen artifact itself.
	ModelBytes int     `json:"model_bytes"`
	SaveSec    float64 `json:"save_sec"`
	LoadSec    float64 `json:"load_sec"`
}

// AssignParallelPoint is AssignBatch's timing at one worker count.
type AssignParallelPoint struct {
	Workers int     `json:"workers"`
	Sec     float64 `json:"sec"`
	Speedup float64 `json:"speedup"` // assign_sec / sec
}

// AssignBenchReport is the BENCH_assign.json payload.
type AssignBenchReport struct {
	GOMAXPROCS int              `json:"gomaxprocs"`
	NumCPU     int              `json:"numcpu"`
	Quick      bool             `json:"quick"`
	Rows       []AssignBenchRow `json:"rows"`
	Notes      []string         `json:"notes"`
}

// BenchAssign times a frozen model's AssignBatch on the labeling
// workload across worker counts, and records the model's Save/Load
// round-trip cost — the perf trajectory record behind `rockbench
// -assign`. Agreement between worker counts and a save→load→assign round
// trip is re-verified on every row before timing (the model oracle test
// provides the byte-level guarantee against the pairwise reference; this
// is the belt to its suspenders).
func BenchAssign(w io.Writer, opts Options) error {
	ns := []int{5000, 12500, 25000}
	if opts.Quick {
		ns = []int{1000, 2500}
	}
	theta := labelFixtureTheta

	report := AssignBenchReport{
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		Quick:      opts.Quick,
		Notes: []string{
			cpuNote(),
			"assign serves queries from a frozen model (inverted index over the frozen labeled points, θ-test decided from (|t∩q|, |t|, |q|)).",
			"the model is frozen from the same clustered sample and L_i sets the -label sweep uses (every 5th transaction clustered; sets per LabelFraction/MaxLabelPoints defaults); queries are the remaining points.",
			"times are best-of-3 seconds for the serving path alone; parallel rows run AssignBatch across workers on the same model: speedup = assign_sec / sec.",
			"model_bytes / save_sec / load_sec measure the frozen artifact: a versioned, checksummed binary whose save→load→save round trip is byte-identical.",
			"every worker count and the reloaded model agree on every row (verified before timing); the model oracle test enforces bit-identity with the pairwise reference under -race.",
		},
	}
	for _, n := range ns {
		ts, candidates, sets, err := LabelFixture(n, opts.Seed)
		if err != nil {
			return err
		}
		model, err := core.FreezeSets(ts, sets, nil, theta, core.MarketBasketF(theta), nil)
		if err != nil {
			return fmt.Errorf("expt: freezing the assign fixture model: %w", err)
		}
		queries := make([]dataset.Transaction, 0, len(candidates))
		for _, p := range candidates {
			queries = append(queries, ts[p])
		}

		ref := model.AssignBatch(queries, 1)
		workerCounts := []int{1, 2, 4}
		for _, workers := range workerCounts {
			if !reflect.DeepEqual(ref, model.AssignBatch(queries, workers)) {
				return fmt.Errorf("expt: AssignBatch disagrees at n=%d workers=%d — refusing to record timings", n, workers)
			}
		}
		var file bytes.Buffer
		if err := model.Save(&file); err != nil {
			return err
		}
		loaded, err := core.LoadModel(bytes.NewReader(file.Bytes()))
		if err != nil {
			return err
		}
		if !reflect.DeepEqual(ref, loaded.AssignBatch(queries, 1)) {
			return fmt.Errorf("expt: reloaded model disagrees at n=%d — refusing to record timings", n)
		}

		setPoints := 0
		for _, li := range sets {
			setPoints += len(li)
		}
		row := AssignBenchRow{
			N: n, Queries: len(queries),
			Sets: len(sets), SetPoints: setPoints, Theta: theta,
			AssignSec:  bestOf(3, func() { model.AssignBatch(queries, 1) }),
			ModelBytes: file.Len(),
			SaveSec:    bestOf(3, func() { model.Save(io.Discard) }),
			LoadSec: bestOf(3, func() {
				if _, err := core.LoadModel(bytes.NewReader(file.Bytes())); err != nil {
					panic(err)
				}
			}),
		}
		for _, a := range ref {
			if a >= 0 {
				row.Assigned++
			} else {
				row.Outliers++
			}
		}
		for _, workers := range workerCounts {
			sec := bestOf(3, func() { model.AssignBatch(queries, workers) })
			row.Parallel = append(row.Parallel, AssignParallelPoint{
				Workers: workers, Sec: sec, Speedup: row.AssignSec / sec,
			})
		}
		report.Rows = append(report.Rows, row)
	}

	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(report); err != nil {
		return fmt.Errorf("expt: encoding assign bench report: %w", err)
	}
	return nil
}
