// Command perfbench is the repository's benchmark: one workload per
// invocation, inputs generated from --seed, outputs checked before any
// number is recorded.
//
//	perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// Workloads (see BENCHMARK.json for why each was chosen):
//
//	basket-sampled  core.Cluster on 800k baskets through a 2,500-point sample (labeling-bound)
//	assign-http     POST /assign against serve.Handler under an open loop
//	ingest-drift    stream.Streamer.Ingest across planted regime changes
//	mushroom        core.Cluster on the paper's mushroom data (serial arena merge)
//
// mushroom is not listed in BENCHMARK.json. Its serial merge spends most
// of its time in math.Pow on one CPU, and on a shared 2-vCPU host a CPU's
// speed swings by up to 1.8x for seconds to minutes at a time: over ten
// runs its Cluster time had an interquartile range of 0.15 to 0.27 of the
// median, more than a regression bound of 0.25 tolerates. Run it by name.
//
// The report goes to standard output: a context line (host and seeds),
// one line per figure under the names the workload's users read (cluster_s,
// assign_p50_ms, assign_p99_ms, ingest_p99_ms, refresh_s, error_rate, ...),
// any failed checks, and last one JSON object {"correct", "attempted",
// "failed", "metrics"}. Latency percentiles above the median are figures
// only: on the same host they spread by 0.15 to 0.5 between runs.
//
// With --trace 0 the JSON metrics are the end-to-end set, the same names on
// every workload so that runs compare one to one:
//
//	setup_s      median set-up time: data generation, model build, server start
//	op_p50_ms    median time of one operation: a Cluster call, a request
//	             timed from when it was due, or an Ingest call
//	items_per_s  points clustered, queries answered, or points ingested per second
//	alloc_mb     MB allocated per operation (process-wide TotalAlloc delta)
//	purity       accuracy of the produced assignments against the generator's labels
//
// With --trace 1 a separate run times each call into a layer's exported
// function from the benchmark's side of the call and reports the per-layer
// metrics; a layer a workload does not call reports 0.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"strings"
	"time"
)

// options are one run's settings.
type options struct {
	seed    int64
	seconds time.Duration // how long the measured loop runs
	trace   bool
	quick   bool // smoke-test sizes
}

type metricDef struct{ name, unit string }

// endToEnd are the metrics a run without tracing reports, on every workload.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"op_p50_ms", "ms"},
	{"items_per_s", "1/s"},
	{"alloc_mb", "MB"},
	{"purity", "ratio"},
}

// perLayer are the metrics a traced run reports, named module.phase after
// the layer called. Spans are medians over the run's repetitions.
var perLayer = []metricDef{
	{"core.sample.s", "s"}, {"core.sample.alloc_mb", "MB"},
	{"similarity.neighbors.s", "s"}, {"similarity.neighbors.alloc_mb", "MB"},
	{"linkage.links.s", "s"}, {"linkage.links.alloc_mb", "MB"},
	{"core.merge.s", "s"}, {"core.merge.alloc_mb", "MB"},
	{"core.label.s", "s"}, {"core.label.alloc_mb", "MB"},
	{"similarity.edges", "count"},
	{"linkage.entries", "count"},
	{"core.merges", "count"},
	{"core.label.candidates", "count"},
	{"core.label.hit_ratio", "ratio"},
	{"core.cluster.s", "s"},
	{"core.span_sum.s", "s"},
	{"core.unattributed.s", "s"},
	{"core.trace_overhead.s", "s"},
	{"similarity.neighbors.s_w1", "s"},
	{"linkage.links.s_w1", "s"},
	{"core.label.s_w1", "s"},
	{"serve.handler_ms", "ms"},
	{"serve.decode_ms", "ms"},
	{"serve.encode_ms", "ms"},
	{"core.assign_ms", "ms"},
	{"serve.coalesce_wait_ms", "ms"},
	{"serve.batches", "count"},
	{"serve.mean_batch", "count"},
	{"serve.coalesced_frac", "ratio"},
	{"serve.outlier_frac", "ratio"},
	{"net.client_ms", "ms"},
	{"loadgen.late_p99_ms", "ms"},
	{"stream.ingest_ms", "ms"},
	{"stream.refresh.s", "s"},
	{"stream.swap_pause_ms", "ms"},
	{"stream.refresh_wait.s", "s"},
	{"stream.refresh_points", "count"},
	{"stream.refreshes", "count"},
	{"stream.fallbacks", "count"},
	{"stream.admit_ratio", "ratio"},
	{"stream.dropped", "count"},
}

// workloads maps each workload name to the function that runs it. The
// function fills the report and returns an error only when it could not
// run at all.
var workloads = map[string]func(options, *report) error{
	"mushroom":       runMushroom,
	"basket-sampled": runBasketSampled,
	"assign-http":    runAssignHTTP,
	"ingest-drift":   runIngestDrift,
}

// report collects one run's checks, figures and metrics.
type report struct {
	attempted, failed int
	problems          []string
	figures           []string
	seeds             map[string]int64
	metrics           map[string]float64
}

func newReport() *report {
	return &report{seeds: map[string]int64{}, metrics: map[string]float64{}}
}

// op counts one attempted operation or output check, failed unless ok.
func (r *report) op(ok bool, format string, args ...any) {
	r.attempted++
	if ok {
		return
	}
	r.failed++
	if len(r.problems) < 20 {
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	}
}

// figure records a number under the name the workload's users read it by,
// for the human-readable part of the report.
func (r *report) figure(name string, v float64, unit string) {
	r.figures = append(r.figures, fmt.Sprintf("figure %-22s %14.6g %s", name, v, unit))
}

func (r *report) set(name string, v float64) { r.metrics[name] = v }

func (r *report) errorRate() float64 {
	if r.attempted == 0 {
		return 0
	}
	return float64(r.failed) / float64(r.attempted)
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// final renders the last line's JSON object. Every end-to-end metric must have
// been set; a per-layer metric the workload never touched reads 0.
func (r *report) final(trace bool) (result, error) {
	defs := endToEnd
	if trace {
		defs = perLayer
	}
	out := result{Correct: r.failed == 0 && r.attempted > 0, Attempted: r.attempted, Failed: r.failed, Metrics: map[string]metricValue{}}
	for _, d := range defs {
		v, ok := r.metrics[d.name]
		if !ok && !trace {
			return out, fmt.Errorf("workload did not measure %s", d.name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return out, fmt.Errorf("metric %s is not a number: %v", d.name, v)
		}
		out.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	return out, nil
}

func main() {
	name := flag.String("workload", "", "workload to run: mushroom, basket-sampled, assign-http or ingest-drift")
	seed := flag.Int64("seed", 1, "seed all inputs are generated from")
	seconds := flag.Float64("seconds", 10, "length of the measured loop in seconds")
	trace := flag.Int("trace", 0, "1 reports per-layer spans and counts instead of end-to-end metrics")
	flag.Parse()

	run, ok := workloads[*name]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (one of mushroom, basket-sampled, assign-http, ingest-drift), --seconds > 0 and --trace 0|1\n")
		os.Exit(2)
	}
	opts := options{seed: *seed, seconds: time.Duration(*seconds * float64(time.Second)), trace: *trace == 1}
	r := newReport()
	if err := run(opts, r); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *name, err)
		os.Exit(1)
	}
	res, err := r.final(opts.trace)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *name, err)
		os.Exit(1)
	}

	host, err := json.Marshal(map[string]any{
		"workload": *name, "seed": *seed, "seconds": *seconds, "trace": *trace,
		"gomaxprocs": runtime.GOMAXPROCS(0), "numcpu": runtime.NumCPU(), "go": runtime.Version(),
		"input_seeds": r.seeds,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: encoding context: %v\n", err)
		os.Exit(1)
	}
	var b strings.Builder
	fmt.Fprintf(&b, "context %s\n", host)
	for _, f := range r.figures {
		b.WriteString(f + "\n")
	}
	fmt.Fprintf(&b, "figure %-22s %14.6g %s (%d failed of %d attempted)\n", "error_rate", r.errorRate(), "ratio", r.failed, r.attempted)
	for _, p := range r.problems {
		fmt.Fprintf(&b, "check FAILED: %s\n", p)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: encoding result: %v\n", err)
		os.Exit(1)
	}
	b.Write(line)
	b.WriteString("\n")
	os.Stdout.WriteString(b.String())
}
