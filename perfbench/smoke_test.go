package main

import (
	"testing"
	"time"
)

// TestSmoke drives every workload at quick sizes, untraced and traced, and
// fails on any output check the benchmark makes before recording numbers.
func TestSmoke(t *testing.T) {
	for name, run := range workloads {
		for _, trace := range []bool{false, true} {
			mode := "untraced"
			if trace {
				mode = "traced"
			}
			t.Run(name+"/"+mode, func(t *testing.T) {
				r := newReport()
				o := options{seed: 3, seconds: 200 * time.Millisecond, trace: trace, quick: true}
				if err := run(o, r); err != nil {
					t.Fatal(err)
				}
				for _, p := range r.problems {
					t.Error(p)
				}
				if r.failed > 0 || r.attempted == 0 {
					t.Fatalf("%d of %d operations failed their checks", r.failed, r.attempted)
				}
				res, err := r.final(trace)
				if err != nil {
					t.Fatal(err)
				}
				if !res.Correct {
					t.Fatal("result not marked correct")
				}
				if !trace {
					for _, d := range endToEnd {
						if v := res.Metrics[d.name].Value; v <= 0 {
							t.Errorf("%s = %v, want a positive value", d.name, v)
						}
					}
					return
				}
				if name == "assign-http" {
					for _, m := range []string{"similarity.neighbors.s", "linkage.links.s", "core.merge.s"} {
						if v := res.Metrics[m].Value; v != 0 {
							t.Errorf("%s = %v on the serving path, want no span", m, v)
						}
					}
				}
			})
		}
	}
}
