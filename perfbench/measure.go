package main

import (
	"runtime"
	"sort"
	"time"
)

// setupReps is how many times a workload builds its set-up, so that
// setup_s is a median rather than one sample.
const setupReps = 5

// span is one timed call into a layer, recorded from the benchmark's
// side of the call. Spans of one repetition share rep.
type span struct {
	name    string
	rep     int
	sec, mb float64 // wall time, and MB allocated process-wide during the call
}

// tracer keeps spans, and counts taken at the same boundaries, in memory
// until the run ends.
type tracer struct {
	spans  []span
	counts map[string][]float64 // one value per repetition
}

func (t *tracer) count(name string, v float64) {
	if t.counts == nil {
		t.counts = map[string][]float64{}
	}
	t.counts[name] = append(t.counts[name], v)
}

// do runs fn as one span.
func (t *tracer) do(name string, rep int, fn func()) {
	sec, mb := timed(fn)
	t.spans = append(t.spans, span{name: name, rep: rep, sec: sec, mb: mb})
}

// perRep sums the spans named name within each repetition.
func (t *tracer) perRep(name string) (secs, mbs []float64) {
	bySec := map[int]float64{}
	byMB := map[int]float64{}
	var reps []int
	for _, s := range t.spans {
		if s.name != name {
			continue
		}
		if _, ok := bySec[s.rep]; !ok {
			reps = append(reps, s.rep)
		}
		bySec[s.rep] += s.sec
		byMB[s.rep] += s.mb
	}
	for _, r := range reps {
		secs = append(secs, bySec[r])
		mbs = append(mbs, byMB[r])
	}
	return secs, mbs
}

// timed runs fn and returns its wall time and the MB allocated meanwhile.
// The MemStats reads stop the world briefly, once before and once after.
func timed(fn func()) (sec, mb float64) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	fn()
	sec = time.Since(start).Seconds()
	runtime.ReadMemStats(&after)
	return sec, float64(after.TotalAlloc-before.TotalAlloc) / 1e6
}

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics; 0 for an empty slice.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo] + frac*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

func ms(d time.Duration) float64 { return d.Seconds() * 1e3 }
