package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"time"

	"github.com/rockclust/rock/internal/core"
	"github.com/rockclust/rock/internal/dataset"
	"github.com/rockclust/rock/internal/metrics"
	"github.com/rockclust/rock/internal/stream"
)

// The stream's shape: every regime has streamTemplates templates, each a
// pool of streamWidth items from which a point draws streamSize; regimes
// share no items, so a regime change makes every arriving point an outlier
// to the serving model until a refresh adds the new regime.
const (
	streamTheta     = 0.35
	streamTemplates = 4
	streamWidth     = 12
	streamSize      = 8
	streamBatch     = 256
	streamChanges   = 3 // planted regime changes per episode
	streamTrain     = 200
	// streamOutliers bounds the parked-outlier ring, and streamLabelPoints
	// each cluster's labeled points: together they bound what an
	// incremental refresh re-clusters, the ring plus the labeled
	// representatives, below linkage.DefaultSerialBelow (768) through the
	// last change. The ring keeps the newest outliers, so at the trigger
	// it holds the new regime's points.
	streamOutliers    = 512
	streamLabelPoints = 16
	genBatches        = 32    // distinct batches generated per regime, fed in a cycle
	regimeCalls       = 16384 // Ingest calls per regime, more if its refresh has not swapped in
	tailCalls         = 64    // Ingest calls a regime keeps running after its refresh swapped in
	verifyEvery       = 16    // every verifyEvery-th Ingest answer is checked against its model
)

// regime draws points from one regime's templates.
type regime struct {
	id  int
	rng *rand.Rand
}

// draw returns n points and, per point, the template it was drawn from.
func (g *regime) draw(n int) ([]dataset.Transaction, []string) {
	ts := make([]dataset.Transaction, n)
	labels := make([]string, n)
	names := make([]string, streamTemplates)
	for tpl := range names {
		names[tpl] = fmt.Sprintf("r%d-t%d", g.id, tpl)
	}
	items := make([]dataset.Item, 0, streamSize)
	for i := range ts {
		tpl := g.rng.Intn(streamTemplates)
		labels[i] = names[tpl]
		items = items[:0]
		for len(items) < streamSize {
			items = append(items, dataset.Item(g.id*1024+tpl*64+g.rng.Intn(streamWidth)))
		}
		ts[i] = dataset.NewTransaction(items...)
	}
	return ts, labels
}

// episode is one streamer fed from the first regime through
// streamChanges regime changes.
type episode struct {
	st          *stream.Streamer
	phases      [][][]dataset.Transaction // per regime, pre-generated batches
	probes      []dataset.Transaction     // labeled draws from every regime
	probeLabels []string

	mu    sync.Mutex
	swaps map[uint64]swapRecord // by generation, from OnSwap
}

type swapRecord struct {
	at    time.Time
	model *core.Model
}

func (ep *episode) swap(gen uint64) (swapRecord, bool) {
	ep.mu.Lock()
	defer ep.mu.Unlock()
	s, ok := ep.swaps[gen]
	return s, ok
}

// newEpisode generates the stream, trains the first regime's model and
// starts the streamer with incremental refresh.
func newEpisode(seed int64) (*episode, error) {
	workers := runtime.GOMAXPROCS(0)
	ep := &episode{swaps: map[uint64]swapRecord{}}
	regimes := make([]*regime, streamChanges+1)
	for i := range regimes {
		regimes[i] = &regime{id: i, rng: rand.New(rand.NewSource(seed + int64(i)))}
	}
	train, _ := regimes[0].draw(streamTrain)
	for _, g := range regimes {
		batches := make([][]dataset.Transaction, genBatches)
		for b := range batches {
			batches[b], _ = g.draw(streamBatch)
		}
		ep.phases = append(ep.phases, batches)
		ts, labels := g.draw(512)
		ep.probes = append(ep.probes, ts...)
		ep.probeLabels = append(ep.probeLabels, labels...)
	}

	cfg := core.Config{Theta: streamTheta, K: streamTemplates, MaxLabelPoints: streamLabelPoints, Seed: seed, Workers: workers}
	res, err := core.Cluster(train, cfg)
	if err != nil {
		return nil, fmt.Errorf("clustering the first regime: %w", err)
	}
	model, err := core.Freeze(train, res, cfg)
	if err != nil {
		return nil, fmt.Errorf("freezing the first regime's model: %w", err)
	}
	ep.st, err = stream.New(model, stream.Config{
		Cluster:       core.Config{MaxLabelPoints: streamLabelPoints, Seed: seed, Workers: workers},
		OutlierBuffer: streamOutliers,
		Incremental:   true,
		Seed:          seed,
		OnSwap: func(gen uint64, m *core.Model) {
			ep.mu.Lock()
			ep.swaps[gen] = swapRecord{at: time.Now(), model: m}
			ep.mu.Unlock()
		},
	})
	if err != nil {
		return nil, fmt.Errorf("starting the streamer: %w", err)
	}
	return ep, nil
}

// ingestTotals accumulates what the producer observed across episodes.
type ingestTotals struct {
	callMs       []float64 // per Ingest call
	points       int
	loopSec      float64 // wall time of the ingest loops
	allocMB      float64
	refreshWait  []float64 // s from the first Ingest reporting Refreshing to OnSwap
	refreshSec   []float64 // Stats.LastRefreshSec per refresh
	swapPauseMs  []float64
	refreshPts   []float64
	refreshes    int64
	fallbacks    int64
	dropped      int64
	seen, admits int64
	purity       []float64
}

// runIngestDrift feeds one producer's 256-point batches to
// stream.Streamer.Ingest across streamChanges planted regime changes, each
// of which must cause exactly one incremental refresh. Episodes, each on a
// fresh streamer, repeat until the measured ingest time reaches --seconds.
func runIngestDrift(o options, r *report) error {
	r.seeds["stream"] = o.seed
	var tot ingestTotals
	var setups []float64
	setup := func(e int) (*episode, error) {
		runtime.GC()
		start := time.Now()
		ep, err := newEpisode(o.seed + int64(e)*7919)
		setups = append(setups, time.Since(start).Seconds())
		return ep, err
	}
	var ingestTime time.Duration
	for e := 0; e == 0 || ingestTime < o.seconds; e++ {
		ep, err := setup(e)
		if err != nil {
			return err
		}
		ingestTime += ep.run(&tot, r, o.quick)
	}
	for e := len(setups); e < setupReps; e++ {
		if _, err := setup(e); err != nil { // for the set-up median only
			return err
		}
	}
	r.set("setup_s", median(setups))
	r.figure("setup_s", median(setups), fmt.Sprintf("s (stream generation, model build, streamer start; median of %d)", len(setups)))

	pps := float64(tot.points) / tot.loopSec
	if !o.trace {
		r.set("op_p50_ms", median(tot.callMs))
		r.set("items_per_s", pps)
		r.set("alloc_mb", tot.allocMB/float64(len(tot.callMs)))
		r.set("purity", median(tot.purity))
		r.figure("ingest_pts_per_s", pps, fmt.Sprintf("points/s (%d Ingest calls of %d points, %d episodes)", len(tot.callMs), streamBatch, len(setups)))
		r.figure("ingest_p90_ms", quantile(tot.callMs, 0.90), "ms per Ingest call")
		r.figure("ingest_p99_ms", quantile(tot.callMs, 0.99), "ms per Ingest call")
		r.figure("refresh_s", median(tot.refreshWait), fmt.Sprintf("s stale model served, median of %d refreshes", len(tot.refreshWait)))
		r.figure("purity", median(tot.purity), "accuracy of the final model on every regime's probes")
		return nil
	}
	r.set("stream.ingest_ms", mean(tot.callMs))
	r.set("stream.refresh.s", median(tot.refreshSec))
	r.set("stream.swap_pause_ms", median(tot.swapPauseMs))
	r.set("stream.refresh_wait.s", median(tot.refreshWait))
	r.set("stream.refresh_points", median(tot.refreshPts))
	r.set("stream.refreshes", float64(tot.refreshes))
	r.set("stream.fallbacks", float64(tot.fallbacks))
	r.set("stream.dropped", float64(tot.dropped))
	if tot.seen > 0 {
		r.set("stream.admit_ratio", float64(tot.admits)/float64(tot.seen))
	}
	r.figures = append(r.figures, fmt.Sprintf("split refresh wait %.4g s, of which re-cluster and freeze %.4g s (%.0f points), swap pause %.4g ms",
		median(tot.refreshWait), median(tot.refreshSec), median(tot.refreshPts), median(tot.swapPauseMs)))
	return nil
}

// run feeds the episode's regimes in order and checks the result: the
// outlier ledger, one refresh per regime change, and every verifyEvery-th
// answer against the model of the generation that gave it. It returns the
// time spent inside the ingest loops.
func (ep *episode) run(tot *ingestTotals, r *report, quick bool) time.Duration {
	type answer struct {
		batch []dataset.Transaction
		res   stream.IngestResult
	}
	var kept []answer
	var loops time.Duration
	calls := 0
	perRegime := regimeCalls
	if quick {
		perRegime /= 16
	}
	for p, batches := range ep.phases {
		var firstRefreshing time.Time
		var swappedAt int // calls made when the regime's refresh was seen swapped in
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		loopStart := time.Now()
		for i := 0; ; i++ {
			b := batches[i%len(batches)]
			start := time.Now()
			res := ep.st.Ingest(b)
			end := time.Now()
			tot.callMs = append(tot.callMs, ms(end.Sub(start)))
			tot.points += len(b)
			if calls%verifyEvery == 0 {
				kept = append(kept, answer{b, res})
			}
			calls++
			if p == 0 {
				if i+1 >= perRegime {
					break
				}
				continue
			}
			if res.Refreshing && firstRefreshing.IsZero() && swappedAt == 0 {
				firstRefreshing = end
			}
			if swappedAt == 0 {
				if _, ok := ep.swap(uint64(p + 1)); ok {
					swappedAt = i + 1
				}
			}
			if swappedAt > 0 && i+1 >= max(perRegime, swappedAt+tailCalls) {
				break
			}
			if i > 100_000 {
				r.op(false, "regime %d: no refresh after %d calls", p, i)
				break
			}
		}
		loops += time.Since(loopStart)
		runtime.ReadMemStats(&after)
		tot.allocMB += float64(after.TotalAlloc-before.TotalAlloc) / 1e6

		if p == 0 {
			continue
		}
		ep.st.Quiesce()
		s := ep.st.Stats()
		if sw, ok := ep.swap(uint64(p + 1)); ok {
			tot.refreshWait = append(tot.refreshWait, max(0, sw.at.Sub(firstRefreshing).Seconds()))
		}
		tot.refreshSec = append(tot.refreshSec, s.LastRefreshSec)
		tot.swapPauseMs = append(tot.swapPauseMs, s.LastSwapPauseSec*1e3)
		tot.refreshPts = append(tot.refreshPts, float64(s.LastRefreshPoints))
	}
	tot.loopSec += loops.Seconds()

	ep.st.Quiesce()
	s := ep.st.Stats()
	tot.refreshes += s.Refreshes
	tot.fallbacks += s.IncrementalFallbacks
	tot.dropped += s.DroppedOutliers
	tot.seen += s.Seen
	tot.admits += s.Assigned
	r.op(s.Outliers == s.RefreshedOutliers+s.ReadmittedOutliers+int64(s.PendingOutliers)+s.DroppedOutliers,
		"ledger: outliers %d != refreshed %d + readmitted %d + pending %d + dropped %d",
		s.Outliers, s.RefreshedOutliers, s.ReadmittedOutliers, s.PendingOutliers, s.DroppedOutliers)
	r.op(s.Refreshes == streamChanges && s.FailedRefreshes == 0 && s.Generation == streamChanges+1,
		"%d regime changes caused %d refreshes (%d failed), generation %d", streamChanges, s.Refreshes, s.FailedRefreshes, s.Generation)
	for _, a := range kept {
		sw, ok := ep.swap(a.res.Generation)
		r.op(ok && slices.Equal(a.res.Assignments, sw.model.AssignBatch(a.batch, 1)),
			"Ingest answer from generation %d differs from that model's AssignBatch", a.res.Generation)
	}
	if final, ok := ep.swap(s.Generation); ok {
		tot.purity = append(tot.purity, metrics.Evaluate(final.model.AssignBatch(ep.probes, 1), ep.probeLabels).Accuracy)
	}
	return loops
}
