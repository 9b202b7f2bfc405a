package stream

import (
	"reflect"
	"sync"
	"testing"
	"time"

	"github.com/rockclust/rock/internal/core"
	"github.com/rockclust/rock/internal/dataset"
	"github.com/rockclust/rock/internal/metrics"
	"github.com/rockclust/rock/internal/serve"
	"github.com/rockclust/rock/internal/vclock"
)

// TestStreamSoak is the streaming loop's proof harness: a deterministic
// virtual-clock soak that drives a stable regime, then a drifted one,
// through the streamer and asserts the three properties the design
// claims, at Workers ∈ {1,4} (run under -race in CI):
//
//  1. Swap safety — every ingested batch is answered by exactly the
//     generation it was pinned to: replaying the batch through that
//     generation's model reproduces the answer bit-for-bit, the pinned
//     generation is never older than the generation current at submit
//     time (no request answered by a retired generation), and every
//     point gets exactly one answer (zero dropped).
//  2. Bounded detection — after the changepoint the drift detector fires
//     within 4·Window points.
//  3. Quality recovery — the refreshed model's accuracy on fresh drifted
//     probes (generator labels, internal/metrics) is within ε = 0.05 of
//     a from-scratch batch run over the drifted regime.
//
// Time is a vclock.Fake and the detector counts points, so there are no
// sleeps and no flakes: reruns are bit-identical. Ingest batches match
// Serve.MaxBatch so every submit size-flushes; a partial batch gets its
// own coverage at the end, flushed on a free slot during its submit.
func TestStreamSoak(t *testing.T) {
	for _, workers := range []int{1, 4} {
		t.Run(map[int]string{1: "workers=1", 4: "workers=4"}[workers], func(t *testing.T) {
			soak(t, workers)
		})
	}
}

// soakBatch records one ingested batch for post-hoc replay.
type soakBatch struct {
	qs        []dataset.Transaction
	out       []int
	genBefore uint64 // serving generation observed just before Ingest
	gen       uint64 // generation that actually answered
}

func soak(t *testing.T, workers int) {
	const (
		batchSize = 16
		window    = 64
	)

	// Generation ledger: OnSwap registers every model that ever served, so
	// replay can ask "what would generation g have answered?".
	var genMu sync.Mutex
	genModels := map[uint64]*core.Model{}

	regA := newRegime(0, 4, 11)
	m := freezeRegime(t, regA, 400, 4, workers)
	st, err := New(m, Config{
		Cluster:            core.Config{Theta: soakTheta, K: 8, Seed: 5, Workers: workers},
		Serve:              serve.Config{MaxBatch: batchSize, Workers: workers},
		RefreshThreshold:   0.5,
		Window:             window,
		Warmup:             window,
		MinRefreshOutliers: 48,
		OutlierBuffer:      256,
		RetainSample:       256,
		Seed:               7,
		Clock:              vclock.NewFake(time.Unix(0, 0)),
		OnSwap: func(gen uint64, m *core.Model) {
			genMu.Lock()
			genModels[gen] = m
			genMu.Unlock()
		},
	})
	if err != nil {
		t.Fatal(err)
	}

	var records []soakBatch
	ingest := func(g *regimeGen) ([]int, []string) {
		qs, labels := g.batch(batchSize)
		genBefore := st.Generation()
		res := st.Ingest(qs)
		if len(res.Assignments) != len(qs) {
			t.Fatalf("ingest dropped points: %d answers for %d queries", len(res.Assignments), len(qs))
		}
		records = append(records, soakBatch{qs: qs, out: res.Assignments, genBefore: genBefore, gen: res.Generation})
		return res.Assignments, labels
	}

	// --- Phase 1: stable regime. The frozen model describes the stream;
	// no refresh may trigger. ---
	for i := 0; i < 40; i++ {
		ingest(regA)
	}
	s1 := st.Stats()
	if s1.Refreshes != 0 || s1.Refreshing {
		t.Fatalf("stable phase triggered a refresh: %+v", s1)
	}
	if s1.OutlierRate > 0.2 {
		t.Fatalf("stable phase outlier rate %.3f", s1.OutlierRate)
	}
	if s1.Generation != 1 {
		t.Fatalf("stable phase ended on generation %d", s1.Generation)
	}
	changepoint := s1.Seen

	// --- Phase 2: drifted regime (disjoint item universe — every point is
	// an outlier to generation 1). The detector must fire within 4·Window
	// points of the changepoint. ---
	regB := newRegime(100000, 4, 13)
	triggered := false
	for i := 0; i < 4*window/batchSize && !triggered; i++ {
		ingest(regB)
		triggered = st.Stats().LastTriggerSeen > changepoint
	}
	s2 := st.Stats()
	if !triggered {
		t.Fatalf("drift detector never fired within %d points of the changepoint: %+v", 4*window, s2)
	}
	if delay := s2.LastTriggerSeen - changepoint; delay > 4*window {
		t.Fatalf("detection delay %d points, bound %d", delay, 4*window)
	}

	// Keep ingesting while the background refresh runs — these batches
	// race the swap and must land cleanly on whichever generation they
	// pin (this is the traffic that crosses the swap boundary).
	for i := 0; i < 6; i++ {
		ingest(regB)
	}
	st.Quiesce()
	s3 := st.Stats()
	assertLedger(t, s3)
	if s3.Refreshes != 1 || s3.FailedRefreshes != 0 {
		t.Fatalf("refresh ledger after drift: %+v", s3)
	}
	if s3.Generation != 2 {
		t.Fatalf("generation %d after refresh, want 2", s3.Generation)
	}
	if s3.LastRefreshPoints == 0 {
		t.Fatalf("refresh ledger recorded no input points: %+v", s3)
	}

	// --- Phase 3: the drifted regime is now the stable one. The refreshed
	// model absorbs it and the detector must NOT re-fire. ---
	for i := 0; i < 30; i++ {
		ingest(regB)
	}
	s4 := st.Stats()
	if s4.Refreshes != 1 {
		t.Fatalf("detector re-fired on the regime it just absorbed: %+v", s4)
	}
	if s4.OutlierRate > 0.2 {
		t.Fatalf("post-refresh outlier rate %.3f — the refreshed model does not describe the drifted regime", s4.OutlierRate)
	}

	// --- Quality recovery: fresh drifted probes through the live path vs
	// a from-scratch batch run over the drifted regime. ---
	probes := newRegime(100000, 4, 17)
	var streamAssign []int
	var probeLabels []string
	var probeQs []dataset.Transaction
	for i := 0; i < 25; i++ {
		out, labels := ingest(probes)
		streamAssign = append(streamAssign, out...)
		probeLabels = append(probeLabels, labels...)
		probeQs = append(probeQs, records[len(records)-1].qs...)
	}
	accStream := metrics.Evaluate(streamAssign, probeLabels).Accuracy

	trainB, _ := newRegime(100000, 4, 19).batch(512)
	bcfg := core.Config{Theta: soakTheta, K: 4, Seed: 3, Workers: workers}
	bres, err := core.Cluster(trainB, bcfg)
	if err != nil {
		t.Fatal(err)
	}
	bm, err := core.Freeze(trainB, bres, bcfg)
	if err != nil {
		t.Fatal(err)
	}
	accBatch := metrics.Evaluate(bm.AssignBatch(probeQs, 1), probeLabels).Accuracy
	const eps = 0.05
	if accStream < accBatch-eps {
		t.Fatalf("post-refresh accuracy %.4f, from-scratch batch run %.4f — recovery gap exceeds ε=%.2f", accStream, accBatch, eps)
	}
	t.Logf("quality: stream %.4f vs batch %.4f (ε=%.2f); detection delay %d points",
		accStream, accBatch, eps, s2.LastTriggerSeen-changepoint)

	// --- Partial batch: smaller than MaxBatch, it flushes on a free slot
	// during its own submit, answered exactly once. ---
	partQs, _ := regB.batch(5)
	part := st.Ingest(partQs)
	if len(part.Assignments) != len(partQs) {
		t.Fatalf("partial batch answered %d of %d queries", len(part.Assignments), len(partQs))
	}
	records = append(records, soakBatch{qs: partQs, out: part.Assignments, genBefore: 2, gen: part.Generation})

	// --- Replay: the swap-safety ledger. ---
	st.Quiesce()
	assertLedger(t, st.Stats())
	genMu.Lock()
	defer genMu.Unlock()
	total := int64(0)
	for i, rec := range records {
		total += int64(len(rec.qs))
		if rec.gen < rec.genBefore {
			t.Fatalf("batch %d answered by retired generation %d (generation %d was current at submit)", i, rec.gen, rec.genBefore)
		}
		gm := genModels[rec.gen]
		if gm == nil {
			t.Fatalf("batch %d answered by unknown generation %d", i, rec.gen)
		}
		if want := gm.AssignBatch(rec.qs, 1); !reflect.DeepEqual(want, rec.out) {
			t.Fatalf("batch %d misattributed: generation %d's model answers %v, streamer returned %v", i, rec.gen, want, rec.out)
		}
	}
	if got := st.Stats().Seen; got != total {
		t.Fatalf("streamer saw %d points, test ingested %d — points dropped or double-counted", got, total)
	}
}

// TestStreamSoakIncremental drives TWO regime changes through the
// incremental refresh path and proves the seeded re-cluster earns its
// keep: every refresh runs seeded (zero fallbacks to the full path), the
// refresh input stays bounded by the frozen model's representatives plus
// the outlier ring (instead of the whole retained reservoir), the
// outlier conservation ledger balances at every quiesce point across
// both changepoints, and the final model still serves the FIRST regime
// — the seed carries old clusters across refreshes that a from-scratch
// re-cluster over recent traffic would forget. Quality on the newest
// regime must match a from-scratch batch run within the same ε as the
// full-path soak.
func TestStreamSoakIncremental(t *testing.T) {
	for _, workers := range []int{1, 4} {
		t.Run(map[int]string{1: "workers=1", 4: "workers=4"}[workers], func(t *testing.T) {
			soakIncremental(t, workers)
		})
	}
}

func soakIncremental(t *testing.T, workers int) {
	const (
		batchSize = 16
		window    = 64
	)

	var genMu sync.Mutex
	genModels := map[uint64]*core.Model{}

	regA := newRegime(0, 4, 11)
	m := freezeRegime(t, regA, 400, 4, workers)
	st, err := New(m, Config{
		Cluster:            core.Config{Theta: soakTheta, K: 8, Seed: 5, Workers: workers},
		Serve:              serve.Config{MaxBatch: batchSize, Workers: workers},
		RefreshThreshold:   0.5,
		Window:             window,
		Warmup:             window,
		MinRefreshOutliers: 48,
		OutlierBuffer:      256,
		RetainSample:       256,
		Incremental:        true,
		Seed:               7,
		Clock:              vclock.NewFake(time.Unix(0, 0)),
		OnSwap: func(gen uint64, m *core.Model) {
			genMu.Lock()
			genModels[gen] = m
			genMu.Unlock()
		},
	})
	if err != nil {
		t.Fatal(err)
	}

	var records []soakBatch
	ingest := func(g *regimeGen) ([]int, []string) {
		qs, labels := g.batch(batchSize)
		genBefore := st.Generation()
		res := st.Ingest(qs)
		if len(res.Assignments) != len(qs) {
			t.Fatalf("ingest dropped points: %d answers for %d queries", len(res.Assignments), len(qs))
		}
		records = append(records, soakBatch{qs: qs, out: res.Assignments, genBefore: genBefore, gen: res.Generation})
		return res.Assignments, labels
	}
	// driftUntil pushes a drifted regime until the detector fires, then
	// quiesces and checks the refresh landed incrementally with the
	// ledger balanced. Returns the refresh-input bound check input.
	driftUntil := func(g *regimeGen, wantRefreshes int64, wantGen uint64) Stats {
		changepoint := st.Stats().Seen
		// Bound on the NEXT refresh's input: the seed model's labeled
		// representatives plus at most a full outlier ring.
		inputBound := st.srv.Model().LabeledPoints() + 256
		triggered := false
		for i := 0; i < 4*window/batchSize && !triggered; i++ {
			ingest(g)
			triggered = st.Stats().LastTriggerSeen > changepoint
		}
		if !triggered {
			t.Fatalf("drift detector never fired within %d points of changepoint %d", 4*window, changepoint)
		}
		for i := 0; i < 6; i++ {
			ingest(g) // traffic crossing the swap boundary
		}
		st.Quiesce()
		s := st.Stats()
		assertLedger(t, s)
		if s.Refreshes != wantRefreshes || s.FailedRefreshes != 0 {
			t.Fatalf("refresh ledger: %+v, want %d refreshes", s, wantRefreshes)
		}
		if !s.LastRefreshIncremental || s.IncrementalFallbacks != 0 {
			t.Fatalf("refresh fell back to the full path: %+v", s)
		}
		if s.Generation != wantGen {
			t.Fatalf("generation %d, want %d", s.Generation, wantGen)
		}
		if s.LastRefreshPoints > inputBound {
			t.Fatalf("incremental refresh input %d exceeds seed+ring bound %d — it re-clustered the reservoir", s.LastRefreshPoints, inputBound)
		}
		return s
	}

	// Stable regime A, then two successive regime changes, each absorbed
	// by a seeded refresh: gen 1 → 2 → 3.
	for i := 0; i < 30; i++ {
		ingest(regA)
	}
	if s := st.Stats(); s.Refreshes != 0 || s.Generation != 1 {
		t.Fatalf("stable phase: %+v", s)
	}
	regB := newRegime(100000, 4, 13)
	driftUntil(regB, 1, 2)
	for i := 0; i < 20; i++ {
		ingest(regB) // B is the stable regime now; detector must settle
	}
	regC := newRegime(200000, 4, 23)
	s := driftUntil(regC, 2, 3)
	if s.Refreshes != 2 {
		t.Fatalf("second regime change not absorbed: %+v", s)
	}

	// Quality on the newest regime: live path vs from-scratch batch run.
	probes := newRegime(200000, 4, 17)
	var streamAssign []int
	var probeLabels []string
	var probeQs []dataset.Transaction
	for i := 0; i < 25; i++ {
		out, labels := ingest(probes)
		streamAssign = append(streamAssign, out...)
		probeLabels = append(probeLabels, labels...)
		probeQs = append(probeQs, records[len(records)-1].qs...)
	}
	accStream := metrics.Evaluate(streamAssign, probeLabels).Accuracy

	trainC, _ := newRegime(200000, 4, 19).batch(512)
	bcfg := core.Config{Theta: soakTheta, K: 4, Seed: 3, Workers: workers}
	bres, err := core.Cluster(trainC, bcfg)
	if err != nil {
		t.Fatal(err)
	}
	bm, err := core.Freeze(trainC, bres, bcfg)
	if err != nil {
		t.Fatal(err)
	}
	accBatch := metrics.Evaluate(bm.AssignBatch(probeQs, 1), probeLabels).Accuracy
	const eps = 0.05
	if accStream < accBatch-eps {
		t.Fatalf("post-swap accuracy %.4f, from-scratch batch run %.4f — gap exceeds ε=%.2f", accStream, accBatch, eps)
	}

	// Memory: the generation-3 model was seeded from generation 2, which
	// was seeded from generation 1 — regime A's clusters survived two
	// refreshes it never appeared in. A from-scratch re-cluster over the
	// refresh window would have forgotten A entirely.
	aProbes, _ := newRegime(0, 4, 29).batch(64)
	res := st.Ingest(aProbes)
	records = append(records, soakBatch{qs: aProbes, out: res.Assignments, genBefore: 3, gen: res.Generation})
	placed := 0
	for _, ci := range res.Assignments {
		if ci >= 0 {
			placed++
		}
	}
	if placed < 48 {
		t.Fatalf("generation 3 placed only %d/64 regime-A probes — the seed lost the original clusters", placed)
	}
	t.Logf("quality: stream %.4f vs batch %.4f; regime-A memory %d/64 placed", accStream, accBatch, placed)

	// Replay: swap safety across both changepoints.
	st.Quiesce()
	assertLedger(t, st.Stats())
	genMu.Lock()
	defer genMu.Unlock()
	total := int64(0)
	for i, rec := range records {
		total += int64(len(rec.qs))
		if rec.gen < rec.genBefore {
			t.Fatalf("batch %d answered by retired generation %d (generation %d was current at submit)", i, rec.gen, rec.genBefore)
		}
		gm := genModels[rec.gen]
		if gm == nil {
			t.Fatalf("batch %d answered by unknown generation %d", i, rec.gen)
		}
		if want := gm.AssignBatch(rec.qs, 1); !reflect.DeepEqual(want, rec.out) {
			t.Fatalf("batch %d misattributed: generation %d's model answers %v, streamer returned %v", i, rec.gen, want, rec.out)
		}
	}
	if got := st.Stats().Seen; got != total {
		t.Fatalf("streamer saw %d points, test ingested %d — points dropped or double-counted", got, total)
	}
}
