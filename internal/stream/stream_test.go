package stream

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"github.com/rockclust/rock/internal/core"
	"github.com/rockclust/rock/internal/dataset"
	"github.com/rockclust/rock/internal/vclock"
)

// regimeGen draws market-basket transactions from per-template item
// pools: template g owns the raw ids [base+64g, base+64g+width), so
// templates are mutually disjoint and two regimes with different bases
// share no items at all — a point of one regime can never be a θ-neighbor
// of the other's, which is what makes the synthetic changepoint crisp.
// Deterministic given its seed.
type regimeGen struct {
	base, templates, width, size int
	rng                          *rand.Rand
}

func newRegime(base, templates int, seed int64) *regimeGen {
	return &regimeGen{base: base, templates: templates, width: 12, size: 8, rng: rand.New(rand.NewSource(seed))}
}

// batch draws n transactions with their generator labels.
func (g *regimeGen) batch(n int) ([]dataset.Transaction, []string) {
	ts := make([]dataset.Transaction, n)
	labels := make([]string, n)
	for i := range ts {
		tpl := g.rng.Intn(g.templates)
		items := make([]dataset.Item, 0, g.size)
		for len(items) < g.size {
			items = append(items, dataset.Item(g.base+tpl*64+g.rng.Intn(g.width)))
		}
		ts[i] = dataset.NewTransaction(items...)
		labels[i] = fmt.Sprintf("b%d-t%d", g.base, tpl)
	}
	return ts, labels
}

// soakTheta is the neighbor threshold every streaming test clusters and
// freezes with: same-template points sit around Jaccard ≈ 0.5, cross
// template at exactly 0.
const soakTheta = 0.35

// freezeRegime clusters n points of the regime and freezes the result —
// the initial model of a streaming test.
func freezeRegime(t testing.TB, g *regimeGen, n, k, workers int) *core.Model {
	t.Helper()
	ts, _ := g.batch(n)
	cfg := core.Config{Theta: soakTheta, K: k, Seed: 1, Workers: workers}
	res, err := core.Cluster(ts, cfg)
	if err != nil {
		t.Fatal(err)
	}
	m, err := core.Freeze(ts, res, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// TestIngestMatchesModel pins the admission θ-test: whatever the batcher
// and workers do, Ingest must return exactly what the pinned generation's
// AssignBatch computes, and must count admitted vs parked correctly.
func TestIngestMatchesModel(t *testing.T) {
	g := newRegime(0, 4, 11)
	m := freezeRegime(t, g, 200, 4, 1)
	st, err := New(m, Config{Clock: vclock.NewFake(time.Unix(0, 0))})
	if err != nil {
		t.Fatal(err)
	}

	in, _ := g.batch(30)
	other, _ := newRegime(50000, 2, 3).batch(10) // disjoint ids: all outliers
	in = append(in, other...)
	want := m.AssignBatch(in, 1)

	res := st.Ingest(in)
	if !reflect.DeepEqual(res.Assignments, want) {
		t.Fatalf("ingest answered %v, model says %v", res.Assignments, want)
	}
	if res.Generation != 1 {
		t.Fatalf("generation %d at startup", res.Generation)
	}
	stats := st.Stats()
	outliers := 0
	for _, ci := range want {
		if ci < 0 {
			outliers++
		}
	}
	if stats.Seen != 40 || stats.Outliers != int64(outliers) || stats.Assigned != int64(40-outliers) {
		t.Fatalf("counters: %+v (want %d outliers of 40)", stats, outliers)
	}
	if stats.PendingOutliers != outliers {
		t.Fatalf("parked %d, want %d", stats.PendingOutliers, outliers)
	}
	if empty := st.Ingest(nil); len(empty.Assignments) != 0 || empty.Generation != 1 {
		t.Fatalf("empty ingest: %+v", empty)
	}
}

// TestOutlierRingBounds proves the parked-outlier buffer is bounded: past
// capacity, the oldest parked point is dropped and counted, never an
// unbounded slice.
func TestOutlierRingBounds(t *testing.T) {
	g := newRegime(0, 4, 11)
	m := freezeRegime(t, g, 200, 4, 1)
	st, err := New(m, Config{OutlierBuffer: 4, RefreshThreshold: 2, Clock: vclock.NewFake(time.Unix(0, 0))})
	if err != nil {
		t.Fatal(err)
	}
	out, _ := newRegime(50000, 2, 3).batch(7) // all outliers
	st.Ingest(out)
	stats := st.Stats()
	if stats.PendingOutliers != 4 || stats.DroppedOutliers != 3 || stats.Outliers != 7 {
		t.Fatalf("ring state: %+v, want 4 pending / 3 dropped / 7 total", stats)
	}
	// The ring holds the NEWEST 4: refresh input must contain them, and
	// the recorded ring cut must cover exactly them.
	st.mu.Lock()
	in := st.refreshInputLocked()
	st.mu.Unlock()
	if len(in.outliers) != 4 || in.cutLen != 4 {
		t.Fatalf("refresh input snapshotted %d outliers (cut %d), want the 4 retained", len(in.outliers), in.cutLen)
	}
	for i, tx := range in.outliers {
		if !tx.Equal(out[3+i]) {
			t.Fatalf("ring slot %d holds the wrong point (want newest-4 in arrival order)", i)
		}
	}
}

// TestIngestNames proves name translation through the streamer-owned
// vocabulary: known names map to the frozen ids, unknown names intern
// permanently (the same name maps to the same fresh id across calls),
// and a vocabless model rejects names.
func TestIngestNames(t *testing.T) {
	// A vocab model: items i0..i? from the regime generator interned in a
	// dataset, clustered and frozen with FreezeDataset.
	g := newRegime(0, 2, 11)
	ts, _ := g.batch(120)
	v := dataset.NewVocabulary()
	d := &dataset.Dataset{Vocab: v}
	for _, tx := range ts {
		items := make([]dataset.Item, len(tx))
		for i, it := range tx {
			items[i] = v.Intern(fmt.Sprintf("i%d", it))
		}
		d.Trans = append(d.Trans, dataset.NewTransaction(items...))
	}
	cfg := core.Config{Theta: soakTheta, K: 2, Seed: 1}
	res, err := core.Cluster(d.Trans, cfg)
	if err != nil {
		t.Fatal(err)
	}
	m, err := core.FreezeDataset(d, res, cfg)
	if err != nil {
		t.Fatal(err)
	}

	st, err := New(m, Config{RefreshThreshold: 2, Clock: vclock.NewFake(time.Unix(0, 0))})
	if err != nil {
		t.Fatal(err)
	}
	// Known names answer like AssignDataset; unknown names dilute.
	known := make([]string, 0, 8)
	for _, it := range d.Trans[0] {
		known = append(known, v.Name(it))
	}
	res1, err := st.IngestNames([][]string{known, {"never-seen", "also-new"}})
	if err != nil {
		t.Fatal(err)
	}
	if res1.Assignments[0] < 0 {
		t.Fatalf("a frozen point's own items answered outlier: %v", res1.Assignments)
	}
	if res1.Assignments[1] != -1 {
		t.Fatalf("unknown-only query assigned %d, want -1", res1.Assignments[1])
	}
	// Interned ids are stable: the same unknown name twice is one id.
	st.mu.Lock()
	id1, ok1 := st.byName["never-seen"]
	n1 := len(st.names)
	st.mu.Unlock()
	if !ok1 {
		t.Fatal("unknown name was not interned")
	}
	if _, err := st.IngestNames([][]string{{"never-seen"}}); err != nil {
		t.Fatal(err)
	}
	st.mu.Lock()
	id2 := st.byName["never-seen"]
	n2 := len(st.names)
	st.mu.Unlock()
	if id1 != id2 || n1 != n2 {
		t.Fatalf("re-ingesting a known-unknown name re-interned it: id %d→%d, vocab %d→%d", id1, id2, n1, n2)
	}

	// Raw-id model: names rejected.
	raw, err := New(freezeRegime(t, newRegime(0, 2, 11), 100, 2, 1), Config{Clock: vclock.NewFake(time.Unix(0, 0))})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := raw.IngestNames([][]string{{"milk"}}); err == nil {
		t.Fatal("vocabless streamer accepted item names")
	}
}

// TestRefreshUsesLSH proves the refresh honors the LSH escape hatch for
// large buffers: with LSHAbove forced to 1, the background re-cluster
// runs the LSH neighbor path and still produces a model that places the
// drifted points.
func TestRefreshUsesLSH(t *testing.T) {
	g := newRegime(0, 2, 11)
	m := freezeRegime(t, g, 200, 2, 1)
	st, err := New(m, Config{
		Cluster:            core.Config{Theta: soakTheta, K: 4, Seed: 5},
		Window:             16,
		Warmup:             16,
		MinRefreshOutliers: 16,
		RetainSample:       64,
		LSHAbove:           1,
		Clock:              vclock.NewFake(time.Unix(0, 0)),
	})
	if err != nil {
		t.Fatal(err)
	}
	// Warm the estimator with admitted points, then drift hard.
	warm, _ := g.batch(64)
	st.Ingest(warm)
	drift := newRegime(70000, 2, 9)
	dts, _ := drift.batch(64)
	st.Ingest(dts)
	st.Quiesce()

	stats := st.Stats()
	if stats.Refreshes != 1 || stats.FailedRefreshes != 0 {
		t.Fatalf("refresh ledger: %+v", stats)
	}
	if !stats.LastRefreshLSH {
		t.Fatal("refresh did not take the LSH neighbor path despite LSHAbove=1")
	}
	if stats.Generation != 2 {
		t.Fatalf("generation %d after refresh", stats.Generation)
	}
	probe, _ := drift.batch(32)
	res := st.Ingest(probe)
	placed := 0
	for _, ci := range res.Assignments {
		if ci >= 0 {
			placed++
		}
	}
	if placed < 28 {
		t.Fatalf("refreshed model placed only %d/32 drifted probes", placed)
	}
}

// TestRefreshFailureKeepsServing proves a refresh that cannot produce a
// model (here: every refresh input point pruned as a link-outlier, so
// there is nothing to freeze) counts a failure, keeps the old generation
// serving, and re-arms the detector instead of hot-looping.
func TestRefreshFailureKeepsServing(t *testing.T) {
	g := newRegime(0, 2, 11)
	m := freezeRegime(t, g, 200, 2, 1)
	st, err := New(m, Config{
		// MinNeighbors beyond any neighbor count: the refresh run prunes
		// every point, clusters nothing, and Freeze must reject.
		Cluster:            core.Config{Theta: soakTheta, K: 4, Seed: 5, MinNeighbors: 1 << 20},
		Window:             16,
		Warmup:             16,
		MinRefreshOutliers: 8,
		RetainSample:       32,
		Clock:              vclock.NewFake(time.Unix(0, 0)),
	})
	if err != nil {
		t.Fatal(err)
	}
	warm, _ := g.batch(32)
	st.Ingest(warm)
	drift, _ := newRegime(70000, 2, 9).batch(48)
	st.Ingest(drift)
	st.Quiesce()

	stats := st.Stats()
	if stats.FailedRefreshes != 1 || stats.Refreshes != 0 {
		t.Fatalf("failure ledger: %+v", stats)
	}
	if stats.Generation != 1 {
		t.Fatalf("failed refresh bumped the generation to %d", stats.Generation)
	}
	// The failure still lands in the refresh ledger: cost and input size
	// are recorded alongside the error, and no follow-up stays queued.
	if stats.LastRefreshError == "" {
		t.Fatalf("failed refresh left no error in the ledger: %+v", stats)
	}
	if stats.LastRefreshPoints <= 0 {
		t.Fatalf("failed refresh recorded no input size: %+v", stats)
	}
	if stats.LastRefreshSec < 0 {
		t.Fatalf("failed refresh recorded negative cost: %+v", stats)
	}
	if stats.PendingRefresh || stats.Refreshing {
		t.Fatalf("failed refresh left the state machine armed: %+v", stats)
	}
	assertLedger(t, stats)
	// Still serving: admitted points keep answering on generation 1.
	ok, _ := g.batch(8)
	res := st.Ingest(ok)
	if res.Generation != 1 {
		t.Fatalf("post-failure generation %d", res.Generation)
	}
	// The estimator re-armed: another drift burst can trigger again (and
	// fail again) only after a fresh warmup window.
	if stats.OutlierRate != 0 {
		t.Fatalf("estimator not reset after failed refresh: %+v", stats)
	}
}
