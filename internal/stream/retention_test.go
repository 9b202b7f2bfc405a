package stream

import (
	"testing"
	"time"

	"github.com/rockclust/rock/internal/core"
	"github.com/rockclust/rock/internal/vclock"
)

// assertLedger checks the outlier conservation identity the Stats doc
// promises: with no refresh in flight, every parked point is in exactly
// one bucket — in the ring, consumed by a refresh, re-admitted, or
// dropped. A leak here is the silent-loss bug this ledger exists to
// prevent.
func assertLedger(t *testing.T, s Stats) {
	t.Helper()
	if s.Refreshing {
		t.Fatalf("ledger checked mid-refresh: %+v", s)
	}
	if s.Outliers != s.RefreshedOutliers+s.ReadmittedOutliers+int64(s.PendingOutliers)+s.DroppedOutliers {
		t.Fatalf("outlier ledger leaks points: %d parked != %d refreshed + %d readmitted + %d pending + %d dropped",
			s.Outliers, s.RefreshedOutliers, s.ReadmittedOutliers, s.PendingOutliers, s.DroppedOutliers)
	}
}

// TestOutlierRetentionAcrossRefresh is the regression test for the
// refresh-window loss bug: points parked WHILE a refresh runs used to be
// wiped with the whole ring at swap time, uncounted. The test holds a
// refresh at the gate, parks 40 more points against a 32-slot ring, then
// releases and proves every one of the 64 parked points is accounted
// for: the 24 snapshotted ones entered the refreshed model (including
// those the full ring evicted mid-refresh — eviction consumes the
// snapshot prefix first, so those were NOT lost), the refresh-window
// parks re-admit through the new generation's θ-test, and only the 8
// evictions past the snapshot — points that never reached any model —
// count as dropped. Runs in both refresh modes; the coalescer must also
// record the mid-refresh trigger exactly once.
func TestOutlierRetentionAcrossRefresh(t *testing.T) {
	for name, incremental := range map[string]bool{"full": false, "incremental": true} {
		t.Run(name, func(t *testing.T) {
			g := newRegime(0, 4, 11)
			m := freezeRegime(t, g, 200, 4, 1)
			st, err := New(m, Config{
				Cluster:            core.Config{Theta: soakTheta, K: 6, Seed: 5},
				Window:             16,
				Warmup:             16,
				MinRefreshOutliers: 16,
				OutlierBuffer:      32,
				RetainSample:       64,
				Incremental:        incremental,
				Clock:              vclock.NewFake(time.Unix(0, 0)),
			})
			if err != nil {
				t.Fatal(err)
			}
			gate := make(chan struct{})
			st.gateRefresh = gate
			st.refreshEntered = make(chan struct{}, 4)

			// Warm the estimator with admitted points, then trigger on 24
			// parked outliers: the refresh snapshots a ring cut of 24.
			warm, _ := g.batch(32)
			st.Ingest(warm)
			regB := newRegime(100000, 2, 9)
			bts, _ := regB.batch(24)
			st.Ingest(bts)
			<-st.refreshEntered // the refresh holds at the gate, snapshot taken

			pre := st.Stats()
			if !pre.Refreshing || pre.PendingOutliers < 24 || pre.DroppedOutliers != 0 {
				t.Fatalf("pre-refresh state: %+v", pre)
			}
			cut := pre.PendingOutliers // snapshotted ring prefix (24 B + any warm parks)

			// Park 40 more mid-refresh. The 32-slot ring fills cut→32, then
			// drop-oldest evictions consume the whole snapshot prefix plus
			// 8 of the newcomers.
			mid, _ := regB.batch(40)
			st.Ingest(mid)
			held := st.Stats()
			if held.PendingOutliers != 32 || held.DroppedOutliers != int64(cut)+8 {
				t.Fatalf("mid-refresh ring state: %+v, want 32 pending / %d dropped", held, cut+8)
			}
			if held.CoalescedTriggers != 1 || !held.PendingRefresh {
				t.Fatalf("mid-refresh trigger not coalesced exactly once: %+v", held)
			}

			close(gate)
			st.Quiesce()
			s := st.Stats()
			assertLedger(t, s)
			if s.Refreshes < 1 || s.FailedRefreshes != 0 || s.LastRefreshError != "" {
				t.Fatalf("refresh ledger: %+v", s)
			}
			if s.LastRefreshIncremental != incremental || s.IncrementalFallbacks != 0 {
				t.Fatalf("refresh mode: %+v, want incremental=%v", s, incremental)
			}
			// The snapshot's points reached the refreshed model: their
			// mid-refresh evictions must have been reversed, leaving
			// exactly the 8 post-snapshot evictions lost.
			if s.DroppedOutliers != 8 {
				t.Fatalf("dropped %d, want 8 (only evictions that never reached a model)", s.DroppedOutliers)
			}
			if s.RefreshedOutliers < int64(cut) {
				t.Fatalf("refreshed outliers %d, want >= the %d snapshotted", s.RefreshedOutliers, cut)
			}
			// All 32 refresh-window survivors re-admitted, re-parked, or
			// consumed by the coalesced follow-up refresh — none vanished.
			accounted := s.ReadmittedOutliers + int64(s.PendingOutliers) + (s.RefreshedOutliers - int64(cut))
			if accounted != 32 {
				t.Fatalf("refresh-window survivors unaccounted: %+v", s)
			}
			if s.PendingRefresh {
				t.Fatalf("pending-refresh flag stuck: %+v", s)
			}
			// The refreshed generation must actually describe regime B now.
			probe, _ := regB.batch(32)
			res := st.Ingest(probe)
			placed := 0
			for _, ci := range res.Assignments {
				if ci >= 0 {
					placed++
				}
			}
			if placed < 24 {
				t.Fatalf("refreshed model placed only %d/32 regime-B probes", placed)
			}
			t.Logf("%s: refreshed=%d readmitted=%d pending=%d dropped=%d coalesced=%d refreshes=%d",
				name, s.RefreshedOutliers, s.ReadmittedOutliers, s.PendingOutliers, s.DroppedOutliers, s.CoalescedTriggers, s.Refreshes)
		})
	}
}

// TestRefreshCoalescerRunsFollowUp proves a trigger landing mid-refresh
// is not absorbed: when the re-parked remainder still clears the refresh
// floor after the first swap, exactly one follow-up refresh runs over it.
func TestRefreshCoalescerRunsFollowUp(t *testing.T) {
	g := newRegime(0, 4, 11)
	m := freezeRegime(t, g, 200, 4, 1)
	st, err := New(m, Config{
		Cluster:            core.Config{Theta: soakTheta, K: 6, Seed: 5},
		Window:             16,
		Warmup:             16,
		MinRefreshOutliers: 16,
		OutlierBuffer:      256,
		RetainSample:       64,
		Incremental:        true,
		Clock:              vclock.NewFake(time.Unix(0, 0)),
	})
	if err != nil {
		t.Fatal(err)
	}
	gate := make(chan struct{})
	st.gateRefresh = gate
	st.refreshEntered = make(chan struct{}, 4)

	warm, _ := g.batch(32)
	st.Ingest(warm)
	regB := newRegime(100000, 2, 9)
	bts, _ := regB.batch(24)
	st.Ingest(bts)
	<-st.refreshEntered

	// A THIRD regime parks mid-refresh: the first refresh cannot know
	// these points, they fail the second generation's θ-test too, and
	// the queued follow-up must re-cluster them into generation 3.
	regC := newRegime(200000, 2, 13)
	cts, _ := regC.batch(48)
	st.Ingest(cts)

	close(gate)
	// Both refreshes pass the gate: drain the entered signals so neither
	// blocks on the buffered channel.
	st.Quiesce()
	s := st.Stats()
	assertLedger(t, s)
	if s.CoalescedTriggers != 1 {
		t.Fatalf("coalesced %d triggers, want 1", s.CoalescedTriggers)
	}
	if s.Refreshes != 2 || s.Generation != 3 {
		t.Fatalf("follow-up refresh did not run: %+v", s)
	}
	if s.PendingRefresh || s.Refreshing {
		t.Fatalf("refresh state stuck after follow-up: %+v", s)
	}
	// Generation 3 places the third regime.
	probe, _ := regC.batch(32)
	res := st.Ingest(probe)
	placed := 0
	for _, ci := range res.Assignments {
		if ci >= 0 {
			placed++
		}
	}
	if placed < 24 {
		t.Fatalf("follow-up refresh model placed only %d/32 regime-C probes", placed)
	}
}
