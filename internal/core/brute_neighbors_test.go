package core

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"github.com/rockclust/rock/internal/dataset"
	"github.com/rockclust/rock/internal/similarity"
)

// writeResultBytes serializes a run the way WriteResult does, failing the
// test on error.
func writeResultBytes(t *testing.T, res *Result) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := WriteResult(&buf, res); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// For the built-in measures at θ > 0 the inverted index is exact, so
// Config.BruteNeighbors must not change a single output byte of Cluster
// or ClusterSeeded, with or without sampling, pruning and labeling.
func TestBruteNeighborsMatchesIndex(t *testing.T) {
	r := rand.New(rand.NewSource(61))
	measures := []struct {
		name string
		fn   similarity.Measure
	}{
		{"jaccard", nil},
		{"dice", similarity.Dice},
		{"cosine", similarity.Cosine},
		{"overlap", similarity.Overlap},
	}
	for _, theta := range []float64{0.1, 0.3, 0.5, 0.7, 0.9} {
		for mi, m := range measures {
			ts := randomTransactionsCore(r, 160, 7, 24)
			cfg := Config{Theta: theta, K: 4, Measure: m.fn, Seed: r.Int63()}
			if mi%2 == 1 {
				cfg.SampleSize, cfg.MinNeighbors, cfg.LabelOutliers = 110, 1, true
			}
			seed := [][]int{{0, 1, 2}, {3, 4}}
			for _, run := range []struct {
				name string
				fn   func(Config) (*Result, error)
			}{
				{"Cluster", func(c Config) (*Result, error) { return Cluster(ts, c) }},
				{"ClusterSeeded", func(c Config) (*Result, error) {
					c.SampleSize = 0
					return ClusterSeeded(ts, seed, c)
				}},
			} {
				label := fmt.Sprintf("%s θ=%g %s", run.name, theta, m.name)
				indexed, err := run.fn(cfg)
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				bruteCfg := cfg
				bruteCfg.BruteNeighbors = true
				brute, err := run.fn(bruteCfg)
				if err != nil {
					t.Fatalf("%s brute: %v", label, err)
				}
				if !bytes.Equal(writeResultBytes(t, indexed), writeResultBytes(t, brute)) {
					t.Fatalf("%s: BruteNeighbors changed the result bytes", label)
				}
			}
		}
	}
}

// BruteNeighbors exists for custom measures that are positive on
// disjoint transactions: the index only examines pairs sharing an item,
// so it misses those neighbors while the brute-force scan finds them.
func TestBruteNeighborsFindsDisjointNeighbors(t *testing.T) {
	// Ten transactions of three items each, pairwise disjoint.
	ts := make([]dataset.Transaction, 10)
	for i := range ts {
		ts[i] = dataset.NewTransaction(dataset.Item(3*i), dataset.Item(3*i+1), dataset.Item(3*i+2))
	}
	// customLabelMeasure scores equal-length transactions 1 whatever
	// they share, so every pair here is a θ-neighbor.
	cfg := Config{Theta: 0.5, K: 2, Measure: customLabelMeasure}
	for _, run := range []struct {
		name string
		fn   func(Config) (*Result, error)
	}{
		{"Cluster", func(c Config) (*Result, error) { return Cluster(ts, c) }},
		{"ClusterSeeded", func(c Config) (*Result, error) { return ClusterSeeded(ts, [][]int{{0, 1}}, c) }},
	} {
		indexed, err := run.fn(cfg)
		if err != nil {
			t.Fatal(err)
		}
		bruteCfg := cfg
		bruteCfg.BruteNeighbors = true
		brute, err := run.fn(bruteCfg)
		if err != nil {
			t.Fatal(err)
		}
		if indexed.Stats.MaxNeighbors != 0 || indexed.Stats.LinkPairs != 0 {
			t.Fatalf("%s: index found neighbors among disjoint transactions: %+v", run.name, indexed.Stats)
		}
		if brute.Stats.MaxNeighbors != len(ts)-1 || brute.Stats.LinkPairs == 0 {
			t.Fatalf("%s: brute force missed the disjoint neighbors: %+v", run.name, brute.Stats)
		}
		if brute.K() >= indexed.K() {
			t.Fatalf("%s: brute force merged no further (%d clusters) than the index (%d)", run.name, brute.K(), indexed.K())
		}
	}
}
