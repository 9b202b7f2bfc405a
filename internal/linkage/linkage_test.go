package linkage

import (
	"math/rand"
	"testing"

	"github.com/rockclust/rock/internal/dataset"
	"github.com/rockclust/rock/internal/similarity"
)

func tr(items ...dataset.Item) dataset.Transaction { return dataset.NewTransaction(items...) }

// The paper's worked example: transactions over items {1..5} from one
// cluster and {1,2,6,7} from another. With θ = 0.5 and Jaccard, size-3
// subsets of {1..5} sharing two items are neighbors.
func paperTransactions() []dataset.Transaction {
	return []dataset.Transaction{
		tr(1, 2, 3), tr(1, 2, 4), tr(1, 2, 5), tr(1, 3, 4), tr(1, 3, 5), // 0-4
		tr(1, 4, 5), tr(2, 3, 4), tr(2, 3, 5), tr(2, 4, 5), tr(3, 4, 5), // 5-9
		tr(1, 2, 6), tr(1, 2, 7), tr(1, 6, 7), tr(2, 6, 7), // 10-13
	}
}

func TestLinksByHand(t *testing.T) {
	ts := []dataset.Transaction{
		tr(1, 2, 3), // 0
		tr(1, 2, 4), // 1
		tr(1, 2, 5), // 2
		tr(8, 9),    // 3 isolated
	}
	nb := similarity.Compute(ts, 0.5, similarity.Options{})
	// 0,1,2 are mutual neighbors (pairwise sim 0.5); 3 has none.
	lt := Build(nb, Options{})
	// link(0,1): common neighbors of 0 and 1 = {2} → 1.
	if got := lt.Get(0, 1); got != 1 {
		t.Fatalf("link(0,1) = %d, want 1", got)
	}
	if got := lt.Get(1, 2); got != 1 {
		t.Fatalf("link(1,2) = %d, want 1", got)
	}
	if got := lt.Get(0, 3); got != 0 {
		t.Fatalf("link(0,3) = %d, want 0", got)
	}
	if lt.Degree(3) != 0 {
		t.Fatalf("degree(3) = %d", lt.Degree(3))
	}
	if lt.Pairs() != 3 {
		t.Fatalf("pairs = %d, want 3", lt.Pairs())
	}
}

func TestSelfInclusionRaisesLinks(t *testing.T) {
	ts := []dataset.Transaction{tr(1, 2, 3), tr(1, 2, 4), tr(1, 2, 5)}
	lt := Build(similarity.Compute(ts, 0.5, similarity.Options{}), Options{})
	ltSelf := Build(similarity.Compute(ts, 0.5, similarity.Options{IncludeSelf: true}), Options{})
	// With self-inclusion, each mutually-neighboring pair gains 2 links
	// (each endpoint counts as a shared neighbor).
	if got, want := ltSelf.Get(0, 1), lt.Get(0, 1)+2; got != want {
		t.Fatalf("self-inclusive link(0,1) = %d, want %d", got, want)
	}
}

func TestPaperExampleLinksSeparateClusters(t *testing.T) {
	ts := paperTransactions()
	nb := similarity.Compute(ts, 0.5, similarity.Options{})
	lt := FromNeighbors(nb)
	// Cross-cluster pairs like ({1,2,3},{1,2,6}) have similarity 0.5 — they
	// are neighbors! — but share far fewer common neighbors than
	// within-cluster pairs. This is the paper's argument for links.
	within := lt.Get(0, 1)  // {1,2,3} vs {1,2,4}
	across := lt.Get(0, 10) // {1,2,3} vs {1,2,6}
	if across >= within {
		t.Fatalf("link across clusters (%d) not below link within (%d)", across, within)
	}
	if lt.Get(9, 13) != 0 {
		t.Fatalf("disconnected pair has links: %d", lt.Get(9, 13))
	}
}

func TestDenseMatchesFromNeighbors(t *testing.T) {
	r := rand.New(rand.NewSource(17))
	for trial := 0; trial < 15; trial++ {
		n := 10 + r.Intn(80)
		ts := make([]dataset.Transaction, n)
		for i := range ts {
			items := make([]dataset.Item, 1+r.Intn(8))
			for k := range items {
				items[k] = dataset.Item(r.Intn(20))
			}
			ts[i] = dataset.NewTransaction(items...)
		}
		theta := []float64{0.2, 0.4, 0.6}[r.Intn(3)]
		includeSelf := r.Intn(2) == 0
		nb := similarity.ComputeIndexed(ts, theta, similarity.Options{IncludeSelf: includeSelf})
		a := FromNeighbors(nb)
		b := Dense(nb)
		if !a.Equal(b) {
			t.Fatalf("trial %d (n=%d θ=%g self=%v): algorithms disagree", trial, n, theta, includeSelf)
		}
	}
}

func TestLinkSymmetryAndBound(t *testing.T) {
	r := rand.New(rand.NewSource(23))
	ts := make([]dataset.Transaction, 60)
	for i := range ts {
		items := make([]dataset.Item, 1+r.Intn(6))
		for k := range items {
			items[k] = dataset.Item(r.Intn(15))
		}
		ts[i] = dataset.NewTransaction(items...)
	}
	nb := similarity.Compute(ts, 0.3, similarity.Options{})
	lt := FromNeighbors(nb)
	for i := range ts {
		for j32, c := range lt.Adj[i] {
			j := int(j32)
			if lt.Get(j, i) != int(c) {
				t.Fatalf("asymmetric link(%d,%d)", i, j)
			}
			// link(i,j) = |nbr(i) ∩ nbr(j)| ≤ min degree.
			if int(c) > nb.Degree(i) || int(c) > nb.Degree(j) {
				t.Fatalf("link(%d,%d)=%d exceeds degrees %d,%d", i, j, c, nb.Degree(i), nb.Degree(j))
			}
		}
	}
}

func TestEqualDetectsDifferences(t *testing.T) {
	a := &Table{Adj: []map[int32]int32{{1: 2}, {0: 2}}}
	b := &Table{Adj: []map[int32]int32{{1: 2}, {0: 2}}}
	if !a.Equal(b) {
		t.Fatal("identical tables not equal")
	}
	b.Adj[0][1] = 3
	if a.Equal(b) {
		t.Fatal("differing counts reported equal")
	}
	c := &Table{Adj: []map[int32]int32{{}}}
	if a.Equal(c) {
		t.Fatal("differing sizes reported equal")
	}
}
