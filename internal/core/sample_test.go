package core

import (
	"math/rand"
	"slices"
	"sort"
	"testing"
)

func TestSampleIndices(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	s := SampleIndices(100, 30, rng)
	if len(s) != 30 {
		t.Fatalf("len = %d", len(s))
	}
	seen := map[int]bool{}
	for i, v := range s {
		if v < 0 || v >= 100 {
			t.Fatalf("out of range: %d", v)
		}
		if seen[v] {
			t.Fatalf("duplicate %d", v)
		}
		seen[v] = true
		if i > 0 && s[i-1] >= v {
			t.Fatal("not ascending")
		}
	}
}

func TestSampleIndicesWholeSet(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	s := SampleIndices(5, 99, rng)
	if len(s) != 5 {
		t.Fatalf("len = %d, want 5", len(s))
	}
	for i, v := range s {
		if v != i {
			t.Fatalf("s = %v, want identity", s)
		}
	}
}

func TestSampleIndicesDeterministicPerSeed(t *testing.T) {
	a := SampleIndices(1000, 100, rand.New(rand.NewSource(7)))
	b := SampleIndices(1000, 100, rand.New(rand.NewSource(7)))
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("same seed produced different samples")
		}
	}
}

// Coarse uniformity check: across many draws, every index should be
// sampled with frequency near size/n.
func TestSampleIndicesRoughlyUniform(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	const n, size, reps = 50, 10, 4000
	counts := make([]int, n)
	for r := 0; r < reps; r++ {
		for _, v := range SampleIndices(n, size, rng) {
			counts[v]++
		}
	}
	want := float64(size) / float64(n) * reps // 800
	for i, c := range counts {
		if float64(c) < want*0.8 || float64(c) > want*1.2 {
			t.Fatalf("index %d drawn %d times, want ≈ %.0f", i, c, want)
		}
	}
}

func TestChernoffSampleSize(t *testing.T) {
	// The bound must shrink as the smallest cluster grows...
	small := ChernoffSampleSize(10000, 100, 0.5, 0.01)
	big := ChernoffSampleSize(10000, 2000, 0.5, 0.01)
	if big >= small {
		t.Fatalf("bound not decreasing in cluster size: %d vs %d", small, big)
	}
	// ...grow with the required fraction...
	lo := ChernoffSampleSize(10000, 500, 0.1, 0.01)
	hi := ChernoffSampleSize(10000, 500, 0.9, 0.01)
	if hi <= lo {
		t.Fatalf("bound not increasing in fraction: %d vs %d", lo, hi)
	}
	// ...and grow as delta shrinks.
	loose := ChernoffSampleSize(10000, 500, 0.5, 0.1)
	tight := ChernoffSampleSize(10000, 500, 0.5, 0.001)
	if tight <= loose {
		t.Fatalf("bound not increasing in confidence: %d vs %d", loose, tight)
	}
	// Cap and degenerate cases.
	if got := ChernoffSampleSize(100, 5, 0.99, 0.0001); got != 100 {
		t.Fatalf("uncappable bound should clamp to n, got %d", got)
	}
	if ChernoffSampleSize(0, 10, 0.5, 0.01) != 0 || ChernoffSampleSize(10, 0, 0.5, 0.01) != 0 {
		t.Fatal("degenerate inputs should give 0")
	}
	if ChernoffSampleSize(100, 10, 0.5, 0) != 100 {
		t.Fatal("delta=0 should demand the full dataset")
	}
	// Sanity: the bound is at least the expected count frac·u scaled up.
	if got := ChernoffSampleSize(1000, 100, 0.5, 0.05); got < 500 {
		t.Fatalf("bound %d implausibly small", got)
	}
}

// sampleIndicesDense is the partial Fisher–Yates shuffle over a
// materialized permutation of [0,n): the oracle SampleIndices must match
// draw for draw.
func sampleIndicesDense(n, size int, rng *rand.Rand) []int {
	if size >= n {
		size = n
	}
	perm := make([]int, n)
	for i := range perm {
		perm[i] = i
	}
	for i := 0; i < size; i++ {
		j := i + rng.Intn(n-i)
		perm[i], perm[j] = perm[j], perm[i]
	}
	out := perm[:size]
	sort.Ints(out)
	return out
}

// TestSampleIndicesMatchesDense checks the sparse shuffle against the
// dense oracle across n, size and seeds: identical samples, and the same
// number of draws, so a caller's rng continues identically afterwards.
func TestSampleIndicesMatchesDense(t *testing.T) {
	ns := []int{0, 1, 2, 3, 7, 50, 1000, 20000}
	for _, n := range ns {
		for _, size := range []int{0, 1, 2, n / 3, n / 2, n - 1, n, n + 5} {
			if size < 0 {
				continue
			}
			for seed := int64(1); seed <= 4; seed++ {
				ra, rb := rand.New(rand.NewSource(seed)), rand.New(rand.NewSource(seed))
				got, want := SampleIndices(n, size, ra), sampleIndicesDense(n, size, rb)
				if !slices.Equal(got, want) {
					t.Fatalf("n=%d size=%d seed=%d: got %v, want %v", n, size, seed, got, want)
				}
				if ra.Int63() != rb.Int63() {
					t.Fatalf("n=%d size=%d seed=%d: rng streams diverged after the draw", n, size, seed)
				}
			}
		}
	}
}
