package core

import (
	"math"
	"math/rand"
	"sort"
)

// SampleIndices draws size indices uniformly without replacement from
// [0,n), returned in ascending order. If size ≥ n it returns all indices.
//
// It runs a partial Fisher–Yates shuffle over the identity permutation of
// [0,n) without materializing it: only positions a swap has displaced are
// stored, so memory is O(size) however large n is.
func SampleIndices(n, size int, rng *rand.Rand) []int {
	if size >= n {
		size = n
	}
	out := make([]int, size)
	// displaced[j] is perm[j] for every position a swap has written;
	// other positions still hold their identity value j.
	displaced := make(map[int]int, size)
	at := func(j int) int {
		if v, ok := displaced[j]; ok {
			return v
		}
		return j
	}
	// The first `size` entries of the shuffled permutation are a uniform
	// sample; position i is never read again once drawn.
	for i := 0; i < size; i++ {
		j := i + rng.Intn(n-i)
		out[i] = at(j)
		displaced[j] = at(i)
	}
	sort.Ints(out)
	return out
}

// ChernoffSampleSize returns the minimum random-sample size s such that,
// with probability at least 1−delta, the sample contains at least
// frac·|u| points of a cluster u with clusterSize points out of N total —
// the bound ROCK inherits from CURE for sizing its clustering sample:
//
//	s ≥ frac·N + (N/|u|)·log(1/δ) + (N/|u|)·√(log²(1/δ) + 2·frac·|u|·log(1/δ))
//
// The result is capped at N.
func ChernoffSampleSize(n, clusterSize int, frac, delta float64) int {
	if n <= 0 || clusterSize <= 0 {
		return 0
	}
	if delta <= 0 || delta >= 1 {
		return n
	}
	nf := float64(n)
	u := float64(clusterSize)
	l := math.Log(1 / delta)
	s := frac*nf + nf/u*l + nf/u*math.Sqrt(l*l+2*frac*u*l)
	size := int(math.Ceil(s))
	if size > n {
		size = n
	}
	if size < 0 {
		size = 0
	}
	return size
}
