// Package linkage computes ROCK's link counts: link(p,q) is the number of
// common θ-neighbors of p and q. Links aggregate global information about
// the neighborhood graph — the paper's central insight is that merging by
// links is far more robust than merging by raw pairwise similarity.
//
// The paper counts links by pairs: for every point l, every pair of l's
// neighbors gains one link through l, at expected cost O(Σ_i m_i²) for
// neighbor-list sizes m_i. Build computes the same sums grouped by row,
// sharding contiguous rows across workers that count into dense scratch
// arrays. The paper's map-based pair counting and a bitset-intersection
// recount survive in this package's tests as the oracles Build is proven
// bit-identical to at every worker count.
//
// The production representation is Compact, a CSR (compressed sparse
// row) table with these invariants: rowStart is int64 and has length
// n+1, so tables index exactly past 2³¹ total entries; row i occupies
// cols/counts[rowStart[i]:rowStart[i+1]] with column indices strictly
// ascending (int32 — points per sample stay below 2³¹); the relation is
// symmetric (j in row i iff i in row j, equal counts) and irreflexive.
package linkage

import (
	"slices"

	"github.com/rockclust/rock/internal/chunkwork"
	"github.com/rockclust/rock/internal/similarity"
)

// Options configure Build.
type Options struct {
	// Workers bounds the number of goroutines counting rows; 0 means
	// GOMAXPROCS. Output is identical for every value.
	Workers int
}

// shardRows is the number of contiguous rows one worker claims at a time.
const shardRows = 128

// Build computes the link table of nb by sharded row-wise pair counting,
// assembling the CSR Compact the agglomeration engine consumes directly,
// with no intermediate maps.
//
// The identity it exploits: link(i,j) = |{l : i ∈ N(l) ∧ j ∈ N(l)}|, the
// paper's pair-counting total regrouped by row. For row i a worker walks
// every list that contains i (via a precomputed transpose of the neighbor
// lists, so the result is exact even for asymmetric lists) and
// accumulates counts in a dense scratch array — array increments instead
// of map inserts. Workers claim shards of shardRows contiguous rows and
// each shard writes only its own output slot; shards are concatenated in
// order, so the table is deterministic and independent of the worker
// count. Inputs of at most one shard run on the calling goroutine.
func Build(nb *similarity.Neighbors, opts Options) *Compact {
	n := nb.Len()
	if n == 0 {
		return &Compact{rowStart: make([]int64, 1)}
	}

	// Transpose the neighbor relation: revCols[revStart[i]:revStart[i+1]]
	// lists every l with i ∈ N(l), ascending (rows are filled in l order).
	// For the symmetric built-in measures this equals N(i); building it
	// costs O(E) and keeps the builder exact for any list structure.
	revStart := make([]int32, n+1)
	for _, list := range nb.Lists {
		for _, j := range list {
			revStart[j+1]++
		}
	}
	for i := 0; i < n; i++ {
		revStart[i+1] += revStart[i]
	}
	revCols := make([]int32, revStart[n])
	pos := make([]int32, n)
	copy(pos, revStart[:n])
	for l, list := range nb.Lists {
		for _, j := range list {
			revCols[pos[j]] = int32(l)
			pos[j]++
		}
	}

	numShards := (n + shardRows - 1) / shardRows
	shardCols := make([][]int32, numShards)
	shardCounts := make([][]int32, numShards)
	rowLen := make([]int32, n)
	chunkwork.Run(n, opts.Workers, shardRows, func(next func() (int, int, bool)) {
		counts := make([]int32, n)
		touched := make([]int32, 0, 512)
		for lo, hi, ok := next(); ok; lo, hi, ok = next() {
			var cols, cnts []int32
			for i := lo; i < hi; i++ {
				for _, l := range revCols[revStart[i]:revStart[i+1]] {
					for _, j := range nb.Lists[l] {
						if int(j) == i {
							continue
						}
						if counts[j] == 0 {
							touched = append(touched, j)
						}
						counts[j]++
					}
				}
				slices.Sort(touched)
				rowLen[i] = int32(len(touched))
				for _, j := range touched {
					cols = append(cols, j)
					cnts = append(cnts, counts[j])
					counts[j] = 0
				}
				touched = touched[:0]
			}
			shardCols[lo/shardRows] = cols
			shardCounts[lo/shardRows] = cnts
		}
	})

	// Assemble: prefix-sum the row lengths (in int64, so totals past 2^31
	// entries stay exact), then concatenate the shard arenas in shard
	// order — each arena already holds its rows in order.
	c := &Compact{rowStart: rowStartFromLengths(rowLen)}
	total := int(c.rowStart[n])
	c.cols = make([]int32, total)
	c.counts = make([]int32, total)
	off := 0
	for s := 0; s < numShards; s++ {
		copy(c.cols[off:], shardCols[s])
		off += copy(c.counts[off:], shardCounts[s])
	}
	return c
}
