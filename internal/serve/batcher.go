package serve

import (
	"sync"

	"github.com/rockclust/rock/internal/core"
	"github.com/rockclust/rock/internal/dataset"
)

// Request batching / coalescing.
//
// The frozen model's AssignBatch amortizes its sharded-labeler startup
// (goroutine handoff, scratch acquisition) over a whole batch, so many
// small concurrent requests serve better as one batch than as
// per-request calls — but only when they would otherwise wait anyway.
// The batcher coalesces by idle flush ("group commit"): a submission
// flushes the open batch at once while fewer than slots flushes are
// running, so a lone request never waits on a timer. When every slot is
// busy, arriving queries collect in the open batch, and the next flush
// to finish takes it; batch size follows load with no deadline to tune.
// A batch that reaches MaxBatch queries flushes at size whether or not a
// slot is free. Requests block until their flush completes and receive
// exactly their slice of the results, so coalescing is invisible to
// callers beyond latency.
//
// Batches never mix model generations: every batch is tied to the
// liveModel its first request acquired, because query transactions are
// remapped into a specific model's item id space before submission. A
// submission under a newer model flushes the older batch immediately —
// which is also what drains in-flight batches promptly during a hot
// swap. Flushes run on their own goroutine so a batch never executes on
// the submitting request's lock hold.

// waiter is one blocked request: n queries, answered on ch in one send.
type waiter struct {
	ch chan []int
	n  int
}

// batcher coalesces concurrent assignment requests into shared batches.
type batcher struct {
	maxBatch int
	slots    int // flushes that may run before arrivals collect
	stats    *serverStats
	assign   func(m *core.Model, qs []dataset.Transaction) []int // one flush's AssignBatch; tests hold it open

	mu      sync.Mutex
	running int // flushes in progress
	lm      *liveModel
	queries []dataset.Transaction
	waiters []waiter
}

// submit enqueues a request's queries against the model it acquired and
// blocks until the containing batch flushes, returning this request's
// assignments. The caller must hold a reference on lm for the duration
// of the call (the HTTP handler's acquire/release brackets it).
func (b *batcher) submit(lm *liveModel, qs []dataset.Transaction) []int {
	if len(qs) == 0 {
		return []int{}
	}
	ch := make(chan []int, 1)
	b.mu.Lock()
	// A batch opened under an older model must not absorb queries mapped
	// for a newer one — flush it now and open a fresh batch.
	if b.lm != nil && b.lm != lm {
		b.flushLocked()
	}
	b.lm = lm
	b.queries = append(b.queries, qs...)
	b.waiters = append(b.waiters, waiter{ch, len(qs)})
	if b.running < b.slots || len(b.queries) >= b.maxBatch {
		b.flushLocked()
	}
	b.mu.Unlock()
	return <-ch
}

// flushLocked hands the open batch to a flusher goroutine, which, once
// its waiters are answered, flushes the batch that collected meanwhile,
// if any. Caller holds b.mu.
func (b *batcher) flushLocked() {
	lm, qs, ws := b.lm, b.queries, b.waiters
	b.lm, b.queries, b.waiters = nil, nil, nil
	b.running++
	b.stats.observeBatch(len(qs), len(ws))
	go func() {
		out := b.assign(lm.model, qs)
		off := 0
		for _, w := range ws {
			w.ch <- out[off : off+w.n : off+w.n]
			off += w.n
		}
		b.mu.Lock()
		b.running--
		if b.lm != nil {
			b.flushLocked()
		}
		b.mu.Unlock()
	}()
}
