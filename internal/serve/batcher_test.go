package serve

import (
	"math/rand"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/rockclust/rock/internal/core"
	"github.com/rockclust/rock/internal/dataset"
)

// pendingWaiters reports how many requests sit in the open batch.
func (b *batcher) pendingWaiters() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return len(b.waiters)
}

// flushing reports how many flushes are in progress.
func (b *batcher) flushing() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.running
}

// submitAsync submits qs on its own goroutine, pinning the current
// generation around the call, and delivers the answer on the returned
// channel.
func submitAsync(s *Server, qs ...dataset.Transaction) <-chan []int {
	lm := s.acquire()
	out := make(chan []int, 1)
	go func() {
		defer lm.release()
		out <- s.batch.submit(lm, qs)
	}()
	return out
}

// occupySlot holds the server's first flush open before its AssignBatch
// call, submits one request (answered [1] on the current model) into
// it, and returns once that flush is running. Calling release lets the
// flush finish; the request's answer then arrives on blocker.
func occupySlot(t *testing.T, s *Server) (release func(), blocker <-chan []int) {
	t.Helper()
	gate := make(chan struct{})
	var held atomic.Bool
	next := s.batch.assign
	s.batch.assign = func(m *core.Model, qs []dataset.Transaction) []int {
		if held.CompareAndSwap(false, true) {
			<-gate
		}
		return next(m, qs)
	}
	blocker = submitAsync(s, dataset.NewTransaction(10, 11, 4))
	waitFor(t, "the first flush to start", func() bool { return s.batch.flushing() == 1 })
	return func() { close(gate) }, blocker
}

// waitFor polls cond until it holds, failing the test after 10s.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(100 * time.Microsecond)
	}
}

// TestLoneRequestFlushesInSubmit proves a lone request is never held
// hostage by a batch that will not fill: with every slot free, its own
// submit starts its flush (occupySlot waits for exactly that, with no
// timer anywhere and MaxBatch out of reach), and the flush answers it.
func TestLoneRequestFlushesInSubmit(t *testing.T) {
	s := New(rawModel(t, false), Config{MaxBatch: 1 << 20, Workers: 1})
	release, res := occupySlot(t, s)
	release()
	if got := <-res; len(got) != 1 || got[0] != 1 {
		t.Fatalf("answered %v, want [1]", got)
	}
	if st := s.Stats(); st.Batches != 1 || st.CoalescedBatches != 0 {
		t.Fatalf("batch stats: %+v", st)
	}
}

// TestBatchCoalescing proves requests arriving while every slot is busy
// share one flush, deterministically: with the only slot held open, n
// single-query submissions park in the open batch, and when the held
// flush finishes it takes them all as exactly one AssignBatch call.
func TestBatchCoalescing(t *testing.T) {
	const n = 8
	s := New(rawModel(t, false), Config{MaxBatch: 256, Workers: 1})
	release, blocker := occupySlot(t, s)
	results := make([]<-chan []int, n)
	for i := range results {
		results[i] = submitAsync(s, dataset.NewTransaction(0, 1, 4))
	}
	waitFor(t, "the arrivals to park", func() bool { return s.batch.pendingWaiters() == n })
	release()

	<-blocker
	for i, r := range results {
		if got := <-r; len(got) != 1 || got[0] != 0 {
			t.Fatalf("request %d answered %v, want [0]", i, got)
		}
	}
	st := s.Stats()
	if st.Batches != 2 || st.CoalescedBatches != 1 || st.MaxBatch != n {
		t.Fatalf("batch stats %+v; want 2 flushes (the blocker, then all %d parked requests as one)", st, n)
	}
}

// TestSizeFlushWhileSlotsBusy proves MaxBatch still bounds a batch when
// no slot frees up: the request that fills the open batch flushes it at
// once, and every parked request is answered while the slot's own flush
// is still held.
func TestSizeFlushWhileSlotsBusy(t *testing.T) {
	const maxBatch = 3
	s := New(rawModel(t, false), Config{MaxBatch: maxBatch, Workers: 1})
	release, blocker := occupySlot(t, s)
	results := make([]<-chan []int, maxBatch)
	for i := range results {
		results[i] = submitAsync(s, dataset.NewTransaction(0, 1, 4))
		if i < maxBatch-1 {
			waitFor(t, "the arrival to park", func() bool { return s.batch.pendingWaiters() == i+1 })
		}
	}
	for i, r := range results {
		if got := <-r; len(got) != 1 || got[0] != 0 {
			t.Fatalf("request %d answered %v, want [0]", i, got)
		}
	}
	if len(blocker) != 0 {
		t.Fatal("held flush answered before release")
	}
	release()
	<-blocker
	st := s.Stats()
	if st.Batches != 2 || st.CoalescedBatches != 1 || st.MaxBatch != maxBatch {
		t.Fatalf("batch stats %+v; want the blocker plus one size flush of %d", st, maxBatch)
	}
}

// TestBatcherStress drives random arrivals from many goroutines through
// few slots and a small MaxBatch, with flushes that randomly stall, and
// proves every request is answered exactly once with its own slice:
// each answer equals the model's AssignBatch on that request's queries,
// no answer can grow into a neighbor's results, and the flushes assign
// exactly the submitted queries — none dropped, none assigned twice.
// Run under -race in CI.
func TestBatcherStress(t *testing.T) {
	m := rawModel(t, false)
	pool := []dataset.Transaction{
		dataset.NewTransaction(0, 1, 4),
		dataset.NewTransaction(10, 11, 4),
		dataset.NewTransaction(20, 21),
	}
	for _, workers := range []int{1, 2} {
		s := New(m, Config{MaxBatch: 5, Workers: workers})
		var flushed atomic.Int64
		next := s.batch.assign
		s.batch.assign = func(model *core.Model, qs []dataset.Transaction) []int {
			flushed.Add(int64(len(qs)))
			time.Sleep(time.Duration(rand.Intn(50)) * time.Microsecond)
			return next(model, qs)
		}

		const clients, perClient = 8, 150
		var submitted atomic.Int64
		var wg sync.WaitGroup
		for c := 0; c < clients; c++ {
			wg.Add(1)
			go func(seed int64) {
				defer wg.Done()
				rng := rand.New(rand.NewSource(seed))
				for i := 0; i < perClient; i++ {
					qs := make([]dataset.Transaction, 1+rng.Intn(4))
					for j := range qs {
						qs[j] = pool[rng.Intn(len(pool))]
					}
					submitted.Add(int64(len(qs)))
					got, _ := s.Submit(qs)
					if want := m.AssignBatch(qs, 1); !reflect.DeepEqual(got, want) || cap(got) != len(got) {
						t.Errorf("workers=%d: answered %v (cap %d), want %v", workers, got, cap(got), want)
						return
					}
					if rng.Intn(4) == 0 {
						time.Sleep(time.Duration(rng.Intn(100)) * time.Microsecond)
					}
				}
			}(int64(c))
		}
		wg.Wait()
		if flushed.Load() != submitted.Load() {
			t.Fatalf("workers=%d: flushes assigned %d queries, %d submitted", workers, flushed.Load(), submitted.Load())
		}
	}
}
