package serve

import (
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestServeReloadFuzzSchedule extends the reload-drain contract to a
// fuzz-style swap schedule: sustained batched traffic from several
// clients while the model is swapped many times at seeded-random
// intervals, alternating between two models that answer the same query
// differently. The schedule's timing varies run to run — that is the
// point — but the assertions are interleaving-independent: every
// response must match what the generation stamped on it would answer
// (generation parity decides, since the swap alternates models), no
// request may be dropped, and every retired generation must drain.
// Run under -race in CI.
func TestServeReloadFuzzSchedule(t *testing.T) {
	v1 := rawModel(t, false)
	v2 := rawModel(t, true)
	s := New(v1, Config{MaxBatch: 4, DrainTimeout: 30 * time.Second})
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	// Odd generations serve v1 (answer 0), even generations v2 (answer 1).
	ids := [][]int32{{0, 1, 4}}
	want := func(gen uint64) int {
		if gen%2 == 1 {
			return 0
		}
		return 1
	}

	const clients = 6
	var sent, answered, torn atomic.Int64
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				sent.Add(1)
				got, code := postAssign(t, srv.URL, AssignRequest{IDs: ids})
				if code != http.StatusOK {
					continue // leaves sent > answered: caught below
				}
				answered.Add(1)
				if len(got.Assignments) != 1 || got.Assignments[0] != want(got.Generation) {
					torn.Add(1)
				}
			}
		}()
	}

	// Swap only once traffic is demonstrably flowing, then run the
	// randomized schedule.
	for s.Stats().Requests == 0 {
		time.Sleep(time.Millisecond)
	}
	rng := rand.New(rand.NewSource(41))
	const swaps = 8
	for i := 0; i < swaps; i++ {
		time.Sleep(time.Duration(rng.Intn(2500)) * time.Microsecond)
		next := v2
		if i%2 == 1 {
			next = v1
		}
		gen, drained := s.Swap(next)
		if gen != uint64(i+2) {
			t.Errorf("swap %d produced generation %d, want %d", i, gen, i+2)
		}
		if !drained {
			t.Errorf("swap %d: generation %d did not drain", i, gen-1)
		}
	}
	close(stop)
	wg.Wait()

	if torn.Load() != 0 {
		t.Fatalf("%d responses inconsistent with their stamped generation's model", torn.Load())
	}
	if sent.Load() != answered.Load() {
		t.Fatalf("dropped requests across the swap schedule: sent %d, answered %d", sent.Load(), answered.Load())
	}
	if got := s.Generation(); got != swaps+1 {
		t.Fatalf("final generation %d, want %d", got, swaps+1)
	}
	if st := s.Stats(); st.Reloads != swaps {
		t.Fatalf("stats count %d reloads, want %d", st.Reloads, swaps)
	}
}
