// Package vclock abstracts time behind an injectable Clock — reading the
// current instant and scheduling a callback — so that timed code paths
// (the serving stack's latency stats, the streamer's refresh
// bookkeeping) can run under a deterministic fake in tests.
//
// Real() returns the production clock backed by package time. NewFake
// returns a manually advanced clock whose timers fire synchronously, in
// deadline order, inside Advance — a test that advances the fake clock
// observes exactly one interleaving, every run.
package vclock

import (
	"container/heap"
	"sync"
	"time"
)

// Timer is the handle AfterFunc returns. Stop prevents the callback from
// firing and reports whether it did (false means the callback already ran
// or was already stopped) — the contract of time.Timer.Stop.
type Timer interface {
	Stop() bool
}

// Clock is the minimal time surface the serving stack consumes.
type Clock interface {
	// Now returns the clock's current instant.
	Now() time.Time
	// AfterFunc schedules f to run once, d after now. The callback runs
	// on its own goroutine under the real clock and synchronously inside
	// Advance under the fake one; it MUST NOT be invoked inline from
	// AfterFunc itself, because callers schedule timers while holding
	// the very locks the callbacks take.
	AfterFunc(d time.Duration, f func()) Timer
}

// Real returns the production clock, delegating to package time.
func Real() Clock { return realClock{} }

type realClock struct{}

func (realClock) Now() time.Time { return time.Now() }

func (realClock) AfterFunc(d time.Duration, f func()) Timer { return time.AfterFunc(d, f) }

// Fake is a manually advanced Clock for deterministic tests. Timers fire
// synchronously inside Advance, ordered by deadline and then by creation
// order, never inline from AfterFunc. All methods are safe for concurrent
// use, but determinism is the caller's: advance from one goroutine.
type Fake struct {
	mu     sync.Mutex
	now    time.Time
	seq    uint64
	timers fakeTimerHeap
}

// NewFake returns a fake clock reading start.
func NewFake(start time.Time) *Fake {
	return &Fake{now: start}
}

// Now returns the fake clock's current instant.
func (f *Fake) Now() time.Time {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.now
}

// AfterFunc schedules fn at now+d (a non-positive d schedules it at now;
// it still fires only on the next Advance, never inline).
func (f *Fake) AfterFunc(d time.Duration, fn func()) Timer {
	f.mu.Lock()
	defer f.mu.Unlock()
	t := &fakeTimer{clock: f, when: f.now.Add(d), seq: f.seq, f: fn}
	f.seq++
	heap.Push(&f.timers, t)
	return t
}

// Advance moves the clock forward by d, firing every timer whose deadline
// falls within the traversed window, in (deadline, creation) order. Each
// callback runs synchronously with the clock set to its own deadline and
// no lock held, so a callback may schedule further timers — those fire in
// the same Advance when they land inside the window.
func (f *Fake) Advance(d time.Duration) {
	f.mu.Lock()
	target := f.now.Add(d)
	for {
		if len(f.timers) == 0 || f.timers[0].when.After(target) {
			break
		}
		t := heap.Pop(&f.timers).(*fakeTimer)
		if t.stopped {
			continue
		}
		t.fired = true
		if t.when.After(f.now) {
			f.now = t.when
		}
		f.mu.Unlock()
		t.f()
		f.mu.Lock()
	}
	if target.After(f.now) {
		f.now = target
	}
	f.mu.Unlock()
}

// Pending reports how many scheduled timers have neither fired nor been
// stopped — a test probe for "a deadline timer is parked".
func (f *Fake) Pending() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	n := 0
	for _, t := range f.timers {
		if !t.stopped {
			n++
		}
	}
	return n
}

// fakeTimer is one scheduled callback on a Fake clock.
type fakeTimer struct {
	clock   *Fake
	when    time.Time
	seq     uint64
	f       func()
	idx     int // heap index, -1 once popped
	stopped bool
	fired   bool
}

// Stop cancels the timer; it reports false when the callback already ran
// or Stop was already called.
func (t *fakeTimer) Stop() bool {
	t.clock.mu.Lock()
	defer t.clock.mu.Unlock()
	if t.fired || t.stopped {
		return false
	}
	t.stopped = true
	return true
}

// fakeTimerHeap orders timers by deadline, ties broken by creation order.
type fakeTimerHeap []*fakeTimer

func (h fakeTimerHeap) Len() int { return len(h) }

func (h fakeTimerHeap) Less(i, j int) bool {
	if !h[i].when.Equal(h[j].when) {
		return h[i].when.Before(h[j].when)
	}
	return h[i].seq < h[j].seq
}

func (h fakeTimerHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].idx, h[j].idx = i, j
}

func (h *fakeTimerHeap) Push(x any) {
	t := x.(*fakeTimer)
	t.idx = len(*h)
	*h = append(*h, t)
}

func (h *fakeTimerHeap) Pop() any {
	old := *h
	n := len(old)
	t := old[n-1]
	old[n-1] = nil
	t.idx = -1
	*h = old[:n-1]
	return t
}
