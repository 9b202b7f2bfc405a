// Package vclock abstracts time behind an injectable Clock so that timed
// code paths (the serving stack's latency stats, the streamer's refresh
// bookkeeping) can run under a deterministic fake in tests.
//
// Real() returns the production clock backed by package time. NewFake
// returns a clock that moves only when Advance is called, so a test reads
// exactly the instants it set, every run.
package vclock

import (
	"sync"
	"time"
)

// Clock is the minimal time surface the serving stack consumes.
type Clock interface {
	// Now returns the clock's current instant.
	Now() time.Time
}

// Real returns the production clock, delegating to package time.
func Real() Clock { return realClock{} }

type realClock struct{}

func (realClock) Now() time.Time { return time.Now() }

// Fake is a manually advanced Clock for deterministic tests. All methods
// are safe for concurrent use.
type Fake struct {
	mu  sync.Mutex
	now time.Time
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

// Advance moves the clock forward by d.
func (f *Fake) Advance(d time.Duration) {
	f.mu.Lock()
	f.now = f.now.Add(d)
	f.mu.Unlock()
}
