package vclock

import (
	"testing"
	"time"
)

// TestRealClock smokes the production clock: Now moves.
func TestRealClock(t *testing.T) {
	c := Real()
	t0 := c.Now()
	time.Sleep(time.Millisecond)
	if !c.Now().After(t0) {
		t.Fatal("real clock did not advance")
	}
}

// TestFakeAdvance proves the fake clock reads exactly the instants its
// Advance calls set, including a zero advance.
func TestFakeAdvance(t *testing.T) {
	start := time.Unix(0, 0)
	f := NewFake(start)
	if !f.Now().Equal(start) {
		t.Fatalf("fresh fake reads %v, want %v", f.Now(), start)
	}
	f.Advance(0)
	f.Advance(10 * time.Millisecond)
	f.Advance(5 * time.Millisecond)
	if got := f.Now().Sub(start); got != 15*time.Millisecond {
		t.Fatalf("clock at %v, want 15ms", got)
	}
}
