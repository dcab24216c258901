package core

import (
	"testing"
	"time"
)

// TestFinishedWaitsLeaveNoTimer: a timed wait that ends early takes its
// timer off the runtime's heap, so finished waits leave no entries
// behind to fire as no-ops seconds later. Waits that end by their own
// timer, and sleeps, leave the heap empty too.
func TestFinishedWaitsLeaveNoTimer(t *testing.T) {
	run(t, func(co *Coroutine) {
		for i := 0; i < 100; i++ {
			sig := NewSignalEvent()
			co.Runtime().Post(sig.Set)
			if res := co.WaitFor(sig, time.Hour); res != WaitReady {
				t.Fatalf("wait %d = %v, want ready", i, res)
			}
		}
		q := NewQuorumEvent(3, 2)
		a, b := NewResultEvent("rpc", "p1"), NewResultEvent("rpc", "p2")
		q.AddJudged(a, nil)
		q.AddJudged(b, nil)
		q.AddJudged(NewResultEvent("rpc", "p3"), nil)
		co.Runtime().Post(func() { a.Fire(nil, nil); b.Fire(nil, nil) })
		if out := co.WaitQuorum(q, time.Hour); out != QuorumOK {
			t.Fatalf("quorum wait = %v, want ok", out)
		}
		if n := len(co.Runtime().timers); n != 0 {
			t.Fatalf("timer heap holds %d entries after early-finished waits, want 0", n)
		}
		if res := co.WaitFor(NewNeverEvent(), time.Millisecond); res != WaitTimeout {
			t.Fatalf("wait = %v, want timeout", res)
		}
		if err := co.Sleep(time.Millisecond); err != nil {
			t.Fatal(err)
		}
		if n := len(co.Runtime().timers); n != 0 {
			t.Fatalf("timer heap holds %d entries after a timeout and a sleep, want 0", n)
		}
	})
}

// TestEarlyWaitKeepsOtherTimers: removing one coroutine's timer leaves
// the other sleepers' wakeups in order.
func TestEarlyWaitKeepsOtherTimers(t *testing.T) {
	rt := NewRuntime("timers")
	defer rt.Stop()
	woke := make(chan int, 3)
	for i, d := range []time.Duration{30, 10, 20} {
		i, d := i, d
		rt.Spawn("sleeper", func(co *Coroutine) {
			_ = co.Sleep(d * time.Millisecond)
			woke <- i
		})
	}
	done := make(chan struct{})
	rt.Spawn("early", func(co *Coroutine) {
		defer close(done)
		sig := NewSignalEvent()
		co.Runtime().Post(sig.Set)
		co.WaitFor(sig, time.Hour)
	})
	<-done
	for _, want := range []int{1, 2, 0} {
		select {
		case got := <-woke:
			if got != want {
				t.Fatalf("sleeper %d woke, want %d", got, want)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("sleepers hung")
		}
	}
}
