package sim

import (
	"testing"
	"time"

	"repro/internal/topo"
)

// observeFunc adapts a plain func to an Observer.
type observeFunc func(Event)

func (f observeFunc) Observe(e Event) { f(e) }

// TestHooksFire pins the observation contract: every registered observer
// fires at its transition, counts line up with the trace's exact counts
// where both exist, and a machine without registrations carries no
// observer table at all (the fast path).
func TestHooksFire(t *testing.T) {
	m := NewMachine(topo.Small(), NewFIFO(), Options{Seed: 5})
	if m.observers != nil {
		t.Fatal("observer table allocated before any registration")
	}

	var enq, disp, mig, steal, tick int
	m.Observe(observeFunc(func(e Event) {
		switch e.Kind {
		case Enqueue:
			if e.Thread.State() != StateRunnable {
				t.Errorf("enqueue event saw state %v", e.Thread.State())
			}
			enq++
		case Dispatch:
			if e.Core.Curr != e.Thread {
				t.Error("dispatch event fired with thread not current")
			}
			disp++
		case Migrate:
			if e.From == e.Core {
				t.Error("migrate event with from == to")
			}
			mig++
		case Steal:
			steal++
		case Tick:
			tick++
		}
	}), Enqueue, Dispatch, Migrate, Steal, Tick)

	for i := 0; i < 12; i++ {
		m.StartThread("w", "app", 0, &runSleeper{run: 700 * time.Microsecond, sleep: 400 * time.Microsecond})
	}
	m.Run(500 * time.Millisecond)

	if enq == 0 || disp == 0 || tick == 0 {
		t.Fatalf("observers silent: enqueue=%d dispatch=%d tick=%d", enq, disp, tick)
	}
	// FIFO steals queued work when idle; the Steal event and its Migrate
	// both fire.
	if steal == 0 || mig == 0 {
		t.Fatalf("steal/migrate observers silent: steal=%d migrate=%d", steal, mig)
	}
	if mig < steal {
		t.Fatalf("every steal migrates: migrate=%d < steal=%d", mig, steal)
	}
}

// TestHooksDoNotPerturb is the observation-only guarantee behind the
// telemetry layer: a machine with observers registered runs the
// exact same simulation — same event count, same trace counts — as one
// without.
func TestHooksDoNotPerturb(t *testing.T) {
	run := func(withHooks bool) (uint64, map[string]uint64) {
		m := NewMachine(topo.Small(), NewFIFO(), Options{Seed: 7})
		if withHooks {
			m.Observe(observeFunc(func(Event) {}), Enqueue, Dispatch, Migrate, Steal, Tick, Pick, Wake)
		}
		for i := 0; i < 8; i++ {
			m.StartThread("w", "app", 0, &runSleeper{run: 900 * time.Microsecond, sleep: 300 * time.Microsecond})
		}
		m.Run(300 * time.Millisecond)
		counts := map[string]uint64{}
		for _, th := range m.Threads() {
			counts["runtime"] += uint64(th.RunTime)
		}
		return m.EventsProcessed(), counts
	}
	e1, c1 := run(false)
	e2, c2 := run(true)
	if e1 != e2 {
		t.Fatalf("observers changed event count: %d vs %d", e1, e2)
	}
	if c1["runtime"] != c2["runtime"] {
		t.Fatalf("observers changed accumulated runtime: %d vs %d", c1["runtime"], c2["runtime"])
	}
}

// TestObserveKindsAndOrder: an observer sees only the kinds it was
// registered for, and observers of one kind fire in registration order.
func TestObserveKindsAndOrder(t *testing.T) {
	m := NewMachine(topo.Small(), NewFIFO(), Options{Seed: 5})
	var seen [numEventKinds]int
	m.Observe(observeFunc(func(e Event) { seen[e.Kind]++ }), Pick, Wake)
	var order []int
	m.Observe(observeFunc(func(Event) { order = append(order, 1) }), Dispatch)
	m.Observe(observeFunc(func(Event) { order = append(order, 2) }), Dispatch)
	for i := 0; i < 12; i++ {
		m.StartThread("w", "app", 0, &runSleeper{run: 700 * time.Microsecond, sleep: 400 * time.Microsecond})
	}
	m.Run(100 * time.Millisecond)

	for k, n := range seen {
		want := EventKind(k) == Pick || EventKind(k) == Wake
		if (n > 0) != want {
			t.Errorf("kind %d: %d events, registered for it: %v", k, n, want)
		}
	}
	if len(order) == 0 || len(order)%2 != 0 {
		t.Fatalf("the two dispatch observers fired %d times in all", len(order))
	}
	for i := 0; i < len(order); i += 2 {
		if order[i] != 1 || order[i+1] != 2 {
			t.Fatalf("dispatch %d: observers fired as %v, want 1 then 2", i/2, order[i:i+2])
		}
	}
}

// TestObserverPathAllocFree: a no-op observer of every kind on a warmed
// machine costs no allocation. An Event that escaped to the heap would
// cost one per event.
func TestObserverPathAllocFree(t *testing.T) {
	m := NewMachine(topo.Small(), NewFIFO(), Options{Seed: 5})
	var n int
	m.Observe(observeCount{&n}, Enqueue, Dispatch, Migrate, Steal, Tick, Pick, Wake)
	for i := 0; i < 12; i++ {
		m.StartThread("w", "app", 0, &runSleeper{run: 700 * time.Microsecond, sleep: 400 * time.Microsecond})
	}
	m.Run(250 * time.Millisecond) // settle heap, runqueue, and timer table capacity
	before := n
	avg := testing.AllocsPerRun(20, func() {
		m.Run(m.Now() + 5*time.Millisecond)
	})
	if avg != 0 {
		t.Fatalf("observed machine allocated %.1f allocs per 5ms window, want 0", avg)
	}
	if n == before {
		t.Fatal("the observer saw no event in 21 windows")
	}
}

// observeCount counts events; a typed observer, so the test measures the
// engine's path and not a closure's.
type observeCount struct{ n *int }

func (o observeCount) Observe(Event) { *o.n++ }
