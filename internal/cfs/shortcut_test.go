package cfs

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"repro/internal/sim"
	"repro/internal/topo"
)

// recounting wraps Sched and, after every Enqueue and Dequeue — the two
// places hWeight changes — recounts the heavy cores from scratch.
type recounting struct {
	*Sched
	t      *testing.T
	checks int
	// sawHeavy / sawLight: the run visited both sides of the shortcut.
	sawHeavy, sawLight bool
}

func (r *recounting) recount() {
	r.t.Helper()
	heavy := 0
	for i := range r.cores {
		if r.cores[i].hWeight > smallImbalance {
			heavy++
		}
	}
	if heavy != r.heavy {
		r.t.Fatalf("heavy = %d, recount from hWeight = %d", r.heavy, heavy)
	}
	r.checks++
	if heavy > 0 {
		r.sawHeavy = true
	} else {
		r.sawLight = true
	}
}

func (r *recounting) Enqueue(c *sim.Core, t *sim.Thread, flags int) {
	r.Sched.Enqueue(c, t, flags)
	r.recount()
}

func (r *recounting) Dequeue(c *sim.Core, t *sim.Thread, flags int) {
	r.Sched.Dequeue(c, t, flags)
	r.recount()
}

// churn installs a randomized workload that moves the machine between
// balanced and overloaded: sleepers of mixed nice values, a pinned pile that
// is released halfway, and two hotplug cycles.
func churn(m *sim.Machine, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	n := len(m.Cores)
	for i := 0; i < 3*n; i++ {
		m.StartThread(fmt.Sprintf("nap-%d", i), fmt.Sprintf("app%d", i%5), rng.Intn(11)-5, &sleeper{
			run:   time.Duration(100+rng.Intn(900)) * time.Microsecond,
			sleep: time.Duration(1+rng.Intn(20)) * time.Millisecond,
		})
	}
	var pile []*sim.Thread
	for i := 0; i < n; i++ {
		pile = append(pile, m.StartThreadCfg(sim.ThreadConfig{
			Name: fmt.Sprintf("pile-%d", i), Group: "pile", Nice: rng.Intn(5), Pinned: []int{i % 2},
			Prog: &looper{burst: time.Duration(1+rng.Intn(4)) * time.Millisecond},
		}))
	}
	m.At(150*time.Millisecond, fireFunc(func() {
		for _, t := range pile {
			m.SetPinned(t, nil)
		}
	}))
	for _, at := range []time.Duration{60 * time.Millisecond, 220 * time.Millisecond} {
		id := 1 + rng.Intn(n-1)
		m.At(at, fireFunc(func() { m.OfflineCore(id) }))
		m.At(at+35*time.Millisecond, fireFunc(func() { m.OnlineCore(id) }))
	}
}

// TestHeavyCountMatchesWeights: the incrementally kept count of cores above
// the small-imbalance floor equals a recount from hWeight after every
// Enqueue and Dequeue of a randomized run.
func TestHeavyCountMatchesWeights(t *testing.T) {
	for _, tp := range []*topo.Topology{topo.Small(), topo.Default()} {
		r := &recounting{Sched: New(DefaultParams()), t: t}
		m := sim.NewMachine(tp, r, sim.Options{Seed: 3})
		churn(m, 11)
		m.Run(400 * time.Millisecond)
		if r.checks < 1000 || !r.sawHeavy || !r.sawLight {
			t.Fatalf("%d cores: %d checks, heavy seen %v, balanced seen %v: the run does not exercise the counter",
				tp.NCores(), r.checks, r.sawHeavy, r.sawLight)
		}
	}
}

// TestBalanceShortcutIsExact runs the same machine with the shortcut and
// with the full balance pass forced on every tick and idle transition: the
// runs must be indistinguishable, and the forced pass must never reach a
// pull while the counter is zero (pullFrom panics if it does).
func TestBalanceShortcutIsExact(t *testing.T) {
	type outcome struct {
		events     uint64
		runtimes   []time.Duration
		migrations uint64
	}
	run := func(full bool) outcome {
		s := New(DefaultParams())
		s.fullBalance = full
		m := sim.NewMachine(topo.Default(), s, sim.Options{Seed: 3})
		churn(m, 11)
		m.Run(400 * time.Millisecond)
		o := outcome{events: m.EventsProcessed(), migrations: m.Counters.Get("cfs.balance_migrations").N}
		for _, th := range m.Threads() {
			o.runtimes = append(o.runtimes, th.RunTime)
		}
		return o
	}
	short, full := run(false), run(true)
	if short.events != full.events || short.migrations != full.migrations {
		t.Fatalf("shortcut: %d events, %d migrations; full pass: %d events, %d migrations",
			short.events, short.migrations, full.events, full.migrations)
	}
	if short.migrations == 0 {
		t.Fatal("no balance migration happened: the run does not exercise the balancer")
	}
	for i := range short.runtimes {
		if short.runtimes[i] != full.runtimes[i] {
			t.Fatalf("thread %d ran %v with the shortcut, %v with the full pass", i+1, short.runtimes[i], full.runtimes[i])
		}
	}
}
