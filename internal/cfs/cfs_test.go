package cfs

import (
	"testing"
	"time"

	"repro/internal/sim"
	"repro/internal/topo"
)

// fireFunc adapts a plain func to a sim.Timer.
type fireFunc func()

func (f fireFunc) Fire(*sim.Machine) { f() }

// programFunc adapts a plain func to a sim.Program.
type programFunc func(*sim.Ctx) sim.Op

func (f programFunc) Next(ctx *sim.Ctx) sim.Op { return f(ctx) }

type looper struct{ burst time.Duration }

func (l *looper) Next(ctx *sim.Ctx) sim.Op { return sim.Run(l.burst) }

// sleeper alternates short runs with long sleeps (an interactive thread).
type sleeper struct {
	run, sleep time.Duration
	state      int
	// WakeLatencies accumulates enqueue→run latencies via LastEnqueuedAt.
	Runs int
}

func (s *sleeper) Next(ctx *sim.Ctx) sim.Op {
	if s.state == 0 {
		s.state = 1
		s.Runs++
		return sim.Run(s.run)
	}
	s.state = 0
	return sim.Sleep(s.sleep)
}

func newMachine(p Params, tp *topo.Topology, seed int64) (*sim.Machine, *Sched) {
	s := New(p)
	m := sim.NewMachine(tp, s, sim.Options{Seed: seed, Cost: &sim.CostModel{}})
	return m, s
}

func TestFairShareSameGroup(t *testing.T) {
	m, _ := newMachine(DefaultParams(), topo.SingleCore(), 1)
	a := m.StartThread("a", "app", 0, &looper{burst: time.Millisecond})
	b := m.StartThread("b", "app", 0, &looper{burst: time.Millisecond})
	m.Run(4 * time.Second)
	total := a.RunTime + b.RunTime
	if total < 3900*time.Millisecond {
		t.Fatalf("core idle: total=%v", total)
	}
	ratio := float64(a.RunTime) / float64(total)
	if ratio < 0.47 || ratio > 0.53 {
		t.Fatalf("share = %v, want ~0.5", ratio)
	}
}

func TestNiceWeighting(t *testing.T) {
	m, _ := newMachine(DefaultParams(), topo.SingleCore(), 1)
	hi := m.StartThread("hi", "app", 0, &looper{burst: time.Millisecond})
	lo := m.StartThread("lo", "app", 5, &looper{burst: time.Millisecond})
	m.Run(4 * time.Second)
	// weight(0)=1024, weight(5)=335 → hi share ≈ 0.754.
	ratio := float64(hi.RunTime) / float64(hi.RunTime+lo.RunTime)
	if ratio < 0.70 || ratio > 0.80 {
		t.Fatalf("nice-weighted share = %v, want ~0.75", ratio)
	}
}

func TestCgroupFairnessBetweenApps(t *testing.T) {
	// Paper Fig 1(a): one fibo thread vs many sysbench-like threads — with
	// group fairness the single-thread app still gets ~50%.
	m, _ := newMachine(DefaultParams(), topo.SingleCore(), 1)
	fibo := m.StartThread("fibo", "fibo", 0, &looper{burst: time.Millisecond})
	var dbRun []*sim.Thread
	for i := 0; i < 10; i++ {
		dbRun = append(dbRun, m.StartThread("db", "db", 0, &looper{burst: time.Millisecond}))
	}
	m.Run(4 * time.Second)
	var dbTotal time.Duration
	for _, th := range dbRun {
		dbTotal += th.RunTime
	}
	share := float64(fibo.RunTime) / float64(fibo.RunTime+dbTotal)
	if share < 0.40 || share > 0.60 {
		t.Fatalf("fibo share with cgroups = %v, want ~0.5", share)
	}
}

func TestNoCgroupsPerThreadFairness(t *testing.T) {
	p := DefaultParams()
	p.Cgroups = false
	m, _ := newMachine(p, topo.SingleCore(), 1)
	fibo := m.StartThread("fibo", "fibo", 0, &looper{burst: time.Millisecond})
	for i := 0; i < 10; i++ {
		m.StartThread("db", "db", 0, &looper{burst: time.Millisecond})
	}
	m.Run(4 * time.Second)
	share := float64(fibo.RunTime) / float64(m.Now())
	if share < 0.05 || share > 0.15 {
		t.Fatalf("fibo share without cgroups = %v, want ~1/11", share)
	}
}

func TestSleeperCreditSchedulesInteractiveFirst(t *testing.T) {
	// An interactive thread waking among CPU hogs should run promptly —
	// "threads that sleep a lot are scheduled first" (§2.1).
	m, _ := newMachine(DefaultParams(), topo.SingleCore(), 1)
	for i := 0; i < 4; i++ {
		m.StartThread("hog", "hogs", 0, &looper{burst: time.Millisecond})
	}
	inter := &sleeper{run: 100 * time.Microsecond, sleep: 20 * time.Millisecond}
	th := m.StartThread("inter", "inter", 0, inter)
	m.Run(4 * time.Second)
	if inter.Runs < 150 {
		t.Fatalf("interactive thread ran %d times in 4s, want ~190", inter.Runs)
	}
	// It should get nearly all the CPU it asks for (~0.5% demand).
	if th.RunTime < 15*time.Millisecond {
		t.Fatalf("interactive RunTime = %v", th.RunTime)
	}
}

func TestWakeupPreemption(t *testing.T) {
	m, _ := newMachine(DefaultParams(), topo.SingleCore(), 1)
	m.StartThread("hog", "hogs", 0, &looper{burst: 50 * time.Millisecond})
	m.StartThread("inter", "inter", 0, &sleeper{run: 200 * time.Microsecond, sleep: 30 * time.Millisecond})
	m.Run(2 * time.Second)
	if got := m.Counts.Preemptions; got == 0 {
		t.Fatal("sleeper never preempted the hog despite huge vruntime gap")
	}
}

func TestForkDoesNotPreempt(t *testing.T) {
	m, _ := newMachine(DefaultParams(), topo.SingleCore(), 1)
	forked := false
	m.StartThread("parent", "app", 0, programFunc(func(ctx *sim.Ctx) sim.Op {
		if !forked {
			forked = true
			ctx.Fork("child", "app", 0, &looper{burst: time.Millisecond})
			return sim.Run(5 * time.Millisecond)
		}
		return sim.Run(5 * time.Millisecond)
	}))
	m.RunUntil(func() bool { return forked }, time.Second)
	pre := m.Counts.Preemptions
	m.Run(m.Now() + 2*time.Millisecond)
	if m.Counts.Preemptions != pre {
		t.Fatal("fork preempted the parent")
	}
}

func TestBalanceSpreadsSpinners(t *testing.T) {
	m, s := newMachine(DefaultParams(), topo.Default(), 1)
	// 64 spinners born on whatever cores placement picks; after a second
	// the machine must be近 evenly loaded: 2 per core.
	for i := 0; i < 64; i++ {
		m.StartThread("spin", "spin", 0, &looper{burst: time.Millisecond})
	}
	m.Run(3 * time.Second)
	counts := m.RunnableCounts()
	min, max := counts[0], counts[0]
	for _, n := range counts {
		if n < min {
			min = n
		}
		if n > max {
			max = n
		}
	}
	if min < 1 || max > 4 {
		t.Fatalf("unbalanced spinners: %v", counts)
	}
	_ = s
}

func TestNUMAThresholdLeavesResidualImbalance(t *testing.T) {
	// Mini Figure 6: pin spinners to core 0, unpin, let CFS balance. The
	// 25% NUMA threshold must leave cross-node differences while LLC
	// domains even out internally.
	m, _ := newMachine(DefaultParams(), topo.Default(), 1)
	var ths []*sim.Thread
	for i := 0; i < 128; i++ {
		th := m.StartThreadCfg(sim.ThreadConfig{
			Name: "spin", Group: "spin", Pinned: []int{0},
			Prog: &looper{burst: 10 * time.Millisecond},
		})
		ths = append(ths, th)
	}
	m.Run(2 * time.Second)
	for _, th := range ths {
		m.SetPinned(th, nil)
	}
	m.Run(m.Now() + 3*time.Second)
	counts := m.RunnableCounts()
	total := 0
	for _, n := range counts {
		total += n
	}
	if total != 128 {
		t.Fatalf("threads lost: %v", counts)
	}
	// Every core must have work (no idle cores with 4/core average).
	for i, n := range counts {
		if n == 0 {
			t.Fatalf("core %d idle after balancing: %v", i, counts)
		}
	}
}

func TestSelectIdleSiblingPrefersPrevCore(t *testing.T) {
	m, _ := newMachine(DefaultParams(), topo.Small(), 1)
	sl := &sleeper{run: time.Millisecond, sleep: 5 * time.Millisecond}
	th := m.StartThread("s", "app", 0, sl)
	m.Run(time.Second)
	// With an otherwise idle machine the thread should keep waking on the
	// same core (its previous, idle core).
	if th.LastCore == nil {
		t.Fatal("never ran")
	}
	migs := m.Counts.Migrations
	if migs > 0 {
		t.Fatalf("idle-machine sleeper migrated %d times", migs)
	}
}

func TestVruntimeSpreadBounded(t *testing.T) {
	// §2.1: "CFS ensures that the vruntime difference between any two
	// threads is less than the preemption period". Allow slack for
	// tick-quantized charging.
	p := DefaultParams()
	m, s := newMachine(p, topo.SingleCore(), 1)
	for i := 0; i < 4; i++ {
		m.StartThread("w", "app", 0, &looper{burst: 500 * time.Microsecond})
	}
	for step := 0; step < 40; step++ {
		m.Run(m.Now() + 50*time.Millisecond)
		g := s.groups["app"]
		if g == nil {
			t.Fatal("group missing")
		}
		rq := g.rqs[0]
		lo, hi := int64(1<<62), int64(-1<<62)
		count := 0
		check := func(e *entity) {
			if e == nil {
				return
			}
			count++
			if e.vruntime < lo {
				lo = e.vruntime
			}
			if e.vruntime > hi {
				hi = e.vruntime
			}
		}
		check(rq.curr)
		for _, it := range rq.tree.Items() {
			check(it.(*entity))
		}
		if count < 2 {
			continue
		}
		if spread := hi - lo; spread > int64(3*p.Latency) {
			t.Fatalf("step %d: vruntime spread %v too large", step, time.Duration(spread))
		}
	}
}

func TestMostlySleepingCoreLoadIsLow(t *testing.T) {
	m, s := newMachine(DefaultParams(), topo.Small(), 1)
	// Pin a spinner to core 0 and 10 sleepers to core 1: core 0's load
	// must dominate — "a thread that never sleeps has a higher load than
	// one that sleeps a lot".
	m.StartThreadCfg(sim.ThreadConfig{Name: "spin", Group: "a", Pinned: []int{0}, Prog: &looper{burst: time.Millisecond}})
	for i := 0; i < 10; i++ {
		m.StartThreadCfg(sim.ThreadConfig{Name: "sl", Group: "b", Pinned: []int{1},
			Prog: &sleeper{run: 50 * time.Microsecond, sleep: 10 * time.Millisecond}})
	}
	m.Run(2 * time.Second)
	if s.CoreLoad(0) < 5*s.CoreLoad(1) {
		t.Fatalf("spinner core load %d not ≫ sleeper core load %d", s.CoreLoad(0), s.CoreLoad(1))
	}
}

func TestWeightTable(t *testing.T) {
	if weightOf(0) != 1024 {
		t.Fatal("nice 0 weight")
	}
	if weightOf(-20) != 88761 || weightOf(19) != 15 {
		t.Fatal("extremes")
	}
	if weightOf(-25) != weightOf(-20) || weightOf(25) != weightOf(19) {
		t.Fatal("clamping")
	}
	// Each step ≈ ×1.25.
	r := float64(weightOf(0)) / float64(weightOf(1))
	if r < 1.2 || r > 1.3 {
		t.Fatalf("step ratio = %v", r)
	}
}

func TestDeterminism(t *testing.T) {
	run := func() time.Duration {
		m, _ := newMachine(DefaultParams(), topo.Default(), 42)
		for i := 0; i < 20; i++ {
			m.StartThread("w", "app", 0, &sleeper{run: time.Millisecond, sleep: 3 * time.Millisecond})
		}
		for i := 0; i < 10; i++ {
			m.StartThread("s", "spin", 0, &looper{burst: 2 * time.Millisecond})
		}
		m.Run(2 * time.Second)
		var sum time.Duration
		for _, th := range m.Threads() {
			sum += th.RunTime
		}
		return sum
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("non-deterministic: %v vs %v", a, b)
	}
}
