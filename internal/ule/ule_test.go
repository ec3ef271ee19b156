package ule

import (
	"testing"
	"testing/quick"
	"time"

	"repro/internal/sim"
	"repro/internal/topo"
)

// programFunc adapts a plain func to a sim.Program.
type programFunc func(*sim.Ctx) sim.Op

func (f programFunc) Next(ctx *sim.Ctx) sim.Op { return f(ctx) }

type looper struct{ burst time.Duration }

func (l *looper) Next(ctx *sim.Ctx) sim.Op { return sim.Run(l.burst) }

type sleeper struct {
	run, sleep time.Duration
	state      int
	Runs       int
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

func TestInteractScoreRangeProperty(t *testing.T) {
	f := func(r, s uint32) bool {
		got := interactScore(time.Duration(r)*time.Microsecond, time.Duration(s)*time.Microsecond)
		return got >= 0 && got <= 100
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestInteractUpdateWindowProperty(t *testing.T) {
	p := DefaultParams()
	f := func(rs []uint16) bool {
		var r, s time.Duration
		for i, x := range rs {
			d := time.Duration(x) * time.Millisecond
			if i%2 == 0 {
				r += d
			} else {
				s += d
			}
			p.interactUpdate(&r, &s)
			if r < 0 || s < 0 {
				return false
			}
			// History must never exceed twice the window.
			if r+s > 2*p.SlpRunMax {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestSpinnerBecomesBatchSleeperStaysInteractive(t *testing.T) {
	m, s := newMachine(DefaultParams(), topo.SingleCore(), 1)
	spin := m.StartThread("spin", "a", 0, &looper{burst: time.Millisecond})
	slp := m.StartThread("slp", "b", 0, &sleeper{run: 100 * time.Microsecond, sleep: 10 * time.Millisecond})
	m.Run(10 * time.Second)
	if sc := s.Score(spin); sc <= 50 {
		t.Fatalf("spinner score = %d, want > 50 (batch)", sc)
	}
	if sc := s.Score(slp); sc > DefaultParams().InteractThresh {
		t.Fatalf("sleeper score = %d, want <= 30 (interactive)", sc)
	}
	if s.Interactive(spin) {
		t.Fatal("spinner classified interactive")
	}
	if !s.Interactive(slp) {
		t.Fatal("sleeper classified batch")
	}
}

// TestInteractiveStarvesBatch is the paper's core §5.1 result in miniature:
// interactive threads that saturate the core starve batch threads without
// bound.
func TestInteractiveStarvesBatch(t *testing.T) {
	m, _ := newMachine(DefaultParams(), topo.SingleCore(), 1)
	fibo := m.StartThread("fibo", "fibo", 0, &looper{burst: time.Millisecond})
	// Warm up fibo so it is batch.
	m.Run(3 * time.Second)
	// 20 "interactive" threads that collectively saturate the core: each
	// sleeps 4ms then runs 1ms: with 20 of them the demand is ≥ 1 core,
	// but each still sleeps ≥ 60% of its window because they queue behind
	// each other (queue wait is neither sleep nor run).
	for i := 0; i < 20; i++ {
		m.StartThread("svc", "db", 0, &sleeper{run: time.Millisecond, sleep: 4 * time.Millisecond})
	}
	fiboBefore := fibo.RunTime
	m.Run(m.Now() + 5*time.Second)
	starved := fibo.RunTime - fiboBefore
	if starved > 250*time.Millisecond {
		t.Fatalf("fibo got %v of 5s under interactive load; ULE should starve it", starved)
	}
}

// TestCFSStyleFairnessAmongBatch: batch threads share the core round-robin.
func TestBatchFairness(t *testing.T) {
	m, _ := newMachine(DefaultParams(), topo.SingleCore(), 1)
	a := m.StartThread("a", "app", 0, &looper{burst: time.Millisecond})
	b := m.StartThread("b", "app", 0, &looper{burst: time.Millisecond})
	m.Run(10 * time.Second)
	ratio := float64(a.RunTime) / float64(a.RunTime+b.RunTime)
	if ratio < 0.40 || ratio > 0.60 {
		t.Fatalf("batch share = %v, want ~0.5", ratio)
	}
}

func TestNoWakeupPreemption(t *testing.T) {
	m, _ := newMachine(DefaultParams(), topo.SingleCore(), 1)
	m.StartThread("hog", "a", 0, &looper{burst: 50 * time.Millisecond})
	m.StartThread("inter", "b", 0, &sleeper{run: 100 * time.Microsecond, sleep: 5 * time.Millisecond})
	m.Run(5 * time.Second)
	if got := m.Counts.Preemptions; got != 0 {
		t.Fatalf("ULE produced %d wakeup preemptions; full preemption is disabled", got)
	}
}

func TestFullPreemptAblation(t *testing.T) {
	p := DefaultParams()
	p.FullPreempt = true
	m, _ := newMachine(p, topo.SingleCore(), 1)
	m.StartThread("hog", "a", 0, &looper{burst: 50 * time.Millisecond})
	m.StartThread("inter", "b", 0, &sleeper{run: 100 * time.Microsecond, sleep: 5 * time.Millisecond})
	m.Run(5 * time.Second)
	if got := m.Counts.Preemptions; got == 0 {
		t.Fatal("FullPreempt ablation produced no preemptions")
	}
}

func TestTimesliceDividedByLoad(t *testing.T) {
	p := DefaultParams()
	s := New(p)
	q := &tdq{}
	q.load = 1
	if got := s.sliceFor(q); got != 10 {
		t.Fatalf("slice(load 1) = %d ticks", got)
	}
	q.load = 3 // two others → 10/2
	if got := s.sliceFor(q); got != 5 {
		t.Fatalf("slice(load 3) = %d ticks", got)
	}
	q.load = 16
	if got := s.sliceFor(q); got != 1 {
		t.Fatalf("slice(load 16) = %d ticks, want floor 1", got)
	}
}

func TestOneThreadPerCorePlacement(t *testing.T) {
	// The MG mechanism: N spinners on N cores — ULE places one per core
	// and never migrates them again.
	m, _ := newMachine(DefaultParams(), topo.Default(), 1)
	for i := 0; i < 32; i++ {
		m.StartThread("mg", "mg", 0, &looper{burst: time.Millisecond})
	}
	m.Run(5 * time.Second)
	for i, n := range m.RunnableCounts() {
		if n != 1 {
			t.Fatalf("core %d has %d threads: %v", i, n, m.RunnableCounts())
		}
	}
	// After the initial placement there is nothing to migrate.
	if migs := m.Counts.Migrations; migs > 4 {
		t.Fatalf("ULE migrated %d times on a static balanced workload", migs)
	}
}

func TestIdleStealTakesOneEach(t *testing.T) {
	m, _ := newMachine(DefaultParams(), topo.Small(), 1)
	// 16 spinners pinned to core 0; unpin → each idle core steals one, the
	// periodic balancer evens the rest over time.
	var ths []*sim.Thread
	for i := 0; i < 16; i++ {
		ths = append(ths, m.StartThreadCfg(sim.ThreadConfig{
			Name: "s", Group: "spin", Pinned: []int{0},
			Prog: &looper{burst: 10 * time.Millisecond},
		}))
	}
	m.Run(time.Second)
	for _, th := range ths {
		m.SetPinned(th, nil)
	}
	m.Run(m.Now() + 100*time.Millisecond)
	counts := m.RunnableCounts()
	// 7 idle cores steal exactly one each shortly after unpinning.
	for i := 1; i < 8; i++ {
		if counts[i] != 1 {
			t.Fatalf("core %d stole %d, want exactly 1: %v", i, counts[i], counts)
		}
	}
	if counts[0] != 16-7 {
		t.Fatalf("core 0 kept %d, want 9: %v", counts[0], counts)
	}
	// The long-run balancer converges to 2 per core, one migration per
	// invocation.
	m.Run(m.Now() + 30*time.Second)
	counts = m.RunnableCounts()
	for i, n := range counts {
		if n != 2 {
			t.Fatalf("core %d has %d after long balancing: %v", i, n, counts)
		}
	}
}

func TestBalancerMovesOneThreadPerInvocation(t *testing.T) {
	m, _ := newMachine(DefaultParams(), topo.Small(), 1)
	var ths []*sim.Thread
	for i := 0; i < 24; i++ {
		ths = append(ths, m.StartThreadCfg(sim.ThreadConfig{
			Name: "s", Group: "spin", Pinned: []int{0},
			Prog: &looper{burst: 10 * time.Millisecond},
		}))
	}
	m.Run(500 * time.Millisecond)
	for _, th := range ths {
		m.SetPinned(th, nil)
	}
	m.Run(m.Now() + 20*time.Second)
	// Steals: 7 (one per idle core). After that, only the balancer moves
	// threads: migrations - steals ≤ invocations (it can move at most one
	// per invocation: core 0 is the only donor).
	steals := m.Counters.Value("ule.steals")
	migs := m.Counts.Migrations
	invocations := m.Counters.Value("ule.balance_invocations")
	if steals != 7 {
		t.Fatalf("steals = %d, want 7", steals)
	}
	if migs-steals > invocations {
		t.Fatalf("balancer moved %d threads in %d invocations", migs-steals, invocations)
	}
	if invocations < 10 {
		t.Fatalf("balancer ran only %d times in 20s", invocations)
	}
}

func TestBalancerBugAblation(t *testing.T) {
	p := DefaultParams()
	p.FixBalancerBug = false
	m, _ := newMachine(p, topo.Small(), 1)
	var ths []*sim.Thread
	for i := 0; i < 24; i++ {
		ths = append(ths, m.StartThreadCfg(sim.ThreadConfig{
			Name: "s", Group: "spin", Pinned: []int{0},
			Prog: &looper{burst: 10 * time.Millisecond},
		}))
	}
	m.Run(100 * time.Millisecond)
	for _, th := range ths {
		m.SetPinned(th, nil)
	}
	m.Run(m.Now() + 20*time.Second)
	if n := m.Counters.Value("ule.balance_invocations"); n != 0 {
		t.Fatalf("stock-bug mode ran the balancer %d times", n)
	}
	// Idle steal still works (7 steals), but core 0 keeps the rest forever.
	counts := m.RunnableCounts()
	if counts[0] != 24-7 {
		t.Fatalf("with the balancer bug core 0 should keep %d threads: %v", 24-7, counts)
	}
}

func TestForkInheritsInteractivity(t *testing.T) {
	m, s := newMachine(DefaultParams(), topo.SingleCore(), 1)
	var child *sim.Thread
	// Parent burns CPU for 4s, then forks: child must inherit a batch
	// classification.
	burned := false
	m.StartThread("parent", "app", 0, programFunc(func(ctx *sim.Ctx) sim.Op {
		if !burned {
			burned = true
			return sim.Run(4 * time.Second)
		}
		if child == nil {
			child = ctx.Fork("child", "app", 0, &looper{burst: time.Millisecond})
		}
		return sim.Run(10 * time.Millisecond)
	}))
	m.RunUntil(func() bool { return child != nil }, 20*time.Second)
	if child == nil {
		t.Fatal("never forked")
	}
	if s.Interactive(child) {
		t.Fatalf("child of CPU-burning parent classified interactive (score %d)", s.Score(child))
	}
}

func TestExitRefundsRuntimeToParent(t *testing.T) {
	m, s := newMachine(DefaultParams(), topo.SingleCore(), 1)
	var parent *sim.Thread
	state := 0
	parent = m.StartThread("parent", "app", 0, programFunc(func(ctx *sim.Ctx) sim.Op {
		switch state {
		case 0:
			state = 1
			// Sleep a lot first: strongly interactive parent.
			return sim.Sleep(4 * time.Second)
		case 1:
			state = 2
			ctx.Fork("child", "app", 0, &looper{burst: 500 * time.Millisecond})
			// Child will burn CPU; parent sleeps meanwhile.
			return sim.Sleep(2 * time.Second)
		default:
			return sim.Sleep(500 * time.Millisecond)
		}
	}))
	// Kill the child after it burned ~1.5s.
	m.RunUntil(func() bool { return state == 2 }, 20*time.Second)
	var child *sim.Thread
	for _, th := range m.Threads() {
		if th.Name == "child" {
			child = th
		}
	}
	if child == nil {
		t.Fatal("no child")
	}
	before := s.Score(parent)
	m.Run(m.Now() + 1500*time.Millisecond)
	// Make the child exit by replacing its behaviour: simplest is to let
	// it keep running and kill via exit op — use a direct approach: wake
	// parent's score check after child's natural death is not possible
	// (looper never exits), so emulate the refund directly.
	d := s.td(child)
	s.syncAccounting(child, d)
	s.Exit(child)
	after := s.Score(parent)
	if after <= before {
		t.Fatalf("parent score did not rise after batch child exit: %d -> %d", before, after)
	}
}

func TestWakeupPrevCPUAblationSkipsScans(t *testing.T) {
	p := DefaultParams()
	p.WakeupPrevCPUOnly = true
	cost := sim.CostModel{PerCoreScanCost: time.Microsecond}
	s := New(p)
	m := sim.NewMachine(topo.Default(), s, sim.Options{Seed: 1, Cost: &cost})
	for i := 0; i < 16; i++ {
		m.StartThread("svc", "db", 0, &sleeper{run: time.Millisecond, sleep: 3 * time.Millisecond})
	}
	m.Run(2 * time.Second)
	scans := m.Counters.Value("ule.scan_cores")
	// Only fork-time placements scan; wakeups must not.
	if scans > 16*40 {
		t.Fatalf("prev-CPU ablation still scanned %d cores", scans)
	}
}

func TestWakeupScansCostCycles(t *testing.T) {
	cost := sim.CostModel{PerCoreScanCost: time.Microsecond}
	s := New(DefaultParams())
	m := sim.NewMachine(topo.Default(), s, sim.Options{Seed: 1, Cost: &cost})
	for i := 0; i < 64; i++ {
		m.StartThread("svc", "db", 0, &sleeper{run: time.Millisecond, sleep: 3 * time.Millisecond})
	}
	m.Run(2 * time.Second)
	if scans := m.Counters.Value("ule.scan_cores"); scans == 0 {
		t.Fatal("no scan cost accounted")
	}
	var sched time.Duration
	for _, c := range m.Cores {
		sched += c.SchedTime
	}
	if sched == 0 {
		t.Fatal("no scheduler time charged")
	}
}

func TestDeterminism(t *testing.T) {
	run := func() time.Duration {
		m, _ := newMachine(DefaultParams(), topo.Default(), 77)
		for i := 0; i < 20; i++ {
			m.StartThread("w", "app", 0, &sleeper{run: time.Millisecond, sleep: 3 * time.Millisecond})
		}
		for i := 0; i < 10; i++ {
			m.StartThread("s", "spin", 0, &looper{burst: 2 * time.Millisecond})
		}
		m.Run(3 * time.Second)
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

func TestPriorityBands(t *testing.T) {
	p := DefaultParams()
	pri, inter := p.priority(0, 0, 0)
	if !inter || pri != PriMinInteract {
		t.Fatalf("score 0 → pri %d interactive=%v", pri, inter)
	}
	pri, inter = p.priority(30, 0, 0)
	if !inter || pri != PriMaxInteract {
		t.Fatalf("score 30 → pri %d interactive=%v", pri, inter)
	}
	pri, inter = p.priority(31, time.Second, 0)
	if inter || pri < PriMinBatch || pri > PriMaxBatch {
		t.Fatalf("score 31 → pri %d interactive=%v", pri, inter)
	}
	// More runtime → lower priority (higher number).
	p1, _ := p.priority(80, time.Second, 0)
	p2, _ := p.priority(80, 4*time.Second, 0)
	if p2 <= p1 {
		t.Fatalf("batch priority did not degrade with runtime: %d vs %d", p1, p2)
	}
	// Nice shifts batch priority.
	pn, _ := p.priority(80, time.Second, 10)
	if pn <= p1 {
		t.Fatalf("nice did not degrade batch priority: %d vs %d", p1, pn)
	}
}
