package sim

import (
	"testing"
	"time"
	"unsafe"

	"repro/internal/topo"
)

// script is a test program executing a fixed list of ops, then exiting.
type script struct {
	ops []Op
	i   int
	// hooks run before the op at the same index is returned.
	hooks map[int]func(*Ctx)
}

func (s *script) Next(ctx *Ctx) Op {
	if s.hooks != nil {
		if h, ok := s.hooks[s.i]; ok {
			h(ctx)
		}
	}
	if s.i >= len(s.ops) {
		return Exit()
	}
	op := s.ops[s.i]
	s.i++
	return op
}

// looper runs bursts of the given length forever.
type looper struct{ burst time.Duration }

func (l *looper) Next(ctx *Ctx) Op { return Run(l.burst) }

// fireFunc adapts a plain func to a Timer.
type fireFunc func()

func (f fireFunc) Fire(*Machine) { f() }

// programFunc adapts a plain func to a Program.
type programFunc func(*Ctx) Op

func (f programFunc) Next(ctx *Ctx) Op { return f(ctx) }

// ticker re-arms itself every period until it has fired limit times, or
// forever when limit is 0.
type ticker struct {
	period       time.Duration
	fired, limit int
}

func (k *ticker) Fire(m *Machine) {
	k.fired++
	if k.limit == 0 || k.fired < k.limit {
		m.At(m.Now()+k.period, k)
	}
}

func newTestMachine(t *testing.T, tp *topo.Topology) *Machine {
	t.Helper()
	return NewMachine(tp, NewFIFO(), Options{Seed: 7, Cost: &CostModel{}})
}

func TestSingleThreadRunsAndExits(t *testing.T) {
	m := newTestMachine(t, topo.SingleCore())
	th := m.StartThread("worker", "app", 0, &script{ops: []Op{Run(5 * time.Millisecond), Run(3 * time.Millisecond)}})
	m.Run(time.Second)
	if th.State() != StateDead {
		t.Fatalf("state = %v, want dead", th.State())
	}
	if got, want := th.RunTime, 8*time.Millisecond; got != want {
		t.Fatalf("RunTime = %v, want %v", got, want)
	}
	if m.LiveThreads() != 0 {
		t.Fatalf("LiveThreads = %d", m.LiveThreads())
	}
	if m.Counts.Exits != 1 {
		t.Fatal("missing exit trace")
	}
}

func TestSleepAccountsSleepTime(t *testing.T) {
	m := newTestMachine(t, topo.SingleCore())
	th := m.StartThread("sleepy", "app", 0, &script{ops: []Op{
		Run(time.Millisecond),
		Sleep(50 * time.Millisecond),
		Run(time.Millisecond),
	}})
	m.Run(time.Second)
	if th.State() != StateDead {
		t.Fatalf("state = %v", th.State())
	}
	if got := th.SleepTime; got != 50*time.Millisecond {
		t.Fatalf("SleepTime = %v, want 50ms", got)
	}
	if got := th.RunTime; got != 2*time.Millisecond {
		t.Fatalf("RunTime = %v, want 2ms", got)
	}
}

func TestBlockAndSignal(t *testing.T) {
	m := newTestMachine(t, topo.SingleCore())
	wq := NewWaitQueue()
	waiter := m.StartThread("waiter", "app", 0, &script{ops: []Op{Block(wq), Run(time.Millisecond)}})
	m.StartThread("signaler", "app", 0, &script{ops: []Op{Run(10 * time.Millisecond)}, hooks: map[int]func(*Ctx){
		1: func(ctx *Ctx) { ctx.Signal(wq, 1) }, // after the run burst
	}})
	// The hook at index 1 fires when the signaler asks for its second op,
	// i.e. 10ms in (after waiter blocked).
	m.Run(time.Second)
	if waiter.State() != StateDead {
		t.Fatalf("waiter state = %v", waiter.State())
	}
	// Waiter slept from ~0 to ~10ms.
	if waiter.SleepTime < 9*time.Millisecond || waiter.SleepTime > 11*time.Millisecond {
		t.Fatalf("waiter SleepTime = %v, want ~10ms", waiter.SleepTime)
	}
}

func TestWakeOnTimedSleepCancelsTimer(t *testing.T) {
	m := newTestMachine(t, topo.SingleCore())
	var sleeper *Thread
	sleeper = m.StartThread("s", "app", 0, &script{ops: []Op{
		Sleep(time.Hour), // would sleep forever
		Run(time.Millisecond),
	}})
	m.At(5*time.Millisecond, fireFunc(func() { m.Wake(sleeper) }))
	m.Run(time.Second)
	if sleeper.State() != StateDead {
		t.Fatalf("sleeper state = %v, want dead (woken early)", sleeper.State())
	}
	if sleeper.SleepTime > 6*time.Millisecond {
		t.Fatalf("SleepTime = %v, want ~5ms", sleeper.SleepTime)
	}
}

func TestSpinReleasedByBroadcast(t *testing.T) {
	m := newTestMachine(t, topo.MustNew(topo.Config{NUMANodes: 1, LLCsPerNode: 1, CoresPerLLC: 2}))
	wq := NewWaitQueue()
	spinner := m.StartThread("spinner", "app", 0, &script{ops: []Op{
		Spin(wq, time.Hour), // would spin for an hour
		Run(time.Millisecond),
	}})
	m.StartThread("releaser", "app", 0, &script{ops: []Op{Run(20 * time.Millisecond)}, hooks: map[int]func(*Ctx){
		1: func(ctx *Ctx) { ctx.Broadcast(wq) },
	}})
	m.Run(time.Second)
	if spinner.State() != StateDead {
		t.Fatalf("spinner state = %v", spinner.State())
	}
	// Spinner burned ~20ms spinning (both on separate cores) + 1ms run.
	if spinner.RunTime < 19*time.Millisecond || spinner.RunTime > 22*time.Millisecond {
		t.Fatalf("spinner RunTime = %v, want ~21ms", spinner.RunTime)
	}
	if wq.Spinners() != 0 {
		t.Fatal("spinner not deregistered")
	}
}

func TestSpinTimeoutCompletes(t *testing.T) {
	m := newTestMachine(t, topo.SingleCore())
	wq := NewWaitQueue()
	th := m.StartThread("s", "app", 0, &script{ops: []Op{
		Spin(wq, 5*time.Millisecond),
		Run(time.Millisecond),
	}})
	m.Run(time.Second)
	if th.State() != StateDead {
		t.Fatalf("state = %v", th.State())
	}
	if th.RunTime != 6*time.Millisecond {
		t.Fatalf("RunTime = %v, want 6ms", th.RunTime)
	}
}

// spinLogger spins on wq until released, then logs its name, runs
// onRelease (if any) and exits.
type spinLogger struct {
	name      string
	wq        *WaitQueue
	log       *[]string
	onRelease func(*Ctx)
	spun      bool
}

func (p *spinLogger) Next(ctx *Ctx) Op {
	if !p.spun {
		p.spun = true
		return Spin(p.wq, time.Hour)
	}
	*p.log = append(*p.log, p.name)
	if p.onRelease != nil {
		p.onRelease(ctx)
	}
	return Exit()
}

// TestBroadcastSpinnersAllocFree: releasing running spinners takes its
// snapshot on the machine's scratch stack, so a Broadcast allocates
// nothing, and a Broadcast nested inside a released spinner's program
// finishes its own queue before the outer one resumes its snapshot in
// order.
func TestBroadcastSpinnersAllocFree(t *testing.T) {
	t.Run("alloc", func(t *testing.T) {
		m := newTestMachine(t, topo.Small())
		wq := NewWaitQueue()
		released := 0
		for i := 0; i < 3; i++ {
			m.StartThreadCfg(ThreadConfig{Name: "spin", Group: "app", Pinned: []int{i},
				Prog: programFunc(func(*Ctx) Op {
					released++
					return Spin(wq, 500*time.Microsecond)
				})})
		}
		cycle := func() {
			m.Broadcast(wq)
			m.Run(m.Now() + time.Millisecond)
		}
		for i := 0; i < 20; i++ {
			cycle()
		}
		before := released
		if avg := testing.AllocsPerRun(50, cycle); avg != 0 {
			t.Errorf("Broadcast releasing %d running spinners: %.1f allocations per cycle, want 0", wq.Spinners(), avg)
		}
		// 51 cycles of one broadcast (3 releases) and two budget expiries.
		if got, want := released-before, 51*3*3; got != want {
			t.Fatalf("%d spins started over 51 cycles, want %d: the spinners are not all running", got, want)
		}
	})
	t.Run("nested", func(t *testing.T) {
		m := newTestMachine(t, topo.Small())
		a, b := NewWaitQueue(), NewWaitQueue()
		var log []string
		start := func(name string, core int, wq *WaitQueue, onRelease func(*Ctx)) {
			m.StartThreadCfg(ThreadConfig{Name: name, Group: "app", Pinned: []int{core},
				Prog: &spinLogger{name: name, wq: wq, log: &log, onRelease: onRelease}})
		}
		start("a1", 0, a, func(ctx *Ctx) { ctx.Broadcast(b) })
		start("a2", 1, a, nil)
		start("a3", 2, a, nil)
		start("b1", 3, b, nil)
		start("b2", 4, b, nil)
		start("b3", 5, b, nil)
		m.Run(time.Millisecond)
		m.Broadcast(a)
		want := []string{"a1", "b1", "b2", "b3", "a2", "a3"}
		if len(log) != len(want) {
			t.Fatalf("released %v, want %v", log, want)
		}
		for i := range want {
			if log[i] != want[i] {
				t.Fatalf("released %v, want %v", log, want)
			}
		}
		if a.Spinners() != 0 || b.Spinners() != 0 || len(m.spinScratch) != 0 {
			t.Fatalf("after release: %d + %d spinners registered, scratch depth %d", a.Spinners(), b.Spinners(), len(m.spinScratch))
		}
	})
}

func TestForkRunsChild(t *testing.T) {
	m := newTestMachine(t, topo.SingleCore())
	var child *Thread
	m.StartThread("parent", "app", 0, &script{
		ops: []Op{Run(time.Millisecond), Run(time.Millisecond)},
		hooks: map[int]func(*Ctx){1: func(ctx *Ctx) {
			child = ctx.Fork("child", "app", 0, &script{ops: []Op{Run(2 * time.Millisecond)}})
		}},
	})
	m.Run(time.Second)
	if child == nil || child.State() != StateDead {
		t.Fatalf("child = %v", child)
	}
	if child.Parent == nil || child.Parent.Name != "parent" {
		t.Fatal("child parent not set")
	}
	if child.RunTime != 2*time.Millisecond {
		t.Fatalf("child RunTime = %v", child.RunTime)
	}
	// Two fork records: the root StartThread and the Ctx.Fork child.
	if got := m.Counts.Forks; got != 2 {
		t.Fatalf("fork trace count = %d, want 2", got)
	}
}

func TestRoundRobinFairnessOnOneCore(t *testing.T) {
	m := newTestMachine(t, topo.SingleCore())
	a := m.StartThread("a", "app", 0, &looper{burst: time.Millisecond})
	b := m.StartThread("b", "app", 0, &looper{burst: time.Millisecond})
	m.Run(2 * time.Second)
	total := a.RunTime + b.RunTime
	if total < 1900*time.Millisecond {
		t.Fatalf("total runtime = %v, core was idle", total)
	}
	ratio := float64(a.RunTime) / float64(total)
	if ratio < 0.45 || ratio > 0.55 {
		t.Fatalf("share of a = %v, want ~0.5 (a=%v b=%v)", ratio, a.RunTime, b.RunTime)
	}
}

func TestIdleStealSpreadsLoad(t *testing.T) {
	m := newTestMachine(t, topo.MustNew(topo.Config{NUMANodes: 1, LLCsPerNode: 1, CoresPerLLC: 4}))
	// Pin 4 spinners to core 0 from birth, then unpin; idle cores steal.
	var ths []*Thread
	for i := 0; i < 4; i++ {
		th := m.StartThreadCfg(ThreadConfig{
			Name: "s", Group: "app", Pinned: []int{0},
			Prog: &looper{burst: time.Millisecond},
		})
		ths = append(ths, th)
	}
	m.Run(50 * time.Millisecond)
	for _, th := range ths {
		m.SetPinned(th, nil)
	}
	m.Run(200 * time.Millisecond)
	counts := m.RunnableCounts()
	for i, n := range counts {
		if n != 1 {
			t.Fatalf("core %d has %d runnable, want 1 (counts=%v)", i, n, counts)
		}
	}
	if m.Counts.Steals == 0 {
		t.Fatal("no steals traced")
	}
}

func TestDeterminismSameSeed(t *testing.T) {
	run := func() (time.Duration, uint64) {
		m := NewMachine(topo.Small(), NewFIFO(), Options{Seed: 99})
		for i := 0; i < 6; i++ {
			m.StartThread("w", "app", 0, &script{ops: []Op{
				Run(3 * time.Millisecond), Sleep(time.Millisecond),
				Run(2 * time.Millisecond), Run(time.Millisecond),
			}})
		}
		m.Run(time.Second)
		var total time.Duration
		for _, th := range m.Threads() {
			total += th.RunTime
		}
		return total, m.Counts.Switches
	}
	r1, s1 := run()
	r2, s2 := run()
	if r1 != r2 || s1 != s2 {
		t.Fatalf("non-deterministic: (%v,%d) vs (%v,%d)", r1, s1, r2, s2)
	}
}

func TestCostModelChargesSwitchCost(t *testing.T) {
	cost := CostModel{SwitchCost: 100 * time.Microsecond}
	m := NewMachine(topo.SingleCore(), NewFIFO(), Options{Seed: 1, Cost: &cost})
	m.StartThread("a", "app", 0, &looper{burst: time.Millisecond})
	m.StartThread("b", "app", 0, &looper{burst: time.Millisecond})
	m.Run(time.Second)
	c := m.Cores[0]
	if c.SchedTime == 0 {
		t.Fatal("no scheduler time charged")
	}
	if c.SchedFraction() < 0.001 {
		t.Fatalf("SchedFraction = %v", c.SchedFraction())
	}
	// Busy + sched should fill the second (no idle on a contended core).
	total := c.BusyTime + c.SchedTime
	if total < 990*time.Millisecond {
		t.Fatalf("busy+sched = %v", total)
	}
}

func TestMigrationPenaltyAppliedAcrossLLC(t *testing.T) {
	cost := CostModel{MigrationPenalty: time.Millisecond}
	tp := topo.MustNew(topo.Config{NUMANodes: 2, LLCsPerNode: 1, CoresPerLLC: 1})
	m := NewMachine(tp, NewFIFO(), Options{Seed: 1, Cost: &cost})
	// Two spinners pinned to core 0; unpin one so core 1 steals it across
	// the LLC boundary.
	a := m.StartThreadCfg(ThreadConfig{Name: "a", Group: "app", Pinned: []int{0}, Prog: &looper{burst: time.Millisecond}})
	b := m.StartThreadCfg(ThreadConfig{Name: "b", Group: "app", Pinned: []int{0}, Prog: &looper{burst: time.Millisecond}})
	m.Run(10 * time.Millisecond)
	m.SetPinned(b, nil)
	m.Run(100 * time.Millisecond)
	if m.Counts.Migrations == 0 {
		t.Fatal("no migration happened")
	}
	_ = a
}

func TestRunUntilPredicate(t *testing.T) {
	m := newTestMachine(t, topo.SingleCore())
	th := m.StartThread("w", "app", 0, &script{ops: []Op{Run(30 * time.Millisecond)}})
	ok := m.RunUntil(func() bool { return th.State() == StateDead }, time.Second)
	if !ok {
		t.Fatal("predicate not satisfied")
	}
	if m.Now() > 40*time.Millisecond {
		t.Fatalf("ran too long: %v", m.Now())
	}
	// Unsatisfiable predicate times out at max.
	ok = m.RunUntil(func() bool { return false }, 50*time.Millisecond)
	if ok {
		t.Fatal("predicate mysteriously satisfied")
	}
}

func TestEveryRepeatsUntilFalse(t *testing.T) {
	m := newTestMachine(t, topo.SingleCore())
	k := &ticker{period: 10 * time.Millisecond, limit: 5}
	m.At(10*time.Millisecond, k)
	m.Run(time.Second)
	if k.fired != 5 {
		t.Fatalf("fired %d times, want 5", k.fired)
	}
}

func TestZeroOpGuardPanics(t *testing.T) {
	m := newTestMachine(t, topo.SingleCore())
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for stuck program")
		}
	}()
	m.StartThread("stuck", "app", 0, programFunc(func(ctx *Ctx) Op { return Run(0) }))
	m.Run(time.Second)
}

func TestWakeRunningIsNoop(t *testing.T) {
	m := newTestMachine(t, topo.SingleCore())
	th := m.StartThread("w", "app", 0, &script{ops: []Op{Run(10 * time.Millisecond)}})
	m.At(time.Millisecond, fireFunc(func() { m.Wake(th) })) // running: no-op
	m.Run(time.Second)
	if th.RunTime != 10*time.Millisecond {
		t.Fatalf("RunTime = %v", th.RunTime)
	}
}

func TestPinnedThreadStaysPut(t *testing.T) {
	m := newTestMachine(t, topo.Small())
	th := m.StartThread("pinned", "app", 0, &script{ops: []Op{
		Run(time.Millisecond), Sleep(time.Millisecond),
		Run(time.Millisecond), Sleep(time.Millisecond),
		Run(time.Millisecond),
	}})
	m.SetPinned(th, []int{3})
	// Give it load elsewhere so placement would prefer other cores.
	for i := 0; i < 4; i++ {
		m.StartThread("bg", "app", 0, &looper{burst: time.Millisecond})
	}
	m.Run(time.Second)
	if th.State() != StateDead {
		t.Fatalf("state = %v", th.State())
	}
	// Its last core must be 3 — the only allowed one after pinning. (The
	// first placement happened before SetPinned, so check LastCore only.)
	if th.LastCore == nil {
		t.Fatal("never ran")
	}
}

// tickRec is one recorded scheduler tick: when it fired and whether the
// core was busy.
type tickRec struct {
	at   time.Duration
	busy bool
}

// tickLogFIFO is FIFO logging every Tick invocation per core.
type tickLogFIFO struct {
	*FIFO
	ticks [][]tickRec
}

func (s *tickLogFIFO) Attach(m *Machine) {
	s.FIFO.Attach(m)
	s.ticks = make([][]tickRec, len(m.Cores))
}

func (s *tickLogFIFO) Tick(c *Core, curr *Thread) {
	s.ticks[c.ID] = append(s.ticks[c.ID], tickRec{at: c.Machine().Now(), busy: curr != nil})
	s.FIFO.Tick(c, curr)
}

// busyTicks filters a core's recorded ticks to those with a running thread.
func busyTicks(recs []tickRec) []time.Duration {
	var out []time.Duration
	for _, r := range recs {
		if r.busy {
			out = append(out, r.at)
		}
	}
	return out
}

// checkTickGrid asserts core id ticked at every point of its staggered grid
// up to end and nowhere else, and that the busy ones are exactly want.
func checkTickGrid(t *testing.T, s *tickLogFIFO, id, cores int, end time.Duration, want []time.Duration) {
	t.Helper()
	period := s.TickPeriod()
	at := period*time.Duration(id)/time.Duration(cores) + period
	for i, r := range s.ticks[id] {
		if r.at != at {
			t.Fatalf("core %d tick %d at %v, want %v", id, i, r.at, at)
		}
		at += period
	}
	if at <= end {
		t.Fatalf("core %d stopped ticking: next grid point %v <= %v", id, at, end)
	}
	got := busyTicks(s.ticks[id])
	if len(got) != len(want) {
		t.Fatalf("core %d busy ticks = %v, want %v", id, got, want)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("core %d busy ticks = %v, want %v", id, got, want)
		}
	}
}

// TestTickGridPreservedAcrossIdle pins the tick grid through idle periods:
// a core that idles mid-period and wakes later keeps ticking on its own
// staggered grid, idle or busy, and which ticks find it busy follows from
// same-timestamp event order. Core 1's 1 ms grid is staggered by 0.5 ms;
// each scenario wakes exactly on a grid point, from both sides of that
// order: a sleep armed before the previous grid point loses to the standing
// tick (which therefore fires busy, after the wake), while a sleep armed at
// or after it fires first — there the tick runs idle before the wake. Both
// event engines must agree.
func TestTickGridPreservedAcrossIdle(t *testing.T) {
	ms := time.Millisecond
	us := time.Microsecond
	cases := []struct {
		name string
		ops  []Op
		want []time.Duration // expected core-1 busy ticks
	}{
		{
			name: "sleep-armed-before-previous-grid-point",
			// Idle 2.5..9.5 ms; the sleep was armed at 2.5 < 8.5, so the
			// wake at 9.5 observes a busy tick at 9.5, then 10.5..13.5.
			ops:  []Op{Run(2500 * us), Sleep(7 * ms), Run(5 * ms)},
			want: []time.Duration{1500 * us, 9500 * us, 10500 * us, 11500 * us, 12500 * us, 13500 * us},
		},
		{
			name: "sleep-armed-after-previous-grid-point",
			// Idle 2.7..3.5 ms; the sleep was armed at 2.7 > 2.5, so the
			// tick at 3.5 fires idle before the wake — no busy tick at the
			// wake instant, next at 4.5.
			ops:  []Op{Run(2700 * us), Sleep(800 * us), Run(2 * ms)},
			want: []time.Duration{1500 * us, 2500 * us, 4500 * us},
		},
		{
			name: "sleep-armed-exactly-at-previous-grid-point",
			// The burst ends exactly on the 2.5 ms grid point, before the
			// tick standing there (armed at 1.5; the burst end at 0), and
			// arms a one-period sleep: that wake is older than the tick
			// re-armed at 2.5 for 3.5, which therefore fires busy.
			ops:  []Op{Run(2500 * us), Sleep(1 * ms), Run(3 * ms)},
			want: []time.Duration{1500 * us, 3500 * us, 4500 * us, 5500 * us},
		},
	}
	tp := topo.MustNew(topo.Config{NUMANodes: 1, LLCsPerNode: 1, CoresPerLLC: 2})
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			for _, heap := range []bool{false, true} {
				s := &tickLogFIFO{FIFO: NewFIFO()}
				m := newMachineOn(heap, tp, s, Options{Seed: 7, Cost: &CostModel{}})
				m.StartThreadCfg(ThreadConfig{Name: "busy", Group: "app", Pinned: []int{0},
					Prog: &looper{burst: time.Millisecond}})
				m.StartThreadCfg(ThreadConfig{Name: "onoff", Group: "app", Pinned: []int{1},
					Prog: &script{ops: tc.ops}})
				m.Run(20 * ms)
				checkTickGrid(t, s, 1, 2, 20*ms, tc.want)
			}
		})
	}
}

// TestTickGridAfterOutOfDispatchStart: a thread started between Run
// windows, at an instant that lands exactly on the tick grid, does not gain
// a busy tick at that instant — the tick there already fired idle, inside
// the previous Run, before the thread existed.
func TestTickGridAfterOutOfDispatchStart(t *testing.T) {
	for _, heap := range []bool{false, true} {
		s := &tickLogFIFO{FIFO: NewFIFO()}
		m := newMachineOn(heap, topo.SingleCore(), s, Options{Seed: 3, Cost: &CostModel{}})
		m.StartThread("a", "app", 0, &script{ops: []Op{Run(500 * time.Microsecond)}})
		m.Run(3 * time.Millisecond) // a exits at 0.5ms; the machine idles to 3ms
		m.StartThread("b", "app", 0, &script{ops: []Op{Run(1500 * time.Microsecond)}})
		m.Run(6 * time.Millisecond)
		// b runs 3..4.5ms on the 1ms grid: the only busy tick is at 4ms.
		checkTickGrid(t, s, 0, 1, 6*time.Millisecond, []time.Duration{4 * time.Millisecond})
	}
}

// TestIdleMachineTicksEveryCore: with no work at all, the rotor alone
// carries the machine — every core ticks once a period on its grid, Run
// does not stall and RunUntil does not mistake "only ticks pending" for an
// empty machine.
func TestIdleMachineTicksEveryCore(t *testing.T) {
	for _, heap := range []bool{false, true} {
		s := &tickLogFIFO{FIFO: NewFIFO()}
		m := newMachineOn(heap, topo.Small(), s, Options{Seed: 1})
		m.Run(time.Second)
		// Core i's grid is i/8 ms + k ms, k ≥ 1: 1000 points in (0, 1s] for
		// core 0, 999 for the seven staggered ones.
		if got, want := m.EventsProcessed(), uint64(1000+7*999); got != want {
			t.Fatalf("heap=%v: idle machine processed %d events, want %d", heap, got, want)
		}
		for id := range m.Cores {
			checkTickGrid(t, s, id, 8, time.Second, nil)
		}
		polls := 0
		if m.RunUntil(func() bool { polls++; return false }, 2*time.Second) {
			t.Fatal("unsatisfiable predicate satisfied")
		}
		if m.Now() != 2*time.Second || polls < 7000 {
			t.Fatalf("heap=%v: RunUntil stopped at %v after %d polls, want 2s and one poll per tick", heap, m.Now(), polls)
		}
	}
}

// TestHotTimerPathsAllocFree drives the burst-end / tick / sleep-wake paths
// and a self-re-arming Timer on a warmed machine and asserts the steady
// state allocates nothing.
func TestHotTimerPathsAllocFree(t *testing.T) {
	m := NewMachine(topo.Small(), NewFIFO(), Options{Seed: 5})
	for i := 0; i < 12; i++ {
		m.StartThread("w", "app", 0, &runSleeper{run: 700 * time.Microsecond, sleep: 400 * time.Microsecond})
	}
	k := &ticker{period: 300 * time.Microsecond}
	m.At(0, k)
	m.Run(250 * time.Millisecond) // settle heap, runqueue, and timer table capacity
	before := k.fired
	avg := testing.AllocsPerRun(20, func() {
		m.Run(m.Now() + 5*time.Millisecond)
	})
	if avg != 0 {
		t.Fatalf("hot timer paths allocated %.1f allocs per 5ms window, want 0", avg)
	}
	if k.fired-before < 21*16 {
		t.Fatalf("the re-arming timer fired %d times in 21 windows, want >= %d", k.fired-before, 21*16)
	}
}

// TestThreadSize pins a thread's footprint at the 224-byte size class:
// fields few threads set live behind Thread.extra, and the op state shares
// one word.
func TestThreadSize(t *testing.T) {
	if got := unsafe.Sizeof(Thread{}); got > 224 {
		t.Errorf("sizeof(Thread) = %d bytes, want <= 224", got)
	}
}

// runSleeper alternates CPU bursts and timed sleeps forever.
type runSleeper struct {
	run, sleep time.Duration
	sleeping   bool
}

func (p *runSleeper) Next(ctx *Ctx) Op {
	p.sleeping = !p.sleeping
	if p.sleeping {
		return Run(p.run)
	}
	return Sleep(p.sleep)
}

// TestEventCountIdentities checks Machine.Counts against what the engine
// can tell by other means, across the scripted FIFO runs above: every
// thread was forked once, the dead ones exited once, a preemption is a
// switch, and every steal moves its thread with Migrate.
func TestEventCountIdentities(t *testing.T) {
	two := topo.MustNew(topo.Config{NUMANodes: 1, LLCsPerNode: 1, CoresPerLLC: 2})
	four := topo.MustNew(topo.Config{NUMANodes: 1, LLCsPerNode: 1, CoresPerLLC: 4})
	runs := []struct {
		name string
		tp   *topo.Topology
		run  func(m *Machine)
	}{
		{"exit", topo.SingleCore(), func(m *Machine) {
			m.StartThread("w", "app", 0, &script{ops: []Op{Run(5 * time.Millisecond), Run(3 * time.Millisecond)}})
			m.Run(time.Second)
		}},
		{"fork", topo.SingleCore(), func(m *Machine) {
			m.StartThread("parent", "app", 0, &script{
				ops: []Op{Run(time.Millisecond), Run(time.Millisecond)},
				hooks: map[int]func(*Ctx){1: func(ctx *Ctx) {
					ctx.Fork("child", "app", 0, &script{ops: []Op{Run(2 * time.Millisecond)}})
				}},
			})
			m.Run(time.Second)
		}},
		{"round-robin", topo.SingleCore(), func(m *Machine) {
			m.StartThread("a", "app", 0, &looper{burst: time.Millisecond})
			m.StartThread("b", "app", 0, &looper{burst: time.Millisecond})
			m.Run(2 * time.Second)
		}},
		{"spin-broadcast", two, func(m *Machine) {
			wq := NewWaitQueue()
			m.StartThread("spinner", "app", 0, &script{ops: []Op{Spin(wq, time.Hour), Run(time.Millisecond)}})
			m.StartThread("releaser", "app", 0, &script{ops: []Op{Run(20 * time.Millisecond)}, hooks: map[int]func(*Ctx){
				1: func(ctx *Ctx) { ctx.Broadcast(wq) },
			}})
			m.Run(time.Second)
		}},
		{"idle-steal", four, func(m *Machine) {
			var ths []*Thread
			for i := 0; i < 4; i++ {
				ths = append(ths, m.StartThreadCfg(ThreadConfig{Name: "s", Group: "app", Pinned: []int{0}, Prog: &looper{burst: time.Millisecond}}))
			}
			m.Run(50 * time.Millisecond)
			for _, th := range ths {
				m.SetPinned(th, nil)
			}
			m.Run(200 * time.Millisecond)
		}},
		{"churn", topo.Small(), func(m *Machine) {
			for i := 0; i < 40; i++ {
				m.StartThread("w", "app", 0, &script{ops: []Op{
					Run(time.Millisecond), Sleep(2 * time.Millisecond),
					Run(time.Millisecond), Run(3 * time.Millisecond),
				}})
			}
			m.Run(5 * time.Second)
		}},
	}
	for _, r := range runs {
		m := newTestMachine(t, r.tp)
		r.run(m)
		c := m.Counts
		if c.Forks != uint64(len(m.Threads())) {
			t.Errorf("%s: Forks = %d, %d threads created", r.name, c.Forks, len(m.Threads()))
		}
		if c.Exits != c.Forks-uint64(m.LiveThreads()) {
			t.Errorf("%s: Exits = %d, want Forks %d - live %d", r.name, c.Exits, c.Forks, m.LiveThreads())
		}
		if c.Preemptions > c.Switches {
			t.Errorf("%s: Preemptions %d > Switches %d", r.name, c.Preemptions, c.Switches)
		}
		if c.Steals > c.Migrations {
			t.Errorf("%s: Steals %d > Migrations %d", r.name, c.Steals, c.Migrations)
		}
	}
}

func TestThreadConservation(t *testing.T) {
	// No thread may be lost or duplicated across heavy churn.
	m := newTestMachine(t, topo.Small())
	const n = 40
	for i := 0; i < n; i++ {
		m.StartThread("w", "app", 0, &script{ops: []Op{
			Run(time.Millisecond), Sleep(2 * time.Millisecond),
			Run(time.Millisecond), Run(3 * time.Millisecond),
		}})
	}
	m.Run(5 * time.Second)
	if m.LiveThreads() != 0 {
		t.Fatalf("LiveThreads = %d, want 0", m.LiveThreads())
	}
	for _, th := range m.Threads() {
		if th.State() != StateDead {
			t.Fatalf("thread %v not dead", th)
		}
		if th.RunTime != 5*time.Millisecond {
			t.Fatalf("thread %v RunTime = %v, want 5ms", th, th.RunTime)
		}
	}
}

// strayPick is FIFO with a broken PickNext: once stray is set it returns
// that thread whatever its state.
type strayPick struct {
	*FIFO
	stray *Thread
}

func (s *strayPick) PickNext(c *Core) *Thread {
	if s.stray != nil {
		return s.stray
	}
	return s.FIFO.PickNext(c)
}

// TestPickNextContractViolationPanics: the engine refuses a picked thread
// that is not runnable on the picking core, naming its state and core.
func TestPickNextContractViolationPanics(t *testing.T) {
	sched := &strayPick{FIFO: NewFIFO()}
	m := NewMachine(topo.SingleCore(), sched, Options{Seed: 7, Cost: &CostModel{}})
	sleeper := m.StartThread("sleeper", "app", 0, &script{ops: []Op{Sleep(time.Hour)}})
	m.Run(time.Millisecond)
	sched.stray = sleeper
	defer func() {
		const want = "sim: PickNext returned T1(sleeper/app sleeping) (state sleeping, core -1) on core 0"
		if r := recover(); r != want {
			t.Fatalf("panic %v, want %q", r, want)
		}
	}()
	m.StartThread("w", "app", 0, &script{ops: []Op{Run(time.Millisecond)}})
	m.Run(2 * time.Millisecond)
}

func TestStringers(t *testing.T) {
	for k, want := range map[OpKind]string{OpRun: "run", OpSleep: "sleep", OpBlock: "block", OpSpin: "spin", OpExit: "exit", OpExit + 1: "op(?)"} {
		if got := k.String(); got != want {
			t.Errorf("OpKind(%d).String() = %q, want %q", k, got, want)
		}
	}
	m := newTestMachine(t, topo.SingleCore())
	c := m.Cores[0]
	if got := c.String(); got != "core0[idle]" {
		t.Errorf("idle core renders %q", got)
	}
	m.StartThread("w", "app", 0, &script{ops: []Op{Run(time.Second)}})
	m.Run(time.Millisecond)
	if got := c.String(); got != "core0[w]" {
		t.Errorf("busy core renders %q", got)
	}
}
