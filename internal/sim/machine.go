package sim

import (
	"fmt"
	"sync/atomic"
	"time"

	"repro/internal/stats"
	"repro/internal/topo"
)

// Machine is the simulated multicore computer: cores, threads, the event
// clock, and one scheduler. All methods must be called from the simulation
// goroutine (the engine is deliberately single-threaded and deterministic).
type Machine struct {
	// Topo is the hardware layout.
	Topo *topo.Topology
	// Cores are the CPUs, indexed by ID.
	Cores []*Core
	// Counts tallies the engine's scheduler events.
	Counts EventCounts
	// Counters collects named counts from schedulers and workloads.
	Counters *stats.CounterSet
	// Cost prices context switches, migrations, and scheduler work.
	Cost CostModel

	sched Scheduler
	rng   *Rand

	// observers is the observation table (hooks.go); nil until the first
	// registration, so probe-free machines pay one nil check per
	// observation site and nothing else.
	observers *observerTable

	now time.Duration
	// wheel is the event queue; heap is the reference engine tests
	// cross-validate it against (forceEventHeap), kept byte-equivalent by
	// the strict (at, seq) total order both implement.
	wheel   timerWheel
	heap    eventHeap
	useHeap bool
	seq     uint64
	events  uint64

	// coreArr is the contiguous backing store of Cores: the dispatch path
	// walks cores by dense index instead of chasing per-core allocations.
	coreArr []Core
	// burstTok / sleepTok are the struct-of-arrays timer-token tables,
	// indexed by core ID and thread ID-1: stale timer events (re-armed
	// burst ends, cancelled sleep wakes) are dropped from these dense lines
	// without touching the wide Core/Thread structs.
	burstTok []uint64
	sleepTok []uint64

	// ticks is the tick rotor (rotor.go): one standing entry per core,
	// tickHead the core holding the earliest (-1 when none stands).
	ticks    []tickEntry
	tickHead int

	// timers is the table of armed Timers, referenced from queued events
	// by slot so the queue stays pointer-free; timerFree stacks the free
	// slots. A slot is cleared when its event fires.
	timers    []Timer
	timerFree []int32

	// tickPeriod caches the scheduler's tick period.
	tickPeriod time.Duration
	// curArmed/curSeq describe the event currently being dispatched: when
	// it was scheduled and its sequence number (tick re-arm ordering,
	// Core.nextGridTick).
	curArmed time.Duration
	curSeq   uint64

	threads []*Thread
	nextTID int
	live    int

	// nOffline counts hot-unplugged cores; while zero the placement guard
	// (ensurePlaceable) is a single compare.
	nOffline int
	// wallDeadline is the host-clock watchdog instant (perturb.go); zero
	// means disarmed. Run/RunUntil test it every deadlineMask+1 events.
	wallDeadline time.Time

	// execCore is the core whose program code is currently executing (for
	// charging wakeup costs to the waker's CPU); nil in timer context.
	execCore *Core
	// pendingPin carries StartThreadCfg affinity into spawn.
	pendingPin []int
	// spinScratch is Broadcast's snapshot stack: each call appends the
	// spinners it releases above the frames of the calls it is nested in,
	// walks its own frame by index and truncates back, so releasing
	// spinners allocates nothing once the stack has grown.
	spinScratch []*Thread
}

// Options configures machine construction.
type Options struct {
	// Seed seeds the deterministic PRNG (default 1).
	Seed int64
	// Cost overrides the default cost model; nil uses DefaultCostModel.
	Cost *CostModel
}

// EventCounts tallies scheduler events over a machine's life — the counts
// the paper's analysis reads (e.g. "ab is preempted 2 million times",
// §5.3). Plain fields keep counting free of allocation.
type EventCounts struct {
	// Switches counts context switches, switches to idle included.
	Switches uint64
	// Wakeups counts sleeping or blocked threads made runnable.
	Wakeups uint64
	// Migrations counts runnable threads moved between cores.
	Migrations uint64
	// Preemptions counts involuntary deschedules of a runnable thread.
	Preemptions uint64
	// Forks counts threads created.
	Forks uint64
	// Exits counts threads terminated.
	Exits uint64
	// Balances counts load-balancer invocations (TraceBalance).
	Balances uint64
	// Steals counts idle steals (TraceSteal).
	Steals uint64
}

// forceEventHeap puts every machine built while it is set on the
// binary-heap event queue instead of the timer wheel. The heap is the
// reference engine: both implement the same strict (at, seq) order, so all
// outputs are byte-identical. Only tests set it (export_test.go here,
// engine_crossval_test.go in internal/scenario by its link name), to
// rebuild identical machines on the heap without threading an option
// through every construction site. Renaming it fails that test build; its
// type must stay atomic.Bool to match the linked declaration.
var forceEventHeap atomic.Bool

// NewMachine builds a machine with the given topology and scheduler and
// attaches the scheduler. Per-core scheduler ticks start immediately.
func NewMachine(tp *topo.Topology, sched Scheduler, opts Options) *Machine {
	if opts.Seed == 0 {
		opts.Seed = 1
	}
	cost := DefaultCostModel()
	if opts.Cost != nil {
		cost = *opts.Cost
	}
	m := &Machine{
		Topo:     tp,
		Counters: stats.NewCounterSet(),
		Cost:     cost,
		sched:    sched,
		rng:      newRand(opts.Seed),
		nextTID:  1,
	}
	m.useHeap = forceEventHeap.Load()
	// One contiguous allocation backs every core plus the dense token
	// table: the dispatch path indexes both by core ID.
	m.coreArr = make([]Core, tp.NCores())
	m.burstTok = make([]uint64, tp.NCores())
	m.Cores = make([]*Core, tp.NCores())
	for i := range m.coreArr {
		m.coreArr[i] = Core{ID: i, mach: m, wasIdle: true}
		m.Cores[i] = &m.coreArr[i]
	}
	sched.Attach(m)
	m.startTicks()
	return m
}

// Scheduler returns the attached scheduler.
func (m *Machine) Scheduler() Scheduler { return m.sched }

// Now returns the simulated time since machine start.
func (m *Machine) Now() time.Duration { return m.now }

// Rand returns the machine's deterministic PRNG.
func (m *Machine) Rand() *Rand { return m.rng }

// Threads returns all threads ever created, in creation order. The slice
// must not be modified.
func (m *Machine) Threads() []*Thread { return m.threads }

// LiveThreads returns the number of non-dead threads.
func (m *Machine) LiveThreads() int { return m.live }

// ExecCore returns the core currently executing program code, nil in timer
// context. Schedulers use it to bill placement work to the waking CPU.
func (m *Machine) ExecCore() *Core { return m.execCore }

// schedule clamps the event to now, stamps its sequence number, and pushes
// it. Every event enters the queue through here, so equal-time events fire
// in scheduling order.
func (m *Machine) schedule(e event) {
	if e.at < m.now {
		e.at = m.now
	}
	m.seq++
	e.seq = m.seq
	e.armed = m.now
	m.push(e)
}

// push hands a stamped event to the active queue.
func (m *Machine) push(e event) {
	if m.useHeap {
		m.heap.push(e)
		return
	}
	m.wheel.push(e)
}

// Timer is a one-shot timer event armed with Machine.At. Fire runs in
// timer context at the armed instant; a periodic timer re-arms itself with
// m.At(m.Now()+period, t) as the last thing it schedules, so that it keeps
// the event order a fixed period gives. Implementations are pointers or
// one-pointer structs, so arming one allocates nothing.
type Timer interface {
	Fire(m *Machine)
}

// At arms t to fire at absolute simulated time at (clamped to now). Its
// slot comes off the free stack, so steady-state re-arming allocates
// nothing once the table has grown.
func (m *Machine) At(at time.Duration, t Timer) {
	var h int32
	if n := len(m.timerFree) - 1; n >= 0 {
		h = m.timerFree[n]
		m.timerFree = m.timerFree[:n]
		m.timers[h] = t
	} else {
		h = int32(len(m.timers))
		m.timers = append(m.timers, t)
	}
	m.schedule(event{at: at, kind: evTimer, id: h})
}

// fire dispatches one popped event to its handler.
func (m *Machine) fire(e *event) {
	switch e.kind {
	case evBurstEnd:
		if m.burstTok[e.id] != e.token {
			return
		}
		c := &m.coreArr[e.id]
		t := m.threads[e.tid-1]
		if c.Curr != t {
			return
		}
		c.flushRun()
		if t.opRemaining > 0 {
			// A charge pushed the burst out; re-arm.
			m.scheduleBurstEnd(c)
			return
		}
		m.completeOpNow(c, t)
	case evTick:
		m.fireTick(&m.coreArr[e.id])
	case evStaleTick:
		// Superseded by OfflineCore: counted, nothing to run.
	case evSleepWake:
		if m.sleepTok[e.tid-1] != e.token {
			return
		}
		if t := m.threads[e.tid-1]; t.state == StateSleeping {
			m.Wake(t)
		}
	default:
		t := m.timers[e.id]
		m.timers[e.id] = nil
		m.timerFree = append(m.timerFree, e.id)
		t.Fire(m)
	}
}

// EventsProcessed returns how many events the machine has dispatched — the
// engine-throughput numerator behind the benchmark's sim.events.
func (m *Machine) EventsProcessed() uint64 { return m.events }

// endRun marks the machine as outside event dispatch: anything happening
// now — workload installed between Run windows, direct Wake calls — counts
// as armed at the current instant, after every dispatched event, for tick
// re-arm ordering (Core.nextGridTick).
func (m *Machine) endRun() {
	m.curArmed = m.now
	m.curSeq = m.seq
}

// nextEvent pops the next event into e if it is due at or before until:
// the earlier, by (at, seq), of the queue head and the rotor head. On the wheel
// engine the queue head is one bounds check into the already-sorted live
// slot batch; advance() runs only when a batch drains. That can carry the
// wheel's cursor past the clock when the rotor head turns out earlier;
// whatever the tick's handler then schedules before the cursor joins the
// live batch in order (timerWheel.pushCur).
func (m *Machine) nextEvent(until time.Duration, e *event) bool {
	var q *event
	w := &m.wheel
	if m.useHeap {
		if m.heap.len() > 0 {
			q = &m.heap.es[0]
		}
	} else if w.curIdx < len(w.cur) || w.advance() {
		q = &w.cur[w.curIdx]
	}
	if h := m.tickHead; h >= 0 {
		if t := &m.ticks[h]; q == nil || t.at < q.at || t.at == q.at && t.seq < q.seq {
			if t.at > until {
				return false
			}
			*e = event{at: t.at, seq: t.seq, armed: t.armed, kind: evTick, id: int32(h)}
			if t.state == tickStale {
				e.kind = evStaleTick
			}
			m.takeTick(h)
			return true
		}
	}
	if q == nil || q.at > until {
		return false
	}
	if m.useHeap {
		*e = m.heap.pop()
	} else {
		*e = *q
		w.curIdx++
	}
	return true
}

// Run processes events until the clock reaches until.
func (m *Machine) Run(until time.Duration) {
	var e event
	for m.nextEvent(until, &e) {
		m.now = e.at
		m.events++
		if m.events&deadlineMask == 0 {
			m.checkDeadline()
		}
		m.curArmed, m.curSeq = e.armed, e.seq
		m.fire(&e)
	}
	if m.now < until {
		m.now = until
	}
	for _, c := range m.Cores {
		c.flushRun()
	}
	m.endRun()
}

// RunUntil processes events until pred returns true or the clock reaches
// max; it reports whether pred was satisfied.
func (m *Machine) RunUntil(pred func() bool, max time.Duration) bool {
	var e event
	for {
		if pred() {
			m.endRun()
			return true
		}
		if !m.nextEvent(max, &e) {
			break
		}
		m.now = e.at
		m.events++
		if m.events&deadlineMask == 0 {
			m.checkDeadline()
		}
		m.curArmed, m.curSeq = e.armed, e.seq
		m.fire(&e)
	}
	done := pred()
	if m.now < max && !done {
		m.now = max
	}
	for _, c := range m.Cores {
		c.flushRun()
	}
	m.endRun()
	return done
}

// StartThread creates and enqueues a root thread (no parent): the analogue
// of launching a process from a shell.
func (m *Machine) StartThread(name, group string, nice int, prog Program) *Thread {
	return m.spawn(name, group, nice, prog, nil)
}

// ThreadConfig describes a root thread to start with full control, notably
// birth affinity (the Figure 6 experiment pins 512 threads to core 0
// before they first run).
type ThreadConfig struct {
	Name  string
	Group string
	Nice  int
	// Pinned restricts placement from birth; nil allows any core.
	Pinned []int
	Prog   Program
}

// StartThreadCfg creates and enqueues a root thread from cfg.
func (m *Machine) StartThreadCfg(cfg ThreadConfig) *Thread {
	m.pendingPin = cfg.Pinned
	t := m.spawn(cfg.Name, cfg.Group, cfg.Nice, cfg.Prog, nil)
	m.pendingPin = nil
	return t
}

func (m *Machine) spawn(name, group string, nice int, prog Program, parent *Thread) *Thread {
	t := &Thread{
		ID:     m.nextTID,
		Name:   name,
		Group:  group,
		Nice:   nice,
		Parent: parent,
		mach:   m,
		prog:   prog,
		state:  StateNew,
	}
	t.ctx = Ctx{T: t, M: m}
	if parent != nil {
		t.setPinned(append([]int(nil), parent.Pinned()...))
	} else if m.pendingPin != nil {
		t.setPinned(append([]int(nil), m.pendingPin...))
	}
	m.ensurePlaceable(t)
	m.nextTID++
	m.threads = append(m.threads, t)
	m.sleepTok = append(m.sleepTok, 0)
	m.live++
	m.sched.Fork(parent, t)
	origin := m.execCore
	c := m.sched.SelectCore(t, origin, FlagFork)
	m.assertAllowed(c, t)
	m.Counts.Forks++
	m.enqueueRunnable(c, t, FlagFork)
	return t
}

// Wake makes t runnable if it is sleeping or blocked; otherwise no-op.
func (m *Machine) Wake(t *Thread) {
	if t.state != StateSleeping && t.state != StateBlocked {
		return
	}
	m.sleepTok[t.ID-1]++ // cancel any pending timer wake
	if t.wq != nil {
		t.wq.removeWaiter(t)
	}
	t.SleepTime += m.now - t.sleepStart
	t.opValid = false // the sleep/block op is complete
	origin := m.execCore
	target := m.sched.SelectCore(t, origin, FlagWakeup)
	m.assertAllowed(target, t)
	if m.Cost.WakeupFixedCost > 0 {
		payer := origin
		if payer == nil {
			payer = target
		}
		payer.chargeSched(m.Cost.WakeupFixedCost)
	}
	if t.LastCore != nil && t.LastCore != target && !m.Topo.ShareLLC(t.LastCore.ID, target.ID) {
		t.pendingPenalty += m.Cost.MigrationPenalty
	}
	m.Counts.Wakeups++
	if m.observers != nil {
		m.emit(Event{Kind: Wake, Core: target, From: origin, Thread: t})
	}
	m.enqueueRunnable(target, t, FlagWakeup)
}

// Signal wakes up to n threads blocked on wq, FIFO order.
func (m *Machine) Signal(wq *WaitQueue, n int) {
	for i := 0; i < n; i++ {
		t := wq.popWaiter()
		if t == nil {
			return
		}
		m.Wake(t)
	}
}

// Broadcast wakes all threads blocked on wq and releases every spinner
// watching it.
func (m *Machine) Broadcast(wq *WaitQueue) {
	for {
		t := wq.popWaiter()
		if t == nil {
			break
		}
		m.Wake(t)
	}
	// Release spinners: running ones complete their spin now; preempted
	// ones complete when next dispatched. Completing a spin runs program
	// code, which may broadcast again and append its own frame above this
	// one, or grow the stack: index it afresh on every step.
	base := len(m.spinScratch)
	m.spinScratch = append(m.spinScratch, wq.spinners...)
	for i, end := base, len(m.spinScratch); i < end; i++ {
		t := m.spinScratch[i]
		t.spinDone = true
		if t.state == StateRunning {
			c := t.core
			c.flushRun()
			t.opRemaining = 0
			m.completeOpNow(c, t)
		}
	}
	clear(m.spinScratch[base:])
	m.spinScratch = m.spinScratch[:base]
}

// Migrate moves a runnable (not running) thread between cores; balancers
// and stealers call it. The scheduler's Dequeue/Enqueue maintain their own
// structures.
func (m *Machine) Migrate(t *Thread, from, to *Core) {
	if t.state != StateRunnable {
		panic(fmt.Sprintf("sim: Migrate of %v in state %v", t, t.state))
	}
	if from.Curr == t {
		panic("sim: Migrate of running thread")
	}
	if t.core != from {
		panic("sim: Migrate from wrong core")
	}
	if !t.CanRunOn(to.ID) {
		panic("sim: Migrate violates affinity")
	}
	m.sched.Dequeue(from, t, FlagMigrate)
	t.core = nil
	t.state = StateSleeping // transient; enqueueRunnable restores
	if t.LastCore != nil && !m.Topo.ShareLLC(t.LastCore.ID, to.ID) {
		t.pendingPenalty += m.Cost.MigrationPenalty
	}
	m.Counts.Migrations++
	if m.observers != nil {
		m.emit(Event{Kind: Migrate, Core: to, From: from, Thread: t})
	}
	m.enqueueRunnable(to, t, FlagMigrate)
}

// SetPinned changes a thread's affinity (taskset). Unpinning takes effect
// through normal balancing, as in the paper's Figure 6 experiment.
func (m *Machine) SetPinned(t *Thread, cores []int) {
	t.setPinned(cores)
}

// RunnableCounts samples NrRunnable for every core — the y-axis of the
// paper's Figures 6 and 7.
func (m *Machine) RunnableCounts() []int {
	return m.RunnableCountsInto(nil)
}

// RunnableCountsInto is RunnableCounts sampling into buf, reusing its
// backing array when it is large enough — for tight sampling loops (the
// fig6/fig7 probes run every 250 simulated ms).
func (m *Machine) RunnableCountsInto(buf []int) []int {
	if cap(buf) < len(m.Cores) {
		buf = make([]int, len(m.Cores))
	}
	buf = buf[:len(m.Cores)]
	for i, c := range m.Cores {
		buf[i] = m.sched.NrRunnable(c)
	}
	return buf
}

// ChargeScan bills placement-scan work to core c, which must be non-nil,
// consuming simulated CPU time and counting it in the core's ScanTime (the
// paper's §6.3 scheduler-time metric).
func (m *Machine) ChargeScan(c *Core, d time.Duration) {
	c.chargeSched(d)
	c.ScanTime += d
}

// TraceBalance counts a balancer invocation for core c.
func (m *Machine) TraceBalance(c *Core) {
	m.Counts.Balances++
}

// TraceSteal counts an idle steal by c from victim and emits the Steal
// event; the scheduler then moves t with Migrate.
func (m *Machine) TraceSteal(c, victim *Core, t *Thread) {
	m.Counts.Steals++
	if m.observers != nil {
		m.emit(Event{Kind: Steal, Core: c, From: victim, Thread: t})
	}
}

func coreID(c *Core) int {
	if c == nil {
		return -1
	}
	return c.ID
}

func (m *Machine) assertAllowed(c *Core, t *Thread) {
	if c == nil {
		panic(fmt.Sprintf("sim: SelectCore returned nil for %v", t))
	}
	if !t.CanRunOn(c.ID) {
		panic(fmt.Sprintf("sim: SelectCore placed %v on disallowed core %d", t, c.ID))
	}
}

// enqueueRunnable hands t to the scheduler on c and kicks dispatch or
// preemption as needed.
func (m *Machine) enqueueRunnable(c *Core, t *Thread, flags int) {
	t.state = StateRunnable
	t.core = c
	t.LastEnqueuedAt = m.now
	m.sched.Enqueue(c, t, flags)
	if m.observers != nil {
		m.emit(Event{Kind: Enqueue, Core: c, Thread: t, Flags: flags})
	}
	if c.Curr == nil {
		if !c.dispatching {
			m.dispatch(c)
		}
		return
	}
	if c.Curr != t && m.sched.CheckPreempt(c, t, flags) {
		if c.inBoundary {
			c.NeedResched = true
			return
		}
		m.deschedule(c, FlagPreempted)
		m.dispatch(c)
	}
}

// dispatch fills an empty core with the scheduler's pick.
func (m *Machine) dispatch(c *Core) {
	if c.Curr != nil {
		panic("sim: dispatch on busy core")
	}
	c.dispatching = true
	defer func() { c.dispatching = false }()
	triedIdle := c.offline // offline cores never pull work
	for {
		t := m.sched.PickNext(c)
		if t == nil {
			if !triedIdle {
				triedIdle = true
				if m.sched.IdleBalance(c) {
					continue
				}
			}
			if c.lastThread != nil {
				m.Counts.Switches++
				c.lastThread = nil
			}
			c.markIdle()
			return
		}
		if t.state != StateRunnable || t.core != c {
			panic(fmt.Sprintf("sim: PickNext returned %v (state %v, core %v) on core %d", t, t.state, coreID(t.core), c.ID))
		}
		if m.observers != nil && !c.offline {
			m.emit(Event{Kind: Pick, Core: c, Thread: t})
		}
		m.start(c, t)
		return
	}
}

// start puts t on c and arms its burst.
func (m *Machine) start(c *Core, t *Thread) {
	c.markBusy()
	t.state = StateRunning
	c.Curr = t
	c.NeedResched = false
	c.runStart = m.now
	if m.Cost.PickFixedCost > 0 {
		c.SchedTime += m.Cost.PickFixedCost
		c.runStart += m.Cost.PickFixedCost
	}
	if c.lastThread != t {
		m.Counts.Switches++
		if m.Cost.SwitchCost > 0 {
			c.SchedTime += m.Cost.SwitchCost
			c.runStart += m.Cost.SwitchCost
		}
	}
	c.lastThread = t
	if m.observers != nil {
		m.emit(Event{Kind: Dispatch, Core: c, Thread: t})
	}

	if t.opValid {
		switch t.opKind {
		case OpRun, OpSpin:
			if t.opKind == OpSpin && t.spinDone {
				// Condition fired while we waited on the runqueue.
				m.completeOpNow(c, t)
				return
			}
			if t.opKind == OpRun && t.pendingPenalty > 0 {
				t.opRemaining += t.pendingPenalty
				t.pendingPenalty = 0
			}
			m.scheduleBurstEnd(c)
			m.afterBoundary(c)
			return
		default:
			panic(fmt.Sprintf("sim: thread %v dispatched with pending %v op", t, t.opKind))
		}
	}
	m.advance(c, t)
}

// scheduleBurstEnd arms the burst-end event for c's current thread. The
// event is typed and carries only (core, thread, token), so this per-burst
// hot path allocates nothing.
func (m *Machine) scheduleBurstEnd(c *Core) {
	t := c.Curr
	m.burstTok[c.ID]++
	m.schedule(event{
		at:    c.runStart + c.wallFor(t.opRemaining),
		kind:  evBurstEnd,
		id:    int32(c.ID),
		tid:   int32(t.ID),
		token: m.burstTok[c.ID],
	})
}

// completeOpNow finishes t's current op on c and advances the program.
func (m *Machine) completeOpNow(c *Core, t *Thread) {
	if t.opKind == OpSpin {
		if t.wq != nil {
			t.wq.removeSpinner(t)
		}
		t.spinDone = false
	}
	t.opValid = false
	m.advance(c, t)
}

// advance asks t's program for ops until one consumes time or changes
// state. It runs with t current on c.
func (m *Machine) advance(c *Core, t *Thread) {
	ctx := &t.ctx
	for {
		c.inBoundary = true
		prevExec := m.execCore
		m.execCore = c
		op := t.prog.Next(ctx)
		m.execCore = prevExec
		c.inBoundary = false

		if t.state != StateRunning || c.Curr != t {
			panic(fmt.Sprintf("sim: %v changed state during Next()", t))
		}
		t.opKind = op.Kind
		t.opValid = true
		t.spinDone = false

		switch op.Kind {
		case OpRun:
			d := op.Dur + t.pendingPenalty
			t.pendingPenalty = 0
			if d <= 0 {
				t.opValid = false
				if m.guardZeroOps(t) {
					continue
				}
				return
			}
			t.zeroOps = 0
			t.opRemaining = d
			m.scheduleBurstEnd(c)
			m.afterBoundary(c)
			return
		case OpSpin:
			if op.WQ == nil {
				panic("sim: Spin with nil wait queue")
			}
			if op.Dur <= 0 {
				t.opValid = false
				if m.guardZeroOps(t) {
					continue
				}
				return
			}
			t.zeroOps = 0
			t.opRemaining = op.Dur
			op.WQ.addSpinner(t)
			m.scheduleBurstEnd(c)
			m.afterBoundary(c)
			return
		case OpSleep:
			d := op.Dur
			if d <= 0 {
				d = time.Nanosecond
			}
			t.zeroOps = 0
			m.sleepCurrent(c, t, d)
			return
		case OpBlock:
			if op.WQ == nil {
				panic("sim: Block with nil wait queue")
			}
			t.zeroOps = 0
			m.blockCurrent(c, t, op.WQ)
			return
		case OpExit:
			m.exitCurrent(c, t)
			return
		default:
			panic(fmt.Sprintf("sim: unknown op kind %v", op.Kind))
		}
	}
}

// guardZeroOps counts consecutive zero-time ops; returns true to continue
// the advance loop, panicking if the program cannot make progress.
func (m *Machine) guardZeroOps(t *Thread) bool {
	t.zeroOps++
	if t.zeroOps > 100000 {
		panic(fmt.Sprintf("sim: thread %v stuck issuing zero-time ops", t))
	}
	return true
}

// afterBoundary handles a preemption requested while the thread was inside
// Next() (a wakeup it performed preempts it).
func (m *Machine) afterBoundary(c *Core) {
	if c.NeedResched && c.Curr != nil {
		c.NeedResched = false
		m.deschedule(c, FlagPreempted)
		m.dispatch(c)
	}
}

// deschedule removes the (still runnable) current thread from c, returning
// it to the scheduler's queues. flags: FlagPreempted for involuntary
// wakeup-driven preemption (tail vs head queue placement, cache penalty).
func (m *Machine) deschedule(c *Core, flags int) {
	t := c.Curr
	if t == nil {
		return
	}
	c.flushRun()
	m.burstTok[c.ID]++ // invalidate burst-end
	if flags&FlagPreempted != 0 {
		m.Counts.Preemptions++
		t.pendingPenalty += m.Cost.PreemptPenalty
	}
	t.state = StateRunnable
	t.LastCore = c
	t.LastRanAt = m.now
	c.Curr = nil
	m.sched.PutPrev(c, t, flags)
}

// sleepCurrent puts the running thread into a timed voluntary sleep.
func (m *Machine) sleepCurrent(c *Core, t *Thread, d time.Duration) {
	m.stopCurrent(c, t, FlagSleep)
	t.state = StateSleeping
	t.sleepStart = m.now
	m.sleepTok[t.ID-1]++
	m.schedule(event{at: m.now + d, kind: evSleepWake, tid: int32(t.ID), token: m.sleepTok[t.ID-1]})
	if c.Curr == nil {
		m.dispatch(c)
	}
}

// blockCurrent puts the running thread to sleep on wq.
func (m *Machine) blockCurrent(c *Core, t *Thread, wq *WaitQueue) {
	m.stopCurrent(c, t, FlagSleep)
	t.state = StateBlocked
	t.sleepStart = m.now
	wq.addWaiter(t)
	if c.Curr == nil {
		m.dispatch(c)
	}
}

// exitCurrent terminates the running thread.
func (m *Machine) exitCurrent(c *Core, t *Thread) {
	m.stopCurrent(c, t, FlagExit)
	t.state = StateDead
	t.opValid = false
	m.live--
	m.sched.Exit(t)
	m.Counts.Exits++
	if c.Curr == nil {
		m.dispatch(c)
	}
}

// stopCurrent is the common leave-the-CPU path for sleep/block/exit.
func (m *Machine) stopCurrent(c *Core, t *Thread, flags int) {
	c.flushRun()
	m.burstTok[c.ID]++
	t.LastCore = c
	t.LastRanAt = m.now
	// Dequeue while c.Curr still points at t, so the scheduler can tell a
	// running thread (accounting only) from a queued one (unlink).
	m.sched.Dequeue(c, t, flags)
	c.Curr = nil
	t.core = nil
	// The sleep/block op is consumed; the program resumes with a fresh op
	// on wakeup. Exit consumes trivially.
	t.opValid = false
}
