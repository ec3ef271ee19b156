package sim

import (
	"fmt"
	"time"
)

// State is a thread's lifecycle state.
type State uint8

const (
	// StateNew: created but never enqueued.
	StateNew State = iota
	// StateRunnable: waiting in a runqueue.
	StateRunnable
	// StateRunning: executing on a core.
	StateRunning
	// StateSleeping: in a timed voluntary sleep.
	StateSleeping
	// StateBlocked: voluntarily waiting on a WaitQueue.
	StateBlocked
	// StateDead: exited.
	StateDead
)

// String returns the state name.
func (s State) String() string {
	switch s {
	case StateNew:
		return "new"
	case StateRunnable:
		return "runnable"
	case StateRunning:
		return "running"
	case StateSleeping:
		return "sleeping"
	case StateBlocked:
		return "blocked"
	case StateDead:
		return "dead"
	default:
		return "state(?)"
	}
}

// Thread is one schedulable entity. Fields the schedulers read are
// exported; mutation is reserved to the engine.
type Thread struct {
	// ID is a unique positive identifier.
	ID int
	// Name identifies the thread for traces and figures ("fibo",
	// "sysbench-worker-17").
	Name string
	// Group names the application the thread belongs to; CFS's cgroup
	// fairness groups threads by this key, and per-application metrics
	// aggregate over it.
	Group string
	// Nice is the Unix niceness, -20..19 (high value = low priority).
	Nice int
	// Parent is the forking thread (nil for initial threads).
	Parent *Thread

	mach *Machine
	prog Program

	// core is the core whose runnable set contains the thread (while
	// Runnable or Running).
	core *Core
	// LastCore is the last core the thread ran on (nil before first run).
	LastCore *Core
	// LastRanAt is the simulated time the thread last gave up a core.
	LastRanAt time.Duration
	// LastEnqueuedAt is when the thread last became runnable.
	LastEnqueuedAt time.Duration

	// RunTime is cumulative CPU time consumed.
	RunTime time.Duration
	// SleepTime is cumulative *voluntary* sleep (OpSleep/OpBlock); time
	// spent waiting on a runqueue counts as neither run nor sleep, exactly
	// as ULE's interactivity metric requires (§2.2).
	SleepTime time.Duration

	// SchedData is the owning scheduler's per-thread state (CFS entity or
	// ULE td_sched).
	SchedData any

	// extra holds the rarely set fields (affinity); nil until one of
	// them is set, so most threads pay one pointer.
	extra *threadExtra

	// state, the current op's kind and flags, and the zero-time op count
	// share one word. opKind is meaningful while opValid; the op's duration
	// lives on in opRemaining and its queue in wq.
	state    State
	opKind   OpKind
	opValid  bool
	spinDone bool
	zeroOps  int32 // consecutive zero-time ops, to catch stuck programs

	opRemaining time.Duration
	// pendingPenalty is extra time the next Run burst costs (cold cache
	// after migration or preemption).
	pendingPenalty time.Duration

	// sleepStart is when the current sleep/block began; the timer-wake
	// validation token lives in the machine's dense Machine.sleepTok table.
	sleepStart time.Duration
	// wq is the queue the thread is blocked on or, during an active Spin
	// op, the queue it watches. The two never overlap: a spin ends only
	// through completeOpNow, which unregisters the spinner first.
	wq *WaitQueue

	// ctx is the thread's reusable Program context, so operation
	// boundaries allocate nothing; nested advances (a forked child
	// dispatching inside the parent's Next) each use their own thread's.
	ctx Ctx
}

// threadExtra is the side record for fields few threads set.
type threadExtra struct {
	// pinned restricts the thread to the given core IDs; nil means any
	// core. Models taskset/pthread affinity (the Figure 6 pin/unpin).
	pinned []int
}

// Pinned returns the core IDs the thread is restricted to; nil means any
// core. The slice must not be modified; change affinity with
// Machine.SetPinned.
func (t *Thread) Pinned() []int {
	if t.extra == nil {
		return nil
	}
	return t.extra.pinned
}

// setPinned replaces t's affinity, creating the side record only for a
// non-nil set.
func (t *Thread) setPinned(cores []int) {
	if t.extra == nil {
		if cores == nil {
			return
		}
		t.extra = &threadExtra{}
	}
	t.extra.pinned = cores
}

// State returns the thread's lifecycle state.
func (t *Thread) State() State { return t.state }

// Core returns the core owning the thread (runqueue or running), nil when
// sleeping/dead.
func (t *Thread) Core() *Core { return t.core }

// CanRunOn reports whether the thread may be placed on core id: the
// core must be online and the thread's affinity (if any) must allow it.
// Every scheduler placement and steal scan filters through here, which
// is what keeps hot-unplugged cores out of all placement decisions.
func (t *Thread) CanRunOn(id int) bool {
	if t.mach.coreArr[id].offline {
		return false
	}
	if t.extra == nil || t.extra.pinned == nil {
		return true
	}
	for _, c := range t.extra.pinned {
		if c == id {
			return true
		}
	}
	return false
}

// String renders a compact thread description.
func (t *Thread) String() string {
	return fmt.Sprintf("T%d(%s/%s %v)", t.ID, t.Name, t.Group, t.state)
}

// Ctx is the restricted kernel interface a Program sees during Next.
type Ctx struct {
	// T is the calling thread.
	T *Thread
	// M is the machine; programs should prefer the Ctx helpers but may use
	// M for read-only inspection.
	M *Machine
}

// Now returns the current simulated time.
func (c *Ctx) Now() time.Duration { return c.M.Now() }

// Signal wakes up to n threads blocked on wq (FIFO order).
func (c *Ctx) Signal(wq *WaitQueue, n int) { c.M.Signal(wq, n) }

// Broadcast wakes all threads blocked on wq and releases all spinners
// watching it.
func (c *Ctx) Broadcast(wq *WaitQueue) { c.M.Broadcast(wq) }

// Fork creates a child thread of the caller running prog. The child
// inherits scheduler state per the active scheduler's fork rule (for ULE:
// the parent's interactivity history — the mechanism behind the paper's
// Figures 3/4).
func (c *Ctx) Fork(name, group string, nice int, prog Program) *Thread {
	return c.M.spawn(name, group, nice, prog, c.T)
}

// Rand returns a deterministic per-machine PRNG.
func (c *Ctx) Rand() *Rand { return c.M.Rand() }
