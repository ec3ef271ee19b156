package sim

import "time"

// Enqueue/dequeue/select flags, mirroring the kernel's ENQUEUE_WAKEUP /
// SD_BALANCE_FORK / etc. distinctions that Table 1's functions receive.
const (
	// FlagWakeup: the thread just woke from sleep.
	FlagWakeup = 1 << iota
	// FlagFork: the thread was just created.
	FlagFork
	// FlagMigrate: the thread is moving between cores (balancer/steal).
	FlagMigrate
	// FlagPreempted: the thread was involuntarily descheduled.
	FlagPreempted
	// FlagSleep: the thread is leaving the runnable set voluntarily.
	FlagSleep
	// FlagExit: the thread is dying.
	FlagExit
)

// Scheduler is the scheduling-class interface, the Go rendition of the
// paper's Table 1. The engine guarantees single-threaded invocation; there
// is no locking. Threads handed to Enqueue are not in any queue; PickNext
// must remove the returned thread from queue structures (it remains counted
// as runnable on the core); PutPrev re-inserts a still-runnable thread.
type Scheduler interface {
	// Name identifies the scheduler ("cfs", "ule").
	Name() string

	// Attach binds the scheduler to a machine; called exactly once, before
	// any other method. The scheduler may install timers via
	// machine.After/Every (ULE's core-0 balancer does).
	Attach(m *Machine)

	// TickPeriod is the interval between scheduler ticks on each core
	// (Linux: 1 ms at HZ=1000; FreeBSD: 1/127 s at stathz=127).
	TickPeriod() time.Duration

	// Enqueue makes t runnable on c (enqueue_task / sched_add+sched_wakeup;
	// flags distinguish the two FreeBSD entry points as the port does).
	Enqueue(c *Core, t *Thread, flags int)

	// Dequeue removes t from c's runnable set (dequeue_task / sched_rem).
	// If t is currently running, only accounting is updated.
	Dequeue(c *Core, t *Thread, flags int)

	// PickNext selects the next thread to run on c (pick_next_task /
	// sched_choose), removing it from queue structures, or returns nil.
	PickNext(c *Core) *Thread

	// PutPrev returns the previously running, still-runnable t to the
	// queue structures (put_prev_task / sched_switch). FlagPreempted marks
	// involuntary wakeup preemption (ULE re-queues those at the head,
	// SRQ_PREEMPTED).
	PutPrev(c *Core, t *Thread, flags int)

	// SelectCore places a woken or newly forked thread (select_task_rq /
	// sched_pickcpu). origin is the core the waking/forking happened on
	// (nil for timer wakeups). The returned core must satisfy t's affinity.
	SelectCore(t *Thread, origin *Core, flags int) *Core

	// CheckPreempt reports whether newly enqueued t should preempt c's
	// current thread (check_preempt_wakeup; ULE: effectively never for
	// user threads — "full preemption is disabled").
	CheckPreempt(c *Core, t *Thread, flags int) bool

	// Tick is the periodic scheduler tick on c, fired every TickPeriod on
	// every online core; curr is the running thread or nil when idle. Set
	// c.NeedResched to force a reschedule.
	Tick(c *Core, curr *Thread)

	// Fork initialises the child's scheduler state from its parent
	// (task_fork / sched_fork); called before the child is enqueued.
	Fork(parent, child *Thread)

	// Exit releases t's scheduler state (task_dead / sched_exit). For ULE
	// this refunds the child's runtime to its parent.
	Exit(t *Thread)

	// IdleBalance is invoked when c runs out of work, before it goes idle;
	// the scheduler may pull threads (CFS newidle balance, ULE tdq_idled).
	// Return true if a retry of PickNext may find work.
	IdleBalance(c *Core) bool

	// NrRunnable returns the number of runnable threads on c including the
	// running one — ULE's load metric, also used by figures 6/7.
	NrRunnable(c *Core) int
}

// CostModel prices the micro-architectural effects the paper attributes
// performance differences to. Zero values disable an effect.
type CostModel struct {
	// SwitchCost is charged on every context switch between two distinct
	// threads (pipeline/TLB churn).
	SwitchCost time.Duration
	// MigrationPenalty is added to a thread's next Run burst after it
	// moves to a core not sharing the LLC it last ran on (cold caches —
	// why fibo is "slightly faster" isolated on ULE, §5.1).
	MigrationPenalty time.Duration
	// PreemptPenalty is added to a thread's next Run burst after an
	// involuntary preemption (partial cache eviction — the apache/ab
	// effect, §5.3).
	PreemptPenalty time.Duration
	// PerCoreScanCost is charged to the waking core for every core a
	// placement scan examines (ULE's sched_pickcpu loops — the §6.3 "13%
	// of all CPU cycles spent scanning").
	PerCoreScanCost time.Duration
	// WakeupFixedCost is charged per wakeup for the fixed enqueue path.
	WakeupFixedCost time.Duration
	// PickFixedCost is charged per pick_next on the picking core.
	PickFixedCost time.Duration
}

// DefaultCostModel returns the calibrated costs used by the experiments;
// EXPERIMENTS.md documents the calibration.
func DefaultCostModel() CostModel {
	return CostModel{
		SwitchCost:       1500 * time.Nanosecond,
		MigrationPenalty: 30 * time.Microsecond,
		PreemptPenalty:   12 * time.Microsecond,
		PerCoreScanCost:  150 * time.Nanosecond,
		WakeupFixedCost:  800 * time.Nanosecond,
		PickFixedCost:    300 * time.Nanosecond,
	}
}
