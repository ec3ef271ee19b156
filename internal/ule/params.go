// Package ule implements FreeBSD 11.1's ULE scheduler as ported to Linux by
// the paper (§2.2, §3): interactivity-scored dual runqueues with absolute
// priority for interactive threads, load defined as runnable thread count,
// a cache-affinity-first pickcpu with widening priority scans, a core-0
// periodic balancer moving one thread per donor/receiver pair, and idle
// stealing — with full preemption disabled for user threads.
//
// Port deviations preserved from the paper's §3: the running thread is
// never migrated, and the balancer-never-runs bug of FreeBSD (the paper's
// ref [1]) is fixed by default but available as an ablation.
package ule

import "time"

// Params are the tunables; defaults mirror FreeBSD 11.1 and the paper.
type Params struct {
	// InteractThresh is the score at or below which a thread is
	// interactive (SCHED_INTERACT_THRESH = 30).
	InteractThresh int
	// SlpRunMax caps the runtime+sleeptime history ("limited to the last 5
	// seconds of the thread's lifetime").
	SlpRunMax time.Duration
	// SlpRunForkMax compresses inherited history at fork. The model
	// keeps 2 s, a departure from FreeBSD 11.1, whose SCHED_SLP_RUN_FORK
	// is (hz / 2) << SCHED_TICK_SHIFT, half a second.
	SlpRunForkMax time.Duration
	// SliceTicks is the timeslice for a lone thread, in stathz ticks ("10
	// ticks (78ms)").
	SliceTicks int
	// SliceMinTicks is the floor ("a lower bound of 1 tick").
	SliceMinTicks int
	// SliceMinDivisor: at loads >= this, the slice pins to the minimum
	// (SCHED_SLICE_MIN_DIVISOR = 6).
	SliceMinDivisor int
	// AffinityBase is the cache-affinity window at the tightest level;
	// each topology level doubles it (SCHED_AFFINITY scaling).
	AffinityBase time.Duration
	// BalanceMin/BalanceMax bound the uniformly random periodic balancer
	// interval ("every 500-1500ms, the duration chosen randomly").
	BalanceMin, BalanceMax time.Duration
	// StealThresh is the minimum victim load for idle stealing
	// (steal_thresh = 2: at least one queued thread beyond the running
	// one).
	StealThresh int
	// FixBalancerBug keeps the periodic balancer running (the paper fixed
	// FreeBSD's bug [1]); false reproduces stock FreeBSD 11.1, where it
	// never executes.
	FixBalancerBug bool
	// WakeupPrevCPUOnly replaces sched_pickcpu with "return the previous
	// CPU" — the paper's §6.3 validation experiment for the wakeup scan
	// overhead.
	WakeupPrevCPUOnly bool
	// FullPreempt enables wakeup preemption by interactive threads, an
	// ablation of "full preemption is disabled".
	FullPreempt bool
}

// DefaultParams returns the paper's ULE configuration.
func DefaultParams() Params {
	return Params{
		InteractThresh:  30,
		SlpRunMax:       5 * time.Second,
		SlpRunForkMax:   2 * time.Second,
		SliceTicks:      10,
		SliceMinTicks:   1,
		SliceMinDivisor: 6,
		AffinityBase:    8 * time.Millisecond,
		BalanceMin:      500 * time.Millisecond,
		BalanceMax:      1500 * time.Millisecond,
		StealThresh:     2,
		FixBalancerBug:  true,
	}
}

// Priority bands, scaled into one 0..PriIdle space the way the paper's port
// scales ULE scores into the CFS priority range (§3). Lower is better.
const (
	// PriMinInteract..PriMaxInteract hold interactive threads.
	PriMinInteract = 0
	PriMaxInteract = 47
	// PriMinBatch..PriMaxBatch hold batch (timeshare) threads.
	PriMinBatch = 48
	PriMaxBatch = 111
	// PriIdle is the idle-queue priority.
	PriIdle = 119
)

// tickPeriod is stathz = 127 Hz — "1 tick (1/127th of a second)".
const tickPeriod = time.Second / 127
