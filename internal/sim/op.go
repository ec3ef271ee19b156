// Package sim is the kernel substrate of the reproduction: a deterministic
// discrete-event simulator of a multicore machine. It owns threads, cores,
// the event clock, context-switch mechanics and the cost model, and defers
// every scheduling decision to a pluggable Scheduler — the same separation
// the paper relies on ("the observed performance differences are solely the
// result of scheduling decisions").
//
// The Scheduler interface mirrors the paper's Table 1: the Linux scheduling
// class API on one side and the equivalent FreeBSD entry points on the
// other (enqueue_task/sched_add, dequeue_task/sched_rem,
// pick_next_task/sched_choose, put_prev_task/sched_switch,
// select_task_rq/sched_pickcpu). yield_task/sched_relinquish has no
// counterpart: no workload yields.
package sim

import "time"

// OpKind enumerates the actions a thread program can request from the
// kernel at an operation boundary.
type OpKind uint8

const (
	// OpRun consumes Dur of CPU time; it may be preempted and resumed.
	OpRun OpKind = iota
	// OpSleep sleeps voluntarily for Dur (counts as sleep time for ULE's
	// interactivity metric).
	OpSleep
	// OpBlock sleeps voluntarily on WQ until signalled.
	OpBlock
	// OpSpin consumes CPU (like OpRun) for at most Dur, but completes early
	// if WQ is broadcast — a spin-wait watching a condition.
	OpSpin
	// OpExit terminates the thread.
	OpExit
)

// String returns the op kind name.
func (k OpKind) String() string {
	switch k {
	case OpRun:
		return "run"
	case OpSleep:
		return "sleep"
	case OpBlock:
		return "block"
	case OpSpin:
		return "spin"
	case OpExit:
		return "exit"
	default:
		return "op(?)"
	}
}

// Op is one action requested by a program. Zero-duration OpRun completes
// immediately; the engine bounds consecutive zero-time ops to catch
// non-advancing programs.
type Op struct {
	Kind OpKind
	Dur  time.Duration
	WQ   *WaitQueue
}

// Run returns an op consuming d of CPU.
func Run(d time.Duration) Op { return Op{Kind: OpRun, Dur: d} }

// Sleep returns an op sleeping voluntarily for d.
func Sleep(d time.Duration) Op { return Op{Kind: OpSleep, Dur: d} }

// Block returns an op blocking on wq until signalled.
func Block(wq *WaitQueue) Op { return Op{Kind: OpBlock, WQ: wq} }

// Spin returns an op spinning on the CPU for at most budget, released early
// when wq is broadcast.
func Spin(wq *WaitQueue, budget time.Duration) Op {
	return Op{Kind: OpSpin, Dur: budget, WQ: wq}
}

// Exit returns an op terminating the thread.
func Exit() Op { return Op{Kind: OpExit} }

// Program is the behaviour of a thread: a resumable state machine. Next is
// called at every operation boundary and returns the thread's next action.
// Programs may call Ctx methods (wakeups, forks) during Next; those take
// effect immediately, before the returned op is applied.
type Program interface {
	Next(ctx *Ctx) Op
}

// ProgramFunc adapts a function to the Program interface.
type ProgramFunc func(ctx *Ctx) Op

// Next calls f.
func (f ProgramFunc) Next(ctx *Ctx) Op { return f(ctx) }
