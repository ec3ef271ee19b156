// Package ipc provides in-simulation synchronization and communication
// primitives — mutexes, spin-then-sleep barriers, bounded pipes, and
// request queues with latency tracking. They are built on sim.WaitQueue and
// are manipulated from inside Program.Next, which the engine runs
// atomically, so the primitives need no internal locking and can exhibit
// exactly the blocking/wakeup patterns the paper's workloads exercise
// (MySQL lock handoffs in §6.4, hackbench pipes, MG's 100 ms spin barrier,
// sysbench request latencies in Table 2).
package ipc

import (
	"time"

	"repro/internal/queue"
	"repro/internal/sim"
	"repro/internal/stats"
)

// Mutex is a sleeping mutex. There is no lock handoff: a woken waiter must
// retry, and can lose the lock to a thread that slipped in — exactly the
// property that makes ULE's missing wakeup preemption hurt sysbench in the
// paper's §6.4 (the releasing thread's core keeps running fibo; the woken
// MySQL thread waits out fibo's timeslice).
type Mutex struct {
	// WQ holds blocked contenders.
	WQ    *sim.WaitQueue
	owner *sim.Thread
	// Contentions counts failed TryLock attempts.
	Contentions uint64
}

// NewMutex returns an unlocked mutex.
func NewMutex() *Mutex {
	return &Mutex{WQ: sim.NewWaitQueue()}
}

// TryLock attempts to take the mutex for t; on failure the caller should
// return sim.Block(mu.WQ) and retry on wakeup.
func (mu *Mutex) TryLock(t *sim.Thread) bool {
	if mu.owner == nil {
		mu.owner = t
		return true
	}
	if mu.owner == t {
		panic("ipc: recursive TryLock")
	}
	mu.Contentions++
	return false
}

// Unlock releases the mutex and wakes one contender.
func (mu *Mutex) Unlock(ctx *sim.Ctx) {
	if mu.owner != ctx.T {
		panic("ipc: Unlock by non-owner")
	}
	mu.owner = nil
	ctx.Signal(mu.WQ, 1)
}

// Owner returns the current holder (nil when free).
func (mu *Mutex) Owner() *sim.Thread { return mu.owner }

// Barrier is the spin-then-sleep barrier HPC runtimes use (the paper: MG
// "waits on a spin-barrier for 100ms and then sleeps if some threads are
// still computing").
type Barrier struct {
	// N is the number of participants per round.
	N int
	// SpinBudget is how long a waiter burns CPU before sleeping.
	SpinBudget time.Duration
	// WQ is broadcast when the last participant arrives; it releases both
	// spinners and sleepers.
	WQ *sim.WaitQueue

	count int
	gen   uint64
	// Rounds counts completed barrier episodes.
	Rounds uint64
}

// NewBarrier returns a barrier for n participants.
func NewBarrier(n int, spin time.Duration) *Barrier {
	return &Barrier{N: n, SpinBudget: spin, WQ: sim.NewWaitQueue()}
}

// Arrive registers the caller at the barrier. If it is the last arrival the
// round completes: the barrier resets and all waiters are released (the
// caller should then proceed without waiting). Otherwise the caller should
// wait using SpinOp/BlockOp guarded by Passed(gen).
func (b *Barrier) Arrive(ctx *sim.Ctx) (last bool, gen uint64) {
	gen = b.gen
	b.count++
	if b.count >= b.N {
		b.count = 0
		b.gen++
		b.Rounds++
		ctx.Broadcast(b.WQ)
		return true, gen
	}
	return false, gen
}

// Passed reports whether the round gen has completed.
func (b *Barrier) Passed(gen uint64) bool { return b.gen != gen }

// SpinOp returns the op that spin-waits for the round to complete.
func (b *Barrier) SpinOp() sim.Op { return sim.Spin(b.WQ, b.SpinBudget) }

// BlockOp returns the op that sleeps until the round completes.
func (b *Barrier) BlockOp() sim.Op { return sim.Block(b.WQ) }

// Msg is one message in a Pipe.
type Msg struct {
	// Size in bytes, priced by the workload (hackbench uses 100-byte
	// messages).
	Size int
	// SentAt is the send timestamp for latency measurements.
	SentAt time.Duration
}

// Pipe is a bounded FIFO byte-message channel like a Unix pipe: writers
// block when full, readers when empty, and each transfer wakes the other
// side — the wakeup-heavy pattern hackbench stresses.
type Pipe struct {
	// Cap is the buffer capacity in messages.
	Cap int
	// Readers/Writers hold blocked threads.
	Readers *sim.WaitQueue
	Writers *sim.WaitQueue

	buf queue.FIFO[Msg]
	// Transfers counts delivered messages.
	Transfers uint64
}

// NewPipe returns a pipe holding up to capacity messages.
func NewPipe(capacity int) *Pipe {
	if capacity < 1 {
		capacity = 1
	}
	return &Pipe{
		Cap:     capacity,
		Readers: sim.NewWaitQueue(),
		Writers: sim.NewWaitQueue(),
	}
}

// TryWrite appends msg if there is room, waking one reader; on failure the
// caller should Block on Writers and retry.
func (p *Pipe) TryWrite(ctx *sim.Ctx, msg Msg) bool {
	if p.buf.Len() >= p.Cap {
		return false
	}
	msg.SentAt = ctx.Now()
	p.buf.Push(msg)
	ctx.Signal(p.Readers, 1)
	return true
}

// TryRead pops a message if available, waking one writer; on failure the
// caller should Block on Readers and retry.
func (p *Pipe) TryRead(ctx *sim.Ctx) (Msg, bool) {
	msg, ok := p.buf.Pop()
	if !ok {
		return Msg{}, false
	}
	p.Transfers++
	ctx.Signal(p.Writers, 1)
	return msg, true
}

// Len returns the buffered message count.
func (p *Pipe) Len() int { return p.buf.Len() }

// Request is one unit of server work.
type Request struct {
	// Arrived is the submission time.
	Arrived time.Duration
	// Service is the CPU demand of the request.
	Service time.Duration
}

// ReqQueue is an open-arrival request queue: an injector pushes requests,
// worker threads pop and serve them, and completion latency is recorded.
// It models the sysbench/RocksDB serving loops of Table 2 and §6.3.
type ReqQueue struct {
	// Workers holds blocked (idle) worker threads.
	Workers *sim.WaitQueue
	// Latency records arrival-to-completion times.
	Latency *stats.Histogram
	// Completed counts finished requests.
	Completed uint64
	// Dropped counts arrivals rejected because the queue was full.
	Dropped uint64
	// MaxDepth bounds the queue (0 = unbounded).
	MaxDepth int

	q queue.FIFO[Request]
}

// NewReqQueue returns an empty request queue.
func NewReqQueue() *ReqQueue {
	return &ReqQueue{
		Workers: sim.NewWaitQueue(),
		Latency: &stats.Histogram{},
	}
}

// Push submits a request at time now and wakes one idle worker. It may be
// called from timer context (m.Signal) or from a thread's Next (ctx).
func (rq *ReqQueue) Push(m *sim.Machine, service time.Duration) bool {
	if rq.MaxDepth > 0 && rq.q.Len() >= rq.MaxDepth {
		rq.Dropped++
		return false
	}
	rq.q.Push(Request{Arrived: m.Now(), Service: service})
	m.Signal(rq.Workers, 1)
	return true
}

// TryPop takes the oldest pending request; on failure the worker should
// Block on Workers and retry.
func (rq *ReqQueue) TryPop() (Request, bool) { return rq.q.Pop() }

// Complete records the request finished at now.
func (rq *ReqQueue) Complete(now time.Duration, r Request) {
	rq.Latency.Observe(now - r.Arrived)
	rq.Completed++
}

// Depth returns the number of waiting requests.
func (rq *ReqQueue) Depth() int { return rq.q.Len() }
