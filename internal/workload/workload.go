// Package workload provides the reusable program state machines the
// application models compose: compute loops, spin/sleep barrier workers,
// request-serving loops, pipe senders/receivers, batching RPC clients,
// forking masters, and progress-watching spin pollers. Each is a
// sim.Program; the apps package instantiates them with per-application
// parameters. Programs report what they do to a shared Tally.
package workload

import (
	"time"

	"repro/internal/ipc"
	"repro/internal/sim"
)

// Tally is where programs report: an app's threads share one through
// their Tally fields (nil reports nothing), so the counting is data, not a
// closure per thread. DESIGN §5 lists what each program reports.
type Tally struct {
	// Workers are the threads a Forker started, in fork order.
	Workers []*sim.Thread
	// Left is a countdown of finishes still due; the finish that takes it
	// to zero stamps the done time. A tally whose Left starts at zero never
	// finishes.
	Left int

	ops    uint64
	done   bool
	doneAt time.Duration
}

// Ops returns the units of work reported so far.
func (t *Tally) Ops() uint64 { return t.ops }

// Done reports whether the countdown has reached zero.
func (t *Tally) Done() bool { return t != nil && t.done }

// DoneAt returns when the countdown reached zero (0 while it has not).
func (t *Tally) DoneAt() time.Duration { return t.doneAt }

func (t *Tally) add(n uint64) {
	if t != nil {
		t.ops += n
	}
}

func (t *Tally) finish(now time.Duration) {
	if t == nil || t.Left <= 0 {
		return
	}
	t.Left--
	if t.Left == 0 {
		t.done, t.doneAt = true, now
	}
}

// Loop runs bursts forever, reporting one op per burst.
type Loop struct {
	// Burst is the CPU time per iteration.
	Burst time.Duration
	// JitterPct adds a uniform ±pct variation per burst.
	JitterPct int
	Tally     *Tally
	// Progress, if set, is broadcast after every burst so watchers
	// (SpinPoller) can observe forward progress.
	Progress *sim.WaitQueue

	started bool
}

// Next implements sim.Program.
func (l *Loop) Next(ctx *sim.Ctx) sim.Op {
	if l.started {
		l.Tally.add(1)
		if l.Progress != nil {
			ctx.Broadcast(l.Progress)
		}
	}
	l.started = true
	return sim.Run(jitter(ctx, l.Burst, l.JitterPct))
}

// FiniteCompute runs N bursts then exits; used for compile jobs and other
// run-to-completion work. It reports an op per burst and a finish at exit.
type FiniteCompute struct {
	Burst     time.Duration
	JitterPct int
	N         int
	// IOSleep, when positive, sleeps after each burst (I/O bound phases).
	IOSleep time.Duration
	Tally   *Tally

	i       int
	pending bool // a burst just completed, account it
	slept   bool
}

// Next implements sim.Program.
func (f *FiniteCompute) Next(ctx *sim.Ctx) sim.Op {
	if f.pending {
		f.pending = false
		f.Tally.add(1)
		if f.IOSleep > 0 {
			f.slept = true
			return sim.Sleep(f.IOSleep)
		}
	}
	f.slept = false
	if f.i >= f.N {
		f.Tally.finish(ctx.Now())
		return sim.Exit()
	}
	f.i++
	f.pending = true
	return sim.Run(jitter(ctx, f.Burst, f.JitterPct))
}

// BarrierWorker is the HPC pattern: compute a phase, then wait at a
// spin-then-sleep barrier (the NAS applications; MG's 100 ms spin budget is
// the paper's example).
type BarrierWorker struct {
	Bar       *ipc.Barrier
	Phase     time.Duration
	JitterPct int
	// IOSleep sleeps after each phase before computing (DC's I/O).
	IOSleep time.Duration
	// Phases bounds the number of rounds; 0 = unbounded.
	Phases int
	// Tally gets an op each time this worker passes the barrier.
	Tally *Tally

	state int
	gen   uint64
	done  int
}

// Next implements sim.Program.
func (w *BarrierWorker) Next(ctx *sim.Ctx) sim.Op {
	for {
		switch w.state {
		case 0: // compute
			if w.Phases > 0 && w.done >= w.Phases {
				return sim.Exit()
			}
			w.state = 1
			return sim.Run(jitter(ctx, w.Phase, w.JitterPct))
		case 1: // arrive
			last, gen := w.Bar.Arrive(ctx)
			w.gen = gen
			if last {
				w.passed()
				continue
			}
			w.state = 2
			return w.Bar.SpinOp()
		case 2: // after spin
			if w.Bar.Passed(w.gen) {
				w.passed()
				continue
			}
			w.state = 3
			return w.Bar.BlockOp()
		case 3: // after sleep
			if w.Bar.Passed(w.gen) {
				w.passed()
				continue
			}
			return w.Bar.BlockOp()
		case 4: // optional I/O after the barrier
			w.state = 0
			return sim.Sleep(w.IOSleep)
		}
	}
}

func (w *BarrierWorker) passed() {
	w.done++
	w.Tally.add(1)
	if w.IOSleep > 0 {
		w.state = 4
	} else {
		w.state = 0
	}
}

// ServerWorker serves requests from a queue, optionally entering a critical
// section for a fraction of requests (the MySQL lock behaviour of §6.4).
// Each served request is an op and a finish.
type ServerWorker struct {
	Q *ipc.ReqQueue
	// Mu guards the critical section; CritPermille of requests take it.
	Mu           *ipc.Mutex
	CritPermille int
	Crit         time.Duration
	Tally        *Tally
	// Think, when positive, closes the loop: the worker is one client
	// connection (sysbench's model), and each served request comes back
	// Think later as a new one of Service, until Tally is done.
	Think, Service time.Duration

	req            ipc.Request
	state          int // 0 idle, 1 served (maybe lock), 2 locked crit done
	hasReq, wantMu bool
}

// Next implements sim.Program.
func (w *ServerWorker) Next(ctx *sim.Ctx) sim.Op {
	for {
		switch w.state {
		case 0:
			if !w.hasReq {
				r, ok := w.Q.TryPop()
				if !ok {
					return sim.Block(w.Q.Workers)
				}
				w.req = r
				w.hasReq = true
				w.wantMu = w.Mu != nil && ctx.Rand().Intn(1000) < w.CritPermille
			}
			w.state = 1
			return sim.Run(w.req.Service)
		case 1:
			if w.wantMu {
				// Short critical section under the shared lock (the §6.4
				// MySQL lock handoff), held only for Crit.
				if !w.Mu.TryLock(ctx.T) {
					return sim.Block(w.Mu.WQ)
				}
				w.state = 2
				return sim.Run(w.Crit)
			}
			w.complete(ctx)
		case 2:
			w.Mu.Unlock(ctx)
			w.complete(ctx)
		}
	}
}

func (w *ServerWorker) complete(ctx *sim.Ctx) {
	w.Q.Complete(ctx.Now(), w.req)
	w.hasReq = false
	w.state = 0
	w.Tally.add(1)
	w.Tally.finish(ctx.Now())
	if w.Think > 0 && !w.Tally.Done() {
		w.Send(ctx.M, w.Think)
	}
}

// Send has the worker's connection push a request d from now, unless Tally
// is done by then; a closed loop's first request is sent this way. The
// worker is its own timer, so a send allocates nothing.
func (w *ServerWorker) Send(m *sim.Machine, d time.Duration) {
	m.At(m.Now()+d, w)
}

// Fire implements sim.Timer: the connection's request arrives.
func (w *ServerWorker) Fire(m *sim.Machine) {
	if !w.Tally.Done() {
		w.Q.Push(m, w.Service)
	}
}

// BatchClient is the ab load injector: send a window of requests
// back-to-back, then block until all responses arrive (§5.3: "ab starts by
// sending 100 requests to the httpd server, and then waits").
type BatchClient struct {
	Q *ipc.ReqQueue
	// Window is the batch size (ab's concurrency, 100).
	Window int
	// SendCost is the CPU per request sent.
	SendCost time.Duration
	// Service is the request's CPU demand at the server.
	Service time.Duration
	// RespWQ is signalled by workers on each response.
	RespWQ *sim.WaitQueue
	// Outstanding counts in-flight requests (shared with workers).
	Outstanding *int
	// Tally gets an op per response, a window at a time.
	Tally *Tally

	sent    int
	sendOne bool
}

// Next implements sim.Program.
func (c *BatchClient) Next(ctx *sim.Ctx) sim.Op {
	for {
		if c.sendOne {
			c.sendOne = false
			c.Q.Push(ctx.M, c.Service)
			*c.Outstanding++
			c.sent++
		}
		if c.sent < c.Window {
			c.sendOne = true
			return sim.Run(c.SendCost)
		}
		// All sent: wait for the whole window to drain, counting each
		// response.
		if *c.Outstanding > 0 {
			return sim.Block(c.RespWQ)
		}
		c.Tally.add(uint64(c.Window))
		c.sent = 0
	}
}

// RespondingWorker pairs with BatchClient: serve a request, decrement the
// outstanding count and wake the client.
type RespondingWorker struct {
	Q           *ipc.ReqQueue
	RespWQ      *sim.WaitQueue
	Outstanding *int

	req    ipc.Request
	hasReq bool
	served bool
}

// Next implements sim.Program.
func (w *RespondingWorker) Next(ctx *sim.Ctx) sim.Op {
	for {
		if w.served {
			w.served = false
			w.Q.Complete(ctx.Now(), w.req)
			w.hasReq = false
			*w.Outstanding--
			// Wake the client; under CFS this is the preemption-heavy
			// path, under ULE it never preempts.
			ctx.Signal(w.RespWQ, 1)
		}
		if !w.hasReq {
			r, ok := w.Q.TryPop()
			if !ok {
				return sim.Block(w.Q.Workers)
			}
			w.req = r
			w.hasReq = true
		}
		w.served = true
		return sim.Run(w.req.Service)
	}
}

// PipeSender sends messages through a set of pipes round-robin (hackbench
// sender halves).
type PipeSender struct {
	Pipes   []*ipc.Pipe
	PerMsg  time.Duration
	Total   int
	MsgSize int

	sent int
	next int
}

// Next implements sim.Program.
func (s *PipeSender) Next(ctx *sim.Ctx) sim.Op {
	for {
		if s.sent >= s.Total {
			return sim.Exit()
		}
		p := s.Pipes[s.next%len(s.Pipes)]
		if !p.TryWrite(ctx, ipc.Msg{Size: s.MsgSize}) {
			return sim.Block(p.Writers)
		}
		s.next++
		s.sent++
		return sim.Run(s.PerMsg)
	}
}

// PipeReceiver drains a pipe (hackbench receiver halves), reporting an op
// per message and a finish at exit.
type PipeReceiver struct {
	Pipe   *ipc.Pipe
	PerMsg time.Duration
	Total  int
	Tally  *Tally

	got int
}

// Next implements sim.Program.
func (r *PipeReceiver) Next(ctx *sim.Ctx) sim.Op {
	for {
		if r.got >= r.Total {
			r.Tally.finish(ctx.Now())
			return sim.Exit()
		}
		if _, ok := r.Pipe.TryRead(ctx); !ok {
			return sim.Block(r.Pipe.Readers)
		}
		r.got++
		r.Tally.add(1)
		return sim.Run(r.PerMsg)
	}
}

// Child is one thread a Forker starts: its name and its program.
type Child struct {
	Name string
	Prog sim.Program
}

// Forker is an application master: per child it burns InitCost (building
// the child's state — the mechanism that degrades the master's ULE
// interactivity across the fork loop, §5.2), forks the child into the
// master's group at nice 0, then runs an optional continuation program.
type Forker struct {
	// Children are forked in order. The Forker drops the list once the
	// last one is forked.
	Children []Child
	InitCost time.Duration
	// Then, if set, continues as this program after the fork loop, from
	// the instant of the last fork; otherwise the master sleeps forever
	// (like a main() in pthread_join).
	Then sim.Program
	// Tally, if set, lists each forked thread in Workers.
	Tally *Tally

	i      int
	doFork bool
}

// Next implements sim.Program.
func (f *Forker) Next(ctx *sim.Ctx) sim.Op {
	for {
		if f.doFork {
			f.doFork = false
			c := f.Children[f.i]
			t := ctx.Fork(c.Name, ctx.T.Group, 0, c.Prog)
			if f.Tally != nil {
				f.Tally.Workers = append(f.Tally.Workers, t)
			}
			f.i++
		}
		if f.i < len(f.Children) {
			f.doFork = true
			if f.InitCost > 0 {
				return sim.Run(f.InitCost)
			}
			continue
		}
		f.Children = nil
		if f.Then != nil {
			return f.Then.Next(ctx)
		}
		return sim.Sleep(time.Hour)
	}
}

// LockedLoop alternates local computation with a short critical section
// under a shared mutex (canneal's annealing moves): lock-heavy CPU-bound
// work whose waiters sleep on contention. Each release is an op.
type LockedLoop struct {
	Mu    *ipc.Mutex
	Crit  time.Duration
	Local time.Duration
	Tally *Tally

	state int
}

// Next implements sim.Program.
func (l *LockedLoop) Next(ctx *sim.Ctx) sim.Op {
	for {
		switch l.state {
		case 0: // local work
			l.state = 1
			return sim.Run(l.Local)
		case 1: // acquire
			if !l.Mu.TryLock(ctx.T) {
				return sim.Block(l.Mu.WQ)
			}
			l.state = 2
			return sim.Run(l.Crit)
		case 2: // release
			l.Mu.Unlock(ctx)
			l.Tally.add(1)
			l.state = 0
		}
	}
}

// SpinPoller models a runtime service thread (the scimark JVM threads of
// §5.3): it wakes periodically and spin-waits watching another thread's
// progress, up to a budget. Under a fairness scheduler the watched thread
// soon runs and cuts the poll short; under ULE the poller's interactive
// priority lets it burn its whole budget.
type SpinPoller struct {
	// Progress is broadcast by the watched thread on each work unit.
	Progress *sim.WaitQueue
	// Period is the sleep between polls.
	Period time.Duration
	// Budget caps one poll's spin.
	Budget time.Duration

	spun bool
}

// Next implements sim.Program.
func (p *SpinPoller) Next(ctx *sim.Ctx) sim.Op {
	if p.spun {
		p.spun = false
		return sim.Sleep(p.Period)
	}
	p.spun = true
	return sim.Spin(p.Progress, p.Budget)
}

// CascadeWorker participates in c-ray's cascading start barrier: wait to be
// released, release the next worker, then compute chunks forever (§6.2),
// an op each.
type CascadeWorker struct {
	// Successor is released by this worker (nil for the last one).
	Successor *CascadeWorker
	// Chunk is the render work unit.
	Chunk time.Duration
	Tally *Tally

	self     sim.WaitQueue
	released bool
	state    int
}

// Release lets w go. The release is level-triggered (a flag set before the
// broadcast), so one that arrives before w first blocks is never lost.
func (w *CascadeWorker) Release(m *sim.Machine) {
	w.released = true
	m.Broadcast(&w.self)
}

// Next implements sim.Program.
func (w *CascadeWorker) Next(ctx *sim.Ctx) sim.Op {
	for {
		switch w.state {
		case 0:
			if !w.released {
				return sim.Block(&w.self)
			}
			// Released: pass the baton, then render.
			if w.Successor != nil {
				w.Successor.Release(ctx.M)
			}
			w.state = 1
		case 1:
			w.state = 2
			return sim.Run(w.Chunk)
		case 2:
			w.Tally.add(1)
			w.state = 1
		}
	}
}

// PipelineStage is a worker in a producer/consumer pipeline (ferret, vips,
// x264): read an item from In, process it, write to Out; an op per item.
type PipelineStage struct {
	In, Out *ipc.Pipe
	Cost    time.Duration
	// JitterPct varies the per-item cost.
	JitterPct int
	Tally     *Tally

	hasItem bool
	pushed  bool
}

// Next implements sim.Program.
func (s *PipelineStage) Next(ctx *sim.Ctx) sim.Op {
	for {
		if s.pushed {
			// Processing done: push downstream (or complete).
			if s.Out != nil {
				if !s.Out.TryWrite(ctx, ipc.Msg{Size: 1}) {
					return sim.Block(s.Out.Writers)
				}
			}
			s.pushed = false
			s.hasItem = false
			s.Tally.add(1)
		}
		if !s.hasItem {
			if s.In != nil {
				if _, ok := s.In.TryRead(ctx); !ok {
					return sim.Block(s.In.Readers)
				}
			}
			s.hasItem = true
		}
		s.pushed = true
		return sim.Run(jitter(ctx, s.Cost, s.JitterPct))
	}
}

// Source feeds a pipeline: generate items at a fixed CPU cost each.
type Source struct {
	Out  *ipc.Pipe
	Cost time.Duration
	// N bounds generated items (0 = unbounded).
	N int

	produced int
	ready    bool
}

// Next implements sim.Program.
func (s *Source) Next(ctx *sim.Ctx) sim.Op {
	for {
		if s.ready {
			if !s.Out.TryWrite(ctx, ipc.Msg{Size: 1}) {
				return sim.Block(s.Out.Writers)
			}
			s.ready = false
			s.produced++
		}
		if s.N > 0 && s.produced >= s.N {
			return sim.Exit()
		}
		s.ready = true
		return sim.Run(s.Cost)
	}
}

// jitter applies a deterministic uniform ±pct variation.
func jitter(ctx *sim.Ctx, d time.Duration, pct int) time.Duration {
	if pct <= 0 || d <= 0 {
		return d
	}
	span := int64(d) * int64(pct) / 100
	return d + time.Duration(ctx.Rand().Int63n(2*span+1)-span)
}
