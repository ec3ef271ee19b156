// Package workload provides the reusable program state machines the
// application models compose: compute loops, spin/sleep barrier workers,
// request-serving loops, pipe senders/receivers, batching RPC clients,
// forking masters, and progress-watching spin pollers. Each is a
// sim.Program; the apps package instantiates them with per-application
// parameters.
package workload

import (
	"time"

	"repro/internal/ipc"
	"repro/internal/sim"
)

// Loop runs bursts forever, reporting one op per burst.
type Loop struct {
	// Burst is the CPU time per iteration.
	Burst time.Duration
	// JitterPct adds a uniform ±pct variation per burst.
	JitterPct int
	// OnOp, if set, is called once per completed burst.
	OnOp func()
	// Progress, if set, is broadcast after every burst so watchers
	// (SpinPoller) can observe forward progress.
	Progress *sim.WaitQueue

	started bool
}

// Next implements sim.Program.
func (l *Loop) Next(ctx *sim.Ctx) sim.Op {
	if l.started {
		if l.OnOp != nil {
			l.OnOp()
		}
		if l.Progress != nil {
			ctx.Broadcast(l.Progress)
		}
	}
	l.started = true
	return sim.Run(jitter(ctx, l.Burst, l.JitterPct))
}

// FiniteCompute runs N bursts then exits; used for compile jobs and other
// run-to-completion work.
type FiniteCompute struct {
	Burst     time.Duration
	JitterPct int
	N         int
	// IOSleep, when positive, sleeps after each burst (I/O bound phases).
	IOSleep time.Duration
	// OnOp is called per completed burst; OnDone once before exit.
	OnOp   func()
	OnDone func()

	i       int
	pending bool // a burst just completed, account it
	slept   bool
}

// Next implements sim.Program.
func (f *FiniteCompute) Next(ctx *sim.Ctx) sim.Op {
	if f.pending {
		f.pending = false
		if f.OnOp != nil {
			f.OnOp()
		}
		if f.IOSleep > 0 {
			f.slept = true
			return sim.Sleep(f.IOSleep)
		}
	}
	f.slept = false
	if f.i >= f.N {
		if f.OnDone != nil {
			f.OnDone()
		}
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
	// OnPhase is called when this worker passes a barrier.
	OnPhase func()

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
	if w.OnPhase != nil {
		w.OnPhase()
	}
	if w.IOSleep > 0 {
		w.state = 4
	} else {
		w.state = 0
	}
}

// ServerWorker serves requests from a queue, optionally entering a critical
// section for a fraction of requests (the MySQL lock behaviour of §6.4).
type ServerWorker struct {
	Q *ipc.ReqQueue
	// Mu guards the critical section; CritPermille of requests take it.
	Mu           *ipc.Mutex
	CritPermille int
	Crit         time.Duration
	// OnDone is called per completed request.
	OnDone func()

	req    ipc.Request
	hasReq bool
	state  int // 0 idle, 1 served (maybe lock), 2 locked crit done
	wantMu bool
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
	if w.OnDone != nil {
		w.OnDone()
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
	// OnRoundTrip is called per response received.
	OnRoundTrip func()

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
		if c.OnRoundTrip != nil {
			for i := 0; i < c.Window; i++ {
				c.OnRoundTrip()
			}
		}
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
	OnSent  func()

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
		if s.OnSent != nil {
			s.OnSent()
		}
		return sim.Run(s.PerMsg)
	}
}

// PipeReceiver drains a pipe (hackbench receiver halves).
type PipeReceiver struct {
	Pipe   *ipc.Pipe
	PerMsg time.Duration
	Total  int
	OnRecv func()

	got int
}

// Next implements sim.Program.
func (r *PipeReceiver) Next(ctx *sim.Ctx) sim.Op {
	for {
		if r.got >= r.Total {
			return sim.Exit()
		}
		if _, ok := r.Pipe.TryRead(ctx); !ok {
			return sim.Block(r.Pipe.Readers)
		}
		r.got++
		if r.OnRecv != nil {
			r.OnRecv()
		}
		return sim.Run(r.PerMsg)
	}
}

// Forker is an application master: per child it burns InitCost (building
// the child's state — the mechanism that degrades the master's ULE
// interactivity across the fork loop, §5.2), forks, then runs an optional
// continuation program.
type Forker struct {
	N        int
	InitCost time.Duration
	// Child returns the i-th child's name and program.
	Child func(i int) (string, sim.Program)
	// Group for the children; empty inherits the master's.
	Group string
	// Nice for the children.
	Nice int
	// Then, if set, continues as this program after the fork loop;
	// otherwise the master sleeps forever (like a main() in pthread_join).
	Then sim.Program
	// OnForked is called with each forked thread.
	OnForked func(i int, t *sim.Thread)

	i        int
	doFork   bool
	finished bool
}

// Next implements sim.Program.
func (f *Forker) Next(ctx *sim.Ctx) sim.Op {
	for {
		if f.doFork {
			f.doFork = false
			name, prog := f.Child(f.i)
			group := f.Group
			if group == "" {
				group = ctx.T.Group
			}
			t := ctx.Fork(name, group, f.Nice, prog)
			if f.OnForked != nil {
				f.OnForked(f.i, t)
			}
			f.i++
		}
		if f.i < f.N {
			f.doFork = true
			if f.InitCost > 0 {
				return sim.Run(f.InitCost)
			}
			continue
		}
		if f.Then != nil {
			if !f.finished {
				f.finished = true
			}
			return f.Then.Next(ctx)
		}
		return sim.Sleep(time.Hour)
	}
}

// LockedLoop alternates local computation with a short critical section
// under a shared mutex (canneal's annealing moves): lock-heavy CPU-bound
// work whose waiters sleep on contention.
type LockedLoop struct {
	Mu    *ipc.Mutex
	Crit  time.Duration
	Local time.Duration
	OnOp  func()

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
			if l.OnOp != nil {
				l.OnOp()
			}
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
// released, release the next worker, then compute chunks forever (§6.2).
// The release is level-triggered (a flag set before the broadcast), so a
// release that arrives before the worker first blocks is never lost.
type CascadeWorker struct {
	// Self is this worker's wake queue.
	Self *sim.WaitQueue
	// Released is this worker's release flag, set by its predecessor (or
	// the master, for worker 0) before broadcasting Self.
	Released *bool
	// ReleaseNext releases the successor (nil for the last worker).
	ReleaseNext func(ctx *sim.Ctx)
	// Chunk is the render work unit.
	Chunk time.Duration
	// OnChunk counts completed chunks; OnAwake marks the worker released
	// for the Figure 7 probe.
	OnChunk func()
	OnAwake func()

	state int
}

// Next implements sim.Program.
func (w *CascadeWorker) Next(ctx *sim.Ctx) sim.Op {
	for {
		switch w.state {
		case 0:
			if w.Released == nil || *w.Released {
				w.state = 1
				continue
			}
			return sim.Block(w.Self)
		case 1:
			// Released: pass the baton, then render.
			if w.OnAwake != nil {
				w.OnAwake()
			}
			if w.ReleaseNext != nil {
				w.ReleaseNext(ctx)
			}
			w.state = 2
		case 2:
			w.state = 3
			return sim.Run(w.Chunk)
		case 3:
			if w.OnChunk != nil {
				w.OnChunk()
			}
			w.state = 2
		}
	}
}

// PipelineStage is a worker in a producer/consumer pipeline (ferret, vips,
// x264): read an item from In, process it, write to Out.
type PipelineStage struct {
	In, Out *ipc.Pipe
	Cost    time.Duration
	// JitterPct varies the per-item cost.
	JitterPct int
	// OnItem counts processed items.
	OnItem func()

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
			if s.OnItem != nil {
				s.OnItem()
			}
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
