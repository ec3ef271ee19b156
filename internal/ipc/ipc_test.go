package ipc

import (
	"testing"
	"time"

	"repro/internal/sim"
	"repro/internal/topo"
)

func newMachine() *sim.Machine {
	return sim.NewMachine(topo.Small(), sim.NewFIFO(), sim.Options{Seed: 3, Cost: &sim.CostModel{}})
}

// lockWorker repeatedly acquires mu, holds it for hold, releases, then
// thinks for think; iterations bounded.
// fireFunc adapts a plain func to a sim.Timer.
type fireFunc func()

func (f fireFunc) Fire(*sim.Machine) { f() }

// programFunc adapts a plain func to a sim.Program.
type programFunc func(*sim.Ctx) sim.Op

func (f programFunc) Next(ctx *sim.Ctx) sim.Op { return f(ctx) }

type lockWorker struct {
	mu          *Mutex
	hold, think time.Duration
	iters       int
	state       int
	CritCount   int
}

func (w *lockWorker) Next(ctx *sim.Ctx) sim.Op {
	for {
		switch w.state {
		case 0: // try lock
			if w.iters <= 0 {
				return sim.Exit()
			}
			if !w.mu.TryLock(ctx.T) {
				return sim.Block(w.mu.WQ)
			}
			w.state = 1
			return sim.Run(w.hold)
		case 1: // unlock, think
			w.CritCount++
			w.iters--
			w.mu.Unlock(ctx)
			w.state = 0
			if w.think > 0 {
				return sim.Sleep(w.think)
			}
		}
	}
}

func TestMutexMutualExclusionAndProgress(t *testing.T) {
	m := newMachine()
	mu := NewMutex()
	ws := make([]*lockWorker, 4)
	for i := range ws {
		ws[i] = &lockWorker{mu: mu, hold: time.Millisecond, think: 100 * time.Microsecond, iters: 50}
		m.StartThread("lw", "app", 0, ws[i])
	}
	m.Run(5 * time.Second)
	for i, w := range ws {
		if w.CritCount != 50 {
			t.Fatalf("worker %d completed %d/50 critical sections", i, w.CritCount)
		}
	}
	if mu.Owner() != nil {
		t.Fatal("mutex still held")
	}
	if mu.Contentions == 0 {
		t.Fatal("expected contention with 4 workers")
	}
}

func TestMutexPanics(t *testing.T) {
	m := newMachine()
	mu := NewMutex()
	done := false
	m.StartThread("x", "app", 0, programFunc(func(ctx *sim.Ctx) sim.Op {
		if done {
			return sim.Exit()
		}
		done = true
		if !mu.TryLock(ctx.T) {
			t.Error("TryLock failed on free mutex")
		}
		func() {
			defer func() {
				if recover() == nil {
					t.Error("recursive TryLock did not panic")
				}
			}()
			mu.TryLock(ctx.T)
		}()
		mu.Unlock(ctx)
		func() {
			defer func() {
				if recover() == nil {
					t.Error("double Unlock did not panic")
				}
			}()
			mu.Unlock(ctx)
		}()
		return sim.Run(time.Millisecond)
	}))
	m.Run(time.Second)
	if !done {
		t.Fatal("program never ran")
	}
}

// barrierWorker iterates: compute, arrive at barrier, spin then sleep until
// the round passes.
type barrierWorker struct {
	bar     *Barrier
	compute time.Duration
	rounds  int
	state   int
	gen     uint64
	Done    int
}

func (w *barrierWorker) Next(ctx *sim.Ctx) sim.Op {
	for {
		switch w.state {
		case 0:
			if w.Done >= w.rounds {
				return sim.Exit()
			}
			w.state = 1
			return sim.Run(w.compute)
		case 1:
			last, gen := w.bar.Arrive(ctx)
			w.gen = gen
			if last {
				w.Done++
				w.state = 0
				continue
			}
			w.state = 2
			return w.bar.SpinOp()
		case 2:
			if w.bar.Passed(w.gen) {
				w.Done++
				w.state = 0
				continue
			}
			w.state = 3
			return w.bar.BlockOp()
		case 3:
			if w.bar.Passed(w.gen) {
				w.Done++
				w.state = 0
				continue
			}
			// Spurious wake: block again.
			return w.bar.BlockOp()
		}
	}
}

func TestBarrierRounds(t *testing.T) {
	m := newMachine()
	bar := NewBarrier(4, 100*time.Microsecond)
	ws := make([]*barrierWorker, 4)
	for i := range ws {
		// Different compute times force real waiting.
		ws[i] = &barrierWorker{bar: bar, compute: time.Duration(i+1) * time.Millisecond, rounds: 10}
		m.StartThread("bw", "hpc", 0, ws[i])
	}
	m.Run(10 * time.Second)
	for i, w := range ws {
		if w.Done != 10 {
			t.Fatalf("worker %d completed %d/10 rounds", i, w.Done)
		}
	}
	if bar.Rounds != 10 {
		t.Fatalf("barrier rounds = %d", bar.Rounds)
	}
}

func TestBarrierSpinOnlyWhenFast(t *testing.T) {
	// With equal compute and a generous spin budget, nobody should sleep.
	m := newMachine()
	bar := NewBarrier(2, 50*time.Millisecond)
	ws := make([]*barrierWorker, 2)
	for i := range ws {
		ws[i] = &barrierWorker{bar: bar, compute: time.Millisecond, rounds: 20}
		m.StartThread("bw", "hpc", 0, ws[i])
	}
	m.Run(5 * time.Second)
	for _, w := range ws {
		if w.Done != 20 {
			t.Fatalf("incomplete: %d", w.Done)
		}
	}
	for _, th := range m.Threads() {
		if th.SleepTime > time.Millisecond {
			t.Fatalf("thread %v slept %v; expected pure spinning", th, th.SleepTime)
		}
	}
}

// pipeSender writes n messages then exits; pipeReceiver reads n messages.
type pipeSender struct {
	p     *Pipe
	n     int
	perMs time.Duration
}

func (s *pipeSender) Next(ctx *sim.Ctx) sim.Op {
	for {
		if s.n <= 0 {
			return sim.Exit()
		}
		if !s.p.TryWrite(ctx, Msg{Size: 100}) {
			return sim.Block(s.p.Writers)
		}
		s.n--
		return sim.Run(s.perMs)
	}
}

type pipeReceiver struct {
	p     *Pipe
	n     int
	perMs time.Duration
	Got   int
}

func (r *pipeReceiver) Next(ctx *sim.Ctx) sim.Op {
	for {
		if r.Got >= r.n {
			return sim.Exit()
		}
		if _, ok := r.p.TryRead(ctx); !ok {
			return sim.Block(r.p.Readers)
		}
		r.Got++
		return sim.Run(r.perMs)
	}
}

func TestPipeTransfersAll(t *testing.T) {
	m := newMachine()
	p := NewPipe(8)
	recv := &pipeReceiver{p: p, n: 500, perMs: 10 * time.Microsecond}
	m.StartThread("recv", "hb", 0, recv)
	m.StartThread("send", "hb", 0, &pipeSender{p: p, n: 500, perMs: 10 * time.Microsecond})
	m.Run(10 * time.Second)
	if recv.Got != 500 {
		t.Fatalf("received %d/500", recv.Got)
	}
	if p.Transfers != 500 {
		t.Fatalf("transfers = %d", p.Transfers)
	}
	if p.Len() != 0 {
		t.Fatalf("pipe still holds %d", p.Len())
	}
}

func TestPipeBackpressure(t *testing.T) {
	// Slow reader forces the writer to block on a full pipe.
	m := newMachine()
	p := NewPipe(2)
	recv := &pipeReceiver{p: p, n: 20, perMs: 5 * time.Millisecond}
	m.StartThread("recv", "hb", 0, recv)
	sender := m.StartThread("send", "hb", 0, &pipeSender{p: p, n: 20, perMs: 10 * time.Microsecond})
	m.Run(10 * time.Second)
	if recv.Got != 20 {
		t.Fatalf("received %d/20", recv.Got)
	}
	if sender.SleepTime == 0 {
		t.Fatal("writer never blocked despite full pipe")
	}
}

// reqWorker serves requests from a queue.
type reqWorker struct{ q *ReqQueue }

func (w *reqWorker) Next(ctx *sim.Ctx) sim.Op {
	if r, ok := w.q.TryPop(); ok {
		w.q.Complete(ctx.Now()+r.Service, r) // completion recorded at end of service
		return sim.Run(r.Service)
	}
	return sim.Block(w.q.Workers)
}

func TestReqQueueLatency(t *testing.T) {
	m := newMachine()
	q := NewReqQueue()
	for i := 0; i < 4; i++ {
		m.StartThread("worker", "db", 0, &reqWorker{q: q})
	}
	// Open-loop injector: 1 request per ms, 1 ms service, 4 cores & 4
	// workers → utilization 25%, latency ≈ service time.
	n := 0
	var inject fireFunc
	inject = func() {
		n++
		q.Push(m, time.Millisecond)
		if n < 200 {
			m.At(m.Now()+time.Millisecond, inject)
		}
	}
	m.At(time.Millisecond, inject)
	m.Run(5 * time.Second)
	if q.Completed != 200 {
		t.Fatalf("completed %d/200", q.Completed)
	}
	mean := q.Latency.Mean()
	if mean < 900*time.Microsecond || mean > 3*time.Millisecond {
		t.Fatalf("mean latency = %v, want ~1ms", mean)
	}
}

func TestReqQueueBounded(t *testing.T) {
	m := newMachine()
	q := NewReqQueue()
	q.MaxDepth = 2
	q.Push(m, time.Millisecond)
	q.Push(m, time.Millisecond)
	if q.Push(m, time.Millisecond) {
		t.Fatal("push succeeded beyond MaxDepth")
	}
	if q.Dropped != 1 {
		t.Fatalf("dropped = %d", q.Dropped)
	}
}

// TestPipeFIFOAndCapOnLiveLength slides a window of messages through a
// small pipe many times over: messages come out in order, Len is the live
// count, and Cap is enforced on it — not on how far the pipe's backing
// array has been consumed.
func TestPipeFIFOAndCapOnLiveLength(t *testing.T) {
	m := newMachine()
	ctx := &sim.Ctx{M: m}
	p := NewPipe(4)
	sent, received := 0, 0
	for round := 0; round < 5000; round++ {
		for p.Len() < 1+round%4 {
			sent++
			if !p.TryWrite(ctx, Msg{Size: sent}) {
				t.Fatalf("round %d: write refused at Len %d < Cap", round, p.Len())
			}
		}
		if p.Len() == p.Cap && p.TryWrite(ctx, Msg{Size: -1}) {
			t.Fatalf("round %d: write accepted at Len == Cap", round)
		}
		for n := 1 + round%3; n > 0 && p.Len() > 0; n-- {
			received++
			if msg, ok := p.TryRead(ctx); !ok || msg.Size != received {
				t.Fatalf("round %d: read %d, %v, want message %d", round, msg.Size, ok, received)
			}
		}
		if p.Len() != sent-received {
			t.Fatalf("round %d: Len = %d, want %d", round, p.Len(), sent-received)
		}
	}
	if uint64(received) != p.Transfers {
		t.Fatalf("Transfers = %d, want %d", p.Transfers, received)
	}
}

// TestReqQueueFIFOAndMaxDepthOnLiveLength is the same for the request
// queue: oldest first, Depth the live count, MaxDepth enforced on it.
func TestReqQueueFIFOAndMaxDepthOnLiveLength(t *testing.T) {
	m := newMachine()
	q := NewReqQueue()
	q.MaxDepth = 3
	pushed, popped := 0, 0
	var dropped uint64
	for round := 0; round < 5000; round++ {
		for n := 1 + round%4; n > 0; n-- {
			full := q.Depth() == q.MaxDepth
			if ok := q.Push(m, time.Duration(pushed+1)); ok == full {
				t.Fatalf("round %d: Push = %v at Depth %d of %d", round, ok, q.Depth(), q.MaxDepth)
			}
			if full {
				dropped++
			} else {
				pushed++
			}
		}
		for n := 1 + round%2; n > 0 && q.Depth() > 0; n-- {
			popped++
			if r, ok := q.TryPop(); !ok || r.Service != time.Duration(popped) {
				t.Fatalf("round %d: popped %v, %v, want request %d", round, r.Service, ok, popped)
			}
		}
		if q.Depth() != pushed-popped {
			t.Fatalf("round %d: Depth = %d, want %d", round, q.Depth(), pushed-popped)
		}
	}
	if q.Dropped != dropped || dropped == 0 {
		t.Fatalf("Dropped = %d, want %d (and more than none)", q.Dropped, dropped)
	}
}
