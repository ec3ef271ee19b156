package workload

import (
	"testing"
	"time"

	"repro/internal/ipc"
	"repro/internal/sim"
	"repro/internal/topo"
)

func newMachine(cores int) *sim.Machine {
	tp := topo.MustNew(topo.Config{NUMANodes: 1, LLCsPerNode: 1, CoresPerLLC: cores})
	return sim.NewMachine(tp, sim.NewFIFO(), sim.Options{Seed: 5, Cost: &sim.CostModel{}})
}

func TestLoopCountsOps(t *testing.T) {
	m := newMachine(1)
	var ops int
	m.StartThread("l", "a", 0, &Loop{Burst: time.Millisecond, OnOp: func() { ops++ }})
	m.Run(100 * time.Millisecond)
	if ops < 95 || ops > 101 {
		t.Fatalf("ops = %d, want ~100", ops)
	}
}

func TestFiniteComputeExitsAfterN(t *testing.T) {
	m := newMachine(1)
	var ops int
	done := false
	th := m.StartThread("f", "a", 0, &FiniteCompute{
		Burst: time.Millisecond, N: 10, IOSleep: time.Millisecond,
		OnOp: func() { ops++ }, OnDone: func() { done = true },
	})
	m.Run(time.Second)
	if !done || ops != 10 {
		t.Fatalf("done=%v ops=%d", done, ops)
	}
	if th.State() != sim.StateDead {
		t.Fatal("not dead")
	}
	if th.SleepTime < 9*time.Millisecond {
		t.Fatalf("IOSleep not slept: %v", th.SleepTime)
	}
}

func TestBarrierWorkerPhases(t *testing.T) {
	m := newMachine(4)
	bar := ipc.NewBarrier(4, time.Millisecond)
	var phases [4]int
	for i := 0; i < 4; i++ {
		i := i
		m.StartThread("w", "hpc", 0, &BarrierWorker{
			Bar: bar, Phase: time.Duration(i+1) * time.Millisecond,
			Phases: 5, OnPhase: func() { phases[i]++ },
		})
	}
	m.Run(time.Second)
	for i, p := range phases {
		if p != 5 {
			t.Fatalf("worker %d: %d phases", i, p)
		}
	}
}

func TestServerWorkerWithLock(t *testing.T) {
	m := newMachine(2)
	q := ipc.NewReqQueue()
	mu := ipc.NewMutex()
	var done int
	for i := 0; i < 4; i++ {
		m.StartThread("w", "db", 0, &ServerWorker{
			Q: q, Mu: mu, CritPermille: 1000, Crit: 100 * time.Microsecond,
			OnDone: func() { done++ },
		})
	}
	n := 0
	m.Every(time.Millisecond, time.Millisecond, func() bool {
		n++
		q.Push(m, 500*time.Microsecond)
		return n < 100
	})
	m.Run(5 * time.Second)
	if done != 100 {
		t.Fatalf("served %d/100", done)
	}
	if mu.Owner() != nil {
		t.Fatal("lock leaked")
	}
}

func TestBatchClientRoundTrips(t *testing.T) {
	m := newMachine(1)
	q := ipc.NewReqQueue()
	resp := sim.NewWaitQueue()
	outstanding := 0
	var trips int
	m.StartThread("ab", "ab", 0, &BatchClient{
		Q: q, Window: 10, SendCost: 10 * time.Microsecond,
		Service: 100 * time.Microsecond, RespWQ: resp, Outstanding: &outstanding,
		OnRoundTrip: func() { trips++ },
	})
	for i := 0; i < 4; i++ {
		m.StartThread("httpd", "httpd", 0, &RespondingWorker{Q: q, RespWQ: resp, Outstanding: &outstanding})
	}
	m.Run(time.Second)
	if trips < 100 {
		t.Fatalf("round trips = %d, want many", trips)
	}
	if outstanding != 0 && q.Depth() > 10 {
		t.Fatalf("protocol leak: outstanding=%d depth=%d", outstanding, q.Depth())
	}
}

func TestForkerCreatesChildrenWithInit(t *testing.T) {
	m := newMachine(1)
	var kids []*sim.Thread
	master := m.StartThread("master", "app", 0, &Forker{
		N: 5, InitCost: time.Millisecond,
		Child: func(i int) (string, sim.Program) {
			return "kid", &FiniteCompute{Burst: time.Millisecond, N: 1}
		},
		OnForked: func(i int, t *sim.Thread) { kids = append(kids, t) },
	})
	m.Run(time.Second)
	if len(kids) != 5 {
		t.Fatalf("forked %d/5", len(kids))
	}
	// Master burned 5×1ms init.
	if master.RunTime < 5*time.Millisecond {
		t.Fatalf("master RunTime = %v", master.RunTime)
	}
	for _, k := range kids {
		if k.State() != sim.StateDead {
			t.Fatalf("kid %v not dead", k)
		}
	}
}

func TestSpinPollerElasticity(t *testing.T) {
	// Under FIFO (no priority), the poller's spin is cut short whenever the
	// compute thread progresses; verify the release path works end-to-end.
	m := newMachine(2)
	progress := sim.NewWaitQueue()
	// Jitter breaks phase-locking between the poll period and the
	// broadcast instants.
	m.StartThread("compute", "a", 0, &Loop{Burst: time.Millisecond, JitterPct: 30, Progress: progress})
	poller := m.StartThread("poll", "a", 0, &SpinPoller{Progress: progress, Period: 5 * time.Millisecond, Budget: 50 * time.Millisecond})
	m.Run(time.Second)
	// On a 2-core machine the compute thread runs concurrently, so every
	// poll is released at the next ~1ms progress broadcast, not the 50ms
	// budget: poller runtime ≈ #polls × ~0.5ms ≪ budget-bound total.
	if poller.RunTime > 400*time.Millisecond {
		t.Fatalf("poller burned %v; spin release broken", poller.RunTime)
	}
	if poller.RunTime < 20*time.Millisecond {
		t.Fatalf("poller burned only %v; spin not happening", poller.RunTime)
	}
}

func TestCascadeChain(t *testing.T) {
	m := newMachine(2)
	const n = 10
	wqs := make([]*sim.WaitQueue, n)
	released := make([]bool, n)
	for i := range wqs {
		wqs[i] = sim.NewWaitQueue()
	}
	awake := 0
	for i := 0; i < n; i++ {
		cw := &CascadeWorker{
			Self: wqs[i], Released: &released[i], Chunk: time.Millisecond,
			OnAwake: func() { awake++ },
		}
		if i+1 < n {
			next := i + 1
			cw.ReleaseNext = func(ctx *sim.Ctx) {
				released[next] = true
				ctx.Broadcast(wqs[next])
			}
		}
		m.StartThread("cw", "cray", 0, cw)
	}
	// Kick the first worker (flag before broadcast: level-triggered).
	m.After(10*time.Millisecond, func() { released[0] = true; m.Broadcast(wqs[0]) })
	m.Run(time.Second)
	if awake != n {
		t.Fatalf("awake = %d/%d", awake, n)
	}
}

func TestPipelineFlows(t *testing.T) {
	m := newMachine(4)
	p1 := ipc.NewPipe(4)
	p2 := ipc.NewPipe(4)
	var out int
	m.StartThread("src", "pl", 0, &Source{Out: p1, Cost: 100 * time.Microsecond, N: 50})
	m.StartThread("mid", "pl", 0, &PipelineStage{In: p1, Out: p2, Cost: 200 * time.Microsecond})
	m.StartThread("sink", "pl", 0, &PipelineStage{In: p2, Cost: 100 * time.Microsecond, OnItem: func() { out++ }})
	m.Run(time.Second)
	if out != 50 {
		t.Fatalf("pipeline delivered %d/50", out)
	}
}

func TestJitterBounds(t *testing.T) {
	m := newMachine(1)
	done := false
	m.StartThread("j", "a", 0, sim.ProgramFunc(func(ctx *sim.Ctx) sim.Op {
		if done {
			return sim.Exit()
		}
		done = true
		for i := 0; i < 100; i++ {
			d := jitter(ctx, time.Millisecond, 20)
			if d < 800*time.Microsecond || d > 1200*time.Microsecond {
				t.Errorf("jitter out of bounds: %v", d)
			}
		}
		if jitter(ctx, time.Millisecond, 0) != time.Millisecond {
			t.Error("zero jitter changed duration")
		}
		return sim.Run(time.Microsecond)
	}))
	m.Run(time.Second)
	if !done {
		t.Fatal("program never ran")
	}
}
