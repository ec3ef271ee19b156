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

// fireFunc adapts a plain func to a sim.Timer.
type fireFunc func()

func (f fireFunc) Fire(*sim.Machine) { f() }

// programFunc adapts a plain func to a sim.Program.
type programFunc func(*sim.Ctx) sim.Op

func (f programFunc) Next(ctx *sim.Ctx) sim.Op { return f(ctx) }

func TestLoopCountsOps(t *testing.T) {
	m := newMachine(1)
	var tally Tally
	m.StartThread("l", "a", 0, &Loop{Burst: time.Millisecond, Tally: &tally})
	m.Run(100 * time.Millisecond)
	if ops := tally.Ops(); ops < 95 || ops > 101 {
		t.Fatalf("ops = %d, want ~100", ops)
	}
}

func TestFiniteComputeExitsAfterN(t *testing.T) {
	m := newMachine(1)
	tally := Tally{Left: 1}
	th := m.StartThread("f", "a", 0, &FiniteCompute{
		Burst: time.Millisecond, N: 10, IOSleep: time.Millisecond, Tally: &tally,
	})
	m.Run(time.Second)
	if !tally.Done() || tally.Ops() != 10 {
		t.Fatalf("done=%v ops=%d", tally.Done(), tally.Ops())
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
	var phases [4]Tally
	for i := 0; i < 4; i++ {
		m.StartThread("w", "hpc", 0, &BarrierWorker{
			Bar: bar, Phase: time.Duration(i+1) * time.Millisecond,
			Phases: 5, Tally: &phases[i],
		})
	}
	m.Run(time.Second)
	for i := range phases {
		if p := phases[i].Ops(); p != 5 {
			t.Fatalf("worker %d: %d phases", i, p)
		}
	}
}

func TestServerWorkerWithLock(t *testing.T) {
	m := newMachine(2)
	q := ipc.NewReqQueue()
	mu := ipc.NewMutex()
	var tally Tally
	for i := 0; i < 4; i++ {
		m.StartThread("w", "db", 0, &ServerWorker{
			Q: q, Mu: mu, CritPermille: 1000, Crit: 100 * time.Microsecond,
			Tally: &tally,
		})
	}
	n := 0
	var inject fireFunc
	inject = func() {
		n++
		q.Push(m, 500*time.Microsecond)
		if n < 100 {
			m.At(m.Now()+time.Millisecond, inject)
		}
	}
	m.At(time.Millisecond, inject)
	m.Run(5 * time.Second)
	if done := tally.Ops(); done != 100 {
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
	var tally Tally
	m.StartThread("ab", "ab", 0, &BatchClient{
		Q: q, Window: 10, SendCost: 10 * time.Microsecond,
		Service: 100 * time.Microsecond, RespWQ: resp, Outstanding: &outstanding,
		Tally: &tally,
	})
	for i := 0; i < 4; i++ {
		m.StartThread("httpd", "httpd", 0, &RespondingWorker{Q: q, RespWQ: resp, Outstanding: &outstanding})
	}
	m.Run(time.Second)
	if trips := tally.Ops(); trips < 100 {
		t.Fatalf("round trips = %d, want many", trips)
	}
	if outstanding != 0 && q.Depth() > 10 {
		t.Fatalf("protocol leak: outstanding=%d depth=%d", outstanding, q.Depth())
	}
}

func TestForkerCreatesChildrenWithInit(t *testing.T) {
	m := newMachine(1)
	var tally Tally
	names := []string{"a", "b", "c", "d", "e"}
	f := &Forker{InitCost: time.Millisecond, Tally: &tally}
	for _, n := range names {
		f.Children = append(f.Children, Child{Name: n, Prog: &FiniteCompute{Burst: time.Millisecond, N: 1}})
	}
	master := m.StartThread("master", "app", 0, f)
	m.Run(time.Second)
	kids := tally.Workers
	if len(kids) != 5 {
		t.Fatalf("forked %d/5", len(kids))
	}
	// Master burned 5×1ms init.
	if master.RunTime < 5*time.Millisecond {
		t.Fatalf("master RunTime = %v", master.RunTime)
	}
	for i, k := range kids {
		if k.Name != names[i] || k.Group != "app" || k.Nice != 0 {
			t.Errorf("fork %d: %s in %q at nice %d, want %s in \"app\" at nice 0", i, k.Name, k.Group, k.Nice, names[i])
		}
		if k.State() != sim.StateDead {
			t.Fatalf("kid %v not dead", k)
		}
	}
	if f.Children != nil {
		t.Error("the Forker still holds its children's list after the last fork")
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
	workers := make([]CascadeWorker, n)
	chunks := make([]Tally, n)
	for i := range workers {
		workers[i] = CascadeWorker{Chunk: time.Millisecond, Tally: &chunks[i]}
		if i+1 < n {
			workers[i].Successor = &workers[i+1]
		}
		m.StartThread("cw", "cray", 0, &workers[i])
	}
	// Kick the first worker (flag before broadcast: level-triggered).
	m.At(10*time.Millisecond, fireFunc(func() { workers[0].Release(m) }))
	m.Run(time.Second)
	// A released worker renders chunks; one never released reports none.
	awake := 0
	for i := range chunks {
		if chunks[i].Ops() > 0 {
			awake++
		}
	}
	if awake != n {
		t.Fatalf("awake = %d/%d", awake, n)
	}
}

func TestPipelineFlows(t *testing.T) {
	m := newMachine(4)
	p1 := ipc.NewPipe(4)
	p2 := ipc.NewPipe(4)
	var tally Tally
	m.StartThread("src", "pl", 0, &Source{Out: p1, Cost: 100 * time.Microsecond, N: 50})
	m.StartThread("mid", "pl", 0, &PipelineStage{In: p1, Out: p2, Cost: 200 * time.Microsecond})
	m.StartThread("sink", "pl", 0, &PipelineStage{In: p2, Cost: 100 * time.Microsecond, Tally: &tally})
	m.Run(time.Second)
	if out := tally.Ops(); out != 50 {
		t.Fatalf("pipeline delivered %d/50", out)
	}
}

func TestJitterBounds(t *testing.T) {
	m := newMachine(1)
	done := false
	m.StartThread("j", "a", 0, programFunc(func(ctx *sim.Ctx) sim.Op {
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
