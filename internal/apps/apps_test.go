package apps

import (
	"sync"
	"testing"
	"time"

	"repro/internal/cfs"
	"repro/internal/sim"
	"repro/internal/topo"
	"repro/internal/ule"
)

func cfsMachine(tp *topo.Topology, seed int64) *sim.Machine {
	return sim.NewMachine(tp, cfs.NewDefault(), sim.Options{Seed: seed})
}

func uleMachine(tp *topo.Topology, seed int64) *sim.Machine {
	return sim.NewMachine(tp, ule.NewDefault(), sim.Options{Seed: seed})
}

func TestCatalogSizes(t *testing.T) {
	// 42 bars = the paper's "37 applications" with scimark's six variants
	// counted once (Figure 5's x-axis).
	if got := len(Catalog()); got != 42 {
		t.Fatalf("Catalog has %d bars, want 42", got)
	}
	if got := len(CatalogMulticore()); got != 44 {
		t.Fatalf("CatalogMulticore has %d bars, want 44 (fig 8)", got)
	}
	seen := map[string]bool{}
	for _, s := range CatalogMulticore() {
		if seen[s.Name] {
			t.Fatalf("duplicate app name %q", s.Name)
		}
		seen[s.Name] = true
	}
}

func TestByName(t *testing.T) {
	if _, err := ByName("MG"); err != nil {
		t.Fatal(err)
	}
	if _, err := ByName("fibo"); err != nil {
		t.Fatal(err)
	}
	if _, err := ByName("openweb"); err != nil {
		t.Fatal(err)
	}
	if _, err := ByName("nonesuch"); err == nil {
		t.Fatal("expected error")
	}
	if len(Names()) != 44 {
		t.Fatalf("Names = %d", len(Names()))
	}
}

// TestEveryAppMakesProgress launches each catalog app alone on a small
// machine under both schedulers and requires nonzero work.
func TestEveryAppMakesProgress(t *testing.T) {
	for _, spec := range Catalog() {
		spec := spec
		t.Run(spec.Name, func(t *testing.T) {
			for _, mk := range []struct {
				name string
				m    *sim.Machine
			}{
				{"cfs", cfsMachine(topo.Small(), 11)},
				{"ule", uleMachine(topo.Small(), 11)},
			} {
				in := spec.New(mk.m, Env{Cores: mk.m.Topo.NCores()})
				mk.m.Run(ShellWarmup + 8*time.Second)
				if in.Ops() == 0 {
					t.Errorf("%s on %s made no progress", spec.Name, mk.name)
				}
				if in.Master == nil {
					t.Errorf("%s on %s never launched", spec.Name, mk.name)
				}
			}
		})
	}
}

// TestOpenLoopWebServesAndRecordsLatency also pins openweb's default-seed
// stream exactly: no bundled scenario, experiment or bench workload
// launches openweb, so no digest would see its seed draw move. The second
// run starts kernel noise, which draws the machine's PRNG before the fork,
// so a seed drawn at any other instant than the fork changes its figures.
func TestOpenLoopWebServesAndRecordsLatency(t *testing.T) {
	m := cfsMachine(topo.Small(), 3)
	in := OpenLoopWeb(OpenLoopConfig{Rate: 2000}).New(m, Env{Cores: 8})
	m.Run(ShellWarmup + 3*time.Second)
	if in.Ops() == 0 {
		t.Fatal("openweb served no requests")
	}
	if in.Latency == nil || in.Latency.Count() == 0 {
		t.Fatal("openweb recorded no latency samples")
	}
	// Offered load is ~2000 req/s over ~3 s; a lightly loaded 8-core box
	// must complete most of it.
	if in.Ops() < 4000 {
		t.Fatalf("openweb completed %d requests, want ≥4000", in.Ops())
	}

	type figures struct {
		ops, samples uint64
		p99          time.Duration
		events       uint64
	}
	got := func(m *sim.Machine, in *Instance) figures {
		return figures{in.Ops(), in.Latency.Count(), in.Latency.Quantile(0.99), m.EventsProcessed()}
	}
	if g, want := got(m, in), (figures{6105, 6105, 291529, 52569}); g != want {
		t.Errorf("quiet machine: %+v, want %+v", g, want)
	}
	m = cfsMachine(topo.Small(), 3)
	StartKernelNoise(m, 15*time.Millisecond, 300*time.Microsecond)
	in = OpenLoopWeb(OpenLoopConfig{Rate: 2000}).New(m, Env{Cores: 8})
	m.Run(ShellWarmup + 3*time.Second)
	if g, want := got(m, in), (figures{6137, 6137, 824571, 56775}); g != want {
		t.Errorf("with kernel noise: %+v, want %+v", g, want)
	}
}

func TestFiboIsPureCompute(t *testing.T) {
	m := cfsMachine(topo.SingleCore(), 1)
	in := Fibo().New(m, Env{Cores: 1})
	m.Run(ShellWarmup + 5*time.Second)
	if in.Master.SleepTime > time.Millisecond {
		t.Fatalf("fibo slept %v", in.Master.SleepTime)
	}
	// ~5s of compute minus shell overhead.
	if in.Master.RunTime < 4500*time.Millisecond {
		t.Fatalf("fibo ran only %v", in.Master.RunTime)
	}
}

func TestSysbenchMasterForkDegradation(t *testing.T) {
	// §5.2: workers forked early are interactive under ULE; later ones
	// batch. Verify the split exists with the default 128-thread config.
	m := uleMachine(topo.SingleCore(), 1)
	u := m.Scheduler().(*ule.Sched)
	cfg := DefaultSysbench()
	cfg.Threads = 128
	in := Sysbench(cfg).New(m, Env{Cores: 1})
	// Give the master time to fork all 128 workers (128×15ms ≈ 2s of CPU,
	// shared with running workers) and the workers time to classify.
	m.Run(ShellWarmup + 30*time.Second)
	if len(in.Workers) != 128 {
		t.Fatalf("forked %d/128 workers", len(in.Workers))
	}
	inter, batch := 0, 0
	for _, w := range in.Workers {
		if u.Interactive(w) {
			inter++
		} else {
			batch++
		}
	}
	if inter < 40 || batch < 20 {
		t.Fatalf("interactive/batch split = %d/%d; want a real split (paper: 80/48)", inter, batch)
	}
}

// TestSysbenchTxTargetStopsResends: a closed-loop sysbench with a
// transaction target (the co-scheduling driver's setting) stamps its tally
// done at the target, and no connection sends after that — not even one
// whose send was armed before the stamp. Eight connections of 0.9 ms per
// 50 ms think keep one core ~15 % busy, so at the stamp nearly every
// connection is thinking: at most one request is in flight to drain, and
// the op count then stands still.
func TestSysbenchTxTargetStopsResends(t *testing.T) {
	m := cfsMachine(topo.SingleCore(), 1)
	cfg := DefaultSysbench()
	cfg.Threads = 8
	cfg.TxTarget = 300
	in := Sysbench(cfg).New(m, Env{Cores: 1})
	if !m.RunUntil(in.Done, ShellWarmup+30*time.Second) {
		t.Fatalf("not done after %v: %d ops of %d", m.Now(), in.Ops(), cfg.TxTarget)
	}
	done := in.DoneAt()
	if done <= ShellWarmup || done != m.Now() || in.Ops() != cfg.TxTarget {
		t.Fatalf("done at %v (now %v) with %d ops, want stamped now at the target %d", done, m.Now(), in.Ops(), cfg.TxTarget)
	}
	m.Run(done + time.Second)
	drained := in.Ops()
	if drained > cfg.TxTarget+1 {
		t.Fatalf("%d ops a second after done at %d: sends armed before done still pushed", drained, cfg.TxTarget)
	}
	m.Run(done + 2*time.Second)
	if got := in.Ops(); got != drained {
		t.Fatalf("ops went from %d to %d between 1 s and 2 s after done: a connection re-sent", drained, got)
	}
}

// preemptTally wraps a scheduler and counts, per thread ID, the preempted
// deschedules the engine hands to PutPrev.
type preemptTally struct {
	sim.Scheduler
	byThread map[int]uint64
}

func (p *preemptTally) PutPrev(c *sim.Core, t *sim.Thread, flags int) {
	if flags&sim.FlagPreempted != 0 {
		p.byThread[t.ID]++
	}
	p.Scheduler.PutPrev(c, t, flags)
}

func TestApacheBatchingOnULEvsPreemptionOnCFS(t *testing.T) {
	run := func(s sim.Scheduler) (ops uint64, preempts uint64) {
		tally := &preemptTally{Scheduler: s, byThread: map[int]uint64{}}
		m := sim.NewMachine(topo.SingleCore(), tally, sim.Options{Seed: 3})
		in := Apache().New(m, Env{Cores: 1})
		m.Run(ShellWarmup + 10*time.Second)
		var ab *sim.Thread
		for _, w := range in.Workers {
			if w.Name == "ab" {
				ab = w
			}
		}
		if ab == nil {
			t.Fatal("no ab thread")
		}
		var total uint64
		for _, n := range tally.byThread {
			total += n
		}
		if total != m.Counts.Preemptions {
			t.Fatalf("%s: PutPrev saw %d preemptions, engine counted %d", s.Name(), total, m.Counts.Preemptions)
		}
		return in.Ops(), tally.byThread[ab.ID]
	}
	cops, cpre := run(cfs.NewDefault())
	uops, upre := run(ule.NewDefault())
	if cpre == 0 {
		t.Fatalf("CFS never preempted ab (got %d)", cpre)
	}
	if upre != 0 {
		t.Fatalf("ULE preempted ab %d times; preemption is disabled", upre)
	}
	if uops <= cops {
		t.Fatalf("apache ops ULE=%d vs CFS=%d; ULE should win (paper: +40%%)", uops, cops)
	}
}

func TestMGOneThreadPerCoreULE(t *testing.T) {
	m := uleMachine(topo.Small(), 5)
	StartKernelNoise(m, 15*time.Millisecond, 300*time.Microsecond)
	in := NASMG().New(m, Env{Cores: 8})
	m.Run(ShellWarmup + 10*time.Second)
	if len(in.Workers) != 8 {
		t.Fatalf("MG forked %d ranks", len(in.Workers))
	}
	// Each rank should sit on its own core.
	coreSet := map[int]int{}
	for _, w := range in.Workers {
		if w.Core() != nil {
			coreSet[w.Core().ID]++
		}
	}
	for c, n := range coreSet {
		if n > 1 {
			t.Fatalf("ULE stacked %d MG ranks on core %d", n, c)
		}
	}
}

func TestHackbenchCompletes(t *testing.T) {
	m := cfsMachine(topo.Small(), 9)
	in := Hackbench(2, 100).New(m, Env{Cores: 8})
	ok := m.RunUntil(in.Done, ShellWarmup+30*time.Second)
	if !ok {
		t.Fatalf("hackbench did not finish; ops=%d", in.Ops())
	}
	// 2 groups × 20 receivers × 100 messages.
	if in.Ops() != 2*20*100 {
		t.Fatalf("ops = %d, want 4000", in.Ops())
	}
	if in.Perf() <= 0 {
		t.Fatal("no perf")
	}
}

func TestScimarkSlowerOnULE(t *testing.T) {
	// §5.3: the JVM service threads are interactive under ULE and delay
	// the compute thread; CFS's fairness bounds them.
	run := func(m *sim.Machine) float64 {
		in := Scimark(1).New(m, Env{Cores: 1})
		m.Run(ShellWarmup + 15*time.Second)
		return in.Perf()
	}
	c := run(cfsMachine(topo.SingleCore(), 7))
	u := run(uleMachine(topo.SingleCore(), 7))
	if u >= c {
		t.Fatalf("scimark ULE=%.1f vs CFS=%.1f ops/s; ULE should be slower", u, c)
	}
	ratio := u / c
	if ratio > 0.95 {
		t.Fatalf("scimark ULE/CFS = %.2f; want a visible gap (paper: 0.64)", ratio)
	}
}

func TestShellStaysInteractive(t *testing.T) {
	m := uleMachine(topo.SingleCore(), 1)
	u := m.Scheduler().(*ule.Sched)
	in := Fibo().New(m, Env{Cores: 1})
	m.Run(ShellWarmup + 5*time.Second)
	var shell *sim.Thread
	for _, th := range m.Threads() {
		if th.Group == "shell" {
			shell = th
		}
	}
	if shell == nil {
		t.Fatal("no shell thread")
	}
	if sc := u.Score(shell); sc > 30 {
		t.Fatalf("shell score = %d; bash-alike must be interactive", sc)
	}
	// And fibo's master is batch by now.
	if sc := u.Score(in.Master); sc < 60 {
		t.Fatalf("fibo score = %d; must be batch", sc)
	}
}

// TestSysbenchSpecSharedAcrossGoroutines: one default sysbench Spec builds
// instances on two machines at once, as concurrent trials of a catalog
// entry do; run under -race, this fails if New writes the config it
// captured.
func TestSysbenchSpecSharedAcrossGoroutines(t *testing.T) {
	spec := SysbenchDefault()
	var wg sync.WaitGroup
	ops := make([]uint64, 2)
	for i := range ops {
		wg.Add(1)
		go func() {
			defer wg.Done()
			m := cfsMachine(topo.SingleCore(), 1)
			in := spec.New(m, Env{Cores: 1})
			m.Run(ShellWarmup + 3*time.Second)
			ops[i] = in.Ops()
		}()
	}
	wg.Wait()
	if ops[0] == 0 || ops[0] != ops[1] {
		t.Fatalf("ops = %v, want two equal non-zero counts", ops)
	}
}
