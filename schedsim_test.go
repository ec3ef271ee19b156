package schedsim

import (
	"slices"
	"testing"
	"time"

	"repro/internal/sim"
)

func TestQuickstartFlow(t *testing.T) {
	m := New(Config{Cores: 8, Scheduler: ULE, Seed: 5})
	app := m.Start(AppByName("MG"))
	m.RunFor(ShellWarmup + 5*time.Second)
	if app.Perf() <= 0 {
		t.Fatal("MG made no progress")
	}
	counts := m.RunnableCounts()
	if len(counts) != 8 {
		t.Fatalf("RunnableCounts len %d", len(counts))
	}
}

func TestDefaultsAndCatalog(t *testing.T) {
	m := New(Config{Cores: 1})
	if m.M.Scheduler().Name() != "cfs" {
		t.Fatalf("default scheduler = %s", m.M.Scheduler().Name())
	}
	if len(Apps()) != 42 {
		t.Fatalf("Apps = %d", len(Apps()))
	}
	if len(AppNames()) != 44 {
		t.Fatalf("AppNames = %d", len(AppNames()))
	}
	defer func() {
		if recover() == nil {
			t.Fatal("AppByName should panic on unknown app")
		}
	}()
	AppByName("nonesuch")
}

func TestSchedulerComparison(t *testing.T) {
	// The library's one-paragraph pitch: same machine, same workload, two
	// schedulers, different outcomes.
	perf := map[SchedulerKind]float64{}
	for _, kind := range []SchedulerKind{CFS, ULE} {
		m := New(Config{Cores: 1, Scheduler: kind, Seed: 9})
		app := m.Start(AppByName("apache"))
		m.RunFor(ShellWarmup + 8*time.Second)
		perf[kind] = app.Perf()
	}
	if perf[ULE] <= perf[CFS] {
		t.Fatalf("apache: ULE %.0f ≤ CFS %.0f; expected the §5.3 win", perf[ULE], perf[CFS])
	}
}

func TestRunUntilAndStartAt(t *testing.T) {
	m := New(Config{Cores: 1, Scheduler: ULE, Seed: 2})
	app := m.StartAt(AppByName("fibo"), 3*time.Second)
	ok := m.RunUntil(func() bool { return app.Ops() > 100 }, 30*time.Second)
	if !ok {
		t.Fatal("fibo never reached 100 ops")
	}
	if m.Now() <= 3*time.Second {
		t.Fatalf("clock %v", m.Now())
	}
}

func TestExperimentRegistryExposed(t *testing.T) {
	if len(Experiments()) < 15 {
		t.Fatalf("only %d experiments", len(Experiments()))
	}
	res := RunExperiment("ablation-cgroup", 0.1)
	if res == nil || len(res.Rows) == 0 {
		t.Fatal("empty result")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("RunExperiment should panic on unknown id")
		}
	}()
	RunExperiment("nope", 1)
}

// TestRegisterScheduler exercises the README's extension point: a
// registered kind is listed, accepted by Config.Scheduler, and cannot be
// registered twice.
func TestRegisterScheduler(t *testing.T) {
	const kind SchedulerKind = "facade-test-fifo"
	factory := func(MachineConfig) sim.Scheduler { return sim.NewFIFO() }
	if err := RegisterScheduler(kind, factory); err != nil {
		t.Fatal(err)
	}
	if !slices.Contains(SchedulerKinds(), kind) {
		t.Fatalf("SchedulerKinds() = %v, missing %q", SchedulerKinds(), kind)
	}
	if err := RegisterScheduler(kind, factory); err == nil {
		t.Fatal("registering a kind twice succeeded")
	}
	m := New(Config{Cores: 2, Scheduler: kind, Seed: 3})
	if got := m.M.Scheduler().Name(); got != "fifo" {
		t.Fatalf("scheduler %q, want fifo", got)
	}
}
