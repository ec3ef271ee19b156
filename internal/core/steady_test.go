package core

import (
	"runtime"
	"testing"
	"time"

	"repro/internal/apps"
	"repro/internal/sim"
)

// programFunc adapts a plain func to a sim.Program.
type programFunc func(*sim.Ctx) sim.Op

func (f programFunc) Next(ctx *sim.Ctx) sim.Op { return f(ctx) }

// TestEngineSteadyStateAllocFree: the engine-dense shape — sysbench plus the
// 400-thread hackbench on the 32-core box under kernel noise — stays off the
// heap once it is warm. A simulated second is ~39 000 events under CFS and
// ~11 000 under ULE; before the intrusive runqueue tree, the head-indexed
// queues and the per-connection sysbench closure it cost ~9 500 and ~4 700
// allocations. Nothing is left: the timer wheel's node pool has reached the
// high-water mark of pending events long before the warm-up ends (a slot
// owns no storage that a first visit could grow), and ULE's periodic
// balancer keeps its scratch on the scheduler.
func TestEngineSteadyStateAllocFree(t *testing.T) {
	const maxPerSimSecond = 0
	for _, kind := range []SchedulerKind{CFS, ULE} {
		m := NewMachine(MachineConfig{Cores: 32, Kind: kind, Seed: 1, KernelNoise: true})
		for _, name := range []string{"sysbench", "hackb-10"} {
			spec, err := apps.ByName(name)
			if err != nil {
				t.Fatal(err)
			}
			spec.New(m, apps.Env{Cores: 32})
		}
		m.Run(20 * time.Second) // shell warm-up, forks, queue and pool capacities
		start := m.EventsProcessed()
		avg := testing.AllocsPerRun(10, func() { m.Run(m.Now() + time.Second) })
		if events := (m.EventsProcessed() - start) / 11; events < 5000 {
			t.Fatalf("%s: only %d events per simulated second: the workload is not running", kind, events)
		}
		if avg > maxPerSimSecond {
			t.Errorf("%s: %.0f allocations per simulated second in steady state, want <= %d", kind, avg, maxPerSimSecond)
		}
	}
}

// TestMachineConstructionAllocBudget holds what a trial costs before its
// first event. A 32-core machine is ~27 kB under CFS and ~63 kB under ULE,
// whose 32 tdqs carry their 128 priority FIFOs by value at one word each
// (1 096 B a tdq); the timer wheel adds nothing until an event is filed,
// and the topology is the process's shared preset, warmed here so the
// first leg does not pay its one-time build. A wheel that seeds per-slot
// storage again — 98 kB of arena and 16 kB more of slice headers, on each
// of a sweep's hundreds of machines — fails both bounds, FIFOs back at
// head, tail and size (~129 kB) fail ULE's, and a topology rebuilt per
// machine (7 kB) fails CFS's. Not under -race, whose runtime allocates on
// the side.
func TestMachineConstructionAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation sizes differ under -race")
	}
	MachineConfig{Cores: 32}.Topology()
	for _, c := range []struct {
		kind   SchedulerKind
		budget uint64
	}{{CFS, 30_000}, {ULE, 69_000}} {
		// The least of three builds: the runtime now and then allocates a
		// few kB on the side right after a GC, which only inflates a sample.
		got := ^uint64(0)
		for i := 0; i < 3; i++ {
			var before, after runtime.MemStats
			runtime.GC()
			runtime.ReadMemStats(&before)
			m := NewMachine(MachineConfig{Cores: 32, Kind: c.kind, Seed: 1})
			runtime.ReadMemStats(&after)
			got = min(got, after.TotalAlloc-before.TotalAlloc)
			runtime.KeepAlive(m)
		}
		t.Logf("%s: NewMachine allocated %d bytes", c.kind, got)
		if got > c.budget {
			t.Errorf("%s: NewMachine allocated %d bytes, budget %d", c.kind, got, c.budget)
		}
	}
}

// TestSpawnAllocBudget holds what one thread costs to start on a 32-core
// machine: the Thread (224-byte class or less; the rare fields sit behind
// one pointer), the scheduler's per-thread state and a share of the thread
// table's growth — ~470 B under CFS. A thread owns no wait queue or side
// record until something joins it, pins it or hooks its exit; a side
// record and exit queue built for every thread again, or a Thread back in
// the 320-byte class (+96 B), fails the bound. Not under -race.
func TestSpawnAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation sizes differ under -race")
	}
	const threads = 4096
	for _, c := range []struct {
		kind   SchedulerKind
		budget uint64
	}{{CFS, 495}, {ULE, 410}} {
		m := NewMachine(MachineConfig{Cores: 32, Kind: c.kind, Seed: 1})
		prog := programFunc(func(*sim.Ctx) sim.Op { return sim.Exit() })
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		for i := 0; i < threads; i++ {
			m.StartThread("worker", "app", 0, prog)
		}
		runtime.ReadMemStats(&after)
		got := (after.TotalAlloc - before.TotalAlloc) / threads
		t.Logf("%s: %d bytes per spawned thread", c.kind, got)
		if got > c.budget {
			t.Errorf("%s: %d bytes per spawned thread, budget %d", c.kind, got, c.budget)
		}
		runtime.KeepAlive(m)
	}
}
