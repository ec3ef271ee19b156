package core

import (
	"runtime"
	"testing"
	"time"

	"repro/internal/apps"
)

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
// first event. A 32-core machine is ~35 kB under CFS and ~136 kB under ULE
// (its 32 tdqs carry their priority queues by value); the timer wheel adds
// nothing until an event is filed. A wheel that seeds per-slot storage
// again — 98 kB of arena and 16 kB more of slice headers, on each of a
// sweep's hundreds of machines — fails both bounds. Not under -race, whose
// runtime allocates on the side.
func TestMachineConstructionAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation sizes differ under -race")
	}
	for _, c := range []struct {
		kind   SchedulerKind
		budget uint64
	}{{CFS, 48_000}, {ULE, 150_000}} {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		m := NewMachine(MachineConfig{Cores: 32, Kind: c.kind, Seed: 1})
		runtime.ReadMemStats(&after)
		got := after.TotalAlloc - before.TotalAlloc
		t.Logf("%s: NewMachine allocated %d bytes", c.kind, got)
		if got > c.budget {
			t.Errorf("%s: NewMachine allocated %d bytes, budget %d", c.kind, got, c.budget)
		}
		runtime.KeepAlive(m)
	}
}
