package core

import (
	"testing"
	"time"

	"repro/internal/apps"
)

// TestEngineSteadyStateAllocFree: the engine-dense shape — sysbench plus the
// 400-thread hackbench on the 32-core box under kernel noise — stays off the
// heap once it is warm. A simulated second is ~39 000 events under CFS and
// ~11 000 under ULE; before the intrusive runqueue tree, the head-indexed
// queues and the per-connection sysbench closure it cost ~9 500 and ~4 700
// allocations. What is left, and the bound allows for: timer-wheel slots
// still growing to their working capacity (the upper rings' are visited
// once per 68 s lap or rarer), and under ULE the periodic balancer's
// per-invocation scratch slice, about once a second.
func TestEngineSteadyStateAllocFree(t *testing.T) {
	const maxPerSimSecond = 8
	for _, kind := range []SchedulerKind{CFS, ULE} {
		m := NewMachine(MachineConfig{Cores: 32, Kind: kind, Seed: 1, KernelNoise: true})
		for _, name := range []string{"sysbench", "hackb-10"} {
			spec, err := apps.ByName(name)
			if err != nil {
				t.Fatal(err)
			}
			spec.New(m, apps.Env{Cores: 32})
		}
		m.Run(20 * time.Second) // shell warm-up, forks, queue and slot capacities
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
