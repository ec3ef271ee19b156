package runner_test

// Benchmarks comparing sequential vs parallel grid execution. On a
// multi-core host the parallel variants show the wall-clock speedup the
// runner exists for (≥2× on the experiment grid); BENCH_*.json tracks the
// ratio. On a single-core host they degenerate to the same numbers, which
// doubles as a check that the pool adds no meaningful overhead.

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/runner"
	"repro/internal/sim"
	"repro/internal/workload"
)

// benchExperimentGrid re-runs a cache-free three-trial experiment grid
// (ablation-preempt: apache under cfs, ule, ule-fullpreempt) at the scale
// the acceptance criterion names.
func benchExperimentGrid(b *testing.B, workers int) {
	runner.SetWorkers(workers)
	defer runner.SetWorkers(0)
	e, err := core.ByID("ablation-preempt")
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if res := e.Run(0.25); len(res.Rows) == 0 {
			b.Fatal("empty result")
		}
	}
}

func BenchmarkExperimentGridSequential(b *testing.B) { benchExperimentGrid(b, 1) }
func BenchmarkExperimentGridParallel(b *testing.B)   { benchExperimentGrid(b, 0) }

// benchGridEngineEvents runs a grid of event-dense machines through the
// pool and reports aggregate engine throughput — the events/s a full
// experiment sweep actually gets, as opposed to the single-machine rate of
// sim's BenchmarkEngineEvents.
func benchGridEngineEvents(b *testing.B, workers int) {
	runner.SetWorkers(workers)
	defer runner.SetWorkers(0)
	// RunTrials releases a grid's closures, so every iteration builds its own.
	grid := func() []core.Trial[uint64] {
		trials := make([]core.Trial[uint64], 8)
		for i := range trials {
			trials[i] = core.Trial[uint64]{
				Name:    fmt.Sprintf("grid-events-%d", i),
				Machine: core.MachineConfig{Cores: 8, Kind: core.ULE, KernelNoise: true},
				Workload: func(m *sim.Machine) {
					for j := 0; j < 12; j++ {
						m.StartThread(fmt.Sprintf("w%d", j), "app", 0, &workload.Loop{Burst: time.Millisecond})
					}
				},
				Window:  250 * time.Millisecond,
				Extract: func(m *sim.Machine) uint64 { return m.EventsProcessed() },
			}
		}
		return trials
	}
	b.ResetTimer()
	var events uint64
	for i := 0; i < b.N; i++ {
		for _, n := range core.RunTrials(grid()) {
			events += n
		}
	}
	b.StopTimer()
	if secs := b.Elapsed().Seconds(); secs > 0 {
		b.ReportMetric(float64(events)/secs, "events/s")
	}
}

func BenchmarkGridEngineEventsSequential(b *testing.B) { benchGridEngineEvents(b, 1) }
func BenchmarkGridEngineEventsParallel(b *testing.B)   { benchGridEngineEvents(b, 0) }

// spin is a pure-CPU job, so the Map benchmarks measure pool scaling
// unconfounded by simulator allocation behaviour.
func spin(i int) uint64 {
	h := uint64(i) + 0x9e3779b97f4a7c15
	for j := 0; j < 2_000_000; j++ {
		h ^= h >> 12
		h *= 0x2545f4914f6cdd1d
	}
	return h
}

func benchMapSpin(b *testing.B, workers int) {
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out := runner.MapN(16, workers, spin)
		if len(out) != 16 {
			b.Fatal("short result")
		}
	}
}

func BenchmarkMapSpinSequential(b *testing.B) { benchMapSpin(b, 1) }
func BenchmarkMapSpinParallel(b *testing.B)   { benchMapSpin(b, runtime.GOMAXPROCS(0)) }
