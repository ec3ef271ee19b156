package sim

// Engine microbenchmarks: the perf trajectory of the event core is tracked
// from these plus BenchmarkSimulatorThroughput (repo root) and the
// `schedbattle -perf` harness (BENCH_engine.json). Run with -benchmem: the
// hot timer paths must report 0 allocs/op.

import (
	"testing"
	"time"

	"repro/internal/topo"
)

// BenchmarkEngineEvents drives the hot timer paths — burst-end, tick,
// sleep-wake, wakeup dispatch — on a warmed 8-core machine. One op is 1 ms
// of simulated time; events/op reports the event rate behind it.
func BenchmarkEngineEvents(b *testing.B) {
	m := NewMachine(topo.Small(), NewFIFO(), Options{Seed: 9})
	for i := 0; i < 12; i++ {
		m.StartThread("w", "app", 0, &runSleeper{run: 700 * time.Microsecond, sleep: 400 * time.Microsecond})
	}
	m.Run(250 * time.Millisecond) // settle heap, runqueue, and callback capacity
	b.ReportAllocs()
	b.ResetTimer()
	start := m.EventsProcessed()
	for i := 0; i < b.N; i++ {
		m.Run(m.Now() + time.Millisecond)
	}
	b.StopTimer()
	b.ReportMetric(float64(m.EventsProcessed()-start)/float64(b.N), "events/op")
}

// BenchmarkIdleMachine measures an idle 32-core machine for one simulated
// second per op: nothing but the tick rotor and the scheduler's idle tick,
// 32 cores × 1000 Hz.
func BenchmarkIdleMachine(b *testing.B) {
	m := NewMachine(topo.Default(), NewFIFO(), Options{Seed: 1})
	b.ReportAllocs()
	b.ResetTimer()
	start := m.EventsProcessed()
	for i := 0; i < b.N; i++ {
		m.Run(m.Now() + time.Second)
	}
	b.StopTimer()
	b.ReportMetric(float64(m.EventsProcessed()-start)/float64(b.N), "events/op")
}
