package probe_test

// BenchmarkProbeOverhead tracks the telemetry layer's engine cost from
// both sides: "none" is the BenchmarkEngineEvents workload verbatim on
// the observable engine — it must stay at 0 allocs/op and within
// noise (<2%) of internal/sim's BenchmarkEngineEvents, proving the
// no-probes fast path is a nil check — while "attached" carries every
// built-in probe at the default cadence, pricing real telemetry. The
// benchmark's probe.on_cost is the same contrast end to end.

import (
	"testing"
	"time"

	"repro/internal/probe"
	"repro/internal/sim"
	"repro/internal/topo"
)

func benchEngine(b *testing.B, attach bool) {
	m := sim.NewMachine(topo.Small(), sim.NewFIFO(), sim.Options{Seed: 9})
	for i := 0; i < 12; i++ {
		m.StartThread("w", "app", 0, &runSleeper{run: 700 * time.Microsecond, sleep: 400 * time.Microsecond})
	}
	if attach {
		probe.MustAttach(m, probe.Options{Probes: probe.Names()})
	}
	m.Run(250 * time.Millisecond) // settle heap, runqueue, and timer table capacity
	b.ReportAllocs()
	b.ResetTimer()
	start := m.EventsProcessed()
	for i := 0; i < b.N; i++ {
		m.Run(m.Now() + time.Millisecond)
	}
	b.StopTimer()
	b.ReportMetric(float64(m.EventsProcessed()-start)/float64(b.N), "events/op")
}

func BenchmarkProbeOverhead(b *testing.B) {
	b.Run("none", func(b *testing.B) { benchEngine(b, false) })
	b.Run("attached", func(b *testing.B) { benchEngine(b, true) })
}

// TestZeroProbeAllocFree pins the fast-path contract in a plain test so
// CI enforces it without benchmark flakiness: a machine with no probes
// attached allocates nothing in the hot timer paths.
func TestZeroProbeAllocFree(t *testing.T) {
	m := sim.NewMachine(topo.Small(), sim.NewFIFO(), sim.Options{Seed: 9})
	for i := 0; i < 12; i++ {
		m.StartThread("w", "app", 0, &runSleeper{run: 700 * time.Microsecond, sleep: 400 * time.Microsecond})
	}
	m.Run(250 * time.Millisecond)
	avg := testing.AllocsPerRun(20, func() {
		m.Run(m.Now() + 5*time.Millisecond)
	})
	if avg != 0 {
		t.Fatalf("zero-probe hot paths allocated %.1f allocs per 5ms window, want 0", avg)
	}
}
