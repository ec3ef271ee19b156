package schedsim

import (
	"testing"
	"time"
)

// BenchmarkSimulatorThroughput measures raw engine speed: simulated
// seconds per wall second on a busy 32-core machine, plus the engine event
// rate (Machine.EventsProcessed, the numerator of the benchmark's
// sim.events_per_s).
func BenchmarkSimulatorThroughput(b *testing.B) {
	var events uint64
	for i := 0; i < b.N; i++ {
		m := New(Config{Cores: 32, Scheduler: ULE, Seed: 13, KernelNoise: true})
		app := m.Start(AppByName("sysbench"))
		m.RunFor(ShellWarmup + 3*time.Second)
		if app.Ops() == 0 {
			b.Fatal("no progress")
		}
		events += m.M.EventsProcessed()
	}
	b.ReportMetric(5*float64(b.N), "sim-seconds")
	if secs := b.Elapsed().Seconds(); secs > 0 {
		b.ReportMetric(float64(events)/secs, "events/s")
	}
}
