package sim

// Engine microbenchmarks: the event core is timed by these plus
// BenchmarkSimulatorThroughput (repo root) and the engine-dense workload of
// `go run ./bench`. Run with -benchmem: the hot timer paths must report 0
// allocs/op.

import (
	"fmt"
	"math/rand"
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

// BenchmarkWheelChurn is the timer wheel alone: one op pops the next event
// and pushes a new one, with 64, 600 or 5 000 events pending and the
// engine's mix of horizons — 70 % under 1 ms (burst ends), 25 % under
// 100 ms (sleeps, balancer periods), 5 % under 2 s — so every op files at
// level 0, 1 or 2 and the upper two cascade. The end-to-end workloads
// spread ±15 % pass to pass on a shared host; this is where the wheel's
// own cost can be read. Warm, it allocates nothing.
func BenchmarkWheelChurn(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	horizons := make([]time.Duration, 1<<12)
	for i := range horizons {
		limit := 2 * time.Second
		switch p := rng.Intn(100); {
		case p < 70:
			limit = time.Millisecond
		case p < 95:
			limit = 100 * time.Millisecond
		}
		horizons[i] = time.Duration(rng.Int63n(int64(limit)))
	}
	for _, pending := range []int{64, 600, 5000} {
		b.Run(fmt.Sprintf("pending=%d", pending), func(b *testing.B) {
			var w timerWheel
			var seq uint64
			churn := func(n int, clock time.Duration) time.Duration {
				for i := 0; i < n; i++ {
					if w.len() >= pending {
						w.peekAt()
						clock = w.pop().at
					}
					seq++
					w.push(event{at: clock + horizons[seq&uint64(len(horizons)-1)], seq: seq})
				}
				return clock
			}
			clock := churn(20*pending, 0) // fill, then settle the pool and the batch
			b.ReportAllocs()
			b.ResetTimer()
			churn(b.N, clock)
		})
	}
}
