package timeline

import (
	"reflect"
	"runtime"
	"testing"
	"time"

	"repro/internal/sim"
	"repro/internal/topo"
)

// benchMachine builds the standard overhead fixture: topo.Small(), FIFO,
// 12 run/sleep threads, warmed 250ms so steady state is reached before
// measurement (same shape as dtrace's benchTrace).
func benchMachine(attach bool) (*sim.Machine, *Recorder) {
	m := sim.NewMachine(topo.Small(), sim.NewFIFO(), sim.Options{Seed: 9})
	var r *Recorder
	if attach {
		var err error
		if r, err = Attach(m, Options{}); err != nil {
			panic(err)
		}
	}
	for i := 0; i < 12; i++ {
		m.StartThread("w", "app", 0, &runSleeper{run: 700 * time.Microsecond, sleep: 400 * time.Microsecond})
	}
	m.Run(250 * time.Millisecond)
	return m, r
}

// BenchmarkTimelineOverhead measures the engine with and without a
// timeline recorder attached; the off/on delta is the flight recorder's
// cost (the benchmark's timeline.on_cost prices it end to end).
func BenchmarkTimelineOverhead(b *testing.B) {
	for _, mode := range []string{"off", "on"} {
		b.Run(mode, func(b *testing.B) {
			m, _ := benchMachine(mode == "on")
			start := m.EventsProcessed()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				m.Run(m.Now() + 5*time.Millisecond)
			}
			b.StopTimer()
			if b.N > 0 {
				b.ReportMetric(float64(m.EventsProcessed()-start)/float64(b.N), "events/op")
			}
		})
	}
}

// TestZeroTimelineAllocFree is the CI alloc gate: with no recorder
// attached the hook fast path must not allocate at all.
func TestZeroTimelineAllocFree(t *testing.T) {
	m, _ := benchMachine(false)
	allocs := testing.AllocsPerRun(20, func() {
		m.Run(m.Now() + 5*time.Millisecond)
	})
	if allocs != 0 {
		t.Fatalf("zero-timeline run allocated %.1f allocs/op, want 0", allocs)
	}
}

// TestAccountingRecorderAllocBounded: an accounting-mode recorder never
// owns an event buffer — attaching costs the recorder struct and its class
// map, the oversubscribed 48-thread leg allocates nothing in steady state
// — and its accounts (conservation included), latency quantiles and worst
// table are the streaming recorder's.
func TestAccountingRecorderAllocBounded(t *testing.T) {
	machine := func() *sim.Machine {
		return sim.NewMachine(topo.Small(), sim.NewFIFO(), sim.Options{Seed: 9})
	}
	load := func(m *sim.Machine) {
		for i := 0; i < 48; i++ {
			m.StartThread("w", "app", 0, &runSleeper{run: 700 * time.Microsecond, sleep: 400 * time.Microsecond})
		}
		m.Run(250 * time.Millisecond)
	}
	m, full := machine(), machine()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	r, err := AttachAccounting(m, Options{})
	runtime.ReadMemStats(&after)
	const bound = 16 << 10
	if got := after.TotalAlloc - before.TotalAlloc; err != nil || got > bound {
		t.Fatalf("AttachAccounting allocated %d bytes (err %v), want <= %d", got, err, bound)
	}
	fr, err := Attach(full, Options{})
	if err != nil {
		t.Fatal(err)
	}
	load(m)
	load(full)
	if avg := testing.AllocsPerRun(20, func() { m.Run(m.Now() + 5*time.Millisecond) }); avg != 0 {
		t.Fatalf("accounting steady state allocated %.1f allocs per 5ms window, want 0", avg)
	}
	full.Run(m.Now())
	r.Close()
	fr.Close()
	if r.eventCap() != 0 || fr.eventCount() == 0 {
		t.Fatalf("event store: accounting cap %d, streaming len %d", r.eventCap(), fr.eventCount())
	}
	checkConservation(t, r, int64(m.Now()))
	if got, want := r.Summary(), fr.Summary(); got != want || got.Wakeups == 0 || got.DroppedEvents != 0 {
		t.Fatalf("accounting summary %+v, streaming %+v", got, want)
	}
	if got, want := r.Classes(), fr.Classes(); !reflect.DeepEqual(got, want) {
		t.Fatalf("accounting classes %+v, streaming %+v", got, want)
	}
	if got, want := r.Worst(), fr.Worst(); !reflect.DeepEqual(got, want) || len(got) == 0 {
		t.Fatalf("accounting worst table %+v, streaming %+v", got, want)
	}
	if got, want := r.Accounts(), fr.Accounts(); !reflect.DeepEqual(got, want) {
		t.Fatal("per-thread accounts differ between accounting and streaming")
	}
}
