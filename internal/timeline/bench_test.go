package timeline

import (
	"reflect"
	"runtime"
	"testing"
	"time"
	"unsafe"

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
		r = Attach(m)
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
// attached the observer fast path must not allocate at all.
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
	r := AttachAccounting(m)
	runtime.ReadMemStats(&after)
	const bound = 16 << 10
	if got := after.TotalAlloc - before.TotalAlloc; got > bound {
		t.Fatalf("AttachAccounting allocated %d bytes, want <= %d", got, bound)
	}
	fr := Attach(full)
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

// TestAttachSizesThreadTableOnce: attaching to a machine whose threads
// already exist — every thread of a scenario trial does — allocates the
// per-thread table once, 96 B a thread, instead of growing it from empty
// by append (2.5× the final size for 1 000 threads). A thread forked
// after attach still extends the table.
func TestAttachSizesThreadTableOnce(t *testing.T) {
	if size := unsafe.Sizeof(tstate{}); size != 96 {
		t.Fatalf("a thread's state is %d B, want 96", size)
	}
	const threads = 1000
	// The least of three attaches, each on a fresh machine: the runtime
	// now and then allocates a few kB on the side right after a GC, which
	// only inflates a sample.
	var (
		m   *sim.Machine
		r   *Recorder
		got = ^uint64(0)
	)
	for i := 0; i < 3; i++ {
		m = sim.NewMachine(topo.Small(), sim.NewFIFO(), sim.Options{Seed: 9})
		for j := 0; j < threads; j++ {
			m.StartThread("w", "app", 0, &runSleeper{run: 700 * time.Microsecond, sleep: 400 * time.Microsecond})
		}
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		r = AttachAccounting(m)
		runtime.ReadMemStats(&after)
		got = min(got, after.TotalAlloc-before.TotalAlloc)
		if len(r.st) != threads || cap(r.st) != threads {
			t.Fatalf("attach with %d threads: table len %d cap %d", threads, len(r.st), cap(r.st))
		}
	}
	// 16 kB is the rest of an attach (TestAccountingRecorderAllocBounded).
	if bound := uint64(threads*96 + 16<<10); got > bound {
		t.Fatalf("attach with %d threads: %d bytes allocated, want <= %d", threads, got, bound)
	}
	m.Run(5 * time.Millisecond)
	forked := m.StartThread("late", "app", 0, &runSleeper{run: 700 * time.Microsecond, sleep: 400 * time.Microsecond})
	m.Run(10 * time.Millisecond)
	if len(r.st) != threads+1 || r.st[forked.ID-1].th != forked {
		t.Fatalf("after a fork: table len %d, want %d holding the new thread", len(r.st), threads+1)
	}
	r.Close()
	checkConservation(t, r, int64(m.Now()))
}
