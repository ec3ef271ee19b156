package dtrace

// BenchmarkTraceOverhead prices the recorder from both sides: "off" is
// the BenchmarkEngineEvents workload on a machine with no recorder — it
// must stay 0 allocs/op, proving the Pick/Wake observation sites cost a
// nil check — while "on" attaches a full recorder draining to io.Discard,
// pricing real per-decision capture. TestZeroRecorderAllocFree pins the
// "off" side as a plain test so CI enforces it without benchmark noise.

import (
	"io"
	"runtime"
	"testing"
	"time"
	"unsafe"

	"repro/internal/sim"
	"repro/internal/topo"
)

func benchTrace(b *testing.B, attach bool) {
	sched := sim.NewFIFO()
	m := sim.NewMachine(topo.Small(), sched, sim.Options{Seed: 9})
	for i := 0; i < 12; i++ {
		m.StartThread("w", "app", 0, &runSleeper{run: 700 * time.Microsecond, sleep: 400 * time.Microsecond})
	}
	if attach {
		if _, err := Attach(m, Options{Sink: io.Discard, maxBytes: 1 << 40}); err != nil {
			b.Fatal(err)
		}
	}
	m.Run(250 * time.Millisecond) // settle heap, runqueue, and scratch capacity
	b.ReportAllocs()
	b.ResetTimer()
	start := m.EventsProcessed()
	for i := 0; i < b.N; i++ {
		m.Run(m.Now() + time.Millisecond)
	}
	b.StopTimer()
	b.ReportMetric(float64(m.EventsProcessed()-start)/float64(b.N), "events/op")
}

func BenchmarkTraceOverhead(b *testing.B) {
	b.Run("off", func(b *testing.B) { benchTrace(b, false) })
	b.Run("on", func(b *testing.B) { benchTrace(b, true) })
}

// TestZeroRecorderAllocFree: a machine without a recorder allocates
// nothing in the hot paths — the zero-recorder contract the tentpole
// must not regress.
func TestZeroRecorderAllocFree(t *testing.T) {
	m := sim.NewMachine(topo.Small(), sim.NewFIFO(), sim.Options{Seed: 9})
	for i := 0; i < 12; i++ {
		m.StartThread("w", "app", 0, &runSleeper{run: 700 * time.Microsecond, sleep: 400 * time.Microsecond})
	}
	m.Run(250 * time.Millisecond)
	avg := testing.AllocsPerRun(20, func() {
		m.Run(m.Now() + 5*time.Millisecond)
	})
	if avg != 0 {
		t.Fatalf("zero-recorder hot paths allocated %.1f allocs per 5ms window, want 0", avg)
	}
}

// TestRecorderSteadyStateAllocFree: with a recorder attached and warmed,
// recording itself allocates nothing — the arena/ring/scratch are all
// preallocated and the sink write is the only byte sink. At 12 threads
// hardly a wake queues, so the headroom search has nothing to do; at 48
// the machine is oversubscribed and the measured windows are searched.
func TestRecorderSteadyStateAllocFree(t *testing.T) {
	for _, threads := range []int{12, 48} {
		sched := sim.NewFIFO()
		m := sim.NewMachine(topo.Small(), sched, sim.Options{Seed: 9})
		r, err := Attach(m, Options{Sink: io.Discard, maxBytes: 1 << 40})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < threads; i++ {
			m.StartThread("w", "app", 0, &runSleeper{run: 700 * time.Microsecond, sleep: 400 * time.Microsecond})
		}
		m.Run(250 * time.Millisecond) // past the first flush: scratch is sized
		nodes := r.hr.nodes
		avg := testing.AllocsPerRun(20, func() {
			m.Run(m.Now() + 5*time.Millisecond)
		})
		if avg != 0 {
			t.Fatalf("%d threads: recorder steady state allocated %.1f allocs per 5ms window, want 0", threads, avg)
		}
		if err := r.Close(); err != nil {
			t.Fatal(err)
		}
		if hr := r.Headroom(); threads == 48 && (hr.Achieved == 0 || r.hr.nodes == nodes) {
			t.Fatalf("%d threads: %d nodes searched while measuring, headroom %+v: the search was not exercised", threads, r.hr.nodes-nodes, hr)
		}
	}
}

// TestRecorderSize pins a recorder's footprint: the headroom window's
// candidate sets live in an arena sized at attach, not in a fixed array
// for 256 cores that made every recorder 80 272 B.
func TestRecorderSize(t *testing.T) {
	if got := unsafe.Sizeof(Recorder{}); got > 80272/4 {
		t.Errorf("sizeof(Recorder) = %d bytes, want <= %d", got, 80272/4)
	}
}

// attachBytes reports the heap bytes one attach call allocates.
func attachBytes(attach func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	attach()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestAccountingRecorderAllocBounded: an accounting-mode recorder owns the
// counters, one load vector and the headroom window, its candidate arena
// one entry per core per decision (1 KiB on this eight-core machine) — no
// ring, record arena, pick scratch or encoder — so attaching costs ~17 KiB
// against the streaming recorder's ~450 KiB (room for 256 candidates per
// decision again costs 31 KiB more at the default window of 8), and the
// oversubscribed
// 48-thread leg, whose windows are searched, allocates nothing in steady
// state. Its counts and verdict are the streaming recorder's.
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
	var r, fr *Recorder
	var err error
	const bound = 24 << 10
	if got := attachBytes(func() { r, err = AttachAccounting(m, Options{}) }); err != nil || got > bound {
		t.Fatalf("AttachAccounting allocated %d bytes (err %v), want <= %d", got, err, bound)
	}
	if got := attachBytes(func() { fr, err = Attach(full, Options{}) }); err != nil || got <= bound {
		t.Fatalf("Attach allocated %d bytes (err %v): the bound %d no longer tells the modes apart", got, err, bound)
	}
	if r.tNS != nil || r.candID != nil || r.pickBuf != nil || r.buffered() != 0 || fr.buffered() == 0 || r.explainer != nil {
		t.Fatal("accounting recorder holds streaming state")
	}
	load(m)
	load(full)
	nodes := r.hr.nodes
	if avg := testing.AllocsPerRun(20, func() { m.Run(m.Now() + 5*time.Millisecond) }); avg != 0 {
		t.Fatalf("accounting steady state allocated %.1f allocs per 5ms window, want 0", avg)
	}
	if r.hr.nodes == nodes {
		t.Fatal("no window was searched while measuring")
	}
	full.Run(m.Now())
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	if err := fr.Close(); err != nil {
		t.Fatal(err)
	}
	want := fr.Summary()
	if want.Bytes == 0 || r.Bytes() != nil {
		t.Fatalf("streaming wrote %d bytes, accounting holds %d", want.Bytes, len(r.Bytes()))
	}
	want.Bytes, want.Dropped = 0, 0
	if got := r.Summary(); got != want {
		t.Fatalf("accounting summary %+v, streaming %+v", got, want)
	}
	if got, want := r.Headroom(), fr.Headroom(); got != want || got.Achieved == 0 {
		t.Fatalf("accounting headroom %+v, streaming %+v", got, want)
	}
}
