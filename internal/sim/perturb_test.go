package sim

import (
	"testing"
	"time"

	"repro/internal/topo"
)

// noHotplug wraps FIFO but hides its Hotplugger capability (the field
// shadows the promoted CoreOffline method), forcing the engine's default
// drain path.
type noHotplug struct {
	*FIFO
	CoreOffline struct{} //nolint:unused — shadows the promoted method
}

func TestOfflineCoreDrainsAndRefusesWork(t *testing.T) {
	for name, mk := range map[string]func() Scheduler{
		"fifo-hotplugger": func() Scheduler { return NewFIFO() },
		"default-drain":   func() Scheduler { return &noHotplug{FIFO: NewFIFO()} },
	} {
		t.Run(name, func(t *testing.T) {
			m := newTestMachine(t, topo.Small())
			_ = mk // scheduler kind is fixed by newTestMachine for fifo; rebuild for the wrapper
			if name == "default-drain" {
				m = NewMachine(topo.Small(), &noHotplug{FIFO: NewFIFO()}, Options{Seed: 7, Cost: &CostModel{}})
			}
			var ths []*Thread
			for i := 0; i < 12; i++ {
				ths = append(ths, m.StartThread("w", "app", 0, &looper{burst: time.Millisecond}))
			}
			m.Run(20 * time.Millisecond)
			if !m.OfflineCore(3) {
				t.Fatal("OfflineCore(3) refused")
			}
			if m.OnlineCores() != 7 {
				t.Fatalf("OnlineCores = %d, want 7", m.OnlineCores())
			}
			if !m.Cores[3].Offline() {
				t.Fatal("core 3 not marked offline")
			}
			// Nothing may remain on — or ever return to — the dead core.
			for _, th := range ths {
				if th.Core() == m.Cores[3] {
					t.Fatalf("thread %s still on offline core", th.Name)
				}
			}
			m.Run(100 * time.Millisecond)
			for _, th := range ths {
				if th.Core() == m.Cores[3] {
					t.Fatalf("thread %s placed on offline core after drain", th.Name)
				}
			}
			if m.Cores[3].Curr != nil {
				t.Fatal("offline core is running a thread")
			}
			if got := m.Counters.Value("hotplug.offline"); got != 1 {
				t.Fatalf("hotplug.offline = %d", got)
			}
		})
	}
}

func TestOfflineLastCoreRefused(t *testing.T) {
	m := newTestMachine(t, topo.SingleCore())
	if m.OfflineCore(0) {
		t.Fatal("offlining the last online core must refuse")
	}
	m2 := newTestMachine(t, topo.Small())
	for id := 0; id < 7; id++ {
		if !m2.OfflineCore(id) {
			t.Fatalf("OfflineCore(%d) refused with %d online", id, m2.OnlineCores())
		}
	}
	if m2.OfflineCore(7) {
		t.Fatal("last survivor went offline")
	}
	if m2.OfflineCore(3) {
		t.Fatal("already-offline core offlined twice")
	}
}

func TestOfflineBreaksUnsatisfiablePinning(t *testing.T) {
	m := newTestMachine(t, topo.Small())
	th := m.StartThreadCfg(ThreadConfig{
		Name: "pinned", Group: "app", Pinned: []int{2},
		Prog: &script{ops: []Op{Run(5 * time.Millisecond), Run(5 * time.Millisecond)}},
	})
	m.Run(time.Millisecond) // mid first burst on core 2
	if !m.OfflineCore(2) {
		t.Fatal("OfflineCore(2) refused")
	}
	if th.Pinned() != nil {
		t.Fatal("unsatisfiable pin not broken")
	}
	if got := m.Counters.Value("hotplug.affinity_breaks"); got != 1 {
		t.Fatalf("hotplug.affinity_breaks = %d", got)
	}
	m.Run(time.Second)
	if th.State() != StateDead {
		t.Fatalf("pinned thread stranded: state %v", th.State())
	}
	if got, want := th.RunTime, 10*time.Millisecond; got != want {
		t.Fatalf("RunTime = %v, want %v (burst lost in the drain)", got, want)
	}
	// A thread spawned with a dead-core-only pin is fixed at birth.
	th2 := m.StartThreadCfg(ThreadConfig{
		Name: "born-pinned", Group: "app", Pinned: []int{2},
		Prog: &script{ops: []Op{Run(time.Millisecond)}},
	})
	m.Run(time.Second + 100*time.Millisecond)
	if th2.State() != StateDead {
		t.Fatalf("born-pinned thread stranded: state %v", th2.State())
	}
	if got := m.Counters.Value("hotplug.affinity_breaks"); got != 2 {
		t.Fatalf("hotplug.affinity_breaks = %d after spawn", got)
	}
}

// TestOfflineMidBurstStrandsNothing is the pending-event lockstep gate:
// offlining a core whose current thread holds an in-flight burst-end (and
// whose tick chain is armed) must strand neither — the burst completes
// elsewhere, identically under both event engines.
func TestOfflineMidBurstStrandsNothing(t *testing.T) {
	run := func(heap bool) (events uint64, runtime time.Duration, finished bool) {
		prev := SetForceEventHeap(heap)
		defer SetForceEventHeap(prev)
		m := newTestMachine(t, topo.Small())
		th := m.StartThreadCfg(ThreadConfig{
			Name: "victim", Group: "app", Pinned: []int{1},
			Prog: &script{ops: []Op{Run(50 * time.Millisecond)}},
		})
		// Background load so the drain has real queues to contend with.
		for i := 0; i < 10; i++ {
			m.StartThread("bg", "app", 0, &looper{burst: 2 * time.Millisecond})
		}
		m.At(10*time.Millisecond, fireFunc(func() { // mid-burst, burst-end pending at 50ms
			if !m.OfflineCore(1) {
				t.Error("OfflineCore(1) refused")
			}
		}))
		m.Run(300 * time.Millisecond)
		return m.EventsProcessed(), th.RunTime, th.State() == StateDead
	}
	we, wr, wf := run(false)
	he, hr, hf := run(true)
	if !wf || !hf {
		t.Fatalf("victim did not finish: wheel=%v heap=%v", wf, hf)
	}
	if wr != 50*time.Millisecond || hr != 50*time.Millisecond {
		t.Fatalf("victim RunTime wheel=%v heap=%v, want 50ms both", wr, hr)
	}
	if we != he {
		t.Fatalf("engines diverged: wheel %d events, heap %d events", we, he)
	}
}

func TestOnlineCoreRejoins(t *testing.T) {
	m := newTestMachine(t, topo.Small())
	for i := 0; i < 16; i++ {
		m.StartThread("w", "app", 0, &looper{burst: time.Millisecond})
	}
	m.Run(10 * time.Millisecond)
	if !m.OfflineCore(5) {
		t.Fatal("OfflineCore(5) refused")
	}
	m.Run(20 * time.Millisecond)
	dispatched := false
	m.Observe(observeFunc(func(e Event) {
		if e.Core.ID == 5 {
			dispatched = true
		}
	}), Dispatch)
	if !m.OnlineCore(5) {
		t.Fatal("OnlineCore(5) refused")
	}
	if m.OnlineCores() != 8 {
		t.Fatalf("OnlineCores = %d, want 8", m.OnlineCores())
	}
	m.Run(100 * time.Millisecond)
	if !dispatched {
		t.Fatal("re-onlined core never dispatched a thread")
	}
	if m.OnlineCore(5) {
		t.Fatal("onlining an online core must refuse")
	}
}

// TestThrottleStretchesBursts pins the fixed-point speed math end to end:
// a burst at factor f takes exactly ceil(work/f) wall time, and restoring
// full speed restores exact 1:1 accounting.
func TestThrottleStretchesBursts(t *testing.T) {
	m := newTestMachine(t, topo.SingleCore())
	m.SetCoreSpeed(0, 0.5)
	th := m.StartThread("slow", "app", 0, &script{ops: []Op{Run(10 * time.Millisecond)}})
	m.RunUntil(func() bool { return th.State() == StateDead }, time.Second)
	if got, want := m.Now(), 20*time.Millisecond; got != want {
		t.Fatalf("half-speed 10ms burst finished at %v, want %v", got, want)
	}
	m.SetCoreSpeed(0, 1.0)
	th2 := m.StartThread("fast", "app", 0, &script{ops: []Op{Run(10 * time.Millisecond)}})
	start := m.Now()
	m.RunUntil(func() bool { return th2.State() == StateDead }, time.Second)
	if got, want := m.Now()-start, 10*time.Millisecond; got != want {
		t.Fatalf("full-speed 10ms burst took %v, want %v", got, want)
	}
}

// TestThrottleMidBurstReArms: changing speed under a running burst
// flushes at the old rate and re-arms the remainder at the new one.
func TestThrottleMidBurstReArms(t *testing.T) {
	m := newTestMachine(t, topo.SingleCore())
	th := m.StartThread("w", "app", 0, &script{ops: []Op{Run(10 * time.Millisecond)}})
	m.At(5*time.Millisecond, fireFunc(func() { m.SetCoreSpeed(0, 0.25) }))
	m.RunUntil(func() bool { return th.State() == StateDead }, time.Second)
	// 5ms at full speed + 5ms of work at quarter speed = 5 + 20 = 25ms.
	if got, want := m.Now(), 25*time.Millisecond; got != want {
		t.Fatalf("finished at %v, want %v", got, want)
	}
}

// TestSpeedCarryExactness: chunked wall-time accounting accumulates
// exactly the same work as one flush — the carry makes floor division
// telescope — and wallFor/workFor pair so bursts always complete.
func TestSpeedCarryExactness(t *testing.T) {
	c := &Core{}
	for _, factor := range []float64{1.0 / 3, 0.07, 0.99, 0.5} {
		num := int64(factor*speedDen + 0.5)
		if num < 1 {
			num = 1
		}
		c.speedNum = num
		for _, work := range []time.Duration{1, 777, time.Microsecond, 10 * time.Millisecond} {
			wall := c.wallFor(work)
			c.workCarry = 0
			if got := c.workFor(wall); got < work {
				t.Fatalf("factor %g: workFor(wallFor(%v)) = %v < work", factor, work, got)
			}
			// Chunked flushes must telescope to the same total.
			c.workCarry = 0
			var sum time.Duration
			for rem := wall; rem > 0; {
				step := rem/7 + 1
				sum += c.workFor(step)
				rem -= step
			}
			c.workCarry = 0
			if whole := c.workFor(wall); sum != whole {
				t.Fatalf("factor %g work %v: chunked %v != whole %v", factor, work, sum, whole)
			}
		}
	}
}

func TestWallDeadlineFires(t *testing.T) {
	m := newTestMachine(t, topo.SingleCore())
	m.StartThread("spin", "app", 0, &looper{burst: 10 * time.Microsecond})
	m.SetWallDeadline(time.Now().Add(-time.Second)) // already expired
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("expired wall deadline did not fire")
		}
		if _, ok := r.(*WallDeadlineError); !ok {
			t.Fatalf("panic value %T, want *WallDeadlineError", r)
		}
	}()
	// >64k events so the throttled check runs: 10µs bursts for 2s.
	m.Run(2 * time.Second)
}

func TestWallDeadlineDisarmed(t *testing.T) {
	m := newTestMachine(t, topo.SingleCore())
	m.StartThread("spin", "app", 0, &looper{burst: 10 * time.Microsecond})
	m.SetWallDeadline(time.Now().Add(-time.Second))
	m.SetWallDeadline(time.Time{}) // zero time disarms
	m.Run(time.Second)             // must not panic
}

func TestWallDeadlineErrorMessage(t *testing.T) {
	err := &WallDeadlineError{SimTime: 1500 * time.Millisecond, Events: 65536}
	const want = "sim: trial exceeded its wall-clock deadline (simulated 1.5s, 65536 events processed)"
	if got := err.Error(); got != want {
		t.Fatalf("Error() = %q, want %q", got, want)
	}
}
