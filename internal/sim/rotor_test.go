package sim

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"repro/internal/topo"
)

// checkRotor compares the rotor's cached head with a full (at, seq) argmin
// over the standing entries.
func checkRotor(t *testing.T, m *Machine, where string) {
	t.Helper()
	best := -1
	for i := range m.ticks {
		e := &m.ticks[i]
		if e.state == tickNone {
			continue
		}
		if e.at < m.now {
			t.Fatalf("%s at %v: core %d's tick stands in the past, at %v", where, m.now, i, e.at)
		}
		if best < 0 || e.at < m.ticks[best].at || e.at == m.ticks[best].at && e.seq < m.ticks[best].seq {
			best = i
		}
	}
	if best != m.tickHead {
		t.Fatalf("%s at %v: rotor head is core %d, full scan finds core %d", where, m.now, m.tickHead, best)
	}
}

// popRec is one event a test saw fire.
type popRec struct {
	at   time.Duration
	seq  uint64
	what string
}

// popLog records, in pop order, every event a test can see fire: ticks
// (through a Tick observer) and the test's own Timer events.
type popLog struct {
	t    *testing.T
	m    *Machine
	recs []popRec
}

// note appends what to the log and checks pops come in strict (at, seq)
// order; the event being dispatched is described by m.now and m.curSeq.
func (l *popLog) note(what string) {
	l.t.Helper()
	r := popRec{at: l.m.now, seq: l.m.curSeq, what: what}
	if n := len(l.recs); n > 0 {
		if last := l.recs[n-1]; r.at < last.at || r.at == last.at && r.seq <= last.seq {
			l.t.Fatalf("%+v popped after %+v", r, last)
		}
	}
	l.recs = append(l.recs, r)
}

// equal compares a wheel-engine log with a heap-engine one.
func (l *popLog) equal(heap *popLog) error {
	if len(l.recs) != len(heap.recs) {
		return fmt.Errorf("%d pops seen on the wheel, %d on the heap", len(l.recs), len(heap.recs))
	}
	for i := range l.recs {
		if l.recs[i] != heap.recs[i] {
			return fmt.Errorf("pop %d: %+v on the wheel, %+v on the heap", i, l.recs[i], heap.recs[i])
		}
	}
	return nil
}

// TestRotorHeadIsArgmin: whenever a tick pops, after every hotplug
// operation and between Run windows shorter than a tick period, the rotor's
// O(1) head is the full argmin over the standing entries — on machines from
// one core to 160, with random OfflineCore/OnlineCore pairs (many inside a
// single period, so stale entries get evicted) and pinned bursts keeping
// burst-end traffic between the ticks. Both engines pop the same sequence.
func TestRotorHeadIsArgmin(t *testing.T) {
	const span = 40 * time.Millisecond
	for _, n := range []int{1, 2, 7, 32, 160} {
		var logs [2]*popLog
		for li, heap := range []bool{false, true} {
			rng := rand.New(rand.NewSource(int64(n)))
			tp := topo.MustNew(topo.Config{NUMANodes: 1, LLCsPerNode: 1, CoresPerLLC: n})
			m := newMachineOn(heap, tp, NewFIFO(), Options{Seed: 5, Cost: &CostModel{}})
			log := &popLog{t: t, m: m}
			logs[li] = log
			period := m.tickPeriod
			m.Observe(observeFunc(func(e Event) {
				log.note(fmt.Sprintf("tick core %d", e.Core.ID))
				checkRotor(t, m, "tick")
			}), Tick)
			for i := 0; i < n; i += 1 + n/8 {
				m.StartThreadCfg(ThreadConfig{Name: "burst", Group: "app", Pinned: []int{i}, Prog: &runSleeper{
					run:   time.Duration(50+rng.Intn(700)) * time.Microsecond,
					sleep: time.Duration(50+rng.Intn(700)) * time.Microsecond,
				}})
			}
			for k := 0; k < 120; k++ {
				id := rng.Intn(n)
				off := time.Duration(rng.Int63n(int64(span)))
				on := off + time.Duration(rng.Int63n(int64(2*period)))
				m.At(off, fireFunc(func() {
					log.note(fmt.Sprintf("offline %d: %v", id, m.OfflineCore(id)))
					checkRotor(t, m, "offline")
				}))
				m.At(on, fireFunc(func() {
					log.note(fmt.Sprintf("online %d: %v", id, m.OnlineCore(id)))
					checkRotor(t, m, "online")
				}))
			}
			for m.Now() < span+2*period {
				m.Run(m.Now() + 1 + time.Duration(rng.Int63n(int64(period*3/2))))
				checkRotor(t, m, "window end")
			}
			if m.nOffline != 0 {
				t.Fatalf("n=%d: %d cores still offline", n, m.nOffline)
			}
			for i := range m.ticks {
				if m.ticks[i].state != tickLive {
					t.Fatalf("n=%d: core %d is online without a live tick", n, i)
				}
			}
		}
		if logs[0].m.EventsProcessed() != logs[1].m.EventsProcessed() {
			t.Fatalf("n=%d: %d events on the wheel, %d on the heap", n,
				logs[0].m.EventsProcessed(), logs[1].m.EventsProcessed())
		}
		if err := logs[0].equal(logs[1]); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
	}
}

// TestRotorEvictedStaleTick: a core taken offline and brought back inside
// one tick period re-arms while its superseded tick is still standing. The
// stale entry must move to the queue with its original sequence number and
// still pop exactly once, counted, in its old (at, seq) position — on the
// wheel even when the cursor has already run past that time and the entry
// has to be sorted into the live batch among later-stamped events of the
// same instant.
func TestRotorEvictedStaleTick(t *testing.T) {
	const (
		ms = time.Millisecond
		us = time.Microsecond
	)
	tp := topo.MustNew(topo.Config{NUMANodes: 1, LLCsPerNode: 1, CoresPerLLC: 2})
	var logs [2]*popLog
	for li, heap := range []bool{false, true} {
		m := newMachineOn(heap, tp, NewFIFO(), Options{Seed: 1, Cost: &CostModel{}})
		log := &popLog{t: t, m: m}
		logs[li] = log
		m.Observe(observeFunc(func(e Event) { log.note(fmt.Sprintf("tick core %d", e.Core.ID)) }), Tick)
		// One far event: once the near ones are gone the wheel's cursor
		// jumps to it, ahead of the clock, while the rotor keeps ticking.
		m.At(20*ms, fireFunc(func() { log.note("far") }))
		m.Run(2 * ms)
		// Core 1's grid is 1.5, 2.5, 3.5 ms …; its 3.5 ms tick is armed at
		// 2.5. Offline at 2.6 makes it stale; a marker for 3.5 ms stamped
		// at 2.6 sorts after it; online at 2.8 re-arms for 3.5 ms and has
		// to evict it.
		m.At(2600*us, fireFunc(func() {
			log.note(fmt.Sprintf("offline: %v", m.OfflineCore(1)))
			m.At(3500*us, fireFunc(func() { log.note("marker") }))
		}))
		m.At(2800*us, fireFunc(func() {
			stale := m.ticks[1]
			log.note(fmt.Sprintf("online: %v", m.OnlineCore(1)))
			if e := m.ticks[1]; stale.state != tickStale || e.state != tickLive || e.at != stale.at || e.seq <= stale.seq {
				t.Fatalf("heap=%v: stale entry %+v re-armed as %+v", heap, stale, e)
			}
			if !heap {
				w := &m.wheel
				if time.Duration(w.cursor<<wheelShift0) <= stale.at {
					t.Fatalf("wheel cursor at %v has not run past the stale tick at %v", w.curEnd(), stale.at)
				}
				live := w.cur[w.curIdx:]
				if len(live) != 3 || live[0].kind != evStaleTick || live[0].seq != stale.seq || live[1].at != stale.at {
					t.Fatalf("live batch after the eviction: %+v", live)
				}
			}
		}))
		m.Run(5 * ms)
		// Ticks: core 0 at 1..5 ms, core 1 at 1.5..4.5 ms; three Timer
		// events; the stale tick's no-op pop.
		if got, want := m.EventsProcessed(), uint64(5+4+3+1); got != want {
			t.Fatalf("heap=%v: %d events processed, want %d", heap, got, want)
		}
	}
	if err := logs[0].equal(logs[1]); err != nil {
		t.Fatal(err)
	}
	// At 3.5 ms: the stale tick (unseen), then the marker, then the live tick.
	recs := logs[0].recs
	for i, r := range recs {
		if r.what == "marker" {
			if next := recs[i+1]; r.at != 3500*us || next.at != 3500*us || next.what != "tick core 1" {
				t.Fatalf("marker %+v followed by %+v, want core 1's tick at the same instant", r, next)
			}
			return
		}
	}
	t.Fatalf("no marker in %+v", recs)
}
