package sim

import "time"

// The tick rotor: the per-core scheduler tick's home. Every core ticks once
// a period, busy or idle, so ticks are the most common event by far — and
// the most regular: each core has exactly one pending at any time. Instead
// of re-filing a queue event per tick, each core keeps one standing entry
// in Machine.ticks, and Machine.nextEvent takes whichever of the queue head
// and the rotor head is earlier by (at, seq). Arming still draws a sequence
// number from Machine.seq and stamps the arming time, so the merged pop
// order is exactly the total order of a queue that held the ticks itself.
//
// The rotor head is found without searching. Core i's ticks sit on the grid
// tickOffset(i) + k*period (k ≥ 1) with tickOffset(i) = period*i/N, strictly
// increasing in i while N ≤ period in ns (startTicks enforces it), so two
// cores never share a tick time. Every standing entry was armed at most one
// period before it is due and nothing due earlier than the head is left, so
// all entries lie within one period of the head — and within such a window
// grid points come in core order, cyclically. The entry after the head is
// therefore the first standing one on a higher core ID, wrapping around
// (nextTick); an entry armed out of turn (OnlineCore) only has to compare
// itself with the cached head (armTick).
//
// OfflineCore stops a core's chain by marking its entry stale. A stale
// entry still pops once, in its (at, seq) position, as a counted no-op:
// EventsProcessed is in every report. If the core comes back while its
// stale entry is still pending, the entry is evicted into the event queue
// with its original seq and arming time, where it pops in the same place.

// tickState says what a core's rotor entry holds.
type tickState uint8

const (
	// tickNone: no entry — the core is offline, or its tick is firing.
	tickNone tickState = iota
	// tickLive: the core's next tick.
	tickLive
	// tickStale: a tick superseded by OfflineCore, pending its no-op pop.
	tickStale
)

// tickEntry is one core's standing tick: the (at, seq, armed) triple a
// queued event would carry.
type tickEntry struct {
	at    time.Duration
	seq   uint64
	armed time.Duration
	state tickState
}

// startTicks arms the per-core periodic scheduler tick, staggered so cores
// do not tick in lockstep.
func (m *Machine) startTicks() {
	period := m.sched.TickPeriod()
	if period <= 0 {
		panic("sim: scheduler TickPeriod must be positive")
	}
	n := len(m.coreArr)
	if time.Duration(n) > period {
		panic("sim: more cores than nanoseconds in a tick period")
	}
	m.tickPeriod = period
	m.ticks = make([]tickEntry, n)
	m.tickHead = -1
	for i := range m.coreArr {
		c := &m.coreArr[i]
		c.tickOffset = period * time.Duration(i) / time.Duration(n)
		m.armTick(c, c.tickOffset+period)
	}
}

// armTick stands c's next tick at the absolute time at (at ≥ now, on the
// core's grid). A stale entry still pending for the core moves to the event
// queue first.
func (m *Machine) armTick(c *Core, at time.Duration) {
	e := &m.ticks[c.ID]
	switch e.state {
	case tickStale:
		stale := event{at: e.at, seq: e.seq, armed: e.armed, kind: evStaleTick, id: int32(c.ID)}
		m.takeTick(c.ID)
		m.push(stale)
	case tickLive:
		panic("sim: armTick on a core whose tick is already standing")
	}
	m.seq++
	*e = tickEntry{at: at, seq: m.seq, armed: m.now, state: tickLive}
	if m.tickHead < 0 || at < m.ticks[m.tickHead].at {
		m.tickHead = c.ID
	}
}

// takeTick removes core id's entry from the rotor, moving the head on if
// it was the head.
func (m *Machine) takeTick(id int) {
	m.ticks[id].state = tickNone
	if m.tickHead == id {
		m.tickHead = m.nextTick(id)
	}
}

// nextTick returns the core holding the earliest entry once id's is gone:
// the first standing one cyclically after id, or -1 when none stands.
func (m *Machine) nextTick(id int) int {
	n := len(m.ticks)
	for k := 1; k < n; k++ {
		j := id + k
		if j >= n {
			j -= n
		}
		if m.ticks[j].state != tickNone {
			return j
		}
	}
	return -1
}

// fireTick runs one scheduler tick on c and stands the next one.
func (m *Machine) fireTick(c *Core) {
	c.lastTick = m.now
	c.flushRun()
	if m.observers != nil {
		m.emit(Event{Kind: Tick, Core: c})
	}
	m.sched.Tick(c, c.Curr)
	if c.NeedResched {
		c.NeedResched = false
		if c.Curr != nil {
			m.deschedule(c, 0)
			m.dispatch(c)
		}
	}
	m.armTick(c, m.now+m.tickPeriod)
}
