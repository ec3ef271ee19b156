package sim

import (
	"math/rand"
	"testing"
	"time"
	"unsafe"
)

// The timer wheel's determinism contract is "pops in exactly the binary
// heap's (at, seq) order". These tests hold it to that with the heap as the
// oracle, concentrating on the places a hierarchical wheel can go subtly
// wrong: slot and level boundaries, cascades the cursor lands inside,
// far-future overflow refiling, and same-timestamp seq ordering.

// wheelOracle drives a wheel and a heap through one interleaved
// push/pop schedule and fails on the first divergence.
type wheelOracle struct {
	t     *testing.T
	w     timerWheel
	h     eventHeap
	seq   uint64
	clock time.Duration
	pops  int
}

func newWheelOracle(t *testing.T) *wheelOracle {
	return &wheelOracle{t: t}
}

// push schedules an event at the given time on both queues. Times before
// the current clock are clamped to it, matching the engine's "never
// schedule into the past" guarantee.
func (o *wheelOracle) push(at time.Duration) {
	if at < o.clock {
		at = o.clock
	}
	o.seq++
	o.pushStamped(at, o.seq)
}

// pushStamped schedules an event that already carries its sequence number —
// a stale tick evicted from the rotor keeps the one it was armed with.
func (o *wheelOracle) pushStamped(at time.Duration, seq uint64) {
	e := event{at: at, seq: seq, id: int32(seq)}
	o.w.push(e)
	o.h.push(e)
}

// pop consumes one event from both queues and compares. Returns false when
// both are empty; diverging emptiness or content fails the test.
func (o *wheelOracle) pop() bool {
	o.t.Helper()
	wAt, wOK := o.w.peekAt()
	hOK := o.h.len() > 0
	if wOK != hOK {
		o.t.Fatalf("pop %d: wheel nonempty=%v, heap nonempty=%v", o.pops, wOK, hOK)
	}
	if !wOK {
		return false
	}
	we := o.w.pop()
	he := o.h.pop()
	if we != he {
		o.t.Fatalf("pop %d: wheel {at=%v seq=%d}, heap {at=%v seq=%d}",
			o.pops, we.at, we.seq, he.at, he.seq)
	}
	if wAt != we.at {
		o.t.Fatalf("pop %d: peekAt %v but popped at=%v", o.pops, wAt, we.at)
	}
	if we.at < o.clock {
		o.t.Fatalf("pop %d: time went backwards: %v after %v", o.pops, we.at, o.clock)
	}
	o.clock = we.at
	o.pops++
	return true
}

// drain pops until both queues are empty.
func (o *wheelOracle) drain() {
	for o.pop() {
	}
	if got := o.w.len(); got != 0 {
		o.t.Fatalf("wheel len = %d after drain", got)
	}
}

// checkPool verifies the node pool's structure: every node handed out is
// on exactly one slot list or on the free list, each slot list holds the
// events of that slot and ends at its tail, the bitmap mirrors the heads,
// and size counts the linked nodes.
func (o *wheelOracle) checkPool() {
	o.t.Helper()
	w := &o.w
	seen := make([]bool, w.used)
	visit := func(n int32, where string) {
		if n < 1 || n > w.used {
			o.t.Fatalf("%s: node index %d outside the pool of %d", where, n, w.used)
		}
		if seen[n-1] {
			o.t.Fatalf("%s: node %d is linked twice", where, n)
		}
		seen[n-1] = true
	}
	linked := 0
	for k := range w.levels {
		lv := &w.levels[k]
		for idx := range lv.slots {
			sl := lv.slots[idx]
			if (sl.head == 0) != (sl.tail == 0) || lv.occupied(int64(idx)) != (sl.head != 0) {
				o.t.Fatalf("level %d slot %d: head %d, tail %d, bitmap %v", k, idx, sl.head, sl.tail, lv.occupied(int64(idx)))
			}
			last := int32(0)
			for n := sl.head; n != 0; n = w.node(n).next {
				visit(n, "slot list")
				at := w.node(n).e.at
				if got := int(int64(at) >> uint(wheelShift0+wheelBits*k) & wheelMask); got != idx {
					o.t.Fatalf("level %d slot %d holds an event at %v, which belongs in slot %d", k, idx, at, got)
				}
				last = n
				linked++
			}
			if last != sl.tail {
				o.t.Fatalf("level %d slot %d: tail %d, but the list ends at node %d", k, idx, sl.tail, last)
			}
		}
	}
	if linked != w.size {
		o.t.Fatalf("size %d, but %d nodes are linked into slots", w.size, linked)
	}
	for n := w.free; n != 0; n = w.node(n).next {
		visit(n, "free list")
	}
	for i, ok := range seen {
		if !ok {
			o.t.Fatalf("node %d is on no list", i+1)
		}
	}
}

// wheelHorizons has one bucket per structural regime: within the current
// level-0 slot, level 0, each higher level, and past the top horizon.
var wheelHorizons = []time.Duration{
	1 << wheelShift0,                                // same/adjacent slot
	wheelSlots << wheelShift0,                       // level 0 ring
	wheelSlots << (wheelShift0 + wheelBits),         // level 1
	wheelSlots << (wheelShift0 + 2*wheelBits),       // level 2
	wheelSlots << (wheelShift0 + 3*wheelBits),       // level 3
	2 * (wheelSlots << (wheelShift0 + 3*wheelBits)), // overflow
}

// TestWheelMatchesHeapFuzz interleaves random pushes and pops with horizons
// spanning every wheel level and the overflow, across several seeds, and
// checks the pool's structure after every step.
func TestWheelMatchesHeapFuzz(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		rng := rand.New(rand.NewSource(seed))
		o := newWheelOracle(t)
		for step := 0; step < 4000; step++ {
			switch {
			case rng.Intn(3) == 0 && o.h.len() > 0:
				o.pop()
			default:
				h := wheelHorizons[rng.Intn(len(wheelHorizons))]
				o.push(o.clock + time.Duration(rng.Int63n(int64(h))))
			}
			o.checkPool()
		}
		o.drain()
		o.checkPool()
	}
}

// TestWheelPoolBoundedByPending: the pool grows only when every node is in
// use, so a million churn operations that never hold more than N events
// leave it at N nodes or fewer — wherever the events were filed, however
// often they cascaded, whichever slots they visited.
func TestWheelPoolBoundedByPending(t *testing.T) {
	for _, limit := range []int{1, 64, 5000} {
		rng := rand.New(rand.NewSource(int64(limit)))
		var w timerWheel
		var clock time.Duration
		var seq uint64
		for op := 0; op < 1_000_000; op++ {
			if w.len() < limit && (w.len() == 0 || rng.Intn(4) != 0) {
				h := wheelHorizons[rng.Intn(len(wheelHorizons))]
				seq++
				w.push(event{at: clock + time.Duration(rng.Int63n(int64(h))), seq: seq})
			} else {
				w.peekAt()
				clock = w.pop().at
			}
			if int(w.used) > limit {
				t.Fatalf("at most %d pending, op %d: the pool holds %d nodes", limit, op, w.used)
			}
		}
		if int(w.used) < (limit+1)/2 {
			t.Fatalf("at most %d pending: the pool reached only %d nodes, so the churn never pressed on the bound", limit, w.used)
		}
	}
}

// TestWheelPoolGrowsWithoutCopying: the pool grows by allocating the next
// segment, so every node stays at the address it was handed out at, and
// the segments double, so the pool never holds more than twice its
// high-water mark plus the first segment's 16 nodes (56 B each). Right
// after a growth it is nearly reached: 17 nodes in use hold 48 (bound 50).
func TestWheelPoolGrowsWithoutCopying(t *testing.T) {
	if size := unsafe.Sizeof(wheelNode{}); size != 56 {
		t.Fatalf("a wheel node is %d B, want 56", size)
	}
	var w timerWheel
	var addrs []*wheelNode
	// One ring ahead, so every event files at level 1 and none drains.
	far := time.Duration(wheelSlots) << wheelShift0
	for seq := uint64(1); seq <= 5000; seq++ {
		w.push(event{at: far + time.Duration(seq), seq: seq})
		if int(w.used) != len(addrs)+1 {
			t.Fatalf("%d events filed, none popped: %d nodes handed out", seq, w.used)
		}
		addrs = append(addrs, w.node(w.used))
		pool := 0
		for _, sg := range w.segs {
			pool += cap(sg)
		}
		if bytes, bound := uintptr(pool)*unsafe.Sizeof(wheelNode{}), uintptr(2*w.used+wheelSeg0)*56; bytes > bound {
			t.Fatalf("%d nodes in use: the pool holds %d B, bound %d", w.used, bytes, bound)
		}
		if _, off := nodeAt(w.used); off != 0 {
			continue
		}
		// A segment was just added: every earlier node is where it was,
		// holding what it held.
		for i, p := range addrs {
			if n := int32(i + 1); w.node(n) != p || p.e.seq != uint64(n) {
				t.Fatalf("after growing to %d nodes: node %d moved or changed (seq %d)", w.used, n, w.node(n).e.seq)
			}
		}
	}
	for seq := uint64(1); seq <= 5000; seq++ {
		if _, ok := w.peekAt(); !ok {
			t.Fatal("wheel empty early")
		}
		if e := w.pop(); e.seq != seq {
			t.Fatalf("popped seq %d, want %d", e.seq, seq)
		}
	}
}

// slotEvents lists level-k slot idx in list order.
func (w *timerWheel) slotEvents(k int, idx int64) []event {
	var es []event
	for n := w.levels[k].slots[idx&wheelMask].head; n != 0; n = w.node(n).next {
		es = append(es, w.node(n).e)
	}
	return es
}

// TestWheelSlotOrderIsFilingOrder: a slot hands drainSlot its events in the
// order they were filed — first the ones a cascade relinked, in their own
// filing order, then the ones filed directly — which is what the slice
// wheel's appends produced, so sortEvents starts from the same permutation.
// The times descend so that filing order is not sorted order.
func TestWheelSlotOrderIsFilingOrder(t *testing.T) {
	var w timerWheel
	const target = int64(wheelSlots + 5) // a level-0 slot one ring ahead: files at level 1
	at := func(i int) time.Duration { return time.Duration(target<<wheelShift0) + time.Duration(100-i) }
	for i := 1; i <= 4; i++ {
		w.push(event{at: at(i), seq: uint64(i)})
	}
	if got := len(w.slotEvents(1, target>>wheelBits)); got != 4 {
		t.Fatalf("%d events in the level-1 slot, want 4", got)
	}
	// Draining the last slot of the first block steps the cursor over the
	// level-1 boundary and cascades the four.
	w.push(event{at: time.Duration((wheelSlots - 1) << wheelShift0), seq: 5})
	w.peekAt()
	w.pop()
	for i := 6; i <= 8; i++ {
		w.push(event{at: at(i), seq: uint64(i)})
	}
	got := w.slotEvents(0, target)
	want := []uint64{1, 2, 3, 4, 6, 7, 8}
	if len(got) != len(want) {
		t.Fatalf("%d events in the level-0 slot, want %d", len(got), len(want))
	}
	for i, e := range got {
		if e.seq != want[i] {
			t.Fatalf("slot position %d holds seq %d, want %d (filing order)", i, e.seq, want[i])
		}
	}
	// And the drain still delivers them by (at, seq): descending seq here.
	for _, seq := range []uint64{8, 7, 6, 4, 3, 2, 1} {
		if _, ok := w.peekAt(); !ok {
			t.Fatal("wheel empty early")
		}
		if e := w.pop(); e.seq != seq {
			t.Fatalf("popped seq %d, want %d", e.seq, seq)
		}
	}
}

// TestWheelZeroValue: a timerWheel needs no set-up.
func TestWheelZeroValue(t *testing.T) {
	var w timerWheel
	e := event{at: 3 * time.Millisecond, seq: 1, id: 7}
	w.push(e)
	if at, ok := w.peekAt(); !ok || at != e.at {
		t.Fatalf("peekAt = %v, %v", at, ok)
	}
	if got := w.pop(); got != e {
		t.Fatalf("popped %+v, want %+v", got, e)
	}
	if _, ok := w.peekAt(); ok || w.len() != 0 {
		t.Fatalf("wheel not empty after its only event: len %d", w.len())
	}
}

// TestWheelSlotEdges pins events to exact slot boundaries of every level,
// one tick before, and one tick after — the off-by-one surface of filing,
// draining, and cascading.
func TestWheelSlotEdges(t *testing.T) {
	o := newWheelOracle(t)
	for level := 0; level < wheelLevels; level++ {
		width := int64(1) << uint(wheelShift0+level*wheelBits)
		for _, mult := range []int64{1, 2, wheelSlots - 1, wheelSlots, wheelSlots + 1} {
			base := o.clock + time.Duration(mult*width)
			o.push(base - 1)
			o.push(base)
			o.push(base + 1)
		}
		// Consume a few to move the cursor into the middle of a ring.
		o.pop()
		o.pop()
	}
	o.drain()
}

// TestWheelPushBehindRunAheadCursor: with the ticks in the rotor the wheel
// is asked for its head (advance) while the rotor still holds earlier
// events, which leaves the cursor ahead of the clock. Everything scheduled
// from those earlier events lands behind the cursor and must be sorted into
// the live batch — by (at, seq), because an evicted stale tick arrives with
// a sequence number older than events already waiting at its instant.
func TestWheelPushBehindRunAheadCursor(t *testing.T) {
	ms := time.Millisecond
	o := newWheelOracle(t)
	o.push(50 * ms)
	o.seq += 2 // two sequence numbers held by standing ticks
	oldA, oldB := o.seq-1, o.seq
	if at, ok := o.w.peekAt(); !ok || at != 50*ms || o.w.curEnd() <= 50*ms {
		t.Fatalf("peekAt = %v, %v with the cursor at %v: the cursor should have run to the far event", at, ok, o.w.curEnd())
	}
	for _, at := range []time.Duration{30 * ms, 10 * ms, 10 * ms, 50 * ms, 70 * ms} {
		o.push(at)
	}
	o.pushStamped(10*ms, oldA) // before both fresh 10 ms events
	o.pushStamped(70*ms, oldB) // beyond the cursor: filed, sorted on drain
	o.drain()
	if o.pops != 8 {
		t.Fatalf("%d pops, want 8", o.pops)
	}
}

// TestWheelSameTimestampSeqOrder checks that a burst of equal-time events
// pops in push (seq) order even when they land via different levels:
// some filed directly, some arriving after the cursor has moved (pushCur).
func TestWheelSameTimestampSeqOrder(t *testing.T) {
	o := newWheelOracle(t)
	at := o.clock + 300*time.Microsecond
	for i := 0; i < 64; i++ {
		o.push(at)
	}
	// Deliver the first few, then push more at the *same* timestamp — the
	// engine does this constantly (equal-time wakeups during a dispatch).
	for i := 0; i < 8; i++ {
		o.pop()
	}
	for i := 0; i < 16; i++ {
		o.push(at)
	}
	o.drain()
}

// TestWheelFarFutureOverflow exercises the overflow heap: events beyond the
// top level's rolling horizon must wait there and refile — in order — once
// the wheel empties, including a second generation pushed after the jump.
func TestWheelFarFutureOverflow(t *testing.T) {
	o := newWheelOracle(t)
	topSpan := time.Duration(wheelSlots) << uint(wheelShift0+3*wheelBits)
	for i := 0; i < 10; i++ {
		o.push(o.clock + 2*topSpan + time.Duration(i)*time.Millisecond)
	}
	o.push(o.clock + 5*topSpan) // beyond even the refiled span
	o.push(o.clock + time.Millisecond)
	for o.pop() {
		if o.pops == 5 {
			// Mid-drain, after the overflow jump: near events again.
			o.push(o.clock + 100*time.Microsecond)
		}
	}
	o.drain()
}

// TestWheelCascadeUnderCursor pushes an event into a higher-level slot,
// then advances the cursor into that slot's span with nearer events — the
// cascade-on-entry path (invariant 2) that keeps later same-slot arrivals
// from overtaking the cascaded ones.
func TestWheelCascadeUnderCursor(t *testing.T) {
	o := newWheelOracle(t)
	l1 := time.Duration(1) << uint(wheelShift0+wheelBits) // level-1 slot width
	// Far event: lands in a level-1 (or higher) slot.
	o.push(o.clock + 3*l1 + 17*time.Microsecond)
	// Near events marching the cursor across level-1 boundaries.
	for i := 1; i <= 40; i++ {
		o.push(o.clock + time.Duration(i)*100*time.Microsecond)
	}
	for i := 0; i < 20; i++ {
		o.pop()
		// New arrivals just ahead of the clock, squeezed between the
		// cursor and the not-yet-cascaded far event.
		o.push(o.clock + 50*time.Microsecond)
	}
	o.drain()
}

// TestWheelCoincidentLevelBoundaries pins the stranding bug where the
// candidate scan jumped the cursor to a winning slot's start and cascaded
// only that slot: a level-2 slot's start is also a level-1 boundary, so an
// occupied level-1 slot can share it, and skipping its cascade leaves the
// cursor inside an occupied slot (invariant 2 broken). Its events are then
// overtaken by the refiled level-2 ones and delivered late, out of order.
func TestWheelCoincidentLevelBoundaries(t *testing.T) {
	o := newWheelOracle(t)
	l2span := time.Duration(wheelSlots) << uint(wheelShift0+wheelBits)
	// A: beyond the level-1 ring from slot 0, so it files at level 2 —
	// into the slot starting exactly at l2span.
	o.push(l2span + 600*time.Microsecond)
	// March the cursor past one level-1 boundary so the next push can
	// reach the l2span boundary from within a level-1 ring.
	o.push(o.clock + time.Duration(wheelSlots+3)<<wheelShift0)
	o.pop()
	// B: earlier than A, inside the same first level-1 block of A's
	// level-2 slot; files at level 1 into the slot whose start coincides
	// with that level-2 slot's start. Both must cascade on the jump, or B
	// is stranded while A drains first.
	o.push(l2span + 100*time.Microsecond)
	o.drain()
}

// TestWheelLen holds len() to the oracle through a mixed workload.
func TestWheelLen(t *testing.T) {
	o := newWheelOracle(t)
	rng := rand.New(rand.NewSource(99))
	for step := 0; step < 1000; step++ {
		if rng.Intn(2) == 0 {
			o.push(o.clock + time.Duration(rng.Int63n(int64(50*time.Millisecond))))
		} else {
			o.pop()
		}
		if o.w.len() != o.h.len() {
			t.Fatalf("step %d: wheel len %d, heap len %d", step, o.w.len(), o.h.len())
		}
	}
	o.drain()
}
