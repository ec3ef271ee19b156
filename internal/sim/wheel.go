package sim

import (
	"math/bits"
	"time"
)

// The hierarchical timer wheel: the engine's default event queue, holding
// everything but the scheduler ticks (those stand in the rotor, rotor.go).
// Most queued events — burst ends, timed sleeps — are armed a short horizon
// ahead of the clock, so a wheel turns the heap's O(log n) sift per
// insert/expire into O(1) list links and batched slot drains.
//
// Layout: wheelLevels rings of wheelSlots slots over the event clock
// (nanosecond time.Duration values); a slot is a FIFO list threaded through
// one node pool all slots share (timerWheel.segs), so the wheel's memory
// follows the events pending, not the slots they pass. Level k's slots are
// 2^(wheelShift0 + k*wheelBits) ns wide — 4.096µs at level 0, then ~1ms,
// ~268ms, ~68.7s. Filing is delta-based: an event goes to the lowest level
// where its slot index is within a full ring of the cursor's position at
// that level, so anything under ~1ms of horizon lands in level 0 no matter
// where the boundaries fall, under ~268ms in level 1, and so on; events
// past the top level's rolling horizon (~4.9h) wait in a small overflow
// heap. When the cursor reaches a higher-level slot, that slot's nodes are
// relinked into the levels below (each event cascades at most
// wheelLevels-1 times and is never copied on the way), and when the
// overflow's span becomes reachable its events are refiled.
//
// Determinism contract: events pop in strictly increasing (at, seq) order —
// exactly the binary heap's total order, so the two engines are
// byte-interchangeable (internal/scenario/engine_crossval_test.go holds
// them to that). The invariants behind it:
//
//  1. Every undelivered event with at < curEnd (= cursor slot start) is in
//     cur, sorted by (at, seq), undrained portion cur[curIdx:].
//  2. The cursor never sits inside an occupied upper-level slot: whenever
//     it enters one — stepping past a drained slot or jumping forward in
//     advance() — the slot cascades immediately (cascadeInto), before any
//     push can file newer events into the lower levels that slot feeds.
//     file() preserves this: it never targets a slot containing the
//     cursor, because an event inside the cursor's level-k slot is always
//     within a ring of the cursor at level k-1 and files lower.
//  3. advance() always picks the earliest non-empty slot: level 0 is
//     scanned up to the next level-1 boundary first (no higher-level slot
//     can start before that boundary), and past it every level is scanned
//     a full ring, taking the slot with the smallest start — ties to the
//     higher level, whose slot's events may precede the lower's.
//
// Slot drains sort once and then serve pops by index — the batched
// same-timestamp processing the dispatch loop relies on: one advance()
// prepares a whole slot, and Machine.Run consumes it without touching the
// wheel structure again.
const (
	wheelBits   = 8
	wheelSlots  = 1 << wheelBits
	wheelMask   = wheelSlots - 1
	wheelShift0 = 12 // 4.096µs level-0 slots
	wheelLevels = 4

	// The node pool is power-of-two segments of 16, 32, 64 … nodes,
	// enough of them to cover every positive int32 index.
	wheelSeg0Bits = 4
	wheelSeg0     = 1 << wheelSeg0Bits
	wheelSegs     = 32 - wheelSeg0Bits
)

// wheelNode is one pooled list cell. It holds no pointer, so the collector
// never scans the pool.
type wheelNode struct {
	e    event
	next int32 // 1-based index of the next node on the same list; 0 ends it
}

// wheelSlot is a FIFO list of nodes in filing order: 1-based pool indices
// (timerWheel.node), both 0 when empty. tail makes the append — and the
// splice of a drained list onto the free list — O(1).
type wheelSlot struct {
	head, tail int32
}

// wheelLevel is one ring of slots plus a non-empty bitmap for O(1) scans.
type wheelLevel struct {
	slots  [wheelSlots]wheelSlot
	bitmap [wheelSlots / 64]uint64
}

// mark flags slot idx (masked absolute index) as non-empty.
func (lv *wheelLevel) mark(idx int64) {
	lv.bitmap[idx>>6] |= 1 << uint(idx&63)
}

// clear flags slot idx as empty.
func (lv *wheelLevel) clear(idx int64) {
	lv.bitmap[idx>>6] &^= 1 << uint(idx&63)
}

// occupied reports whether slot idx holds events.
func (lv *wheelLevel) occupied(idx int64) bool {
	return lv.bitmap[idx>>6]&(1<<uint(idx&63)) != 0
}

// next returns the first non-empty absolute slot in [from, to), scanning
// the bitmap word-wise. to-from <= wheelSlots, so although the masked
// window may wrap the ring, no slot is visited twice.
func (lv *wheelLevel) next(from, to int64) (int64, bool) {
	for s := from; s < to; {
		idx := s & wheelMask
		word := lv.bitmap[idx>>6] >> uint(idx&63)
		if word != 0 {
			s += int64(bits.TrailingZeros64(word))
			if s >= to {
				return 0, false
			}
			return s, true
		}
		s += 64 - (idx & 63)
	}
	return 0, false
}

// timerWheel is the engine's event queue; the zero value is an empty wheel.
type timerWheel struct {
	// cur is the current slot batch: all undelivered events earlier than
	// curEnd(), sorted by (at, seq); cur[:curIdx] is already delivered.
	cur    []event
	curIdx int
	// cursor is the next unvisited absolute level-0 slot index; everything
	// before cursor<<wheelShift0 is delivered or in cur.
	cursor int64
	// size counts events filed in the levels (excluding cur and overflow).
	size int
	// segs is the pool behind every slot list, addressed through node;
	// free heads the list of unused nodes (1-based, 0 when none). The pool
	// only grows, and only when every node is in use: used, the number of
	// nodes ever handed out, is the high-water mark of size. Growth
	// allocates the next segment and leaves every node where it is.
	segs   [wheelSegs][]wheelNode
	used   int32
	free   int32
	levels [wheelLevels]wheelLevel
	// over holds events beyond the top level's rolling horizon, ordered;
	// they are refiled when their span becomes reachable.
	over eventHeap
}

// nodeAt splits 1-based pool index n into its segment and the offset in
// it: segment s holds indices 16·(2^s − 1) + 1 through 16·(2^(s+1) − 1).
func nodeAt(n int32) (seg uint, off uint32) {
	j := uint32(n) + wheelSeg0 - 1
	top := uint(bits.Len32(j)-1) & 31
	return top - wheelSeg0Bits, j &^ (1 << top)
}

// node returns pool node n (1-based).
func (w *timerWheel) node(n int32) *wheelNode {
	s, off := nodeAt(n)
	return &w.segs[s][off]
}

// curEnd is the exclusive upper bound of the region covered by cur.
func (w *timerWheel) curEnd() time.Duration {
	return time.Duration(w.cursor << wheelShift0)
}

// len reports the number of undelivered events.
func (w *timerWheel) len() int {
	return (len(w.cur) - w.curIdx) + w.size + w.over.len()
}

// push files one event. Events always arrive with at >= the machine clock,
// which invariants 1-3 above rely on; all but a stale tick evicted from the
// rotor carry a fresh (maximal) seq. The cursor may be ahead of the clock —
// advance() ran while the rotor held the earlier event — and then a new
// event can belong before it, in the live batch.
func (w *timerWheel) push(e event) {
	if int64(e.at)>>wheelShift0 < w.cursor {
		w.pushCur(e)
		return
	}
	w.file(e)
}

// pushCur ordered-inserts into the live batch by (at, seq).
func (w *timerWheel) pushCur(e event) {
	i, j := w.curIdx, len(w.cur)
	for i < j {
		h := int(uint(i+j) >> 1)
		if eventBefore(&w.cur[h], &e) {
			i = h + 1
		} else {
			j = h
		}
	}
	w.cur = append(w.cur, event{})
	copy(w.cur[i+1:], w.cur[i:])
	w.cur[i] = e
}

// level returns the lowest level whose ring reaches level-0 slot index slot
// from the cursor, or wheelLevels beyond the top horizon.
func (w *timerWheel) level(slot int64) int {
	for k := 0; k < wheelLevels; k++ {
		shift := uint(wheelBits * k)
		if slot>>shift-w.cursor>>shift < wheelSlots {
			return k
		}
	}
	return wheelLevels
}

// file places an event with at >= curEnd into the lowest level whose ring
// reaches it from the cursor, or the overflow heap beyond the top horizon,
// taking its node from the free list or, with none free, the next unused
// one — allocating its segment when it is the first of one.
func (w *timerWheel) file(e event) {
	slot := int64(e.at) >> wheelShift0
	k := w.level(slot)
	if k == wheelLevels {
		w.over.push(e)
		return
	}
	n := w.free
	var nd *wheelNode
	if n != 0 {
		nd = w.node(n)
		w.free = nd.next
	} else {
		w.used++
		n = w.used
		s, off := nodeAt(n)
		if off == 0 {
			w.segs[s] = make([]wheelNode, wheelSeg0<<s)
		}
		nd = &w.segs[s][off]
	}
	*nd = wheelNode{e: e}
	w.link(k, slot, n)
	w.size++
}

// link appends node n, its next already 0, to the level-k slot that covers
// level-0 slot index slot.
func (w *timerWheel) link(k int, slot int64, n int32) {
	lv := &w.levels[k]
	idx := (slot >> uint(wheelBits*k)) & wheelMask
	sl := &lv.slots[idx]
	if sl.tail == 0 {
		sl.head = n
		lv.mark(idx)
	} else {
		w.node(sl.tail).next = n
	}
	sl.tail = n
}

// peekAt returns the next event's time without consuming it, advancing the
// wheel to the next non-empty slot if the live batch is drained.
func (w *timerWheel) peekAt() (time.Duration, bool) {
	if w.curIdx < len(w.cur) {
		return w.cur[w.curIdx].at, true
	}
	if !w.advance() {
		return 0, false
	}
	return w.cur[w.curIdx].at, true
}

// pop consumes the next event; peekAt must have returned true.
func (w *timerWheel) pop() event {
	e := w.cur[w.curIdx]
	w.curIdx++
	return e
}

// advance drains the earliest non-empty slot into cur (invariant 3).
// Returns false when the queue is empty.
func (w *timerWheel) advance() bool {
	w.cur = w.cur[:0]
	w.curIdx = 0
	for {
		// Refile overflow events the top ring now covers, *before* slot
		// selection: the cursor may have advanced past enough top-level
		// boundaries since they were parked that they are reachable — and
		// a later event filed directly into the wheel must not overtake
		// them. With an empty wheel, jump straight to the overflow's span
		// first so the refile lands its head.
		const topShift = uint(wheelBits * (wheelLevels - 1))
		if w.size == 0 {
			if w.over.len() == 0 {
				return false
			}
			w.cursor = int64(w.over.es[0].at) >> wheelShift0
		}
		for w.over.len() > 0 {
			slot := int64(w.over.es[0].at) >> wheelShift0
			if slot>>topShift-w.cursor>>topShift >= wheelSlots {
				break
			}
			w.file(w.over.pop())
		}
		// Fast path: the earliest level-0 slot before the next level-1
		// boundary. No higher-level slot can start before that boundary
		// (their starts are coarser-aligned and the cursor's own containing
		// slots are empty), so a hit here is the global minimum.
		blockEnd := (w.cursor &^ wheelMask) + wheelSlots
		if s, ok := w.levels[0].next(w.cursor, blockEnd); ok {
			w.drainSlot(s)
			return true
		}
		// Otherwise: earliest occupied slot across all levels, each level
		// scanned one full ring from the cursor's position. Ties go to the
		// higher level — its slot's events may precede the lower slot's.
		best, bestLevel := int64(-1), -1
		if s, ok := w.levels[0].next(blockEnd, w.cursor+wheelSlots); ok {
			best, bestLevel = s, 0
		}
		for k := 1; k < wheelLevels; k++ {
			shift := uint(wheelBits * k)
			pos := w.cursor >> shift
			if s, ok := w.levels[k].next(pos, pos+wheelSlots); ok {
				if abs := s << shift; best < 0 || abs <= best {
					best, bestLevel = abs, k
				}
			}
		}
		if bestLevel < 0 {
			panic("sim: timer wheel scanned empty with events filed")
		}
		if bestLevel == 0 {
			w.drainSlot(best)
			return true
		}
		// Jump to the winning slot's start, then cascade *every* occupied
		// slot containing the new cursor (invariant 2) — not just the
		// winner: its start can coincide with an occupied slot at another
		// level (a level-2 boundary is also a level-1 boundary), and
		// leaving that one behind would strand its events while the fast
		// path marches past them. The rescan then finds the earliest
		// refiled event.
		w.cursor = best
		w.cascadeInto()
	}
}

// drainSlot moves level-0 slot s into cur, sorted, and steps the cursor
// past it. Stepping past may put the cursor inside occupied higher-level
// slots; those cascade immediately (invariant 2) — before push() can file
// new events into the lower levels they feed.
func (w *timerWheel) drainSlot(s int64) {
	lv := &w.levels[0]
	idx := s & wheelMask
	sl := lv.slots[idx]
	w.cur = w.cur[:0]
	for n := sl.head; n != 0; {
		nd := w.node(n)
		w.cur = append(w.cur, nd.e)
		n = nd.next
	}
	w.node(sl.tail).next = w.free
	w.free = sl.head
	lv.slots[idx] = wheelSlot{}
	lv.clear(idx)
	w.size -= len(w.cur)
	w.cursor = s + 1
	if w.cursor&wheelMask == 0 {
		w.cascadeInto()
	}
	sortEvents(w.cur)
}

// cascadeInto cascades every occupied slot that contains the cursor,
// top-down (a higher cascade may feed lower levels, never an occupied
// containing slot — see invariant 2). It reports whether any slot
// cascaded.
func (w *timerWheel) cascadeInto() bool {
	any := false
	for k := wheelLevels - 1; k >= 1; k-- {
		pos := w.cursor >> uint(wheelBits*k)
		if w.levels[k].occupied(pos & wheelMask) {
			w.cascade(k, pos)
			any = true
		}
	}
	return any
}

// cascade relinks the nodes of level-k slot s into the lower levels, in
// list order and in place. The cursor is inside the slot, so every event
// refiles strictly below k (invariant 2).
func (w *timerWheel) cascade(k int, s int64) {
	lv := &w.levels[k]
	idx := s & wheelMask
	n := lv.slots[idx].head
	lv.slots[idx] = wheelSlot{}
	lv.clear(idx)
	for n != 0 {
		nd := w.node(n)
		next := nd.next
		nd.next = 0
		slot := int64(nd.e.at) >> wheelShift0
		below := w.level(slot)
		if below >= k {
			panic("sim: timer wheel cascade did not refile below its level")
		}
		w.link(below, slot, n)
		n = next
	}
}

// sortEvents orders a drained slot by (at, seq): insertion sort for the
// common small batch, sift-down heapsort (in place, allocation-free,
// deterministic) past that.
func sortEvents(es []event) {
	n := len(es)
	if n < 2 {
		return
	}
	if n <= 32 {
		for i := 1; i < n; i++ {
			e := es[i]
			j := i - 1
			for j >= 0 && eventBefore(&e, &es[j]) {
				es[j+1] = es[j]
				j--
			}
			es[j+1] = e
		}
		return
	}
	// Max-heapify then extract: ascending order without allocations.
	for i := n/2 - 1; i >= 0; i-- {
		siftDownEvents(es, i, n)
	}
	for end := n - 1; end > 0; end-- {
		es[0], es[end] = es[end], es[0]
		siftDownEvents(es, 0, end)
	}
}

// siftDownEvents restores the max-heap property for es[:n] rooted at i.
func siftDownEvents(es []event, i, n int) {
	for {
		c := 2*i + 1
		if c >= n {
			return
		}
		if r := c + 1; r < n && eventBefore(&es[c], &es[r]) {
			c = r
		}
		if !eventBefore(&es[i], &es[c]) {
			return
		}
		es[i], es[c] = es[c], es[i]
		i = c
	}
}
