package runq

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func entries(n int) []*Entry {
	es := make([]*Entry, n)
	for i := range es {
		es[i] = &Entry{Payload: i}
	}
	return es
}

func TestQueueFIFOWithinPriority(t *testing.T) {
	var q Queue
	es := entries(3)
	for _, e := range es {
		q.Add(e, 5)
	}
	for i := 0; i < 3; i++ {
		got := q.Choose()
		if got != es[i] {
			t.Fatalf("choose %d: got %v, want %v", i, got.Payload, es[i].Payload)
		}
		q.Remove(got)
	}
	if !q.Empty() {
		t.Fatal("queue not empty")
	}
}

func TestQueuePriorityOrder(t *testing.T) {
	var q Queue
	es := entries(3)
	q.Add(es[0], 40)
	q.Add(es[1], 3)
	q.Add(es[2], 63)
	if got := q.Choose(); got != es[1] {
		t.Fatalf("Choose = %v, want pri-3 entry", got.Payload)
	}
	if got := q.BestPri(); got != 3 {
		t.Fatalf("BestPri = %d", got)
	}
	if got := q.Last(); got != es[2] {
		t.Fatalf("Last = %v, want pri-63 entry", got.Payload)
	}
	q.Remove(es[1])
	if got := q.BestPri(); got != 40 {
		t.Fatalf("BestPri after remove = %d", got)
	}
}

func TestQueueAddHead(t *testing.T) {
	var q Queue
	es := entries(2)
	q.Add(es[0], 10)
	q.AddHead(es[1], 10)
	if got := q.Choose(); got != es[1] {
		t.Fatal("AddHead entry should be chosen first")
	}
}

func TestQueueBestPriEmpty(t *testing.T) {
	var q Queue
	if q.BestPri() != NQS {
		t.Fatalf("BestPri on empty = %d, want %d", q.BestPri(), NQS)
	}
	if q.Choose() != nil || q.Last() != nil {
		t.Fatal("empty queue returned an entry")
	}
}

func TestQueuePanics(t *testing.T) {
	var q Queue
	e := &Entry{}
	mustPanic(t, "double add", func() { q.Add(e, 0); q.Add(e, 0) })
	q.Remove(e)
	mustPanic(t, "remove unqueued", func() { q.Remove(e) })
	mustPanic(t, "bad pri", func() { q.Add(&Entry{}, NQS) })
	mustPanic(t, "neg pri", func() { q.Add(&Entry{}, -1) })
}

func mustPanic(t *testing.T, name string, fn func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatalf("%s: no panic", name)
		}
	}()
	fn()
}

func TestQueueEachOrder(t *testing.T) {
	var q Queue
	es := entries(4)
	q.Add(es[0], 9)
	q.Add(es[1], 2)
	q.Add(es[2], 9)
	q.Add(es[3], 30)
	var got []int
	q.Each(func(e *Entry) bool {
		got = append(got, e.Payload.(int))
		return true
	})
	want := []int{1, 0, 2, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Each order = %v, want %v", got, want)
		}
	}
	// Early stop.
	n := 0
	q.Each(func(*Entry) bool { n++; return false })
	if n != 1 {
		t.Fatalf("early stop visited %d", n)
	}
}

// TestQueueBitmapConsistency drives random adds/removes and checks the
// bitmap always matches the FIFO occupancy.
func TestQueueBitmapConsistency(t *testing.T) {
	var q Queue
	rng := rand.New(rand.NewSource(3))
	var live []*Entry
	for step := 0; step < 3000; step++ {
		if len(live) == 0 || rng.Intn(10) < 6 {
			e := &Entry{Payload: step}
			q.Add(e, rng.Intn(NQS))
			live = append(live, e)
		} else {
			i := rng.Intn(len(live))
			q.Remove(live[i])
			live[i] = live[len(live)-1]
			live = live[:len(live)-1]
		}
		if q.Len() != len(live) {
			t.Fatalf("step %d: Len=%d live=%d", step, q.Len(), len(live))
		}
		if (q.Len() == 0) != q.Empty() {
			t.Fatal("Empty inconsistent")
		}
		if q.Len() > 0 {
			best := q.BestPri()
			if q.Choose().Pri != best {
				t.Fatalf("step %d: Choose pri %d != BestPri %d", step, q.Choose().Pri, best)
			}
		}
	}
}

func TestCalendarRotation(t *testing.T) {
	var c Calendar
	es := entries(3)
	// Same priority, inserted at different calendar positions.
	c.Add(es[0], 10)
	c.Advance()
	c.Advance()
	c.Add(es[1], 10)
	c.Add(es[2], 0)
	// es[2] at slot insIdx+0=2, es[0] at slot 10, es[1] at slot 12.
	first := c.Choose()
	if first != es[2] {
		t.Fatalf("Choose = %v, want entry at nearest slot", first.Payload)
	}
	c.Remove(first)
	if got := c.Choose(); got != es[0] {
		t.Fatalf("second Choose = %v, want es[0]", got.Payload)
	}
}

func TestCalendarWraparound(t *testing.T) {
	var c Calendar
	// Advance insertion index near the end so slots wrap.
	for i := 0; i < NQS-2; i++ {
		c.Advance()
	}
	es := entries(2)
	c.Add(es[0], 5) // slot (62+5)%64 = 3
	c.Add(es[1], 1) // slot (62+1)%64 = 63
	if got := c.Choose(); got != es[1] {
		t.Fatalf("Choose = %v, want the pre-wrap entry", got.Payload)
	}
	c.Remove(es[1])
	if got := c.Choose(); got != es[0] {
		t.Fatalf("Choose after remove = %v", got.Payload)
	}
	c.Remove(es[0])
	if !c.Empty() {
		t.Fatal("not empty")
	}
	if c.Choose() != nil || c.Last() != nil {
		t.Fatal("empty calendar returned entry")
	}
}

func TestCalendarHigherRuntimeSchedulesLater(t *testing.T) {
	// A thread with larger batch priority (more accumulated runtime) must be
	// chosen after one with a smaller priority inserted at the same time.
	var c Calendar
	light := &Entry{Payload: "light"}
	heavy := &Entry{Payload: "heavy"}
	c.Add(heavy, 40)
	c.Add(light, 4)
	if got := c.Choose(); got != light {
		t.Fatalf("Choose = %v, want light", got.Payload)
	}
	if got := c.Last(); got != heavy {
		t.Fatalf("Last = %v, want heavy", got.Payload)
	}
}

// Property: every entry added to a calendar is eventually chosen exactly
// once when repeatedly choosing+removing (no starvation or loss in the data
// structure itself).
func TestQuickCalendarDrainsAll(t *testing.T) {
	f := func(pris []uint8, advances uint8) bool {
		var c Calendar
		for i := 0; i < int(advances%NQS); i++ {
			c.Advance()
		}
		want := map[*Entry]bool{}
		for _, p := range pris {
			e := &Entry{}
			c.Add(e, int(p)%NQS)
			want[e] = true
		}
		for !c.Empty() {
			e := c.Choose()
			if e == nil || !want[e] {
				return false
			}
			delete(want, e)
			c.Remove(e)
		}
		return len(want) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestCalendarEach(t *testing.T) {
	var c Calendar
	es := entries(3)
	for i, e := range es {
		c.Add(e, i*10)
	}
	var n int
	c.Each(func(*Entry) bool { n++; return true })
	if n != 3 {
		t.Fatalf("Each visited %d", n)
	}
	n = 0
	c.Each(func(*Entry) bool { n++; return false })
	if n != 1 {
		t.Fatalf("Each early stop visited %d", n)
	}
}

func TestOnQueue(t *testing.T) {
	var q Queue
	e := &Entry{}
	if e.OnQueue() {
		t.Fatal("fresh entry claims queued")
	}
	q.Add(e, 1)
	if !e.OnQueue() {
		t.Fatal("queued entry claims unqueued")
	}
	q.Remove(e)
	if e.OnQueue() {
		t.Fatal("removed entry claims queued")
	}
}

func TestFfsFls(t *testing.T) {
	if ffs(0b1000) != 3 || fls(0b1000) != 3 {
		t.Fatal("single bit")
	}
	if ffs(0b1010) != 1 || fls(0b1010) != 3 {
		t.Fatal("two bits")
	}
	if ffs(1<<63) != 63 || fls(1<<63|1) != 63 {
		t.Fatal("high bit")
	}
}

// refQueue is the slice-of-slices model a Queue or Calendar must agree
// with: one plain FIFO per slot and the calendar's two indices, with the
// same rotation rules as Calendar.
type refQueue struct {
	qs           [NQS][]*Entry
	ridx, insIdx int
}

func (r *refQueue) len() int {
	n := 0
	for _, q := range r.qs {
		n += len(q)
	}
	return n
}

func (r *refQueue) remove(e *Entry) {
	q := r.qs[e.Pri]
	for i, x := range q {
		if x == e {
			r.qs[e.Pri] = append(q[:i:i], q[i+1:]...)
			return
		}
	}
	panic("refQueue: entry not found")
}

// order lists the entries in scan order from slot start.
func (r *refQueue) order(start int) []*Entry {
	var out []*Entry
	for i := 0; i < NQS; i++ {
		out = append(out, r.qs[(start+i)%NQS]...)
	}
	return out
}

func (r *refQueue) calAdd(e *Entry, pri int) int {
	slot := (r.insIdx + pri) % NQS
	if r.ridx != r.insIdx && slot == r.ridx {
		slot = (slot - 1 + NQS) % NQS
	}
	r.qs[slot] = append(r.qs[slot], e)
	return slot
}

func (r *refQueue) calChoose() *Entry {
	for i := 0; i < NQS; i++ {
		if slot := (r.ridx + i) % NQS; len(r.qs[slot]) > 0 {
			r.ridx = slot
			return r.qs[slot][0]
		}
	}
	return nil
}

func (r *refQueue) calAdvance() {
	if r.insIdx == r.ridx {
		r.insIdx = (r.insIdx + 1) % NQS
		if len(r.qs[r.ridx]) == 0 {
			r.ridx = r.insIdx
		}
	}
}

func visit(each func(func(*Entry) bool), stop int) []*Entry {
	var got []*Entry
	each(func(e *Entry) bool {
		got = append(got, e)
		return len(got) != stop
	})
	return got
}

func sameEntries(a, b []*Entry) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestQueueMatchesReference drives random Add/AddHead/Remove/Choose/Last/
// Each/BestPri sequences through a Queue and checks every answer against
// the slice-of-slices model, so the one-word FIFOs (tail = head.prev) keep
// the order a head/tail/size FIFO had.
func TestQueueMatchesReference(t *testing.T) {
	for seed := int64(0); seed < 12; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var q Queue
		var ref refQueue
		var live []*Entry
		// Few priorities on some seeds, so FIFOs grow long.
		span := []int{1, 3, NQS}[seed%3]
		for step := 0; step < 2000; step++ {
			switch op := rng.Intn(10); {
			case op < 4 || len(live) == 0:
				e, pri := &Entry{Payload: step}, rng.Intn(span)
				if op%2 == 0 {
					q.Add(e, pri)
					ref.qs[pri] = append(ref.qs[pri], e)
				} else {
					q.AddHead(e, pri)
					ref.qs[pri] = append([]*Entry{e}, ref.qs[pri]...)
				}
				live = append(live, e)
			case op < 7:
				i := rng.Intn(len(live))
				q.Remove(live[i])
				ref.remove(live[i])
				if live[i].OnQueue() {
					t.Fatalf("seed %d step %d: removed entry still on a queue", seed, step)
				}
				live[i] = live[len(live)-1]
				live = live[:len(live)-1]
			case op < 8 && len(live) > 0:
				// Choose-and-run: the pick leaves and comes back at the tail.
				e := q.Choose()
				q.Remove(e)
				q.Add(e, e.Pri)
				ref.remove(e)
				ref.qs[e.Pri] = append(ref.qs[e.Pri], e)
			}
			want := ref.order(0)
			var wantChoose, wantLast *Entry
			wantBest := NQS
			if len(want) > 0 {
				wantChoose = want[0]
				wantBest = wantChoose.Pri
				for p := NQS - 1; p >= 0; p-- {
					if n := len(ref.qs[p]); n > 0 {
						wantLast = ref.qs[p][n-1]
						break
					}
				}
			}
			if q.Len() != len(want) || q.Empty() != (len(want) == 0) {
				t.Fatalf("seed %d step %d: Len %d, want %d", seed, step, q.Len(), len(want))
			}
			if q.Choose() != wantChoose || q.Last() != wantLast || q.BestPri() != wantBest {
				t.Fatalf("seed %d step %d: Choose/Last/BestPri disagree with the model", seed, step)
			}
			if !sameEntries(visit(q.Each, -1), want) {
				t.Fatalf("seed %d step %d: Each order disagrees with the model", seed, step)
			}
			if k := rng.Intn(len(want) + 1); k > 0 && !sameEntries(visit(q.Each, k), want[:k]) {
				t.Fatalf("seed %d step %d: Each stopped after %d disagrees", seed, step, k)
			}
		}
	}
}

// TestCalendarMatchesReference is TestQueueMatchesReference for the
// rotating calendar, with Advance in the mix.
func TestCalendarMatchesReference(t *testing.T) {
	for seed := int64(0); seed < 12; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var c Calendar
		var ref refQueue
		var live []*Entry
		span := []int{1, 4, NQS}[seed%3]
		for step := 0; step < 2000; step++ {
			switch op := rng.Intn(10); {
			case op < 4 || len(live) == 0:
				e, pri := &Entry{Payload: step}, rng.Intn(span)
				c.Add(e, pri)
				if slot := ref.calAdd(e, pri); e.Pri != slot {
					t.Fatalf("seed %d step %d: filed at slot %d, model says %d", seed, step, e.Pri, slot)
				}
				live = append(live, e)
			case op < 6:
				i := rng.Intn(len(live))
				c.Remove(live[i])
				ref.remove(live[i])
				live[i] = live[len(live)-1]
				live = live[:len(live)-1]
			case op < 8:
				c.Advance()
				ref.calAdvance()
			default:
				if got, want := c.Choose(), ref.calChoose(); got != want {
					t.Fatalf("seed %d step %d: Choose disagrees with the model", seed, step)
				}
			}
			want := ref.order(ref.ridx)
			var wantLast *Entry
			if len(want) > 0 {
				wantLast = want[len(want)-1]
			}
			if c.Len() != len(want) || c.Empty() != (len(want) == 0) {
				t.Fatalf("seed %d step %d: Len %d, want %d", seed, step, c.Len(), len(want))
			}
			if c.Last() != wantLast {
				t.Fatalf("seed %d step %d: Last disagrees with the model", seed, step)
			}
			if !sameEntries(visit(c.Each, -1), want) {
				t.Fatalf("seed %d step %d: Each order disagrees with the model", seed, step)
			}
			if k := rng.Intn(len(want) + 1); k > 0 && !sameEntries(visit(c.Each, k), want[:k]) {
				t.Fatalf("seed %d step %d: Each stopped after %d disagrees", seed, step, k)
			}
		}
	}
}
