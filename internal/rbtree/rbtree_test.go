package rbtree

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

type intItem struct {
	Node
	key int
	id  int
}

func newItem(key, id int) *intItem { return &intItem{key: key, id: id} }

func (a *intItem) Less(b Item) bool {
	o := b.(*intItem)
	if a.key != o.key {
		return a.key < o.key
	}
	return a.id < o.id
}

func TestEmpty(t *testing.T) {
	var tr Tree
	if tr.Len() != 0 || tr.Min() != nil || tr.PopMin() != nil {
		t.Fatal("empty tree misbehaves")
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestInsertDeleteSmall(t *testing.T) {
	var tr Tree
	var items []*intItem
	for id, key := range []int{5, 3, 8, 1, 4, 7, 9} {
		items = append(items, newItem(key, id))
	}
	for _, it := range items {
		tr.Insert(it)
		if err := tr.CheckInvariants(); err != nil {
			t.Fatalf("after insert %v: %v", it.key, err)
		}
	}
	if tr.Len() != len(items) {
		t.Fatalf("Len = %d", tr.Len())
	}
	if tr.Min().(*intItem).key != 1 {
		t.Fatalf("Min = %v", tr.Min())
	}
	tr.Delete(items[3]) // key 1
	if tr.Min().(*intItem).key != 3 {
		t.Fatalf("Min after delete = %v", tr.Min())
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestPopMinOrder(t *testing.T) {
	var tr Tree
	rng := rand.New(rand.NewSource(1))
	var keys []int
	for i := 0; i < 200; i++ {
		k := rng.Intn(50) // duplicates on purpose
		keys = append(keys, k)
		tr.Insert(newItem(k, i))
	}
	sort.Ints(keys)
	for i, want := range keys {
		got := tr.PopMin().(*intItem).key
		if got != want {
			t.Fatalf("pop %d: got %d, want %d", i, got, want)
		}
	}
	if tr.Len() != 0 {
		t.Fatalf("Len after draining = %d", tr.Len())
	}
}

func TestDuplicateInsertPanics(t *testing.T) {
	var tr Tree
	it := newItem(1, 1)
	tr.Insert(it)
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate insert did not panic")
		}
	}()
	tr.Insert(it)
}

func TestDeleteAbsentPanics(t *testing.T) {
	var tr Tree
	defer func() {
		if recover() == nil {
			t.Fatal("absent delete did not panic")
		}
	}()
	tr.Delete(newItem(1, 1))
}

func TestContains(t *testing.T) {
	var tr, other Tree
	a, b := newItem(1, 1), newItem(2, 2)
	tr.Insert(a)
	if !tr.Contains(a) || tr.Contains(b) || other.Contains(a) {
		t.Fatal("Contains wrong")
	}
	tr.Delete(a)
	if tr.Contains(a) {
		t.Fatal("Contains true after Delete")
	}
	tr.Insert(b)
	if tr.PopMin() != Item(b) || tr.Contains(b) {
		t.Fatal("Contains true after PopMin")
	}
}

// TestReinsertAfterDelete: an item's linkage is reusable — in the same tree
// under a new key (a runqueue entity re-queued with a larger vruntime) and
// in another tree (a migration).
func TestReinsertAfterDelete(t *testing.T) {
	var tr, other Tree
	var items []*intItem
	for i := 0; i < 64; i++ {
		items = append(items, newItem(i, i))
		tr.Insert(items[i])
	}
	for round := 0; round < 8; round++ {
		for i, it := range items {
			if (i+round)%3 != 0 {
				continue
			}
			tr.Delete(it)
			it.key += 100
			if i%2 == 0 {
				tr.Insert(it)
			} else {
				other.Insert(it)
				other.Delete(it)
				tr.Insert(it)
			}
		}
		if err := tr.CheckInvariants(); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		if tr.Len() != len(items) || other.Len() != 0 {
			t.Fatalf("round %d: Len = %d and %d", round, tr.Len(), other.Len())
		}
	}
	prev := -1
	for tr.Len() > 0 {
		k := tr.PopMin().(*intItem).key
		if k < prev {
			t.Fatalf("pop order broken: %d after %d", k, prev)
		}
		prev = k
	}
}

func mustPanic(t *testing.T, what string, fn func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatalf("%s did not panic", what)
		}
	}()
	fn()
}

// TestForeignTreePanics: the owner-tree pointer catches the cross-tree
// forms of the two misuse panics as well.
func TestForeignTreePanics(t *testing.T) {
	var a, b Tree
	it := newItem(1, 1)
	a.Insert(it)
	mustPanic(t, "insert into a second tree", func() { b.Insert(it) })
	mustPanic(t, "delete from the wrong tree", func() { b.Delete(it) })
	a.Delete(it)
	mustPanic(t, "second delete", func() { a.Delete(it) })
	if err := a.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestAscendEarlyStop(t *testing.T) {
	var tr Tree
	for i := 0; i < 10; i++ {
		tr.Insert(newItem(i, i))
	}
	var n int
	tr.Ascend(func(Item) bool {
		n++
		return n < 3
	})
	if n != 3 {
		t.Fatalf("visited %d, want 3", n)
	}
	if got := len(tr.Items()); got != 10 {
		t.Fatalf("Items len = %d", got)
	}
}

// TestRandomOperations drives the tree with a random insert/delete workload
// checking invariants continuously, mimicking the enqueue/dequeue churn a
// runqueue sees.
func TestRandomOperations(t *testing.T) {
	var tr Tree
	rng := rand.New(rand.NewSource(42))
	live := map[*intItem]bool{}
	var liveList []*intItem
	for step := 0; step < 5000; step++ {
		if len(liveList) == 0 || rng.Intn(100) < 55 {
			it := newItem(rng.Intn(1000), step)
			tr.Insert(it)
			live[it] = true
			liveList = append(liveList, it)
		} else {
			i := rng.Intn(len(liveList))
			it := liveList[i]
			liveList[i] = liveList[len(liveList)-1]
			liveList = liveList[:len(liveList)-1]
			delete(live, it)
			tr.Delete(it)
		}
		if step%257 == 0 {
			if err := tr.CheckInvariants(); err != nil {
				t.Fatalf("step %d: %v", step, err)
			}
			if tr.Len() != len(live) {
				t.Fatalf("step %d: Len = %d, live = %d", step, tr.Len(), len(live))
			}
		}
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// Property: for any sequence of keys, inserting then draining with PopMin
// yields the sorted sequence and keeps the tree valid.
func TestQuickInsertDrainSorted(t *testing.T) {
	f := func(keys []int16) bool {
		var tr Tree
		for i, k := range keys {
			tr.Insert(newItem(int(k), i))
		}
		if tr.CheckInvariants() != nil {
			return false
		}
		want := make([]int, len(keys))
		for i, k := range keys {
			want[i] = int(k)
		}
		sort.Ints(want)
		for _, w := range want {
			got := tr.PopMin()
			if got == nil || got.(*intItem).key != w {
				return false
			}
		}
		return tr.Len() == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// BenchmarkInsertPopMin is a runqueue's steady state: the leftmost entity
// runs, its key grows, it is re-queued. Intrusive linkage: 0 allocs/op.
func BenchmarkInsertPopMin(b *testing.B) {
	var tr Tree
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 512; i++ {
		tr.Insert(newItem(rng.Intn(1<<20), i))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		it := tr.PopMin().(*intItem)
		it.key += 1 + rng.Intn(1<<12)
		tr.Insert(it)
	}
}

// TestCheckInvariantsDetectsCorruption: the checker the other tests lean
// on must itself fail on a broken tree.
func TestCheckInvariantsDetectsCorruption(t *testing.T) {
	var tr Tree
	for i := 0; i < 8; i++ {
		tr.Insert(newItem(i, i))
	}
	tr.root.color = red
	if err := tr.CheckInvariants(); err == nil || err.Error() != "rbtree: root is red" {
		t.Fatalf("red root: got %v", err)
	}
	tr.root.color = black
	tr.leftmost = tr.root
	if err := tr.CheckInvariants(); err == nil || err.Error() != "rbtree: leftmost cache stale" {
		t.Fatalf("stale leftmost: got %v", err)
	}
}
