package sim

import (
	"math/rand"
	"testing"
)

// TestWaitQueueFIFOWithRemovals: waiters leave in arrival order, a timed-out
// or directly woken waiter is unlinked from wherever it stands
// (removeWaiter), and Len stays the live count while the queue's backing
// array is reused and compacted underneath.
func TestWaitQueueFIFOWithRemovals(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	wq := NewWaitQueue()
	var model []*Thread
	id := 0
	for step := 0; step < 10000; step++ {
		switch op := rng.Intn(10); {
		case op < 5 && len(model) < 40 || len(model) == 0:
			id++
			th := &Thread{ID: id}
			wq.addWaiter(th)
			model = append(model, th)
			if th.wq != wq {
				t.Fatal("addWaiter did not link the thread to its queue")
			}
		case op < 8:
			got := wq.popWaiter()
			if got != model[0] || got.wq != nil {
				t.Fatalf("step %d: popped T%d (wq %v), want T%d unlinked", step, got.ID, got.wq, model[0].ID)
			}
			model = model[1:]
		default:
			i := rng.Intn(len(model)) // often the middle
			th := model[i]
			wq.removeWaiter(th)
			model = append(model[:i:i], model[i+1:]...)
			if th.wq != nil {
				t.Fatal("removeWaiter left the thread linked")
			}
			wq.removeWaiter(th) // absent: no-op
		}
		if wq.Len() != len(model) {
			t.Fatalf("step %d: Len = %d, want %d", step, wq.Len(), len(model))
		}
	}
	for _, want := range model {
		if got := wq.popWaiter(); got != want {
			t.Fatalf("drain: popped T%d, want T%d", got.ID, want.ID)
		}
	}
	if wq.popWaiter() != nil || wq.Len() != 0 {
		t.Fatal("drained queue still pops")
	}
}
