package queue

import (
	"math/rand"
	"testing"
)

// TestFIFOMatchesSliceModel drives a FIFO and a plain slice through the same
// random operations — long enough, and with lengths swinging widely enough,
// that the backing array compacts and regrows many times.
func TestFIFOMatchesSliceModel(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var q FIFO[int]
		var model []int
		next := 0
		target := 8
		for step := 0; step < 20000; step++ {
			if step%500 == 0 {
				target = 1 + rng.Intn(200)
			}
			switch op := rng.Intn(10); {
			case op < 5 && len(model) < 2*target || len(model) == 0:
				next++
				if rng.Intn(8) == 0 {
					q.PushFront(next)
					model = append([]int{next}, model...)
				} else {
					q.Push(next)
					model = append(model, next)
				}
			case op < 9:
				got, ok := q.Pop()
				if !ok || got != model[0] {
					t.Fatalf("seed %d step %d: Pop = %d, %v, want %d", seed, step, got, ok, model[0])
				}
				model = model[1:]
			default:
				i := rng.Intn(len(model))
				q.RemoveAt(i)
				model = append(model[:i:i], model[i+1:]...)
			}
			if q.Len() != len(model) {
				t.Fatalf("seed %d step %d: Len = %d, want %d", seed, step, q.Len(), len(model))
			}
			items := q.Items()
			for i := range model {
				if items[i] != model[i] {
					t.Fatalf("seed %d step %d: Items = %v, want %v", seed, step, items, model)
				}
			}
		}
		for range model {
			q.Pop()
		}
		if _, ok := q.Pop(); ok || q.Len() != 0 {
			t.Fatalf("seed %d: drained queue still pops", seed)
		}
	}
}

// TestFIFOReusesItsArray: a queue whose length stays bounded stops
// allocating — the point of popping by a head index — and a popped slot does
// not keep its element alive.
func TestFIFOReusesItsArray(t *testing.T) {
	var q FIFO[*int]
	for i := 0; i < 5; i++ {
		q.Push(new(int))
	}
	v := new(int)
	allocs := testing.AllocsPerRun(1000, func() {
		q.Push(v)
		q.Push(v)
		q.Pop()
		q.Pop()
	})
	if allocs != 0 || cap(q.buf) > 64 {
		t.Fatalf("steady push/pop: %.1f allocs per round, backing array of %d", allocs, cap(q.buf))
	}
	for _, p := range q.buf[:q.head] {
		if p != nil {
			t.Fatal("a popped slot still holds its element")
		}
	}
	for _, p := range q.buf[len(q.buf):cap(q.buf)] {
		if p != nil {
			t.Fatal("a slot past the tail still holds an element")
		}
	}
}
