// Package queue provides the FIFO the simulator's wait queues, pipes,
// request queues and the reference scheduler's runqueues share.
package queue

// FIFO is a first-in first-out queue over one reused backing array. Pop
// advances a head index instead of re-slicing the front away — which would
// give the popped capacity up and make a queue in steady state reallocate
// every few pushes — and clears the slot it leaves. The live elements slide
// back to the front only when the array is full and at least half of it is
// dead, so every operation but RemoveAt is amortized O(1) and a queue whose
// length stays bounded stops allocating. The zero value is an empty queue.
type FIFO[T any] struct {
	buf  []T // buf[head:] are the queued elements, oldest first
	head int
}

// Len returns the number of queued elements.
func (q *FIFO[T]) Len() int { return len(q.buf) - q.head }

// Items returns the queued elements, oldest first. The slice aliases the
// queue: it is valid until the next mutation and must not be modified.
func (q *FIFO[T]) Items() []T { return q.buf[q.head:] }

// Push appends v at the tail.
func (q *FIFO[T]) Push(v T) {
	if len(q.buf) == cap(q.buf) && q.head > 0 && q.head*2 >= len(q.buf) {
		n := copy(q.buf, q.buf[q.head:])
		clear(q.buf[n:])
		q.buf = q.buf[:n]
		q.head = 0
	}
	q.buf = append(q.buf, v)
}

// PushFront inserts v at the head: it is the next element Pop returns.
func (q *FIFO[T]) PushFront(v T) {
	if q.head == 0 {
		var zero T
		q.buf = append(q.buf, zero)
		copy(q.buf[1:], q.buf)
		q.buf[0] = v
		return
	}
	q.head--
	q.buf[q.head] = v
}

// Pop removes and returns the oldest element; ok is false when the queue is
// empty.
func (q *FIFO[T]) Pop() (v T, ok bool) {
	if q.head == len(q.buf) {
		return v, false
	}
	var zero T
	v = q.buf[q.head]
	q.buf[q.head] = zero
	q.head++
	q.rewindIfEmpty()
	return v, true
}

// RemoveAt removes the i-th queued element (0 = oldest), keeping the order
// of the rest.
func (q *FIFO[T]) RemoveAt(i int) {
	var zero T
	live := q.buf[q.head:]
	copy(live[i:], live[i+1:])
	live[len(live)-1] = zero
	q.buf = q.buf[:len(q.buf)-1]
	q.rewindIfEmpty()
}

// rewindIfEmpty puts an emptied queue back at the start of its array.
func (q *FIFO[T]) rewindIfEmpty() {
	if q.head == len(q.buf) {
		q.buf = q.buf[:0]
		q.head = 0
	}
}
