package sim

import "repro/internal/queue"

// WaitQueue is a FIFO queue of voluntarily blocked threads, plus the set of
// spinners currently watching it. It is the one blocking primitive the
// kernel substrate exposes; the ipc package builds mutexes, barriers, pipes
// and request queues on top of it.
type WaitQueue struct {
	waiters queue.FIFO[*Thread]
	// spinners are threads with an active OpSpin watching this queue; a
	// Broadcast releases them early.
	spinners []*Thread
}

// NewWaitQueue returns an empty wait queue.
func NewWaitQueue() *WaitQueue { return &WaitQueue{} }

// Len returns the number of blocked threads (spinners excluded).
func (wq *WaitQueue) Len() int { return wq.waiters.Len() }

// Spinners returns the number of threads spin-watching the queue.
func (wq *WaitQueue) Spinners() int { return len(wq.spinners) }

func (wq *WaitQueue) addWaiter(t *Thread) {
	wq.waiters.Push(t)
	t.wq = wq
}

func (wq *WaitQueue) removeWaiter(t *Thread) {
	for i, w := range wq.waiters.Items() {
		if w == t {
			wq.waiters.RemoveAt(i)
			t.wq = nil
			return
		}
	}
}

func (wq *WaitQueue) popWaiter() *Thread {
	t, ok := wq.waiters.Pop()
	if !ok {
		return nil
	}
	t.wq = nil
	return t
}

func (wq *WaitQueue) addSpinner(t *Thread) {
	wq.spinners = append(wq.spinners, t)
	t.wq = wq
}

func (wq *WaitQueue) removeSpinner(t *Thread) {
	for i, w := range wq.spinners {
		if w == t {
			wq.spinners = append(wq.spinners[:i], wq.spinners[i+1:]...)
			t.wq = nil
			return
		}
	}
}
