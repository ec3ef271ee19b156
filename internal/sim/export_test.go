package sim

import "repro/internal/topo"

// The binary heap is the reference engine the timer wheel is held to. sim
// exports no way to select it: this package's tests use these helpers, and
// internal/scenario's cross-validation links to forceEventHeap directly.

// SetForceEventHeap puts every machine built afterwards on the heap engine
// (or back on the wheel) and returns the previous setting.
func SetForceEventHeap(v bool) bool { return forceEventHeap.Swap(v) }

// newMachineOn builds a machine on the heap engine when heap is set and on
// the wheel otherwise.
func newMachineOn(heap bool, tp *topo.Topology, s Scheduler, opts Options) *Machine {
	prev := SetForceEventHeap(heap)
	defer SetForceEventHeap(prev)
	return NewMachine(tp, s, opts)
}
