package dtrace

// What the tests in package dtrace_test need of this package's internals;
// they live outside it because they run bundled scenarios, and the
// scenario layer imports this package.

// SearchCost replays tr through the accumulator ComputeHeadroom uses and
// reports, besides the verdict, the wake windows scored and the search
// nodes visited.
func SearchCost(tr *Trace, window, branch int) (hr Headroom, windows int, nodes uint64) {
	acc := newTestAcc(window, branch)
	acc.replay(tr)
	return acc.result(), (acc.wakes + window - 1) / window, acc.nodes
}

// newTestAcc returns an accumulator sized as ComputeHeadroom sizes one:
// room for a record's maxCandPerRec candidates per decision.
func newTestAcc(window, branch int) *headroomAcc {
	acc := newHeadroomAcc(window, branch, make([]Candidate, window*maxCandPerRec))
	return &acc
}

var (
	// RefHeadroom is the reference search (Pct left zero).
	RefHeadroom = refHeadroom
	// ContendedTrace is the synthetic fixture of tied eight-core windows.
	ContendedTrace = contendedTrace
)
