package cfs_test

import (
	"encoding/json"
	"sync/atomic"
	"testing"

	"repro/internal/cfs"
	"repro/internal/core"
	"repro/internal/scenario"
	"repro/internal/sim"
)

// fullBalanceKind is CFS with the heavy-core shortcut switched off: every
// tick and every idle transition runs the whole balance pass.
const fullBalanceKind core.SchedulerKind = "cfs-test-fullbalance"

// shareCheckedKind is CFS under cfs.ShareChecked: every group share the
// scheduler works out where it reads one is compared with the full
// recompute it replaced, and a difference panics, failing the trial.
const shareCheckedKind core.SchedulerKind = "cfs-test-sharechecked"

// shareChecks and shareSplits are ShareChecked's counts over every machine
// built with the kind.
var shareChecks, shareSplits atomic.Uint64

func init() {
	params := func(mc core.MachineConfig) cfs.Params {
		if mc.CFSParams != nil {
			return *mc.CFSParams
		}
		return cfs.DefaultParams()
	}
	core.MustRegister(fullBalanceKind, func(mc core.MachineConfig) sim.Scheduler {
		s := cfs.New(params(mc))
		s.ForceFullBalance()
		return s
	})
	core.MustRegister(shareCheckedKind, func(mc core.MachineConfig) sim.Scheduler {
		return cfs.NewShareChecked(cfs.New(params(mc)), &shareChecks, &shareSplits)
	})
}

// withKind is sp with its scheduler axis replaced by the one kind.
func withKind(t *testing.T, sp *scenario.Spec, kind core.SchedulerKind) *scenario.Spec {
	t.Helper()
	data, err := json.Marshal(sp)
	if err != nil {
		t.Fatal(err)
	}
	var raw map[string]json.RawMessage
	if err := json.Unmarshal(data, &raw); err != nil {
		t.Fatal(err)
	}
	raw["schedulers"] = json.RawMessage(`[{"kind": "` + string(kind) + `"}]`)
	if data, err = json.Marshal(raw); err != nil {
		t.Fatal(err)
	}
	out, err := scenario.Parse(sp.Name, data)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestFullBalanceNeverPullsWhileBalanced runs every bundled scenario —
// hotplug storms, antagonists, fork storms, NUMA imbalance — under the
// full-pass kind. pullFrom panics when it is reached with no core above the
// small-imbalance floor, which fails the trial: so a pass the shortcut
// would have skipped never had anything to pull.
func TestFullBalanceNeverPullsWhileBalanced(t *testing.T) {
	specs, err := scenario.Builtin()
	if err != nil {
		t.Fatal(err)
	}
	var pulled uint64
	for _, sp := range specs {
		t.Run(sp.Name, func(t *testing.T) {
			rep, err := withKind(t, sp, fullBalanceKind).Run(0.1)
			if err != nil {
				t.Fatal(err)
			}
			for _, tr := range rep.Trials {
				pulled += tr.Counters["cfs.balance_migrations"]
			}
		})
	}
	if pulled == 0 {
		t.Fatal("no balance migration anywhere in the library: the runs do not exercise the balancer")
	}
}

// TestGroupShareMatchesFullRecompute runs every bundled scenario under the
// share-checked kind: on every enqueue, dequeue, charge and wakeup
// preemption check, the share each group entity is given equals the weight
// the two-pass redistribution over all cores would have stored in it.
func TestGroupShareMatchesFullRecompute(t *testing.T) {
	specs, err := scenario.Builtin()
	if err != nil {
		t.Fatal(err)
	}
	for _, sp := range specs {
		t.Run(sp.Name, func(t *testing.T) {
			if _, err := withKind(t, sp, shareCheckedKind).Run(0.1); err != nil {
				t.Fatal(err)
			}
		})
	}
	if shareChecks.Load() == 0 || shareSplits.Load() == 0 {
		t.Fatalf("%d shares compared, %d with a group spread over several cores: the runs do not exercise the split", shareChecks.Load(), shareSplits.Load())
	}
}
