package cfs_test

import (
	"encoding/json"
	"testing"

	"repro/internal/cfs"
	"repro/internal/core"
	"repro/internal/scenario"
	"repro/internal/sim"
)

// fullBalanceKind is CFS with the heavy-core shortcut switched off: every
// tick and every idle transition runs the whole balance pass.
const fullBalanceKind core.SchedulerKind = "cfs-test-fullbalance"

func init() {
	core.MustRegister(fullBalanceKind, func(mc core.MachineConfig) sim.Scheduler {
		p := cfs.DefaultParams()
		if mc.CFSParams != nil {
			p = *mc.CFSParams
		}
		s := cfs.New(p)
		s.ForceFullBalance()
		return s
	})
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
			// Same scenario, scheduler axis replaced.
			data, err := json.Marshal(sp)
			if err != nil {
				t.Fatal(err)
			}
			var raw map[string]json.RawMessage
			if err := json.Unmarshal(data, &raw); err != nil {
				t.Fatal(err)
			}
			raw["schedulers"] = json.RawMessage(`[{"kind": "` + string(fullBalanceKind) + `"}]`)
			if data, err = json.Marshal(raw); err != nil {
				t.Fatal(err)
			}
			full, err := scenario.Parse(sp.Name, data)
			if err != nil {
				t.Fatal(err)
			}
			rep, err := full.Run(0.1)
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
