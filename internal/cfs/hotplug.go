package cfs

import "repro/internal/sim"

// CoreOffline implements sim.Hotplugger — the migrate_tasks half of
// Linux's sched_cpu_deactivate: every thread runnable on the dead core
// is detached and re-placed with find_idlest (the core is already
// marked offline, so the sweep skips it via CanRunOn).
func (s *Sched) CoreOffline(c *sim.Core) {
	cs := &s.cores[c.ID]
	// Snapshot: Migrate mutates cs.threads, and the nested dispatch on
	// the target can start or sleep a later candidate.
	cands := append([]*sim.Thread(nil), cs.threads...)
	for _, t := range cands {
		if t.State() != sim.StateRunnable || t.Core() != c {
			continue
		}
		s.m.Migrate(t, c, s.findIdlest(t, nil))
	}
}

var _ sim.Hotplugger = (*Sched)(nil)
