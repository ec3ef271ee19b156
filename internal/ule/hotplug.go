package ule

import (
	"repro/internal/runq"
	"repro/internal/sim"
)

// CoreOffline implements sim.Hotplugger: drain the dead core's tdq —
// realtime queue first, then the timeshare calendar, matching
// tdq_choose's service order — re-placing each thread with
// sched_pickcpu. The core is already marked offline, so every placement
// scan skips it via CanRunOn.
func (s *Sched) CoreOffline(c *sim.Core) {
	q := &s.tdqs[c.ID]
	for {
		var e *runq.Entry
		if e = q.realtime.Choose(); e == nil {
			e = q.timeshare.Choose()
		}
		if e == nil {
			return
		}
		t := e.Payload.(*sim.Thread)
		target := s.SelectCore(t, nil, sim.FlagMigrate)
		s.m.Migrate(t, c, target)
	}
}

var _ sim.Hotplugger = (*Sched)(nil)
