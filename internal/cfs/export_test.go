package cfs

// ForceFullBalance makes s run its balance passes even while no core is
// above the small-imbalance floor (Sched.fullBalance), for tests outside the
// package.
func (s *Sched) ForceFullBalance() { s.fullBalance = true }
