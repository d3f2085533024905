package serving

// The operator-side canary controls only the tests drive; production
// rolls a canary back automatically (rollbackCanary).

// CanaryVersion reports the live candidate's model version, if any.
func (f *Frontend) CanaryVersion() (int, bool) {
	if st := f.canary.Load(); st != nil {
		return st.cfg.Version, true
	}
	return 0, false
}

// RollbackCanary fences off the live rollout (no-op when none is
// running).
func (f *Frontend) RollbackCanary() {
	if st := f.canary.Load(); st != nil {
		f.rollbackCanary(f.admitH, st)
	}
}
