package simcore

// A directive that names no rule must itself be a finding — otherwise a
// typo would silently suppress nothing while looking like a suppression.

//nubalint:ignore
func Bad() {}
