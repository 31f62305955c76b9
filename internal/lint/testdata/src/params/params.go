// Package params is the fixture's config layer: the struct audited by
// config-liveness.
package params

// Config is the audited parameter struct (fixturePolicy in lint_test.go:
// Config.Structs = params.Config, Config.Readers = model).
type Config struct {
	// LineBytes is read directly by model.Step: live.
	LineBytes int
	// DeadKnob is written in Default but never read by the model:
	// config-liveness finding.
	DeadKnob int
	// Threshold is read only through the Derived helper, which the
	// model calls — liveness is reachability, not direct reads.
	Threshold int
	// Intentional is deliberately unread; the directive keeps it.
	//nubalint:ignore config-liveness reserved knob kept to exercise suppression
	Intentional int
	// BoundOnly is read only by Validate, which the model calls: a
	// config-liveness finding, since a bound on a knob is no use of it.
	BoundOnly int
}

// Default returns the baseline config. Writing a knob here does not
// make it live: only reads from the reader set count.
func Default() Config {
	return Config{LineBytes: 128, DeadKnob: 7, Threshold: 3, Intentional: 1}
}

// Derived is the helper whose read of Threshold counts because the
// model calls it.
func (c *Config) Derived() int { return c.Threshold * 2 }
