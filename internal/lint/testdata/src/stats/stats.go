// Package stats is the fixture's counter sink: the struct audited by
// metrics-liveness.
package stats

// Stats mirrors the real metrics.Stats shape (writers = model,
// readers = report in fixturePolicy).
type Stats struct {
	// Ticks is written by model and read by report: clean.
	Ticks int64
	// DeadCounter is never written anywhere: dead-counter finding.
	DeadCounter int64
	// Unreported is written by model but never read by report:
	// unreported-counter finding.
	Unreported int64
}
