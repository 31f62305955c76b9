package fault

import "sync"

// Plan maps experiment jobs — (config name, benchmark abbreviation)
// pairs — to fault specs. The experiment pool consults it per job and
// arms the spec onto the run's system via Spec.Arm. Safe for concurrent
// use by the pool's workers.
type Plan struct {
	mu    sync.Mutex
	specs map[string]*Spec
}

// NewPlan returns an empty plan.
func NewPlan() *Plan {
	return &Plan{specs: make(map[string]*Spec)}
}

func planKey(cfgName, bench string) string { return cfgName + "|" + bench }

// Add arms spec on the (cfgName, bench) job. An empty cfgName matches
// the benchmark under every configuration (exact entries win).
func (p *Plan) Add(cfgName, bench string, spec Spec) {
	p.mu.Lock()
	defer p.mu.Unlock()
	s := spec
	p.specs[planKey(cfgName, bench)] = &s
}

// For returns the spec armed on the (cfgName, bench) job, trying the
// exact key first and the benchmark-wide ("", bench) key second.
func (p *Plan) For(cfgName, bench string) (*Spec, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if s, ok := p.specs[planKey(cfgName, bench)]; ok {
		return s, true
	}
	s, ok := p.specs[planKey("", bench)]
	return s, ok
}
