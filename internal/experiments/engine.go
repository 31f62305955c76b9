package experiments

import (
	"context"
	"errors"
	"fmt"
	"io"
	"runtime"
	"strings"
	"sync"

	"github.com/nuba-gpu/nuba"
	"github.com/nuba-gpu/nuba/internal/workload"
)

// Job is one (configuration, benchmark) simulation an experiment needs.
// Jobs are identified by the configuration's canonical Fingerprint plus
// the benchmark abbreviation, so configurations differing in any semantic
// field are distinct cache entries.
type Job struct {
	Config nuba.Config
	Bench  workload.Benchmark
}

// jobKey is the memo-cache identity of a job.
func jobKey(fingerprint, abbr string) string { return fingerprint + "|" + abbr }

// cross pairs every configuration with every benchmark, configuration-
// major, and returns the jobs with their cache keys.
func cross(cfgs []nuba.Config, benches []workload.Benchmark) ([]Job, []string) {
	jobs := make([]Job, 0, len(cfgs)*len(benches))
	keys := make([]string, 0, len(cfgs)*len(benches))
	for i := range cfgs {
		fp := cfgs[i].Fingerprint()
		for _, b := range benches {
			jobs = append(jobs, Job{Config: cfgs[i], Bench: b})
			keys = append(keys, jobKey(fp, b.Abbr))
		}
	}
	return jobs, keys
}

// configs returns the experiment's declared configurations at the
// runner's GPU scale (none for an experiment that simulates nothing).
func (e Experiment) configs(r *Runner) []nuba.Config {
	if e.Configs == nil {
		return nil
	}
	cfgs := e.Configs()
	if r.opts.Scale != 1 {
		for i := range cfgs {
			cfgs[i] = cfgs[i].Scale(r.opts.Scale)
		}
	}
	return cfgs
}

// Plan returns the simulations the experiment consumes: its declared
// configurations crossed with the runner's benchmarks.
func (e Experiment) Plan(r *Runner) []Job {
	jobs, _ := cross(e.configs(r), r.opts.Benchmarks)
	return jobs
}

// view is all a renderer reads: the experiment's configurations as
// declared, the benchmarks on which every one of them finished, and those
// runs' results.
type view struct {
	cfgs    []nuba.Config
	benches []workload.Benchmark
	res     [][]*nuba.Result // res[i][j] is benches[i] on cfgs[j]
}

// Execute runs one experiment: it simulates the experiment's plan across
// the worker pool into the memo cache, then renders the report once from
// the finished runs. The report is byte-identical for any worker count,
// because rendering walks the benchmarks in presentation order and every
// simulation is deterministic given its configuration. A canceled ctx
// stops scheduling promptly and surfaces an error wrapping ctx.Err().
//
// A failed job does not abort the experiment: a benchmark that failed on
// any of this experiment's own configurations is excluded from the
// rendered tables and listed in the report's failures section instead;
// failures of jobs the experiment does not use never touch it. When every
// benchmark failed, Execute returns the failures and their section along
// with the error.
func (r *Runner) Execute(ctx context.Context, e Experiment) (*Report, error) {
	cfgs, benches := e.configs(r), r.opts.Benchmarks
	jobs, keys := cross(cfgs, benches)
	if err := r.prefetch(ctx, jobs, keys); err != nil {
		return nil, err
	}

	// jobs is configuration-major: job k is benches[k%len(benches)] on
	// cfgs[k/len(benches)].
	var failures []JobFailure
	failed := make([]bool, len(benches))
	rows := make([][]*nuba.Result, len(benches))
	for i := range rows {
		rows[i] = make([]*nuba.Result, len(cfgs))
	}
	for k, key := range keys {
		ent, err := r.finished(ctx, key)
		if err != nil {
			return nil, fmt.Errorf("experiments: %s: %s on %s: %w", e.Name, jobs[k].Bench.Abbr, jobs[k].Config.Name(), err)
		}
		i, j := k%len(benches), k/len(benches)
		if ent.err != nil {
			failures = append(failures, newJobFailure(&jobs[k], ent.err))
			failed[i] = true
		}
		rows[i][j] = ent.res
	}
	v := &view{cfgs: cfgs}
	for i, b := range benches {
		if !failed[i] {
			v.benches = append(v.benches, b)
			v.res = append(v.res, rows[i])
		}
	}

	rep := &Report{Failures: failures}
	if len(failures) > 0 {
		rep.Text = failuresSection(failures)
	}
	if len(v.benches) == 0 {
		return rep, fmt.Errorf("experiments: %s: every benchmark failed (%d job failures)", e.Name, len(failures))
	}
	text, err := e.render(v)
	if err != nil {
		return nil, fmt.Errorf("experiments: %s: %w", e.Name, err)
	}
	rep.Text = text + rep.Text
	return rep, nil
}

// PrintReport prints what Execute returned as the command-line tools show
// it: the text on stdout, and on stderr each hang report not yet in shown
// (a job several experiments share hangs once). It returns Execute's error
// or, for a partial report, one that says so.
func PrintReport(stdout, stderr io.Writer, e Experiment, report *Report, err error, shown map[string]bool) error {
	if report != nil {
		fmt.Fprint(stdout, report.Text)
		for _, f := range report.Failures {
			if f.Hang != "" && !shown[f.Hang] {
				shown[f.Hang] = true
				fmt.Fprintf(stderr, "%s on %s: %s", f.Bench, f.Config, f.Hang)
			}
		}
	}
	if err == nil && len(report.Failures) > 0 {
		err = fmt.Errorf("%s: %d job(s) failed; its report is partial", e.Name, len(report.Failures))
	}
	return err
}

// finished returns the completed cache entry for key, waiting for a
// concurrent caller's in-flight simulation if need be. It never
// simulates: an absent entry is an error.
func (r *Runner) finished(ctx context.Context, key string) (*cacheEntry, error) {
	r.mu.Lock()
	ent := r.cache[key]
	r.mu.Unlock()
	if ent == nil {
		return nil, errors.New("no finished run (evicted by a concurrent canceled call)")
	}
	select {
	case <-ent.ready:
		return ent, nil
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

func newJobFailure(j *Job, err error) JobFailure {
	jf := JobFailure{Config: j.Config.Name(), Bench: j.Bench.Abbr, Err: err.Error()}
	var he *nuba.HangError
	if errors.As(err, &he) {
		jf.Hang = he.Report.String()
	}
	var pe *nuba.PanicError
	if errors.As(err, &pe) {
		jf.Panic = true
		jf.Stack = string(pe.Stack)
	}
	return jf
}

// failuresSection renders the explicit failures block appended to a
// partial report.
func failuresSection(fs []JobFailure) string {
	var b strings.Builder
	fmt.Fprintf(&b, "\nFAILED JOBS (%d) — the tables above exclude these benchmarks:\n", len(fs))
	for _, f := range fs {
		kind := "error"
		if f.Panic {
			kind = "panic"
		}
		fmt.Fprintf(&b, "  %-16s %-8s %s: %s\n", f.Config, f.Bench, kind, f.Err)
	}
	return b.String()
}

// Prefetch simulates the given jobs across the worker pool, deduplicating
// against each other and against runs already cached. A job's failure
// stays in its cache entry (see Execute) without canceling the remaining
// jobs; Prefetch itself only errors when the context is canceled.
func (r *Runner) Prefetch(ctx context.Context, jobs []Job) error {
	keys := make([]string, len(jobs))
	for k := range jobs {
		keys[k] = jobKey(jobs[k].Config.Fingerprint(), jobs[k].Bench.Abbr)
	}
	return r.prefetch(ctx, jobs, keys)
}

func (r *Runner) prefetch(ctx context.Context, jobs []Job, keys []string) error {
	fresh := r.admit(keys)
	workers := r.opts.Jobs
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(fresh) {
		workers = len(fresh)
	}
	var wg sync.WaitGroup
	ch := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := range ch {
				r.simulate(ctx, keys[k], &jobs[k])
			}
		}()
	}
	// Every admitted job is handed to a worker even after a cancel: its
	// cache entry exists, and simulate is what evicts it.
	for _, k := range fresh {
		ch <- k
	}
	close(ch)
	wg.Wait()
	return ctx.Err()
}

// admit gives every job not yet in the cache an entry, accounts those
// jobs in the progress totals and returns their indices. Creating the
// entry here is what makes a job simulate exactly once.
func (r *Runner) admit(keys []string) []int {
	var fresh []int
	r.mu.Lock()
	defer r.mu.Unlock()
	for k, key := range keys {
		if _, ok := r.cache[key]; ok {
			continue
		}
		r.cache[key] = &cacheEntry{ready: make(chan struct{})}
		fresh = append(fresh, k)
	}
	r.planned += len(fresh)
	if len(fresh) > 0 {
		r.markStarted()
	}
	return fresh
}

// simulate runs one admitted job with the runner's engine and arm hook
// applied and completes its cache entry. A failed run stays cached with
// its error (re-running would fail identically) and counts and reports
// as a simulated job like a finished one; a canceled one is evicted, and
// un-planned, so a later call can simulate it.
func (r *Runner) simulate(ctx context.Context, key string, j *Job) {
	var res *nuba.Result
	err := ctx.Err()
	if err == nil {
		opts := []nuba.RunOption{nuba.WithEngine(r.opts.Engine)}
		if r.opts.Arm != nil {
			opts = append(opts, nuba.WithArm(r.opts.Arm(j.Config.Name(), j.Bench.Abbr)))
		}
		if res, err = nuba.Run(ctx, j.Config, j.Bench, opts...); res != nil {
			// The cache keeps what renderers read — the measurements —
			// not the assembled GPU that produced them.
			res.System = nil
		}
	}

	r.mu.Lock()
	ent := r.cache[key]
	ent.res = res
	if err != nil {
		ent.err = fmt.Errorf("%s on %s: %w", j.Bench.Abbr, j.Config.Name(), err)
	}
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		delete(r.cache, key)
		r.planned--
	} else {
		r.done++
		r.emitLocked(j.Config.Name(), j.Bench.Abbr, res, err)
	}
	r.mu.Unlock()
	close(ent.ready)
}
