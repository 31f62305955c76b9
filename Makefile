# Convenience targets; `make check` runs what CI gates on.

GO ?= go

.PHONY: build vet fmt-check test test-short race stress fuzz golden experiments bench-smoke bench-check lines check clean

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

fmt-check:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then echo "gofmt needed on:"; echo "$$out"; exit 1; fi

# Also the repository's self-checks: TestRepoLintsClean holds the module to
# the determinism, layering and liveness rules (DESIGN.md §7), TestDocs
# holds the docs to the code (flags, targets, test and Go names, links,
# DESIGN.md § pointers, PLACEHOLDER tokens), and the engine oracles hold
# hybrid to naive and the hint-soundness checker (DESIGN.md §9 "The loop").
# The timeout is set, not go test's default 10m: the root package, the
# longest, takes 4 min alone and 6 min beside the others on a 2-vCPU host,
# so 20m leaves room for a host half as fast.
test:
	$(GO) test -timeout 20m ./...

test-short:
	$(GO) test -short ./...

# The race detector where there is a race to find: the experiment pool
# is the one place that starts goroutines, and its workers drive real
# concurrent nuba.Run calls through every model package — which is what
# would expose state shared between simulations. Everything below it is
# single-goroutine code. TestEveryExperiment is left to `make test`: it
# checks what renderers read, not the pool, and costs 8 minutes under
# the detector.
race:
	$(GO) test -race -timeout 30m -skip TestEveryExperiment ./internal/experiments/...

# The seeded fault-injection stress matrix (docs/ROBUSTNESS.md): every
# fault class injected into a short run and caught by the layer that
# owns it — the forward-progress watchdog, the sanitize engine or the
# panic-isolating experiment pool — plus partial-report, failure-isolation
# and cancel-under-fault coverage. Deterministic: failures reproduce exactly.
# Then the whole starved-machine matrix (every architecture and policy, every
# bounded resource at its minimum, eight benchmarks; ≈ 5 min on two cores),
# of which `test` runs the replicating-NUBA subset. Not a prerequisite of
# `check`: `test` and `race` both already run TestStress*.
stress:
	$(GO) test -timeout 20m -run 'TestStress' ./internal/experiments/
	$(GO) test -timeout 30m -run TestStarvedMachine . -starved.all

# Native fuzzing beyond the seed corpora: each Fuzz* target in the module
# runs for FUZZTIME, one after another (`go test -fuzz` takes one target
# per package per run). `test` already runs every target's seed corpus as
# plain tests, so this is not a step of `check`. A failing input is saved
# under the package's testdata/fuzz and replays in `test` until fixed.
FUZZTIME ?= 30s
fuzz:
	@set -e; for f in $$(grep -rl --include='*_test.go' --exclude-dir=bench --exclude-dir=testdata --exclude-dir=.bench_build '^func Fuzz' .); do \
		for t in $$(sed -n 's/^func \(Fuzz[A-Za-z0-9_]*\)(.*/\1/p' $$f); do \
			echo "$$t $$(dirname $$f)"; \
			$(GO) test -run '^$$' -fuzz "^$$t$$" -fuzztime $(FUZZTIME) $$(dirname $$f); \
		done; \
	done

# What the simulator says, pinned in tier-1: one Stats digest per benchmark
# (testdata/suite_digests.txt) and the whole `nubasweep -exp all` report on
# {BH, AN} at scale 0.125 (internal/experiments/testdata/all_s0125.txt). A
# change that means to move simulated cycles regenerates both and shows the
# moved lines as its diff; any other change leaves them untouched.
golden:
	REGEN=1 $(GO) test -run TestSuiteDigestsGolden .
	REGEN=1 $(GO) test -run TestEveryExperiment ./internal/experiments

# EXPERIMENTS.md is what nubasweep prints: every fenced block of its output
# starts with the `$ nubasweep ARGS` line that printed it. This re-runs every
# such command through the function nubasweep itself runs, one runner per
# (scale, benchmark list) so figures that share runs simulate them once, and
# rewrites each block's body; a change that moves a report shows it as a diff
# of EXPERIMENTS.md. It takes 13 minutes on a 2-vCPU host — 323
# simulations, of which the full-scale Figure 7 suite is 116 and 5.4
# minutes — so it is not a step of `check`: `test` runs the
# same TestExperimentsDoc without REGEN, which parses every block's command
# and simulates nothing.
experiments:
	REGEN=1 $(GO) test -v -timeout 90m -run TestExperimentsDoc ./cmd/nubasweep

# Every benchmark of the root module, run once: a benchmark's own checks
# (a b.Fatal such as "the quiet GPU has a wake-up") fail here, which
# `test` never reaches. The nested bench/ module is bench-check's.
bench-smoke:
	$(GO) test -run '^$$' -bench . -benchtime 1x ./...

# bench/ is a nested module, invisible to `go build ./...` and
# `go test ./...` above: build and short-test it here so a rename in the
# simulator that breaks the benchmark's build is noticed.
bench-check:
	cd bench && $(GO) vet ./... && $(GO) test -short ./...

# The size of the simulator that ROADMAP's "Keep deleting" item tracks:
# lines of non-test Go outside bench/ (the benchmark's own module) and
# testdata/.
lines:
	@find . -name '*.go' ! -name '*_test.go' -not -path './bench/*' -not -path './.bench_build/*' -not -path '*/testdata/*' -exec cat {} + | wc -l

check: vet build fmt-check test bench-smoke race bench-check

clean:
	$(GO) clean ./...
