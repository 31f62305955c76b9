# Convenience targets; `make check` runs what CI gates on.

GO ?= go

.PHONY: build vet lint fmt-check docs-check test test-short race sanitize stress golden experiments bench-check check clean

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# Determinism, layering and liveness invariants over the whole module
# (DESIGN.md §7; the policy is lint.RepoPolicy in internal/lint/policy.go).
lint:
	$(GO) run ./cmd/nubalint

fmt-check:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then echo "gofmt needed on:"; echo "$$out"; exit 1; fi

# Docs-versus-code drift: flags mentioned in README/docs must exist in
# cmd/*, quoted `make` targets must exist here, quoted test names must be
# declared, intra-repo Markdown links must resolve, every `DESIGN.md §N`
# must be a numbered section and no PLACEHOLDER token may stand in for a
# table (see cmd/nubadocs).
docs-check:
	$(GO) run ./cmd/nubadocs

test:
	$(GO) test ./...

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

# Hint-soundness smoke: a cheap five-benchmark subset to natural
# completion under the sanitizer engine (every claimed-idle window
# stepped and verified; see DESIGN.md §9). AN is the LSU-bound one: its
# SMs spend the run with warps waiting for an LSU entry, the state whose
# wake hint is "never" rather than "next cycle". SM (Stringmatch) is the
# fabric's: the other four stay ≥ 97 % local on NUBA, its atomics are 82 %
# remote, and on the memory-side UBA every miss crosses both crossbars —
# the flights the crossbar's earliest-arrival hint lets the engine skip.
# The SM-side UBA is the one layout whose coherence invalidations enter
# slices through EnqueueLocal/EnqueueRemote off the inter-half links, so
# the per-component sleep check (DESIGN.md §9 "Sleep deadlines") runs to
# natural completion on all three builders' doors.
# The sanitizer also offers every parked head on every stepped cycle and
# fails the run on one taken before its park ended (DESIGN.md §9 "Parks"),
# and each benchmark is here for the parks it reaches: AN the LSU's (a full
# L1 MSHR file, ended by the reply's door) and the slice arbiter's; SM on
# NUBA the SM send queue's, the SM-request links' and both crossbars' stage
# 1 and stage 2 (port serialization, full input queues, full middle and
# egress links), SM on the two UBAs the same crossbar parks with SMs as the
# injectors; and LBM the one nothing else fills for long — the slice outbox
# parked on a full channel queue, bounded by the data bus (2.85 M refusals
# at scale 0.25) — from a NUBA slice beside its channel and, on the
# memory-side UBA, with the reply crossbar backed up behind it. DWT2D, BH
# and MVT park little: they are the sleep check's.
# The full capped suite runs under `go test .` (TestSanitizeSuite).
sanitize:
	$(GO) run ./cmd/nubasim -bench DWT2D,BH,MVT,AN,SM -scale 0.125 -engine sanitize
	$(GO) run ./cmd/nubasim -arch uba -bench SM -scale 0.125 -engine sanitize
	$(GO) run ./cmd/nubasim -arch sm-side -bench SM -scale 0.125 -engine sanitize
	$(GO) run ./cmd/nubasim -arch nuba -bench LBM -scale 0.125 -engine sanitize
	$(GO) run ./cmd/nubasim -arch uba -bench LBM -scale 0.125 -engine sanitize

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

# bench/ is a nested module, invisible to `go build ./...` and
# `go test ./...` above: build and short-test it here so a rename in the
# simulator that breaks the benchmark's build is noticed. The root
# module's layer benchmarks run once each, so that their own checks
# (a b.Fatal such as "the quiet GPU has a wake-up") can fail.
bench-check:
	cd bench && $(GO) vet ./... && $(GO) test -short ./...
	$(GO) test -run '^$$' -bench . -benchtime 1x ./internal/...

check: vet build lint fmt-check docs-check test race sanitize bench-check

clean:
	$(GO) clean ./...
