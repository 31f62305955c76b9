# Convenience targets; `make check` mirrors CI.

GO ?= go
BENCH_OUT ?= BENCH_local.json

.PHONY: build vet lint fmt-check docs-check test test-short race sanitize stress bench bench-check check clean

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# Determinism and layering invariants (see lint.policy and DESIGN.md).
lint:
	$(GO) run ./cmd/nubalint ./...

fmt-check:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then echo "gofmt needed on:"; echo "$$out"; exit 1; fi

# Docs-versus-code drift: flags mentioned in README/docs must exist in
# cmd/*, and intra-repo Markdown links must resolve (see cmd/nubadocs).
docs-check:
	$(GO) run ./cmd/nubadocs

test:
	$(GO) test ./...

test-short:
	$(GO) test -short ./...

# The race detector over what does run concurrently — the experiment
# pool and RunSuite's workers, each driving whole single-goroutine
# simulations — plus the engine identity tests inside them.
race:
	$(GO) test -race -timeout 30m ./internal/experiments/... ./internal/lint/...
	$(GO) test -race -timeout 30m -run 'TestEnginesByteIdenticalFullRuns|TestWatchdogCatchesWedgeOnNonZeroPartition' .
	$(GO) test -race -timeout 30m -run 'TestEngines|TestSanitize|TestParseEngine|TestQuietVsWake|TestMaxCycles' ./internal/core/

# Hint-soundness smoke: a cheap three-benchmark subset to natural
# completion under the sanitizer engine (every claimed-idle window
# stepped and verified; see DESIGN.md §9). The full capped suite runs
# under `go test .` (TestSanitizeSuite).
sanitize:
	$(GO) run ./cmd/nubasim -bench DWT2D,BH,MVT -scale 0.125 -engine sanitize

# The seeded fault-injection stress matrix (docs/ROBUSTNESS.md): every
# fault class injected into a short run and caught by the layer that
# owns it — the forward-progress watchdog, the sanitize engine or the
# panic-isolating experiment pool — plus retry, partial-report and
# cancel-under-fault coverage. Deterministic: failures reproduce exactly.
stress:
	$(GO) test -timeout 20m -run 'TestStress' ./internal/experiments/

# Engine-throughput benches folded into a BENCH_<n>.json-shaped record
# (schema in docs/PERF.md). The committed BENCH_*.json files are history;
# the repo's benchmark is bench/ (BENCHMARK.json, bench/README.md).
bench:
	$(GO) test -run '^$$' -bench 'BenchmarkEngineThroughput' -benchmem -count 1 . \
		| $(GO) run ./cmd/nubabench -o $(BENCH_OUT)

# bench/ is a nested module, invisible to `go build ./...` and
# `go test ./...` above: build and short-test it here so a rename in the
# simulator that breaks the benchmark's build is noticed.
bench-check:
	cd bench && $(GO) vet ./... && $(GO) test -short ./...

check: vet build lint fmt-check docs-check test race sanitize stress bench-check

clean:
	$(GO) clean ./...
