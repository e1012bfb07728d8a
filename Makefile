# Development gate for the VeriDP reproduction. `make check` is what CI
# runs: vet + formatting + the repo's own static analysis (veridp-lint)
# + the full test suite under the race detector.

GO ?= go

# Per-target budget for `make fuzz`. CI smoke runs keep the default;
# a local soak can say `make fuzz FUZZTIME=5m`.
FUZZTIME ?= 10s

# Packages with Fuzz* targets and committed seed corpora.
FUZZ_PKGS = ./internal/openflow ./internal/packet ./internal/pcap ./internal/storm

# `make storm` settings: one seeded fuzzing campaign against a live
# deployment (see internal/storm). CI runs storm-smoke non-gating.
STORM_TOPO ?= ft4
STORM_STEPS ?= 500
STORM_SEED ?= 1

# `make bench` settings: packages with benchmarks, selection regex, and
# repeat count (6 runs is what benchstat wants for a stable comparison).
BENCH_PKGS = . ./internal/report
BENCH ?= .
BENCHTIME ?= 200ms
BENCHCOUNT ?= 6

.PHONY: build test vet fmt lint race fuzz check bench bench-compare bench-smoke storm storm-smoke

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

fmt:
	@out="$$(gofmt -l .)"; \
	if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

lint:
	$(GO) run ./cmd/veridp-lint -timing -baseline lint.baseline ./...

race:
	$(GO) test -race ./...

# Short fuzzing pass over every Fuzz* target. `go test -fuzz` accepts a
# regex that must match exactly one target, so enumerate with -list and
# run them one at a time.
fuzz:
	@set -e; \
	for pkg in $(FUZZ_PKGS); do \
		for target in $$($(GO) test -list '^Fuzz' $$pkg | grep '^Fuzz'); do \
			echo "fuzz $$pkg $$target ($(FUZZTIME))"; \
			$(GO) test -run '^$$' -fuzz "^$$target$$" -fuzztime $(FUZZTIME) $$pkg; \
		done; \
	done

# Network-state fuzzing: one seeded campaign with the invariant oracles
# armed. A failure writes storm-failure.json for replay/minimization:
#   go run ./cmd/veridp-storm -replay storm-failure.json -minimize
storm:
	$(GO) run ./cmd/veridp-storm -topo $(STORM_TOPO) -steps $(STORM_STEPS) -seed $(STORM_SEED)

# CI smoke: a shorter campaign on each topology.
storm-smoke:
	@set -e; \
	for topo in ft4 ft6 figure5; do \
		$(GO) run ./cmd/veridp-storm -topo $$topo -steps 200 -seed $(STORM_SEED); \
	done

# Benchmark run: plain `go test -bench` text (compare BENCH.txt pairs with
# `make bench-compare`) plus a JSON rendering committed as the tracked
# baseline.
bench:
	$(GO) test -run '^$$' -bench '$(BENCH)' -benchmem -benchtime $(BENCHTIME) -count $(BENCHCOUNT) $(BENCH_PKGS) | tee BENCH.txt
	$(GO) run ./cmd/bench2json < BENCH.txt > BENCH_baseline.json
	@echo "wrote BENCH.txt and BENCH_baseline.json"

# Before/after comparison of two `go test -bench` text files (say, BENCH.txt
# from `make bench` on each side): per benchmark and metric, the median
# and interquartile range of each side's runs and the median's change.
#   make bench-compare OLD=old.txt NEW=new.txt
bench-compare:
	@test -n "$(OLD)" -a -n "$(NEW)" || { echo "usage: make bench-compare OLD=old.txt NEW=new.txt"; exit 2; }
	$(GO) run ./cmd/bench2json -compare $(OLD) $(NEW)

# One iteration per benchmark: proves every benchmark still compiles and
# runs. CI uses this non-gating; it says nothing about performance.
bench-smoke:
	$(GO) test -run '^$$' -bench '$(BENCH)' -benchmem -benchtime 1x -count 1 $(BENCH_PKGS)

check: vet fmt lint race
