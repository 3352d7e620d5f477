# Standard gate: build + vet + race-enabled tests. `make check` is what CI
# and pre-merge runs; the race detector is required because event.Bus and
# internal/fleet are concurrent by design. TESTFLAGS threads extra `go test`
# flags through the gate — CI's race job uses `make check TESTFLAGS=-short`
# to keep wall time bounded (the long 120-device e2e and the shard sweep run
# in CI's smoke job instead). `make check` also vets and short-tests the
# nested awarebench module, which the root `./...` never compiles.
# `make docs` is the documentation gate: vet, a check that every package
# (and command) carries a godoc package comment, and a check that every
# `*.md` file a Go comment or top-level markdown file cites exists.
# `make fuzz` smoke-runs the wire codec and journal reader fuzz
# targets for FUZZTIME each (default 10s) — the same invocation CI's smoke
# job uses. `make bench` runs every benchmark and writes machine-readable
# results to $(BENCHJSON); BENCHFLAGS threads extra `go test` flags through
# (CI's smoke job uses `-benchtime=1x` for a fast correctness pass). `make
# cover` writes a coverage profile to cover.out and prints the per-function
# summary.

GO ?= go
DOC_MD = README.md ARCHITECTURE.md ROADMAP.md CHANGES.md PAPER.md PAPERS.md
TESTFLAGS ?=
BENCHFLAGS ?=
FUZZTIME ?= 10s

.PHONY: check build vet test test-race awarebench-check bench fuzz cover docs experiments clean

check: build vet test-race awarebench-check

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test $(TESTFLAGS) ./...

test-race:
	$(GO) test -race $(TESTFLAGS) ./...

# awarebench is a module of its own (it imports this one through a
# replace directive), so an API change in fleet or wire could break the
# benchmark with no other gate noticing.
awarebench-check:
	cd awarebench && $(GO) vet . && $(GO) test -race -short .

# bench runs the full benchmark suite — the per-experiment benchmarks
# (E1-E14), the wire codec pairs (BenchmarkWireJSON / BenchmarkWireBinary
# and the snapshot-frame pair BenchmarkSnapshotJSON / BenchmarkSnapshotBinary),
# the networked fleet-ingestion benchmark (journal off/flat/sharded, the
# relaxed ack-on-dispatch durability tier, recovery controller and diagnosis
# engine attached, the flow=on credit-window variant, and the trace=on
# tracing-plane variant — held within 5% of the untraced baseline — each
# reporting the latency-SLO plane's p50/p99/p999 ingest-to-dispatch
# quantiles),
# BenchmarkJournalAppend, BenchmarkCheckpointReplay (cold boot with and
# without a checkpoint resume point), BenchmarkControllerReport,
# BenchmarkFleetDiagnosis (evidence fold + parallel ranking at the paper's
# 60 000-block scale) and BenchmarkFederationUplink (the edge→aggregator
# rollup-delta cycle: deltas/s and bytes/delta) — and additionally emits
# machine-readable results to
# $(BENCHJSON) via cmd/benchjson (frames/s, ns/op, allocs/op, p99-ms, ...),
# so the perf trajectory is tracked across PRs. $(BENCHJSON) is committed
# once per PR; the raw transcript in bench.out is scratch output and must
# not be committed (CI fails the tree if it is).
BENCHJSON ?= BENCH_10.json
bench:
	@$(GO) test -bench . -benchmem $(BENCHFLAGS) ./... > bench.out; status=$$?; \
	cat bench.out; \
	if [ $$status -ne 0 ]; then exit $$status; fi; \
	$(GO) run ./cmd/benchjson -in bench.out -out $(BENCHJSON)

# fuzz smoke-runs both native fuzz targets: the wire codec (FuzzDecode —
# random frames through both codecs must be cleanly rejected or decoded,
# never panic) and the journal reader (FuzzJournalReader — random segment
# bytes must classify as torn tail or CorruptError, never panic). CI's
# smoke job runs exactly this; raise FUZZTIME locally for a deeper hunt.
fuzz:
	$(GO) test -fuzz=FuzzDecode -fuzztime=$(FUZZTIME) ./internal/wire
	$(GO) test -fuzz=FuzzJournalReader -fuzztime=$(FUZZTIME) ./internal/journal

# cover writes cover.out and prints the per-function coverage summary.
cover:
	$(GO) test $(TESTFLAGS) -coverprofile=cover.out ./...
	$(GO) tool cover -func=cover.out

# docs fails when any package lacks a godoc package comment ("// Package x"
# for libraries, "// Command x" for mains) in any of its non-test files,
# when ARCHITECTURE.md §2.9's wire frame registry disagrees with the
# binary codec's tag map (TestFrameRegistry in internal/wire), or when a Go
# comment or a top-level markdown file cites a `*.md` file that exists
# neither at the repository root nor next to the citing file. DOC_MD names
# the top-level markdown files checked; SNIPPETS.md is left out because it
# cites paths in other repositories.
# The failure flag is checked in its own `if` statement: chaining it as
# `[ $fail -eq 0 ] && echo ok || exit 1` would route a failed echo into the
# exit-1 branch and make the target's status depend on the chain's last
# command rather than the flag.
docs: vet
	@fail=0; \
	for dir in $$(find . -name '*.go' -not -name '*_test.go' -not -path './.git/*' | xargs -n1 dirname | sort -u); do \
		if ! find $$dir -maxdepth 1 -name '*.go' -not -name '*_test.go' \
			| xargs grep -lqE '^// (Package|Command) ' 2>/dev/null; then \
			echo "missing package comment: $$dir"; fail=1; \
		fi; \
	done; \
	if [ $$fail -ne 0 ]; then exit 1; fi; \
	echo "docs: every package has a package comment"
	@$(GO) test ./internal/wire -run TestFrameRegistry >/dev/null
	@echo "docs: ARCHITECTURE.md §2.9 frame registry matches the codec"
	@missing=$$( { grep -rHoE --include='*.go' '//.*\.md\b.*' . ; \
		grep -HE '\.md\b' $(DOC_MD); } | while IFS= read -r hit; do \
		file=$${hit%%:*}; dir=$$(dirname "$$file"); \
		for ref in $$(printf '%s\n' "$${hit#*:}" | grep -oE '[A-Za-z0-9_./-]+\.md\b'); do \
			[ -e "$$ref" ] || [ -e "$$dir/$$ref" ] || echo "$$file cites missing $$ref"; \
		done; \
	done | sort -u); \
	if [ -n "$$missing" ]; then echo "$$missing"; exit 1; fi; \
	echo "docs: every cited *.md file exists"

experiments:
	$(GO) run ./cmd/experiments

clean:
	$(GO) clean ./...
