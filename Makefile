# Developer / CI entry points. `make check` is the gate every change must
# pass: vet, build, the full test suite under the race detector (the
# harness fans scenario grids across goroutines, so -race exercises the
# concurrent paths on every run), the golden-file regression suite and a
# short fuzz smoke of every native fuzz target.

GO ?= go

# Per-target budget for the fuzz smoke pass.
FUZZTIME ?= 10s

.PHONY: check vet build test race bench bench-json bench-json-name tables golden golden-update fuzz-smoke stream-smoke search-smoke

check: vet build race golden stream-smoke search-smoke fuzz-smoke

# perfbench/ is a nested module, which the root ./... pattern skips: vet and
# build it too, so a façade change that breaks the benchmark fails here.
vet:
	$(GO) vet ./...
	cd perfbench && $(GO) vet ./...

build:
	$(GO) build ./...
	cd perfbench && $(GO) build -o /dev/null ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

bench:
	$(GO) test -bench=. -benchmem ./...

# Benchmark snapshot: run every workload BENCHMARK.json names through
# perfbench (seed 1, 30 s, untraced) and write one JSON object, keyed by
# workload, whose values are the runs' final JSON lines, to the next free
# BENCH_N.json, so the perf trajectory accumulates as comparable artifacts
# across changes. A failed run fails the target and leaves no file behind.
BENCH_JSON = $(shell ls BENCH_*.json 2>/dev/null | tr -dc '0-9\n' | sort -n | awk 'END {print "BENCH_" $$1+1 ".json"}')
bench-json:
	@set -e; out=$(BENCH_JSON); dir=$$(mktemp -d); trap 'rm -rf "$$dir"' EXIT; \
	workloads=$$(python3 -c 'import json; print(*(w["name"] for w in json.load(open("BENCHMARK.json"))["workloads"]))'); \
	for w in $$workloads; do \
		bash perfbench/run.sh --workload $$w --seed 1 --seconds 30 --trace 0 > "$$dir/$$w"; \
		tail -n 1 "$$dir/$$w"; \
	done; \
	python3 -c 'import json, sys; d = sys.argv[1]; print(json.dumps({w: json.loads(open(d + "/" + w).read().splitlines()[-1]) for w in sys.argv[2:]}, indent=2))' \
		"$$dir" $$workloads > "$$dir/snapshot.json"; \
	mv "$$dir/snapshot.json" $$out; \
	echo "wrote $$out"

# Print the name bench-json would write (CI names its artifact with it).
bench-json-name:
	@echo $(BENCH_JSON)

# Golden-file regression suite: every deterministic experiment rendering,
# the event-timeline render and the diagnosis report must match their
# committed snapshots byte-for-byte, and the digests of the 364-cell
# track × controller × attack grid (frames, violations and summaries; trace
# CSVs and event logs) their committed hashes.
golden:
	$(GO) test ./internal/harness -run TestGolden
	$(GO) test . -run 'TestFrameDigest|TestTraceEventDigest'
	$(GO) test ./internal/events -run TestGoldenTimelineT4
	$(GO) test ./internal/diagnosis -run TestGoldenReport
	$(GO) test ./internal/service -run TestStreamGoldenTranscript
	$(GO) test ./internal/obs -run TestPromGolden

# Rewrite the golden files after an intentional behaviour change; review
# the diff before committing.
golden-update:
	$(GO) test ./internal/harness -run TestGolden -update
	$(GO) test . -run 'TestFrameDigest|TestTraceEventDigest' -update-frame-digest
	$(GO) test ./internal/events -run TestGoldenTimelineT4 -update
	$(GO) test ./internal/diagnosis -run TestGoldenReport -update
	$(GO) test ./internal/service -run TestStreamGoldenTranscript -update-stream
	$(GO) test ./internal/obs -run TestPromGolden -update

# Streaming-vs-batch equivalence gate: the differential suite feeding the
# six scenario tracks through the online session at several chunk sizes,
# plus the end-to-end streaming service tests (limits, drain, golden
# transcript).
stream-smoke:
	$(GO) test ./internal/stream -run 'TestStreamMatchesBatch|TestSessionStreamsViolations' -count=1
	$(GO) test ./internal/service -run 'TestStream' -count=1

# Adversarial-search gate: the optimizer property/determinism suite, the
# S1 frontier-retreat acceptance test and the /v1/search endpoint tests.
search-smoke:
	$(GO) test ./internal/search -count=1
	$(GO) test ./internal/harness -run 'TestSearchFrontierRetreat' -count=1
	$(GO) test ./internal/service -run 'TestSearch' -count=1

# Run each native fuzz target for $(FUZZTIME) on top of its committed seed
# corpus — a cheap crash/contract smoke, not a deep campaign.
fuzz-smoke:
	$(GO) test ./internal/geom -run '^$$' -fuzz FuzzSplineProject -fuzztime $(FUZZTIME)
	$(GO) test ./internal/geom -run '^$$' -fuzz FuzzProjectDifferential -fuzztime $(FUZZTIME)
	$(GO) test ./internal/planner -run '^$$' -fuzz FuzzSpeedProfileDifferential -fuzztime $(FUZZTIME)
	$(GO) test ./internal/fusion -run '^$$' -fuzz FuzzEKFDifferential -fuzztime $(FUZZTIME)
	$(GO) test ./internal/core -run '^$$' -fuzz FuzzRealGCD -fuzztime $(FUZZTIME)
	$(GO) test ./internal/trace -run '^$$' -fuzz FuzzTraceRoundTrip -fuzztime $(FUZZTIME)
	$(GO) test ./internal/trace -run '^$$' -fuzz FuzzColumnsDifferential -fuzztime $(FUZZTIME)
	$(GO) test ./internal/mutate -run '^$$' -fuzz FuzzMutantSpec -fuzztime $(FUZZTIME)
	$(GO) test ./internal/stream -run '^$$' -fuzz FuzzStreamNDJSON -fuzztime $(FUZZTIME)
	$(GO) test ./internal/search -run '^$$' -fuzz FuzzSearchSpec -fuzztime $(FUZZTIME)
	$(GO) test ./internal/service -run '^$$' -fuzz FuzzKeyedRequest -fuzztime $(FUZZTIME)

# Regenerate every evaluation table/figure (see EXPERIMENTS.md).
tables:
	$(GO) run ./cmd/adassure-bench -seeds 3
