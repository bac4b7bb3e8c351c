GO ?= go

.PHONY: check fmt vet build test race stress bench-smoke benchmark-module rejoin-bench load load-smoke load-diff fuzz-smoke

check: fmt vet build test bench-smoke benchmark-module fuzz-smoke

fmt:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./internal/core ./internal/isis ./internal/server ./internal/agent ./internal/derr

# Repeated runs of the tests that catch a transfer installing a stale copy
# or an update relabelling one (a lost acked write shows up as zeros), then
# of the one write path's tests: a cold write is one cast, a lost Expect
# race moves nothing, a holder's read waits for its own replica, a view
# change ends a transfer orphaned by its holder, and a holder's streaming
# write waits only for its write safety level.
stress:
	$(GO) test -count=100 -run 'TestConcurrentMultiWriter$$|TestTransferInstallsOnlyFrozenPair|TestUpdateDropsStaleReplica' ./internal/core
	$(GO) test -count=10 -run 'TestPiggyback|TestColdWriteIsOneCast$$|TestHolderReadWaitsForOwnReplica$$|TestViewChangeEndsOrphanedTransfer$$|TestHolderStreamWriteWaitsOnlyForSafety$$' ./internal/core

bench-smoke:
	$(GO) test -run XXX -bench 'BenchmarkT1|BenchmarkAblation|BenchmarkContention|BenchmarkHotReadLocal' -benchtime=1x .

# benchmark/ is a module of its own, so ./... above never builds it: vet it
# and run its one-workload smoke test so a product API it uses cannot be
# removed without failing here.
benchmark-module:
	cd benchmark && $(GO) vet . && $(GO) test -short .

# Short coverage-guided fuzz of the two codecs under the NFS wire path.
# Long runs are manual: go test -fuzz FuzzWireRoundTrip ./internal/wire
fuzz-smoke:
	$(GO) test -run XXX -fuzz FuzzWireRoundTrip -fuzztime 10s ./internal/wire
	$(GO) test -run XXX -fuzz FuzzXDRRoundTrip -fuzztime 10s ./internal/xdr

# A8 rejoin benchmark at full scale: a server in a 10k-segment group
# crashes, recovers its checkpoint+log store, and rejoins incrementally.
rejoin-bench:
	DECEIT_REJOIN_SEGS=10000 $(GO) run ./cmd/deceit-bench -exp A8

# Full open-loop load run (all four mixes + chaos); writes BENCH_<date>.json
# in the repo root. Commit the file to extend the perf trajectory.
load:
	$(GO) run ./cmd/deceit-load

# ~2s-per-mix smoke of the load harness and chaos plumbing under the race
# detector; this is what the CI load-smoke job runs.
load-smoke:
	$(GO) test -short -race ./internal/load ./internal/simnet

# Regression gate: run the standard mixes fresh (no chaos) and diff against
# the newest committed BENCH_*.json. Skips with a message when no baseline
# has been committed yet.
load-diff:
	@prev=$$(ls BENCH_*.json 2>/dev/null | sort | tail -1); \
	if [ -z "$$prev" ]; then \
		echo "load-diff: no committed BENCH_*.json baseline; skipping perf diff"; \
		echo "load-diff: run 'make load' and commit the result to arm the gate"; \
	else \
		echo "load-diff: baseline $$prev"; \
		$(GO) run ./cmd/deceit-load -chaos=false -out /tmp/BENCH_diff.json && \
		$(GO) run ./cmd/deceit-load -compare $$prev /tmp/BENCH_diff.json; \
	fi
