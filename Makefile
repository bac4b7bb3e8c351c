GO ?= go

.PHONY: check fmt vet build test race stress bench-smoke benchmark-module benchmark-correctness rejoin-bench load-smoke fuzz-smoke

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
# write waits only for its write safety level; then of the waits that end
# on their event: a transfer from a disagreeing source ends at once, a
# lagging source serves each chunk once, and an op on a dissolved group
# re-runs when the rejoin view lands.
stress:
	$(GO) test -count=100 -run 'TestConcurrentMultiWriter$$|TestTransferInstallsOnlyFrozenPair|TestUpdateDropsStaleReplica' ./internal/core
	$(GO) test -count=10 -run 'TestPiggyback|TestColdWriteIsOneCast$$|TestHolderReadWaitsForOwnReplica$$|TestViewChangeEndsOrphanedTransfer$$|TestHolderStreamWriteWaitsOnlyForSafety$$' ./internal/core
	$(GO) test -count=40 -run 'TestTransferFromDisagreeingSourceEndsAtOnce$$|TestLaggingSourceServesEachChunkOnce$$|TestOpOnDissolvedGroupWaitsForRejoin$$' ./internal/core

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

# Short chaos-gate smoke under the race detector: one mix of every op class
# on a healthy cell through the whole NFS stack, plus the simnet fault knobs.
# The full chaos run is TestChaosGracefulDegradation, in plain go test.
load-smoke:
	$(GO) test -short -race ./internal/load ./internal/simnet

# Every benchmark workload for 5 s, for its exit code only: the benchmark
# exits non-zero on a wrong read or audit, or on more than 0.1% failed ops.
# Its numbers on a shared runner are not performance evidence.
benchmark-correctness:
	bash benchmark/run.sh --workload all --seconds 5 --trace 0
