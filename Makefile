GO ?= go

.PHONY: check ci build test vet fmt-check varint-guard race transport-stress core-stress bench bench-smoke smoke audit-bench metadata-bench replication-bench conformance chaos-conformance flake-census fuzz fuzz-smoke vuln clean

## check: the full gate — formatting, vet, the one-byte-reader guard,
## build, tests, a short race pass, twenty more of the transport's
## scheduler tests, of the serving frame writer's, of the serving
## tier's lifecycle tests, of the client's deadline guards and of the
## stage clock, twenty of the live cluster's chaos and
## crash/restart properties, a fuzz burst over every decoder of outside
## bytes (clocks, updates, the wire codecs, the frame reader, the WAL
## reader, the replica state decoder and the snapshot tail), the chaos
## conformance suite
## (the fault-injected session audit + exactly-once accounting, and
## twenty runs of the tracing join), and the nested benchmark module's
## own smoke run.
check: fmt-check vet varint-guard build test race transport-stress core-stress fuzz-smoke chaos-conformance bench-smoke

## ci: what .github/workflows/ci.yml runs — the full gate plus the
## conformance suite under the race detector and the four dsmbench
## gates (smoke, audit, metadata codec, partial replication; their
## dsmbench/v1 scorecards are uploaded as CI artifacts) plus a
## vulnerability scan when govulncheck is on PATH. Throughput and
## latency are gated by the bench/ module's benchmark, not here.
ci: check conformance smoke audit-bench metadata-bench replication-bench vuln

## smoke: the fast dsmbench subset (nprocs, visibility, ws) —
## deterministic virtual-time tables, gated exactly against the
## committed BENCH_baseline.json: any rise in a visibility percentile or
## a delay, unnecessary-delay or discard count fails. The scorecard goes
## to smoke-scorecard.json.
smoke:
	$(GO) run ./cmd/dsmbench -exp smoke \
		-baseline BENCH_baseline.json -json smoke-scorecard.json

## audit-bench: the offline-checker scaling gate — one pass over the
## BenchmarkAudit ladder, the fast-vs-dense equivalence property test
## under the race detector, then the audit-scale scorecard gated
## against the committed BENCH_checker.json baseline (fails when any
## shared trace size audits >20% slower or reports more delays). The
## 1M rung of the baseline is measurement-only and is ignored by the
## gate.
audit-bench:
	$(GO) test -run '^$$' -bench '^BenchmarkAudit$$' -benchtime=1x ./internal/checker
	$(GO) test -race -run 'TestPropertyAuditEquivalence|TestPropertyFastDenseEquivalence' \
		./internal/checker ./internal/history
	$(GO) run ./cmd/dsmbench -exp audit-scale \
		-baseline BENCH_checker.json -json audit-scorecard.json

## metadata-bench: the causality-metadata codec gate — the E-metadata
## sweep (clock/wire bytes and codec time per update on OptP
## steady-state streams at P ∈ {8, 64, 256}), gated against the
## committed BENCH_metadata.json baseline — fails when clock bytes
## regress >20% or codec time more than triples at any (procs, mode)
## cell, or when delta and auto stop halving the clock bytes at 64
## processes.
metadata-bench:
	$(GO) run ./cmd/dsmbench -exp metadata \
		-baseline BENCH_metadata.json -json metadata-scorecard.json

## replication-bench: the partial-replication gate — the E-partial
## sweep (update copies per write, stored variables per process,
## metadata bytes and read-forwarding counts across replication
## factors r at P ∈ {8, 16}), gated against the committed
## BENCH_replication.json baseline — fails when fan-out or metadata
## bytes regress >20% at any (procs, r) cell, or when the headline
## claim breaks: at 16 processes with r = 4, ≤4 msgs/write and a
## ≥3.5× per-process storage reduction vs full replication.
replication-bench:
	$(GO) run ./cmd/dsmbench -exp partial \
		-baseline BENCH_replication.json -json replication-scorecard.json

## conformance: the session suite over real client connections, under
## the race detector: what each session saw is audited as a causal-
## memory history with one process per session — includes the negative
## case that proves the audit catches a token-less (guarantee-less)
## session.
conformance:
	$(GO) test -race -count=1 ./internal/conformance

## chaos-conformance: the fault-injection gate — the conformance
## workload (two writer sessions per variable) under three seeds of
## connection chaos (1% kill + stalls + truncation), requiring a
## causally consistent session history with no write completed twice,
## exactly-once frontier accounting, and every call resolving; then the chaos tracing join (TestChaosTracingForensics)
## twenty times, so a join that reads server records before every
## handler has returned (reqtrace.Recorder's drain contract) fails
## here, not once in thirty runs. Race detector on; part of `make check`.
chaos-conformance:
	$(GO) test -race -count=1 -run '^TestChaosConformance$$' ./internal/conformance
	$(GO) test -race -count=20 -run '^TestChaosTracingForensics$$' ./internal/conformance

## flake-census: builds each package's test binary once, runs it
## twenty times (-test.count=20) with two busy loops competing for the
## CPUs, and prints every test that failed at least once with its
## failure count, plus any binary that died before its twenty runs
## (a panic or a timeout). The loops are killed on exit or interrupt.
## Not part of check or ci: it takes tens of minutes on 2 CPUs.
flake-census:
	@dir=$$(mktemp -d); b1=; b2=; \
	trap 'kill $$b1 $$b2 2>/dev/null; rm -rf "$$dir"' EXIT; trap 'exit 130' INT TERM; \
	$(GO) list -f '{{.Dir}} {{.ImportPath}}' ./... > "$$dir/pkgs" || exit 1; \
	while read -r d pkg; do \
		$(GO) test -c -o "$$dir/$$(echo "$$pkg" | tr / _).test" "$$pkg" < /dev/null > /dev/null || exit 1; \
	done < "$$dir/pkgs"; \
	sh -c 'while :; do :; done' & b1=$$!; \
	sh -c 'while :; do :; done' & b2=$$!; \
	while read -r d pkg; do \
		bin="$$dir/$$(echo "$$pkg" | tr / _).test"; [ -x "$$bin" ] || continue; \
		echo "flake-census: $$pkg" >&2; \
		(cd "$$d" && "$$bin" -test.count=20 -test.timeout=60m < /dev/null > "$$dir/log" 2>&1); st=$$?; \
		grep -o -- '--- FAIL: [^ ]*' "$$dir/log" | sed "s|--- FAIL: |$$pkg:|" >> "$$dir/fails"; \
		if [ $$st -ne 0 ] && ! grep -q -- '--- FAIL:' "$$dir/log"; then \
			echo "$$pkg: binary exited $$st before its twenty runs:"; tail -n 5 "$$dir/log"; \
		fi; \
	done < "$$dir/pkgs"; \
	if [ -s "$$dir/fails" ]; then \
		sort "$$dir/fails" | uniq -c | sort -rn | awk '{printf "%2d/20  %s\n", $$1, $$2}'; \
	else \
		echo "flake-census: no test failed"; \
	fi

## vuln: govulncheck over the whole module; skipped quietly when the
## tool isn't installed (it is not vendored and CI may run offline).
vuln:
	@if command -v govulncheck >/dev/null 2>&1; then \
		govulncheck ./...; \
	else \
		echo "vuln: govulncheck not installed, skipping"; \
	fi

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

## fmt-check: gofmt must have nothing to say about any file in the
## module or in the nested benchmark module.
fmt-check:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "fmt-check: gofmt -l lists:"; echo "$$out"; exit 1; \
	fi

## varint-guard: every decoder of outside bytes reads through
## internal/varint's Reader, so binary.Uvarint( and binary.Varint( may
## appear in non-test code there alone — a hand-rolled decoder, with
## its own bounds and error threading, cannot grow back.
varint-guard:
	@out="$$(grep -rn --include='*.go' --exclude='*_test.go' \
		-e 'binary\.Uvarint(' -e 'binary\.Varint(' . | grep -v '^\./internal/varint/')"; \
	if [ -n "$$out" ]; then \
		echo "varint-guard: raw varint reads outside internal/varint:"; echo "$$out"; exit 1; \
	fi

test:
	$(GO) test ./...

## bench-smoke: the repo benchmark (BENCHMARK.json) lives in bench/, a
## module of its own compiled against this tree, so `go build ./...`
## here never sees it. Vet and test it, then run each of the five
## workloads for a second, the one that journals (embed-wan) with
## tracing on: a change under internal/ that stops bench/ compiling, or
## makes any workload fail its audit and exit non-zero, fails this gate
## before it fails the benchmark run (~15 s).
bench-smoke:
	cd bench && $(GO) vet ./... && $(GO) test ./...
	for w in serve-write serve-read serve-open embed-fifo; do \
		bash bench/run.sh --workload $$w --seed 1 --seconds 1 --trace 0 || exit 1; \
	done
	bash bench/run.sh --workload embed-wan --seed 1 --seconds 1 --trace 1

## race: race-detector pass over the library; short mode keeps the
## soak and wide-sweep tests out of the hot path.
race:
	$(GO) test -race -short ./internal/...

## transport-stress: the delivery-queue, Flush/Close and reliability
## tests twenty times under the race detector (among them the lane
## runner's contract: Close and Flush wait for a handler that Inline's
## SendAll runs on its caller's goroutine, a Send from that handler
## queues, and frames sent meanwhile follow it in order —
## TestCloseWaitsForInlineRunner, TestFlushWaitsForInlineRunner,
## TestInlineHandlerSendQueues, TestInlineRunnerHandsOffInOrder), then
## the frame writer every serving connection shares (combining, per-sender order,
## exactly-once, the sticky error, queued frames leaving with a Flush or
## a concurrent writer, a queue at its bound written by its own caller)
## twenty times too, then the serving tier's lifecycle tests (Shutdown's
## drain, Close, a write to a crashed replica, the pipeline tests:
## out-of-order completion, sessions hopping replicas on one connection
## that read their own writes, the cap on parked requests, a retry
## parked behind its first attempt; responses flushed before the read
## loop blocks, concurrent writes each answered with their own write)
## twenty times, since the read loop serves and issues writes straight
## into the replica while Shutdown drains and parked requests write
## the same socket — a scheduler race that needs an unlucky
## interleaving must not hide behind one pass; then the client's
## deadline and call-reuse guards (a silent server times a call out
## and leaves nothing pending, an abandoned call's late response
## reaches no later call, Close leaves no client goroutine), since one
## timer per client and its read loop race to deliver a call's
## verdict, and the lock-free stage clock's own tests, twenty times
## each (~50 s).
transport-stress:
	$(GO) test -race -count=20 ./internal/transport/
	$(GO) test -race -count=20 -run 'FrameWriter' ./internal/protocol
	$(GO) test -race -count=20 -run 'TestShutdown|TestCloseAbortsWaits|TestWriteToCrashedReplicaFails|TestPipeline|TestInlineResponsesFlushBeforeBlockingRead|TestWriteResponseNamesItsWrite' ./internal/service
	$(GO) test -race -count=20 -run 'TestSilentServerCallTimesOut|TestAbandonedResponseReachesNoOtherCall|TestCloseLeavesNoClientGoroutine' ./internal/client
	$(GO) test -race -count=20 ./internal/obs/reqtrace

## core-stress: the live cluster's chaos and crash/restart property
## tests twenty times under the race detector, every live protocol
## kind, plus the asynchronous catch-up after a restart (partial
## replication, TCP, its frame volume, the sole-copy push), the failure
## detector's liveness summaries (over TCP, across a partition, never
## answered) and forwarded reads whose server crashes: each run audits
## the whole journal right after Quiesce, so a trace event lost to an
## unlucky interleaving fails it. The Quiesce accounting's tests run
## with them: its owner-written rows must equal the trace after
## Quiesce, a poll must never call a ring with a write in flight
## quiescent, and the rows must keep to their own cache lines. Then
## the trace journal's own tests, twenty times under the race detector
## too: concurrent single and pair appenders, snapshots taken while
## they run, and the interleavings a snapshot must wait out (~60 s on
## 2 CPUs).
core-stress:
	$(GO) test -race -count=20 -run 'TestChaosPropertyAllProtocols|TestCrashRestartAllProtocols|TestCatchUp|TestClusterOverTCPCrashRestart|TestClusterOverTCPHeartbeat|TestHeartbeatPartitionSuspects|TestHeartbeatSummaryNeverAnswered|TestPartialReadFailsOnServerCrash|TestAccounting|TestQuiesceCollectsTwice' ./internal/core
	$(GO) test -race -count=20 -run TestJournal ./internal/trace

## bench: the experiment sweeps as runnable benchmarks.
bench:
	$(GO) test -bench=. -benchtime=1x -run=^$$ ./internal/...

## fuzz: a brief fuzzing burst on the scenario parser (corpus seeds
## under internal/scenario/testdata replay in plain `make test`).
fuzz:
	$(GO) test -fuzz=FuzzParse -fuzztime=10s ./internal/scenario

## fuzz-smoke: short fuzzing bursts on every decoder of outside bytes —
## the clock codecs, the serving-tier wire codec, the inter-replica
## update codec (plain, and the stateful delta/stab link decoder), the
## frame reader every socket shares, the WAL segment reader, the replica
## state decoder its snapshots go through and the snapshot tail (pending
## updates and catch-up archive). Each target asserts the one contract
## of varinttest.Check. The committed seed corpora under
## internal/{vclock,protocol,durability,core}/testdata/fuzz replay in
## plain `make test`, so past crashers stay fatal; this target
## additionally mutates for a few seconds per target.
fuzz-smoke:
	$(GO) test -fuzz '^FuzzDecodeClock$$' -fuzztime=5s -run '^$$' ./internal/vclock
	$(GO) test -fuzz '^FuzzWireRequest$$' -fuzztime=5s -run '^$$' ./internal/protocol
	$(GO) test -fuzz '^FuzzWireResponse$$' -fuzztime=5s -run '^$$' ./internal/protocol
	$(GO) test -fuzz '^FuzzWireToken$$' -fuzztime=5s -run '^$$' ./internal/protocol
	$(GO) test -fuzz '^FuzzDecodeUpdate$$' -fuzztime=5s -run '^$$' ./internal/protocol
	$(GO) test -fuzz '^FuzzUpdateDecoder$$' -fuzztime=5s -run '^$$' ./internal/protocol
	$(GO) test -fuzz '^FuzzReadFrame$$' -fuzztime=5s -run '^$$' ./internal/protocol
	$(GO) test -fuzz '^FuzzRestoreState$$' -fuzztime=5s -run '^$$' ./internal/protocol
	$(GO) test -fuzz '^FuzzRecoverSegment$$' -fuzztime=5s -run '^$$' ./internal/durability
	$(GO) test -fuzz '^FuzzSnapshotTail$$' -fuzztime=5s -run '^$$' ./internal/core

clean:
	$(GO) clean ./...
	rm -f smoke-scorecard.json audit-scorecard.json metadata-scorecard.json replication-scorecard.json
