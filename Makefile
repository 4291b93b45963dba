GO ?= go

.PHONY: ci fmt build test vet lint fuzz race chaos churn-soak backpressure allocs bench bench-smoke trace-smoke examples-smoke

# ci is the tier-1 gate: everything here must pass before a change lands.
ci: fmt vet lint build test backpressure allocs bench-smoke trace-smoke examples-smoke fuzz race chaos

# Linter fixtures under internal/lint/testdata deliberately contain
# rule-violating code; they are exercised by the linter's own tests, not
# by the formatting gate.
fmt:
	@out="$$(find . -name '*.go' -not -path './internal/lint/testdata/*' -print0 | xargs -0 gofmt -l)"; \
	if [ -n "$$out" ]; then echo "gofmt needed on:"; echo "$$out"; exit 1; fi

vet:
	$(GO) vet ./...

# lint runs ioverlayvet, the repo's own invariant linter — three checks on
# the whole-program call graph, each kept because a seeded bug it catches
# gets past every test (DESIGN.md, "Checked invariants"): algorithm
# purity, hot-path hygiene and lock ordering. Any finding is a build
# break, fixed and never suppressed; per-check timings go to stderr.
lint:
	$(GO) run ./cmd/ioverlayvet -timing ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# fuzz replays the committed seed corpora (already covered by `test`) and
# then gives each wire-format fuzzer a short randomized smoke. Crashers
# land in testdata/fuzz and must be committed as regression inputs.
FUZZTIME ?= 10s
fuzz:
	@for f in FuzzAllPayloadDecoders FuzzReaderPrimitives; do \
		$(GO) test ./internal/protocol -run='^$$' -fuzz="^$$f$$" -fuzztime=$(FUZZTIME) || exit 1; done
	@for f in FuzzDecode FuzzRead FuzzReadContinued FuzzWireRoundTrip FuzzDgramDecode; do \
		$(GO) test ./internal/message -run='^$$' -fuzz="^$$f$$" -fuzztime=$(FUZZTIME) || exit 1; done

# The concurrency-heavy packages additionally run under the race
# detector: the batched ring handoffs, engine switch, and virtual-network
# pipes are where a lost wakeup or torn batch would hide, and the front
# door and control links (admission, observer, proxy) are where a teardown
# race would. Every goroutine of a node writes the flight recorder's
# lock-free slots, the histograms and the mutex counters (trace, metrics).
# The
# ioverlay_debug tag arms the internal/invariant runtime assertions
# (engine-goroutine ownership, gauge non-negativity, a zero gauge after
# Stop) so a violated invariant fails the run instead of corrupting it.
# That build never recycles a message struct, so the two packages that
# own the recycling run once more without the tag: there a message touched
# after its last reference was dropped is a data race with its next life,
# which the detector sees.
# The seam between the fast paths and the rings — who holds the turn token,
# what an inline write may pass — depends on which goroutine gets there
# first, so its tests and the restated single-thread contract run again at
# three core counts, with and without the assertions: among them, that a
# link's LinkUp reaches the algorithm before its data, and that a parked
# backlog drains on the sender goroutines' wake-ups alone. So does the Dialer's
# seam — a Close racing the Dial it must interrupt — on a sender link and
# on the observer link; and the engine goroutine's inbox: its bound holds a
# poster until Stop, and control parked behind a full lane keeps its order.
SEAM = TestProcessStaysSerialized|TestUnloadedHopTakesFastPath|TestInlineWriteTailKeepsFIFO|TestHeldBatchBlocksInlineWrite|TestHeldDatagramBatchBlocksInlineWrite|TestControlAheadOnTheWireBeatsInlineData|TestLinkUpPrecedesFirstData|TestParkedBacklogDrainsWithoutTraffic|TestInlineWriteErrorKillsLinkOnce|TestDepartWaitsOutAHeldBatch|TestGaugeReconcilesAfterStop|TestControlOvertakes|TestStagedOutputKeepsOrderAcrossPark|TestStopInterruptsDialAwaitingReply|TestCloseLinkInterruptsDialAwaitingReply|TestMuteObserverHoldsNeitherStartNorStop|TestInboxBoundHoldsPostersUntilStop|TestParkedControlKeepsOrder|TestFastPathReturnsAfterSetUpBurst
race:
	$(GO) test -race -tags ioverlay_debug ./internal/queue ./internal/engine ./internal/vnet \
		./internal/admission ./internal/observer ./internal/proxy ./internal/trace ./internal/metrics
	$(GO) test -race ./internal/message ./internal/engine
	$(GO) test -race -tags ioverlay_debug -count=1 -cpu 1,2,4 -run '$(SEAM)' ./internal/engine
	$(GO) test -race -count=1 -cpu 1,2,4 -run '$(SEAM)' ./internal/engine

# The fault-injection soaks: a seeded chaos schedule (kills, restarts,
# partitions, flaky links) against a live 16-node multicast session,
# ending with a saturated round — interior kills while every receiver
# uplink is throttled below the stream rate — plus the observer-failover
# round, where a 3-observer federated tier is killed member by member
# under node churn, and the dial-storm round, where half-open connection
# floods hammer the stream's listeners while the admission gate sheds
# them. Runs with assertions armed.
chaos:
	$(GO) test -race -tags ioverlay_debug -run Chaos ./internal/chaos/...

# churn-soak is the command behind the churn numbers in EXPERIMENTS.md:
# fifteen paper-scale churn sweeps (bursts of 1..8 interior kills each,
# 120 bursts in all), counting the bursts that never healed and summing
# the fed-twice column. A TIMEOUT row is followed by the stuck nodes and
# fails the target. It takes minutes, so it is opt-in and not part of ci.
churn-soak:
	@for i in 1 2 3 4 5 6 7 8 9 10 11 12 13 14 15; do \
		$(GO) run ./cmd/ibench -exp churn -full || exit 1; \
	done | awk '{ print } \
		$$NF == "recovered" || $$NF == "TIMEOUT" { bursts++; fed += $$6 } \
		$$NF == "TIMEOUT" { timeouts++ } \
		END { printf "churn-soak: %d bursts, %d TIMEOUT, fed-twice sum %d\n", bursts, timeouts, fed; exit timeouts > 0 }'

# backpressure runs the paper's Fig 6/7 panels — the back-pressure
# contract — at core counts the host does not select on its own: `test`
# already runs them at the host's GOMAXPROCS.
backpressure:
	$(GO) test -count=1 -cpu 1,4 -run 'TestFig6BackPressureCorrectness|TestFig7LargeBuffersLocalize' ./internal/experiments

# allocs runs the allocation tripwires five times over: a hop, a link's
# build and teardown, a vnet connection's dial, accept, use and close, a
# status tick, an injection, a datagram read, the pipe buffer a
# handshake-only vnet connection holds, an idle engine, and a fresh
# engine's first link and delivery. Most read a process-wide
# counter, so a bound that holds only sometimes fails here rather than in
# somebody else's run.
ALLOCS = TestHopAllocatesNothing|TestLinkCycleAllocations|TestDialAcceptAllocations|TestStatusTickAllocatesNothing|TestDoAllocatesNothing|TestDgramSteadyReadsAllocateNothing|TestPipeFootprintOfAHandshake|TestIdleEngineFootprint|TestFreshEngineReusesBuffers
allocs:
	$(GO) test -count=5 -run '$(ALLOCS)' ./internal/engine ./internal/vnet

# trace-smoke proves the flight-recorder pipeline end to end with fresh
# runs (-count=1 defeats the test cache): events recorded on a live
# engine, shipped inside status reports, and assembled by the observer
# into a merged cross-node timeline with populated lane histograms.
trace-smoke:
	$(GO) test -count=1 -run 'TestTrace' ./internal/engine
	$(GO) test -count=1 -run 'TestTimelineAggregation' ./internal/observer

# bench-smoke runs the repository benchmark's own tests. bench/ is a
# separate Go module, so `go test ./...` from the root never reaches it;
# this is the gate that keeps an engine change from breaking it unnoticed.
# It also runs each root benchmark EXPERIMENTS.md cites once, so they
# cannot rot either.
bench-smoke:
	cd bench && $(GO) test ./...
	$(GO) test -run '^$$' -bench . -benchtime 1x .

# examples-smoke runs every example program to completion: they are main
# packages, so `test` only ever compiles them.
examples-smoke:
	@for d in examples/*/; do \
		echo "go run ./$$d"; \
		$(GO) run ./$$d > /dev/null || exit 1; \
	done

# bench runs the root benchmarks EXPERIMENTS.md cites — the §2.4 engine
# measurements and the design ablations — at full length. cmd/ibench
# regenerates the paper's tables and figures; bench/ is the layer-by-layer
# benchmark.
bench:
	$(GO) test -bench=. -benchmem -run=^$$ .
