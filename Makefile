GO ?= go

.PHONY: check fmt build vet test race svcbench-check fuzz bench bench-json bench-delta serve triage chaos fleet restart-smoke resume-smoke disk-smoke svcbench-smoke

# Tier-1 gate: everything CI and pre-commit must hold.
check: fmt build vet race svcbench-check

# Formatting gate: gofmt must have nothing to rewrite anywhere in the
# tree, the nested svcbench module included.
fmt:
	test -z "$$(gofmt -l .)"

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# The nested svcbench module builds against this checkout's lcmserver
# and reads /healthz keys by name, so a change that breaks it must fail
# here too, not only when the service benchmark runs.
svcbench-check:
	cd svcbench && $(GO) vet ./... && $(GO) test ./...

# Short fuzz pass over the parser, its equivalence with the reference
# parsers it replaced, the structural cut the server splits every module
# request with (FuzzChunks: held to the reference loose split, ParseModule
# and Parse), and the hardened pipeline. Each -fuzz pattern is anchored:
# go test fuzzes only a pattern that matches one target.
# -fuzzminimizetime bounds how long a new interesting input is minimized:
# under go's default of 60 s a target stops executing once it starts
# minimizing one, and reads 0 execs/s for the rest of its 30 s window.
fuzz:
	$(GO) test -run=NONE -fuzz='^FuzzParse$$' -fuzztime=30s -fuzzminimizetime=2s ./internal/textir
	$(GO) test -run=NONE -fuzz='^FuzzParseEquiv$$' -fuzztime=30s -fuzzminimizetime=2s ./internal/textir
	$(GO) test -run=NONE -fuzz='^FuzzChunks$$' -fuzztime=30s -fuzzminimizetime=2s ./internal/textir
	$(GO) test -run=NONE -fuzz='^FuzzPipeline$$' -fuzztime=30s -fuzzminimizetime=2s ./internal/textir

bench:
	$(GO) test -bench=. -benchmem

# Machine-readable benchmark numbers: ns/op and allocs/op per benchmark,
# written to BENCH_lcm.json (see the Performance section in README.md).
# The solver-core benchmarks (T4, T4b, SolveScratch) automatically get a
# second pass at a fixed -core-benchtime so their recorded numbers are
# multi-iteration averages with honest run counts, not one noisy sample.
# Override BENCHTIME for stabler numbers elsewhere, e.g.
#   make bench-json BENCHTIME=100x
BENCHTIME ?= 1x
bench-json:
	$(GO) run ./cmd/lcmbench -benchtime $(BENCHTIME) -o BENCH_lcm.json ./...

# Benchmark regression gate: re-measure the T4/T4b solver-cost
# benchmarks and fail when ns/op regressed more than MAX_REGRESS percent
# against the committed BENCH_lcm.json. CI runs this on every push; a PR
# that legitimately trades solver speed for something else overrides the
# gate by carrying the `bench-delta-override` label (CI skips the step)
# or locally with e.g.
#   make bench-delta MAX_REGRESS=60
# After an intentional performance change, refresh the baseline with
# `make bench-json` and commit the new BENCH_lcm.json.
MAX_REGRESS ?= 25
bench-delta:
	$(GO) run ./cmd/lcmbench -bench '^$$' -o /tmp/BENCH_fresh.json \
		-baseline BENCH_lcm.json -max-regress $(MAX_REGRESS) .

# Service benchmark smoke: build lcmd, lcmgate and svcbench from this
# checkout and run every workload once (seed 1, 15 s each). Every
# workload runs; the target fails if any run exits non-zero — a failed
# output check, a server that will not start, or a sample check the run
# cannot meet. Shorter windows starve warm_edit's p95 sample check.
# Build outputs stay under .bench_build.
svcbench-smoke:
	status=0; for w in cold_mixed warm_edit durable_stream warm_edit_gate; do \
		bash svcbench/run.sh --workload $$w --seed 1 --seconds 15 || { echo "svcbench-smoke: $$w failed"; status=1; }; \
	done; exit $$status

# Run the optimization server (see the lcmd section in README.md).
serve:
	$(GO) run ./cmd/lcmd

# Service-level chaos soak under the race detector: latency, worker
# stalls, induced panics, buggy passes, and cache corruption injected
# against the full lcmd server while the accounting, quarantine, and
# no-goroutine-leak invariants are asserted. Crashers captured during
# the soak land in _quarantine/chaos for triage. The directory starts
# empty: the soak's faults are seeded and capture dedupes by content, so
# a re-run into an earlier run's captures would capture nothing new.
chaos:
	rm -rf _quarantine/chaos
	mkdir -p _quarantine/chaos
	LCM_CHAOS_QUARANTINE=$(CURDIR)/_quarantine/chaos \
		$(GO) test -race -run 'TestChaos' -count=1 -v ./internal/lcmserver/

# Fleet-level chaos soak under the race detector: three lcmd backends
# behind the lcmgate router while one backend is killed and another
# partitioned mid-soak. Asserts exact per-backend accounting, breaker
# isolation of the dead backend, byte-identical results from whichever
# replica answers, explicit Retry-After on every shed, and zero
# goroutine leaks. The gateway routing log lands in _quarantine/fleet.
fleet:
	mkdir -p _quarantine/fleet
	LCMGATE_SOAK_LOG=$(CURDIR)/_quarantine/fleet/gateway.log \
		$(GO) test -race -run 'TestFleet' -count=1 -v ./cmd/lcmgate/

# Crash-restart soak under the race detector (-short windows): three
# lcmd backends with durable caches behind the gateway while one backend
# is killed and revived twice — the second time over a deliberately
# bit-flipped cache directory. Asserts disk-served answers byte-identical
# to computed ones, corruption counted and never served, exact
# per-generation accounting across revivals, and breaker-driven
# re-routing while the node is down. The cache directories and routing
# log land in _cache/restart for inspection.
restart-smoke:
	mkdir -p _cache/restart
	LCM_RESTART_CACHE=$(CURDIR)/_cache/restart \
	LCMGATE_SOAK_LOG=$(CURDIR)/_cache/restart/gateway.log \
		$(GO) test -race -short -run 'TestFleetWarmRestart' -count=1 -v ./cmd/lcmgate/

# Crash-resume soak under the race detector: a client streams a
# resumable batch job while the server behind it is killed mid-batch
# twice; each revived generation runs over the same journal and durable
# cache. Asserts that no finished function is ever recomputed (counted
# per generation), admission accounting balances inside every
# generation, and the resumed result is byte-identical to an
# uninterrupted run. The journal and cache tiers land in _cache/resume
# for inspection.
resume-smoke:
	mkdir -p _cache/resume
	LCM_RESUME_DIR=$(CURDIR)/_cache/resume \
		$(GO) test -race -short -run 'TestResumeSoakKillMidBatch' -count=1 -v ./internal/lcmserver/

# Hostile-storage soak under the race detector (-short windows): three
# lcmd backends behind the gateway while backend 0's filesystem cycles
# through an ENOSPC storm, EIO on reads, multi-second fsync stalls, and
# torn renames via the internal/vfs fault injector. Asserts every 200
# byte-identical to a healthy reference, the disk tier self-quarantines
# (new ?job= refused with the journal_degraded contract) and re-enables
# via the background probe, stalled fsyncs bounded by the IO deadline,
# and exact admission accounting. The injected-fault log and gateway
# routing log land in _cache/diskchaos for inspection.
disk-smoke:
	mkdir -p _cache/diskchaos
	LCM_DISK_CHAOS_DIR=$(CURDIR)/_cache/diskchaos \
	LCMGATE_SOAK_LOG=$(CURDIR)/_cache/diskchaos/gateway.log \
		$(GO) test -race -short -run 'TestDiskChaosSoak' -count=1 -v ./cmd/lcmgate/

# Corpus hygiene gate: every crasher in testdata/crashers must be
# minimal, signatures must be unique, and recorded sidecars must match
# what actually replays. Fix failures with: go run ./cmd/lcmtriage
triage:
	$(GO) run ./cmd/lcmtriage -check -dir testdata/crashers
