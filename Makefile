# Development targets; CI runs `make ci` (see .github/workflows/ci.yml).

.PHONY: ci check race test cover bench bench-json loadtest chaos protocol-compat cluster crashtest sweep holoop perfbench-test

# CI umbrella: everything the merge gate needs, cheapest signal first.
ci: check race cover

# Static gate plus the smokes: vet, formatting, a full build, the fast
# test suite, the benchmark module's vet + tests, and finally the
# expensive chaos fleet. Ordering matters — a unit-test failure should
# surface in seconds, not after a 5s race-instrumented fleet run.
check:
	go vet ./...
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt -l found unformatted files:"; echo "$$out"; exit 1; \
	fi
	go build ./...
	go test -short ./...
	$(MAKE) perfbench-test
	$(MAKE) chaos
	$(MAKE) cluster
	$(MAKE) crashtest
	$(MAKE) sweep
	$(MAKE) holoop

# Race-enabled short suite: guards the parallel experiment engine. The
# experiments package trims to a fast experiment subset under the race
# build tag to keep the detector's overhead inside test timeouts.
race:
	go test -race -short ./...

# The benchmark module (perfbench/) has its own go.mod, so the root
# module's vet, test and staticcheck never reach it: a change to the API
# it calls (cluster.Ship/ShipReplicas/ProbeStats, server.Options, Stats
# fields) would otherwise break the benchmark unnoticed. Its tests run
# every workload briefly through the correctness gate (~15s).
perfbench-test:
	cd perfbench && go vet ./... && go test -count=1 ./...

test:
	go test ./...

# Coverage gate: the full suite must keep total statement coverage at or
# above COVER_FLOOR. Raise the floor when coverage durably improves;
# never lower it to make a PR pass. (Measured 80.3% when the gate was
# introduced; floored at 80.0 to absorb sub-tenth noise from timing-
# dependent paths.)
COVER_FLOOR ?= 80.0
cover:
	go test -count=1 -coverprofile=cover.out ./...
	@total=$$(go tool cover -func=cover.out | awk '/^total:/ {sub(/%/, "", $$3); print $$3}'); \
	echo "total coverage: $$total% (floor $(COVER_FLOOR)%)"; \
	awk -v t="$$total" -v f="$(COVER_FLOOR)" 'BEGIN { exit (t+0 >= f+0) ? 0 : 1 }' || \
		{ echo "FAIL: coverage $$total% fell below the $(COVER_FLOOR)% floor"; exit 1; }

bench:
	go test -bench=. -benchmem

# Serving-path smoke fleet: a short open-loop run under the race detector
# against an in-process server. Fails (exit 1) on any session error.
loadtest:
	go run -race ./cmd/prognosload -selfserve -ues 64 -duration 10s \
		-mode open -ramp 1s

# Resilience smoke: the 64-UE fleet through the deterministic chaos proxy
# under the race detector. The seeded fault plan mixes RST-style resets and
# fragmented writes (plus stalls, latency, accept failures); prognosload
# exits non-zero on any lost sample or server session error, so this target
# is the replayable proof that reconnect + resume absorbs transport faults.
chaos:
	go run -race ./cmd/prognosload -selfserve -ues 64 -duration 5s \
		-mode open -ramp 1s -chaos -chaos-seed 7 \
		-chaos-reset 0.2 -chaos-partial 0.3 -chaos-stall 0.1 \
		-chaos-latency 0.25 -chaos-accept 0.02

# Cluster smoke: a 64-UE open-loop fleet over an in-process 3-node
# cluster under the race detector, with every node drain-restarted once
# mid-run. prognosload exits non-zero on any lost sample, any session
# error, or a warm-resume ratio below 0.9 — the replayable proof that
# consistent-hash routing plus warm migration survives a rolling restart
# of the whole cluster (EXPERIMENTS.md §Rolling restart).
cluster:
	go run -race ./cmd/prognosload -cluster 3 -ues 64 -duration 5s \
		-mode open -ramp 1s -rolling-restart -min-warm-resume 0.9

# Crash-fault smoke: a 64-UE closed-loop fleet over an in-process 3-node
# cluster under the race detector, with one node hard-killed mid-run (no
# drain — connections RST, the node's local state dies with it) and
# revived empty later. Survival rides on async warm-state replication
# plus detector-confirmed failover (docs/ARCHITECTURE.md §Failure model):
# prognosload exits non-zero on any lost sample, any session error, or a
# warm-resume ratio below 0.9, so this target is the replayable proof of
# the bounded-staleness crash contract.
crashtest:
	go run -race ./cmd/prognosload -cluster 3 -ues 64 -duration 5s \
		-mode closed -framing binary -window 4 -ramp 1s -node-kill \
		-min-warm-resume 0.9

# Wire-protocol interop smoke: a mixed-framing fleet (even UEs binary,
# odd JSONL — see docs/PROTOCOL.md) with a pipelining window, against an
# in-process server under the race detector. Every sample must earn a
# prediction whichever framing carried it; prognosload exits non-zero
# otherwise. CI runs this as its own job.
protocol-compat:
	go run -race ./cmd/prognosload -selfserve -ues 16 -duration 5s \
		-mode closed -ramp 500ms -framing mixed -window 4

# Policy-sweep smoke: a small drift sweep under the race detector. The
# sweep fans generated carriers across workers while each worker runs a
# full sim + online-learner replay, so this also guards the sweep
# runner's per-spec RNG ownership (the -report bytes must be identical
# at any -jobs; the experiments test suite pins that, this target proves
# the CLI path end to end and fails on any per-carrier error).
SWEEP_CARRIERS ?= 8
sweep:
	go run -race ./cmd/vivisect sweep -carriers $(SWEEP_CARRIERS) -drift \
		-seed 1 -drive-seconds 120 -jobs 4

# Closed-loop smoke: the adaptive-vs-static handover comparison as a
# first-class gated scenario, under the race detector. 64 UEs drive the
# city reference loop twice each (identical seed per pair — static
# baseline vs prediction-driven adaptive control); -gate makes vivisect
# exit non-zero unless the adaptive arm's fleet-aggregate ping-pong rate
# is strictly below the static arm's while its in-loop prediction F1
# stays within the epsilon of the offline-replay baseline
# (EXPERIMENTS.md §Closed-loop adaptive handover).
HOLOOP_UES ?= 64
holoop:
	go run -race ./cmd/vivisect holoop -ues $(HOLOOP_UES) \
		-seed 1 -drive-seconds 120 -gate

# Perf trajectory tracking: run the substrate micro-benchmarks plus two
# serving-path fleets and commit the result as BENCH_<utc-date>.json
# (see docs/ARCHITECTURE.md §Performance for how to read and compare the
# files). The open-loop report lands in the envelope under "fleet", the
# closed-loop capacity run (binary framing, window 16 — the serving
# path's headline predictions/s) under "fleet_closed", and the 3-node
# cluster closed-loop pass under "fleet_cluster" (per-node rows, migration
# counters, warm-resume ratio; see EXPERIMENTS.md §Cluster capacity), and
# the node-kill crash pass under "fleet_crash" (failovers, replication
# pushes/bytes, warm-resume ratio through a hard node crash).
# A policy sweep (100 generated carriers with mid-run drift; see
# EXPERIMENTS.md §Policy sweeps) lands under "policy_sweep", so the F1
# floor and re-convergence numbers are tracked commit over commit too,
# and the adaptive-vs-static closed-loop comparison (vivisect holoop)
# under "ho_adaptive", so the ping-pong reduction is as well.
# `date -u` pins the filename to UTC so a nightly run names the same file
# no matter which timezone the runner happens to be in.
BENCH_PATTERN ?= ^(BenchmarkSimFreewayKm|BenchmarkPrognosReplay|BenchmarkPatternMatch)$$
FLEET_REPORT ?= /tmp/benchjson-fleet.json
FLEET_CLOSED_REPORT ?= /tmp/benchjson-fleet-closed.json
FLEET_CLUSTER_REPORT ?= /tmp/benchjson-fleet-cluster.json
FLEET_CRASH_REPORT ?= /tmp/benchjson-fleet-crash.json
SWEEP_REPORT ?= /tmp/benchjson-sweep.json
HOLOOP_REPORT ?= /tmp/benchjson-holoop.json
bench-json:
	go run ./cmd/prognosload -selfserve -ues 64 -duration 10s -mode open \
		-ramp 1s -report $(FLEET_REPORT)
	go run ./cmd/prognosload -selfserve -ues 64 -duration 10s -mode closed \
		-ramp 1s -framing binary -window 16 -report $(FLEET_CLOSED_REPORT)
	go run ./cmd/prognosload -cluster 3 -ues 64 -duration 10s -mode closed \
		-ramp 1s -framing binary -window 16 -report $(FLEET_CLUSTER_REPORT)
	go run ./cmd/prognosload -cluster 3 -ues 64 -duration 10s -mode closed \
		-ramp 1s -framing binary -window 4 -node-kill -min-warm-resume 0.9 \
		-report $(FLEET_CRASH_REPORT)
	go run ./cmd/vivisect sweep -carriers 100 -drift -seed 1 \
		-report $(SWEEP_REPORT)
	go run ./cmd/vivisect holoop -ues 64 -seed 1 -drive-seconds 120 \
		-gate -report $(HOLOOP_REPORT)
	go test -run '^$$' -bench '$(BENCH_PATTERN)' -benchmem . \
		| go run ./tools/benchjson -fleet $(FLEET_REPORT) \
			-fleet-closed $(FLEET_CLOSED_REPORT) \
			-fleet-cluster $(FLEET_CLUSTER_REPORT) \
			-fleet-crash $(FLEET_CRASH_REPORT) \
			-sweep $(SWEEP_REPORT) \
			-holoop $(HOLOOP_REPORT) \
		> BENCH_$$(date -u +%Y-%m-%d).json
	@ls BENCH_$$(date -u +%Y-%m-%d).json
