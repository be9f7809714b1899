# Convenience targets; everything is plain `go` underneath.

GO ?= go

.PHONY: all build test race bench bench-compare experiments quick-experiments fuzz serve chaos soak cluster-soak partition-soak fmt-check clean

all: build test

build:
	$(GO) build ./...
	$(GO) vet ./...

# Formatting gate: fails listing any file gofmt would rewrite.
fmt-check:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then echo "gofmt needed:"; echo "$$out"; exit 1; fi

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

bench:
	$(GO) test -bench=. -benchmem ./...

# Per-row verdict between two matchbench run records (`matchbench -out FILE`),
# e.g. the parent commit's and this checkout's:
#   make bench-compare OLD=/tmp/parent.json NEW=/tmp/change.json
bench-compare:
	@test -n "$(OLD)" -a -n "$(NEW)" || { echo "usage: make bench-compare OLD=old.json NEW=new.json"; exit 2; }
	$(GO) run ./benchmark/cmd/matchbench -compare $(OLD) $(NEW)

# The paper's reproduction, E1–E14 (work/depth tables; EXPERIMENTS.md). The
# service is measured by matchbench (bench-compare above), not here.
experiments:
	$(GO) run ./cmd/benchtab | tee experiments_raw.txt

quick-experiments:
	$(GO) run ./cmd/benchtab -quick

fuzz:
	$(GO) test -fuzz FuzzBuildInvariants -fuzztime 30s -fuzzminimizetime 2s ./internal/suffixtree/
	$(GO) test -fuzz FuzzRoundTrip -fuzztime 30s -fuzzminimizetime 2s ./internal/lz/
	$(GO) test -fuzz FuzzDecodeStream -fuzztime 30s -fuzzminimizetime 2s ./internal/lz/
	$(GO) test -fuzz FuzzHandleRequests -fuzztime 30s -fuzzminimizetime 2s ./internal/server/
	$(GO) test -fuzz FuzzTextPayload -fuzztime 30s -fuzzminimizetime 2s ./internal/server/
	$(GO) test -fuzz FuzzStreamEquivalence -fuzztime 30s -fuzzminimizetime 2s ./internal/stream/
	$(GO) test -fuzz FuzzSnapshotDecode -fuzztime 30s -fuzzminimizetime 2s ./internal/persist/
	$(GO) test -fuzz FuzzDenseEquivalence -fuzztime 30s -fuzzminimizetime 2s ./internal/dense/
	$(GO) test -fuzz FuzzCursorEquivalence -fuzztime 30s -fuzzminimizetime 2s ./internal/dense/
	$(GO) test -fuzz FuzzCzsearchEquivalence -fuzztime 30s -fuzzminimizetime 2s ./internal/czsearch/

# Flags: -addr :8080 -procs N -max-dicts N -max-inflight N -timeout 30s
serve:
	$(GO) run ./cmd/matchd $(SERVE_FLAGS)

# Fault-injection suite: the chaos build tag compiles the internal/chaos
# hooks live (without it every injection point is a compiled-out no-op) and
# runs the per-package chaos_test.go suites plus the e2e server test under
# the race detector.
chaos:
	$(GO) test -tags chaos -race ./...

# 30-second black-box soak: a chaos-built matchd under a fixed seed, oracle-
# verified concurrent traffic, SIGTERM drain check. SOAK_FLAGS appends, e.g.
# SOAK_FLAGS='-duration 5m -seed 7'.
soak:
	$(GO) build -tags chaos -o /tmp/matchd-chaos ./cmd/matchd
	$(GO) run ./cmd/chaossoak -bin /tmp/matchd-chaos -duration 30s -seed 42 $(SOAK_FLAGS)

# 30-second 3-node cluster soak: one node SIGKILLed mid-traffic and
# restarted warm, oracle-verified requests through every node throughout,
# replication pulls asserted, clean SIGTERM drains. The kill is the fault
# schedule, so a plain (non-chaos) build suffices.
cluster-soak:
	$(GO) build -o /tmp/matchd ./cmd/matchd
	$(GO) run ./cmd/chaossoak -bin /tmp/matchd -cluster 3 -duration 30s -seed 42 $(SOAK_FLAGS)

# 30-second 3-node partition soak: the primary owner is asymmetrically
# partitioned for the middle third (every other node's transport refuses
# its connections; the victim itself stays healthy and sees nothing),
# oracle-verified traffic throughout, breaker open→half-open→closed
# lifecycle and stale/rerouted serving asserted from /metrics. Bounded
# well under 90s end to end.
partition-soak:
	$(GO) build -o /tmp/matchd ./cmd/matchd
	$(GO) run ./cmd/chaossoak -bin /tmp/matchd -cluster 3 -partition -duration 30s -seed 42 $(SOAK_FLAGS)

clean:
	rm -rf internal/*/testdata/fuzz
