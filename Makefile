# Convenience targets. `make bench` gates the microbenchmarks on the
# tier-1 build + test suite so a perf number is never reported for a
# broken tree; it writes BENCH_10.json next to this Makefile.

.PHONY: all build test check lint race-lint bench bench-selftest shard \
  shard-smoke shard-migrate-smoke reloc-smoke ci-determinism clean

all: build

build:
	dune build

test: build
	dune runtest

# Crash-consistency certification: every persistence configuration over
# every structure, plus the save-protocol sweep. Deterministic from the
# seed; exits non-zero on any violation.
check: build
	dune exec bin/wsp_sim.exe -- check --points 1000 --seed 42 --protocol

# Static persistency-ordering lint over every registered workload. The
# seed workloads are certified clean except for two known redundant-
# trailing-fence advisories, hence the R3 allowlist.
lint: build
	dune exec bin/wsp_sim.exe -- lint --expect R3

# Cross-domain persistency race gate: the concurrent Delay-Free
# registry under the vector-clock rules R6-R9 (clean and racy, with
# the racy convictions allowlisted per structure), job-width JSON
# determinism, and the shard service's race lint — clean migration
# passes, the tombstone-first sabotage is convicted both statically
# (R8) and dynamically (crash sweep).
race-lint: build
	sh scripts/race_lint.sh

bench: test
	dune exec bench/main.exe -- --micro --json

# Benchmark self-test: every perfbench workload at smoke size, untraced
# and traced. Its golden digests pin the simulated outputs (Table 1,
# Figure 5, protocol rows, shard report, checker and lint JSON), so any
# change to simulated behaviour fails here. About two minutes.
bench-selftest:
	python3 perfbench/run.py --self-test

# The sharded directory service at acceptance scale: 16 shards, a
# million closed-loop requests, a mid-run power failure and per-shard
# restore. Exits non-zero if any acknowledged write is lost.
shard: build
	dune exec bin/wsp_sim.exe -- shard --shards 16 --clients 1024 \
	  --queue-cap 1024 --requests 1000000 --keyspace 50000 --crash-at 500

# Bounded shard + storm gate: job-width JSON determinism, lossless
# mid-run crash/restore (plain-WSP and undo-logged), and a seed-
# deterministic 1500-node storm sweep.
shard-smoke: build
	sh scripts/shard_smoke.sh

# Live-topology gate: grow + shrink drain losslessly, a single shard's
# power failure spares the rest (and books the availability dip), the
# mid-migration crash sweep recovers every injected persistency event,
# and the combined worst case is job-width deterministic.
shard-migrate-smoke: build
	sh scripts/shard_migrate_smoke.sh

# Relocatable-image gate: image-shipping migration is golden-equal to
# the key drain (and job-width deterministic), the mid-migration crash
# sweep holds with shipping in flight, and the checker and static
# analyzer agree on the msync backend — clean registry cleared, broken
# fences convicted by both.
reloc-smoke: build
	sh scripts/reloc_smoke.sh

# Determinism gate: the checker's incremental engine must produce
# byte-identical JSON to the full-replay reference, lint must produce
# byte-identical JSON at any job width, and the record-once lint
# fan-out must not be slower in parallel (j4 wall <= 1.5x j1).
ci-determinism: build
	sh scripts/ci_determinism.sh

clean:
	dune clean
