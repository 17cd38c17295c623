# Convenience targets; `make ci` is what a CI job should run.

.PHONY: all build test ci ci-observability ci-cluster ci-certify bench bench-pairs clean

all: build

build:
	dune build @all

test:
	dune runtest

# CI runs the suite seven times: single-threaded tuple-at-a-time, with
# every Engine.run forced onto 2 domains, with every Engine.run's data
# plane batched at 64, with both knobs combined, with every installed
# query sharded 4 ways across 4 domains, under a seeded chaos spec, and
# under the same chaos spec with sharding on (the test/dune env_var
# deps make the later runs re-execute rather than hit the cache). All
# knobs claim byte-identical output, so the whole suite doubles as
# their determinism check — including the parallel×batched and
# sharded×chaos interactions, which no single-knob pass exercises.
#
# The chaos pass injects only output-preserving faults — a stall on the
# tcpdest cross-domain channel and a one-shot per-peer network delay —
# so every determinism assertion must still hold with the injection
# machinery armed end to end. (Tests that install their own plan export
# it via GIGASCOPE_FAULTS for their scope, so the global spec never
# clobbers them mid-test.) Each pass runs under a hard timeout: the
# failure model's core claim is "never hangs", and CI enforces it by
# turning any wedge into a loud nonzero exit instead of a stuck job.
#
# Before the knob passes, a --quick run of the benchmark checks all
# four bench/perf workloads' outputs against their reference
# computation (the benchmark refuses to run with any GIGASCOPE_*
# variable set, so it cannot join the passes below), and the
# allocation gate (bench/alloc_gate.sh) fails if a workload named in
# bench/alloc_baseline.txt allocates more than 2% more words per
# packet than the value committed there.
CI_TIMEOUT ?= 600
CHAOS_FAULTS = seed=11,stall=tcpdest0->portcounts:2:2,delay=5:2
ci:
	dune build @all
	timeout $(CI_TIMEOUT) dune runtest
	f=$$(mktemp) && timeout $(CI_TIMEOUT) bash bench/perf/run.sh --quick --out "$$f" > /dev/null \
	  && bash bench/alloc_gate.sh "$$f"; s=$$?; rm -f "$$f"; exit $$s
	GIGASCOPE_PARALLEL=2 timeout $(CI_TIMEOUT) dune runtest --force
	GIGASCOPE_BATCH=64 timeout $(CI_TIMEOUT) dune runtest --force
	GIGASCOPE_PARALLEL=2 GIGASCOPE_BATCH=64 timeout $(CI_TIMEOUT) dune runtest --force
	GIGASCOPE_SHARDS=4 GIGASCOPE_PARALLEL=4 timeout $(CI_TIMEOUT) dune runtest --force
	GIGASCOPE_FAULTS="$(CHAOS_FAULTS)" GIGASCOPE_PARALLEL=2 timeout $(CI_TIMEOUT) dune runtest --force
	GIGASCOPE_FAULTS="$(CHAOS_FAULTS)" GIGASCOPE_SHARDS=2 timeout $(CI_TIMEOUT) dune runtest --force
	$(MAKE) ci-observability
	$(MAKE) ci-cluster
	$(MAKE) ci-certify

# The memory-certification gate: every shipped query must carry a
# finite state bound. `gsq explain --memory` prints UNBOUNDED for any
# operator the certifier cannot bound, so grep is the oracle. Then
# every example program re-runs with admission forced to reject,
# proving the gate passes each plan the examples install (an example
# that regresses to an unbounded plan exits nonzero here, not in
# production).
ci-certify:
	set -e; for q in queries/*.gsql; do \
	  dune exec bin/gsq.exe -- explain --memory $$q > .certify.out 2>&1 \
	    || { echo "$$q: explain --memory failed"; cat .certify.out; rm -f .certify.out; exit 1; }; \
	  if grep -q 'UNBOUNDED' .certify.out; then \
	    echo "$$q: unexpected UNBOUNDED verdict"; cat .certify.out; rm -f .certify.out; exit 1; \
	  fi; \
	  echo "certified $$q"; \
	done; rm -f .certify.out
	set -e; for e in examples/*.ml; do \
	  n=$$(basename $$e .ml); \
	  GIGASCOPE_ADMIT=reject timeout 60 dune exec examples/$$n.exe > /dev/null 2>&1 \
	    || { echo "example $$n failed under GIGASCOPE_ADMIT=reject"; exit 1; }; \
	  echo "certified example $$n"; \
	done

# The latency-observability smoke: a short paced soak (the bench exits
# nonzero when loss exceeds the 2% doctrine, gap markers don't conserve
# the server's drop count, or p99 goes insane), then a live scrape of a
# serve --http endpoint — /metrics must expose Prometheus families and
# /queries must list the installed streams, checked with curl like a
# real scraper would. The soak writes BENCH_soak.json into its working
# directory, so it runs in a temporary one: the committed file is
# regenerated only on purpose.
HTTP_SMOKE_PORT ?= 19378
ci-observability:
	d=$$(mktemp -d) && (cd "$$d" && timeout 20 dune exec --root $(CURDIR) bench/main.exe -- soak 4 40); \
	  s=$$?; rm -rf "$$d"; exit $$s
	( dune exec bin/gsq.exe -- serve queries/tcpdest.gsql \
	    --listen 127.0.0.1:0 --http 127.0.0.1:$(HTTP_SMOKE_PORT) \
	    --rate 400 --duration 120 --latency-sample 16 & \
	  echo $$! > .http-smoke.pid; \
	  ok=1; \
	  for i in 1 2 3 4 5 6 7 8 9 10; do \
	    sleep 0.5; \
	    if curl -sf http://127.0.0.1:$(HTTP_SMOKE_PORT)/metrics > .http-smoke.prom; then ok=0; break; fi; \
	  done; \
	  if [ $$ok -eq 0 ]; then \
	    grep -q '^# TYPE rts_scheduler_rounds counter' .http-smoke.prom && \
	    grep -q '^# TYPE rts_latency_tcpdest0 summary' .http-smoke.prom && \
	    curl -sf http://127.0.0.1:$(HTTP_SMOKE_PORT)/queries | grep -q '"name":"tcpdest0"' || ok=1; \
	  fi; \
	  kill $$(cat .http-smoke.pid) 2>/dev/null; \
	  rm -f .http-smoke.pid .http-smoke.prom; \
	  exit $$ok )

# The aggregation-tree smoke: gsq cluster runs a 3-edge fan-in over
# loopback computing approx_count_distinct end to end. Each edge draws
# from the same 5000-key universe, so every epoch's true distinct count
# is exactly 5000; the awk check holds each printed estimate inside 10%
# (HLL precision 12 promises ~1.6%) and the report must show the tree
# actually reduced. The hard timeout is the clean-shutdown check: a
# wedged node turns into exit 124, not a stuck job. Below that, the two
# one-line exit-1 contracts: an unreadable and an invalid topology for
# cluster, an unbindable --listen for serve — each must fail with
# status 1 and exactly one line on stderr.
ci-cluster:
	printf 'root: e0 e1 e2\n' > .cluster-smoke.topo
	timeout 60 dune exec bin/gsq.exe -- cluster .cluster-smoke.topo queries/cluster_distinct.gsql \
	    --rows 60000 --distinct 5000 --epochs 3 > .cluster-smoke.out
	grep -q 'reduction' .cluster-smoke.out
	awk 'BEGIN { n = 0 } /"sources":/ { split($$0, a, "\"sources\":"); v = a[2] + 0; n++; \
	    if (v < 4500 || v > 5500) bad = 1 } END { exit (bad || n == 0) }' .cluster-smoke.out
	sh -c 'timeout 20 dune exec bin/gsq.exe -- cluster .cluster-smoke.missing \
	    queries/cluster_distinct.gsql 2> .cluster-smoke.err; test $$? -eq 1'
	test "$$(wc -l < .cluster-smoke.err)" -eq 1
	printf 'a: b\nb: a\n' > .cluster-smoke.topo
	sh -c 'timeout 20 dune exec bin/gsq.exe -- cluster .cluster-smoke.topo \
	    queries/cluster_distinct.gsql 2> .cluster-smoke.err; test $$? -eq 1'
	test "$$(wc -l < .cluster-smoke.err)" -eq 1
	sh -c 'timeout 20 dune exec bin/gsq.exe -- serve queries/tcpdest.gsql \
	    --listen 999.999.0.1:1 2> .cluster-smoke.err; test $$? -eq 1'
	test "$$(wc -l < .cluster-smoke.err)" -eq 1
	rm -f .cluster-smoke.topo .cluster-smoke.out .cluster-smoke.err

bench:
	dune exec bench/main.exe

# Paired end-to-end runs of one benchmark workload, the working tree
# against git revision BASE, alternating sides (see bench/pairs.sh):
#   make bench-pairs BASE=HEAD~1 W=e2_local N=10 SEED=5
BASE ?= HEAD
W ?= e2_local
N ?= 10
SEED ?= 5
bench-pairs:
	bash bench/pairs.sh $(BASE) $(W) $(N) $(SEED)

clean:
	dune clean
