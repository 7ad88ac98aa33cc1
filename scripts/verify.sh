#!/usr/bin/env bash
# Repo verify gate: lint, tier-1 tests, and a live-plane throughput smoke.
#
# Usage: scripts/verify.sh [--quick]
#   --quick  skip only the Figure 3 throughput smoke at the end
set -euo pipefail

cd "$(dirname "$0")/.."
export PYTHONPATH=src

echo "== compileall (syntax gate) =="
python -m compileall -q src tests benchmarks

# Lint with ruff when the container has it; the image does not ship
# it by default and the gate must not fail on a missing tool.
if command -v ruff >/dev/null 2>&1; then
    echo "== ruff check =="
    ruff check src tests benchmarks
elif python -c "import ruff" >/dev/null 2>&1; then
    echo "== ruff check (module) =="
    python -m ruff check src tests benchmarks
else
    echo "== ruff not installed; skipping lint =="
fi

echo "== tier-1 tests =="
python -m pytest -x -q

# Dispatch-throughput gate: fails loudly on a >20% regression against
# the recorded baseline (BENCH_baseline.json).  A missing baseline is
# an error, not a skip: `repro bench` would silently record a fresh
# baseline and pass, which is exactly how a regression sneaks through
# a wiped checkout.  Record one deliberately instead.
echo "== dispatch bench gate =="
if [[ ! -f BENCH_baseline.json ]]; then
    echo "ERROR: BENCH_baseline.json is missing — the bench gate has nothing to compare against." >&2
    echo "Record a baseline first:  PYTHONPATH=src python -m repro bench --quick --update-baseline" >&2
    exit 1
fi
python -m repro bench --quick

# Standing-benchmark smoke (BENCHMARK.json, bench/README.md): all four
# workloads for ~1 s each, untraced and traced.  The traced pass is the
# one that imports bench/layers.py and reads spans.chain / chain_errors
# / stats().as_dict() / metrics.snapshot() / journal.stats() /
# dlq_list() / tasks_executed back out of the SUT, so a change that
# breaks a surface the benchmark uses fails here — not in the pipeline
# that runs the benchmark.  The benchmark's own unit tests ride along.
echo "== standing benchmark smoke =="
python3 bench/run.py --smoke --trace | tail -n 1 | grep -q '"correct": true'
python3 -m pytest bench/tests -q

# Telemetry overhead gate: the live telemetry plane (heartbeat-carried
# stats + HTTP status surface) must cost < 5% of sleep-0 throughput.
# Paired interleaved runs; the measurement lands in BENCH_telemetry.json.
# (Self-measuring A/B — no baseline file to lose.)
echo "== telemetry overhead gate =="
python -m repro bench --quick --telemetry

# Flight-recorder overhead gate: the recorder + stall watchdogs
# stacked on the full telemetry plane must stay inside the same 5%
# budget — no separate allowance.  Same interleaved A/B harness; the
# measurement merges into BENCH_telemetry.json under "flight".
echo "== flight recorder overhead gate =="
python -m repro bench --quick --flight

# Journal overhead gate: crash-safe journalling (docs/RELIABILITY.md)
# must cost < 10% of sleep-0 throughput.  Paired interleaved rounds,
# gated on the best adjacent pair; lands in BENCH_journal.json.
echo "== journal overhead gate =="
python -m repro bench --quick --journal

# Shard-scaling gate: 2 dispatcher shards behind a ShardRouter must
# deliver >= 1.5x the 1-shard aggregate capacity on fixed-duration
# tasks (docs/API.md, "Benchmark methodology"); the measurement
# accumulates under "shard_scaling" in BENCH_dispatch.json.
echo "== shard scaling gate =="
python -m repro bench --quick --shards 2

# Scenario oracle gate: the ~30 s seeded mixed workload (heavy-tailed
# runtimes, bursts, DAGs, poison, chaos, churn) replayed through the
# sim AND live planes; exits non-zero if any invariant oracle —
# conservation, exactly-once-visible, no stuck futures, journal/DLQ
# consistency — is violated (docs/TESTING.md).
echo "== scenario oracle gate =="
python -m repro scenarios run --smoke

# Federated scenario oracle gate: the same smoke seed replayed across
# a 2-shard federation, including a mid-run shard kill -9 + restart;
# the oracles must hold from the client's vantage (docs/PROTOCOL.md,
# "Federation").
echo "== federated scenario oracle gate =="
python -m repro scenarios run --smoke --shards 2

if [[ "${1:-}" != "--quick" ]]; then
    echo "== Figure 3 throughput smoke =="
    python -m pytest benchmarks/test_fig3_throughput.py -q
fi

echo "verify OK"
