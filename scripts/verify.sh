#!/usr/bin/env bash
# Repo verify gate: syntax, lint, tier-1 tests, the standing benchmark's
# smoke, the per-task censuses, a cold-start print, shard scaling, the
# scenario oracles and a Figure 3 smoke.  Every step runs from tracked
# files alone, so it passes on a fresh clone.
#
# Usage: scripts/verify.sh [--quick | --stress]
#   --quick   skip only the Figure 3 throughput smoke at the end
#   --stress  instead of the gate: run tests/live 5x with one busy-loop
#             process per CPU, print failures per test id, and exit
#             non-zero on any failure (the zero-flake budget)
set -euo pipefail

cd "$(dirname "$0")/.."
export PYTHONPATH=src
# No step leaves bytecode in the tree (see the syntax gate below).
export PYTHONDONTWRITEBYTECODE=1

if [[ "${1:-}" == "--stress" ]]; then
    rounds=5
    cpus=$(python -c 'import os; print(os.cpu_count() or 1)')
    echo "== stress: tests/live x${rounds}, ${cpus} busy-loop process(es) =="
    hogs=()
    for _ in $(seq "$cpus"); do
        python -c 'while True: pass' &
        hogs+=("$!")
    done
    failures=$(mktemp)
    trap 'kill "${hogs[@]}" 2>/dev/null || true; rm -f "$failures"' EXIT
    for round in $(seq "$rounds"); do
        log=$(python -m pytest tests/live -p no:cacheprovider -rfE 2>&1) && status=0 || status=$?
        echo "round ${round}: $(tail -n 1 <<<"$log")"
        grep -E '^(FAILED|ERROR) ' <<<"$log" | awk '{print $2}' >>"$failures" || true
        if [[ $status -ne 0 ]] && ! grep -qE '^(FAILED|ERROR) ' <<<"$log"; then
            echo "round-${round}:pytest-exit-${status}" >>"$failures"
        fi
    done
    if [[ -s "$failures" ]]; then
        echo "== failures per test id (of ${rounds} rounds) =="
        sort "$failures" | uniq -c | sort -rn
        exit 1
    fi
    echo "stress OK: no failures in ${rounds} rounds"
    exit 0
fi

# The syntax gate compiles every file in memory: compileall would
# write __pycache__ into the tree (whatever PYTHONDONTWRITEBYTECODE
# says), and every later in-tree run would then start from warm
# bytecode and read a faster set-up than a fresh checkout does.
echo "== syntax gate (compiled in memory) =="
python - src tests benchmarks bench scripts <<'PY'
import pathlib
import sys

failed = False
for root in sys.argv[1:]:
    for path in sorted(pathlib.Path(root).rglob("*.py")):
        try:
            compile(path.read_bytes(), str(path), "exec")
        except (SyntaxError, ValueError) as exc:
            print(f"*** {path}: {exc}", file=sys.stderr)
            failed = True
sys.exit(1 if failed else 0)
PY

# Lint with ruff when the container has it; the image does not ship
# it by default and the gate must not fail on a missing tool.
if command -v ruff >/dev/null 2>&1; then
    echo "== ruff check =="
    ruff check src tests benchmarks bench scripts
elif python -c "import ruff" >/dev/null 2>&1; then
    echo "== ruff check (module) =="
    python -m ruff check src tests benchmarks bench scripts
else
    echo "== ruff not installed; skipping lint =="
fi

echo "== tier-1 tests =="
python -m pytest -x -q

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

# The per-task censuses (docs/PERFORMANCE.md), run small: both walk
# private dispatcher and ring fields, so a rename fails here instead of
# breaking the next measurement unnoticed.
echo "== per-task censuses (memory, CPU) =="
python scripts/task_memory_census.py --tasks 5000
python scripts/task_cpu_census.py --waves 1

# Cold start of a bare live-plane process from a tree with no bytecode
# (docs/PERFORMANCE.md "Cold start"): print-only, since wall time on a
# shared host cannot gate; tests/test_package_imports.py pins the
# import graph that sets it.
echo "== cold start (print-only) =="
python scripts/cold_start.py -n 3

# Shard-scaling gate: 2 dispatcher shards behind a ShardRouter must
# deliver >= 1.5x the 1-shard aggregate capacity on fixed-duration
# tasks (docs/API.md, "Shard-scaling methodology").
echo "== shard scaling gate =="
python -m pytest benchmarks/test_shard_scaling.py -q

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
