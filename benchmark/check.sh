#!/usr/bin/env bash
# Runs the full benchmark twice on the same code and seed and compares the two
# result files under the benchmark's own bounds: every end-to-end median must
# agree within its metric's bound, every exact count exactly. Metrics whose
# run-to-run spread is wider than their bound are listed as unresolved.
# Exits non-zero on disagreement. Usage: benchmark/check.sh [seed] [extra flags]
set -euo pipefail
cd "$(dirname "$0")/.."
seed="${1:-2016}"
shift || true
bench() {
    cargo run --release --quiet --offline --manifest-path benchmark/Cargo.toml -- "$@"
}
mkdir -p benchmark/out
for side in a b; do
    bench --seed "$seed" "$@" > "benchmark/out/run-$side.log" || {
        tail -n 20 "benchmark/out/run-$side.log"
        exit 1
    }
    cp benchmark/out/results.json "benchmark/out/results-$side.json"
done
bench --compare benchmark/out/results-a.json benchmark/out/results-b.json
