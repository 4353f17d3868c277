#!/usr/bin/env bash
# Bench trajectory guard: fail when the median of repeated bench_throughput
# runs regresses more than 20% against the committed baseline.
#
#   usage: check_bench_trajectory.sh <baseline.json> <run.json>...
#
# Guarded: txs_per_wall_second plus every socket_* rate field in the
# baseline and every run, so a transport-layer regression fails the gate
# even when protocol throughput holds. Medians, because back-to-back runs of
# unchanged code can spread past the tolerance on one machine.
#
# The baseline under ci/bench_baseline/ is a committed snapshot of a Release
# run; refresh it deliberately (re-run the bench, commit the new JSON) when a
# change legitimately moves the number.
set -euo pipefail

usage="usage: check_bench_trajectory.sh <baseline.json> <run.json>..."
baseline="${1:?$usage}"
shift
[[ $# -ge 1 ]] || { echo "$usage" >&2; exit 2; }

python3 - "$baseline" "$@" <<'PY'
import json
import statistics
import sys

TOLERANCE = 20.0  # percent
PRIMARY = "txs_per_wall_second"

def load(path):
    with open(path) as f:
        return json.load(f)

baseline_path, run_paths = sys.argv[1], sys.argv[2:]
baseline = load(baseline_path)
runs = [load(path) for path in run_paths]
for name, report in [("baseline", baseline)] + list(zip(run_paths, runs)):
    if PRIMARY not in report:
        sys.exit(f"trajectory guard: metric '{PRIMARY}' missing from {name}")

metrics = [PRIMARY] + sorted(
    name for name in baseline
    if name.startswith("socket_") and name.endswith("_per_second")
    and all(name in run for run in runs))

failures = []
for name in metrics:
    samples = [float(run[name]) for run in runs]
    cur = statistics.median(samples)
    base = float(baseline[name])
    floor = base * (1.0 - TOLERANCE / 100.0)
    print(f"trajectory guard: {name} median={cur:.1f} of "
          f"[{', '.join(f'{s:.1f}' for s in samples)}] baseline={base:.1f} "
          f"floor={floor:.1f} (tolerance {TOLERANCE:.0f}%)")
    if cur < floor:
        failures.append(
            f"trajectory guard: {name} median regressed "
            f"{100.0 * (1.0 - cur / base):.1f}% (> {TOLERANCE:.0f}% allowed) "
            f"vs committed baseline {baseline_path}")
if failures:
    sys.exit("\n".join(failures))
print("trajectory guard: ok")
PY
