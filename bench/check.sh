#!/usr/bin/env bash
# Re-measures the baseline: runs every workload N times (default 3) in two
# interleaved sets (A B A B ...), each run with its own seed, and prints for
# every end-to-end metric both sets' medians, their relative difference, the
# spread (IQR over median) of each set and the metric's bound from
# BENCHMARK.json. Exits non-zero when the second set is worse than the first
# by more than the bound, or when a spread exceeds it.
#
#   bench/check.sh [N] [workload ...]
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
n="${1:-3}"
shift || true
out="bench/out/check"
mkdir -p "$out"
python3 - "$n" "$out" "$@" <<'PY'
import json, statistics, subprocess, sys

n, out, only = int(sys.argv[1]), sys.argv[2], sys.argv[3:]
spec = json.load(open("BENCHMARK.json"))
workloads = [w["name"] for w in spec["workloads"] if not only or w["name"] in only]
runs = {}  # (workload, set) -> [metrics]
seed = 0
for i in range(n):
    for s in "AB":
        for w in workloads:
            seed += 1
            cmd = spec["command"] + ["--workload", w, "--seed", str(seed),
                                     "--seconds", str(spec["run_seconds"]), "--trace", "0"]
            p = subprocess.run(cmd, capture_output=True, text=True)
            open(f"{out}/{w}.{s}{i}.log", "w").write(p.stdout + p.stderr)
            if p.returncode != 0:
                sys.exit(f"{w} seed {seed}: exit {p.returncode}\n{p.stderr}")
            last = json.loads(p.stdout.strip().splitlines()[-1])
            if not last["correct"]:
                print(f"{w} seed {seed}: {last['failed']} of {last['attempted']} ops failed")
            runs.setdefault((w, s), []).append({k: v["value"] for k, v in last["metrics"].items()})
            print(f"run {s}{i} {w} seed {seed} done", file=sys.stderr)

def spread(xs):
    if len(xs) < 2:
        return 0.0
    q = statistics.quantiles(xs, n=4)
    return (q[2] - q[0]) / statistics.median(xs)

bad = 0
print(f"{'workload':16} {'metric':16} {'median A':>12} {'median B':>12} {'B worse':>8} {'iqr A':>7} {'iqr B':>7} {'bound':>6}")
for w in workloads:
    for m in spec["end_to_end"]:
        a = [r[m["name"]] for r in runs[(w, "A")]]
        b = [r[m["name"]] for r in runs[(w, "B")]]
        ma, mb = statistics.median(a), statistics.median(b)
        worse = (mb - ma) / ma if m["better"] == "lower" else (ma - mb) / ma
        sa, sb = spread(a), spread(b)
        over = worse > m["bound"] or (m["name"] != "setup_s" and max(sa, sb) > m["bound"])
        bad += over
        print(f"{w:16} {m['name']:16} {ma:12.4f} {mb:12.4f} {worse:+8.3f} {sa:7.3f} {sb:7.3f} {m['bound']:6.2f}" + ("  <-- beyond bound" if over else ""))
sys.exit(1 if bad else 0)
PY
