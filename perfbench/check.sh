#!/usr/bin/env bash
# Check that the benchmark is steady, correct and complete.
#
#   bash perfbench/check.sh [-n RUNS]
#
# For each workload of BENCHMARK.json, run two sets of RUNS untraced
# runs, set 1 with seeds 1..RUNS and set 2 with seeds RUNS+1..2*RUNS,
# then one traced run. Print, per workload and end-to-end metric, each
# set's median, quartiles and spread (quartile distance over median).
# Fail when a run exits nonzero or reports a failed operation, when the
# two set medians of a metric differ by more than its BENCHMARK.json
# bound, when a spread other than setup_s's is wider than the bound
# (needs RUNS >= 4), or when the traced run misses a per-layer metric.
# Run from the root of a checkout; results are kept under
# perfbench/.out/check/.
set -euo pipefail

runs=1
while [ $# -gt 0 ]; do
  case "$1" in
    -n) runs="${2:?-n needs a value}"; shift 2 ;;
    *) echo "check.sh: unknown argument $1" >&2; exit 2 ;;
  esac
done
case "$runs" in ''|*[!0-9]*|0) echo "check.sh: -n expects a positive integer" >&2; exit 2 ;; esac
workloads=($(python3 -c 'import json; print(" ".join(w["name"] for w in json.load(open("BENCHMARK.json"))["workloads"]))'))
seconds=$(python3 -c 'import json; print(json.load(open("BENCHMARK.json"))["run_seconds"])')

dir=perfbench/.out/check
rm -rf "$dir"
mkdir -p "$dir"
status=0
one() { # workload set seed trace
  local out="$dir/$1.$2.$3"
  if ! bash perfbench/run.sh --workload "$1" --seed "$3" --seconds "$seconds" --trace "$4" \
      > "$out.txt"; then
    echo "FAIL $1 seed $3 trace $4: nonzero exit" >&2
    status=1
  fi
  tail -n 1 "$out.txt" > "$out.json"
}
for w in "${workloads[@]}"; do
  for set in 1 2; do
    for i in $(seq 1 "$runs"); do
      one "$w" "$set" $(( (set - 1) * runs + i )) 0
    done
  done
  one "$w" trace 1 1
done

python3 - "$dir" "${workloads[@]}" <<'EOF' || status=1
import json, statistics, sys, glob
d, workloads = sys.argv[1], sys.argv[2:]
bench = json.load(open("BENCHMARK.json"))
ok = True
def load(path):
    try:
        return json.load(open(path))
    except (OSError, ValueError):
        return None
def spread(vals):
    q1, _, q3 = statistics.quantiles(vals, n=4)
    return q1, q3, (q3 - q1) / statistics.median(vals)
for w in workloads:
    print(f"== {w}")
    sets = {}
    for s in ("1", "2"):
        paths = sorted(glob.glob(f"{d}/{w}.{s}.*.json"))
        results = [load(p) for p in paths]
        for r in results:
            if r is None or r["failed"] > 0:
                print(f"FAIL {w} set {s}: a run failed or printed no result"); ok = False
        sets[s] = [r for r in results if r is not None]
    for m in bench["end_to_end"]:
        name, bound = m["name"], m["bound"]
        meds = {}
        for s, results in sets.items():
            vals = [r["metrics"][name]["value"] for r in results if name in r["metrics"]]
            if len(vals) != len(results) or not vals:
                print(f"FAIL {w} {name}: missing in set {s}"); ok = False; continue
            med = statistics.median(vals)
            meds[s] = med
            if len(vals) >= 4:
                q1, q3, sp = spread(vals)
                flag = ""
                if name != "setup_s" and sp > bound:
                    flag = "  FAIL spread > bound"; ok = False
                print(f"  {name:14s} set {s}: median {med:.6g} q1 {q1:.6g} q3 {q3:.6g} spread {sp:.1%} (bound {bound:.0%}){flag}")
            else:
                print(f"  {name:14s} set {s}: median {med:.6g} n={len(vals)}")
        if len(meds) == 2:
            gap = abs(meds["2"] - meds["1"]) / meds["1"]
            if gap > bound:
                print(f"FAIL {w} {name}: set medians differ by {gap:.1%} > {bound:.0%}"); ok = False
            else:
                print(f"  {name:14s} sets agree within {gap:.1%}")
    tr = load(f"{d}/{w}.trace.1.json")
    if tr is None or tr["failed"] > 0:
        print(f"FAIL {w}: the traced run failed or printed no result"); ok = False
        continue
    missing = [m["name"] for m in bench["per_layer"] if m["name"] not in tr["metrics"]]
    if missing:
        print(f"FAIL {w}: traced run misses {', '.join(missing)}"); ok = False
    shares = sorted(((v["value"], k) for k, v in tr["metrics"].items() if k.startswith("share.")), reverse=True)
    print("  traced: top shares " + ", ".join(f"{k} {v:.1%}" for v, k in shares[:3])
          + f"; tracing overhead {tr['metrics']['trace.overhead_ratio']['value']:+.1%}")
sys.exit(0 if ok else 1)
EOF
exit $status
