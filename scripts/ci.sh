#!/bin/sh
# CI: build, run the full test suite, then check the --jobs determinism
# contract — a parallel run of a quick experiment must print tables
# byte-identical to the sequential run.
#
# Usage: scripts/ci.sh  (from the repository root)
set -eu

echo "== dune build =="
dune build @all

echo "== dune runtest =="
dune runtest

echo "== parallel-vs-sequential equivalence (table3, quick) =="
# Wall-clock lines ("Booting...", "(N loaded handlers; ...s)", "Total
# experiment time") are not run-to-run deterministic; everything else —
# every table row and summary number — must match exactly. The pool's
# own report goes to stderr and never pollutes stdout.
filter() {
  grep -v -e '^Booting synthetic kernel' \
          -e 'loaded handlers;' \
          -e '^Total experiment time:'
}

# cli ERR OUT FILTER ARGS...: run kernelgpt_cli ARGS with its stdout in
# OUT.raw and its stderr in ERR, fail the step naming the command unless
# it exits 0, then write FILTER's reading of OUT.raw to OUT. sh has no
# pipefail: in `kernelgpt_cli ... | filter > OUT` only the filter's exit
# status counts, so a run that printed and then failed would pass.
cli() {
  cli_err=$1; cli_out=$2; cli_filter=$3; shift 3
  cli_status=0
  dune exec --no-build bin/kernelgpt_cli.exe -- "$@" > "$cli_out.raw" 2> "$cli_err" || cli_status=$?
  if [ "$cli_status" -ne 0 ]; then
    echo "FAIL: kernelgpt_cli $* exited $cli_status, expected 0" >&2
    exit 1
  fi
  "$cli_filter" < "$cli_out.raw" > "$cli_out"
}

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

cli /dev/null "$tmp/seq.out" filter report table3 --jobs 1
cli /dev/null "$tmp/par.out" filter report table3 --jobs 4

if ! diff -u "$tmp/seq.out" "$tmp/par.out"; then
  echo "FAIL: --jobs 4 output differs from sequential run" >&2
  exit 1
fi
echo "OK: --jobs 4 table3 output is byte-identical to sequential"

echo "== parallel-vs-sequential equivalence (every table, quick) =="
# The same contract over the whole report: every table, figure and
# ablation that `report all` prints.
cli /dev/null "$tmp/all_seq.out" filter report all --jobs 1 --bench-out "$tmp/bench_all1.json"
cli /dev/null "$tmp/all_par.out" filter report all --jobs 4 --bench-out "$tmp/bench_all4.json"
if ! diff -u "$tmp/all_seq.out" "$tmp/all_par.out"; then
  echo "FAIL: report all --jobs 4 output differs from --jobs 1" >&2
  exit 1
fi
echo "OK: report all --jobs 4 output is byte-identical to --jobs 1"

echo "== forced minor collections and direct major-heap words: table1 =="
# With a 256k-word minor heap, a run needs one minor collection per
# 262,144 minor words. An [Array.of_list] or [Array.make] of more than
# 256 young values forces an extra one, promoting everything live: it
# costs time but no words, so the word pins in dune runtest miss it.
# A block of more than 256 words is allocated straight into the major
# heap, where no minor-word count sees it either: the direct major-heap
# words (major_words - promoted_words) may stay at most 1.1 x the
# 678,427 that table1 allocates there at --jobs 1, where the count is
# deterministic. (A 512-bucket macro table in every definition index
# reads 1,286,845.)
# This covers the CLI's set-up (boot, Suites.build), which the unit
# tests' collection checks do not reach. The binary runs directly so
# that the runtime's exit report (v=0x400) is its own, not dune's.
OCAMLRUNPARAM=s=256k,v=0x400 ./_build/default/bin/kernelgpt_cli.exe report table1 --jobs 1 \
  --bench-out "$tmp/bench_gc.json" >/dev/null 2>"$tmp/gc.err"
if ! awk '/^minor_words:/ { w = $2 } /^minor_collections:/ { c = $2 }
    END {
      if (w == "" || c == "") { print "no GC report on stderr"; exit 1 }
      limit = 1.1 * w / 262144 + 10
      printf "%d minor collections for %d minor words (limit %.1f)\n", c, w, limit
      exit (c > limit)
    }' "$tmp/gc.err"; then
  echo "FAIL: report table1 forces minor collections" >&2
  exit 1
fi
echo "OK: report table1 runs no forced minor collections"
if ! awk '/^promoted_words:/ { p = $2 } /^major_words:/ { m = $2 }
    END {
      if (p == "" || m == "") { print "no GC report on stderr"; exit 1 }
      limit = 1.1 * 678427
      printf "%d direct major-heap words (limit %d)\n", m - p, limit
      exit (m - p > limit)
    }' "$tmp/gc.err"; then
  echo "FAIL: report table1 allocates too much straight into the major heap" >&2
  exit 1
fi
echo "OK: report table1's direct major-heap words are within their bound"

echo "== traced run: stdout unchanged, JSONL valid =="
# Tracing and metrics must not leak into stdout, and the emitted trace
# must parse and cover every major span kind.
cli "$tmp/traced.err" "$tmp/traced.out" filter \
  report table3 --jobs 4 --trace "$tmp/trace.jsonl" --metrics

if ! diff -u "$tmp/seq.out" "$tmp/traced.out"; then
  echo "FAIL: --trace/--metrics changed stdout" >&2
  exit 1
fi
echo "OK: traced --jobs 4 stdout is byte-identical to sequential untraced"

if ! grep -q '^\[metrics\] oracle\.queries' "$tmp/traced.err"; then
  echo "FAIL: no metrics summary on stderr" >&2
  exit 1
fi

dune exec --no-build bin/kernelgpt_cli.exe -- trace "$tmp/trace.jsonl" \
  --expect pipeline --expect pipeline.stage --expect oracle.query \
  --expect pool.run --expect pool.task --expect fuzz.campaign
echo "OK: trace JSONL parses and contains the expected span kinds"

echo "== fault injection: recovery at a moderate rate =="
# A 15% fault plan must be fully absorbed by the retry layer: every
# injected fault recovered, zero degraded modules, and the experiment
# tables identical to the un-faulted run (the oracle is deterministic,
# so a recovered query returns exactly what an unfaulted one would).
cli /dev/null "$tmp/f15.out" filter report table3 --faults 15

if ! grep -q '^All injected transient faults recovered (0 degraded modules' "$tmp/f15.out"; then
  echo "FAIL: --faults 15 did not fully recover" >&2
  grep -A2 '^| TOTAL' "$tmp/f15.out" >&2 || true
  exit 1
fi
if ! grep -Eq '^\| TOTAL +\| +[1-9][0-9]* \|' "$tmp/f15.out"; then
  echo "FAIL: --faults 15 injected no faults at all" >&2
  exit 1
fi
sed -n '/^Table 3/,$p' "$tmp/f15.out" > "$tmp/f15.tables"
sed -n '/^Table 3/,$p' "$tmp/seq.out" > "$tmp/seq.tables"
if ! diff -u "$tmp/seq.tables" "$tmp/f15.tables"; then
  echo "FAIL: recovered --faults 15 tables differ from the un-faulted run" >&2
  exit 1
fi
echo "OK: --faults 15 recovered every fault; tables identical to un-faulted run"

echo "== fault injection: sharding does not change faulted output =="
# Clock/breaker state resets at every module boundary, so even a fault
# rate high enough to trip circuit breakers must print the same tables
# no matter how modules are sharded over workers. (--query-budget is
# the documented exception and is deliberately absent here.)
cli /dev/null "$tmp/f60seq.out" filter report table3 --faults 60:5 --jobs 1
cli /dev/null "$tmp/f60par.out" filter report table3 --faults 60:5 --jobs 4
if ! diff -u "$tmp/f60seq.out" "$tmp/f60par.out"; then
  echo "FAIL: --faults 60:5 output depends on --jobs" >&2
  exit 1
fi
echo "OK: --faults 60:5 --jobs 4 output is byte-identical to --jobs 1"

echo "== fault injection: same seed, same run =="
cli /dev/null "$tmp/s7a.out" filter report table3 --faults 15:7
cli /dev/null "$tmp/s7b.out" filter report table3 --faults 15:7
if ! diff -u "$tmp/s7a.out" "$tmp/s7b.out"; then
  echo "FAIL: --faults 15:7 is not reproducible" >&2
  exit 1
fi
echo "OK: --faults 15:7 twice produces byte-identical output"

echo "== fault injection off: client is a pass-through =="
# --faults 0 still routes every query through the fault-tolerant client
# (plan set, rate zero), so this catches any accounting or ordering the
# client layer might leak into the pipeline.
# Strip the resilience section (its leading blank line included); the
# rest must match the no-client run exactly.
strip_resilience() {
  awk '
    skip == 1 { if ($0 ~ /^All injected|degraded queries left/) skip = 0; next }
    $0 == "Resilience (oracle fault injection)" { blank = 0; skip = 1; next }
    blank == 1 { print ""; blank = 0 }
    $0 == "" { blank = 1; next }
    { print }
    END { if (blank) print "" }
  '
}
filter_resilience() { filter | strip_resilience; }
cli /dev/null "$tmp/f0.out" filter_resilience report table3 --faults 0
if ! diff -u "$tmp/seq.out" "$tmp/f0.out"; then
  echo "FAIL: --faults 0 output differs from a run without the client layer" >&2
  exit 1
fi
echo "OK: --faults 0 output is byte-identical to a run without fault injection"

echo "== checkpoint/resume: interrupted run finishes byte-identical =="
# Run a campaign to completion; run the same campaign stopping at a
# mid-point checkpoint (stdout must stay empty — the resumed run owns
# the report); resume it. The resumed stdout must equal the
# uninterrupted one except for wall-clock timings.
normalize_time() { sed 's/in [0-9.]*s/in Xs/'; }

cli /dev/null "$tmp/fuzz_full.out" normalize_time fuzz dm --budget 3000 --seed 3 --repro
dune exec --no-build bin/kernelgpt_cli.exe -- fuzz dm --budget 3000 --seed 3 --repro \
  --checkpoint "$tmp/ck.jsonl" --stop-after 1400 2>/dev/null > "$tmp/fuzz_stop.out"
if [ -s "$tmp/fuzz_stop.out" ]; then
  echo "FAIL: a stopped campaign wrote to stdout" >&2
  exit 1
fi
cli /dev/null "$tmp/fuzz_resumed.out" normalize_time \
  fuzz dm --budget 3000 --seed 3 --repro --checkpoint "$tmp/ck.jsonl" --resume
if ! diff -u "$tmp/fuzz_full.out" "$tmp/fuzz_resumed.out"; then
  echo "FAIL: resumed campaign output differs from the uninterrupted run" >&2
  exit 1
fi
echo "OK: stop at 1400/3000 + --resume matches the uninterrupted run"

echo "== checkpoint corruption: descriptive failure =="
# A truncated checkpoint must fail --resume with a descriptive error
# (and a nonzero exit), and --resume-or-fresh must fall back with a
# warning instead.
head -c 200 "$tmp/ck.jsonl" > "$tmp/ck_trunc.jsonl"
if dune exec --no-build bin/kernelgpt_cli.exe -- fuzz dm --budget 3000 --seed 3 \
     --checkpoint "$tmp/ck_trunc.jsonl" --resume >/dev/null 2>"$tmp/trunc.err"; then
  echo "FAIL: --resume accepted a truncated checkpoint" >&2
  exit 1
fi
if ! grep -q 'truncated checkpoint' "$tmp/trunc.err"; then
  echo "FAIL: truncated-checkpoint error is not descriptive:" >&2
  cat "$tmp/trunc.err" >&2
  exit 1
fi
dune exec --no-build bin/kernelgpt_cli.exe -- fuzz dm --budget 300 --seed 3 \
  --checkpoint "$tmp/ck_trunc.jsonl" --resume-or-fresh >/dev/null 2>"$tmp/fresh.err"
if ! grep -q 'starting fresh' "$tmp/fresh.err"; then
  echo "FAIL: --resume-or-fresh did not fall back to a fresh campaign" >&2
  exit 1
fi
echo "OK: truncation fails --resume descriptively; --resume-or-fresh falls back"

echo "== executor fault injection: deterministic and shard-independent =="
# An --exec-faults plan is a pure hash of the execution index, so the
# supervised tables and resilience summary must be byte-identical
# across --jobs values and across repeated runs.
cli /dev/null "$tmp/ef_seq.out" filter report table3 --exec-faults 10:3 --jobs 1
cli /dev/null "$tmp/ef_par.out" filter report table3 --exec-faults 10:3 --jobs 4
if ! diff -u "$tmp/ef_seq.out" "$tmp/ef_par.out"; then
  echo "FAIL: --exec-faults 10:3 output depends on --jobs" >&2
  exit 1
fi
if ! grep -q 'executor reboots' "$tmp/ef_seq.out"; then
  echo "FAIL: --exec-faults 10:3 printed no executor resilience summary" >&2
  exit 1
fi
if ! grep -Eq '[1-9][0-9]* executions lost' "$tmp/ef_seq.out"; then
  echo "FAIL: --exec-faults 10:3 lost no work at all" >&2
  exit 1
fi
echo "OK: --exec-faults 10:3 --jobs 4 output is byte-identical to --jobs 1"

echo "== oracle cache: warm runs are byte-identical and query-free =="
# A cold run populates the cache; warm runs (sequential and sharded)
# must print byte-identical tables while performing ZERO oracle queries
# — every answer replays from the cache, so the warm --metrics registry
# has no oracle.queries counter at all, only cache hits.
cli /dev/null "$tmp/cache_cold.out" filter \
  report table3 --jobs 1 --oracle-cache "$tmp/oracle_cache.jsonl"
if ! diff -u "$tmp/seq.out" "$tmp/cache_cold.out"; then
  echo "FAIL: --oracle-cache changed the cold run's stdout" >&2
  exit 1
fi
cli "$tmp/cache_warm.err" "$tmp/cache_warm1.out" filter \
  report table3 --jobs 1 --metrics --oracle-cache "$tmp/oracle_cache.jsonl"
cli /dev/null "$tmp/cache_warm4.out" filter \
  report table3 --jobs 4 --oracle-cache "$tmp/oracle_cache.jsonl"
if ! diff -u "$tmp/cache_cold.out" "$tmp/cache_warm1.out"; then
  echo "FAIL: warm --jobs 1 run differs from the cold run" >&2
  exit 1
fi
if ! diff -u "$tmp/cache_cold.out" "$tmp/cache_warm4.out"; then
  echo "FAIL: warm --jobs 4 run differs from the cold run" >&2
  exit 1
fi
if grep -q '^\[metrics\] oracle\.queries' "$tmp/cache_warm.err"; then
  echo "FAIL: warm run still performed oracle queries:" >&2
  grep '^\[metrics\] oracle\.' "$tmp/cache_warm.err" >&2
  exit 1
fi
if ! grep -q '^\[metrics\] oracle\.cache\.hits' "$tmp/cache_warm.err"; then
  echo "FAIL: warm run recorded no cache hits" >&2
  exit 1
fi
if ! grep -q '^Oracle cache: .*100\.0% hit rate' "$tmp/cache_warm.err"; then
  echo "FAIL: warm run's stderr summary is not a 100% hit rate:" >&2
  grep '^Oracle cache:' "$tmp/cache_warm.err" >&2 || true
  exit 1
fi
echo "OK: warm cache runs (--jobs 1 and 4) are byte-identical and query-free"

echo "== oracle cache corruption: descriptive failure =="
head -c 120 "$tmp/oracle_cache.jsonl" > "$tmp/oracle_cache_bad.jsonl"
if dune exec --no-build bin/kernelgpt_cli.exe -- generate dm \
     --oracle-cache "$tmp/oracle_cache_bad.jsonl" >/dev/null 2>"$tmp/cache_bad.err"; then
  echo "FAIL: generate accepted a truncated oracle cache" >&2
  exit 1
fi
if ! grep -q 'truncated oracle cache' "$tmp/cache_bad.err"; then
  echo "FAIL: truncated-cache error is not descriptive:" >&2
  cat "$tmp/cache_bad.err" >&2
  exit 1
fi
echo "OK: a truncated oracle cache fails descriptively"

echo "== table4: sharding does not change output; BENCH artifacts =="
# The quick Table 4 runs feed the BENCH artifact check and the
# throughput gate below; their stdout must not depend on --jobs.
cli /dev/null "$tmp/t4_c1.out" filter report table4 --jobs 1 --bench-out "$tmp/bench_c1.json"
cli /dev/null "$tmp/t4_c4.out" filter report table4 --jobs 4 --bench-out "$tmp/bench_c4.json"
if ! diff -u "$tmp/t4_c1.out" "$tmp/t4_c4.out"; then
  echo "FAIL: table4 --jobs 4 output differs from --jobs 1" >&2
  exit 1
fi
echo "OK: table4 --jobs 4 output is byte-identical to --jobs 1"

echo "== BENCH artifact: well-formed JSON with non-zero throughput =="
# Every report run writes a BENCH_*.json throughput artifact. It must
# parse as JSON and report a strictly positive execution count and
# execs/sec for the table it ran.
check_bench() {
  python3 - "$1" <<'EOF'
import json, sys
d = json.load(open(sys.argv[1]))
assert d["format"] == "kernelgpt-bench" and d["schema"] == 1, "bad format/schema"
tables = {t["name"]: t for t in d["tables"]}
t4 = tables["table4"]
assert t4["executions"] > 0, "zero executions"
assert t4["execs_per_s"] > 0, "zero execs/sec"
assert d["total_wall_s"] > 0, "zero total wall clock"
EOF
}
for name in bench_c1 bench_c4; do
  if ! check_bench "$tmp/$name.json"; then
    echo "FAIL: BENCH artifact $name.json is malformed" >&2
    exit 1
  fi
done
echo "OK: both table4 BENCH artifacts are well-formed with non-zero execs/sec"

echo "== BENCH regression gate: within 0.9x of the committed baseline =="
# The committed BENCH_table4_quick.json artifact records the throughput
# this machine reached when it was last refreshed. A run below 0.9x the
# committed number means an execution-path performance regression (the
# 10% headroom absorbs scheduler noise). Ambient machine load can eat
# that headroom on any single run, so a failing measurement is retried
# on a fresh run, best of three: a real regression fails all three, a
# load spike doesn't. A gate passing well above 1.0x means the
# artifact is stale and should be refreshed.
check_regression() {
  fresh=$1; committed=$2
  python3 - "$fresh" "$committed" <<'EOF'
import json, sys
fresh = {t["name"]: t for t in json.load(open(sys.argv[1]))["tables"]}["table4"]["execs_per_s"]
committed = {t["name"]: t for t in json.load(open(sys.argv[2]))["tables"]}["table4"]["execs_per_s"]
ratio = fresh / committed
print("table4: %.0f execs/s vs committed %.0f (%.2fx)" % (fresh, committed, ratio))
assert ratio >= 0.9, "table4 throughput regressed to %.2fx of the committed baseline" % ratio
EOF
}
gate() {
  first=$1; committed=$2
  if check_regression "$first" "$committed"; then return 0; fi
  for retry in 1 2; do
    echo "retrying table4 bench (attempt $((retry + 1))/3, ruling out a load spike)"
    dune exec --no-build bin/kernelgpt_cli.exe -- report table4 --jobs 1 \
      --bench-out "$tmp/bench_retry.json" >/dev/null 2>&1
    if check_regression "$tmp/bench_retry.json" "$committed"; then return 0; fi
  done
  return 1
}
if ! gate "$tmp/bench_c1.json" BENCH_table4_quick.json; then
  echo "FAIL: table4 throughput fell below 0.9x the committed baseline (best of 3)" >&2
  exit 1
fi
echo "OK: table4 throughput is within 0.9x of the committed BENCH baseline"

echo "== UCB scheduling: stop/resume, shard independence, sched pinning =="
# The UCB scheduler's state (per-slot visit/reward counters, operator
# credit) lives in the checkpoint, so a stopped --sched ucb campaign
# must resume byte-identical to an uninterrupted one; and because picks
# are a pure function of the checkpointed counters (zero RNG draws),
# the report must not depend on --jobs either.
cli /dev/null "$tmp/fuzz_ucb_full.out" normalize_time \
  fuzz dm --budget 3000 --seed 3 --repro --sched ucb
if diff -q "$tmp/fuzz_full.out" "$tmp/fuzz_ucb_full.out" >/dev/null; then
  echo "FAIL: --sched ucb output is identical to uniform (scheduler not wired in?)" >&2
  exit 1
fi
dune exec --no-build bin/kernelgpt_cli.exe -- fuzz dm --budget 3000 --seed 3 --repro \
  --sched ucb --checkpoint "$tmp/ck_ucb.jsonl" --stop-after 1400 2>/dev/null >/dev/null
cli /dev/null "$tmp/fuzz_ucb_res.out" normalize_time \
  fuzz dm --budget 3000 --seed 3 --repro --sched ucb --checkpoint "$tmp/ck_ucb.jsonl" --resume
if ! diff -u "$tmp/fuzz_ucb_full.out" "$tmp/fuzz_ucb_res.out"; then
  echo "FAIL: resumed --sched ucb campaign differs from the uninterrupted run" >&2
  exit 1
fi
if dune exec --no-build bin/kernelgpt_cli.exe -- fuzz dm --budget 3000 --seed 3 --repro \
     --checkpoint "$tmp/ck_ucb.jsonl" --resume >/dev/null 2>"$tmp/sched_mismatch.err"; then
  echo "FAIL: a uniform resume accepted a --sched ucb checkpoint" >&2
  exit 1
fi
if ! grep -q 'checkpoint was taken with --sched ucb' "$tmp/sched_mismatch.err"; then
  echo "FAIL: sched-mismatch error is not descriptive:" >&2
  cat "$tmp/sched_mismatch.err" >&2
  exit 1
fi
cli /dev/null "$tmp/t4_u1.out" filter \
  report table4 --sched ucb --jobs 1 --bench-out "$tmp/bench_u1.json"
cli /dev/null "$tmp/t4_u4.out" filter \
  report table4 --sched ucb --jobs 4 --bench-out "$tmp/bench_u4.json"
if ! diff -u "$tmp/t4_u1.out" "$tmp/t4_u4.out"; then
  echo "FAIL: table4 --sched ucb stdout depends on --jobs" >&2
  exit 1
fi
echo "OK: --sched ucb stop/resume matches, rejects uniform resume, jobs 1/4 identical"

# rechecksum SRC DST: copy checkpoint SRC to DST after running the
# Python statements on stdin over `body_lines`, its records without the
# checksum trailer, then append a fresh FNV-1a-64 trailer, so only the
# loader's own checks can object to the edit. Records stay bytes:
# program payloads can hold raw non-UTF-8 bytes.
rechecksum() {
  python3 -c '
import json, sys
lines = [l for l in open(sys.argv[1], "rb").read().split(b"\n") if l]
body_lines = lines[:-1]  # drop the checksum record
exec(sys.stdin.read())
body = b"\n".join(body_lines) + b"\n"
h = 0xcbf29ce484222325
for c in body:
    h = ((h ^ c) * 0x100000001B3) & 0xFFFFFFFFFFFFFFFF
open(sys.argv[2], "wb").write(body + b"{\"checksum\":\"fnv1a64:%016x\"}\n" % h)
' "$1" "$2"
}

echo "== checkpoint version skew: descriptive rejection =="
# A checkpoint from an older format (version 1: no scheduler state)
# must be refused with an error that names both versions — never
# misread as corruption or silently half-loaded.
rechecksum "$tmp/ck_ucb.jsonl" "$tmp/ck_v1.jsonl" <<'EOF'
assert b'"version":2' in body_lines[0], b"unexpected header: " + body_lines[0]
body_lines[0] = body_lines[0].replace(b'"version":2', b'"version":1')
EOF
if dune exec --no-build bin/kernelgpt_cli.exe -- fuzz dm --budget 3000 --seed 3 \
     --checkpoint "$tmp/ck_v1.jsonl" --resume >/dev/null 2>"$tmp/skew.err"; then
  echo "FAIL: --resume accepted a version-1 checkpoint" >&2
  exit 1
fi
if ! grep -q 'unsupported checkpoint version 1 (this build reads version 2)' "$tmp/skew.err"; then
  echo "FAIL: version-skew error is not descriptive:" >&2
  cat "$tmp/skew.err" >&2
  exit 1
fi
echo "OK: a version-1 checkpoint is rejected naming both versions"

echo "== checkpoint from another machine: out-of-range sid refused =="
# A checkpoint can pass its checksum and still cover statement ids the
# booted machine does not have (one saved against another corpus build).
# --resume must refuse it with the CLI's error status and a message that
# names the sid, never abort (134) or segfault (139); --resume-or-fresh
# must fall back and print exactly the fresh campaign's report.
rechecksum "$tmp/ck.jsonl" "$tmp/ck_sid.jsonl" <<'EOF'
assert body_lines[3].startswith(b'{"coverage":['), b"unexpected record: " + body_lines[3][:40]
cov = json.loads(body_lines[3])
cov["coverage"].append(100000000)
record = json.dumps(cov, separators=(",", ":")).encode()
assert record.replace(b",100000000]", b"]") == body_lines[3], "coverage record did not round-trip"
body_lines[3] = record
EOF
status=0
dune exec --no-build bin/kernelgpt_cli.exe -- fuzz dm --budget 3000 --seed 3 --repro \
  --checkpoint "$tmp/ck_sid.jsonl" --resume >/dev/null 2>"$tmp/sid.err" || status=$?
if [ "$status" -ne 124 ]; then
  echo "FAIL: --resume of an out-of-range sid exited $status, not the CLI error status 124" >&2
  cat "$tmp/sid.err" >&2
  exit 1
fi
if ! grep -q 'checkpoint coverage sid 100000000 is out of range' "$tmp/sid.err"; then
  echo "FAIL: out-of-range sid error is not descriptive:" >&2
  cat "$tmp/sid.err" >&2
  exit 1
fi
cli /dev/null "$tmp/fuzz_sid.out" normalize_time \
  fuzz dm --budget 3000 --seed 3 --repro --checkpoint "$tmp/ck_sid.jsonl" --resume-or-fresh
if ! diff -u "$tmp/fuzz_full.out" "$tmp/fuzz_sid.out"; then
  echo "FAIL: --resume-or-fresh past an out-of-range sid differs from a fresh run" >&2
  exit 1
fi
echo "OK: an out-of-range sid fails --resume descriptively; --resume-or-fresh runs fresh"

echo "== checkpoint with an empty corpus ring: max_corpus 0 refused =="
# A checkpoint can pass its checksum with "max_corpus":0, which leaves
# the corpus ring no slot for the first fresh program. --resume must
# refuse it with the CLI's error status and a message that names the
# value, never crash (125); --resume-or-fresh must run fresh.
dune exec --no-build bin/kernelgpt_cli.exe -- fuzz dm --budget 3000 --seed 3 --repro \
  --checkpoint "$tmp/ck_mc.jsonl" --stop-after 1000 >/dev/null 2>&1
rechecksum "$tmp/ck_mc.jsonl" "$tmp/ck_mc0.jsonl" <<'EOF'
assert body_lines[1].count(b'"max_corpus":512,') == 1, b"unexpected record: " + body_lines[1][:80]
body_lines[1] = body_lines[1].replace(b'"max_corpus":512,', b'"max_corpus":0,')
body_lines = [l for l in body_lines if not l.startswith(b'{"corpus":')]
EOF
status=0
dune exec --no-build bin/kernelgpt_cli.exe -- fuzz dm --budget 3000 --seed 3 --repro \
  --checkpoint "$tmp/ck_mc0.jsonl" --resume >/dev/null 2>"$tmp/mc.err" || status=$?
if [ "$status" -ne 124 ]; then
  echo "FAIL: --resume of max_corpus 0 exited $status, not the CLI error status 124" >&2
  cat "$tmp/mc.err" >&2
  exit 1
fi
if ! grep -q 'checkpoint max_corpus is 0' "$tmp/mc.err"; then
  echo "FAIL: max_corpus 0 error is not descriptive:" >&2
  cat "$tmp/mc.err" >&2
  exit 1
fi
cli /dev/null "$tmp/fuzz_mc.out" normalize_time \
  fuzz dm --budget 3000 --seed 3 --repro --checkpoint "$tmp/ck_mc0.jsonl" --resume-or-fresh
if ! diff -u "$tmp/fuzz_full.out" "$tmp/fuzz_mc.out"; then
  echo "FAIL: --resume-or-fresh past max_corpus 0 differs from a fresh run" >&2
  exit 1
fi
echo "OK: max_corpus 0 fails --resume descriptively; --resume-or-fresh runs fresh"

echo "== checkpoint with an oversized corpus ring: max_corpus 2^54 refused =="
# One past Sys.max_array_length on 64-bit OCaml: the ring's Array.make
# would raise Invalid_argument (exit 125). --resume must refuse it with
# the CLI's error status and a message that names the value;
# --resume-or-fresh must run fresh.
rechecksum "$tmp/ck_mc.jsonl" "$tmp/ck_mc54.jsonl" <<'EOF'
assert body_lines[1].count(b'"max_corpus":512,') == 1, b"unexpected record: " + body_lines[1][:80]
body_lines[1] = body_lines[1].replace(b'"max_corpus":512,', b'"max_corpus":18014398509481984,')
EOF
status=0
dune exec --no-build bin/kernelgpt_cli.exe -- fuzz dm --budget 3000 --seed 3 --repro \
  --checkpoint "$tmp/ck_mc54.jsonl" --resume >/dev/null 2>"$tmp/mc54.err" || status=$?
if [ "$status" -ne 124 ]; then
  echo "FAIL: --resume of max_corpus 2^54 exited $status, not the CLI error status 124" >&2
  cat "$tmp/mc54.err" >&2
  exit 1
fi
if ! grep -q 'checkpoint max_corpus is 18014398509481984' "$tmp/mc54.err"; then
  echo "FAIL: max_corpus 2^54 error is not descriptive:" >&2
  cat "$tmp/mc54.err" >&2
  exit 1
fi
cli /dev/null "$tmp/fuzz_mc54.out" normalize_time \
  fuzz dm --budget 3000 --seed 3 --repro --checkpoint "$tmp/ck_mc54.jsonl" --resume-or-fresh
if ! diff -u "$tmp/fuzz_full.out" "$tmp/fuzz_mc54.out"; then
  echo "FAIL: --resume-or-fresh past max_corpus 2^54 differs from a fresh run" >&2
  exit 1
fi
echo "OK: max_corpus 2^54 fails --resume descriptively; --resume-or-fresh runs fresh"

echo "== pool fault injection: deterministic recovery, pass-through, quarantine =="
# Worker-pool faults fire on a pure hash of (seed, label, attempt), so a
# plan's stdout — retry counts, quarantine counts, degraded rows — must
# be byte-identical for any --jobs. A fully-recovered plan must print
# the very tables of an unfaulted run (plus its own resilience section),
# and a rate-100 plan must degrade rows instead of crashing the run.
strip_pool_resilience() {
  awk '
    skip == 1 { if ($0 ~ /^All injected pool faults|quarantined task\(s\) left/) skip = 0; next }
    $0 == "Resilience (worker pool fault injection)" { blank = 0; skip = 1; next }
    blank == 1 { print ""; blank = 0 }
    $0 == "" { blank = 1; next }
    { print }
    END { if (blank) print "" }
  '
}
cli /dev/null "$tmp/pf_seq.out" filter report table3 --pool-faults 15:7 --jobs 1
cli /dev/null "$tmp/pf_par.out" filter report table3 --pool-faults 15:7 --jobs 4
if ! diff -u "$tmp/pf_seq.out" "$tmp/pf_par.out"; then
  echo "FAIL: --pool-faults 15:7 output depends on --jobs" >&2
  exit 1
fi
if ! grep -Eq '^[1-9][0-9]* injected worker faults' "$tmp/pf_seq.out"; then
  echo "FAIL: --pool-faults 15:7 injected no worker faults at all" >&2
  exit 1
fi
if ! grep -q '^All injected pool faults recovered within the retry budget' "$tmp/pf_seq.out"; then
  echo "FAIL: --pool-faults 15:7 did not fully recover" >&2
  grep 'quarantined' "$tmp/pf_seq.out" >&2 || true
  exit 1
fi
strip_pool_resilience < "$tmp/pf_seq.out" > "$tmp/pf_strip.out"
if ! diff -u "$tmp/seq.out" "$tmp/pf_strip.out"; then
  echo "FAIL: recovered --pool-faults 15:7 tables differ from the un-faulted run" >&2
  exit 1
fi
filter_pool_resilience() { filter | strip_pool_resilience; }
cli /dev/null "$tmp/pf0.out" filter_pool_resilience report table3 --pool-faults 0
if ! diff -u "$tmp/seq.out" "$tmp/pf0.out"; then
  echo "FAIL: --pool-faults 0 output differs from a run without pool fault injection" >&2
  exit 1
fi
# A rate-100 plan that crashes the run instead of degrading it fails cli.
for j in 1 4; do
  cli "$tmp/pfq$j.err" "$tmp/pfq$j.out" filter report table3 --pool-faults 100:3 --jobs $j --metrics
  grep -E '^\[metrics\] pool\.(faults\.injected|retries|quarantined|stalls|tasks|runs) ' \
    "$tmp/pfq$j.err" > "$tmp/pfq$j.counters" || true
done
if ! diff -u "$tmp/pfq1.out" "$tmp/pfq4.out"; then
  echo "FAIL: --pool-faults 100:3 output depends on --jobs" >&2
  exit 1
fi
if [ "$(wc -l < "$tmp/pfq1.counters")" -ne 6 ]; then
  echo "FAIL: --pool-faults 100:3 --metrics lacks a pool counter:" >&2
  cat "$tmp/pfq1.counters" >&2
  exit 1
fi
if ! diff -u "$tmp/pfq1.counters" "$tmp/pfq4.counters"; then
  echo "FAIL: --pool-faults 100:3 pool counters depend on --jobs" >&2
  exit 1
fi
if ! grep -q '\[degraded .*/.* reps\]' "$tmp/pfq4.out"; then
  echo "FAIL: quarantined campaigns did not render as degraded rows" >&2
  exit 1
fi
if ! grep -Eq 'quarantined task\(s\) left [1-9][0-9]* degraded table row' "$tmp/pfq4.out"; then
  echo "FAIL: quarantine summary missing from the pool resilience section" >&2
  exit 1
fi
if ! grep -Eq '^\[metrics\] pool\.quarantined +[1-9]' "$tmp/pfq4.err"; then
  echo "FAIL: no pool.quarantined metric on stderr" >&2
  grep '^\[metrics\] pool\.' "$tmp/pfq4.err" >&2 || true
  exit 1
fi
echo "OK: pool faults recover byte-identically (jobs 1/4), rate 0 passes through, rate 100 degrades"
echo "OK: rate-100 stdout and pool counters are identical at --jobs 1 and 4"
# The other fuzzing tables take the same rate-100 plan: each must
# degrade rows rather than crash (which fails cli), and print the same
# bytes at any --jobs.
for t in table4 table5 table6 ablation-sched; do
  for j in 1 4; do
    cli /dev/null "$tmp/pfq_$t$j.out" filter \
      report $t --pool-faults 100:3 --jobs $j --bench-out "$tmp/bench_pfq_$t$j.json"
  done
  if ! diff -u "$tmp/pfq_${t}1.out" "$tmp/pfq_${t}4.out"; then
    echo "FAIL: $t --pool-faults 100:3 output depends on --jobs" >&2
    exit 1
  fi
  if ! grep -Eq 'quarantined task\(s\) left [1-9][0-9]* degraded table row' "$tmp/pfq_${t}1.out"; then
    echo "FAIL: $t --pool-faults 100:3 left no degraded table row" >&2
    exit 1
  fi
done
echo "OK: table4, table5, table6 and ablation-sched degrade identically at --jobs 1 and 4"

echo "== CLI flags: malformed input exits 124 naming the flag =="
# Each case is "expected-message|arguments": a typo must never silently
# fall back to a default (Quick scale, one job, one job per core, the
# whole report), a budget or seed count must be positive, an unknown
# module or a fuzz suite with no specification for the module is an
# error rather than a run that fuzzes nothing, and an artifact or
# checkpoint that cannot be written is an error, not an exception; a
# target that is not a regular file (here a FIFO) is refused and left
# as it is. Cmdliner refuses these with its error status 124; the
# message is matched with its line breaks folded into spaces.
mkfifo "$tmp/fifo"
for case in "unknown option '--fulll'|report --fulll" \
            "option '--jobs': expected a non-negative integer|report --jobs abc" \
            "option '--jobs': expected a non-negative integer (0 = one worker per core), got \"-3\"|report --jobs=-3" \
            "option '--jobs' needs an argument|report --jobs" \
            "option '--bench-out' needs an argument|report --bench-out" \
            "unknown option '--bogus'|report --bogus" \
            "option '--jobs' cannot be repeated|report table1 --jobs 2 --jobs 2" \
            "too many arguments, don't know what to do with 'table1'|report table1 table1" \
            "invalid value 'tabel3'|report tabel3" \
            "option '--seeds': expected a positive integer, got \"0\"|bugs --seeds=0" \
            "option '--budget': expected a positive integer, got \"0\"|fuzz dm --budget=0" \
            "unknown option '--pool-faults'|fuzz dm --pool-faults 5" \
            "MODULE argument: no such module \"nosuch\"|generate nosuch" \
            "no manual specification available for dm|fuzz dm --suite manual" \
            "no syzdescribe specification available for rds|fuzz rds --suite syzdescribe" \
            "cannot write the bench artifact: $tmp/missing/b.json.tmp|report table1 --bench-out $tmp/missing/b.json" \
            "cannot write the bench artifact: $tmp/fifo: not a regular file|report table1 --bench-out $tmp/fifo" \
            "cannot write the checkpoint: $tmp/missing/ck.tmp|fuzz dm --budget 300 --checkpoint $tmp/missing/ck" \
            "cannot write the checkpoint: $tmp/fifo: not a regular file|fuzz dm --budget 300 --checkpoint $tmp/fifo"; do
  want=${case%%|*}
  args=${case#*|}
  status=0
  # shellcheck disable=SC2086
  dune exec --no-build bin/kernelgpt_cli.exe -- $args >/dev/null 2>"$tmp/flag.err" || status=$?
  if [ "$status" -ne 124 ]; then
    echo "FAIL: kernelgpt_cli $args exited $status, expected 124" >&2
    exit 1
  fi
  if ! tr -s ' \n' '  ' < "$tmp/flag.err" | grep -qF -- "$want"; then
    echo "FAIL: kernelgpt_cli $args: error does not name the flag:" >&2
    cat "$tmp/flag.err" >&2
    exit 1
  fi
done
# Reading a FIFO would block until a writer appears: the oracle cache
# and checkpoint readers refuse it at once, naming it, and a
# --resume-or-fresh run starts fresh (its checkpoint write is then
# refused as above). Each run is under timeout, with the child's status
# kept, so a reader that blocks fails here with 143, not Cmdliner's 124.
for case in "cannot read oracle cache $tmp/fifo: $tmp/fifo: not a regular file|generate dm --oracle-cache $tmp/fifo" \
            "cannot read checkpoint $tmp/fifo: $tmp/fifo: not a regular file|fuzz dm --budget 300 --resume --checkpoint $tmp/fifo" \
            "cannot resume (cannot read checkpoint $tmp/fifo: $tmp/fifo: not a regular file); starting fresh|fuzz dm --budget 300 --resume-or-fresh --checkpoint $tmp/fifo"; do
  want=${case%%|*}
  args=${case#*|}
  status=0
  # shellcheck disable=SC2086
  timeout --preserve-status 60 dune exec --no-build bin/kernelgpt_cli.exe -- $args \
    >/dev/null 2>"$tmp/flag.err" || status=$?
  if [ "$status" -ne 124 ]; then
    echo "FAIL: kernelgpt_cli $args exited $status, expected 124" >&2
    exit 1
  fi
  if ! tr -s ' \n' '  ' < "$tmp/flag.err" | grep -qF -- "$want"; then
    echo "FAIL: kernelgpt_cli $args: error does not name the FIFO:" >&2
    cat "$tmp/flag.err" >&2
    exit 1
  fi
done
if [ ! -p "$tmp/fifo" ] || [ -e "$tmp/fifo.tmp" ]; then
  echo "FAIL: a refused write replaced the FIFO or left its temp file" >&2
  exit 1
fi
echo "OK: malformed, missing, repeated and unknown CLI input exits 124 naming it"

echo "== examples: each one runs and prints =="
# The examples drive Pipeline.run and fuzzing campaigns through the
# public API only, so a change that breaks them can pass every test.
for src in examples/*.ml; do
  ex=$(basename "$src" .ml)
  status=0
  dune exec --no-build "examples/$ex.exe" > "$tmp/ex_$ex.out" 2>"$tmp/ex_$ex.err" || status=$?
  if [ "$status" -ne 0 ]; then
    echo "FAIL: examples/$ex.exe exited $status" >&2
    cat "$tmp/ex_$ex.err" >&2
    exit 1
  fi
  if [ ! -s "$tmp/ex_$ex.out" ]; then
    echo "FAIL: examples/$ex.exe printed nothing on stdout" >&2
    exit 1
  fi
done
echo "OK: every example exits 0 and prints a report"

echo "== perfbench: every workload matches its golden digests =="
# The golden digests pin every generated spec (specgen: Pipeline.run and
# Syzdescribe.run per module, cold and through a warm answer cache) and
# every generated and mutated program (fuzz campaigns), so any behaviour
# change in parsing, spec generation, the generator or the mutation
# operators shows up here as "correct":false on the result line.
for w in specgen-cold specgen-warm fuzz-kernel fuzz-module; do
  bash perfbench/run.sh --workload "$w" --seed 1 --seconds 10 --trace 0 > "$tmp/perf_$w.out"
  if ! tail -n 1 "$tmp/perf_$w.out" | grep -q '"correct":true'; then
    echo "FAIL: perfbench $w does not match its golden digests:" >&2
    tail -n 1 "$tmp/perf_$w.out" >&2
    exit 1
  fi
done
echo "OK: perfbench specgen-cold, specgen-warm, fuzz-kernel and fuzz-module report \"correct\":true"

echo "== CI green =="
