#!/usr/bin/env bash
# A/B run of the end-to-end benchmark on two git revisions.
#
#   tools/bench_ab.sh REV_A REV_B WORKLOAD [SEEDS]
#
# Checks both revisions out as detached `git worktree`s under $TMPDIR,
# builds each, then runs
#   python3 perfbench/run.py --workload WORKLOAD --seed S --trace 0
# in both for every seed in SEEDS (space- or comma-separated, default
# "1 2 3 4 5"), A and B back to back, with the order flipped on every
# other seed so drift in the host's speed falls on both sides alike.  Each
# run lasts BENCH_SECONDS (default: run_seconds of BENCHMARK.json).
#
# Prints, for every end-to-end metric BENCHMARK.json declares, the median,
# the quartiles and the min-max range of each side.  A metric is flagged only when the
# two ranges do not overlap ("B better" / "B worse" in the metric's own
# direction); overlapping ranges print "~".  "B wins" counts the seeds on
# which B's run read better than A's, ties counting for neither.  The
# worktrees and the runs' result lines live in one directory under $TMPDIR,
# removed on exit, also on failure or interrupt.
#
# Exit code: 0 when every run completed and passed its output checks, 1
# otherwise.
set -euo pipefail

if [ $# -lt 3 ] || [ $# -gt 4 ]; then
  echo "usage: tools/bench_ab.sh REV_A REV_B WORKLOAD [SEEDS]" >&2
  exit 2
fi
workload=$3
seeds=$(echo "${4:-1 2 3 4 5}" | tr ',' ' ')
root=$(git rev-parse --show-toplevel)
rev_a=$(git -C "$root" rev-parse --verify "$1^{commit}")
rev_b=$(git -C "$root" rev-parse --verify "$2^{commit}")
seconds=${BENCH_SECONDS:-$(python3 -c 'import json,sys; print(json.load(open(sys.argv[1]))["run_seconds"])' "$root/BENCHMARK.json")}

work=$(mktemp -d "${TMPDIR:-/tmp}/bench_ab.XXXXXX")
cleanup() {
  for side in a b; do
    if [ -d "$work/$side" ]; then
      git -C "$root" worktree remove --force "$work/$side" >/dev/null 2>&1 || true
    fi
  done
  git -C "$root" worktree prune
  rm -rf "$work"
}
trap cleanup EXIT
trap 'exit 130' INT TERM

for side in a b; do
  if [ $side = a ]; then rev=$rev_a; else rev=$rev_b; fi
  git -C "$root" worktree add --detach "$work/$side" "$rev" >/dev/null
  echo "bench_ab: building $side = ${rev:0:12}" >&2
  (cd "$work/$side" && dune build --root . --cache=disabled ./perfbench/perfbench.exe)
done

status=0
run() {
  local side=$1 seed=$2
  echo "bench_ab: $workload seed $seed, side $side" >&2
  if ! (cd "$work/$side" &&
        python3 perfbench/run.py --workload "$workload" --seed "$seed" \
          --seconds "$seconds" --trace 0) > "$work/out" 2>/dev/null; then
    status=1
  fi
  tail -n 1 "$work/out" >> "$work/$side.jsonl"
}
i=0
for seed in $seeds; do
  if [ $((i % 2)) -eq 0 ]; then run a "$seed"; run b "$seed"
  else run b "$seed"; run a "$seed"; fi
  i=$((i + 1))
done

python3 - "$root/BENCHMARK.json" "$work/a.jsonl" "$work/b.jsonl" \
  "${rev_a:0:12}" "${rev_b:0:12}" "$workload" <<'EOF'
import json, statistics, sys

bench, a_file, b_file, rev_a, rev_b, workload = sys.argv[1:]
declared = json.load(open(bench))["end_to_end"]


def runs(path):
    out = []
    for line in open(path):
        try:
            out.append(json.loads(line))
        except ValueError:
            out.append({})
    return out


a, b = runs(a_file), runs(b_file)
print(f"{workload}: A = {rev_a}, B = {rev_b}, {len(a)} runs each")
print(f"{'metric':<16} {'A median':>10} {'A q1-q3':>21} {'A min-max':>21} "
      f"{'B median':>10} {'B q1-q3':>21} {'B min-max':>21}  B wins  verdict")


def quartiles(v):
    return statistics.quantiles(v, n=4)[::2] if len(v) > 1 else [v[0], v[0]]


def value(r, name):
    return r.get("metrics", {}).get(name, {}).get("value")


for m in declared:
    va = [v for v in (value(r, m["name"]) for r in a) if v is not None]
    vb = [v for v in (value(r, m["name"]) for r in b) if v is not None]
    if not va or not vb:
        continue
    # pairs are the two runs of one seed; ties count for neither side
    pairs = [(value(x, m["name"]), value(y, m["name"])) for x, y in zip(a, b)]
    pairs = [(x, y) for x, y in pairs if x is not None and y is not None]
    wins = sum(1 for x, y in pairs if (y > x if m["better"] == "higher" else y < x))
    lo_a, hi_a, lo_b, hi_b = min(va), max(va), min(vb), max(vb)
    if hi_b < lo_a or hi_a < lo_b:
        better = (lo_b > hi_a) == (m["better"] == "higher")
        verdict = "B better" if better else "B worse"
    else:
        verdict = "~"
    rng = lambda lo, hi: f"{lo:.4g}-{hi:.4g}"
    print(f"{m['name']:<16} {statistics.median(va):>10.4g} {rng(*quartiles(va)):>21} "
          f"{rng(lo_a, hi_a):>21} {statistics.median(vb):>10.4g} {rng(*quartiles(vb)):>21} "
          f"{rng(lo_b, hi_b):>21}  {wins:>2}/{len(pairs):<3}  {verdict}")


def failed(rs):
    att = sum(r.get("attempted", 0) for r in rs)
    bad = sum(r.get("failed", 0) for r in rs)
    wrong = sum(1 for r in rs if not r.get("correct", False))
    return f"{bad}/{att} ops failed, {wrong} run(s) failed their checks"


print(f"A: {failed(a)}")
print(f"B: {failed(b)}")
EOF
exit $status
