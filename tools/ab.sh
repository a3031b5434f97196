#!/usr/bin/env bash
# A/B runner for the benchmark: alternating pairs of perfbench runs on two
# checkouts, with a verdict per end-to-end metric against the bounds in
# BENCHMARK.json.
#
#   tools/ab.sh BASE CHANGE WORKLOAD PAIRS [run.sh args]
#   tools/ab.sh HEAD~1 . cold 10
#   tools/ab.sh main . cold 3 --seed 6
#   tools/ab.sh main . study 5 --world 11
#
# BASE and CHANGE are git revisions, each checked out with `git worktree
# add` into a temporary directory that is removed on exit, or directories
# holding a checkout (`.` is the working tree).  Pair i runs both sides on
# seed ((i - 1) mod 5) + 1 unless the extra arguments pass --seed, and
# with --seconds 10 --trace 0 unless they pass those; every other extra
# argument goes to perfbench/run.sh unchanged.  Odd pairs run BASE first,
# even pairs CHANGE first, so drift in host speed does not favour a side.
#
# Per metric it prints each side's median and quartiles, the ratio of the
# medians, how many pairs the change won, the bound, and a verdict:
#   gain        the change wins >= 9/10 of the pairs and its median beats
#               the base median by more than the base's interquartile range
#   worse       the change's median is worse by more than the bound
#   identical   every pair reads the same on both sides (deterministic
#               metrics such as error_median_mi)
#   unresolved  the base's interquartile range is wider than the bound
#               and the change does not win every pair
#   within      otherwise
# Needs git, dune and python3.  The exit status is 1 if any run was not
# correct, 2 on a usage error.
set -euo pipefail

usage() {
  sed -n '2,/^set -euo/p' "$0" | sed -e '$d' -e 's/^# \{0,1\}//' >&2
  exit 2
}
[ $# -ge 4 ] || usage
base_arg=$1 change_arg=$2 workload=$3 pairs=$4
shift 4
extra=("$@")
case "$pairs" in '' | *[!0-9]* | 0) usage ;; esac

root=$(git -C "$(dirname "$0")" rev-parse --show-toplevel)
tmp=$(mktemp -d "${TMPDIR:-/tmp}/octant-ab.XXXXXX")
cleanup() {
  for side in base change; do
    [ -d "$tmp/$side" ] && git -C "$root" worktree remove --force "$tmp/$side" >/dev/null 2>&1
  done
  git -C "$root" worktree prune >/dev/null 2>&1 || true
  rm -rf "$tmp"
}
trap cleanup EXIT

# A side is a directory holding perfbench/run.sh, or a revision to check out.
checkout() {
  local arg=$1 side=$2 rev
  if [ -f "$arg/perfbench/run.sh" ]; then
    (cd "$arg" && pwd)
  else
    rev=$(git -C "$root" rev-parse --verify --quiet "$arg^{commit}") ||
      { echo "ab.sh: $arg is neither a checkout nor a revision" >&2; return 2; }
    git -C "$root" worktree add --detach "$tmp/$side" "$rev" >/dev/null
    echo "$tmp/$side"
  fi
}
base_dir=$(checkout "$base_arg" base)
change_dir=$(checkout "$change_arg" change)

has() {
  local flag
  for flag in "${extra[@]+"${extra[@]}"}"; do [ "$flag" = "$1" ] && return 0; done
  return 1
}
defaults=()
has --seconds || defaults+=(--seconds 10)
has --trace || defaults+=(--trace 0)

# Build both sides before the first timed run.
for dir in "$base_dir" "$change_dir"; do
  (cd "$dir" && DUNE_CACHE=disabled dune build --root . ./perfbench/octbench.exe) >"$tmp/build.log" 2>&1 ||
    { cat "$tmp/build.log" >&2; exit 2; }
done

mkdir -p "$tmp/runs"
run() {
  local side=$1 dir=$2 pair=$3 seed_args=("${@:4}") out
  out="$tmp/runs/$side.$pair.json"
  if ! bash "$dir/perfbench/run.sh" --workload "$workload" "${seed_args[@]}" \
    "${defaults[@]+"${defaults[@]}"}" "${extra[@]+"${extra[@]}"}" 2>"$tmp/runs/$side.$pair.err" |
    tail -n 1 >"$out"; then
    echo "ab.sh: $side run of pair $pair failed; see below" >&2
    tail -n 5 "$tmp/runs/$side.$pair.err" >&2
  fi
}
for pair in $(seq 1 "$pairs"); do
  seed_args=()
  has --seed || seed_args=(--seed $(((pair - 1) % 5 + 1)))
  if [ $((pair % 2)) -eq 1 ]; then
    run base "$base_dir" "$pair" "${seed_args[@]+"${seed_args[@]}"}"
    run change "$change_dir" "$pair" "${seed_args[@]+"${seed_args[@]}"}"
  else
    run change "$change_dir" "$pair" "${seed_args[@]+"${seed_args[@]}"}"
    run base "$base_dir" "$pair" "${seed_args[@]+"${seed_args[@]}"}"
  fi
done

python3 - "$root/BENCHMARK.json" "$tmp/runs" "$pairs" "$workload" "${extra[*]-}" <<'PY'
import json, sys

bench_path, runs_dir, pairs, workload, extra = sys.argv[1:6]
pairs = int(pairs)
metrics = json.load(open(bench_path))["end_to_end"]


def load(side, pair):
    try:
        return json.load(open(f"{runs_dir}/{side}.{pair}.json"))
    except (OSError, ValueError):
        return {"correct": False, "failed": None, "metrics": {}}


runs = {s: [load(s, p) for p in range(1, pairs + 1)] for s in ("base", "change")}


def value(run, name):
    m = run.get("metrics", {}).get(name)
    return m["value"] if m else float("nan")


def quantile(xs, q):
    xs = sorted(xs)
    h = (len(xs) - 1) * q
    lo = int(h)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (h - lo) * (xs[hi] - xs[lo])


print(f"workload {workload}, {pairs} pairs{', args ' + extra if extra else ''}")
print("pair side   correct failed " + " ".join(f"{m['name']:>16}" for m in metrics))
for p in range(pairs):
    for side in ("base", "change"):
        r = runs[side][p]
        vals = " ".join(f"{value(r, m['name']):16.4g}" for m in metrics)
        print(f"{p + 1:4} {side:6} {str(r.get('correct')).lower():>7} {str(r.get('failed')):>6} {vals}")
print()
print(f"{'metric':16} {'base p50 [p25, p75]':>30} {'change p50 [p25, p75]':>30}"
      f" {'ratio':>6} {'wins':>6} {'bound':>6}  verdict")
for m in metrics:
    name, lower, bound = m["name"], m["better"] == "lower", m["bound"]
    b = [value(r, name) for r in runs["base"]]
    c = [value(r, name) for r in runs["change"]]
    b_med, c_med = quantile(b, 0.5), quantile(c, 0.5)
    b_iqr = quantile(b, 0.75) - quantile(b, 0.25)
    wins = sum((y < x) if lower else (y > x) for x, y in zip(b, c))
    gain = (b_med - c_med) if lower else (c_med - b_med)
    ratio = c_med / b_med if b_med else (1.0 if c_med == b_med else float("inf"))
    worse_by = (ratio - 1.0) if lower else (1.0 - ratio)
    spread = b_iqr / abs(b_med) if b_med else (0.0 if b_iqr == 0 else float("inf"))
    if wins >= 0.9 * pairs and gain > b_iqr:
        verdict = "gain"
    elif worse_by > bound:
        verdict = "worse"
    elif b == c:
        verdict = "identical"
    elif spread > bound and wins < pairs:
        verdict = "unresolved"
    else:
        verdict = "within bound"
    fmt = lambda xs, med: f"{med:.4g} [{quantile(xs, 0.25):.4g}, {quantile(xs, 0.75):.4g}]"
    print(f"{name:16} {fmt(b, b_med):>30} {fmt(c, c_med):>30}"
          f" {ratio:6.3f} {wins:>3}/{pairs:<2} {bound:6.2f}  {verdict}")

bad = [(s, p + 1) for s in runs for p, r in enumerate(runs[s]) if r.get("correct") is not True]
if bad:
    print("not correct: " + ", ".join(f"{s} pair {p}" for s, p in bad))
    sys.exit(1)
PY
