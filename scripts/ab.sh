#!/usr/bin/env bash
# Paired A/B measurement of the doall benchmark, with an A/A control.
#
#   bash scripts/ab.sh [-w workloads] [-n pairs] [-s seconds] [-S seed] [-d dir] [-k] A B
#
# A and B are git revisions; A is the baseline. Both are exported with
# `git archive` into trees laid out the same way under the scratch
# directory (dir/t/a, dir/t/b), plus a second copy of A (dir/t/c) for the
# A/A control. Each tree's benchmark is built once, then every workload
# runs n rounds. A round runs all three trees, in an order that rotates
# from round to round so none of them always goes first, each through
# `bash doallbench/run.sh --workload W --seed S --seconds SEC --trace 0`,
# the benchmark's own command.
#
# For every end-to-end metric of BENCHMARK.json (read, never edited) it
# prints A's median and IQR, B's median, B's wins over A in the paired
# rounds, and a verdict:
#   win         B is better in at least 90% of the rounds, and its median
#               beats A's by more than the noise;
#   loss        B's median is worse than A's by more than the metric's
#               bound and by more than the noise;
#   unresolved  anything else.
# The noise is the largest of A's IQR, the control's IQR and the gap
# between the control's and A's medians (the "A/A gap" column), all
# relative to A's median. Running the tool with A = B measures the
# verdict rule itself: every metric should read "unresolved".
# Failed runs (non-zero exit or "correct": false) are counted per tree.
# The last line of output is one summary line for a change log.
#
# Defaults: every workload, 5 pairs, BENCHMARK.json's run_seconds, seed 1,
# a fresh directory under ${TMPDIR:-/tmp} that is removed at exit unless
# -k is given. Needs git, go and python3.
set -euo pipefail

usage() { sed -n '2,4p' "$0" >&2; exit 2; }

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
bench="$root/BENCHMARK.json"
workloads="" pairs=5 seconds="" seed=1 dir="" keep=0
while getopts "w:n:s:S:d:k" opt; do
	case "$opt" in
	w) workloads="$OPTARG" ;;
	n) pairs="$OPTARG" ;;
	s) seconds="$OPTARG" ;;
	S) seed="$OPTARG" ;;
	d) dir="$OPTARG" ;;
	k) keep=1 ;;
	*) usage ;;
	esac
done
shift $((OPTIND - 1))
[ $# -eq 2 ] || usage
[ "$pairs" -ge 1 ] 2>/dev/null || { echo "ab.sh: -n must be a positive integer" >&2; exit 2; }

revA="$(git -C "$root" rev-parse --verify "$1^{commit}")"
revB="$(git -C "$root" rev-parse --verify "$2^{commit}")"
if [ -z "$workloads" ]; then
	workloads="$(python3 -c 'import json,sys; print(",".join(w["name"] for w in json.load(open(sys.argv[1]))["workloads"]))' "$bench")"
fi
if [ -z "$seconds" ]; then
	seconds="$(python3 -c 'import json,sys; print(json.load(open(sys.argv[1]))["run_seconds"])' "$bench")"
fi

if [ -z "$dir" ]; then
	dir="$(mktemp -d "${TMPDIR:-/tmp}/ab.XXXXXX")"
	[ "$keep" -eq 1 ] || trap 'rm -rf "$dir"' EXIT
fi
mkdir -p "$dir/t" "$dir/raw"

# Export and build the three trees. The build mirrors doallbench/run.sh,
# so each measured run's own build is a cache hit.
for x in a b c; do
	rev="$revA"
	[ "$x" = b ] && rev="$revB"
	rm -rf "${dir:?}/t/$x"
	mkdir -p "$dir/t/$x"
	git -C "$root" archive "$rev" | tar -x -C "$dir/t/$x"
	(
		cd "$dir/t/$x"
		out="$(pwd)/.bench_build"
		mkdir -p "$out/gocache" "$out/gopath" "$out/tmp"
		export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp"
		export GOTOOLCHAIN=local GOWORK=off GOENV=off GOFLAGS=
		go -C doallbench build -o "$out/doallbench" .
	)
done

# Rotating run orders: A runs before B in every other round.
orders=(abc bca cab cba acb bac)
IFS=, read -r -a wls <<<"$workloads"
for w in "${wls[@]}"; do
	for ((i = 0; i < pairs; i++)); do
		order="${orders[i % ${#orders[@]}]}"
		for ((k = 0; k < 3; k++)); do
			x="${order:k:1}"
			res="$dir/raw/$w.$i.$x"
			status=0
			(cd "$dir/t/$x" && bash doallbench/run.sh --workload "$w" --seed "$seed" \
				--seconds "$seconds" --trace 0) >"$res.out" 2>"$res.err" || status=$?
			echo "$status" >"$res.status"
			echo "ab.sh: $w round $((i + 1))/$pairs tree $x exit $status" >&2
		done
	done
done

python3 - "$bench" "$dir/raw" "$workloads" "$pairs" "$seconds" "$seed" "$revA" "$revB" <<'EOF'
import json, sys

bench_path, raw, workloads, pairs, seconds, seed, rev_a, rev_b = sys.argv[1:]
pairs = int(pairs)
bench = json.load(open(bench_path))
metrics = bench["end_to_end"]


def load(w, i, x):
    base = f"{raw}/{w}.{i}.{x}"
    status = int(open(base + ".status").read().strip() or 1)
    rep = None
    for line in open(base + ".out"):
        line = line.strip()
        if line.startswith("{") and '"metrics"' in line:
            rep = json.loads(line)
    ok = status == 0 and rep is not None and rep.get("correct", False)
    return ok, (rep or {}).get("metrics", {})


def quantile(xs, q):
    s = sorted(x for x in xs if x == x)  # NaN marks a metric a run did not report
    if not s:
        return float("nan")
    pos = q * (len(s) - 1)
    lo, hi = int(pos), min(int(pos) + 1, len(s) - 1)
    return s[lo] + (s[hi] - s[lo]) * (pos - lo)


def rel(x, base):
    if base == 0:
        return 0.0 if x == 0 else float("inf")
    return x / abs(base)


def verdict(sign, a, other, noise, bound):
    """Verdict of `other` against `a` (paired per round)."""
    gain = sign * rel(quantile(other, 0.5) - quantile(a, 0.5), quantile(a, 0.5))
    wins = sum(1 for x, y in zip(a, other) if sign * (y - x) > 0)
    if wins >= 0.9 * len(a) and gain > noise:
        return "win", gain, wins
    if -gain > bound and -gain > noise:
        return "loss", gain, wins
    return "unresolved", gain, wins


summary, failed_total = [], 0
for w in workloads.split(","):
    runs = {x: [load(w, i, x) for i in range(pairs)] for x in "abc"}
    failed = {x: sum(1 for ok, _ in runs[x] if not ok) for x in "abc"}
    failed_total += failed["a"] + failed["b"]
    print(f"\n== {w}: {pairs} rounds x {seconds} s, seed {seed}; "
          f"failed runs A {failed['a']}/{pairs}, B {failed['b']}/{pairs}, A' {failed['c']}/{pairs}")
    print(f"{'metric':<13} {'A median':>11} {'A IQR':>10} {'B median':>11} {'B wins':>6} "
          f"{'B gain':>8} {'A/A gap':>8} {'noise':>7} {'bound':>6}  verdict")
    counts = {"win": 0, "loss": 0, "unresolved": 0}
    headline = ""
    for m in metrics:
        name, sign, bound = m["name"], (1 if m["better"] == "higher" else -1), m["bound"]
        vals = {x: [r[1].get(name, {}).get("value", float("nan")) for r in runs[x]] for x in "abc"}
        a, b, c = vals["a"], vals["b"], vals["c"]
        med_a = quantile(a, 0.5)
        iqr = lambda xs: quantile(xs, 0.75) - quantile(xs, 0.25)
        noise = max(rel(iqr(a), med_a), rel(iqr(c), med_a),
                    abs(rel(quantile(c, 0.5) - med_a, med_a)))
        gap = sign * rel(quantile(c, 0.5) - med_a, med_a)
        v, gain, wins = verdict(sign, a, b, noise, bound)
        counts[v] += 1
        print(f"{name:<13} {med_a:>11.4g} {iqr(a):>10.3g} {quantile(b, 0.5):>11.4g} "
              f"{wins:>3}/{pairs:<2} {100 * gain:>+7.1f}% {100 * gap:>+7.1f}% {100 * noise:>6.1f}% "
              f"{100 * bound:>5.0f}%  {v}")
        if name == "cells_per_s":
            headline = f"cells_per_s {med_a:.4g} vs {quantile(b, 0.5):.4g} ({wins}/{pairs} B wins)"
    print(f"verdict {w}: {counts['win']} win, {counts['loss']} loss, {counts['unresolved']} unresolved")
    summary.append(f"{w} {counts['win']} win/{counts['loss']} loss/{counts['unresolved']} unresolved, {headline}")

print(f"\nab.sh {rev_a[:7]} vs {rev_b[:7]}, {pairs} rotating rounds x {seconds} s, seed {seed}, "
      f"A/A control: " + "; ".join(summary) + f"; failed runs {failed_total}.")
EOF
