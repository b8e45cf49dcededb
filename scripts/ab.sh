#!/usr/bin/env bash
# ab compares the repository benchmark between a commit and the working
# tree: N interleaved pairs of
#
#   bash bench/run.sh --workload W --seed s --seconds 20
#
# one run on each side per pair (seed s = the pair's number), the side
# that runs first alternating from pair to pair. REF is built in a
# temporary `git worktree`, removed on exit. Each run's last stdout line
# is its JSON result. For every end-to-end metric BENCHMARK.json lists,
# ab prints each side's median and q1–q3, the working tree's ratio to
# REF's median, in how many of the N pairs the working tree did better
# and two verdicts; then every pair's two values, base → head, per
# metric, and each side's fail_share over all its runs.
#
#   gain   yes: the working tree is ahead in at least 9 of 10 pairs and
#          its median differs from REF's by more than REF's q3 − q1
#   bound  ok: the working tree's median is no worse than REF's by more
#          than the metric's bound (a share of REF's median); worse: it
#          is; unresolved: REF's q3 − q1 alone exceeds the bound
#
#   make ab REF=<commit> W=<workload> N=<pairs>
#   bash scripts/ab.sh <commit> <workload> <pairs>
#
# Needs bash, git and jq. One run at a time: the two sides never share
# the machine.
set -euo pipefail

usage="usage: ab.sh REF WORKLOAD PAIRS"
ref=${1:?$usage}
wl=${2:?$usage}
n=${3:?$usage}
root=$(git rev-parse --show-toplevel)
work=$(mktemp -d)
cleanup() {
  git -C "$root" worktree remove --force "$work/ref" >/dev/null 2>&1 || true
  rm -rf "$work"
}
trap cleanup EXIT

git -C "$root" worktree add --detach "$work/ref" "$ref" >/dev/null 2>&1
sha=$(git -C "$work/ref" rev-parse --short HEAD)

# run DIR SIDE SEED: one benchmark run in checkout DIR, its result line
# appended to SIDE.jsonl.
run() {
  (cd "$1" && bash bench/run.sh --workload "$wl" --seed "$3" --seconds 20) | tail -n 1 >>"$work/$2.jsonl"
}

for ((i = 1; i <= n; i++)); do
  if ((i % 2)); then
    run "$work/ref" base "$i"
    run "$root" head "$i"
  else
    run "$root" head "$i"
    run "$work/ref" base "$i"
  fi
  echo "ab: pair $i of $n done" >&2
done

jq -n -r --arg wl "$wl" --arg ref "$sha" --argjson n "$n" \
  --slurpfile base "$work/base.jsonl" --slurpfile head "$work/head.jsonl" \
  --slurpfile spec "$root/BENCHMARK.json" '
# q(p): the p-quantile of an array, interpolating between ranks.
def q($p): sort as $s | ($s | length) as $k
  | if $k == 0 then null
    else (($k - 1) * $p) as $x | ($x | floor) as $i
      | $s[$i] + ($s[[$i + 1, $k - 1] | min] - $s[$i]) * ($x - $i)
    end;
def num: if . == null then "-" else (. * 1000 | round / 1000 | tostring) end;
def pad($w): tostring | if length < $w then . + (" " * ($w - length)) else . end;
def vals($runs; $m): [$runs[] | .metrics[$m].value | select(. != null)];
def side($runs; $m): vals($runs; $m)
  | "\(q(0.5) | num) [\(q(0.25) | num), \(q(0.75) | num)]";
def share($runs): ([$runs[].failed] | add) as $f | ([$runs[].attempted] | add) as $a
  | "\(if $a > 0 then $f / $a else 0 end | num) (\($f) of \($a))";
"workload \($wl): \($n) pairs, REF \($ref) (base) against the working tree (head)",
("metric" | pad(22)) + ("better" | pad(7)) + ("base median [q1, q3]" | pad(34))
  + ("head median [q1, q3]" | pad(34)) + ("head/base" | pad(10)) + ("head wins" | pad(11))
  + ("gain" | pad(6)) + "bound",
($spec[0].end_to_end[] | .name as $m | .better as $b | .bound as $bound
  | (vals($base; $m) | q(0.5)) as $bm
  | (vals($head; $m) | q(0.5)) as $hm
  | (vals($base; $m) | q(0.75) - q(0.25)) as $spread
  | ([range(0; [$base, $head | length] | min)
      | ($base[.].metrics[$m].value) as $x | ($head[.].metrics[$m].value) as $y
      | select($x != null and $y != null and (if $b == "higher" then $y > $x else $y < $x end))]
     | length) as $wins
  | (if $bm == null or $hm == null then "-"
     elif $wins * 10 >= $n * 9 and ($hm - $bm | fabs) > $spread then "yes" else "no" end) as $gain
  | (if $bm == null or $hm == null then "-"
     elif $spread > $bound * ($bm | fabs) then "unresolved"
     elif (if $b == "higher" then $hm >= $bm * (1 - $bound) else $hm <= $bm * (1 + $bound) end) then "ok"
     else "worse" end) as $verdict
  | ($m | pad(22)) + ($b | pad(7)) + (side($base; $m) | pad(34)) + (side($head; $m) | pad(34))
    + ((if $bm == null or $hm == null or $bm == 0 then null else $hm / $bm end) | num | pad(10))
    + ("\($wins) of \($n)" | pad(11)) + ($gain | pad(6)) + $verdict),
"pairs, base → head:",
($spec[0].end_to_end[] | .name as $m
  | ($m | pad(22)) + ([range(0; [$base, $head | length] | min)
      | "\($base[.].metrics[$m].value | num)→\($head[.].metrics[$m].value | num)"] | join("  "))),
"fail_share             base \(share($base))   head \(share($head))"
'
