#!/bin/sh
# Behaviour guard for refactors: checks that the working tree simulates
# exactly what revision REV does.
#
#   tool/neutral.sh [REV]      (default: the merge base of HEAD and main)
#
# REV is exported with `git archive` into a fresh `mktemp -d` directory
# (set TMPDIR to choose where) and built there; the working tree is
# built in place. Both sides then run
#   - every scenario REV registers (the SCENARIOS section of
#     `xmp_sim run --help=plain`) with `run --quick --no-cache --jobs 2`,
#     and the two stdouts must be byte-equal (`cmp`);
#   - each run spec of the fixed list below with `run --no-cache`, whose
#     stdouts must be byte-equal too: they reach Run_spec's own
#     `workload ...` and `wan ...` headings, which no scenario prints;
#   - `xmpbench.exe child W --seed 1` for the four benchmark workloads,
#     and at `--domains 2` for websearch.k8 and wan.2dc, whose digest,
#     engine.events and engine.heap_peak must be equal.
# It prints one line per comparison and exits 1 on any difference, 2 if
# a side fails to build or run. The export is removed on exit. About
# 2 minutes of runs on 2 vCPUs, plus the two builds.
set -eu

root=$(git rev-parse --show-toplevel)
rev=${1:-$(git -C "$root" merge-base HEAD main)}
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT INT TERM

die() {
  echo "neutral: $*" >&2
  exit 2
}

git -C "$root" rev-parse --verify --quiet "$rev^{commit}" >/dev/null ||
  die "unknown revision $rev"
mkdir "$tmp/base" "$tmp/out"
git -C "$root" archive "$rev" | tar -x -C "$tmp/base"

build() {
  (cd "$1" && dune build --root . bin/xmp_sim.exe xmpbench/xmpbench.exe) ||
    die "build failed in $1"
}
echo "neutral: building $rev and the working tree"
build "$tmp/base"
build "$root"

scenarios=$("$tmp/base/_build/default/bin/xmp_sim.exe" run --help=plain |
  sed -n '/^SCENARIOS/,/^[A-Z]/p' |
  sed -n 's/^       \([a-z0-9][a-z0-9._]*\)$/\1/p')
[ -n "$scenarios" ] || die "no scenarios listed by $rev"

# One run spec a line: a pattern run, a faulted one, open-loop runs on
# a fat tree and on both WAN shapes, and a testbed panel.
specs='ft:4 XMP-2 permutation horizon=50ms
ft:4 LIA-2 incast horizon=50ms fault=loss@0..inf@tag=rack@bern=0.01@any
ft:4 DCTCP datamining horizon=5ms drain=10ms
ft:4+ft:4 XMP-2 websearch horizon=5ms drain=10ms
ls:4,2,4+ft:4 TCP websearch horizon=5ms drain=10ms trunk=10
tb:fig7 beta=5 mark=15 scale=0.05'

status=0
differ() {
  echo "DIFFER  $*"
  status=1
}

# Each side runs in its own output directory, so neither reads or
# writes the other's files.
for side in base work; do
  dir=$tmp/base
  [ "$side" = work ] && dir=$root
  mkdir "$tmp/out/$side"
  # shellcheck disable=SC2086 # one word per scenario name
  (cd "$tmp/out/$side" &&
    "$dir/_build/default/bin/xmp_sim.exe" run --quick --no-cache --jobs 2 \
      $scenarios >scenarios.out 2>scenarios.err) || {
    cat "$tmp/out/$side/scenarios.err" >&2
    die "$side: xmp_sim run failed"
  }
  i=0
  while IFS= read -r spec; do
    i=$((i + 1))
    (cd "$tmp/out/$side" &&
      "$dir/_build/default/bin/xmp_sim.exe" run --no-cache "$spec" \
        >"spec$i.out" 2>"spec$i.err") || {
      cat "$tmp/out/$side/spec$i.err" >&2
      die "$side: xmp_sim run '$spec' failed"
    }
  done <<SPECS
$specs
SPECS
  for run in "bulk.k4 1" "incast.k4 1" "websearch.k8 1" "wan.2dc 1" \
    "websearch.k8 2" "wan.2dc 2"; do
    set -- $run
    (cd "$tmp/out/$side" &&
      "$dir/_build/default/xmpbench/xmpbench.exe" child "$1" --seed 1 \
        --domains "$2" |
      grep -o -e '"digest": "[0-9a-f]*"' -e '"engine.events": [0-9]*' \
        -e '"engine.heap_peak": [0-9]*' >"$1.d$2") ||
      die "$side: xmpbench child $1 --domains $2 failed"
  done
done

n=$(echo "$scenarios" | wc -l)
if cmp -s "$tmp/out/base/scenarios.out" "$tmp/out/work/scenarios.out"; then
  echo "same    $n quick scenarios ($(wc -c <"$tmp/out/work/scenarios.out") bytes)"
else
  differ "$n quick scenarios:"
  diff "$tmp/out/base/scenarios.out" "$tmp/out/work/scenarios.out" | head -20
fi
i=0
while IFS= read -r spec; do
  i=$((i + 1))
  if cmp -s "$tmp/out/base/spec$i.out" "$tmp/out/work/spec$i.out"; then
    echo "same    '$spec' ($(wc -c <"$tmp/out/work/spec$i.out") bytes)"
  else
    differ "'$spec':"
    diff "$tmp/out/base/spec$i.out" "$tmp/out/work/spec$i.out" | head -20
  fi
done <<SPECS
$specs
SPECS
for f in bulk.k4.d1 incast.k4.d1 websearch.k8.d1 wan.2dc.d1 websearch.k8.d2 \
  wan.2dc.d2; do
  if cmp -s "$tmp/out/base/$f" "$tmp/out/work/$f"; then
    echo "same    $f: $(tr '\n' ' ' <"$tmp/out/work/$f")"
  else
    differ "$f: $(tr '\n' ' ' <"$tmp/out/base/$f")-> $(tr '\n' ' ' <"$tmp/out/work/$f")"
  fi
done
exit $status
