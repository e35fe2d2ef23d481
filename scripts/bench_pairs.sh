#!/bin/sh
# Compares this tree's benchmark with another revision's, in alternating
# pairs of runs: the way a speed-up is claimed (ten pairs or more, the
# change winning nine in ten, the median gap wider than the base's own
# quartile spread).
#
#   scripts/bench_pairs.sh <base-rev> <workload> [pairs] [seed]
#
# Exports <base-rev> into a scratch tree under $TMPDIR (`git archive`, as
# scripts/artifact_diff.sh does), builds the benchmark of both trees from
# the manifest BENCHMARK.json's command names (release, offline, each
# tree into its own target directory), then runs `pairs` (default 10)
# pairs of
#
#   wmps_bench --workload <workload> --seed <seed> --seconds <run_seconds> --trace 0
#
# with `seed` defaulting to 7 and `run_seconds` read from BENCHMARK.json,
# swapping which side goes first on every pair. Each run writes to a file
# and nothing else runs beside it; the files are read only once every
# run is done. It then prints, per end-to-end metric of the result, each
# side's first quartile, median and third quartile, the ratio of the
# medians (change over base), the pairs each side won by the direction
# BENCHMARK.json gives (ties count for neither), and whether the median
# gap is wider than the base's interquartile spread. Runs that report
# `correct: false` or failed operations are counted per side.
# Point TMPDIR at a scratch directory to keep the export out of /tmp.
set -e

base="${1:?usage: scripts/bench_pairs.sh <base-rev> <workload> [pairs] [seed]}"
workload="${2:?usage: scripts/bench_pairs.sh <base-rev> <workload> [pairs] [seed]}"
pairs="${3:-10}"
seed="${4:-7}"
root="$(git rev-parse --show-toplevel)"
rev="$(git -C "$root" rev-parse --verify "$base^{commit}")"
spec="$root/BENCHMARK.json"
manifest="$(sed -n 's/.*"--manifest-path", *"\([^"]*\)".*/\1/p' "$spec")"
seconds="$(sed -n 's/.*"run_seconds": *\([0-9]*\).*/\1/p' "$spec")"
bin="$(sed -n '/^\[\[bin\]\]/,/^$/s/^name *= *"\([^"]*\)".*/\1/p' "$root/$manifest")"
work="$(mktemp -d "${TMPDIR:-/tmp}/bench_pairs.XXXXXX")"
trap 'rm -rf "$work"' EXIT
mkdir "$work/src" "$work/runs"
git -C "$root" archive "$rev" | tar -x -C "$work/src"

echo "bench_pairs: building $base ($rev) and the working tree"
(cd "$work/src" && CARGO_TARGET_DIR="$work/target-base" \
    cargo build --release --offline --quiet --manifest-path "$manifest")
(cd "$root" && CARGO_TARGET_DIR="$work/target-change" \
    cargo build --release --offline --quiet --manifest-path "$manifest")

echo "bench_pairs: $pairs pairs of $workload, seed $seed, $seconds s a run"
i=0
while [ "$i" -lt "$pairs" ]; do
    if [ $((i % 2)) -eq 0 ]; then order="base change"; else order="change base"; fi
    for side in $order; do
        "$work/target-$side/release/$bin" --workload "$workload" --seed "$seed" \
            --seconds "$seconds" --trace 0 > "$work/runs/$side.$i.txt"
    done
    i=$((i + 1))
done

# One line per run and metric: `<side> <pair> <metric> <value>`, read off
# each run's last line (its JSON result); `<side> <pair> ok|bad`.
for f in "$work"/runs/*.txt; do
    name="$(basename "$f" .txt)"
    tail -n 1 "$f" | awk -v side="${name%.*}" -v pair="${name#*.}" '{
        ok = ($0 ~ /"correct":true/ && $0 ~ /"failed":0[,}]/) ? "ok" : "bad"
        print side, pair, ok
        s = $0
        sub(/.*"metrics":\{/, "", s)
        while (match(s, /"[A-Za-z0-9_.]+":\{"unit":"[^"]*","value":[-0-9.eE+]+\}/)) {
            m = substr(s, RSTART, RLENGTH)
            s = substr(s, RSTART + RLENGTH)
            split(m, q, "\"")
            v = m
            sub(/.*"value":/, "", v)
            sub(/\}$/, "", v)
            print side, pair, q[2], v
        }
    }'
done > "$work/values"

# `<metric> <higher|lower>` for every end-to-end metric BENCHMARK.json names.
awk '
    /"end_to_end"/ { inside = 1 }
    inside && /\]/ { inside = 0 }
    inside && /\{/ { better = ""; name = "" }
    inside && /"better"/ { split($0, q, "\""); better = q[4] }
    inside && /"name"/ { split($0, q, "\""); name = q[4] }
    inside && /\}/ && name != "" { print name, better; name = "" }
' "$spec" > "$work/directions"

awk -v pairs="$pairs" '
    # Linear interpolation between order statistics, p in [0, 1].
    function quantile(a, n, p,    h, lo) {
        h = p * (n - 1)
        lo = int(h)
        return lo + 1 < n ? a[lo] + (h - lo) * (a[lo + 1] - a[lo]) : a[lo]
    }
    function sorted(src, dst, n,    i, j, t) {
        for (i = 0; i < n; i++) dst[i] = src[i]
        for (i = 1; i < n; i++) {
            t = dst[i]
            for (j = i - 1; j >= 0 && dst[j] > t; j--) dst[j + 1] = dst[j]
            dst[j + 1] = t
        }
    }
    FILENAME ~ /directions$/ { dir[$1] = $2; order[++metrics] = $1; next }
    $3 == "ok" || $3 == "bad" { runs[$1]++; if ($3 == "bad") bad[$1]++; next }
    { val[$1, $3, $2] = $4; seen[$3] = 1 }
    END {
        printf "runs: base %d (%d bad), change %d (%d bad)\n", \
            runs["base"], bad["base"], runs["change"], bad["change"]
        printf "%-42s %12s %12s %12s | %12s %12s %12s | %7s %5s %5s %s\n", "metric", \
            "base q1", "median", "q3", "change q1", "median", "q3", \
            "ratio", "won", "lost", "gap > base IQR"
        for (k = 1; k <= metrics; k++) {
            m = order[k]
            if (!(m in seen)) continue
            delete b; delete c; delete bs; delete cs
            won = 0; lost = 0
            for (i = 0; i < pairs; i++) {
                b[i] = val["base", m, i]; c[i] = val["change", m, i]
                if (c[i] == b[i]) continue
                better = (dir[m] == "higher") ? c[i] > b[i] : c[i] < b[i]
                if (better) won++; else lost++
            }
            sorted(b, bs, pairs); sorted(c, cs, pairs)
            bq1 = quantile(bs, pairs, 0.25); bmed = quantile(bs, pairs, 0.5)
            bq3 = quantile(bs, pairs, 0.75)
            cq1 = quantile(cs, pairs, 0.25); cmed = quantile(cs, pairs, 0.5)
            cq3 = quantile(cs, pairs, 0.75)
            gap = cmed - bmed; if (gap < 0) gap = -gap
            ratio = bmed != 0 ? sprintf("%7.3f", cmed / bmed) : "      -"
            printf "%-42s %12.6g %12.6g %12.6g | %12.6g %12.6g %12.6g | %s %5d %5d %s\n", \
                m " (" dir[m] ")", bq1, bmed, bq3, cq1, cmed, cq3, ratio, won, lost, \
                (gap > bq3 - bq1) ? "yes" : "no"
        }
    }
'  "$work/directions" "$work/values"
