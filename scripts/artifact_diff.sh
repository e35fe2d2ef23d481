#!/bin/sh
# Byte-diffs this tree's seeded determinism artifacts against another
# revision's: ROADMAP asks every refactor for "byte-identical before and
# after", and scripts/ci.sh alone can only compare a build with itself.
#
#   scripts/artifact_diff.sh <base-rev>
#
# Exports <base-rev> into a scratch tree under $TMPDIR (`git archive`, so
# no worktree is left registered in .git if the script is killed), builds
# the q5/q6/q8/q9/q10/q11/q12/q14/q15/q16/q17 benches, `perf_gate` and the
# `wmps` CLI in both trees, runs each bench at seed 7, and `cmp`s: q9 and
# q10 (json), q11 and q12
# (json, jsonl, prom), q16 (json) and q17 (jsonl; its json carries
# wall-clock timings) — the stdout of q5_scale, q6_classroom and q8_relay,
# the only seeded runs of `serve_and_replay`, `serve_shared_uplink`,
# `live_classroom` and the relay-kill drill (q9–q12 reach none of them) —
# and five .asf files `wmps publish` writes with fixed flags, so "the
# content generator, the DRM keystream and the muxer still write the same
# bytes" is a check and not a sentence: a plain and a protected lecture at
# the default sizes, the same pair at 4000-byte packets (payloads past
# 1400 bytes, other tail lengths), and a protected video-only lecture of
# short frames — plus one relay-tier `wmps serve` of the plain lecture
# (relays, admission, degradation, a standby, --metrics-out): its stdout,
# exposition and JSONL log pin the CLI's path into `serve_with_relays`;
# and CI's lossy loopback `wmps serve --transport udp` (32 students, 12%
# seeded egress loss, repair on): its stdout minus the wall time,
# exposition and JSONL log pin the socket path and its fault engine.
# The timed reports of `q14_transport --codec-only` and `q15_hotpath`
# carry wall-clock medians, so each gets two checks instead of a `cmp`:
# this tree's `perf_gate` holds its tracked values to the base's, and a
# `cmp` with every number masked holds its keys, order and layout.
#
# A change that alters an artifact on purpose declares it in
# scripts/artifact_changes, one line per artifact:
#
#   <artifact> <sha256 of the artifact this tree produces>
#
# e.g. `q12.prom 3f9a...`. A declared artifact whose new bytes hash to
# the declared value passes as "changed as declared". These fail: a
# difference nobody declared, a declared hash the new bytes do not match,
# a declared artifact that equals the base's (a stale entry: delete it
# once the base has caught up), and an entry naming no artifact below.
# Blank lines and lines starting with `#` are skipped. The timed q14/q15
# reports cannot be declared: their tracked values must stay equal.
# Exits 1 naming every artifact that fails. Offline, like the rest of CI.
set -e

base="${1:?usage: scripts/artifact_diff.sh <base-rev>}"
root="$(git rev-parse --show-toplevel)"
rev="$(git -C "$root" rev-parse --verify "$base^{commit}")"
work="$(mktemp -d "${TMPDIR:-/tmp}/artifact_diff.XXXXXX")"
trap 'rm -rf "$work"' EXIT
mkdir "$work/src" "$work/base" "$work/head"
git -C "$root" archive "$rev" | tar -x -C "$work/src"

stdout_bins="q5_scale q6_classroom q8_relay"
bins="q9_chaos q10_overload q11_observability q12_failover q14_transport q15_hotpath \
    q16_repair q17_tracing perf_gate $stdout_bins wmps"

# produce <tree> <target-dir> <out-dir>
produce() {
    flags=""
    for b in $bins; do flags="$flags --bin $b"; done
    # shellcheck disable=SC2086
    (cd "$1" && CARGO_TARGET_DIR="$2" cargo build -q --offline --release \
        -p lod-bench -p lod-cli $flags)
    "$2/release/q9_chaos" --seed 7 --json "$3/q9.json" > /dev/null
    "$2/release/q10_overload" --seed 7 --json "$3/q10.json" > /dev/null
    "$2/release/q11_observability" --seed 7 \
        --json "$3/q11.json" --events "$3/q11.jsonl" --prom "$3/q11.prom" > /dev/null
    "$2/release/q12_failover" --seed 7 \
        --json "$3/q12.json" --events "$3/q12.jsonl" --prom "$3/q12.prom" > /dev/null
    "$2/release/q14_transport" --codec-only --json "$3/q14.json" > /dev/null
    "$2/release/q15_hotpath" --json "$3/q15.json" > /dev/null
    "$2/release/q16_repair" --json "$3/q16.json" > /dev/null
    "$2/release/q17_tracing" --json "$3/q17_timings.json" --events "$3/q17.jsonl" > /dev/null
    for b in $stdout_bins; do "$2/release/$b" > "$3/$b.txt"; done
    "$2/release/wmps" publish "$3/plain.asf" --duration-secs 90 --slides 5 \
        --annotation 45:eq.4 > /dev/null
    "$2/release/wmps" publish "$3/protected.asf" --duration-secs 90 --slides 5 \
        --annotation 45:eq.4 --license cs101:77 > /dev/null
    "$2/release/wmps" publish "$3/plain_4000.asf" --duration-secs 37 --slides 3 \
        --packet-size 4000 > /dev/null
    "$2/release/wmps" publish "$3/protected_4000.asf" --duration-secs 37 --slides 3 \
        --packet-size 4000 --license cs101:77 > /dev/null
    "$2/release/wmps" publish "$3/protected_video_only.asf" --duration-secs 20 \
        --audio-kbps 0 --video-kbps 64 --license cs101:77 > /dev/null
    # Run from inside the output directory so the paths `serve` prints
    # are the same in both trees.
    (cd "$3" && "$2/release/wmps" serve plain.asf --students 8 --relays 2 \
        --max-sessions 3 --degrade on --standby --metrics-out serve.prom > serve.txt)
    "$2/release/wmps" publish "$3/udp.asf" --duration-secs 60 --slides 4 > /dev/null
    (cd "$3" && "$2/release/wmps" serve udp.asf --transport udp --students 32 --relays 2 \
        --repair on --loss-permille 120 --metrics-out udp.prom \
        | sed 's/, wall [0-9.]*s$//' > udp.txt)
}

echo "artifact_diff: building and running $base ($rev)"
produce "$work/src" "$work/target" "$work/base"
echo "artifact_diff: building and running the working tree"
head_target="${CARGO_TARGET_DIR:-$root/target}"
produce "$root" "$head_target" "$work/head"

artifacts="q9.json q10.json q11.json q11.jsonl q11.prom q12.json q12.jsonl q12.prom \
    q16.json q17.jsonl q5_scale.txt q6_classroom.txt q8_relay.txt plain.asf protected.asf \
    plain_4000.asf protected_4000.asf protected_video_only.asf \
    serve.txt serve.prom serve.prom.jsonl udp.txt udp.prom udp.prom.jsonl"
changes="$root/scripts/artifact_changes"
grep -s -v -e '^#' -e '^[[:space:]]*$' "$changes" > "$work/declared" || true

status=0
while read -r f hash _; do
    case " $artifacts " in
        *" $f "*) [ -n "$hash" ] && continue ;;
    esac
    echo "BAD ENTRY  $f $hash (scripts/artifact_changes: <artifact> <sha256>)"
    status=1
done < "$work/declared"
for f in $artifacts; do
    declared="$(awk -v f="$f" '$1 == f { print $2 }' "$work/declared")"
    if cmp -s "$work/base/$f" "$work/head/$f"; then
        if [ -n "$declared" ]; then
            echo "STALE      $f (declared changed, but equals the base)"
            status=1
        else
            echo "identical  $f"
        fi
        continue
    fi
    actual="$(sha256sum "$work/head/$f" | cut -d' ' -f1)"
    if [ "$actual" = "$declared" ]; then
        echo "changed    $f (as declared)"
        continue
    fi
    echo "DIFFERS    $f (sha256 $actual, declared ${declared:-nothing})"
    case "$f" in
        *.asf) cmp "$work/base/$f" "$work/head/$f" || true ;;
        *) diff "$work/base/$f" "$work/head/$f" | head -10 ;;
    esac
    status=1
done
for f in q14.json q15.json; do
    if "$head_target/release/perf_gate" --fresh "$work/head/$f" \
        --check-against "$work/base/$f" > "$work/gate.txt"; then
        echo "identical  $f (tracked values)"
    else
        echo "DIFFERS    $f (tracked values)"
        grep FAIL "$work/gate.txt" || true
        status=1
    fi
    for side in base head; do
        sed -E 's/-?[0-9]+(\.[0-9]+)?/N/g' "$work/$side/$f" > "$work/$side/$f.masked"
    done
    if cmp -s "$work/base/$f.masked" "$work/head/$f.masked"; then
        echo "identical  $f (keys and layout, numbers masked)"
    else
        echo "DIFFERS    $f (keys and layout, numbers masked)"
        diff "$work/base/$f.masked" "$work/head/$f.masked" | head -10
        status=1
    fi
done
if [ "$status" -ne 0 ]; then
    echo "FAIL: artifacts differ from $base or from scripts/artifact_changes"
elif [ -s "$work/declared" ]; then
    echo "all artifacts byte-identical to $base or changed as declared"
else
    echo "all artifacts byte-identical to $base"
fi
exit "$status"
