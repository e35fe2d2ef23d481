#!/bin/sh
# The checks a change must pass before merging: formatting, lints with
# warnings denied, the full workspace test suite (unit + doctests, and
# with them both loopback UDP drills), a release build of the wmps_bench
# benchmark exactly as BENCHMARK.json builds it and a smoke run of every
# workload through it, the determinism gates — two
# separate processes must emit byte-identical Q9–Q12/Q16/Q17 reports and
# byte-identical event logs of a lossy loopback UDP deployment, because
# everything is seeded and stepped and HashMap-order bugs only show up
# across processes — and the perf trajectory gate, which re-runs the
# Q14/Q15/Q16/Q17 benches and compares their "tracked" integer values
# against the committed BENCH_q14.json / BENCH_q15.json / BENCH_q16.json /
# BENCH_q17.json baselines for equality (every tracked value is
# deterministic, so any change fails; see perf_gate).
# Everything runs offline; external deps resolve to the third_party/ stubs.
#
# Perf-gate self-test: before trusting any real comparison, the stage
# runs `perf_gate --self-test`, which feeds the comparator a fixture
# baseline plus (a) a one-unit drift up in a tracked count, (b) a
# tracked count that fell, (c) a copy-counter blow-up and (d) a report
# missing a tracked key, each of which must FAIL, while the identical
# report must PASS. A comparator that waves any of those through fails
# CI here, long before it could wave through a real change. To
# reproduce a gate failure by hand, change a value in a fresh report,
# e.g.:
#   ./target/release/q15_hotpath --json /tmp/fresh.json
#   sed -i 's/"fanout_backing_allocs_256": [0-9]*/"fanout_backing_allocs_256": 256/' /tmp/fresh.json
#   cargo run --release -p lod-bench --bin perf_gate -- \
#       --fresh /tmp/fresh.json --check-against BENCH_q15.json   # exits 1
#
# Set ARTIFACT_BASE to a revision (e.g. the merge base) to also byte-diff
# this tree's q9–q12/q16/q17 seed-7 artifacts and q5/q6/q8 output against
# that revision's (scripts/artifact_diff.sh): the "byte-identical before
# and after" check a refactor owes, which the two-runs-of-one-build gates
# below cannot give.
#
# Set ARTIFACTS_DIR to a writable directory to keep the fresh BENCH
# reports and the q11/q12 determinism artifacts produced by this run
# (the GitHub workflow uploads them on every run).
set -e

echo "===== cargo fmt --check ====="
cargo fmt --all --check

echo "===== cargo clippy (workspace, -D warnings) ====="
cargo clippy --offline --workspace --all-targets -- -D warnings

echo "===== workspace tests (unit + doctests) ====="
cargo test -q --offline --workspace

tmpdir="$(mktemp -d)"
trap 'rm -rf "$tmpdir"' EXIT

echo "===== wmps_bench release build (as BENCHMARK.json builds it) ====="
# The benchmark is its own package with its own lock file, outside the
# workspace, so the stages above never compile it. Build it the way the
# benchmark command does (release, offline, --locked): a removed public
# item it uses, or a dependency its lock file lacks, fails here.
cargo build --release --offline --locked --quiet \
    --manifest-path crates/bench/src/bin/wmps_bench/Cargo.toml --target-dir target/wmps_bench

echo "===== wmps_bench smoke run (every workload's output checks) ====="
# Every workload once at 8 students / 1 minute (a few seconds). The run
# exits 2 when any workload's output checks or mirror agreement fail, so
# a change that breaks what the benchmark checks fails here.
./target/wmps_bench/release/wmps_bench all --smoke --seed 7 --out "$tmpdir/bench" > /dev/null
echo "every workload's checks passed"

echo "===== q9_chaos determinism (two runs, byte-identical reports) ====="
cargo run -q --offline -p lod-bench --bin q9_chaos -- --seed 7 --json "$tmpdir/a.json" > /dev/null
cargo run -q --offline -p lod-bench --bin q9_chaos -- --seed 7 --json "$tmpdir/b.json" > /dev/null
if ! diff "$tmpdir/a.json" "$tmpdir/b.json"; then
    echo "FAIL: two seed-7 chaos runs diverged (nondeterminism crept in)"
    exit 1
fi
echo "reports identical"

echo "===== q10_overload determinism (two runs, byte-identical reports) ====="
cargo run -q --offline -p lod-bench --bin q10_overload -- --seed 7 --json "$tmpdir/oa.json" > /dev/null
cargo run -q --offline -p lod-bench --bin q10_overload -- --seed 7 --json "$tmpdir/ob.json" > /dev/null
if ! diff "$tmpdir/oa.json" "$tmpdir/ob.json"; then
    echo "FAIL: two seed-7 overload runs diverged (nondeterminism crept in)"
    exit 1
fi
echo "reports identical"

echo "===== q11_observability determinism (two runs, byte-identical logs) ====="
# The strongest determinism gate in the repo: not just the summary JSON
# but the full structured event log (every emission, in order) and the
# metrics exposition must match byte for byte across processes.
cargo run -q --offline -p lod-bench --bin q11_observability -- --seed 7 \
    --json "$tmpdir/qa.json" --events "$tmpdir/qa.jsonl" --prom "$tmpdir/qa.prom" > /dev/null
cargo run -q --offline -p lod-bench --bin q11_observability -- --seed 7 \
    --json "$tmpdir/qb.json" --events "$tmpdir/qb.jsonl" --prom "$tmpdir/qb.prom" > /dev/null
for ext in json jsonl prom; do
    if ! cmp -s "$tmpdir/qa.$ext" "$tmpdir/qb.$ext"; then
        echo "FAIL: two seed-7 observability runs diverged in .$ext (nondeterminism crept in)"
        diff "$tmpdir/qa.$ext" "$tmpdir/qb.$ext" | head -20
        exit 1
    fi
done
echo "event log, exposition and report identical"

echo "===== q12_failover determinism (two runs, byte-identical logs) ====="
# The failover drill doubles as a determinism gate: a mid-lecture origin
# crash, a heartbeat verdict and a promotion must land on the same tick
# in both processes, or the three artifacts diverge.
cargo run -q --offline -p lod-bench --bin q12_failover -- --seed 7 \
    --json "$tmpdir/fa.json" --events "$tmpdir/fa.jsonl" --prom "$tmpdir/fa.prom" > /dev/null
cargo run -q --offline -p lod-bench --bin q12_failover -- --seed 7 \
    --json "$tmpdir/fb.json" --events "$tmpdir/fb.jsonl" --prom "$tmpdir/fb.prom" > /dev/null
for ext in json jsonl prom; do
    if ! cmp -s "$tmpdir/fa.$ext" "$tmpdir/fb.$ext"; then
        echo "FAIL: two seed-7 failover runs diverged in .$ext (nondeterminism crept in)"
        diff "$tmpdir/fa.$ext" "$tmpdir/fb.$ext" | head -20
        exit 1
    fi
done
echo "event log, exposition and report identical"

echo "===== q16_repair determinism (two runs, byte-identical reports) ====="
# The repair sublayer on a virtual wire: seeded loss, NACK timers,
# retransmit budgets and give-up accounting are all integer-clocked, so
# two processes must agree to the byte.
cargo run -q --offline --release -p lod-bench --bin q16_repair -- --json "$tmpdir/ra.json" > /dev/null
cargo run -q --offline --release -p lod-bench --bin q16_repair -- --json "$tmpdir/rb.json" > /dev/null
if ! diff "$tmpdir/ra.json" "$tmpdir/rb.json"; then
    echo "FAIL: two q16 repair runs diverged (nondeterminism crept in)"
    exit 1
fi
echo "reports identical"

echo "===== q17_tracing determinism (two runs, byte-identical span logs) ====="
# The tracing plane end to end: span minting, Mark propagation, the
# clock-skew clamp and the assembler are all integer-clocked, so two
# processes must emit byte-identical full-trace event logs. The bench
# also enforces in-binary that its 50‰ plane keeps whole-chain traces of
# a few segments, and the causal span invariants over the merged log.
cargo run -q --offline --release -p lod-bench --bin q17_tracing -- \
    --json "$tmpdir/ta.json" --events "$tmpdir/ta.jsonl" > /dev/null
cargo run -q --offline --release -p lod-bench --bin q17_tracing -- \
    --json "$tmpdir/tb.json" --events "$tmpdir/tb.jsonl" > /dev/null
if ! cmp -s "$tmpdir/ta.jsonl" "$tmpdir/tb.jsonl"; then
    echo "FAIL: two q17 tracing runs diverged in their span logs (nondeterminism crept in)"
    diff "$tmpdir/ta.jsonl" "$tmpdir/tb.jsonl" | head -20
    exit 1
fi
echo "span logs identical"

echo "===== loopback UDP determinism (two runs, byte-identical event logs) ====="
# The socket path is stepped by the same driver on the same manual clock
# as simnet, so — while the kernel drops nothing — two processes serving
# the same lossy, repaired 35-node deployment over real 127.0.0.1 sockets
# must log the same events in the same order, write the same metrics
# exposition and print the same counters (everything but the wall time).
cargo run -q --offline --release -p lod-cli --bin wmps -- \
    publish "$tmpdir/udp.asf" --duration-secs 60 --slides 4 > /dev/null
for run in a b; do
    cargo run -q --offline --release -p lod-cli --bin wmps -- \
        serve "$tmpdir/udp.asf" --transport udp --students 32 --relays 2 \
        --repair on --loss-permille 120 --metrics-out "$tmpdir/udp.prom" \
        | sed 's/, wall [0-9.]*s$//' > "$tmpdir/udp_$run.txt"
    mv "$tmpdir/udp.prom" "$tmpdir/udp_$run.prom"
    mv "$tmpdir/udp.prom.jsonl" "$tmpdir/udp_$run.jsonl"
done
for ext in txt jsonl prom; do
    if ! cmp -s "$tmpdir/udp_a.$ext" "$tmpdir/udp_b.$ext"; then
        echo "FAIL: two lossy loopback UDP runs diverged in .$ext (nondeterminism crept in)"
        diff "$tmpdir/udp_a.$ext" "$tmpdir/udp_b.$ext" | head -20
        exit 1
    fi
done
grep -q "32/32 completed, 0 abandoned" "$tmpdir/udp_a.txt" || {
    echo "FAIL: the lossy loopback deployment did not complete"; cat "$tmpdir/udp_a.txt"; exit 1; }
echo "event logs, expositions and counters identical"

if [ -n "${ARTIFACT_BASE:-}" ]; then
    echo "===== artifacts vs $ARTIFACT_BASE (byte-identical before and after) ====="
    sh scripts/artifact_diff.sh "$ARTIFACT_BASE"
fi

echo "===== q17 waterfall render (wmps trace over the span log) ====="
# The operator path over the same artifact: `wmps trace` must render
# per-hop percentiles and a concrete segment waterfall from the log the
# bench just wrote. Kept as a CI artifact so a hop-latency regression
# can be eyeballed straight from the run page.
cargo run -q --offline --release -p lod-cli --bin wmps -- \
    trace "$tmpdir/ta.jsonl" --segment 0 > "$tmpdir/waterfall.txt"
grep -q "playout_wait" "$tmpdir/waterfall.txt" || {
    echo "FAIL: rendered waterfall is missing the delivery chain"; exit 1; }
echo "waterfall rendered"

echo "===== perf trajectory gate (q14 + q15 + q16 + q17 vs committed baselines) ====="
# The gate compares only the "tracked" sections, and those hold nothing a
# clock measured: frame sizes and the deterministic payload-copy, repair
# and span counters, the same on every machine. The codec/mux medians and
# the loopback wall-clock numbers live under "untracked" and are never
# compared — machines differ, and parent-vs-change timing on one machine
# is wmps_bench's job.
cargo build -q --offline --release -p lod-bench \
    --bin q14_transport --bin q15_hotpath --bin perf_gate
./target/release/perf_gate --self-test
./target/release/q14_transport --codec-only --json "$tmpdir/q14_fresh.json" > /dev/null
./target/release/q15_hotpath --json "$tmpdir/q15_fresh.json" > /dev/null
./target/release/perf_gate --fresh "$tmpdir/q14_fresh.json" --check-against BENCH_q14.json
./target/release/perf_gate --fresh "$tmpdir/q15_fresh.json" --check-against BENCH_q15.json
# q16's tracked values are fully deterministic (no wall clock): any
# drift is a protocol-behavior change that comes with a deliberate
# baseline update.
./target/release/perf_gate --fresh "$tmpdir/ra.json" --check-against BENCH_q16.json
# q17's tracked values are likewise deterministic: wire-format byte
# counts and the span/trace ledger of the seeded run.
./target/release/perf_gate --fresh "$tmpdir/ta.json" --check-against BENCH_q17.json
echo "tracked values equal to committed baselines"

if [ -n "${ARTIFACTS_DIR:-}" ]; then
    echo "===== collecting artifacts into $ARTIFACTS_DIR ====="
    mkdir -p "$ARTIFACTS_DIR"
    cp "$tmpdir/q14_fresh.json" "$ARTIFACTS_DIR/BENCH_q14_fresh.json"
    cp "$tmpdir/q15_fresh.json" "$ARTIFACTS_DIR/BENCH_q15_fresh.json"
    cp "$tmpdir/ra.json" "$ARTIFACTS_DIR/BENCH_q16_fresh.json"
    cp "$tmpdir/qa.json" "$ARTIFACTS_DIR/q11_observability.json"
    cp "$tmpdir/qa.jsonl" "$ARTIFACTS_DIR/q11_events.jsonl"
    cp "$tmpdir/qa.prom" "$ARTIFACTS_DIR/q11_metrics.prom"
    cp "$tmpdir/fa.json" "$ARTIFACTS_DIR/q12_failover.json"
    cp "$tmpdir/fa.jsonl" "$ARTIFACTS_DIR/q12_events.jsonl"
    cp "$tmpdir/fa.prom" "$ARTIFACTS_DIR/q12_metrics.prom"
    cp "$tmpdir/ta.json" "$ARTIFACTS_DIR/BENCH_q17_fresh.json"
    cp "$tmpdir/ta.jsonl" "$ARTIFACTS_DIR/q17_spans.jsonl"
    cp "$tmpdir/waterfall.txt" "$ARTIFACTS_DIR/q17_waterfall.txt"
    ls -l "$ARTIFACTS_DIR"
fi

echo "CI checks passed."
