//! Experiment harness for the WMPS reproduction.
//!
//! One binary per paper figure/experiment (see `src/bin/`), all writing
//! their tables and JSON reports through [`report`], which also holds the
//! comparator the `perf_gate` binary runs over the committed
//! `BENCH_q*.json` baselines. `EXPERIMENTS.md` at the repository root
//! records paper-vs-measured for every artifact.

pub mod report;
