//! The `wmps` binary: parse, run, report.

use std::process::ExitCode;

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.is_empty() || argv[0] == "--help" || argv[0] == "help" {
        print_help();
        return ExitCode::SUCCESS;
    }
    let args = match lod_cli::Args::parse(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("wmps: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut out = std::io::stdout();
    match lod_cli::run(&args, &mut out) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("wmps: {e}");
            ExitCode::FAILURE
        }
    }
}

fn print_help() {
    println!(
        "wmps — the Lecture-on-Demand web publishing manager (ICDCSW'02 reproduction)

USAGE:
  wmps publish <out.asf> [--duration-secs N] [--video-kbps N] [--audio-kbps N]
               [--slides N] [--slide-dir PATH] [--annotation SECS:TEXT]
               [--packet-size N] [--license ID:KEY]
  wmps inspect <file.asf>
  wmps replay  <file.asf> [--license ID:KEY]
  wmps serve   <file.asf> [--students N] [--link lan|broadband|modem] [--seed N]
               [--relays K] [--max-sessions N] [--degrade on|off]
               [--standby] [--checkpoint-every N] [--metrics-out PATH]
               [--trace-permille N] [--transport sim|udp]
               [--repair on|off] [--retry-budget N] [--loss-permille N]
               [--fault-seed S]               # udp-only knobs; --link is sim-only
  wmps report  <events.jsonl> [--top N]
  wmps abstract [--seed N] [--minutes N] [--budget-secs N]
  wmps net     [--units N] [--streams N] [--sync-every N] | [--floor N]   # Graphviz DOT

EXAMPLES:
  wmps publish lecture.asf --duration-secs 180 --slides 6 --annotation 45:见公式
  wmps serve lecture.asf --students 4 --link modem"
    );
}
