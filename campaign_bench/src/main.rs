//! End-to-end benchmark of ATPG fault campaigns.
//!
//! ```text
//! cargo run --release --manifest-path campaign_bench/Cargo.toml -- \
//!     --workload <seq_fresh|par_warm|serve_mix> [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! Each run generates its circuits (and, for `serve_mix`, its request
//! mix) from `--seed`, times one pass over them, checks every output,
//! and prints one JSON line as the last line of standard output: the
//! end-to-end metrics, or with `--trace 1` the per-layer metrics of a
//! traced replay. `--seconds` scales the work of a pass. See README.md.

mod batch;
mod checks;
mod gen;
mod layers;
mod replay;
mod serve;
mod stats;
mod trace;

use std::path::PathBuf;
use std::process::ExitCode;

use trace::Tracer;

/// Workload seed when `--seed` is not given.
const DEFAULT_SEED: u64 = 1;
/// Work scale when `--seconds` is not given.
const DEFAULT_SECONDS: u64 = 20;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    SeqFresh,
    ParWarm,
    ServeMix,
}

impl Workload {
    fn name(self) -> &'static str {
        match self {
            Workload::SeqFresh => "seq_fresh",
            Workload::ParWarm => "par_warm",
            Workload::ServeMix => "serve_mix",
        }
    }
}

/// Command-line arguments.
#[derive(Debug, Clone)]
pub struct Args {
    workload: Workload,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
}

fn parse_args(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = DEFAULT_SECONDS;
    let mut trace = false;
    while let Some(flag) = argv.next() {
        let mut value = || argv.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                workload = Some(match value()?.as_str() {
                    "seq_fresh" => Workload::SeqFresh,
                    "par_warm" => Workload::ParWarm,
                    "serve_mix" => Workload::ServeMix,
                    other => return Err(format!("unknown workload `{other}`")),
                })
            }
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if seconds == 0 {
                    return Err("--seconds must be at least 1".into());
                }
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
                }
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

/// Writes a traced run's spans under `campaign_bench/out/`.
pub fn write_spans(tr: &Tracer, args: &Args) {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("out")
        .join(format!(
            "{}-seed{}.spans.jsonl",
            args.workload.name(),
            args.seed
        ));
    match tr.write_jsonl(&path) {
        Ok(()) => eprintln!("spans: {}", path.display()),
        Err(e) => eprintln!("spans not written to {}: {e}", path.display()),
    }
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(msg) => {
            eprintln!("campaign_bench: {msg}");
            return ExitCode::from(2);
        }
    };
    let outcome = match args.workload {
        Workload::SeqFresh => batch::run(batch::Engine::Fresh, &args),
        Workload::ParWarm => batch::run(batch::Engine::Warm, &args),
        Workload::ServeMix => serve::run(&args),
    };
    eprintln!(
        "{} seed={} trace={} attempted={} failed={} host_cpus={}",
        args.workload.name(),
        args.seed,
        u8::from(args.trace),
        outcome.attempted,
        outcome.failed,
        std::thread::available_parallelism().map_or(0, |n| n.get())
    );
    eprint!("{}", outcome.table());
    println!("{}", outcome.json());
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(line: &str) -> Result<Args, String> {
        parse_args(line.split_whitespace().map(String::from))
    }

    #[test]
    fn arguments_are_checked() {
        let a = args("--workload serve_mix --seed 7 --seconds 3 --trace 1").unwrap();
        assert_eq!(
            (a.workload, a.seed, a.seconds, a.trace),
            (Workload::ServeMix, 7, 3, true)
        );
        let d = args("--workload seq_fresh").unwrap();
        assert_eq!(
            (d.seed, d.seconds, d.trace),
            (DEFAULT_SEED, DEFAULT_SECONDS, false)
        );
        for bad in [
            "",
            "--workload nope",
            "--workload par_warm --trace 2",
            "--workload par_warm --seconds 0",
            "--workload par_warm --seed",
            "--workload par_warm --extra 1",
        ] {
            assert!(args(bad).is_err(), "{bad:?} must be rejected");
        }
    }
}
