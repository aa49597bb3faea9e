//! The Spire SCADA benchmark.
//!
//! ```text
//! cargo run --release --offline --manifest-path scadabench/Cargo.toml -- \
//!     --workload wan_steady --seed 1 --seconds 20 --trace 0
//! ```
//!
//! `--trace 0` sets up several times, runs the workload untraced and
//! prints every end-to-end metric; `--trace 1` runs it untraced and then
//! traced (sim) and prints every per-layer metric. The last stdout line is
//! one JSON object `{correct, attempted, failed, metrics}`. A run whose
//! outputs fail the correctness gate prints `correct: false` with its seed
//! and exits 1. See `scadabench/README.md`.

mod cpu;
mod layers;
mod metrics;
mod run;
mod stats;
mod workload;

use metrics::Measured;
use workload::Workload;

const USAGE: &str = "usage: scadabench --workload \
     <wan_steady|leader_recovery|rt_mock_sigs|rt_real_sigs|under_attack> --seed <n> \
     --seconds <n> --trace <0|1>";

/// The shortest load in which every kind of operation (a command every
/// 2 s) is due at least once.
const MIN_SECONDS: u64 = 3;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |_| format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value:?}"))?,
                )
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(bad)?),
            "--seconds" => seconds = Some(value.parse::<u64>().map_err(bad)?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad value {value:?} for --trace")),
                })
            }
            _ => return Err(format!("unknown argument {flag:?}")),
        }
    }
    let seconds = seconds.ok_or("missing --seconds")?;
    if !(MIN_SECONDS..=600).contains(&seconds) {
        return Err(format!(
            "--seconds {seconds} is outside {MIN_SECONDS}..=600"
        ));
    }
    Ok(Args {
        workload: workload.ok_or("missing --workload")?,
        seed: seed.ok_or("missing --seed")?,
        seconds,
        trace: trace.ok_or("missing --trace")?,
    })
}

fn main() {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let m: Measured = metrics::measure(args.workload, args.seed, args.seconds, args.trace);
    for line in &m.lines {
        println!("{line}");
    }
    if !m.failures.is_empty() {
        eprintln!(
            "FAILED: workload {} seed {}: {}",
            args.workload.name(),
            args.seed,
            m.failures.join("; ")
        );
    }
    println!("{}", m.result_json());
    if !m.failures.is_empty() {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Result<Args, String> {
        parse_args(s.split_whitespace().map(String::from))
    }

    #[test]
    fn parses_the_command_line() {
        let a = args("--workload under_attack --seed 7 --seconds 10 --trace 1").unwrap();
        assert_eq!(a.workload, Workload::UnderAttack);
        assert_eq!((a.seed, a.seconds, a.trace), (7, 10, true));
        assert!(args("--workload x --seed 1 --seconds 1 --trace 0").is_err());
        assert!(args("--workload wan_steady --seed 1 --seconds 2 --trace 0").is_err());
        assert!(args("--workload wan_steady --seed 1 --seconds 3 --trace 0").is_ok());
        assert!(args("--workload wan_steady --seed 1 --seconds 5 --trace 2").is_err());
        assert!(args("--workload wan_steady --seed 1 --trace 0").is_err());
    }
}
