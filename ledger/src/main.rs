//! `ledger` — the repository's one benchmark.
//!
//! ```text
//! ledger --workload <name> --seed <n> --seconds <s> --trace <0|1>   one run (the BENCHMARK.json command)
//! ledger [--seed <n>] [--seconds <s>] [--smoke] [--out <file>]      all workloads, both passes, one JSON
//! ledger compare <a.json> <b.json>                                  apply the bounds per (metric, workload)
//! ledger --check-determinism [--seed <n>] [--smoke]                 exact metrics and plans repeat
//! ```
//!
//! See `README.md` beside this package for the metric dictionary.

#![forbid(unsafe_code)]

mod json;
mod ledger;
mod program;
mod report;
mod run;
mod service;
mod spec;
mod staged;
mod stats;
mod traced;
mod tracer;

use std::path::PathBuf;
use std::process::ExitCode;

/// Command-line options; every flag takes one value except the
/// switches `--smoke`, `--traced` and `--check-determinism`.
#[derive(Debug, Default)]
struct Cli {
    positional: Vec<String>,
    workload: Option<String>,
    seed: Option<u64>,
    seconds: Option<f64>,
    trace: bool,
    smoke: bool,
    check_determinism: bool,
    detail: Option<PathBuf>,
    out: Option<PathBuf>,
}

fn parse_cli(args: &[String]) -> Result<Cli, String> {
    let mut cli = Cli::default();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |flag: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        match arg.as_str() {
            "--workload" => cli.workload = Some(value("--workload")?),
            "--seed" => {
                let v = value("--seed")?;
                cli.seed = Some(v.parse().map_err(|_| format!("--seed {v}: not a number"))?);
            }
            "--seconds" => {
                let v = value("--seconds")?;
                let s: f64 = v
                    .parse()
                    .map_err(|_| format!("--seconds {v}: not a number"))?;
                if !(0.0..=3600.0).contains(&s) {
                    return Err(format!("--seconds {v}: out of range"));
                }
                cli.seconds = Some(s);
            }
            "--trace" => {
                cli.trace = match value("--trace")?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace {v}: expected 0 or 1")),
                }
            }
            "--traced" => cli.trace = true,
            "--smoke" => cli.smoke = true,
            "--check-determinism" => cli.check_determinism = true,
            "--detail" => cli.detail = Some(PathBuf::from(value("--detail")?)),
            "--out" => cli.out = Some(PathBuf::from(value("--out")?)),
            flag if flag.starts_with("--") => return Err(format!("unknown flag {flag}")),
            word => cli.positional.push(word.to_string()),
        }
    }
    Ok(cli)
}

fn one_run(cli: &Cli, workload: &str) -> Result<bool, String> {
    let scenario = spec::scenario(workload).ok_or_else(|| {
        let names: Vec<&str> = spec::SCENARIOS.iter().map(|s| s.name).collect();
        format!("unknown workload {workload}; known: {}", names.join(", "))
    })?;
    let args = run::RunArgs {
        scenario,
        seed: cli.seed.unwrap_or(1),
        seconds: cli
            .seconds
            .unwrap_or(if cli.smoke { 0.0 } else { spec::RUN_SECONDS }),
        trace: cli.trace,
        smoke: cli.smoke,
    };
    let mut report = if args.trace {
        traced::run_traced(&args)?
    } else {
        run::run_end_to_end(&args)?
    };
    report.check_complete()?;
    report.sort();
    if let Some(path) = &cli.detail {
        std::fs::write(path, report.detail().pretty())
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
    }
    print!("{}", report.table());
    println!("{}", report.last_line());
    Ok(report.correct())
}

/// Exit codes: 0, every output right and nothing regressed; 1, a result
/// was printed but an output was wrong, a metric regressed or an exact
/// metric did not repeat; 3, `compare` found no regression but could not
/// resolve every pair; 2, the harness could not run.
const EXIT_WRONG: u8 = 1;
const EXIT_BROKEN: u8 = 2;
const EXIT_UNRESOLVED: u8 = 3;

fn dispatch(cli: &Cli) -> Result<u8, String> {
    let passed = |ok: bool| if ok { 0 } else { EXIT_WRONG };
    match cli.positional.first().map(String::as_str) {
        Some("compare") => match &cli.positional[1..] {
            [a, b] => Ok(match ledger::compare(a.as_ref(), b.as_ref())? {
                ledger::Verdict::Ok => 0,
                ledger::Verdict::Unresolved => EXIT_UNRESOLVED,
                ledger::Verdict::Regressed => EXIT_WRONG,
            }),
            _ => Err("usage: ledger compare <a.json> <b.json>".into()),
        },
        Some(other) => Err(format!("unknown command {other}")),
        None if cli.check_determinism => {
            ledger::check_determinism(cli.seed.unwrap_or(1), cli.smoke).map(passed)
        }
        None => match &cli.workload {
            Some(workload) => one_run(cli, workload).map(passed),
            None => ledger::all(
                cli.seed.unwrap_or(1),
                cli.seconds,
                cli.smoke,
                cli.out.clone(),
            )
            .map(passed),
        },
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match parse_cli(&args).and_then(|cli| dispatch(&cli)) {
        Ok(code) => ExitCode::from(code),
        Err(e) => {
            eprintln!("ledger: {e}");
            ExitCode::from(EXIT_BROKEN)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cli(args: &[&str]) -> Result<Cli, String> {
        parse_cli(&args.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn parses_the_contract_command_line() {
        let c = cli(&[
            "--workload",
            "als_2k",
            "--seed",
            "7",
            "--seconds",
            "12",
            "--trace",
            "1",
        ])
        .unwrap();
        assert_eq!(c.workload.as_deref(), Some("als_2k"));
        assert_eq!((c.seed, c.seconds, c.trace), (Some(7), Some(12.0), true));
        let c = cli(&["compare", "a.json", "b.json"]).unwrap();
        assert_eq!(c.positional, ["compare", "a.json", "b.json"]);
    }

    #[test]
    fn refuses_malformed_input() {
        assert!(cli(&["--seed"]).is_err());
        assert!(cli(&["--seed", "x"]).is_err());
        assert!(cli(&["--trace", "2"]).is_err());
        assert!(cli(&["--seconds", "-1"]).is_err());
        assert!(cli(&["--frobnicate"]).is_err());
    }
}
