//! `swdb-sysbench` — see `benchmark/README.md`.
//!
//! ```text
//! swdb-sysbench --workload W --seed N --seconds S --trace 0|1   the driver's call
//! swdb-sysbench run W   [--seed N] [--seconds S] [--smoke]      = --trace 0
//! swdb-sysbench trace W [--seed N] [--smoke]                    = --trace 1
//! swdb-sysbench noise W --runs N [--seconds S]
//! swdb-sysbench selftest
//! ```

use std::process::ExitCode;
use std::time::Instant;

use swdb_sysbench::lifecycle::{run_child, ChildArgs};
use swdb_sysbench::metrics::{END_TO_END, PER_LAYER};
use swdb_sysbench::run::{self, RunOptions};
use swdb_sysbench::workload::{Workload, WORKLOADS};
use swdb_sysbench::{host, noise, selftest, trace};

const DEFAULT_SEED: u64 = 42;
/// Mirrors `run_seconds` in `BENCHMARK.json`.
const DEFAULT_SECONDS: f64 = 24.0;

struct Args {
    positional: Vec<String>,
    options: Vec<(String, String)>,
    smoke: bool,
}

impl Args {
    fn parse(raw: impl Iterator<Item = String>) -> Result<Args, String> {
        let mut args = Args {
            positional: Vec::new(),
            options: Vec::new(),
            smoke: false,
        };
        let mut raw = raw.peekable();
        while let Some(arg) = raw.next() {
            if arg == "--smoke" {
                args.smoke = true;
            } else if let Some(name) = arg.strip_prefix("--") {
                let value = raw.next().ok_or(format!("--{name} needs a value"))?;
                args.options.push((name.to_string(), value));
            } else {
                args.positional.push(arg);
            }
        }
        Ok(args)
    }

    fn get<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, String> {
        match self.options.iter().find(|(n, _)| n == name) {
            None => Ok(default),
            Some((_, v)) => v
                .parse()
                .map_err(|_| format!("--{name}: cannot read {v:?}")),
        }
    }

    fn workload(&self, name: Option<&String>) -> Result<Workload, String> {
        let known: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        let name = name.ok_or(format!("which workload? one of {known:?}"))?;
        let w =
            Workload::named(name).ok_or(format!("unknown workload {name:?}; one of {known:?}"))?;
        Ok(if self.smoke { w.smoke() } else { w })
    }
}

fn real_main(started: Instant) -> Result<bool, String> {
    // Before anything reads the environment or starts a thread.
    let scrubbed = host::scrub_swdb_env();
    let args = Args::parse(std::env::args().skip(1))?;
    let io = |e: std::io::Error| e.to_string();
    let seed = args.get("seed", DEFAULT_SEED)?;
    let seconds = args.get("seconds", if args.smoke { 0.0 } else { DEFAULT_SECONDS })?;
    let command = args.positional.first().map(String::as_str);
    let (command, workload) = match command {
        // The driver's form: flags only.
        None => {
            let w = args.workload(
                args.options
                    .iter()
                    .find(|(n, _)| n == "workload")
                    .map(|(_, v)| v),
            )?;
            let traced = args.get("trace", 0u8)? != 0;
            (if traced { "trace" } else { "run" }, Some(w))
        }
        Some(c @ ("run" | "trace" | "noise" | "child")) => {
            (c, Some(args.workload(args.positional.get(1))?))
        }
        Some(c) => (c, None),
    };
    match (command, workload) {
        ("run", Some(workload)) => {
            let result = run::run(&RunOptions {
                workload,
                seed,
                seconds,
                smoke: args.smoke,
            })
            .map_err(io)?;
            run::report(&result, &scrubbed).map_err(io)?;
            let metrics = result
                .values
                .iter()
                .zip(END_TO_END)
                .map(|(v, m)| (v.name, v.value, m.unit));
            println!(
                "{}",
                run::result_line(result.correct(), result.attempted, result.failed, metrics)
            );
            Ok(result.correct())
        }
        ("trace", Some(workload)) => {
            let result = trace::trace(&workload, seed, &scrubbed).map_err(io)?;
            let metrics = PER_LAYER
                .iter()
                .map(|m| (m.name, result.value(m.name), m.unit));
            println!(
                "{}",
                run::result_line(result.failed == 0, result.attempted, result.failed, metrics)
            );
            Ok(result.failed == 0)
        }
        ("noise", Some(workload)) => {
            let runs = args.get("runs", 10usize)?;
            noise::noise(&workload, runs, seed, seconds, args.smoke).map_err(io)
        }
        ("child", Some(workload)) => {
            let child = ChildArgs {
                workload,
                seed,
                until_s: args.get("until-s", 0.0)?,
                min_rounds: args.get("min-rounds", 1usize)?,
            };
            let report = run_child(&child, started).map_err(io)?;
            print!("{}", report.to_lines());
            Ok(true)
        }
        ("selftest", None) => selftest::selftest(seed, selftest::SELFTEST_DEPARTMENTS).map_err(io),
        (other, _) => Err(format!(
            "unknown command {other:?}; see benchmark/README.md"
        )),
    }
}

fn main() -> ExitCode {
    let started = Instant::now();
    match real_main(started) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(why) => {
            eprintln!("swdb-sysbench: {why}");
            ExitCode::from(2)
        }
    }
}
