//! The one command of `BENCHMARK.json`.
//!
//! Driver form: `--workload <name> --seed <n> --seconds <s> --trace <0|1>`
//! runs one workload in this process and prints the result object as the
//! last line of standard output. `--run-set`, `--calibrate` and `--smoke`
//! run sets of such runs, each in a fresh child process.

use mutiny_benchmark::json;
use mutiny_benchmark::report::{run_workload, RunOptions};
use mutiny_benchmark::runset::{self, SetOptions};
use mutiny_benchmark::stamp;
use mutiny_benchmark::workloads::{Workload, DEFAULT_SEED, RUN_SECONDS, WORKLOADS};
use std::process::ExitCode;

const USAGE: &str = "\
usage: mutiny-benchmark --workload <name> [--seed N] [--seconds S] [--trace 0|1]
       mutiny-benchmark --run-set [--repeats N] [--trace 0|1] [--seed N] [--seconds S]
       mutiny-benchmark --calibrate [--repeats N] [--seed N] [--seconds S]
       mutiny-benchmark --smoke
workloads: wire-bulk, families-all-2t, storm-log, wide-32";

#[derive(Debug, Default)]
struct Args {
    workload: Option<String>,
    seed: Option<u64>,
    seconds: Option<f64>,
    trace: bool,
    repeats: Option<usize>,
    run_set: bool,
    calibrate: bool,
    smoke: bool,
}

fn parse_args(argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args = Args::default();
    let mut argv = argv.peekable();
    while let Some(flag) = argv.next() {
        let mut value = |what: &str| argv.next().ok_or_else(|| format!("{flag} needs {what}"));
        match flag.as_str() {
            "--workload" => args.workload = Some(value("a workload name")?),
            "--seed" => {
                args.seed = Some(
                    value("a number")?
                        .parse()
                        .map_err(|e| format!("--seed: {e}"))?,
                );
            }
            "--seconds" => {
                let s: f64 = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds must be in (0, 600], got {s}"));
                }
                args.seconds = Some(s);
            }
            "--trace" => {
                args.trace = match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace must be 0 or 1, got {other}")),
                };
            }
            "--repeats" => {
                args.repeats = Some(
                    value("a count")?
                        .parse()
                        .map_err(|e| format!("--repeats: {e}"))?,
                );
            }
            "--run-set" => args.run_set = true,
            "--calibrate" => args.calibrate = true,
            "--smoke" => args.smoke = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(args)
}

fn single_run(name: &str, args: &Args) -> ExitCode {
    let Some(workload) = Workload::find(name) else {
        let known: Vec<_> = WORKLOADS.iter().map(|w| w.name).collect();
        eprintln!("unknown workload {name:?}; known: {}", known.join(", "));
        return ExitCode::from(2);
    };
    let opts = RunOptions {
        workload,
        seed: args.seed.unwrap_or(DEFAULT_SEED),
        seconds: args.seconds.unwrap_or(RUN_SECONDS),
        traced: args.trace,
    };
    let report = run_workload(&opts);
    let file = format!(
        "{}-{}.json",
        if opts.traced { "trace" } else { "run" },
        workload.name
    );
    let out_dir = stamp::bench_dir().join("out");
    let written = std::fs::create_dir_all(&out_dir)
        .and_then(|()| std::fs::write(out_dir.join(&file), json::pretty(&report.detail)));
    if let Err(e) = written {
        eprintln!("[benchmark] warning: could not write out/{file}: {e}");
    }
    for (def, value) in &report.metrics {
        eprintln!("[benchmark] {:<34} {value:>14.4} {}", def.name, def.unit);
    }
    println!("{}", report.result_line());
    if report.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    mutiny_benchmark::scrub_environment();
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let set = SetOptions {
        seed: args.seed.unwrap_or(DEFAULT_SEED),
        seconds: args.seconds.unwrap_or(RUN_SECONDS),
        repeats: args.repeats.unwrap_or(3),
        traced: args.trace,
    };
    let outcome = if let Some(name) = &args.workload {
        return single_run(name, &args);
    } else if args.smoke {
        runset::smoke()
    } else if args.calibrate {
        runset::calibrate(&set)
    } else if args.run_set {
        runset::run_set_command(&set)
    } else {
        eprintln!("{USAGE}");
        return ExitCode::from(2);
    };
    match outcome {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("[benchmark] FAILED: {e}");
            ExitCode::FAILURE
        }
    }
}
