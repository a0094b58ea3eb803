//! The repo's benchmark: four workloads, both clocks, one command.
//!
//! ```text
//! benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1> [--smoke] [--out DIR]
//! benchmark [--seed <n>] [--seconds <s>] [--runs <k>] [--smoke] [--out DIR]
//! benchmark compare <setA> <setB>
//! benchmark manifest
//! ```
//!
//! The first form is one run in this process: it prints every metric of
//! its mode by name with its unit, and as the last line of standard
//! output one JSON object with `correct`, `attempted`, `failed` and
//! `metrics`. The second runs every workload untraced (`--runs` times,
//! default 1) and then traced, each in a fresh process so peak memory is
//! per workload, and writes one summary per run. See README.md.

mod catalog;
mod common;
mod compare;
mod daemon;
mod grid;
mod probes;
mod procfs;
mod report;
mod serve;
mod spans;
mod stat;
mod stream;
mod tune;
mod tuning;

use catalog::{Metric, END_TO_END, WORKLOADS};
use common::{RunArgs, RunOutput};
use rafiki_serve::Json;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

/// Seed when none is given (Middleware '17 opening day, as
/// EXPERIMENTS.md uses).
const DEFAULT_SEED: u64 = 20_171_211;
/// `run_seconds` of `BENCHMARK.json`.
const RUN_SECONDS: u64 = 15;
/// What `--smoke` measures for.
const SMOKE_SECONDS: f64 = 0.5;

#[derive(Debug, Default)]
struct Cli {
    workload: Option<String>,
    seed: Option<u64>,
    seconds: Option<f64>,
    trace: bool,
    smoke: bool,
    runs: usize,
    out: Option<PathBuf>,
}

fn parse(args: &[String]) -> Result<Cli, String> {
    let mut cli = Cli {
        runs: 1,
        ..Cli::default()
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        let bad = |v: &String| format!("{flag}: cannot read {v:?}");
        match flag.as_str() {
            "--workload" => cli.workload = Some(value()?.clone()),
            "--seed" => cli.seed = Some(value().and_then(|v| v.parse().map_err(|_| bad(v)))?),
            "--seconds" => {
                let s: f64 = value().and_then(|v| v.parse().map_err(|_| bad(v)))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds must be in (0, 600], got {s}"));
                }
                cli.seconds = Some(s);
            }
            "--trace" => {
                cli.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got {other:?}")),
                }
            }
            "--runs" => {
                cli.runs = value().and_then(|v| v.parse().map_err(|_| bad(v)))?;
                if cli.runs == 0 {
                    return Err("--runs must be at least 1".to_string());
                }
            }
            "--out" => cli.out = Some(PathBuf::from(value()?)),
            "--smoke" => cli.smoke = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if let Some(w) = &cli.workload {
        if !WORKLOADS.iter().any(|(name, _)| name == w) {
            let names: Vec<&str> = WORKLOADS.iter().map(|(n, _)| *n).collect();
            return Err(format!("unknown workload {w:?}; one of {names:?}"));
        }
    }
    Ok(cli)
}

impl Cli {
    fn run_args(&self) -> RunArgs {
        RunArgs {
            seed: self.seed.unwrap_or(DEFAULT_SEED),
            seconds: self.seconds.unwrap_or(if self.smoke {
                SMOKE_SECONDS
            } else {
                RUN_SECONDS as f64
            }),
            trace: self.trace,
            smoke: self.smoke,
        }
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.first().map(String::as_str) {
        Some("compare") => compare_sets(&args[1..]),
        Some("manifest") => {
            println!("{}", manifest());
            Ok(true)
        }
        _ => parse(&args).and_then(|cli| match &cli.workload {
            Some(workload) => single_run(&cli, workload),
            None => every_workload(&cli),
        }),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(2),
        Err(message) => {
            eprintln!("benchmark: {message}");
            ExitCode::from(1)
        }
    }
}

/// One workload, one mode, in this process.
fn single_run(cli: &Cli, workload: &str) -> Result<bool, String> {
    let args = cli.run_args();
    let mut out: RunOutput = match workload {
        "offline_grid" => grid::run(&args),
        "tune_job" => tune::run(&args),
        "serve_steady" => serve::run(&args, serve::Shape::Steady),
        "serve_mgrast" => serve::run(&args, serve::Shape::MgRast),
        other => unreachable!("parse admitted unknown workload {other}"),
    };
    if !args.trace {
        out.values.insert("peak_rss_mb", procfs::peak_rss_mb());
    }
    for problem in &out.problems {
        eprintln!("benchmark: {workload}: CHECK FAILED: {problem}");
    }
    for note in &out.notes {
        eprintln!("benchmark: {workload}: {note}");
    }
    let layers = catalog::per_layer();
    let wanted: &[Metric] = if args.trace { &layers } else { END_TO_END };
    let metrics = match catalog::ordered(wanted, &out.values) {
        Ok(metrics) => metrics,
        // A run whose checks failed may have stopped before measuring.
        Err(missing) if !out.correct() => {
            eprintln!("benchmark: {workload}: {missing}");
            Vec::new()
        }
        Err(missing) => return Err(missing),
    };
    let out_dir = cli.out.clone().unwrap_or_else(report::default_out_dir);
    if let Some(trace) = &out.trace {
        let path = report::write_json(&out_dir, &format!("trace_{workload}.json"), trace)
            .map_err(|e| format!("writing the trace: {e}"))?;
        eprintln!("benchmark: {workload}: trace written to {}", path.display());
    }
    println!(
        "# {workload}  seed {}  {} s  trace {}",
        args.seed, args.seconds, args.trace as u8
    );
    for (m, value) in &metrics {
        println!("{:<40} {:>18.6} {}", m.name, value, m.unit);
    }
    let line = report::result_line(out.correct(), out.attempted, out.failed, &metrics);
    if cli.out.is_some() {
        let result = Json::parse(&line).expect("own encoding parses");
        let summary = report::summary(workload, &args, &result, &out);
        let name = format!(
            "run_{workload}_t{}_s{}_{}.json",
            args.trace as u8,
            args.seed,
            std::process::id()
        );
        report::write_json(&out_dir, &name, &summary)
            .map_err(|e| format!("writing the summary: {e}"))?;
    }
    println!("{line}");
    Ok(out.correct())
}

/// Every workload, untraced then traced, one fresh process per run.
fn every_workload(cli: &Cli) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| format!("own path: {e}"))?;
    let out_dir = cli.out.clone().unwrap_or_else(report::default_out_dir);
    let args = cli.run_args();
    let mut all_correct = true;
    let mut throughput: Vec<(&str, f64, f64)> = Vec::new();
    for (workload, _) in WORKLOADS {
        // Primary throughput of the last untraced run and of the traced one.
        let mut rates = [None, None];
        for (traced, runs) in [(false, cli.runs), (true, 1)] {
            for _ in 0..runs {
                let mut child = Command::new(&exe);
                child
                    .args(["--workload", workload])
                    .args(["--seed", &args.seed.to_string()])
                    .args(["--seconds", &args.seconds.to_string()])
                    .args(["--trace", if traced { "1" } else { "0" }])
                    .arg("--out")
                    .arg(&out_dir);
                if cli.smoke {
                    child.arg("--smoke");
                }
                // `output` waits for the child to end.
                let output = child
                    .output()
                    .map_err(|e| format!("starting {workload}: {e}"))?;
                let text = String::from_utf8_lossy(&output.stdout);
                print!("{text}");
                eprint!("{}", String::from_utf8_lossy(&output.stderr));
                all_correct &= output.status.success();
                let rate = text
                    .lines()
                    .last()
                    .and_then(|l| Json::parse(l).ok())
                    .and_then(|r| {
                        let name = if traced {
                            "bench.traced_ops_per_s"
                        } else {
                            "ops_per_s"
                        };
                        r.get("metrics")?.get(name)?.get("value")?.as_f64()
                    });
                rates[traced as usize] = rate.or(rates[traced as usize]);
            }
        }
        if let [Some(untraced), Some(traced)] = rates {
            throughput.push((workload, untraced, traced));
        }
    }
    println!("# tracing overhead (primary throughput, untraced vs traced run)");
    for (workload, untraced, traced) in throughput {
        println!(
            "{:<40} {:>18.6} %",
            format!("bench.trace_overhead_pct.{workload}"),
            (untraced / traced - 1.0) * 100.0
        );
    }
    println!(
        "# summaries and traces are in {}; all checks {}",
        out_dir.display(),
        if all_correct {
            "passed"
        } else {
            "did NOT pass"
        }
    );
    Ok(all_correct)
}

fn compare_sets(dirs: &[String]) -> Result<bool, String> {
    let [a, b] = dirs else {
        return Err("usage: benchmark compare <setA> <setB>".to_string());
    };
    let rows = compare::compare(&compare::load(Path::new(a))?, &compare::load(Path::new(b))?)?;
    print!("{}", compare::render(&rows));
    Ok(!compare::any_worse(&rows))
}

/// `BENCHMARK.json`, generated from the catalog so the two cannot drift.
fn manifest() -> String {
    let metric = |m: &Metric| {
        let mut members = vec![
            ("name", Json::str(m.name)),
            ("unit", Json::str(m.unit)),
            ("better", Json::str(m.better.as_str())),
        ];
        members.extend(m.bound.map(|b| ("bound", Json::Num(b))));
        Json::obj(members).encode()
    };
    let list = |items: Vec<String>| format!("[\n    {}\n  ]", items.join(",\n    "));
    let command = [
        "cargo",
        "run",
        "--release",
        "--locked",
        "--offline",
        "--quiet",
        "--manifest-path",
        "benchmark/Cargo.toml",
        "--",
    ];
    let workloads = WORKLOADS
        .iter()
        .map(|(name, why)| {
            Json::obj(vec![("name", Json::str(name)), ("why", Json::str(why))]).encode()
        })
        .collect();
    format!(
        "{{\n  \"command\": {},\n  \"paths\": [\"benchmark\"],\n  \"run_seconds\": {RUN_SECONDS},\n  \
         \"workloads\": {},\n  \"end_to_end\": {},\n  \"per_layer\": {}\n}}",
        Json::Arr(command.iter().map(|c| Json::str(c)).collect()).encode(),
        list(workloads),
        list(END_TO_END.iter().map(metric).collect()),
        list(catalog::per_layer().iter().map(metric).collect()),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn words(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn the_drivers_command_line_parses() {
        let cli = parse(&words(
            "--workload serve_mgrast --seed 7 --seconds 12 --trace 1",
        ))
        .unwrap();
        assert_eq!(cli.workload.as_deref(), Some("serve_mgrast"));
        let args = cli.run_args();
        assert_eq!(
            (args.seed, args.seconds, args.trace, args.smoke),
            (7, 12.0, true, false)
        );
    }

    #[test]
    fn defaults_and_smoke() {
        let args = parse(&[]).unwrap().run_args();
        assert_eq!(
            (args.seed, args.seconds),
            (DEFAULT_SEED, RUN_SECONDS as f64)
        );
        let args = parse(&words("--smoke")).unwrap().run_args();
        assert!(args.smoke && args.seconds == SMOKE_SECONDS);
    }

    #[test]
    fn bad_command_lines_are_refused() {
        for bad in [
            "--workload nope",
            "--trace 2",
            "--seed x",
            "--seconds 0",
            "--seconds",
            "--runs 0",
            "--frobnicate",
        ] {
            assert!(parse(&words(bad)).is_err(), "{bad}");
        }
    }

    #[test]
    fn manifest_is_the_committed_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let committed = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        assert_eq!(committed.trim_end(), manifest());
    }
}
