//! What a run prints and writes: the one-line result the driver reads,
//! the run summary `compare` reads, and the host facts both carry.

use crate::catalog::Metric;
use crate::common::{RunArgs, RunOutput};
use rafiki_serve::Json;
use std::path::{Path, PathBuf};
use std::process::Command;

/// The directory traces and summaries go to unless `--out` says
/// otherwise: `out/` beside this package's manifest (`cargo run` exports
/// the manifest directory; the compiled-in one is the fallback).
pub fn default_out_dir() -> PathBuf {
    std::env::var_os("CARGO_MANIFEST_DIR")
        .map_or_else(|| PathBuf::from(env!("CARGO_MANIFEST_DIR")), PathBuf::from)
        .join("out")
}

/// The last line of a run's standard output: exactly `correct`,
/// `attempted`, `failed`, `metrics`, every value with all its digits.
pub fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[(Metric, f64)],
) -> String {
    let metrics = metrics
        .iter()
        .map(|(m, value)| {
            (
                m.name,
                Json::obj(vec![
                    ("value", Json::Num(*value)),
                    ("unit", Json::str(m.unit)),
                ]),
            )
        })
        .collect();
    Json::obj(vec![
        ("correct", Json::Bool(correct)),
        ("attempted", Json::Num(attempted.max(1) as f64)),
        ("failed", Json::Num(failed as f64)),
        ("metrics", Json::obj(metrics)),
    ])
    .encode()
}

fn first_line_of(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".to_string())
}

/// Host and build facts every summary records.
pub fn host_facts() -> Vec<(&'static str, Json)> {
    let host_cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let nproc = first_line_of("nproc", &[])
        .parse::<f64>()
        .unwrap_or(host_cores as f64);
    vec![
        ("host_cores", Json::Num(host_cores as f64)),
        ("nproc", Json::Num(nproc)),
        // Parallel numbers from a single core say nothing about speed-up.
        ("degenerate", Json::Bool(host_cores == 1)),
        ("rustc", Json::str(&first_line_of("rustc", &["--version"]))),
        (
            "git_commit",
            Json::str(&first_line_of("git", &["rev-parse", "HEAD"])),
        ),
        (
            "profile",
            Json::str(if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            }),
        ),
    ]
}

/// One run's summary file.
pub fn summary(workload: &str, args: &RunArgs, result: &Json, out: &RunOutput) -> Json {
    let lines = |xs: &[String]| Json::Arr(xs.iter().map(|x| Json::str(x)).collect());
    let mut members = vec![
        ("workload", Json::str(workload)),
        // A string: a u64 seed may not fit a JSON number exactly.
        ("seed", Json::str(&args.seed.to_string())),
        ("seconds", Json::Num(args.seconds)),
        ("traced", Json::Bool(args.trace)),
        ("smoke", Json::Bool(args.smoke)),
    ];
    members.extend(host_facts());
    members.push(("result", result.clone()));
    members.push(("problems", lines(&out.problems)));
    members.push(("notes", lines(&out.notes)));
    Json::obj(members)
}

/// Writes `json` (one line) to `dir/name`, creating `dir`.
pub fn write_json(dir: &Path, name: &str, json: &Json) -> std::io::Result<PathBuf> {
    std::fs::create_dir_all(dir)?;
    let path = dir.join(name);
    std::fs::write(&path, json.encode() + "\n")?;
    Ok(path)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::END_TO_END;

    #[test]
    fn result_line_has_exactly_the_contract_keys_and_every_digit() {
        let metrics: Vec<(Metric, f64)> = END_TO_END
            .iter()
            .map(|m| (*m, 1.203_456_789_012_3))
            .collect();
        let line = result_line(true, 0, 0, &metrics);
        assert!(!line.contains('\n'));
        let json = Json::parse(&line).unwrap();
        let keys: Vec<&str> = json
            .as_obj()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        // attempted is at least 1 even when nothing ran.
        assert_eq!(json.get("attempted").and_then(Json::as_u64), Some(1));
        let setup = json.get("metrics").and_then(|m| m.get("setup_s")).unwrap();
        assert_eq!(setup.get("unit").and_then(Json::as_str), Some("s"));
        assert_eq!(
            setup.get("value").and_then(Json::as_f64),
            Some(1.203_456_789_012_3)
        );
        assert!(line.contains("1.2034567890123"));
    }

    #[test]
    fn summaries_record_the_host() {
        let args = RunArgs {
            seed: u64::MAX,
            seconds: 1.5,
            trace: false,
            smoke: true,
        };
        let out = RunOutput {
            notes: vec!["n".to_string()],
            ..RunOutput::default()
        };
        let s = summary("w", &args, &Json::Null, &out);
        // Exact even where a JSON number would not be.
        assert_eq!(
            s.get("seed").and_then(Json::as_str),
            Some("18446744073709551615")
        );
        for key in [
            "host_cores",
            "nproc",
            "rustc",
            "git_commit",
            "seed",
            "profile",
            "degenerate",
        ] {
            assert!(s.get(key).is_some(), "{key}");
        }
        let cores = s.get("host_cores").and_then(Json::as_u64).unwrap();
        assert_eq!(
            s.get("degenerate").and_then(Json::as_bool),
            Some(cores == 1)
        );
    }
}
