//! CI gate for the committed benchmark records.
//!
//! Every `BENCH_*.json` at the repository root must parse as JSON and
//! carry `"measured": true` — a placeholder or hand-edited record fails
//! the build instead of silently shipping unmeasured numbers. Extra paths
//! can be passed as arguments (the CI job points this at freshly
//! regenerated copies too); with no arguments the known committed set
//! is checked.
//!
//! Exit code 0 = all records measured and well-formed; 1 otherwise.

use rafiki_serve::wire::Json;
use std::path::{Path, PathBuf};

/// The committed benchmark records this repository promises to keep
/// measured. Adding a `BENCH_*.json` to the repo root means adding it
/// here, or the gate will not protect it.
const COMMITTED: &[&str] = &["BENCH_bakeoff.json"];

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .expect("resolve repository root")
}

/// Checks one record; returns a human-readable failure reason.
fn check(path: &Path) -> Result<(), String> {
    let raw = std::fs::read_to_string(path).map_err(|e| format!("unreadable: {e}"))?;
    let json = Json::parse(&raw).map_err(|e| format!("does not parse as JSON: {e}"))?;
    match json.get("measured") {
        Some(Json::Bool(true)) => {}
        Some(Json::Bool(false)) => {
            return Err(
                "says \"measured\": false — regenerate it with the matching \
                 rafiki-bench binary instead of committing a placeholder"
                    .to_string(),
            )
        }
        Some(other) => return Err(format!("has a non-boolean \"measured\": {other:?}")),
        None => return Err("has no \"measured\" field".to_string()),
    }
    match json.get("experiment") {
        Some(Json::Str(name)) => {
            if name == "bake_off" {
                check_bakeoff_record(&json)?;
            }
            Ok(())
        }
        _ => Err("has no \"experiment\" name".to_string()),
    }
}

/// The bake-off record's schema: all four strategies must be present,
/// each with a positive `surrogate_calls` count (a strategy that never
/// consulted the surrogate didn't actually search) and at least one
/// per-workload cell carrying a positive measured throughput. The
/// record must also say how wide the space was and what the shared
/// evaluation budget was — without those two numbers the comparison is
/// meaningless.
fn check_bakeoff_record(json: &Json) -> Result<(), String> {
    match json.get("space_dims").and_then(Json::as_u64) {
        Some(d) if d >= 12 => {}
        Some(d) => return Err(format!("space_dims is {d}, bake-off requires >= 12")),
        None => return Err("has no \"space_dims\"".to_string()),
    }
    match json.get("budget").and_then(Json::as_u64) {
        Some(b) if b > 0 => {}
        _ => return Err("has no positive \"budget\"".to_string()),
    }
    let strategies = json
        .get("strategies")
        .and_then(Json::as_arr)
        .ok_or("has no \"strategies\" array (regenerate with the bake_off binary)")?;
    for expected in ["ga", "bestconfig", "latent", "random"] {
        let entry = strategies
            .iter()
            .find(|s| matches!(s.get("strategy"), Some(Json::Str(n)) if n == expected))
            .ok_or(format!("strategies has no entry for \"{expected}\""))?;
        match entry.get("surrogate_calls").and_then(Json::as_u64) {
            Some(calls) if calls > 0 => {}
            _ => {
                return Err(format!(
                    "strategy \"{expected}\" has no positive \"surrogate_calls\""
                ))
            }
        }
        let cells = entry
            .get("cells")
            .and_then(Json::as_arr)
            .ok_or(format!("strategy \"{expected}\" has no \"cells\" array"))?;
        if cells.is_empty() {
            return Err(format!(
                "strategy \"{expected}\" has an empty \"cells\" array"
            ));
        }
        for cell in cells {
            match cell.get("ops_per_sec").and_then(Json::as_f64) {
                Some(tput) if tput > 0.0 => {}
                _ => {
                    return Err(format!(
                        "strategy \"{expected}\" has a cell without positive ops_per_sec"
                    ))
                }
            }
        }
    }
    Ok(())
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let targets: Vec<PathBuf> = if args.is_empty() {
        let root = repo_root();
        COMMITTED.iter().map(|n| root.join(n)).collect()
    } else {
        args.iter().map(PathBuf::from).collect()
    };

    let mut failures = 0usize;
    for path in &targets {
        match check(path) {
            Ok(()) => println!("[bench-check] ok      {}", path.display()),
            Err(why) => {
                eprintln!("[bench-check] FAILED  {}: {why}", path.display());
                failures += 1;
            }
        }
    }
    if failures > 0 {
        eprintln!(
            "[bench-check] {failures} of {} records failed",
            targets.len()
        );
        std::process::exit(1);
    }
    println!("[bench-check] all {} records measured", targets.len());
}
