//! The gate for benchmark records (`rafiki-bench check`).
//!
//! Every `BENCH_*.json` at the repository root must parse as JSON and
//! carry `"measured": true` — a placeholder or hand-edited record fails
//! the build instead of silently shipping unmeasured numbers. Extra paths
//! can be passed instead (CI points the gate at freshly regenerated
//! copies too); with none, the committed set is checked.

use rafiki_serve::wire::Json;
use std::path::PathBuf;

/// The committed benchmark records this repository promises to keep
/// measured. Adding a `BENCH_*.json` to the repo root means adding it
/// here, or the gate will not protect it.
const COMMITTED: &[&str] = &["BENCH_bakeoff.json"];

/// The committed records, resolved against the repository root.
pub fn committed_paths() -> Vec<PathBuf> {
    let root = crate::output::repo_root();
    COMMITTED.iter().map(|n| root.join(n)).collect()
}

/// Checks every record in `paths`, printing one line per record.
/// Returns whether all of them passed.
pub fn check_all(paths: &[PathBuf]) -> bool {
    let mut failures = 0usize;
    for path in paths {
        let outcome = std::fs::read_to_string(path)
            .map_err(|e| format!("unreadable: {e}"))
            .and_then(|raw| check_record(&raw));
        match outcome {
            Ok(()) => println!("[bench-check] ok      {}", path.display()),
            Err(why) => {
                eprintln!("[bench-check] FAILED  {}: {why}", path.display());
                failures += 1;
            }
        }
    }
    if failures > 0 {
        eprintln!("[bench-check] {failures} of {} records failed", paths.len());
        return false;
    }
    println!("[bench-check] all {} records measured", paths.len());
    true
}

/// Checks one record's text; returns a human-readable failure reason.
fn check_record(raw: &str) -> Result<(), String> {
    let json = Json::parse(raw).map_err(|e| format!("does not parse as JSON: {e}"))?;
    match json.get("measured") {
        Some(Json::Bool(true)) => {}
        Some(Json::Bool(false)) => {
            return Err(
                "says \"measured\": false — regenerate it with the matching \
                 rafiki-bench experiment instead of committing a placeholder"
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
        .ok_or("has no \"strategies\" array (regenerate with `rafiki-bench bake_off`)")?;
    for expected in crate::experiments::bake_off::STRATEGIES {
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

#[cfg(test)]
mod tests {
    use super::*;

    fn member<'a>(json: &'a mut Json, key: &str) -> &'a mut Json {
        match json {
            Json::Obj(members) => members
                .iter_mut()
                .find(|(k, _)| k == key)
                .map(|(_, v)| v)
                .unwrap_or_else(|| panic!("no member {key:?}")),
            _ => panic!("not an object"),
        }
    }

    fn items(json: &mut Json) -> &mut Vec<Json> {
        match json {
            Json::Arr(items) => items,
            _ => panic!("not an array"),
        }
    }

    /// The failure reason for the committed record after `edit`.
    fn reason_after(edit: impl FnOnce(&mut Json)) -> String {
        let raw = std::fs::read_to_string(&committed_paths()[0]).expect("read the record");
        let mut record = Json::parse(&raw).expect("the committed record parses");
        edit(&mut record);
        check_record(&record.encode()).expect_err("a broken record fails")
    }

    #[test]
    fn committed_records_pass() {
        assert!(check_all(&committed_paths()));
    }

    #[test]
    fn unmeasured_record_fails() {
        let why = reason_after(|r| *member(r, "measured") = Json::Bool(false));
        assert!(why.contains("says \"measured\": false"), "{why}");
    }

    #[test]
    fn missing_strategy_fails() {
        let why = reason_after(|r| {
            items(member(r, "strategies"))
                .retain(|s| s.get("strategy") != Some(&Json::str("random")))
        });
        assert_eq!(why, "strategies has no entry for \"random\"");
    }

    #[test]
    fn zero_throughput_cell_fails() {
        let why = reason_after(|r| {
            let ga = &mut items(member(r, "strategies"))[0];
            let cell = &mut items(member(ga, "cells"))[0];
            *member(cell, "ops_per_sec") = Json::Num(0.0);
        });
        assert_eq!(
            why,
            "strategy \"ga\" has a cell without positive ops_per_sec"
        );
    }
}
