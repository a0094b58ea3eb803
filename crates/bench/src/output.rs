//! Experiment output: markdown tables and files under `target/experiments/`.

use std::io::Write as _;
use std::path::PathBuf;

/// A named output file for one experiment.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OutputFile {
    /// File name (relative to `target/experiments/`).
    pub name: String,
    /// Contents.
    pub contents: String,
}

/// Renders a markdown table.
///
/// # Panics
///
/// Panics when a row's width differs from the header's.
pub fn markdown_table(header: &[&str], rows: &[Vec<String>]) -> String {
    let mut out = String::new();
    out.push_str(&format!("| {} |\n", header.join(" | ")));
    out.push_str(&format!("|{}\n", "---|".repeat(header.len())));
    for row in rows {
        assert_eq!(row.len(), header.len(), "ragged table row");
        out.push_str(&format!("| {} |\n", row.join(" | ")));
    }
    out
}

/// Directory where experiment outputs are written.
pub fn output_dir() -> PathBuf {
    let base = std::env::var("CARGO_TARGET_DIR").unwrap_or_else(|_| "target".to_string());
    PathBuf::from(base).join("experiments")
}

/// Writes (and echoes the path of) an experiment output file.
///
/// # Panics
///
/// Panics when the file cannot be written — experiment results must not
/// be silently lost.
pub fn write_output(name: &str, contents: &str) -> PathBuf {
    let dir = output_dir();
    std::fs::create_dir_all(&dir).expect("create experiment output dir");
    let path = dir.join(name);
    let mut f = std::fs::File::create(&path).expect("create experiment output file");
    f.write_all(contents.as_bytes())
        .expect("write experiment output");
    println!("[output] {}", path.display());
    path
}

/// The repository root, located from the crate's own manifest directory
/// so it resolves from any working directory.
///
/// # Panics
///
/// Panics when the root cannot be resolved.
pub(crate) fn repo_root() -> PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .expect("resolve repository root")
}

/// Writes a committed benchmark record (`BENCH_bakeoff.json`) at the
/// repository root.
///
/// # Panics
///
/// Panics when the root cannot be resolved or the file cannot be
/// written: a stale committed record is worse than a loud failure.
pub fn write_repo_root(name: &str, contents: &str) -> PathBuf {
    let path = repo_root().join(name);
    std::fs::write(&path, contents).unwrap_or_else(|e| panic!("refresh {}: {e}", path.display()));
    println!("[output] {}", path.display());
    path
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_rows() {
        let t = markdown_table(
            &["a", "b"],
            &[vec!["1".into(), "2".into()], vec!["3".into(), "4".into()]],
        );
        assert!(t.contains("| a | b |"));
        assert!(t.contains("| 3 | 4 |"));
        assert_eq!(t.lines().count(), 4);
    }

    #[test]
    #[should_panic]
    fn ragged_rows_rejected() {
        let _ = markdown_table(&["a", "b"], &[vec!["1".into()]]);
    }
}
