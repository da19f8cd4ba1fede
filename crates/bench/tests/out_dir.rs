//! Bench binaries write under the working directory (or `--out <dir>`),
//! never next to their sources: a binary run from anywhere leaves the
//! tree it was built from untouched.

use std::path::{Path, PathBuf};
use std::process::Command;
use std::time::SystemTime;

/// A fresh, empty directory under the system temp dir.
fn fresh_dir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("vnet-bench-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    std::fs::create_dir_all(&d).expect("create temp dir");
    d
}

/// `(name, length, modification time)` of every plain file in `dir`,
/// sorted.
fn listing(dir: &Path) -> Vec<(String, u64, SystemTime)> {
    let mut out: Vec<_> = std::fs::read_dir(dir)
        .map(|rd| {
            rd.filter_map(Result::ok)
                .filter_map(|e| {
                    let m = e.metadata().ok().filter(|m| m.is_file())?;
                    Some((
                        e.file_name().to_string_lossy().into_owned(),
                        m.len(),
                        m.modified().ok()?,
                    ))
                })
                .collect()
        })
        .unwrap_or_default();
    out.sort();
    out
}

#[test]
fn run_from_a_temp_dir_leaves_the_source_tree_untouched() {
    // The workspace root (where BENCH_*.json live) and its results/.
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let watched = [root.join("results"), root.clone()];
    let before: Vec<_> = watched.iter().map(|d| listing(d)).collect();
    assert!(!before[0].is_empty(), "the source tree's results/ should hold committed CSVs");

    let bin = env!("CARGO_BIN_EXE_tbl_via");
    let cwd = fresh_dir("cwd");
    let run = Command::new(bin).current_dir(&cwd).output().expect("run tbl_via");
    assert!(run.status.success(), "tbl_via failed: {}", String::from_utf8_lossy(&run.stderr));
    assert!(cwd.join("results/tbl_via.csv").is_file(), "CSV must land under the working directory");

    let out = fresh_dir("out");
    let run = Command::new(bin)
        .current_dir(&cwd)
        .arg("--out")
        .arg(&out)
        .output()
        .expect("run tbl_via --out");
    assert!(run.status.success(), "tbl_via --out failed: {}", String::from_utf8_lossy(&run.stderr));
    assert!(out.join("results/tbl_via.csv").is_file(), "CSV must land under --out");

    let after: Vec<_> = watched.iter().map(|d| listing(d)).collect();
    assert_eq!(before, after, "a run from elsewhere modified the source tree");
    let _ = std::fs::remove_dir_all(&cwd);
    let _ = std::fs::remove_dir_all(&out);
}
