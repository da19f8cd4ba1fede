//! Self-test of the benchmark at smoke size, on the held-out seed: every
//! metric named in `BENCHMARK.json` is printed with its unit, every run
//! is correct with zero failed ops (which includes `bulk`'s digest being
//! equal at 1 and 2 shards in the traced run), and a run writes only
//! under its working directory.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::Command;
use std::time::SystemTime;

use vnet::sim::telemetry::json::Json;

/// Not used while the benchmark was written; later claims can be
/// rechecked on it.
const HELD_OUT_SEED: &str = "7";

const WORKLOADS: [&str; 4] = ["thrash", "bulk", "fleet", "chaos"];

fn manifest_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

/// A fresh scratch directory inside the build's target directory.
fn scratch(name: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(name);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Run the benchmark at smoke size in `cwd`; returns its stdout.
fn bench(cwd: &Path, trace: &str) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args([
            "--workload",
            "all",
            "--smoke",
            "--seconds",
            "0",
            "--seed",
            HELD_OUT_SEED,
        ])
        .args(["--trace", trace])
        .current_dir(cwd)
        .output()
        .expect("spawn perfbench");
    let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
    assert!(
        out.status.success(),
        "perfbench --trace {trace} failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    stdout
}

/// `(name, unit)` of every metric `BENCHMARK.json` lists under `key`.
fn contract(key: &str) -> Vec<(String, String)> {
    let text = std::fs::read_to_string(manifest_dir().join("../BENCHMARK.json")).unwrap();
    let doc = Json::parse(&text).unwrap();
    doc.get(key)
        .and_then(Json::as_arr)
        .unwrap()
        .iter()
        .map(|m| {
            let s = |k| m.get(k).and_then(Json::as_str).unwrap().to_string();
            (s("name"), s("unit"))
        })
        .collect()
}

/// Check one run's output: per workload a result line that is correct,
/// with every contract metric present, in its unit, and printed by name
/// in the table.
fn check(stdout: &str, metrics: &[(String, String)]) {
    let results: Vec<Json> = stdout
        .lines()
        .filter(|l| l.starts_with("{\"correct\""))
        .map(|l| Json::parse(l).unwrap())
        .collect();
    assert_eq!(
        results.len(),
        WORKLOADS.len(),
        "one result per workload:\n{stdout}"
    );
    for (w, r) in WORKLOADS.iter().zip(&results) {
        let num = |k| r.get(k).and_then(Json::as_f64).unwrap();
        assert_eq!(
            r.get("correct"),
            Some(&Json::Bool(true)),
            "{w} incorrect:\n{stdout}"
        );
        assert_eq!(num("failed"), 0.0, "{w} failed ops:\n{stdout}");
        assert!(num("attempted") >= 1.0, "{w} attempted nothing");
        let got: BTreeMap<String, Json> = r.get("metrics").and_then(Json::as_obj).unwrap().clone();
        assert_eq!(
            got.len(),
            metrics.len(),
            "{w}: exactly the contract's metrics"
        );
        for (name, unit) in metrics {
            let m = got
                .get(name)
                .unwrap_or_else(|| panic!("{w}: {name} missing"));
            assert_eq!(
                m.get("unit").and_then(Json::as_str),
                Some(unit.as_str()),
                "{w}: {name} unit"
            );
            assert!(m.get("value").and_then(Json::as_f64).unwrap().is_finite());
            assert!(
                stdout.lines().any(
                    |l| l.trim_start().starts_with(name.as_str()) && l.ends_with(unit.as_str())
                ),
                "{w}: {name} not printed with its unit"
            );
        }
    }
    for label in ["ops", "failed"] {
        assert_eq!(
            stdout
                .lines()
                .filter(|l| l.trim_start().starts_with(&format!("{label} ")))
                .count(),
            WORKLOADS.len(),
            "{label} printed for every workload"
        );
    }
}

#[test]
fn untraced_smoke_prints_every_end_to_end_metric() {
    let dir = scratch("untraced");
    check(&bench(&dir, "0"), &contract("end_to_end"));
}

#[test]
fn traced_smoke_prints_every_per_layer_metric() {
    let dir = scratch("traced");
    check(&bench(&dir, "1"), &contract("per_layer"));
}

/// Every file under `root` (skipping build output) with its mtime.
fn listing(root: &Path) -> BTreeMap<PathBuf, Option<SystemTime>> {
    let mut out = BTreeMap::new();
    let mut stack = vec![root.to_path_buf()];
    while let Some(dir) = stack.pop() {
        for e in std::fs::read_dir(&dir).unwrap().flatten() {
            let path = e.path();
            if path
                .file_name()
                .is_some_and(|n| n == "target" || n == ".bench_build" || n == ".git")
            {
                continue;
            }
            if path.is_dir() {
                stack.push(path);
            } else {
                out.insert(path, e.metadata().ok().and_then(|m| m.modified().ok()));
            }
        }
    }
    out
}

#[test]
fn a_run_writes_only_under_its_working_directory() {
    let source = manifest_dir().join("..");
    let before = listing(&source);
    let dir = scratch("elsewhere");
    bench(&dir, "1");
    for w in WORKLOADS {
        assert!(
            dir.join(format!("perfbench-out/{w}.trace.json")).is_file(),
            "{w} span log"
        );
    }
    assert_eq!(listing(&source), before, "the source tree changed");
}
