//! Benchmark harness utilities: result tables, CSV output, and sweep
//! parallelization for the per-figure binaries in `src/bin/`.
//!
//! Every binary regenerates one table or figure of the paper's §6
//! evaluation and writes both a human-readable table to stdout and a CSV
//! under `results/` in the working directory (or under `--out <dir>`).
//! Pass `--quick` to any binary for a shortened run (used in CI and
//! smoke tests).

use std::fs;
use std::path::PathBuf;

/// A simple result table: header + rows, printable and CSV-serializable.
#[derive(Clone, Debug)]
pub struct Table {
    /// Table title (figure/table id + caption).
    pub title: String,
    /// Column names.
    pub header: Vec<String>,
    /// Rows of cells.
    pub rows: Vec<Vec<String>>,
}

impl Table {
    /// Empty table with a title and header.
    pub fn new(title: &str, header: &[&str]) -> Self {
        Table {
            title: title.to_string(),
            header: header.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Append a row (must match the header arity).
    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.header.len(), "row arity mismatch");
        self.rows.push(cells);
    }

    /// Render as an aligned text table.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.header.iter().map(|h| h.len()).collect();
        for r in &self.rows {
            for (i, c) in r.iter().enumerate() {
                widths[i] = widths[i].max(c.len());
            }
        }
        let mut s = format!("## {}\n\n", self.title);
        let fmt_row = |cells: &[String]| {
            cells
                .iter()
                .enumerate()
                .map(|(i, c)| format!("{:>w$}", c, w = widths[i]))
                .collect::<Vec<_>>()
                .join("  ")
        };
        s.push_str(&fmt_row(&self.header));
        s.push('\n');
        s.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (widths.len() - 1)));
        s.push('\n');
        for r in &self.rows {
            s.push_str(&fmt_row(r));
            s.push('\n');
        }
        s
    }

    /// Write `results/<name>.csv` (creating the directory) and print the
    /// rendered table.
    pub fn emit(&self, name: &str) {
        println!("{}", self.render());
        let dir = results_dir();
        let _ = fs::create_dir_all(&dir);
        let mut csv = String::new();
        csv.push_str(&self.header.join(","));
        csv.push('\n');
        for r in &self.rows {
            csv.push_str(&r.join(","));
            csv.push('\n');
        }
        let path = dir.join(format!("{name}.csv"));
        if let Err(e) = fs::write(&path, csv) {
            eprintln!("warning: could not write {}: {e}", path.display());
        } else {
            println!("[written {}]\n", path.display());
        }
    }
}

/// Where a bench binary writes its outputs: the `--out <dir>` argument
/// when given, else the working directory. Never derived from where the
/// binary was built, so a binary run from a copy of the tree (or from
/// anywhere else) cannot overwrite the tree it was compiled in.
pub fn out_dir() -> PathBuf {
    let args: Vec<String> = std::env::args().collect();
    match args.iter().position(|a| a == "--out") {
        Some(i) => PathBuf::from(
            args.get(i + 1).unwrap_or_else(|| panic!("--out requires a directory argument")),
        ),
        None => PathBuf::from("."),
    }
}

/// The `results/` directory under [`out_dir`].
pub fn results_dir() -> PathBuf {
    out_dir().join("results")
}

/// Whether `--quick` was passed (shortened runs for CI).
pub fn quick_mode() -> bool {
    std::env::args().any(|a| a == "--quick")
}

/// The worker-shard count passed via `--shards <n>`, if any. Every bench
/// binary applies it on top of its configuration (results are
/// byte-identical for any value; only wall time changes). The
/// `VNET_SHARDS` environment variable sets the preset default instead.
pub fn shards_arg() -> Option<u32> {
    let args: Vec<String> = std::env::args().collect();
    args.iter().position(|a| a == "--shards").map(|i| {
        args.get(i + 1)
            .and_then(|v| v.parse().ok())
            .unwrap_or_else(|| panic!("--shards requires a positive integer"))
    })
}

/// Apply the `--shards` override (when present) to a configuration.
pub fn with_shards_arg(cfg: vnet_core::ClusterConfig) -> vnet_core::ClusterConfig {
    match shards_arg() {
        Some(n) => cfg.with_shards(n),
        None => cfg,
    }
}

/// Map `--shards <n>` onto the `VNET_SHARDS` environment variable so that
/// every cluster the binary builds — including those constructed inside
/// `vnet-apps` helpers — picks it up as its preset default. Call once at
/// the top of `main`, before any cluster is created.
pub fn init_shards_env() {
    if let Some(n) = shards_arg() {
        std::env::set_var("VNET_SHARDS", n.to_string());
    }
}

/// The reproducibility cells every campaign-style bench appends to its
/// rows: `seed` (hex) and resolved `shards`. Pair with a
/// `["seed", "shards"]` suffix in the table header.
pub fn repro_cells(seed: u64, shards: u32) -> Vec<String> {
    vec![format!("{seed:#x}"), shards.to_string()]
}

/// The fidelity spec passed via `--fidelity <spec>`, if any. The spec
/// uses the `VNET_FIDELITY` grammar (e.g. `full`, `abstract`,
/// `abstract:8-127`, `full:0-7;fabric=delay`); see
/// `vnet_core::FidelityMap::parse`.
pub fn fidelity_arg() -> Option<String> {
    let args: Vec<String> = std::env::args().collect();
    args.iter().position(|a| a == "--fidelity").map(|i| {
        args.get(i + 1)
            .unwrap_or_else(|| panic!("--fidelity requires a spec argument"))
            .clone()
    })
}

/// Map `--fidelity <spec>` onto the `VNET_FIDELITY` environment variable
/// so that every cluster the binary builds picks it up as its preset
/// default (workloads that pin fidelity explicitly via
/// `with_fidelity`/builder calls still win — builder > env > default).
/// Call once at the top of `main`, before any cluster is created. The
/// spec is validated eagerly so a typo fails here, not deep in a run.
pub fn init_fidelity_env() {
    if let Some(spec) = fidelity_arg() {
        let _ = vnet_core::FidelityMap::parse(&spec)
            .unwrap_or_else(|e| panic!("--fidelity {spec:?}: {e}"));
        std::env::set_var("VNET_FIDELITY", spec);
    }
}

/// The directory passed via `--telemetry <dir>`, if any. When present,
/// bench binaries run an instrumented pass and emit telemetry artifacts
/// there (see [`emit_telemetry`]).
pub fn telemetry_dir() -> Option<PathBuf> {
    let args: Vec<String> = std::env::args().collect();
    args.iter().position(|a| a == "--telemetry").map(|i| {
        PathBuf::from(
            args.get(i + 1)
                .unwrap_or_else(|| panic!("--telemetry requires a directory argument")),
        )
    })
}

/// Write the cluster's telemetry artifacts to the `--telemetry` directory:
///
/// * `<name>.metrics.json` — flat metrics snapshot (dotted names);
/// * `<name>.metrics.txt` — the same snapshot as an aligned text table;
/// * `<name>.perfetto.json` — Chrome trace-event span log, loadable at
///   <https://ui.perfetto.dev>.
///
/// No-op unless `--telemetry <dir>` was passed.
pub fn emit_telemetry(name: &str, cluster: &vnet_core::Cluster) {
    let Some(dir) = telemetry_dir() else { return };
    let _ = fs::create_dir_all(&dir);
    let tel = cluster.telemetry();
    let snap = tel.snapshot();
    for (suffix, body) in [
        ("metrics.json", snap.to_json()),
        ("metrics.txt", snap.to_table()),
        ("perfetto.json", tel.export_perfetto()),
    ] {
        let path = dir.join(format!("{name}.{suffix}"));
        match fs::write(&path, body) {
            Ok(()) => println!("[telemetry written {}]", path.display()),
            Err(e) => eprintln!("warning: could not write {}: {e}", path.display()),
        }
    }
}

/// A boxed sweep job for [`par_run`].
pub type Job<T> = Box<dyn FnOnce() -> T + Send>;

/// Run `jobs` closures on up to `par` OS threads, preserving result order.
/// Each simulation instance is single-threaded and deterministic; the
/// parallelism is across independent configurations.
pub fn par_run<T, F>(jobs: Vec<F>, par: usize) -> Vec<T>
where
    T: Send,
    F: FnOnce() -> T + Send,
{
    let n = jobs.len();
    let mut results: Vec<Option<T>> = (0..n).map(|_| None).collect();
    let jobs: Vec<(usize, F)> = jobs.into_iter().enumerate().collect();
    let queue = std::sync::Mutex::new(jobs);
    let results_ref = std::sync::Mutex::new(&mut results);
    std::thread::scope(|s| {
        for _ in 0..par.max(1).min(n.max(1)) {
            s.spawn(|| loop {
                let job = { queue.lock().unwrap().pop() };
                let Some((i, f)) = job else { break };
                let out = f();
                results_ref.lock().unwrap()[i] = Some(out);
            });
        }
    });
    results.into_iter().map(|o| o.expect("job ran")).collect()
}

/// Default sweep parallelism: physical cores, capped.
pub fn default_par() -> usize {
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(4).min(16)
}

/// Format a float with 1 decimal.
pub fn f1(x: f64) -> String {
    format!("{x:.1}")
}

/// Format a float with 2 decimals.
pub fn f2(x: f64) -> String {
    format!("{x:.2}")
}

/// Format a float with 3 decimals.
pub fn f3(x: f64) -> String {
    format!("{x:.3}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_and_aligns() {
        let mut t = Table::new("Demo", &["col", "value"]);
        t.row(vec!["a".into(), "1.0".into()]);
        t.row(vec!["long-name".into(), "2.5".into()]);
        let r = t.render();
        assert!(r.contains("## Demo"));
        assert!(r.contains("long-name"));
    }

    #[test]
    #[should_panic(expected = "row arity mismatch")]
    fn arity_checked() {
        let mut t = Table::new("x", &["a", "b"]);
        t.row(vec!["only-one".into()]);
    }

    #[test]
    fn par_run_preserves_order() {
        let jobs: Vec<Box<dyn FnOnce() -> usize + Send>> =
            (0..20usize).map(|i| Box::new(move || i * i) as _).collect();
        let out = par_run(jobs, 4);
        assert_eq!(out, (0..20).map(|i| i * i).collect::<Vec<_>>());
    }

    #[test]
    fn formatting() {
        assert_eq!(f1(1.25), "1.2");
        assert_eq!(f2(1.256), "1.26");
        assert_eq!(f3(0.12345), "0.123");
    }
}
