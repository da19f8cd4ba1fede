//! `perfbench` — the simulator's benchmark: host time, set-up time and
//! memory on four workloads, plus per-layer numbers from a traced run.
//!
//! ```text
//! perfbench --workload <thrash|bulk|fleet|chaos|all> [--seed N] [--seconds S]
//!           [--trace 0|1] [--smoke] [--out DIR]
//! ```
//!
//! Untraced (`--trace 0`) it prints the end-to-end metrics `run_s`,
//! `setup_s` and `peak_rss_mb`; traced (`--trace 1`) the per-layer
//! metrics. Either way it prints `ops`/`failed` and checks the simulated
//! outputs, and its last stdout line is one JSON object:
//! `{"correct": .., "attempted": .., "failed": .., "metrics": {..}}`.
//! See `README.md` next to this crate for what each number means.
//!
//! Every measurement runs in a child process of this binary (`--child`),
//! so `peak_rss_mb` is the high-water mark of a process that ran only
//! that workload. The only file written is the traced run's span log,
//! under `--out` (default `perfbench-out` in the working directory).

mod probe;
mod workloads;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::Instant;

use probe::{median, quantile, vm_hwm_kb, Probe};
use vnet::sim::telemetry::json::{self, Json};
use workloads::{Kind, ALL};

/// Measured reps of an untraced run, at least.
const MIN_REPS: usize = 3;

/// Set-up-only builds before each measured rep of an untraced run:
/// set-up takes milliseconds, so its median needs more samples than the
/// run has reps.
const EXTRA_SETUPS: usize = 4;

/// Recorded digests: `<workload> <full|smoke> <seed> <digest>`.
const GOLDEN: &str = include_str!("../golden.txt");

/// Simulated-domain readings a traced run prints for every workload (0
/// where the workload has no such layer), with their units.
const COUNTS: [(&str, &str); 31] = [
    ("net.packets", "count"),
    ("net.bytes", "bytes"),
    ("net.link_busy_ns", "ns"),
    ("net.drops", "count"),
    ("nic.data_sent", "count"),
    ("nic.deposits", "count"),
    ("nic.retransmits", "count"),
    ("nic.duplicates", "count"),
    ("nic.nacks_rx_not_resident", "count"),
    ("nic.nacks_rx_queue_full", "count"),
    ("nic.unbinds", "count"),
    ("nic.failovers", "count"),
    ("nic.loads", "count"),
    ("os.loads", "count"),
    ("os.unloads", "count"),
    ("os.write_faults", "count"),
    ("os.proxy_faults", "count"),
    ("os.page_ins", "count"),
    ("os.event_wakes", "count"),
    ("abs.sent", "count"),
    ("abs.recvd", "count"),
    ("model.lat_p50_us", "us"),
    ("model.lat_p99_us", "us"),
    ("ctl.migrations_completed", "count"),
    ("ctl.migrations_failed", "count"),
    ("ctl.reconciles", "count"),
    ("ctl.cached_ticks", "count"),
    ("ctl.quota_denials", "count"),
    ("apps.completed", "count"),
    ("apps.rtt_p50_us", "us"),
    ("apps.rtt_p99_us", "us"),
];

struct Args {
    workload: String,
    seed: Option<u64>,
    seconds: f64,
    trace: bool,
    smoke: bool,
    out: PathBuf,
    /// Child mode: the `shards:traced` configurations to run round-robin.
    child: Option<String>,
    setups: usize,
    min_rounds: usize,
}

fn parse_u64(s: &str) -> Option<u64> {
    match s.strip_prefix("0x") {
        Some(hex) => u64::from_str_radix(hex, 16).ok(),
        None => s.parse().ok(),
    }
}

fn parse_args() -> Result<Args, String> {
    let mut a = Args {
        workload: String::new(),
        seed: None,
        seconds: 10.0,
        trace: false,
        smoke: false,
        out: PathBuf::from("perfbench-out"),
        child: None,
        setups: 0,
        min_rounds: 1,
    };
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        if flag == "--smoke" {
            a.smoke = true;
            continue;
        }
        let v = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {v}");
        match flag.as_str() {
            "--workload" => a.workload = v.clone(),
            "--seed" => a.seed = Some(parse_u64(v).ok_or_else(bad)?),
            "--seconds" => a.seconds = v.parse().map_err(|_| bad())?,
            "--trace" => a.trace = v == "1",
            "--out" => a.out = PathBuf::from(v),
            "--child" => a.child = Some(v.clone()),
            "--setups" => a.setups = v.parse().map_err(|_| bad())?,
            "--min-rounds" => a.min_rounds = v.parse().map_err(|_| bad())?,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(a)
}

fn main() {
    let args = parse_args().unwrap_or_else(|e| die(&e));
    let kinds: Vec<Kind> = match args.workload.as_str() {
        "all" => ALL.to_vec(),
        w => vec![Kind::parse(w).unwrap_or_else(|| {
            die(&format!(
                "--workload must be one of thrash, bulk, fleet, chaos, all (got '{w}')"
            ))
        })],
    };
    if let Some(configs) = &args.child {
        child(kinds[0], &args, configs);
        return;
    }
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    for kind in kinds {
        let seed = args.seed.unwrap_or(kind.default_seed());
        let result = if args.trace {
            traced(kind, seed, &args, cores)
        } else {
            untraced(kind, seed, &args, cores)
        };
        match result {
            Ok(report) => report.print(),
            Err(e) => die(&format!("{}: {e}", kind.name())),
        }
    }
}

fn die(msg: &str) -> ! {
    eprintln!("perfbench: {msg}");
    std::process::exit(2);
}

// ------------------------------------------------------------- child side

/// One configuration's reps inside a child.
#[derive(Default)]
struct Series {
    shards: u32,
    traced: bool,
    shards_used: u32,
    events: u64,
    /// Per-rep host times below are in reference seconds (see
    /// [`probe::CAL_REF_S`]); `wall_s` keeps the raw run times.
    run_s: Vec<f64>,
    wall_s: Vec<f64>,
    cal_s: Vec<f64>,
    setup_s: Vec<f64>,
    digests: Vec<u64>,
    build_s: Vec<f64>,
    launch_s: Vec<f64>,
    audit_s: Vec<f64>,
    snapshot_s: Vec<f64>,
    export_s: Vec<f64>,
    slice_ms: Vec<f64>,
    counts: BTreeMap<String, f64>,
}

fn nums(v: &[f64]) -> String {
    format!(
        "[{}]",
        v.iter()
            .map(|x| json::num(*x))
            .collect::<Vec<_>>()
            .join(", ")
    )
}

impl Series {
    fn json(&self) -> String {
        let digests: Vec<String> = self
            .digests
            .iter()
            .map(|d| format!("\"{d:016x}\""))
            .collect();
        let counts: Vec<String> = self
            .counts
            .iter()
            .map(|(k, v)| format!("{}: {}", json::str(k), json::num(*v)))
            .collect();
        format!(
            "{{\"shards\": {}, \"traced\": {}, \"shards_used\": {}, \"events\": {}, \
             \"run_s\": {}, \"wall_s\": {}, \"cal_s\": {}, \"setup_s\": {}, \"digests\": [{}], \"build_s\": {}, \
             \"launch_s\": {}, \"audit_s\": {}, \"snapshot_s\": {}, \"export_s\": {}, \
             \"slice_ms\": {}, \"counts\": {{{}}}}}",
            self.shards,
            self.traced,
            self.shards_used,
            self.events,
            nums(&self.run_s),
            nums(&self.wall_s),
            nums(&self.cal_s),
            nums(&self.setup_s),
            digests.join(", "),
            nums(&self.build_s),
            nums(&self.launch_s),
            nums(&self.audit_s),
            nums(&self.snapshot_s),
            nums(&self.export_s),
            nums(&self.slice_ms),
            counts.join(", "),
        )
    }
}

/// Run `configs` (`shards:traced,...`) round-robin until the time budget
/// is spent (and at least `min_rounds` rounds), then print one JSON line.
/// A zero budget skips calibration: such a child either only checks
/// outputs or measures peak RSS, which the calibration kernel's own
/// memory would inflate.
fn child(kind: Kind, a: &Args, configs: &str) {
    let seed = a.seed.unwrap_or(kind.default_seed());
    let mut series: Vec<Series> = configs
        .split(',')
        .map(|c| {
            let (s, t) = c
                .split_once(':')
                .unwrap_or_else(|| die(&format!("bad config {c}")));
            Series {
                shards: s
                    .parse()
                    .unwrap_or_else(|_| die(&format!("bad config {c}"))),
                traced: t == "1",
                ..Series::default()
            }
        })
        .collect();
    let start = Instant::now();
    let mut ops = 0u64;
    let mut failures: BTreeMap<String, u64> = BTreeMap::new();
    let mut trace_events: Vec<String> = Vec::new();
    let mut record = |s: &mut Series, o: workloads::Outcome| {
        s.digests.push(o.digest);
        s.events = o.events;
        s.shards_used = o.shards_used;
        s.counts = o.counts;
        ops += o.ops;
        for (name, n) in o.failures {
            *failures.entry(name).or_default() += n;
        }
    };
    // One untimed warm-up rep per configuration: the first rep in a
    // fresh process pays page faults and allocator growth the rest reuse.
    for s in series.iter_mut() {
        record(
            s,
            kind.rep(seed, s.shards, a.smoke, &mut Probe::new(false), false)
                .expect("full rep"),
        );
    }
    let mut rounds = 0;
    while rounds < a.min_rounds || start.elapsed().as_secs_f64() < a.seconds {
        for s in series.iter_mut() {
            let calibrate = || {
                if a.seconds > 0.0 {
                    probe::calibrate(s.shards)
                } else {
                    probe::CAL_REF_S
                }
            };
            let cal0 = calibrate();
            let setups: Vec<f64> = (0..a.setups)
                .map(|_| {
                    let mut p = Probe::new(false);
                    kind.rep(seed, s.shards, a.smoke, &mut p, true);
                    p.total_s("setup")
                })
                .collect();
            let mut p = Probe::new(s.traced);
            let o = kind
                .rep(seed, s.shards, a.smoke, &mut p, false)
                .expect("full rep");
            let cal = (cal0 + calibrate()) / 2.0;
            // Every host time of the rep, in reference seconds.
            let k = probe::CAL_REF_S / cal;
            s.cal_s.push(cal);
            s.wall_s.push(p.total_s("run"));
            s.run_s.push(p.total_s("run") * k);
            s.setup_s.extend(setups.iter().map(|t| t * k));
            s.setup_s.push(p.total_s("setup") * k);
            s.build_s.push(p.total_s("core.build") * k);
            s.launch_s.push(p.total_s("apps.launch") * k);
            s.slice_ms
                .extend(p.durations_ms("sim.slice").iter().map(|t| t * k));
            if s.traced {
                s.audit_s.push(p.total_s("sim.audit.check") * k);
                s.snapshot_s.push(p.total_s("sim.telemetry.snapshot") * k);
                s.export_s.push(p.total_s("sim.telemetry.export") * k);
                trace_events.extend(p.chrome_trace(rounds));
            }
            record(s, o);
        }
        rounds += 1;
    }
    if !trace_events.is_empty() {
        write_trace(&a.out, kind, &trace_events);
    }
    let failures: Vec<String> = failures
        .iter()
        .map(|(k, v)| format!("{}: {v}", json::str(k)))
        .collect();
    let series: Vec<String> = series.iter().map(Series::json).collect();
    println!(
        "{{\"ops\": {ops}, \"failures\": {{{}}}, \"vm_hwm_kb\": {}, \"series\": [{}]}}",
        failures.join(", "),
        vm_hwm_kb(),
        series.join(", ")
    );
}

/// Write the traced reps' spans as a Chrome trace under `dir`.
fn write_trace(dir: &Path, kind: Kind, events: &[String]) {
    let path = dir.join(format!("{}.trace.json", kind.name()));
    let body = format!(
        "{{\"displayTimeUnit\": \"ns\", \"traceEvents\": [\n{}\n]}}\n",
        events.join(",\n")
    );
    if let Err(e) = std::fs::create_dir_all(dir).and_then(|_| std::fs::write(&path, body)) {
        die(&format!("cannot write {}: {e}", path.display()));
    }
    eprintln!("perfbench: span log written to {}", path.display());
}

// ------------------------------------------------------------ parent side

/// Run a child of this binary measuring `configs` and parse its result.
fn spawn_child(
    kind: Kind,
    seed: u64,
    a: &Args,
    configs: &str,
    seconds: f64,
    setups: usize,
    min_rounds: usize,
) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", kind.name(), "--child", configs])
        .args([
            "--seed",
            &seed.to_string(),
            "--seconds",
            &seconds.to_string(),
        ])
        .args([
            "--setups",
            &setups.to_string(),
            "--min-rounds",
            &min_rounds.to_string(),
        ])
        .arg("--out")
        .arg(&a.out)
        .stderr(Stdio::inherit());
    if a.smoke {
        cmd.arg("--smoke");
    }
    let out = cmd.output().map_err(|e| format!("spawn child: {e}"))?;
    let text = String::from_utf8_lossy(&out.stdout);
    if !out.status.success() {
        return Err(format!("child ({configs}) failed with {}", out.status));
    }
    let line = text.lines().last().ok_or("child printed nothing")?;
    Json::parse(line).map_err(|e| format!("child output: {e}: {line}"))
}

fn f64s(j: &Json, key: &str) -> Vec<f64> {
    j.get(key)
        .and_then(Json::as_arr)
        .unwrap_or(&[])
        .iter()
        .filter_map(Json::as_f64)
        .collect()
}

fn num(j: &Json, key: &str) -> f64 {
    j.get(key).and_then(Json::as_f64).unwrap_or(0.0)
}

fn series(j: &Json) -> &[Json] {
    j.get("series").and_then(Json::as_arr).unwrap_or(&[])
}

fn digests(s: &Json) -> Vec<String> {
    s.get("digests")
        .and_then(Json::as_arr)
        .unwrap_or(&[])
        .iter()
        .filter_map(|d| d.as_str().map(str::to_string))
        .collect()
}

/// The recorded digest for this workload, size and seed, if any.
fn golden(kind: Kind, smoke: bool, seed: u64) -> Option<String> {
    let size = if smoke { "smoke" } else { "full" };
    GOLDEN.lines().find_map(|l| {
        let f: Vec<&str> = l.split_whitespace().collect();
        (f.len() == 4 && f[0] == kind.name() && f[1] == size && parse_u64(f[2]) == Some(seed))
            .then(|| f[3].to_string())
    })
}

/// One workload's result, printed as a table and a JSON line.
struct Report {
    kind: Kind,
    seed: u64,
    cores: usize,
    ops: u64,
    failures: BTreeMap<String, u64>,
    metrics: Vec<(&'static str, f64, &'static str)>,
    digest: String,
}

impl Report {
    fn new(kind: Kind, seed: u64, cores: usize) -> Self {
        Report {
            kind,
            seed,
            cores,
            ops: 0,
            failures: BTreeMap::new(),
            metrics: Vec::new(),
            digest: "-".into(),
        }
    }

    /// Fold a child's ops and named failures in.
    fn absorb(&mut self, child: &Json) {
        self.ops += num(child, "ops") as u64;
        for (name, n) in child
            .get("failures")
            .and_then(Json::as_obj)
            .into_iter()
            .flatten()
        {
            *self.failures.entry(name.clone()).or_default() += n.as_f64().unwrap_or(1.0) as u64;
        }
    }

    /// Every rep of every series must produce one digest, equal to the
    /// recorded one when this seed has one. A mismatch fails every op.
    fn check_digests(&mut self, smoke: bool, all: &[&Json]) {
        let mut seen: Vec<String> = all.iter().flat_map(|s| digests(s)).collect();
        seen.sort();
        seen.dedup();
        if seen.len() != 1 {
            let what = format!("digest differs between reps, shard counts or tracing: {seen:?}");
            self.failures.insert(what, self.ops);
            return;
        }
        self.digest = seen.remove(0);
        if let Some(want) = golden(self.kind, smoke, self.seed) {
            if want != self.digest {
                self.failures.insert(
                    format!("digest {} != recorded {want}", self.digest),
                    self.ops,
                );
            }
        }
    }

    fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push((name, value, unit));
    }

    fn failed(&self) -> u64 {
        self.failures.values().sum::<u64>().min(self.ops)
    }

    fn print(&self) {
        let w = self.kind.name();
        println!(
            "{w}: seed {} on {} core(s), digest {}",
            self.seed, self.cores, self.digest
        );
        for (name, v, unit) in &self.metrics {
            println!("  {name:<28} {v:>16.6} {unit}");
        }
        println!("  {:<28} {:>16} count", "ops", self.ops);
        println!("  {:<28} {:>16} count", "failed", self.failed());
        for (what, n) in &self.failures {
            println!("  FAILED {w}: {what} ({n} op(s))");
        }
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(n, v, u)| {
                format!(
                    "{}: {{\"value\": {}, \"unit\": {}}}",
                    json::str(n),
                    json::num(*v),
                    json::str(u)
                )
            })
            .collect();
        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failures.is_empty(),
            self.ops.max(1),
            self.failed(),
            metrics.join(", ")
        );
    }
}

/// Refuse to time oversubscription: a workload whose shard count exceeds
/// the core count would measure the OS scheduler, not the executor.
fn need_cores(kind: Kind, shards: u32, cores: usize) -> Result<(), String> {
    if shards as usize > cores {
        return Err(format!(
            "oversubscribed: {} needs {shards} worker shards but this machine has {cores} core(s)",
            kind.name()
        ));
    }
    Ok(())
}

/// The end-to-end measurement. One child runs a single untraced rep for
/// the memory high-water mark; a second runs the workload untraced for
/// the time budget.
fn untraced(kind: Kind, seed: u64, a: &Args, cores: usize) -> Result<Report, String> {
    let own = kind.shards();
    need_cores(kind, own, cores)?;
    let mem = spawn_child(kind, seed, a, &format!("{own}:0"), 0.0, 0, 0)?;
    let j = spawn_child(
        kind,
        seed,
        a,
        &format!("{own}:0"),
        a.seconds,
        EXTRA_SETUPS,
        MIN_REPS,
    )?;
    let (Some(s), Some(mem_s)) = (series(&j).first(), series(&mem).first()) else {
        return Err("child reported no series".into());
    };
    let mut r = Report::new(kind, seed, cores);
    r.absorb(&mem);
    r.absorb(&j);
    r.check_digests(a.smoke, &[mem_s, s]);
    r.metric("run_s", median(&f64s(s, "run_s")), "s");
    r.metric("setup_s", median(&f64s(s, "setup_s")), "s");
    r.metric("peak_rss_mb", num(&mem, "vm_hwm_kb") / 1024.0, "MB");
    Ok(r)
}

/// The per-layer measurement. One child runs a single untraced rep for
/// the memory high-water mark; a second alternates untraced, traced and
/// other-shard-count reps, so tracing overhead and the 2-shard speedup
/// come from interleaved pairs.
fn traced(kind: Kind, seed: u64, a: &Args, cores: usize) -> Result<Report, String> {
    let own = kind.shards();
    let other = if own == 1 { 2 } else { 1 };
    need_cores(kind, own.max(other), cores)?;
    let mem = spawn_child(kind, seed, a, &format!("{own}:0"), 0.0, 0, 0)?;
    let j = spawn_child(
        kind,
        seed,
        a,
        &format!("{own}:0,{own}:1,{other}:0"),
        a.seconds,
        0,
        2,
    )?;
    let (Some(plain), Some(tr), Some(alt)) =
        (series(&j).first(), series(&j).get(1), series(&j).get(2))
    else {
        return Err("child reported too few series".into());
    };
    let mem_s = series(&mem).first().ok_or("child reported no series")?;
    let mut r = Report::new(kind, seed, cores);
    r.absorb(&mem);
    r.absorb(&j);
    r.check_digests(a.smoke, &[mem_s, plain, tr, alt]);

    let run = median(&f64s(plain, "run_s"));
    let run_alt = median(&f64s(alt, "run_s"));
    let events = num(tr, "events");
    let slices = f64s(tr, "slice_ms");
    r.metric("core.build_s", median(&f64s(tr, "build_s")), "s");
    r.metric("apps.launch_s", median(&f64s(tr, "launch_s")), "s");
    r.metric("sim.events", events, "count");
    r.metric("sim.ns_per_event", run * 1e9 / events.max(1.0), "ns");
    r.metric("sim.slice_ms_p50", quantile(&slices, 0.5), "ms");
    r.metric("sim.slice_ms_p99", quantile(&slices, 0.99), "ms");
    r.metric("sim.slices", slices.len() as f64, "count");
    let (one, two) = if own == 1 {
        (run, run_alt)
    } else {
        (run_alt, run)
    };
    r.metric("sim.parallel.speedup_2", one / two.max(1e-12), "x");
    r.metric(
        "sim.parallel.shards_used_2",
        num(if own == 2 { plain } else { alt }, "shards_used"),
        "count",
    );
    r.metric("sim.audit.check_s", median(&f64s(tr, "audit_s")), "s");
    r.metric(
        "sim.telemetry.snapshot_s",
        median(&f64s(tr, "snapshot_s")),
        "s",
    );
    r.metric("sim.telemetry.export_s", median(&f64s(tr, "export_s")), "s");
    r.metric(
        "mem.rss_kb_per_host",
        num(&mem, "vm_hwm_kb") / kind.hosts(a.smoke) as f64,
        "KB",
    );
    r.metric(
        "trace.overhead_pct",
        (median(&f64s(tr, "run_s")) / run.max(1e-12) - 1.0) * 100.0,
        "%",
    );
    r.metric("host.cores", cores as f64, "count");
    r.metric("host.run_wall_s", median(&f64s(plain, "wall_s")), "s");
    r.metric("host.calibration_s", median(&f64s(plain, "cal_s")), "s");
    let counts = tr.get("counts").and_then(Json::as_obj);
    let count = |k: &str| {
        counts
            .and_then(|c| c.get(k))
            .and_then(Json::as_f64)
            .unwrap_or(0.0)
    };
    for (name, unit) in COUNTS {
        r.metric(name, count(name), unit);
    }
    let (sent, deposits) = (count("nic.data_sent"), count("nic.deposits"));
    r.metric(
        "nic.useful_frac",
        if sent > 0.0 { deposits / sent } else { 0.0 },
        "ratio",
    );
    r.metric("audit.violations", count("audit.violations"), "count");
    Ok(r)
}
