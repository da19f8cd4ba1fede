//! The benchmark's own instrumentation, all of it outside the program:
//! wall-clock spans around the benchmark's calls into each layer, work
//! counts read from `Cluster::telemetry().snapshot()`, and the
//! correctness digest over the simulated outputs.

use std::collections::hash_map::DefaultHasher;
use std::collections::{BTreeMap, HashMap};
use std::hash::BuildHasherDefault;
use std::time::Instant;
use vnet::prelude::*;
use vnet::sim::stats::LogHistogram;
use vnet::Cluster;

/// One timed interval on the host clock.
struct Span {
    name: &'static str,
    start_ns: u64,
    dur_ns: u64,
    /// Index of the enclosing span (the call that caused this one).
    parent: Option<usize>,
    /// Engine events processed when the span closed (slices only).
    events: Option<u64>,
}

/// Span recorder. An untraced probe records the rep-level phases
/// (`setup`, `core.build`, `apps.launch`, `run`) and every `run_for`
/// slice; a traced probe also records every audit, snapshot and export
/// call, and the engine's event count at each slice boundary.
pub struct Probe {
    traced: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Probe {
    pub fn new(traced: bool) -> Self {
        Probe {
            traced,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Open span `name`; close it with [`Probe::end`].
    pub fn begin(&mut self, name: &'static str) {
        let start_ns = self.origin.elapsed().as_nanos() as u64;
        let parent = self.open.last().copied();
        self.spans.push(Span {
            name,
            start_ns,
            dur_ns: 0,
            parent,
            events: None,
        });
        self.open.push(self.spans.len() - 1);
    }

    /// Close the innermost open span.
    pub fn end(&mut self) {
        let i = self.open.pop().expect("end without begin");
        let now = self.origin.elapsed().as_nanos() as u64;
        self.spans[i].dur_ns = now - self.spans[i].start_ns;
    }

    /// Time `f` as span `name` when traced; just run it otherwise.
    pub fn call<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        if !self.traced {
            return f();
        }
        self.begin(name);
        let out = f();
        self.end();
        out
    }

    /// Advance `c` by one fixed simulated-time slice.
    pub fn slice(&mut self, c: &mut Cluster, d: SimDuration) {
        self.begin("sim.slice");
        c.run_for(d);
        self.end();
        if !self.traced {
            return;
        }
        let i = self.spans.len() - 1;
        self.spans[i].events = Some(c.events_processed());
    }

    /// Seconds spent in spans called `name`, summed.
    pub fn total_s(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur_ns as f64 / 1e9)
            .sum()
    }

    /// Durations of every span called `name`, in milliseconds.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur_ns as f64 / 1e6)
            .collect()
    }

    /// The spans as Chrome trace-event JSON (`ui.perfetto.dev`), one
    /// complete event per span, `tid` = nesting depth.
    pub fn chrome_trace(&self, rep: usize) -> Vec<String> {
        self.spans
            .iter()
            .map(|s| {
                let mut depth = 0;
                let mut p = s.parent;
                while let Some(i) = p {
                    depth += 1;
                    p = self.spans[i].parent;
                }
                let args = s.events.map_or(String::new(), |e| {
                    format!(", \"args\": {{\"events\": {e}}}")
                });
                format!(
                    "{{\"name\": \"{}\", \"ph\": \"X\", \"pid\": {rep}, \"tid\": {depth}, \
                     \"ts\": {:.3}, \"dur\": {:.3}{args}}}",
                    s.name,
                    s.start_ns as f64 / 1e3,
                    s.dur_ns as f64 / 1e3
                )
            })
            .collect()
    }
}

/// Read the cluster's telemetry snapshot (a timed call into the layer)
/// and sum its counters over hosts: `host7.nic.retransmits` folds into
/// `nic.retransmits`; cluster-wide `net.*` and `ctl.*` counters pass
/// through. Engine progress and trace/telemetry bookkeeping are left
/// out — they are not simulated outputs.
pub fn work_counts(c: &Cluster, p: &mut Probe) -> BTreeMap<String, u64> {
    let snap = p.call("sim.telemetry.snapshot", || c.telemetry().snapshot());
    let mut out = BTreeMap::new();
    for (name, v) in snap.entries() {
        let MetricValue::Counter(v) = v else { continue };
        let key = match name.strip_prefix("host") {
            Some(rest) => match rest.split_once('.') {
                Some((n, layer)) if n.bytes().all(|b| b.is_ascii_digit()) => layer,
                _ => continue,
            },
            None if name.starts_with("net.") || name.starts_with("ctl.") => name.as_str(),
            None => continue,
        };
        *out.entry(key.to_string()).or_insert(0) += v;
    }
    let drops = [
        "drop_link_down",
        "drop_transmission",
        "drop_degraded",
        "drop_burst",
    ]
    .iter()
    .map(|k| out.get(&format!("net.{k}")).copied().unwrap_or(0))
    .sum();
    out.insert("net.drops".into(), drops);
    out
}

/// Run the invariant audit (a timed call into `sim::audit`); returns the
/// auditor's violation count, printing the report when it is non-zero.
pub fn audit(c: &Cluster, p: &mut Probe, what: &str) -> u64 {
    match p.call("sim.audit.check", || c.audit()) {
        Ok(()) => 0,
        Err(report) => {
            eprintln!("{what}: auditor violation(s):\n{report}");
            c.auditor().borrow().total_violations().max(1)
        }
    }
}

/// FNV-1a over the simulated outputs of one rep. Host-time numbers and
/// the engine's event count never enter it, so a pure speed change —
/// including one that removes redundant events — leaves it unchanged.
pub struct Digest(u64);

impl Digest {
    pub fn new() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, b: &[u8]) {
        for &x in b {
            self.0 ^= x as u64;
            self.0 = self.0.wrapping_mul(0x100_0000_01b3);
        }
    }

    pub fn add(&mut self, tag: &str, v: u64) {
        self.bytes(tag.as_bytes());
        self.bytes(&v.to_le_bytes());
    }

    pub fn counts(&mut self, counts: &BTreeMap<String, u64>) {
        for (k, &v) in counts {
            self.add(k, v);
        }
    }

    pub fn histogram(&mut self, tag: &str, h: &LogHistogram) {
        for (i, &b) in h.buckets().iter().enumerate() {
            if b != 0 {
                self.add(tag, i as u64);
                self.add(tag, b);
            }
        }
        self.add(tag, h.sum() as u64);
    }

    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// Median of `v` (0 for an empty slice).
pub fn median(v: &[f64]) -> f64 {
    quantile(v, 0.5)
}

/// Nearest-rank-interpolated quantile of `v` (0 for an empty slice).
pub fn quantile(v: &[f64], q: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(|a, b| a.total_cmp(b));
    let pos = q * (s.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    s[lo] + (s[hi] - s[lo]) * (pos - lo as f64)
}

/// Peak resident set of this process so far, in KB (`VmHWM`).
pub fn vm_hwm_kb() -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|v| v.parse().ok())
        })
        .unwrap_or(0)
}

/// Host seconds [`calibrate`] takes on a quiet machine of the kind the
/// benchmark was written on (2 vCPUs at 2.0 GHz); a rep's host times
/// are scaled by `CAL_REF_S / calibrate()` into reference seconds.
pub const CAL_REF_S: f64 = 0.025;

/// Host seconds of a fixed workload of the benchmark's own that looks
/// like the simulator's inner loop to the memory system: hash-map
/// lookups and updates over a multi-megabyte table, keyed by a xorshift
/// stream, plus short-lived boxed allocations. The machine's speed
/// drifts with its neighbours' load; timing this next to every rep lets
/// a rep's host time be read against the machine's speed at that moment.
/// Runs one copy per worker thread the rep uses, all at once, since a
/// sharded rep runs at the pace of its slowest core.
pub fn calibrate(threads: u32) -> f64 {
    let start = Instant::now();
    std::thread::scope(|sc| {
        for _ in 1..threads {
            sc.spawn(kernel);
        }
        kernel();
    });
    start.elapsed().as_secs_f64()
}

fn kernel() {
    const KEYS: u64 = 1 << 18;
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    let mut next = move || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    };
    // A fixed-key hasher, so every run does the same work.
    let mut map: HashMap<u64, Box<[u64; 4]>, BuildHasherDefault<DefaultHasher>> =
        HashMap::default();
    let mut acc = 0u64;
    for _ in 0..150_000 {
        let k = next() % KEYS;
        match map.get_mut(&k) {
            Some(v) => {
                v[0] = v[0].wrapping_add(k);
                acc ^= v[1];
            }
            None => {
                map.insert(k, Box::new([k, acc, 0, 0]));
            }
        }
        if k & 3 == 0 {
            map.remove(&(next() % KEYS));
        }
    }
    std::hint::black_box(acc);
}
