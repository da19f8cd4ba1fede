//! The unified cluster observability handle.
//!
//! One entry point — [`crate::cluster::Cluster::telemetry`] — replaces
//! per-component stats spelunking:
//!
//! ```text
//! let tel = cluster.telemetry();
//! let before = tel.snapshot();              // flat metrics snapshot
//! /* ... run ... */
//! let tel = cluster.telemetry();
//! let delta = tel.delta_since(&before);     // counters subtracted
//! println!("{}", delta.to_table());
//! std::fs::write("trace.json", tel.export_perfetto())?;  // ui.perfetto.dev
//! cluster.audit()?;                         // invariant check
//! ```
//!
//! Metric names are `host3.nic.retransmits`-style dotted paths: a host
//! scope (`host{N}`), a layer (`nic`, `os`), and the metric's short name
//! as enumerated by its [`MetricSet`](vnet_sim::telemetry::MetricSet).
//! Cluster-wide sets use a bare layer prefix (`net.packets`,
//! `telemetry.dropped_spans`, `engine.*`).

use crate::cluster::Cluster;
use vnet_sim::telemetry::{MetricValue, MetricsSnapshot, TelemetryHandle};

/// Borrowed observability facade over a [`Cluster`] (see module docs).
///
/// Cheap to construct; holds no state of its own. All mutation goes
/// through interior-mutable handles (the debug-audit flag), so a shared
/// borrow suffices.
pub struct ClusterTelemetry<'a> {
    c: &'a Cluster,
}

impl<'a> ClusterTelemetry<'a> {
    pub(crate) fn new(c: &'a Cluster) -> Self {
        ClusterTelemetry { c }
    }

    /// Whether telemetry hooks are attached
    /// ([`crate::config::ClusterConfig::telemetry`]). Snapshots work
    /// either way — component stats are always counted; only the NIC's
    /// frame/DMA-byte counters and the Perfetto span log need the hooks.
    pub fn enabled(&self) -> bool {
        self.c.world().telemetry.is_some()
    }

    /// The raw span-log handle, when attached (direct span emission from
    /// test harnesses).
    pub fn handle(&self) -> Option<TelemetryHandle> {
        self.c.world().telemetry.clone()
    }

    /// Flat snapshot of every metric in the cluster at the current
    /// simulated time: per-host stats — `host{N}.nic.*` / `host{N}.os.*`
    /// for full-fidelity hosts, coarse `host{N}.abs.*` counters for
    /// abstract ones — fabric aggregates (`net.*`), engine progress
    /// (`engine.*`), and — when telemetry hooks are attached — the NIC
    /// frame/DMA-byte counters of every host that moved a frame
    /// (`host{N}.nic.frames_tx`, `frames_rx`, `dma_bytes`) and the
    /// span-log drop counter (`telemetry.dropped_spans`).
    pub fn snapshot(&self) -> MetricsSnapshot {
        let w = self.c.world();
        let mut s = MetricsSnapshot::new(self.c.now());
        for h in 0..w.hosts() {
            w.slot(h).record_metrics(h, &mut s);
        }
        s.record_set("net", &w.fabric);
        if let Some(ctl) = &w.control {
            s.record_set("ctl", &**ctl);
            s.record("ctl.quota_denials", MetricValue::Counter(w.quota_denials()));
        }
        s.record("engine.events_processed", MetricValue::Counter(self.c.events_processed()));
        s.record(
            "engine.sim_time_us",
            MetricValue::Gauge(self.c.now().as_micros_f64()),
        );
        if let Some(tel) = &w.telemetry {
            let dropped = tel.borrow().dropped_spans();
            s.record("telemetry.dropped_spans", MetricValue::Counter(dropped));
        }
        s
    }

    /// Snapshot, minus `earlier`: counters are subtracted (saturating),
    /// gauges and summaries take their later value. The canonical way to
    /// report "what happened during this phase".
    pub fn delta_since(&self, earlier: &MetricsSnapshot) -> MetricsSnapshot {
        self.snapshot().delta_since(earlier)
    }

    /// Export the span log as Chrome trace-event / Perfetto JSON; load
    /// at <https://ui.perfetto.dev>. Each host is a process, each layer
    /// track (`nic.chan`, `nic.dma`, `nic.fw`, `os.seg`) a thread;
    /// retransmit/backoff/residency episodes are async spans, NACKs and
    /// faults are instants. An empty (but loadable) trace when telemetry
    /// hooks are detached.
    pub fn export_perfetto(&self) -> String {
        match &self.c.world().telemetry {
            Some(t) => t.borrow().export_chrome_trace(),
            None => "{\"displayTimeUnit\": \"ns\", \"traceEvents\": [\n]}\n".to_string(),
        }
    }

    /// Enable or disable the automatic debug-build invariant audit at
    /// run boundaries. Mutation tests that provoke violations on purpose
    /// disable it and inspect [`Cluster::audit`] directly.
    pub fn set_debug_audit(&self, on: bool) {
        self.c.set_debug_audit_flag(on);
    }
}
