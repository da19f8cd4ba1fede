//! Fluent cluster construction: `Cluster::builder()`.
//!
//! ```
//! use vnet_core::prelude::*;
//!
//! let cluster = Cluster::builder()
//!     .hosts(4)
//!     .seed(7)
//!     .telemetry(true)
//!     .build();
//! assert_eq!(cluster.hosts(), 4);
//! assert!(cluster.telemetry().enabled());
//! ```
//!
//! The builder is sugar over [`ClusterConfig`]: it records the host count
//! and, per method call, one edit of the configuration (mostly the
//! matching `with_*` call). [`ClusterBuilder::build`] applies the edits in
//! call order to [`ClusterConfig::now`] for that host count, so
//! `.seed(3).hosts(4)` and `.hosts(4).seed(3)` describe the same cluster.
//! Anything the builder has no method for is set on a `ClusterConfig`
//! passed to `Cluster::new(cfg)`.

use crate::cluster::Cluster;
use crate::config::ClusterConfig;
use crate::model::Fidelity;
use vnet_net::{FaultScheduleSpec, TopologySpec};

type Edit = Box<dyn FnOnce(ClusterConfig) -> ClusterConfig>;

/// Fluent builder for a [`Cluster`]; see the module docs.
pub struct ClusterBuilder {
    hosts: u32,
    edits: Vec<Edit>,
}

impl Default for ClusterBuilder {
    fn default() -> Self {
        Self::new()
    }
}

impl ClusterBuilder {
    /// A builder for the paper's default two-host virtual-network cluster.
    pub fn new() -> Self {
        ClusterBuilder { hosts: 2, edits: Vec::new() }
    }

    fn edit(mut self, f: impl FnOnce(ClusterConfig) -> ClusterConfig + 'static) -> Self {
        self.edits.push(Box::new(f));
        self
    }

    /// Number of hosts (crossbar topology unless overridden; `100` gives
    /// the full NOW fat tree).
    pub fn hosts(mut self, n: u32) -> Self {
        self.hosts = n;
        self
    }

    /// Explicit network topology (overrides the host-count default).
    pub fn topology(self, t: TopologySpec) -> Self {
        self.edit(move |c| ClusterConfig { topology: t, ..c })
    }

    /// Master seed ([`ClusterConfig::with_seed`]).
    pub fn seed(self, seed: u64) -> Self {
        self.edit(move |c| c.with_seed(seed))
    }

    /// Attach (or detach) the cross-layer invariant auditor's hooks
    /// ([`ClusterConfig::with_audit`]). Default: debug builds only.
    pub fn audit(self, on: bool) -> Self {
        self.edit(move |c| c.with_audit(on))
    }

    /// Attach the span log and the NIC frame counters
    /// ([`ClusterConfig::with_telemetry`], read back through
    /// `Cluster::telemetry`). Default: off.
    pub fn telemetry(self, on: bool) -> Self {
        self.edit(move |c| c.with_telemetry(on))
    }

    /// Worker shards for the conservative parallel executor
    /// ([`ClusterConfig::with_shards`]). Default: the `VNET_SHARDS`
    /// preset, else 1 (sequential).
    pub fn shards(self, n: u32) -> Self {
        self.edit(move |c| c.with_shards(n))
    }

    /// Assign a fidelity class to the listed hosts (see
    /// [`crate::model`]): `Fidelity::Abstract` hosts run the fast LogP
    /// model, everything else stays `Fidelity::Full`. Fidelity calls
    /// accumulate onto one [`ClusterConfig::fidelity`] map.
    pub fn fidelity(self, hosts: impl IntoIterator<Item = u32>, f: Fidelity) -> Self {
        let hosts: Vec<u32> = hosts.into_iter().collect();
        self.edit(move |mut c| {
            c.fidelity.set_hosts(hosts, f);
            c
        })
    }

    /// The fidelity class unlisted hosts take.
    pub fn default_fidelity(self, f: Fidelity) -> Self {
        self.edit(move |mut c| {
            c.fidelity.set_default_host(f);
            c
        })
    }

    /// The fabric's fidelity (`Fidelity::Abstract` selects the delay-only
    /// fabric).
    pub fn fabric_fidelity(self, f: Fidelity) -> Self {
        self.edit(move |mut c| {
            c.fidelity.set_fabric(f);
            c
        })
    }

    /// Scheduled fault campaign: timed link flaps, switch failures,
    /// degrade windows, bursty errors (see
    /// [`ClusterConfig::with_faults`]). Default: none.
    pub fn faults(self, spec: FaultScheduleSpec) -> Self {
        self.edit(move |c| c.with_faults(spec))
    }

    /// The configuration: every edit, in call order, applied to the
    /// preset for the host count.
    fn resolve(self) -> ClusterConfig {
        self.edits.into_iter().fold(ClusterConfig::now(self.hosts), |cfg, e| e(cfg))
    }

    /// Build the cluster.
    pub fn build(self) -> Cluster {
        Cluster::new(self.resolve())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vnet_sim::SimTime;

    #[test]
    fn builder_resolves_presets_and_overrides() {
        let faults =
            FaultScheduleSpec::none().fail_switch(0, SimTime::ZERO, SimTime::from_nanos(1_000));
        let topo = TopologySpec::Crossbar { hosts: 6 };
        let cfg = ClusterBuilder::new()
            .hosts(4)
            .seed(42)
            .audit(false)
            .telemetry(true)
            .shards(3)
            .faults(faults.clone())
            .default_fidelity(Fidelity::Abstract)
            .fidelity(0..3, Fidelity::Full)
            .fabric_fidelity(Fidelity::Abstract)
            .resolve();
        assert_eq!(cfg.hosts(), 4);
        assert_eq!(cfg.seed, 42);
        assert!(!cfg.audit);
        assert!(cfg.telemetry);
        assert_eq!(cfg.shards, 3);
        assert_eq!(cfg.faults, faults);
        assert_eq!(cfg.fidelity.of(2), Fidelity::Full);
        assert_eq!(cfg.fidelity.of(3), Fidelity::Abstract);
        assert_eq!(cfg.fidelity.fabric(), Fidelity::Abstract);
        // Untouched fields keep the preset's values.
        let preset = ClusterConfig::now(4);
        assert_eq!(cfg.nic.frames, preset.nic.frames);
        assert_eq!(cfg.credits, preset.credits);

        assert_eq!(ClusterBuilder::new().resolve().hosts(), 2);
        assert_eq!(ClusterBuilder::new().shards(0).resolve().shards, 1);
        let cfg = ClusterBuilder::new().hosts(4).topology(topo).resolve();
        assert_eq!(cfg.hosts(), 6, "an explicit topology beats the host count");

        // Call order relative to `.hosts()` does not matter.
        let late = ClusterBuilder::new().seed(3).audit(true).hosts(4).resolve();
        let early = ClusterBuilder::new().hosts(4).seed(3).audit(true).resolve();
        assert_eq!(format!("{late:?}"), format!("{early:?}"));
        assert_eq!(late.hosts(), 4);
        assert_eq!(late.seed, 3);

        let c = ClusterBuilder::new().hosts(4).audit(false).telemetry(true).build();
        assert_eq!(c.hosts(), 4);
        assert!(c.telemetry().enabled());
    }

    #[test]
    fn builder_fidelity_map() {
        let cfg = ClusterBuilder::new()
            .hosts(8)
            .fidelity(4..8, Fidelity::Abstract)
            .fabric_fidelity(Fidelity::Abstract)
            .resolve();
        assert_eq!(cfg.fidelity.of(0), Fidelity::Full);
        assert_eq!(cfg.fidelity.of(4), Fidelity::Abstract);
        assert_eq!(cfg.fidelity.fabric(), Fidelity::Abstract);
        assert!(cfg.fidelity.any_abstract(8));

        // Later calls accumulate onto the same map.
        let cfg = ClusterBuilder::new()
            .hosts(8)
            .default_fidelity(Fidelity::Abstract)
            .fidelity([6, 7], Fidelity::Full)
            .resolve();
        assert_eq!(cfg.fidelity.default_host(), Fidelity::Abstract);
        assert_eq!(cfg.fidelity.of(0), Fidelity::Abstract);
        assert_eq!(cfg.fidelity.of(7), Fidelity::Full);
        assert_eq!(cfg.fidelity.fabric(), Fidelity::Full);
    }
}
