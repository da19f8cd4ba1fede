//! Deterministic fault-campaign schedules.
//!
//! §3.2 requires the communication system to "support hot-swap of links
//! and switches … and adapt to changes in the physical topology
//! transparently". A [`FaultScheduleSpec`] turns that requirement into an
//! adversarial, *scheduled* campaign: timed link-flap windows,
//! whole-switch failures (every attached link goes down), degraded-link
//! windows with elevated error rates, and an optional Gilbert–Elliott
//! bursty error model.
//!
//! The spec is declarative plain data. [`FaultScheduleSpec::compile`]
//! lowers it against a concrete [`Topology`] into a time-ordered list of
//! [`FaultOp`]s which the cluster injects through the engine's event
//! queue — *not* by mutating the plan from outside the simulation — so a
//! campaign is part of the event total order and byte-identical under
//! sequential and sharded execution.
//!
//! The [`RouteOracle`] is the NIC-facing view of the same schedule: a
//! read-only, shareable index of the scheduled down windows that lets a
//! sender re-plan a route around a failure (§5.1 multipath) without any
//! back-channel into fabric state. It is deliberately blind to
//! administrative `link_down`/`link_up` calls made directly on the
//! `FaultPlan` — those model unannounced failures, which senders can only
//! discover the hard way (retransmit → unbind → return to sender).

use crate::fault::{FaultOp, GilbertElliott};
use crate::packet::HostId;
use crate::topology::{LinkId, Topology};
use vnet_sim::{FxHashMap, SimTime};

/// A timed down window on one link: down at `from`, back up at `until`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct LinkFlap {
    /// The link that flaps.
    pub link: LinkId,
    /// When the link goes down.
    pub from: SimTime,
    /// When the link comes back up (exclusive; must be after `from`).
    pub until: SimTime,
}

/// A whole-switch failure window: every link attached to the switch is
/// down for the duration (the hot-swap of a switch, §3.2).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SwitchFailure {
    /// Switch id (see [`Topology::switch_links`] for the numbering).
    pub switch: u32,
    /// When the switch fails.
    pub from: SimTime,
    /// When the switch is back in service.
    pub until: SimTime,
}

/// A degraded-link window: the link stays up but drops/corrupts packets
/// at elevated rates (a marginal cable, not a dead one).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct DegradeWindow {
    /// The degraded link.
    pub link: LinkId,
    /// Window start.
    pub from: SimTime,
    /// Window end (exclusive).
    pub until: SimTime,
    /// Drop probability inside the window (overrides the global rate
    /// when larger).
    pub drop_prob: f64,
    /// Corruption probability inside the window.
    pub corrupt_prob: f64,
}

/// Declarative description of one fault campaign.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct FaultScheduleSpec {
    /// Individual link-flap windows.
    pub flaps: Vec<LinkFlap>,
    /// Whole-switch failure windows.
    pub switch_failures: Vec<SwitchFailure>,
    /// Degraded-link windows.
    pub degrades: Vec<DegradeWindow>,
    /// Gilbert–Elliott bursty error model, applied to every link for the
    /// whole run when present.
    pub bursty: Option<GilbertElliott>,
}

impl FaultScheduleSpec {
    /// A campaign with nothing in it (the default for every config).
    pub fn none() -> Self {
        Self::default()
    }

    /// Whether the campaign schedules anything at all.
    pub fn is_empty(&self) -> bool {
        self.flaps.is_empty()
            && self.switch_failures.is_empty()
            && self.degrades.is_empty()
            && self.bursty.is_none()
    }

    /// Add a link-flap window (builder style).
    pub fn flap(mut self, link: LinkId, from: SimTime, until: SimTime) -> Self {
        self.flaps.push(LinkFlap { link, from, until });
        self
    }

    /// Add a whole-switch failure window (builder style).
    pub fn fail_switch(mut self, switch: u32, from: SimTime, until: SimTime) -> Self {
        self.switch_failures.push(SwitchFailure { switch, from, until });
        self
    }

    /// Add a degraded-link window (builder style).
    pub fn degrade(
        mut self,
        link: LinkId,
        from: SimTime,
        until: SimTime,
        drop_prob: f64,
        corrupt_prob: f64,
    ) -> Self {
        self.degrades.push(DegradeWindow { link, from, until, drop_prob, corrupt_prob });
        self
    }

    /// Install a Gilbert–Elliott bursty error model (builder style).
    pub fn with_bursty(mut self, params: GilbertElliott) -> Self {
        self.bursty = Some(params);
        self
    }

    /// Lower the campaign against a topology into a time-ordered list of
    /// fault operations. The sort is stable, so simultaneous transitions
    /// apply in spec order on every copy of the plan — part of what keeps
    /// sharded campaigns byte-identical.
    ///
    /// # Panics
    /// Panics on an empty or inverted window, or an out-of-range switch.
    pub fn compile(&self, topo: &Topology) -> Vec<(SimTime, FaultOp)> {
        let mut out = Vec::new();
        for f in &self.flaps {
            assert!(f.from < f.until, "empty flap window on {:?}", f.link);
            out.push((f.from, FaultOp::LinkDown(f.link)));
            out.push((f.until, FaultOp::LinkUp(f.link)));
        }
        let mut links = Vec::new();
        for sf in &self.switch_failures {
            assert!(sf.from < sf.until, "empty failure window on switch {}", sf.switch);
            links.clear();
            topo.switch_links(sf.switch, &mut links);
            for &l in &links {
                out.push((sf.from, FaultOp::LinkDown(l)));
                out.push((sf.until, FaultOp::LinkUp(l)));
            }
        }
        for d in &self.degrades {
            assert!(d.from < d.until, "empty degrade window on {:?}", d.link);
            out.push((d.from, FaultOp::Degrade(d.link, d.drop_prob, d.corrupt_prob)));
            out.push((d.until, FaultOp::ClearDegrade(d.link, d.drop_prob, d.corrupt_prob)));
        }
        out.sort_by_key(|&(t, _)| t);
        out
    }
}

/// Read-only index of a campaign's *scheduled* down windows, shared with
/// every NIC (behind an `Arc`) for failover route planning.
///
/// The oracle models the §3.2 assumption that hot-swap is *announced*:
/// the operator scheduled the swap, so senders may consult the plan. A
/// link is reported down for `from <= t < until` of any merged window.
/// Administrative (unscheduled) downs are invisible here by design.
#[derive(Clone, Debug)]
pub struct RouteOracle {
    topo: Topology,
    /// Disjoint, sorted down windows per link.
    windows: FxHashMap<LinkId, Vec<(SimTime, SimTime)>>,
    /// The last scheduled transition instant (`SimTime::ZERO` if none).
    last_transition: SimTime,
}

impl RouteOracle {
    /// Build the oracle for `spec` lowered against `topo`.
    pub fn new(topo: Topology, spec: &FaultScheduleSpec) -> Self {
        let mut raw: FxHashMap<LinkId, Vec<(SimTime, SimTime)>> = FxHashMap::default();
        let last = spec.compile(&topo).last().map_or(SimTime::ZERO, |&(t, _)| t);
        for f in &spec.flaps {
            raw.entry(f.link).or_default().push((f.from, f.until));
        }
        let mut links = Vec::new();
        for sf in &spec.switch_failures {
            links.clear();
            topo.switch_links(sf.switch, &mut links);
            for &l in &links {
                raw.entry(l).or_default().push((sf.from, sf.until));
            }
        }
        let windows = raw
            .into_iter()
            .map(|(l, mut ws)| {
                ws.sort();
                let mut merged: Vec<(SimTime, SimTime)> = Vec::with_capacity(ws.len());
                for (from, until) in ws {
                    match merged.last_mut() {
                        Some(prev) if from <= prev.1 => prev.1 = prev.1.max(until),
                        _ => merged.push((from, until)),
                    }
                }
                (l, merged)
            })
            .collect();
        RouteOracle { topo, windows, last_transition: last }
    }

    /// Whether the campaign schedules any down windows at all (if not,
    /// failover never triggers and the oracle is pure overhead).
    pub fn has_windows(&self) -> bool {
        !self.windows.is_empty()
    }

    /// The last scheduled transition instant (`SimTime::ZERO` if the
    /// campaign is empty) — the fault horizon for recovery deadlines.
    pub fn last_transition(&self) -> SimTime {
        self.last_transition
    }

    /// Whether host `h` is scheduled "down" at `at` — its transmit link is
    /// inside a down window, so nothing it sends can leave. This is the
    /// control plane's host-failure verdict: purely schedule-derived, hence
    /// identical on every replicated copy of the coordinator state.
    pub fn host_down(&self, h: HostId, at: SimTime) -> bool {
        self.is_down(self.topo.host_up_link(h), at)
    }

    /// Whether `l` is inside a scheduled down window at `at`.
    pub fn is_down(&self, l: LinkId, at: SimTime) -> bool {
        let Some(ws) = self.windows.get(&l) else { return false };
        let i = ws.partition_point(|&(from, _)| from <= at);
        i > 0 && at < ws[i - 1].1
    }

    /// Whether any link on `route` is scheduled down at `at`.
    pub fn route_down(&self, route: &[LinkId], at: SimTime) -> bool {
        route.iter().any(|&l| self.is_down(l, at))
    }

    /// Plan the `src → dst` route on `channel` into `buf` (cleared first)
    /// and report whether every link on it is up at `at`.
    pub fn route_up(
        &self,
        src: HostId,
        dst: HostId,
        channel: u8,
        at: SimTime,
        buf: &mut Vec<LinkId>,
    ) -> bool {
        buf.clear();
        self.topo.route(src, dst, channel, buf);
        !self.route_down(buf, at)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::TopologySpec;

    fn at_ms(ms: u64) -> SimTime {
        SimTime::ZERO + vnet_sim::SimDuration::from_millis(ms)
    }

    #[test]
    fn compile_orders_transitions_stably() {
        let topo = Topology::build(TopologySpec::Crossbar { hosts: 2 });
        let spec = FaultScheduleSpec::none()
            .flap(LinkId(1), at_ms(10), at_ms(20))
            .flap(LinkId(0), at_ms(10), at_ms(15))
            .degrade(LinkId(2), at_ms(5), at_ms(10), 0.5, 0.0);
        let ops = spec.compile(&topo);
        let times: Vec<u64> = ops.iter().map(|(t, _)| t.as_nanos() / 1_000_000).collect();
        assert_eq!(times, vec![5, 10, 10, 10, 15, 20]);
        // Stable: at t=10 the two flap downs come in spec order, then the
        // degrade clear.
        assert_eq!(ops[1].1, FaultOp::LinkDown(LinkId(1)));
        assert_eq!(ops[2].1, FaultOp::LinkDown(LinkId(0)));
        assert_eq!(ops[3].1, FaultOp::ClearDegrade(LinkId(2), 0.5, 0.0));
    }

    #[test]
    fn switch_failure_downs_every_attached_link() {
        let topo = Topology::build(TopologySpec::FatTree { leaves: 2, hosts_per_leaf: 2, spines: 2 });
        let spec = FaultScheduleSpec::none().fail_switch(2, at_ms(1), at_ms(2)); // spine 0
        let ops = spec.compile(&topo);
        let downs = ops.iter().filter(|(_, op)| matches!(op, FaultOp::LinkDown(_))).count();
        // Spine 0 touches 2 leaves × (up + down) = 4 links.
        assert_eq!(downs, 4);
        let ups = ops.iter().filter(|(_, op)| matches!(op, FaultOp::LinkUp(_))).count();
        assert_eq!(ups, 4);
    }

    #[test]
    fn oracle_windows_merge_and_answer_point_queries() {
        let topo = Topology::build(TopologySpec::Crossbar { hosts: 2 });
        let spec = FaultScheduleSpec::none()
            .flap(LinkId(0), at_ms(10), at_ms(20))
            .flap(LinkId(0), at_ms(15), at_ms(30))
            .flap(LinkId(0), at_ms(50), at_ms(60));
        let o = RouteOracle::new(topo, &spec);
        assert!(!o.is_down(LinkId(0), at_ms(9)));
        assert!(o.is_down(LinkId(0), at_ms(10)));
        assert!(o.is_down(LinkId(0), at_ms(25)), "merged with overlapping window");
        assert!(!o.is_down(LinkId(0), at_ms(30)), "up at the exclusive end");
        assert!(o.is_down(LinkId(0), at_ms(55)));
        assert!(!o.is_down(LinkId(0), at_ms(60)));
        assert!(!o.is_down(LinkId(1), at_ms(15)));
        assert_eq!(o.last_transition(), at_ms(60));
    }

    #[test]
    fn oracle_plans_around_a_downed_spine() {
        let topo = Topology::build(TopologySpec::FatTree { leaves: 2, hosts_per_leaf: 2, spines: 2 });
        // Spine 0 down from 1..2ms. Channel 0 from host 0 to host 2 uses
        // spine (leaf 1 + 0) % 2 = 1; channel 1 uses spine 0.
        let spec = FaultScheduleSpec::none().fail_switch(2, at_ms(1), at_ms(2));
        let o = RouteOracle::new(topo, &spec);
        let mut buf = Vec::new();
        let up0 = o.route_up(HostId(0), HostId(2), 0, at_ms(1), &mut buf);
        let up1 = o.route_up(HostId(0), HostId(2), 1, at_ms(1), &mut buf);
        assert!(up0, "channel 0 avoids the failed spine");
        assert!(!up1, "channel 1 routes through the failed spine");
        assert!(o.route_up(HostId(0), HostId(2), 1, at_ms(2), &mut buf), "back up after");
    }

    #[test]
    fn degrades_do_not_appear_in_the_oracle() {
        let topo = Topology::build(TopologySpec::Crossbar { hosts: 2 });
        let spec = FaultScheduleSpec::none().degrade(LinkId(0), at_ms(1), at_ms(9), 0.9, 0.0);
        let o = RouteOracle::new(topo, &spec);
        assert!(!o.has_windows(), "degraded links are up links — no failover");
        assert_eq!(o.last_transition(), at_ms(9), "but they still bound the fault horizon");
    }
}
