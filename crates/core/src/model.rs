//! Per-node fidelity: the abstract host and NIC models, the fidelity
//! map that selects them, and the open-loop traffic samplers.
//!
//! The paper's value is its per-protocol detail — the NI firmware loop,
//! the §4 residency machine, the §5.1 stop-and-wait channels — but a
//! fleet-scale run (thousands of hosts under background traffic) cannot
//! afford that detail at every node. The world therefore holds, per
//! host, one of two concrete models in a `world::HostSlot`:
//!
//! * full — `world::FullHost`: OS, user library, thread scheduler, cost
//!   model, and the [`vnet_nic::Nic`] firmware (CRC check, protection,
//!   NACK/retransmit);
//! * abstract — [`AbstractHost`], a LogP source/sink that charges
//!   `o_s`/`o_r` CPU overheads on top of an [`AbstractNic`], a counter
//!   that accepts every frame.
//!
//! The fabric has a fidelity too: [`FidelityMap::fabric`] picks between
//! [`vnet_net::Fabric::new`] (per-link bandwidth arbitration) and
//! [`vnet_net::Fabric::delay_only`] (route latency only). Both are the one
//! `vnet_net::Fabric` type; the slots are plain enums matched at each call,
//! with no trait layer between the world and the models.
//!
//! Fidelity is chosen **per node** through [`FidelityMap`], set with
//! [`crate::ClusterConfig::with_fidelity`] or the builder's `fidelity(..)`
//! / `default_fidelity(..)` / `fabric_fidelity(..)`; the default is Full
//! everywhere. Mixing is sound because the classes couple only through
//! the shared fabric: abstract traffic reserves links (under the full
//! fabric) exactly like real frames, so full-fidelity hosts feel its
//! contention, while abstract hosts never participate in endpoint
//! protocols. Endpoints, threads, and residency exist only on full hosts;
//! abstract hosts are driven by [`crate::Cluster::drive_abstract`] and
//! report coarse [`AbsStats`] counters (`host{N}.abs.*`).
//!
//! Determinism is preserved across fidelity choices: abstract hosts draw
//! from the same per-host derived RNG streams, inject through the same
//! two-phase `(time, source, sequence)`-keyed ingress protocol, and the
//! delay-only fabric keeps the full fabric's per-hop latencies, so the
//! parallel executor's lookahead bound and epoch protocol apply
//! unchanged. `tests/parallel_differential.rs` pins every fidelity mix
//! byte-identical between the sequential and sharded executors.

use crate::world::{Event, HostEnv};
use std::collections::BTreeMap;
use vnet_net::{HostId, Packet};
use vnet_nic::{EpId, Frame, FrameKind, FramePool, GlobalEp, ProtectionKey, UserMsg};
use vnet_sim::stats::LogHistogram;
use vnet_sim::telemetry::{MetricSet, MetricValue, MetricVisitor, MetricsSnapshot};
use vnet_sim::{Ctx, SimDuration, SimRng, SimTime};

// ===================================================================
// Fidelity selection
// ===================================================================

/// How much of the paper's machinery a node (or the fabric) simulates.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Fidelity {
    /// The complete model: NI firmware, residency, stop-and-wait
    /// channels, credits, threads, auditor hooks.
    Full,
    /// The fast model: LogP overheads and route latency only.
    Abstract,
}

/// Per-node fidelity assignment plus the fabric's own fidelity.
///
/// Defaults to Full everywhere. Host overrides are sparse; unlisted
/// hosts take `default_host`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FidelityMap {
    default_host: Fidelity,
    overrides: BTreeMap<u32, Fidelity>,
    fabric: Fidelity,
}

impl Default for FidelityMap {
    fn default() -> Self {
        Self::full()
    }
}

impl FidelityMap {
    /// Full fidelity everywhere (the historical behavior).
    pub fn full() -> Self {
        FidelityMap {
            default_host: Fidelity::Full,
            overrides: BTreeMap::new(),
            fabric: Fidelity::Full,
        }
    }

    /// The fidelity of host `h`.
    pub fn of(&self, h: u32) -> Fidelity {
        self.overrides.get(&h).copied().unwrap_or(self.default_host)
    }

    /// The fabric's fidelity ([`Fidelity::Abstract`] selects the
    /// delay-only fabric, [`vnet_net::Fabric::delay_only`]).
    pub fn fabric(&self) -> Fidelity {
        self.fabric
    }

    /// Set the fabric fidelity.
    pub fn set_fabric(&mut self, f: Fidelity) {
        self.fabric = f;
    }

    /// The fidelity unlisted hosts take.
    pub fn default_host(&self) -> Fidelity {
        self.default_host
    }

    /// Set the fidelity unlisted hosts take (and clear nothing).
    pub fn set_default_host(&mut self, f: Fidelity) {
        self.default_host = f;
    }

    /// Assign fidelity `f` to each listed host.
    pub fn set_hosts(&mut self, hosts: impl IntoIterator<Item = u32>, f: Fidelity) {
        for h in hosts {
            self.overrides.insert(h, f);
        }
    }

    /// Whether any of hosts `0..n` (or the fabric) is abstract.
    pub fn any_abstract(&self, n: u32) -> bool {
        self.fabric == Fidelity::Abstract
            || self.default_host == Fidelity::Abstract
            || (0..n).any(|h| self.of(h) == Fidelity::Abstract)
    }
}

/// Coarse counters an abstract node reports in place of the full
/// NIC/OS stats (snapshot prefix `host{N}.abs.*`).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct AbsStats {
    /// Messages injected into the fabric.
    pub sent: u64,
    /// Payload bytes injected.
    pub sent_bytes: u64,
    /// Messages received intact.
    pub recvd: u64,
    /// Payload bytes received intact.
    pub recv_bytes: u64,
    /// Frames discarded on arrival for in-flight corruption.
    pub corrupt_drops: u64,
}

impl MetricSet for AbsStats {
    fn visit_metrics(&self, v: &mut dyn MetricVisitor) {
        v.metric("sent", MetricValue::Counter(self.sent));
        v.metric("sent_bytes", MetricValue::Counter(self.sent_bytes));
        v.metric("recvd", MetricValue::Counter(self.recvd));
        v.metric("recv_bytes", MetricValue::Counter(self.recv_bytes));
        v.metric("corrupt_drops", MetricValue::Counter(self.corrupt_drops));
    }
}

/// The abstract NIC: a frame source/sink with counters. No protection
/// check, no sequencing, no acknowledgments — the §5.1 reliability
/// machinery is exactly what this model drops, so frames lost or
/// corrupted in the fabric stay lost (visible in [`AbsStats`]).
pub struct AbstractNic {
    host: HostId,
    seq: u64,
    /// Recycles delivered message boxes into the next send, so a
    /// steady-state abstract host allocates O(in-flight) boxes, not
    /// O(messages). Per-host state: moves wholesale across shard
    /// splits, invisible to determinism.
    pool: FramePool,
    /// Traffic counters.
    pub stats: AbsStats,
}

/// `UserMsg::handler` value marking an open-loop request whose
/// `args[0]` carries the arrival timestamp (ns) at the source.
pub const OPEN_LOOP_HANDLER: u16 = 1;

/// Free message boxes an abstract NIC retains for reuse. Bounds pool
/// memory at ~96 B × 64 per host while covering any realistic
/// in-flight window on the abstract path.
const FRAME_POOL_CAP: usize = 64;

impl AbstractNic {
    /// A fresh abstract NIC on `host`.
    pub fn new(host: HostId) -> Self {
        AbstractNic {
            host,
            seq: 0,
            pool: FramePool::with_capacity(FRAME_POOL_CAP),
            stats: AbsStats::default(),
        }
    }

    /// Forge a wire frame carrying `bytes` of payload to `dst`, counting
    /// it as sent. The frame is well-formed (the fabric charges its real
    /// wire size; the channel spreads over multipath) but addressed to
    /// endpoint 0 with the open key — only another abstract NIC may
    /// receive it.
    pub fn make_packet(&mut self, now: SimTime, dst: HostId, bytes: u32) -> Packet<Frame> {
        let uid = self.seq + 1;
        let msg = UserMsg {
            uid,
            is_request: false,
            handler: 0,
            args: [0; 4],
            payload_bytes: bytes,
            src_ep: GlobalEp::new(self.host, EpId(0)),
            reply_key: ProtectionKey::OPEN,
            corr: 0,
        };
        self.forge(now, dst, msg)
    }

    /// Forge an open-loop request frame: like [`Self::make_packet`] but
    /// tagged [`OPEN_LOOP_HANDLER`] with the request's arrival instant
    /// (`stamp_ns`, at the *source*) in `args[0]`, so the receiving
    /// abstract host can record end-to-end request latency including
    /// source CPU queueing.
    pub fn make_request(
        &mut self,
        now: SimTime,
        dst: HostId,
        bytes: u32,
        stamp_ns: u64,
    ) -> Packet<Frame> {
        let uid = self.seq + 1;
        let msg = UserMsg {
            uid,
            is_request: true,
            handler: OPEN_LOOP_HANDLER,
            args: [stamp_ns, 0, 0, 0],
            payload_bytes: bytes,
            src_ep: GlobalEp::new(self.host, EpId(0)),
            reply_key: ProtectionKey::OPEN,
            corr: 0,
        };
        self.forge(now, dst, msg)
    }

    fn forge(&mut self, now: SimTime, dst: HostId, msg: UserMsg) -> Packet<Frame> {
        self.seq += 1;
        self.stats.sent += 1;
        self.stats.sent_bytes += msg.payload_bytes as u64;
        let wire = msg.wire_bytes();
        let frame = Frame {
            kind: FrameKind::Data(self.pool.alloc(msg)),
            dst_ep: EpId(0),
            key: ProtectionKey::OPEN,
            chan: (self.seq & 3) as u8,
            seq: self.seq,
            ack_uid: 0,
            timestamp: (now.as_nanos() / 1_000) as u32,
        };
        Packet { src: self.host, dst, channel: frame.chan, bytes: wire, payload: frame }
    }
}

impl AbstractNic {
    /// A frame's tail arrived (possibly corrupt in flight): count it and
    /// recycle its message box. Nothing is acknowledged or retransmitted.
    pub fn deliver(&mut self, frame: Frame, corrupt: bool) {
        if !corrupt {
            self.stats.recvd += 1;
            if let FrameKind::Data(m) = &frame.kind {
                self.stats.recv_bytes += m.payload_bytes as u64;
            }
        } else {
            self.stats.corrupt_drops += 1;
        }
        // Either way the box is consumed here; offer it for reuse.
        if let FrameKind::Data(m) = frame.kind {
            self.pool.recycle(m);
        }
    }
}

// ===================================================================
// Open-loop client-population sampling
// ===================================================================

/// Zipf(s) rank over `{1..=n}` by inverse CDF of the continuous
/// bounded-Pareto approximation: `P(K ≤ k) ≈ (k^{1-s} − 1)/(n^{1-s} − 1)`
/// (and `ln k / ln n` at `s = 1`). Exact enough for popularity skew at
/// fleet scale without per-rank tables, O(1) per draw, and monotone in
/// `u` so fixed seeds pin fixed ranks.
pub fn zipf_rank(u: f64, n: u64, s: f64) -> u64 {
    let n_f = n as f64;
    let u = u.clamp(0.0, 1.0 - 1e-12);
    let k = if (s - 1.0).abs() < 1e-9 {
        n_f.powf(u)
    } else {
        let t = 1.0 - n_f.powf(1.0 - s);
        (1.0 - u * t).powf(1.0 / (1.0 - s))
    };
    (k.floor() as u64).clamp(1, n)
}

/// Bounded Pareto(α) sample in `[min, max]` by inverse CDF:
/// `x = min / (1 − u(1 − (min/max)^α))^{1/α}`. Heavy-tailed request
/// sizes with a hard cap, per the fleet workload model.
pub fn bounded_pareto(u: f64, min: f64, max: f64, alpha: f64) -> f64 {
    let u = u.clamp(0.0, 1.0 - 1e-12);
    if min >= max {
        return min;
    }
    let r = (min / max).powf(alpha);
    min / (1.0 - u * (1.0 - r)).powf(1.0 / alpha)
}

/// An open-loop client population multiplexed onto one serving host
/// (see [`crate::Cluster::drive_open_loop`]).
///
/// Millions of clients are not simulated as objects: by Poisson
/// superposition their aggregate offered load is a small number of
/// exponential arrival `streams`, each carrying only an RNG and a
/// next-arrival event on the wheel. Arrivals are *open-loop* — the next
/// arrival is scheduled from wall-clock, never gated on the host CPU —
/// so overload shows up as queueing latency, not reduced offered load.
#[derive(Clone, Debug)]
pub struct OpenLoopSpec {
    /// Independent Poisson arrival streams on this host (≥ 1). More
    /// streams smooth the superposed process; each costs one wheel
    /// event, not one client.
    pub streams: u32,
    /// Mean inter-arrival gap of the *aggregate* host load (each stream
    /// runs at `mean_gap × streams`).
    pub mean_gap: SimDuration,
    /// Total requests this host emits before going quiet.
    pub requests: u64,
    /// Zipf skew for target popularity (1.0 ≈ classic Zipf).
    pub zipf_s: f64,
    /// Size of the target id space `[0, targets)`; ranks rotate around
    /// the source so no host targets itself.
    pub targets: u32,
    /// Smallest request payload, bytes.
    pub size_min: u32,
    /// Largest request payload, bytes (hard cap of the Pareto tail).
    pub size_max: u32,
    /// Pareto tail index for request sizes (smaller ⇒ heavier tail).
    pub size_alpha: f64,
}

/// Live state of a driven open-loop population: the spec, one derived
/// RNG per stream, and the global remaining-request budget.
#[derive(Debug)]
struct OpenLoop {
    spec: OpenLoopSpec,
    streams: Vec<SimRng>,
    remaining: u64,
}

// ===================================================================
// AbstractHost
// ===================================================================

/// Internal events of an abstract host (carried by `Event::Abs`).
#[derive(Clone, Copy, Debug)]
pub enum AbsEvent {
    /// Decide the next message of the driven traffic pattern.
    Tick,
    /// A decided message reaches the wire (after its `o_s` overhead).
    Send {
        /// Destination host.
        dst: HostId,
        /// Payload bytes.
        bytes: u32,
    },
    /// An open-loop client request arrives at its serving host (one
    /// Poisson stream fires). Draws target/size, charges `o_s`, and
    /// self-reschedules — never gated on the CPU.
    Arrive {
        /// Which arrival stream fired.
        stream: u32,
    },
    /// A decided open-loop request reaches the wire (after `o_s`),
    /// carrying its arrival instant for latency accounting.
    Req {
        /// Destination host.
        dst: HostId,
        /// Payload bytes.
        bytes: u32,
        /// Arrival instant at the source (start of the latency clock).
        stamp: SimTime,
    },
}

/// A synthetic traffic pattern driven on an abstract host (see
/// [`crate::Cluster::drive_abstract`]): `count` messages of
/// `payload_bytes` each, to peers drawn uniformly from `peers`, with
/// uniformly jittered gaps averaging `mean_gap`.
#[derive(Clone, Debug)]
pub struct AbstractTraffic {
    /// Destination hosts (drawn uniformly per message). Every peer must
    /// itself be abstract.
    pub peers: Vec<HostId>,
    /// Payload bytes per message.
    pub payload_bytes: u32,
    /// Mean inter-message gap (jittered uniformly in `[g/2, 3g/2)`).
    pub mean_gap: SimDuration,
    /// Messages remaining to send.
    pub count: u64,
}

/// The abstract host: a LogP traffic source/sink. Sends charge the
/// cost model's `o_s` (`host_send`) on a single serial CPU before the
/// message reaches the wire; receives charge `o_r` (`host_recv`). No
/// endpoints, threads, residency, credits, or reliability — see
/// DESIGN.md §13 for exactly what is dropped relative to the paper.
pub struct AbstractHost {
    nic: AbstractNic,
    rng: SimRng,
    /// The serial CPU: sends and receives occupy it back-to-back, so a
    /// saturated abstract host is overhead-limited like a real LogP node.
    cpu_free_at: SimTime,
    traffic: Option<AbstractTraffic>,
    /// Boxed: most abstract hosts in a fleet sink traffic and never
    /// source an open-loop population, so the common case pays one
    /// pointer, not the full spec + stream vector.
    open_loop: Option<Box<OpenLoop>>,
    /// Request latencies observed *as a server* (recorded when an
    /// [`OPEN_LOOP_HANDLER`] request clears this host's `o_r`). Boxed
    /// and lazy: 536 B per histogram matters × 16k hosts.
    req_lat: Option<Box<LogHistogram>>,
}

impl AbstractHost {
    /// A fresh abstract host for global host id `host`, drawing jitter
    /// and peer choices from `rng` (the host's derived stream).
    pub(crate) fn new(host: HostId, rng: SimRng) -> Self {
        AbstractHost {
            nic: AbstractNic::new(host),
            rng,
            cpu_free_at: SimTime::ZERO,
            traffic: None,
            open_loop: None,
            req_lat: None,
        }
    }

    /// Install (replacing any previous) driven traffic. The first
    /// [`AbsEvent::Tick`] must be scheduled by the caller.
    pub(crate) fn set_traffic(&mut self, t: AbstractTraffic) {
        self.traffic = Some(t);
    }

    /// Install (replacing any previous) an open-loop client population.
    /// Returns the initial exponential delay of each stream; the caller
    /// schedules stream `i`'s first [`AbsEvent::Arrive`] at `delays[i]`.
    pub(crate) fn start_open_loop(&mut self, spec: OpenLoopSpec) -> Vec<SimDuration> {
        assert!(spec.targets >= 2, "open-loop traffic needs at least two hosts");
        assert!(spec.streams >= 1, "open-loop traffic needs at least one stream");
        let per_stream_gap = spec.mean_gap.as_nanos().max(1) as f64 * spec.streams as f64;
        let mut streams = Vec::with_capacity(spec.streams as usize);
        let mut delays = Vec::with_capacity(spec.streams as usize);
        for i in 0..spec.streams {
            // Derived, not shared: stream RNGs must not depend on how
            // many draws the host's base stream has made.
            let mut r = self.rng.derive(0x09E7_0000 + i as u64);
            let d = r.expovariate(per_stream_gap).max(1.0) as u64;
            delays.push(SimDuration::from_nanos(d));
            streams.push(r);
        }
        let remaining = spec.requests;
        self.open_loop = Some(Box::new(OpenLoop { spec, streams, remaining }));
        delays
    }

    /// Traffic counters.
    pub fn stats(&self) -> &AbsStats {
        &self.nic.stats
    }

    /// Latencies of open-loop requests served *by* this host, if any
    /// arrived (arrival instant at the source → `o_r` cleared here).
    pub fn request_latency(&self) -> Option<&LogHistogram> {
        self.req_lat.as_deref()
    }

    /// Open-loop requests this host has yet to emit.
    pub fn open_loop_remaining(&self) -> u64 {
        self.open_loop.as_ref().map_or(0, |ol| ol.remaining)
    }

    /// Handle an event addressed to global host `gh`.
    pub(crate) fn on_event(
        &mut self,
        gh: u32,
        ev: Event,
        env: &mut HostEnv<'_>,
        ctx: &mut Ctx<'_, Event>,
    ) {
        match ev {
            Event::Abs { ev: AbsEvent::Tick, .. } => {
                let Some(t) = &mut self.traffic else { return };
                if t.count == 0 {
                    return;
                }
                t.count -= 1;
                let dst = t.peers[self.rng.index(t.peers.len())];
                let bytes = t.payload_bytes;
                let now = ctx.now();
                // The send occupies the serial CPU for o_s before the
                // message reaches the wire.
                let start = now.max(self.cpu_free_at);
                let on_wire = start + env.cfg.cost.host_send;
                self.cpu_free_at = on_wire;
                ctx.schedule(on_wire - now, Event::Abs {
                    host: gh,
                    ev: AbsEvent::Send { dst, bytes },
                });
                if t.count > 0 {
                    let g = t.mean_gap.as_nanos().max(2);
                    let gap = g / 2 + self.rng.below(g);
                    ctx.schedule(SimDuration::from_nanos(gap), Event::Abs {
                        host: gh,
                        ev: AbsEvent::Tick,
                    });
                }
            }
            Event::Abs { ev: AbsEvent::Send { dst, bytes }, .. } => {
                let pkt = self.nic.make_packet(ctx.now(), dst, bytes);
                env.inject(ctx.now(), pkt, ctx);
            }
            Event::Abs { ev: AbsEvent::Arrive { stream }, .. } => {
                let Some(ol) = self.open_loop.as_deref_mut() else { return };
                if ol.remaining == 0 {
                    return;
                }
                ol.remaining -= 1;
                let now = ctx.now();
                let spec = &ol.spec;
                let rng = &mut ol.streams[stream as usize];
                // Zipf-popular target, ranks rotated around the source
                // so rank 1 is the next host and nothing targets itself.
                let rank = zipf_rank(rng.unit(), (spec.targets - 1) as u64, spec.zipf_s);
                let dst = HostId(((gh as u64 + rank) % spec.targets as u64) as u32);
                let bytes = bounded_pareto(
                    rng.unit(),
                    spec.size_min as f64,
                    spec.size_max as f64,
                    spec.size_alpha,
                )
                .round() as u32;
                // The request queues on the serial CPU for o_s like any
                // send; its latency clock starts *now*, at arrival, so
                // source-side queueing is part of the measured latency.
                let start = now.max(self.cpu_free_at);
                let on_wire = start + env.cfg.cost.host_send;
                self.cpu_free_at = on_wire;
                ctx.schedule(on_wire - now, Event::Abs {
                    host: gh,
                    ev: AbsEvent::Req { dst, bytes, stamp: now },
                });
                if ol.remaining > 0 {
                    // Open loop: the next arrival comes from wall-clock
                    // regardless of how far behind the CPU is.
                    let per_stream_gap =
                        spec.mean_gap.as_nanos().max(1) as f64 * spec.streams as f64;
                    let gap = rng.expovariate(per_stream_gap).max(1.0) as u64;
                    ctx.schedule(SimDuration::from_nanos(gap), Event::Abs {
                        host: gh,
                        ev: AbsEvent::Arrive { stream },
                    });
                }
            }
            Event::Abs { ev: AbsEvent::Req { dst, bytes, stamp }, .. } => {
                let pkt = self.nic.make_request(ctx.now(), dst, bytes, stamp.as_nanos());
                env.inject(ctx.now(), pkt, ctx);
            }
            Event::Deliver { frame, corrupt, .. } => {
                let now = ctx.now();
                // Pull the latency stamp before the frame is consumed.
                let stamp = match &frame.kind {
                    FrameKind::Data(m)
                        if !corrupt && m.is_request && m.handler == OPEN_LOOP_HANDLER =>
                    {
                        Some(m.args[0])
                    }
                    _ => None,
                };
                self.nic.deliver(frame, corrupt);
                // Receive overhead o_r occupies the serial CPU, delaying
                // subsequent sends.
                self.cpu_free_at = now.max(self.cpu_free_at) + env.cfg.cost.host_recv;
                if let Some(stamp) = stamp {
                    // Served when o_r clears: arrival → CPU done here.
                    let lat = self.cpu_free_at.as_nanos().saturating_sub(stamp);
                    self.req_lat.get_or_insert_with(Default::default).record(lat);
                }
            }
            other => panic!(
                "full-fidelity event {other:?} routed to abstract host {gh}; \
                 endpoints and threads exist only on Fidelity::Full hosts"
            ),
        }
    }

    /// Report this host's counters into a snapshot (`host{h}.abs.*`).
    pub(crate) fn record_metrics(&self, h: usize, out: &mut MetricsSnapshot) {
        out.record_set(&format!("host{h}.abs"), &self.nic.stats);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fidelity_map_defaults_full() {
        let m = FidelityMap::full();
        assert_eq!(m.of(0), Fidelity::Full);
        assert_eq!(m.of(999), Fidelity::Full);
        assert_eq!(m.fabric(), Fidelity::Full);
        assert!(!m.any_abstract(100));
    }

    #[test]
    fn fidelity_map_overrides() {
        let mut m = FidelityMap::full();
        m.set_hosts(4..8, Fidelity::Abstract);
        assert_eq!(m.of(3), Fidelity::Full);
        assert_eq!(m.of(4), Fidelity::Abstract);
        assert_eq!(m.of(7), Fidelity::Abstract);
        assert_eq!(m.of(8), Fidelity::Full);
        assert!(m.any_abstract(16));
    }

    #[test]
    fn abstract_nic_counts() {
        let mut nic = AbstractNic::new(HostId(3));
        let pkt = nic.make_packet(SimTime::ZERO, HostId(1), 256);
        assert_eq!(pkt.src, HostId(3));
        assert_eq!(pkt.dst, HostId(1));
        assert_eq!(pkt.bytes, 48 + 256);
        assert_eq!(nic.stats.sent, 1);
        assert_eq!(nic.stats.sent_bytes, 256);

        let mut rx = AbstractNic::new(HostId(1));
        rx.deliver(pkt.payload.clone(), false);
        assert_eq!(rx.stats.recvd, 1);
        assert_eq!(rx.stats.recv_bytes, 256);
        rx.deliver(pkt.payload, true);
        assert_eq!(rx.stats.corrupt_drops, 1);
        assert_eq!(rx.stats.recvd, 1, "corrupt frames are not received");
    }

    #[test]
    fn zipf_rank_golden_values() {
        // Fixed (u, n, s) → fixed ranks: pins the inverse CDF so a seed
        // reproduces the same target sequence forever.
        assert_eq!(zipf_rank(0.0, 1000, 1.0), 1);
        assert_eq!(zipf_rank(0.25, 1000, 1.0), 5);
        assert_eq!(zipf_rank(0.5, 1000, 1.0), 31);
        assert_eq!(zipf_rank(0.75, 1000, 1.0), 177);
        assert_eq!(zipf_rank(0.999999, 1000, 1.0), 999);
        assert_eq!(zipf_rank(0.5, 1000, 1.5), 3);
        assert_eq!(zipf_rank(0.5, 1000, 0.8), 95);
        // Degenerate and clamped inputs stay in range.
        assert_eq!(zipf_rank(1.5, 1000, 1.0), 999);
        assert_eq!(zipf_rank(-0.5, 1000, 1.0), 1);
        assert_eq!(zipf_rank(0.7, 1, 1.2), 1);
    }

    #[test]
    fn zipf_rank_mass_concentration() {
        // Under the continuous s=1 approximation, P(K ≤ k) = ln k / ln n.
        // Check empirical head mass against that within ±2%.
        let n = 100_000u64;
        let mut rng = SimRng::seed_from_u64(42);
        let draws = 200_000;
        let mut head = 0u64;
        for _ in 0..draws {
            if zipf_rank(rng.unit(), n, 1.0) <= 10 {
                head += 1;
            }
        }
        let expect = (10f64).ln() / (n as f64).ln();
        let got = head as f64 / draws as f64;
        assert!(
            (got - expect).abs() < 0.02,
            "P(K<=10) = {got:.4}, expected ≈ {expect:.4}"
        );
    }

    #[test]
    fn bounded_pareto_moments_and_tail() {
        let (lo, hi, alpha) = (64.0f64, 65536.0f64, 1.3f64);
        // Analytic mean of the bounded Pareto.
        let expect = (lo.powf(alpha) / (1.0 - (lo / hi).powf(alpha))) * (alpha / (alpha - 1.0))
            * (lo.powf(1.0 - alpha) - hi.powf(1.0 - alpha));
        let mut rng = SimRng::seed_from_u64(7);
        let draws = 200_000;
        let mut sum = 0.0;
        let mut over_4k = 0u64;
        for _ in 0..draws {
            let x = bounded_pareto(rng.unit(), lo, hi, alpha);
            assert!((lo..=hi).contains(&x), "sample {x} out of [{lo}, {hi}]");
            sum += x;
            if x > 4096.0 {
                over_4k += 1;
            }
        }
        let mean = sum / draws as f64;
        assert!(
            (mean - expect).abs() / expect < 0.02,
            "mean {mean:.1}, expected {expect:.1}"
        );
        // Heavy tail: P(X > 4096) ≈ (lo/4096)^α / (1 − (lo/hi)^α).
        let tail = (lo / 4096.0).powf(alpha) / (1.0 - (lo / hi).powf(alpha));
        let got = over_4k as f64 / draws as f64;
        assert!(
            (got - tail).abs() < 0.002,
            "P(X>4096) = {got:.4}, expected ≈ {tail:.4}"
        );
        // Degenerate bounds collapse to the floor.
        assert_eq!(bounded_pareto(0.9, 128.0, 128.0, 2.0), 128.0);
    }

    #[test]
    fn frame_pool_recycles_on_abstract_path() {
        let mut tx = AbstractNic::new(HostId(0));
        let mut rx = AbstractNic::new(HostId(1));
        for i in 0..100 {
            let pkt = tx.make_packet(SimTime::ZERO, HostId(1), 64 + i);
            rx.deliver(pkt.payload, false);
        }
        assert_eq!(rx.stats.recvd, 100);
        assert!(rx.pool.held() >= 1, "delivered boxes return to the receiver pool");
        // The receiver's next sends reuse those boxes.
        let before = rx.pool.recycled();
        let _ = rx.make_packet(SimTime::ZERO, HostId(0), 32);
        assert_eq!(rx.pool.recycled(), before + 1);
    }
}
