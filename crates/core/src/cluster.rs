//! The `Cluster` facade: build a simulated cluster, create endpoints and
//! virtual networks, spawn application threads, and run.

use crate::builder::ClusterBuilder;
use crate::config::ClusterConfig;
use crate::control::{ControlPlane, ControlSpec, CtlOp, MigState, QuotaError};
use crate::model::{AbsEvent, AbsStats, AbstractTraffic, Fidelity, OpenLoopSpec};
use crate::names::NameService;
use crate::observe::ClusterTelemetry;
use crate::sys::ThreadBody;
use crate::user::EpQuota;
use crate::world::{ctl_key, EmitTimes, Event, HostSlot, World};
use std::cell::Cell;
use vnet_net::{FaultOp, HostId, Packet, Partition, Phase1};
use vnet_nic::{EpId, Frame, GlobalEp, Nic, NicOut, ProtectionKey};
use vnet_os::{OsOut, Scheduler, SegmentDriver, Tid};
use vnet_sim::stats::LogHistogram;
use vnet_sim::{
    run_conservative, AuditHandle, Engine, PairLookahead, ParShard, SendCell, ShardEpochs,
    SimDuration, SimTime, INGRESS_KEY_BIT,
};

/// Parallel-execution state, present when the configuration asks for more
/// than one shard: the stable host partition, the per-shard-pair lookahead
/// derived from it (sliced by fault-campaign interval, with the NIC's
/// firmware delay as relay delay), plus one *persistent* engine per shard
/// and the times of the emitting events pending in it. Engines persist
/// across runs because events already in a shard's wheel may share `Rc`
/// state with that shard's hosts; the partition never changes, so each
/// host always returns to the engine holding its pending events.
struct Par {
    part: Partition,
    look: PairLookahead,
    engines: Vec<Engine<World>>,
    emits: Vec<EmitTimes>,
    /// Running epoch totals per shard.
    epochs: Vec<ShardEpochs>,
}

/// One worker shard while a parallel run is in flight: the shard's
/// persistent engine plus the world slice owning its hosts.
struct ShardRun {
    engine: Engine<World>,
    world: World,
    part: Partition,
}

impl ParShard for ShardRun {
    // A cross-shard packet: `(canonical ingress key, corrupt, packet)`.
    // Genuinely `Send`: the wire frame's payload is a frozen `Arc`, so
    // crossing the shard boundary moves a pointer, never a copy of the
    // message body.
    type Mail = (u64, bool, Packet<Frame>);

    fn run_until(&mut self, deadline: SimTime) -> u64 {
        self.engine.run_until(&mut self.world, deadline)
    }

    fn next_at_bound(&self) -> Option<SimTime> {
        self.engine.next_at_bound()
    }

    fn next_emit_at(&self) -> Option<SimTime> {
        self.world.emits.next()
    }

    fn set_output_bound(&mut self, bound: SimTime) {
        self.world.emits.floor = bound;
    }

    fn drain_outbox(&mut self, out: &mut Vec<(usize, SimTime, Self::Mail)>) {
        for (at, key, corrupt, pkt) in self.world.outbox.drain(..) {
            let dst = self.part.shard_of(pkt.dst.0) as usize;
            out.push((dst, at, (key, corrupt, pkt)));
        }
    }

    fn ingest(&mut self, at: SimTime, (key, corrupt, pkt): Self::Mail) {
        debug_assert!(
            at > self.engine.now(),
            "cross-shard mail at {}ns lands at or behind the receiver's horizon {}ns",
            at.as_nanos(),
            self.engine.now().as_nanos()
        );
        self.engine.schedule_keyed_at(at, key, Event::Ingress { host: pkt.dst.0, corrupt, pkt });
    }

    fn last_event_at(&self) -> Option<SimTime> {
        self.engine.last_event_at()
    }

    fn now(&self) -> SimTime {
        self.engine.now()
    }

    fn sync_now(&mut self, t: SimTime) {
        self.engine.sync_now(t);
    }
}

/// A complete simulated cluster: engine + composed world.
pub struct Cluster {
    engine: Engine<World>,
    world: World,
    par: Option<Par>,
    names: NameService,
    /// Run [`Cluster::audit`] automatically at every `run_for` /
    /// `run_until` / `settle` boundary in debug builds, panicking on the
    /// first violation (with a trace dump). On by default; mutation tests
    /// that *expect* violations turn it off through
    /// `cluster.telemetry().set_debug_audit(false)` and call
    /// [`Cluster::audit`] themselves. A `Cell` so the shared-borrow
    /// [`ClusterTelemetry`] facade can flip it.
    debug_audit: Cell<bool>,
    /// Last scheduled fault-campaign transition (`SimTime::ZERO` when no
    /// campaign is configured); see [`Cluster::check_recovery`].
    fault_horizon: SimTime,
    /// Largest `P` such that hosts `[0, P)` are all abstract, computed on
    /// first use. Caching it keeps [`Cluster::drive_open_loop`]'s
    /// target-space fidelity check O(hosts) total instead of O(hosts²)
    /// when a fleet drives a population on every host. Fidelity is fixed
    /// at build time, so the cache never invalidates.
    abs_prefix: Cell<Option<u32>>,
}

impl Cluster {
    /// Build a cluster from configuration.
    pub fn new(cfg: ClusterConfig) -> Self {
        let world = World::new(cfg);
        let topo = world.fabric.topology();
        let part = Partition::plan(topo, &world.cfg.net, world.cfg.shards);
        // Compile the fault campaign once; it both becomes engine events
        // and slices the per-pair lookahead into validity intervals (a
        // scheduled LinkUp can lower a pair's latency floor).
        let ops = if world.cfg.faults.is_empty() {
            Vec::new()
        } else {
            world.cfg.faults.compile(topo)
        };
        let par = (part.shards() > 1).then(|| {
            // Every frame leaves a full host through a firmware step, so
            // shards publish output bounds a firmware delay past their
            // next event (DESIGN §11); abstract hosts or zero-cost
            // firmware make that delay zero.
            let relay = world.relay_delay();
            let n = part.shards() as usize;
            Par {
                look: part.pair_lookahead(topo, &world.cfg.net, &ops).with_relay(relay),
                engines: (0..n).map(|_| Engine::new()).collect(),
                emits: (0..n).map(|_| EmitTimes::new(relay)).collect(),
                epochs: vec![ShardEpochs::default(); n],
                part,
            }
        });
        let mut c = Cluster {
            engine: Engine::new(),
            world,
            par,
            names: NameService::new(),
            debug_audit: Cell::new(true),
            fault_horizon: SimTime::ZERO,
            abs_prefix: Cell::new(None),
        };
        c.schedule_campaign(ops);
        c
    }

    /// Lower the configured fault campaign into engine events: every
    /// transition is scheduled once per `(transition, host)` at its exact
    /// simulated time, keyed above the ingress band so same-instant
    /// ordering against packets is canonical. Each shard world applies
    /// the op on its base host's event (see `Event::Fault`), so the
    /// campaign is byte-identical under any shard count.
    fn schedule_campaign(&mut self, ops: Vec<(SimTime, FaultOp)>) {
        if ops.is_empty() {
            return;
        }
        self.fault_horizon = ops.last().map_or(SimTime::ZERO, |&(t, _)| t);
        let hosts = self.world.hosts() as u32;
        for (i, (at, op)) in ops.into_iter().enumerate() {
            for host in 0..hosts {
                let key = (1 << 63) | (1 << 62) | ((i as u64) << 20) | host as u64;
                self.sched_keyed_at(at, key, Event::Fault { host, op });
            }
        }
    }

    /// The last scheduled fault-campaign transition instant
    /// (`SimTime::ZERO` when no campaign is configured) — the horizon
    /// after which [`Cluster::check_recovery`] demands quiescence.
    pub fn fault_horizon(&self) -> SimTime {
        self.fault_horizon
    }

    /// Check the bounded time-to-recovery invariant: every message posted
    /// to the delivery ledger must have reached a terminal fate (acked,
    /// returned to sender, or dropped pre-binding) by the fault horizon
    /// plus `bound`. Call after the run; violations land in the auditor
    /// and surface through [`Cluster::audit`]. A no-op while `now` is
    /// still inside the grace window.
    pub fn check_recovery(&self, bound: SimDuration) {
        self.world.auditor.borrow_mut().check_recovery(self.now(), self.fault_horizon, bound);
    }

    /// Number of worker shards the cluster actually runs with (after
    /// clamping the configured count to what the topology supports).
    pub fn shards(&self) -> u32 {
        self.par.as_ref().map_or(1, |p| p.part.shards())
    }

    /// The relay delay the parallel executor's output bounds use: the
    /// NIC's minimum firmware delay before a frame can leave, or zero
    /// when some host can inject with no delay (abstract hosts, zero-cost
    /// firmware) or the cluster runs sequentially. See DESIGN §11.
    pub fn relay_delay(&self) -> SimDuration {
        self.par.as_ref().map_or(SimDuration::ZERO, |p| p.look.relay())
    }

    /// Running totals of the parallel executor's epoch schedule, one entry
    /// per shard (empty when the cluster runs sequentially): windows run
    /// and windows that processed no event. Deterministic for a given
    /// configuration, like the simulated results.
    pub fn epoch_stats(&self) -> &[ShardEpochs] {
        self.par.as_ref().map_or(&[], |p| &p.epochs)
    }

    /// Fluent construction: `Cluster::builder().hosts(32).telemetry(true)
    /// .build()`. See [`ClusterBuilder`].
    pub fn builder() -> ClusterBuilder {
        ClusterBuilder::new()
    }

    /// The unified observability handle: metrics snapshots and deltas,
    /// Perfetto span export, trace-ring control, and the invariant audit
    /// — one facade over what used to be scattered across `enable_trace`,
    /// `trace_text`, `set_debug_audit`, and per-component stats access.
    pub fn telemetry(&self) -> ClusterTelemetry<'_> {
        ClusterTelemetry::new(self)
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.engine.now()
    }

    /// Total events processed (summed over every shard engine when the
    /// parallel executor is active).
    pub fn events_processed(&self) -> u64 {
        let par: u64 = self
            .par
            .iter()
            .flat_map(|p| p.engines.iter())
            .map(|e| e.events_processed())
            .sum();
        self.engine.events_processed() + par
    }

    /// Events still queued across every engine.
    fn queue_len(&self) -> usize {
        let par: usize =
            self.par.iter().flat_map(|p| p.engines.iter()).map(|e| e.queue_len()).sum();
        self.engine.queue_len() + par
    }

    /// Number of hosts.
    pub fn hosts(&self) -> usize {
        self.world.hosts()
    }

    /// The composed world (full component access for instrumentation).
    pub fn world(&self) -> &World {
        &self.world
    }

    /// Mutable world access (fault injection, pageout control).
    pub fn world_mut(&mut self) -> &mut World {
        &mut self.world
    }

    /// Handle on the cluster-wide invariant auditor (counters, message
    /// fates, raw violation records).
    pub fn auditor(&self) -> AuditHandle {
        self.world.auditor.clone()
    }

    pub(crate) fn set_debug_audit_flag(&self, on: bool) {
        self.debug_audit.set(on);
    }

    /// Check every cross-layer invariant observed so far: exactly-once
    /// delivery, credit conservation, stop-and-wait channel discipline,
    /// and endpoint frame accounting. Returns `Err` with a full report —
    /// named violations plus a trace dump — on the first check that fails.
    ///
    /// Also validates the *live* state (not just the event history): the
    /// number of resident endpoints on each NIC can never exceed its frame
    /// count.
    pub fn audit(&self) -> Result<(), String> {
        let a = self.world.auditor.borrow();
        let mut report = String::new();
        if a.has_violations() {
            use std::fmt::Write;
            let _ = writeln!(
                report,
                "invariant audit failed: {} violation(s) (showing {}):",
                a.total_violations(),
                a.violations().len()
            );
            for v in a.violations() {
                let _ = writeln!(report, "  {v}");
            }
        }
        for h in 0..self.world.hosts() {
            // Live checks apply to full-fidelity hosts only; abstract
            // hosts have no NIC residency machine to violate.
            let Some(nic) = self.world.try_nic(h) else { continue };
            let frames = nic.config().frames;
            let resident = nic.resident_count();
            if resident > frames as usize {
                use std::fmt::Write;
                let _ = writeln!(
                    report,
                    "live check failed: h{h} has {resident} resident endpoints in {frames} frames"
                );
            }
        }
        if report.is_empty() {
            return Ok(());
        }
        let trace = self.world.trace.borrow();
        if trace.is_enabled() {
            report.push_str("trace (most recent last):\n");
            report.push_str(&trace.to_text());
        } else {
            report.push_str(
                "(trace disabled; call cluster.telemetry().trace_enable() for event context)\n",
            );
        }
        Err(report)
    }

    fn debug_audit_check(&self) {
        if cfg!(debug_assertions) && self.debug_audit.get() {
            if let Err(report) = self.audit() {
                panic!("{report}");
            }
        }
    }

    /// The NIC of `host` (panics on an abstract-fidelity host).
    pub fn nic(&self, host: HostId) -> &Nic {
        self.world.nic(host.idx())
    }

    /// The segment driver of `host` (panics on an abstract-fidelity host).
    pub fn os(&self, host: HostId) -> &SegmentDriver {
        self.world.os(host.idx())
    }

    /// The thread scheduler of `host` (panics on an abstract-fidelity
    /// host).
    pub fn sched(&self, host: HostId) -> &Scheduler {
        self.world.sched(host.idx())
    }

    /// The fidelity class of `host`.
    pub fn fidelity_of(&self, host: HostId) -> Fidelity {
        self.world.fidelity_of(host.idx())
    }

    /// Coarse traffic counters of an abstract host (`None` for
    /// full-fidelity hosts — read their NIC/OS stats instead).
    pub fn abs_stats(&self, host: HostId) -> Option<AbsStats> {
        self.world.abs_stats(host.idx()).copied()
    }

    /// Install a synthetic traffic pattern on an abstract host and start
    /// driving it. Panics unless `host` and every peer are
    /// [`Fidelity::Abstract`]: abstract traffic is forged wire frames
    /// with no endpoint protocol behind them, so a full-fidelity receiver
    /// would reject them (and a full host cannot source them). Coupling
    /// with full-fidelity hosts happens through the shared fabric, where
    /// abstract frames reserve links exactly like real ones.
    pub fn drive_abstract(&mut self, host: HostId, traffic: AbstractTraffic) {
        assert_eq!(
            self.world.fidelity_of(host.idx()),
            Fidelity::Abstract,
            "drive_abstract: {host} is full-fidelity; spawn threads instead"
        );
        for p in &traffic.peers {
            assert_eq!(
                self.world.fidelity_of(p.idx()),
                Fidelity::Abstract,
                "drive_abstract: peer {p} of {host} is full-fidelity; abstract \
                 traffic may only target abstract hosts"
            );
        }
        assert!(!traffic.peers.is_empty(), "drive_abstract: no peers");
        self.world
            .abstract_host_mut(host.idx())
            .expect("fidelity checked above")
            .set_traffic(traffic);
        self.sched_ev(SimDuration::ZERO, Event::Abs { host: host.0, ev: AbsEvent::Tick });
    }

    /// Install an open-loop client population on an abstract host and
    /// start its arrival streams (see [`OpenLoopSpec`]): requests arrive
    /// by Poisson process regardless of how far behind the host CPU is,
    /// target hosts by rotated Zipf rank, and carry bounded-Pareto
    /// payloads. Panics unless `host` and every host in the target space
    /// `[0, spec.targets)` are [`Fidelity::Abstract`] — like
    /// [`Cluster::drive_abstract`], open-loop traffic is forged wire
    /// frames only another abstract NIC may receive.
    pub fn drive_open_loop(&mut self, host: HostId, spec: OpenLoopSpec) {
        assert_eq!(
            self.world.fidelity_of(host.idx()),
            Fidelity::Abstract,
            "drive_open_loop: {host} is full-fidelity; spawn threads instead"
        );
        assert!(
            spec.targets as usize <= self.world.hosts(),
            "drive_open_loop: target space [0, {}) exceeds the {}-host cluster",
            spec.targets,
            self.world.hosts()
        );
        let abs_prefix = self.abs_prefix.get().unwrap_or_else(|| {
            let p = (0..self.world.hosts())
                .position(|h| self.world.fidelity_of(h) != Fidelity::Abstract)
                .unwrap_or(self.world.hosts()) as u32;
            self.abs_prefix.set(Some(p));
            p
        });
        assert!(
            spec.targets <= abs_prefix,
            "drive_open_loop: target host {abs_prefix} is full-fidelity; open-loop \
             requests may only target abstract hosts"
        );
        let delays = self
            .world
            .abstract_host_mut(host.idx())
            .expect("fidelity checked above")
            .start_open_loop(spec);
        for (stream, d) in delays.into_iter().enumerate() {
            self.sched_ev(d, Event::Abs {
                host: host.0,
                ev: AbsEvent::Arrive { stream: stream as u32 },
            });
        }
    }

    /// Fold every abstract host's served-request latency histogram into
    /// one cluster-wide [`LogHistogram`] (arrival at the source → `o_r`
    /// cleared at the server). Host-order accumulation of a commutative
    /// merge: byte-identical for any shard count.
    pub fn open_loop_latency(&self) -> LogHistogram {
        let mut all = LogHistogram::default();
        for h in 0..self.world.hosts() {
            if let HostSlot::Abstract(a) = self.world.slot(h) {
                if let Some(l) = a.request_latency() {
                    all.absorb(l);
                }
            }
        }
        all
    }

    /// Open-loop requests not yet emitted, summed across hosts (zero
    /// once every driven population has drained).
    pub fn open_loop_remaining(&self) -> u64 {
        (0..self.world.hosts())
            .map(|h| match self.world.slot(h) {
                HostSlot::Abstract(a) => a.open_loop_remaining(),
                HostSlot::Full(_) => 0,
            })
            .sum()
    }

    // ------------------------------------------------------------- setup

    /// Allocate an endpoint on `host` (registers with the NIC; starts
    /// non-resident in the on-host r/o state).
    pub fn create_endpoint(&mut self, host: HostId) -> GlobalEp {
        let now = self.engine.now();
        let (gep, outs) = self.world.create_endpoint_raw(now, host.idx());
        self.apply_os_ext(host.idx(), outs);
        gep
    }

    /// Register an endpoint under a well-known name (§3.1 rendezvous:
    /// "the names can be obtained by any rendezvous mechanism").
    pub fn register_name(&mut self, name: impl Into<String>, ep: GlobalEp) {
        self.names.register(name, ep);
    }

    /// Resolve a well-known name.
    pub fn lookup_name(&mut self, name: &str) -> Option<GlobalEp> {
        self.names.lookup(name)
    }

    /// Resolve a name and install it in `from`'s translation table —
    /// the full §3.1 flow: rendezvous, then endpoint-relative addressing.
    pub fn connect_by_name(&mut self, from: GlobalEp, idx: usize, name: &str) -> bool {
        match self.names.lookup(name) {
            Some(dst) => {
                self.connect(from, idx, dst);
                true
            }
            None => false,
        }
    }

    /// Install translation `idx → dst` (with dst's key) on endpoint `from`.
    pub fn connect(&mut self, from: GlobalEp, idx: usize, dst: GlobalEp) {
        let key = self.world.keys.get(&dst).copied().unwrap_or_default();
        self.world.user_entry(from.host.idx(), from.ep).set_translation(idx, dst, key);
    }

    /// Build a virtual network over `eps` (§3.1): every endpoint gets a
    /// translation table addressing every member by its slice index —
    /// "traditional virtual node number addressing in parallel programs is
    /// easily realized with this approach".
    pub fn build_virtual_network(&mut self, eps: &[GlobalEp]) {
        for (i, &a) in eps.iter().enumerate() {
            for (j, &b) in eps.iter().enumerate() {
                if i != j {
                    self.connect(a, j, b);
                }
            }
        }
    }

    /// Destroy an endpoint (process termination, §4.2): the driver
    /// synchronizes de-allocation with the NIC (quiescing first if it is
    /// resident) and unregisters it; late messages addressed to it return
    /// to their senders as undeliverable.
    pub fn destroy_endpoint(&mut self, ep: GlobalEp) {
        let now = self.engine.now();
        let h = ep.host.idx();
        let mut outs = Vec::new();
        self.world.os_mut(h).free_endpoint(now, ep.ep, &mut outs);
        self.world.keys.remove(&ep);
        self.world.user_remove(h, ep.ep);
        self.world.auditor.borrow_mut().on_endpoint_destroyed(ep.host.0, ep.ep.0);
        self.apply_os_ext(h, outs);
    }

    /// Spawn an application thread on `host`. Returns its id (per-host).
    pub fn spawn_thread(&mut self, host: HostId, body: Box<dyn ThreadBody>) -> Tid {
        let tid = self.world.spawn_thread_raw(host.idx(), body);
        let now = self.engine.now();
        if let Some((d, ev)) = self.world.prep_cpu_kick(host.idx(), now) {
            self.sched_ev(d, ev);
        }
        tid
    }

    /// Downcast access to a thread body (results extraction after a run).
    pub fn body<T: ThreadBody>(&self, host: HostId, tid: Tid) -> Option<&T> {
        self.world.body::<T>(host.idx(), tid)
    }

    /// Mutable downcast access to a thread body.
    pub fn body_mut<T: ThreadBody>(&mut self, host: HostId, tid: Tid) -> Option<&mut T> {
        self.world.body_mut::<T>(host.idx(), tid)
    }

    // --------------------------------------------------------------- run

    /// Run for `d` of simulated time. In debug builds the invariant audit
    /// runs at the boundary (see [`Cluster::audit`]).
    pub fn run_for(&mut self, d: SimDuration) -> u64 {
        let deadline = self.engine.now() + d;
        let n = self.run_to(deadline);
        self.post_run();
        n
    }

    /// Run until `deadline`. Debug builds audit at the boundary.
    pub fn run_until(&mut self, deadline: SimTime) -> u64 {
        let n = self.run_to(deadline);
        self.post_run();
        n
    }

    /// Run until the event queue drains (only sensible before threads with
    /// infinite loops are spawned, or after they all exit). Debug builds
    /// audit at the boundary.
    pub fn settle(&mut self) -> u64 {
        let n = self.run_to(SimTime::MAX);
        self.post_run();
        n
    }

    /// Advance to `deadline` on whichever executor the configuration
    /// selected; returns the number of events processed.
    ///
    /// The parallel path splits the world into per-shard worlds, marries
    /// each to its persistent engine, runs the conservative epoch protocol
    /// on scoped worker threads, then absorbs the shards back and snaps
    /// the facade clock to the merged final time. Every split/absorb step
    /// is deterministic, so results are byte-identical to the sequential
    /// path for any shard count.
    fn run_to(&mut self, deadline: SimTime) -> u64 {
        match &mut self.par {
            None => self.engine.run_until(&mut self.world, deadline),
            Some(par) => {
                let before: u64 = par.engines.iter().map(|e| e.events_processed()).sum();
                let worlds = self.world.split_shards(&par.part);
                let mut shards: Vec<SendCell<ShardRun>> = worlds
                    .into_iter()
                    .zip(par.engines.drain(..).zip(par.emits.drain(..)))
                    .map(|(mut world, (engine, emits))| {
                        world.emits = emits;
                        // SAFETY: the shard world + its engine's pending
                        // events form one closed `Rc` graph (cross-shard
                        // frames share only atomically counted frozen
                        // payloads, hosts always return to the same
                        // shard), and the executor runs each shard on
                        // exactly one thread at a time.
                        unsafe {
                            SendCell::new(ShardRun { engine, world, part: par.part.clone() })
                        }
                    })
                    .collect();
                let run = run_conservative(&mut shards, &par.look, deadline);
                for (total, e) in par.epochs.iter_mut().zip(&run.epochs) {
                    total.add(*e);
                }
                let mut worlds = Vec::with_capacity(shards.len());
                for cell in shards {
                    let ShardRun { engine, mut world, .. } = cell.into_inner();
                    par.engines.push(engine);
                    par.emits.push(std::mem::take(&mut world.emits));
                    worlds.push(world);
                }
                // The executor's final-epoch elision may leave cross-shard
                // mail in shard outboxes — all of it timestamped past the
                // deadline, destined for the next run slice. Relay it into
                // the owning engines here (keyed, so order is canonical)
                // before the absorb's outbox-empty check.
                for world in &mut worlds {
                    for (at, key, corrupt, pkt) in world.outbox.drain(..) {
                        debug_assert!(at > deadline, "undelivered mail within the deadline");
                        let s = par.part.shard_of(pkt.dst.0) as usize;
                        par.engines[s].schedule_keyed_at(
                            at,
                            key,
                            Event::Ingress { host: pkt.dst.0, corrupt, pkt },
                        );
                    }
                }
                self.world.absorb_shards(worlds, &par.part);
                self.engine.sync_now(run.now);
                let after: u64 = par.engines.iter().map(|e| e.events_processed()).sum();
                after - before
            }
        }
    }

    /// Run-boundary bookkeeping shared by both executors: put the trace
    /// ring and the violation list into canonical `(time, host)` order —
    /// so reads are identical however the run was executed — then run the
    /// debug-build audit.
    fn post_run(&mut self) {
        self.world.trace.borrow_mut().canonicalize();
        self.world.auditor.borrow_mut().canonicalize_violations();
        self.sync_ctl_keys();
        self.debug_audit_check();
    }

    /// Re-derive the main world's protection-key table from the adopted
    /// control plane. Shard worlds clone the table at split and their
    /// mid-run mutations (a migration creating the destination incarnation
    /// and retiring the source one) are dropped at absorb, so without this
    /// the sequential and sharded tables would disagree at the next run
    /// slice — and `reply_key` lookups with them. Idempotent on the
    /// sequential path, where `ctl_local` already mutated the table live.
    fn sync_ctl_keys(&mut self) {
        let Some(ctl) = self.world.control.as_deref() else { return };
        let add: Vec<(GlobalEp, ProtectionKey)> =
            ctl.placements().map(|(_, m)| (m.gep(), m.key)).collect();
        let drop: Vec<GlobalEp> = ctl
            .migrations()
            .filter(|(_, m)| m.state == MigState::Done)
            .map(|(_, m)| GlobalEp::new(HostId(m.from), m.from_ep))
            .collect();
        for gep in drop {
            self.world.keys.remove(&gep);
        }
        for (gep, k) in add {
            self.world.keys.insert(gep, k);
        }
    }

    /// Schedule a setup-path event on the engine owning its target host.
    fn sched_ev(&mut self, d: SimDuration, ev: Event) {
        let at = self.engine.now() + d;
        match &mut self.par {
            None => {
                self.engine.schedule_at(at, ev);
            }
            Some(par) => {
                let s = par.part.shard_of(ev.target_host()) as usize;
                par.engines[s].schedule_at(at, ev);
            }
        }
    }

    /// Keyed variant of [`Cluster::sched_ev`] for canonical ingress events.
    fn sched_keyed_at(&mut self, at: SimTime, key: u64, ev: Event) {
        match &mut self.par {
            None => {
                self.engine.schedule_keyed_at(at, key, ev);
            }
            Some(par) => {
                let s = par.part.shard_of(ev.target_host()) as usize;
                par.engines[s].schedule_keyed_at(at, key, ev);
            }
        }
    }

    // ----------------------------------------------- external effect glue

    fn apply_os_ext(&mut self, host: usize, outs: Vec<OsOut>) {
        let now = self.engine.now();
        for o in outs {
            match o {
                OsOut::Nic(op) => {
                    let mut nic_outs = Vec::new();
                    self.world.nic_mut(host).driver_request(now, op, &mut nic_outs);
                    self.apply_nic_ext(host, nic_outs);
                }
                OsOut::Wake(tid) => {
                    self.sched_ev(SimDuration::ZERO, Event::WakeThread { host: host as u32, tid });
                }
                OsOut::After(d, ev) => {
                    self.sched_ev(d, Event::Os { host: host as u32, ev });
                }
            }
        }
    }

    fn apply_nic_ext(&mut self, host: usize, outs: Vec<NicOut>) {
        let now = self.engine.now();
        for o in outs {
            match o {
                NicOut::After(d, ev) => {
                    // Set-up paths only kick the firmware; an emitting
                    // event here would escape the shards' output bounds.
                    debug_assert!(!ev.emits(), "set-up path scheduled emitting {ev:?}");
                    self.sched_ev(d, Event::Nic { host: host as u32, ev });
                }
                NicOut::Inject(pkt) => match self.world.fabric.inject_src(now, pkt) {
                    Phase1::Ingress { at, seq, corrupt, pkt } => {
                        let key = INGRESS_KEY_BIT | ((pkt.src.0 as u64) << 40) | seq;
                        self.sched_keyed_at(
                            at,
                            key,
                            Event::Ingress { host: pkt.dst.0, corrupt, pkt },
                        );
                    }
                    Phase1::Dropped { .. } => {}
                },
                NicOut::Driver(msg) => {
                    self.sched_ev(SimDuration::ZERO, Event::DriverMsg { host: host as u32, msg });
                }
            }
        }
    }

    /// Force `ep` resident and wait for the remap pipeline to finish —
    /// used by microbenchmarks that measure the steady state (§6.1 runs
    /// with warmed endpoints).
    pub fn make_resident(&mut self, ep: GlobalEp) {
        let h = ep.host.idx();
        let now = self.engine.now();
        let mut outs = Vec::new();
        self.world.os_mut(h).proxy_fault(now, ep.ep, &mut outs);
        self.apply_os_ext(h, outs);
        // Bounded settle: the remap takes well under 50 ms on an idle node.
        let deadline = self.engine.now() + SimDuration::from_millis(50);
        while !self.world.nic(h).is_resident(ep.ep) && self.engine.now() < deadline {
            let step = self.engine.now() + SimDuration::from_micros(100);
            self.run_to(step);
            if self.queue_len() == 0 && !self.world.nic(h).is_resident(ep.ep) {
                // Queue drained without the load completing — nothing more
                // will happen spontaneously.
                break;
            }
        }
        assert!(
            self.world.nic(h).is_resident(ep.ep),
            "make_resident failed for {ep}: remap pipeline stalled"
        );
    }

    // ----------------------------------------------------- control plane

    /// Install the multi-tenant control plane: the coordinator owns
    /// endpoint allocation, per-tenant quotas, and live migration from
    /// here on. Registers every tenant with the auditor (byte-conservation
    /// checking) and broadcasts the bootstrap reconcile tick to every
    /// host, so the reconcile loop runs as ordinary keyed wheel events —
    /// byte-identical sequential vs sharded. Call once, before running.
    pub fn install_control(&mut self, spec: ControlSpec) {
        assert!(self.world.control.is_none(), "control plane already installed");
        let plane = ControlPlane::new(spec, self.world.cfg.seed);
        {
            let mut a = self.world.auditor.borrow_mut();
            for (i, t) in plane.spec.tenants.iter().enumerate() {
                a.register_tenant(i as u32, &t.name, t.bytes_per_epoch, plane.spec.epoch);
            }
        }
        let first = plane.spec.first_tick;
        let hosts = self.world.hosts() as u32;
        self.world.control = Some(Box::new(plane));
        for h in 0..hosts {
            self.sched_keyed_at(
                first,
                ctl_key(0, h),
                Event::Ctl { host: h, kseq: 0, op: CtlOp::Tick { seq: 0 } },
            );
        }
    }

    /// The coordinator's replicated state (placements, migration records,
    /// convergence lag, counters). `None` before [`Self::install_control`].
    pub fn control(&self) -> Option<&ControlPlane> {
        self.world.control.as_deref()
    }

    /// Coordinator-owned service endpoint for `tenant` on `host`: counts
    /// against the tenant's endpoint quota, gets a coordinator-assigned id
    /// and key, and is *managed* — the reconcile loop may migrate it to
    /// another host (spawning a fresh service thread from the tenant's
    /// factory at the new residence). Returns `(vid, ep)`.
    pub fn ctl_create_service(
        &mut self,
        tenant: u32,
        host: HostId,
    ) -> Result<(u32, GlobalEp), QuotaError> {
        let now = self.engine.now();
        let ctl = self.world.control.as_mut().expect("install_control first");
        let (vid, ep, key) = ctl.alloc_endpoint(tenant, host.0, true)?;
        let factory = ctl.spec.tenants[tenant as usize].factory.clone();
        let h = host.idx();
        let mut outs = Vec::new();
        self.world.os_mut(h).create_endpoint_with_id(now, ep, key, &mut outs);
        self.world.user_entry(h, ep);
        let gep = GlobalEp::new(host, ep);
        self.world.keys.insert(gep, key);
        self.world.auditor.borrow_mut().bind_tenant(host.0, ep.0, tenant);
        self.apply_os_ext(h, outs);
        let tid = self.world.spawn_thread_raw(h, factory(gep));
        self.world.note_ctl_thread(h, ep, tid);
        if let Some((d, ev)) = self.world.prep_cpu_kick(h, now) {
            self.sched_ev(d, ev);
        }
        Ok((vid, gep))
    }

    /// Coordinator-owned client endpoint for `tenant` on `host`: counts
    /// against the endpoint quota and carries the tenant's per-endpoint
    /// byte budget — sends past it fail with
    /// [`crate::sys::SendError::QuotaExceeded`] until the next epoch.
    /// Clients are never migrated (pinned), which keeps tenant byte
    /// accounting exact across migrations. Returns `(vid, ep)`.
    pub fn ctl_create_client(
        &mut self,
        tenant: u32,
        host: HostId,
    ) -> Result<(u32, GlobalEp), QuotaError> {
        let now = self.engine.now();
        let ctl = self.world.control.as_mut().expect("install_control first");
        let (vid, ep, key) = ctl.alloc_endpoint(tenant, host.0, false)?;
        let budget = ctl.per_ep_budget(tenant);
        let epoch_nanos = ctl.spec.epoch.as_nanos().max(1);
        let h = host.idx();
        let mut outs = Vec::new();
        self.world.os_mut(h).create_endpoint_with_id(now, ep, key, &mut outs);
        self.world.user_entry(h, ep).quota = Some(EpQuota {
            tenant,
            bytes_per_epoch: budget,
            epoch_nanos,
            used: 0,
            epoch_idx: 0,
            denied: 0,
        });
        let gep = GlobalEp::new(host, ep);
        self.world.keys.insert(gep, key);
        self.world.auditor.borrow_mut().bind_tenant(host.0, ep.0, tenant);
        self.apply_os_ext(h, outs);
        Ok((vid, gep))
    }

    /// Broker a client→service connection through the coordinator: checks
    /// the target tenant's bound-channel quota, records the connection for
    /// migration-time retargeting, and installs the translation on the
    /// client endpoint.
    pub fn ctl_connect(
        &mut self,
        client_vid: u32,
        idx: usize,
        target_vid: u32,
    ) -> Result<(), QuotaError> {
        let ctl = self.world.control.as_mut().expect("install_control first");
        let (ch, cep) = ctl
            .managed(client_vid)
            .map(|m| (m.host, m.ep))
            .ok_or(QuotaError::UnknownVid(client_vid))?;
        ctl.bind_connection(client_vid, idx, target_vid)?;
        let t = ctl.managed(target_vid).expect("bind_connection validated the target");
        let (target, key) = (t.gep(), t.key);
        self.world.user_entry(ch as usize, cep).set_translation(idx, target, key);
        Ok(())
    }

    /// Ask the coordinator to live-migrate managed endpoint `vid` —
    /// optionally to a specific destination, otherwise to a host of the
    /// coordinator's choosing. Picked up at the next reconcile tick; the
    /// four-phase protocol (drain → create → retarget → finish) then runs
    /// under whatever traffic is in flight.
    pub fn ctl_request_migration(&mut self, vid: u32, dst: Option<HostId>) {
        self.world
            .control
            .as_mut()
            .expect("install_control first")
            .request_migration(vid, dst.map(|h| h.0));
    }

    /// Check the bounded time-to-convergence invariant: the coordinator
    /// must never have been diverged (in-flight migrations, or services
    /// placed on down hosts) for longer than `bound`, and must not be
    /// diverged older than `bound` right now. Violations land in the
    /// auditor and surface through [`Cluster::audit`]. A no-op before
    /// [`Self::install_control`].
    pub fn check_reconverged(&self, bound: SimDuration) {
        let Some(ctl) = self.world.control.as_deref() else { return };
        self.world.auditor.borrow_mut().check_reconverged(
            self.now(),
            ctl.diverged_since,
            ctl.worst_lag,
            bound,
        );
    }

    /// Force the least-recently-active paged-in endpoint on `host` out to
    /// disk (§4 pageout). Returns the victim, or `None` when nothing is
    /// eligible. Test hook for residency churn under traffic.
    pub fn force_pageout_lru(&mut self, host: HostId) -> Option<EpId> {
        self.world.os_mut(host.idx()).pageout_lru()
    }
}

/// Convenience: an endpoint id paired with its host for terser test code.
pub fn local(ep: GlobalEp) -> EpId {
    ep.ep
}

/// A process: a host, the endpoints it owns, and its threads — the unit
/// of teardown (§4.2: "Process termination automatically invokes segment
/// driver methods to free segments").
#[derive(Debug, Clone)]
pub struct Process {
    /// Hosting node.
    pub host: HostId,
    /// Endpoints owned by the process.
    pub endpoints: Vec<GlobalEp>,
    /// Threads belonging to the process.
    pub threads: Vec<Tid>,
}

impl Process {
    /// An empty process on `host`.
    pub fn new(host: HostId) -> Self {
        Process { host, endpoints: Vec::new(), threads: Vec::new() }
    }
}

impl Cluster {
    /// Create an endpoint owned by `proc`.
    pub fn create_process_endpoint(&mut self, proc_: &mut Process) -> GlobalEp {
        let ep = self.create_endpoint(proc_.host);
        proc_.endpoints.push(ep);
        ep
    }

    /// Spawn a thread owned by `proc`.
    pub fn spawn_process_thread(&mut self, proc_: &mut Process, body: Box<dyn ThreadBody>) -> Tid {
        let tid = self.spawn_thread(proc_.host, body);
        proc_.threads.push(tid);
        tid
    }

    /// Terminate a process: stop its threads and free every endpoint it
    /// owns. The driver synchronizes de-allocation with the NIC; traffic
    /// addressed to the dead endpoints returns to its senders (§3.2).
    pub fn exit_process(&mut self, proc_: &Process) {
        for &ep in &proc_.endpoints {
            self.destroy_endpoint(ep);
        }
        for &tid in &proc_.threads {
            self.world.kill_thread(proc_.host.idx(), tid);
        }
        // Let the scheduler observe the exits.
        let now = self.engine.now();
        if let Some((d, ev)) = self.world.prep_cpu_kick(proc_.host.idx(), now) {
            self.sched_ev(d, ev);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ClusterConfig;
    use crate::sys::{Step, Sys};
    use vnet_nic::QueueSel;

    struct Echo {
        ep: EpId,
        served: u64,
    }

    impl ThreadBody for Echo {
        fn run(&mut self, sys: &mut Sys<'_>) -> Step {
            while let Some(m) = sys.poll(self.ep, QueueSel::Request) {
                self.served += 1;
                let _ = sys.reply(self.ep, &m, 0, [m.msg.args[0] * 2, 0, 0, 0], 0);
            }
            Step::WaitEvent(self.ep)
        }
    }

    struct Pinger {
        ep: EpId,
        to_send: u32,
        sent: u32,
        replies: u32,
        last_answer: u64,
    }

    impl ThreadBody for Pinger {
        fn run(&mut self, sys: &mut Sys<'_>) -> Step {
            while self.sent < self.to_send {
                match sys.request(self.ep, 1, 1, [self.sent as u64 + 1, 0, 0, 0], 0) {
                    Ok(_) => self.sent += 1,
                    Err(crate::sys::SendError::NoCredit) => break,
                    Err(crate::sys::SendError::WouldBlock) => return Step::WaitResident(self.ep),
                    Err(e) => panic!("send failed: {e:?}"),
                }
            }
            while let Some(m) = sys.poll(self.ep, QueueSel::Reply) {
                assert!(!m.undeliverable);
                self.replies += 1;
                self.last_answer = m.msg.args[0];
            }
            if self.replies == self.to_send {
                Step::Exit
            } else {
                Step::WaitEvent(self.ep)
            }
        }
    }

    #[test]
    fn request_reply_round_trips() {
        let mut c = Cluster::new(ClusterConfig::now(2));
        let a = c.create_endpoint(HostId(0));
        let b = c.create_endpoint(HostId(1));
        c.build_virtual_network(&[a, b]);
        c.spawn_thread(HostId(1), Box::new(Echo { ep: b.ep, served: 0 }));
        let pinger = c.spawn_thread(
            HostId(0),
            Box::new(Pinger { ep: a.ep, to_send: 10, sent: 0, replies: 0, last_answer: 0 }),
        );
        c.run_for(SimDuration::from_millis(100));
        let p: &Pinger = c.body(HostId(0), pinger).unwrap();
        assert_eq!(p.replies, 10, "all replies must arrive");
        assert_eq!(p.last_answer, 20, "handler computed 10 * 2");
        // Both endpoints were faulted in on demand.
        assert!(c.nic(HostId(0)).is_resident(a.ep));
        assert!(c.nic(HostId(1)).is_resident(b.ep));
        assert!(c.telemetry().snapshot().counter("host0.os.loads") >= 1);
    }

    #[test]
    fn credits_cap_outstanding_requests() {
        struct Blaster {
            ep: EpId,
            hit_no_credit: bool,
            accepted: u32,
        }
        impl ThreadBody for Blaster {
            fn run(&mut self, sys: &mut Sys<'_>) -> Step {
                loop {
                    match sys.request(self.ep, 1, 1, [0; 4], 0) {
                        Ok(_) => self.accepted += 1,
                        Err(crate::sys::SendError::NoCredit) => {
                            self.hit_no_credit = true;
                            return Step::Exit;
                        }
                        Err(_) => return Step::Yield,
                    }
                    if self.accepted > 100 {
                        return Step::Exit;
                    }
                }
            }
        }
        let mut c = Cluster::new(ClusterConfig::now(2));
        let a = c.create_endpoint(HostId(0));
        let b = c.create_endpoint(HostId(1));
        c.build_virtual_network(&[a, b]);
        // No server thread: replies never come, so credits never recover.
        let t = c.spawn_thread(
            HostId(0),
            Box::new(Blaster { ep: a.ep, hit_no_credit: false, accepted: 0 }),
        );
        c.run_for(SimDuration::from_millis(50));
        let bl: &Blaster = c.body(HostId(0), t).unwrap();
        assert!(bl.hit_no_credit, "the 32-credit window must close");
        assert_eq!(bl.accepted, 32, "exactly one window of requests accepted");
    }

    #[test]
    fn make_resident_preloads() {
        let mut c = Cluster::new(ClusterConfig::now(2));
        let a = c.create_endpoint(HostId(0));
        assert!(!c.nic(HostId(0)).is_resident(a.ep));
        c.make_resident(a);
        assert!(c.nic(HostId(0)).is_resident(a.ep));
    }

    #[test]
    fn open_loop_drains_and_records_latency() {
        let mut c = Cluster::builder()
            .hosts(8)
            .default_fidelity(Fidelity::Abstract)
            .fabric_fidelity(Fidelity::Abstract)
            .seed(11)
            .build();
        let spec = OpenLoopSpec {
            streams: 2,
            mean_gap: SimDuration::from_micros(50),
            requests: 40,
            zipf_s: 1.0,
            targets: 8,
            size_min: 64,
            size_max: 4096,
            size_alpha: 1.3,
        };
        for h in 0..4 {
            c.drive_open_loop(HostId(h), spec.clone());
        }
        assert_eq!(c.open_loop_remaining(), 160);
        c.run_for(SimDuration::from_millis(50));
        assert_eq!(c.open_loop_remaining(), 0, "all arrivals fired");
        let lat = c.open_loop_latency();
        assert_eq!(lat.count(), 160, "every request was served and timed");
        // o_s + wire + o_r floors the latency well above a microsecond.
        assert!(lat.quantile_bound(0.5) > 1_000, "p50 bound {}", lat.quantile_bound(0.5));
        let sent: u64 = (0..8).map(|h| c.abs_stats(HostId(h)).unwrap().sent).sum();
        assert_eq!(sent, 160);
    }

    #[test]
    fn deterministic_given_seed() {
        let run = |seed: u64| -> (u64, u64) {
            let mut c = Cluster::new(ClusterConfig::now(2).with_seed(seed));
            let a = c.create_endpoint(HostId(0));
            let b = c.create_endpoint(HostId(1));
            c.build_virtual_network(&[a, b]);
            c.spawn_thread(HostId(1), Box::new(Echo { ep: b.ep, served: 0 }));
            c.spawn_thread(
                HostId(0),
                Box::new(Pinger { ep: a.ep, to_send: 20, sent: 0, replies: 0, last_answer: 0 }),
            );
            c.run_for(SimDuration::from_millis(20));
            (c.events_processed(), c.now().as_nanos())
        };
        assert_eq!(run(7), run(7), "identical seeds give identical runs");
    }
}
