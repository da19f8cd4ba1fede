//! The four workloads, each driven through the public `vnet` API with
//! its `ClusterConfig` pinned explicitly (audit, telemetry, shards and
//! fidelity are all set here, so `VNET_*` environment knobs cannot change
//! what is measured). Every input is generated from the workload seed.

use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;

use vnet::apps::bsp::{launch_job, BspApp, BspRunner, SuperStep};
use vnet::apps::clientserver::{CsClient, StServer};
use vnet::apps::collectives;
use vnet::corelib::EpFactory;
use vnet::net::{FaultScheduleSpec, GilbertElliott, LinkId, TopologySpec};
use vnet::prelude::*;
use vnet::sim::stats::LogHistogram;
use vnet::sim::SimRng;
use vnet::Cluster;

use crate::probe::{audit, quantile, work_counts, Digest, Probe};

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    Thrash,
    Bulk,
    Fleet,
    Chaos,
}

pub const ALL: [Kind; 4] = [Kind::Thrash, Kind::Bulk, Kind::Fleet, Kind::Chaos];

impl Kind {
    pub fn parse(s: &str) -> Option<Kind> {
        ALL.into_iter().find(|k| k.name() == s)
    }

    pub fn name(self) -> &'static str {
        match self {
            Kind::Thrash => "thrash",
            Kind::Bulk => "bulk",
            Kind::Fleet => "fleet",
            Kind::Chaos => "chaos",
        }
    }

    /// Worker shards of the end-to-end (untraced) measurement.
    pub fn shards(self) -> u32 {
        match self {
            Kind::Bulk => 2,
            _ => 1,
        }
    }

    /// The recorded default seed.
    pub fn default_seed(self) -> u64 {
        match self {
            Kind::Thrash => 0xC5,
            Kind::Bulk => 0xB0_1C,
            Kind::Fleet => 0xF1EE7,
            Kind::Chaos => 0xC4A0_57E5,
        }
    }

    pub fn hosts(self, smoke: bool) -> u32 {
        match (self, smoke) {
            (Kind::Thrash, _) => THRASH_CLIENTS + 1,
            (Kind::Bulk, false) => 32,
            (Kind::Bulk, true) => 8,
            (Kind::Fleet, false) => 4096,
            (Kind::Fleet, true) => 512,
            (Kind::Chaos, _) => CHAOS_HOSTS,
        }
    }

    /// One repetition: build and launch (the `setup` span), then — unless
    /// `setup_only` — run (the `run` span) and check the outputs.
    pub fn rep(
        self,
        seed: u64,
        shards: u32,
        smoke: bool,
        p: &mut Probe,
        setup_only: bool,
    ) -> Option<Outcome> {
        match self {
            Kind::Thrash => thrash(seed, shards, smoke, p, setup_only),
            Kind::Bulk => bulk(seed, shards, smoke, p, setup_only),
            Kind::Fleet => fleet(seed, shards, smoke, p, setup_only),
            Kind::Chaos => chaos(seed, shards, smoke, p, setup_only),
        }
    }
}

/// What one rep produced.
pub struct Outcome {
    /// Operations attempted (see each workload for what one op is).
    pub ops: u64,
    /// Named failures and the ops each one failed.
    pub failures: Vec<(String, u64)>,
    /// Digest of the simulated outputs.
    pub digest: u64,
    /// Simulated-domain per-layer readings (counts summed over hosts,
    /// simulated latencies).
    pub counts: BTreeMap<String, f64>,
    /// Engine events processed.
    pub events: u64,
    /// Shards the cluster actually ran with.
    pub shards_used: u32,
}

impl Outcome {
    /// Read the work counts and audit the finished run; the returned
    /// digest already holds the counts.
    fn new(c: &Cluster, p: &mut Probe, ops: u64, what: &str) -> (Outcome, Digest) {
        let counts = work_counts(c, p);
        let violations = audit(c, p, what);
        let mut d = Digest::new();
        d.counts(&counts);
        let mut out = Outcome {
            ops,
            failures: Vec::new(),
            digest: 0,
            counts: counts.iter().map(|(k, &v)| (k.clone(), v as f64)).collect(),
            events: c.events_processed(),
            shards_used: c.shards(),
        };
        out.counts
            .insert("audit.violations".into(), violations as f64);
        out.fail("auditor violations", violations);
        (out, d)
    }

    fn fail(&mut self, what: impl Into<String>, n: u64) {
        if n > 0 {
            self.failures.push((what.into(), n));
        }
    }

    /// `<prefix>_p50_us` and `_p99_us`: exact from the raw samples when
    /// the workload keeps them, else the histogram's bucket bounds.
    fn latency(&mut self, prefix: &str, h: &LogHistogram, samples_ns: &[f64]) {
        for (q, name) in [(0.5, "p50"), (0.99, "p99")] {
            let ns = if samples_ns.is_empty() {
                h.quantile_bound(q) as f64
            } else {
                quantile(samples_ns, q)
            };
            self.counts.insert(format!("{prefix}_{name}_us"), ns / 1e3);
        }
    }
}

fn pinned(
    cfg: ClusterConfig,
    seed: u64,
    shards: u32,
    audit: bool,
    telemetry: bool,
) -> ClusterConfig {
    cfg.with_seed(seed)
        .with_audit(audit)
        .with_telemetry(telemetry)
        .with_shards(shards)
        .with_fidelity(FidelityMap::full())
}

fn at_us(us: u64) -> SimTime {
    SimTime::from_nanos(us * 1_000)
}

// ------------------------------------------------------------------ thrash

const THRASH_CLIENTS: u32 = 12;

/// A Figure-6 client that starts after a seed-drawn stagger.
struct Staggered {
    start: Option<SimDuration>,
    inner: CsClient,
}

impl ThreadBody for Staggered {
    fn run(&mut self, sys: &mut Sys<'_>) -> Step {
        match self.start.take() {
            Some(d) => Step::Sleep(d),
            None => self.inner.run(sys),
        }
    }
}

/// The Figure 6 page-thrash test (`CsConfig::small(12, St, 8)`): twelve
/// closed-loop clients, 32-credit windows, zero-byte requests, against
/// one polling server whose 12 endpoints share 8 NI frames. One op is a
/// client request that came back (completed or bounced); bounced ones
/// failed.
fn thrash(seed: u64, shards: u32, smoke: bool, p: &mut Probe, setup_only: bool) -> Option<Outcome> {
    let n = THRASH_CLIENTS;
    let slices = if smoke { 4 } else { 40 };
    let slice = SimDuration::from_millis(25);
    let mut rng = SimRng::seed_from_u64(seed);
    let stagger: Vec<SimDuration> = (0..n)
        .map(|_| SimDuration::from_nanos(1 + rng.below(200_000)))
        .collect();

    p.begin("setup");
    p.begin("core.build");
    let mut c = Cluster::new(pinned(
        ClusterConfig::now(n + 1).with_frames(8),
        seed,
        shards,
        false,
        false,
    ));
    p.end();
    p.begin("apps.launch");
    let server = HostId(0);
    let server_eps: Vec<GlobalEp> = (0..n).map(|_| c.create_endpoint(server)).collect();
    let client_eps: Vec<GlobalEp> = (0..n).map(|i| c.create_endpoint(HostId(i + 1))).collect();
    for (ce, se) in client_eps.iter().zip(&server_eps) {
        c.connect(*ce, 0, *se);
    }
    c.spawn_thread(
        server,
        Box::new(StServer::new(server_eps.iter().map(|e| e.ep).collect())),
    );
    let clients: Vec<(HostId, Tid)> = client_eps
        .iter()
        .zip(&stagger)
        .enumerate()
        .map(|(i, (ce, &d))| {
            let h = HostId(i as u32 + 1);
            let body = Staggered {
                start: Some(d),
                inner: CsClient::new(ce.ep, 0),
            };
            (h, c.spawn_thread(h, Box::new(body)))
        })
        .collect();
    p.end();
    p.end();
    if setup_only {
        return None;
    }

    p.begin("run");
    for _ in 0..slices {
        p.slice(&mut c, slice);
    }
    p.end();

    let bodies: Vec<&CsClient> = clients
        .iter()
        .map(|&(h, t)| &c.body::<Staggered>(h, t).expect("client").inner)
        .collect();
    let completed: u64 = bodies.iter().map(|b| b.completed).sum();
    let bounced: u64 = bodies.iter().map(|b| b.bounced).sum();
    let starved = bodies.iter().filter(|b| b.completed == 0).count() as u64;
    let mut rtt = LogHistogram::default();
    let mut rtt_ns = Vec::new();
    for b in &bodies {
        for &us in b.rtt.samples() {
            rtt.record((us * 1e3).round() as u64);
            rtt_ns.push(us * 1e3);
        }
    }
    let (mut out, mut d) = Outcome::new(&c, p, completed + bounced, "thrash");
    for b in &bodies {
        d.add("client.completed", b.completed);
    }
    d.histogram("rtt_ns", &rtt);
    out.digest = d.finish();
    out.fail("bounced requests", bounced);
    out.fail("clients that completed no request", starved);
    out.counts.insert("apps.completed".into(), completed as f64);
    out.latency("apps.rtt", &rtt, &rtt_ns);
    Some(out)
}

// -------------------------------------------------------------------- bulk

/// A rank replaying a precomputed superstep schedule.
struct Replay {
    sched: Vec<SuperStep>,
}

impl BspApp for Replay {
    fn step(&mut self, _rank: usize, _nranks: usize, step: u64) -> Option<SuperStep> {
        self.sched.get(step as usize).cloned()
    }
}

fn rank(c: &Cluster, (h, t, _): (HostId, Tid, GlobalEp)) -> &BspRunner<Replay> {
    c.body(h, t).expect("BSP rank")
}

/// engine_bench's bulk exchange: a BSP all-to-all of 64 KB per pair
/// (8 KB messages) over a 32-host crossbar, each rank's send order
/// shuffled by the seed. One op is one BSP message; the messages of
/// ranks not done when the wedge guard fires failed.
fn bulk(seed: u64, shards: u32, smoke: bool, p: &mut Probe, setup_only: bool) -> Option<Outcome> {
    let hosts = Kind::Bulk.hosts(smoke);
    let (rounds, per_pair) = if smoke { (1, 16_384) } else { (1, 65_536) };
    let slice = SimDuration::from_millis(10);
    let guard = SimTime::from_nanos(5_000_000_000);
    let root = SimRng::seed_from_u64(seed);
    let scheds: Vec<Vec<SuperStep>> = (0..hosts as usize)
        .map(|rank| {
            let mut rng = root.derive(rank as u64);
            let mut s = Vec::new();
            for _ in 0..rounds {
                collectives::alltoall(&mut s, rank, hosts as usize, per_pair, 8192);
            }
            for step in &mut s {
                for i in (1..step.sends.len()).rev() {
                    step.sends.swap(i, rng.index(i + 1));
                }
            }
            s
        })
        .collect();
    let msgs = |r: usize| scheds[r].iter().map(|s| s.sends.len() as u64).sum::<u64>();

    p.begin("setup");
    p.begin("core.build");
    let mut c = Cluster::new(pinned(
        ClusterConfig::now(hosts),
        seed,
        shards,
        false,
        false,
    ));
    p.end();
    p.begin("apps.launch");
    let host_ids: Vec<HostId> = (0..hosts).map(HostId).collect();
    let ranks = launch_job(&mut c, &host_ids, |r| Replay {
        sched: scheds[r].clone(),
    });
    p.end();
    p.end();
    if setup_only {
        return None;
    }

    let done = |c: &Cluster, r: usize| rank(c, ranks[r]).is_done();
    p.begin("run");
    loop {
        p.slice(&mut c, slice);
        if (0..ranks.len()).all(|r| done(&c, r)) || c.now() >= guard {
            break;
        }
    }
    p.end();

    let ops = (0..ranks.len()).map(msgs).sum();
    let wedged: u64 = (0..ranks.len()).filter(|&r| !done(&c, r)).map(msgs).sum();
    let (mut out, mut d) = Outcome::new(&c, p, ops, "bulk");
    let mut sent = 0;
    let mut bounces = 0;
    for &k in &ranks {
        let st = &rank(&c, k).stats;
        d.add("rank.finished_ns", st.finished.map_or(0, |t| t.as_nanos()));
        d.add("rank.msgs_sent", st.msgs_sent);
        sent += st.msgs_sent;
        bounces += st.bounces;
    }
    out.digest = d.finish();
    out.fail("messages of ranks not done at the wedge guard", wedged);
    out.fail("bounced BSP messages", bounces);
    out.counts.insert("apps.completed".into(), sent as f64);
    Some(out)
}

// ------------------------------------------------------------------- fleet

/// fleet_bench's abstract row: every host of a 4096-host fat tree runs
/// the open-loop Poisson / rotated-Zipf / bounded-Pareto spec on the
/// delay fabric. Arrivals never wait for completions. One op is one
/// open-loop request; requests not served failed.
fn fleet(seed: u64, shards: u32, smoke: bool, p: &mut Probe, setup_only: bool) -> Option<Outcome> {
    let hosts = Kind::Fleet.hosts(smoke);
    let requests: u64 = if smoke { 20 } else { 100 };
    // Arrivals span well under a simulated millisecond; 25 µs slices give
    // the slice statistics something to resolve. The two drain slices
    // are fleet_bench's.
    let slice = SimDuration::from_micros(25);
    let drain = SimDuration::from_millis(50);
    let guard = SimTime::from_nanos(300_000_000_000);

    p.begin("setup");
    p.begin("core.build");
    let mut c = Cluster::builder()
        .topology(TopologySpec::FatTree {
            leaves: hosts / 32,
            hosts_per_leaf: 32,
            spines: 8,
        })
        .audit(false)
        .telemetry(false)
        .shards(shards)
        .seed(seed)
        .default_fidelity(Fidelity::Abstract)
        .fabric_fidelity(Fidelity::Abstract)
        .build();
    p.end();
    p.begin("apps.launch");
    let spec = OpenLoopSpec {
        streams: 2,
        mean_gap: SimDuration::from_micros(8),
        requests,
        zipf_s: 1.0,
        targets: hosts,
        size_min: 64,
        size_max: 65_536,
        size_alpha: 1.3,
    };
    for h in 0..hosts {
        c.drive_open_loop(HostId(h), spec.clone());
    }
    p.end();
    p.end();
    if setup_only {
        return None;
    }

    p.begin("run");
    while c.open_loop_remaining() > 0 && c.now() < guard {
        p.slice(&mut c, slice);
    }
    // Two more slices drain requests still on the wire or queued on
    // server CPUs when the last arrival fired.
    p.slice(&mut c, drain);
    p.slice(&mut c, drain);
    p.end();

    let ops = requests * hosts as u64;
    let lat = c.open_loop_latency();
    let (mut out, mut d) = Outcome::new(&c, p, ops, "fleet");
    d.histogram("open_loop_latency_ns", &lat);
    out.digest = d.finish();
    out.fail("requests not served", ops.saturating_sub(lat.count()));
    out.latency("model.lat", &lat, &[]);
    Some(out)
}

// ------------------------------------------------------------------- chaos

const CHAOS_HOSTS: u32 = 8;

/// Echo service, stamped out by the tenant factory at every
/// (re)creation — including on each migration destination.
struct Echo {
    ep: EpId,
    pending: Vec<DeliveredMsg>,
}

impl ThreadBody for Echo {
    fn run(&mut self, sys: &mut Sys<'_>) -> Step {
        let stash = std::mem::take(&mut self.pending);
        for m in stash {
            if sys.reply(self.ep, &m, 0, m.msg.args, 0).is_err() {
                self.pending.push(m);
            }
        }
        while let Some(m) = sys.poll(self.ep, QueueSel::Request) {
            if sys.reply(self.ep, &m, 0, m.msg.args, 0).is_err() {
                self.pending.push(m);
            }
        }
        if self.pending.is_empty() {
            Step::WaitEvent(self.ep)
        } else {
            Step::Yield
        }
    }
}

/// Closed-loop client that issues requests until `stop`, then drains.
/// A request that comes back undeliverable (it chased a migrated
/// endpoint's old incarnation) is re-sent through the updated
/// translation, so every logical request must be replied exactly once.
struct Client {
    ep: EpId,
    stop: SimTime,
    sent: u64,
    replies: u64,
    bounced: u64,
    inflight: HashMap<u64, SimTime>,
    rtt_ns: Vec<u64>,
}

impl Client {
    fn new(ep: EpId, stop: SimTime) -> Self {
        Client {
            ep,
            stop,
            sent: 0,
            replies: 0,
            bounced: 0,
            inflight: HashMap::new(),
            rtt_ns: Vec::new(),
        }
    }
}

impl ThreadBody for Client {
    fn run(&mut self, sys: &mut Sys<'_>) -> Step {
        while let Some(m) = sys.poll(self.ep, QueueSel::Reply) {
            if m.undeliverable {
                self.bounced += 1;
                self.sent -= 1;
                self.inflight.remove(&m.msg.uid);
            } else {
                self.replies += 1;
                if let Some(t0) = self.inflight.remove(&m.msg.corr) {
                    self.rtt_ns.push((sys.now() - t0).as_nanos());
                }
            }
        }
        while sys.now() < self.stop {
            match sys.request(self.ep, 0, 1, [self.sent, 0, 0, 0], 0) {
                Ok(uid) => {
                    self.sent += 1;
                    self.inflight.insert(uid, sys.now());
                }
                Err(SendError::NoCredit)
                | Err(SendError::QueueFull)
                | Err(SendError::QuotaExceeded) => return Step::WaitEvent(self.ep),
                Err(SendError::WouldBlock) => return Step::WaitResident(self.ep),
                Err(e) => panic!("chaos client misconfigured: {e:?}"),
            }
        }
        if self.replies >= self.sent {
            Step::Exit
        } else {
            Step::WaitEvent(self.ep)
        }
    }
}

fn body(c: &Cluster, (h, t): (HostId, Tid)) -> &Client {
    c.body(h, t).expect("chaos client")
}

/// Tenant services and closed-loop clients on the small fat tree (8
/// hosts, 4 leaves, 2 spines) with the auditor and telemetry hooks on.
/// Every 10 ms cycle (start jittered by the seed) replays campaign_bench's
/// full campaign — two link flaps, a dead spine, a degraded trunk — under
/// Gilbert–Elliott bursts, while the coordinator migrates both tenant
/// services (a storm) and, every fourth cycle, is down for 3 ms. A
/// request ring of unmanaged endpoints spans all hosts. The run audits
/// after every 2 ms slice and snapshots the metrics every 10 ms (an
/// operator's monitoring loop), and ends with a Perfetto export. One op
/// is one logical client request; requests not replied exactly once
/// failed.
fn chaos(seed: u64, shards: u32, smoke: bool, p: &mut Probe, setup_only: bool) -> Option<Outcome> {
    let n = CHAOS_HOSTS;
    let cycles: u64 = if smoke { 2 } else { 16 };
    let cycle_us = 10_000;
    let slice = SimDuration::from_millis(2);
    let stop = at_us(cycles * cycle_us);
    let horizon = at_us(cycles * cycle_us + 20_000);
    // A request still unanswered this long after the campaign's last
    // fault is lost: 20 ms is the recovery bound `check_recovery` holds.
    let guard = horizon + SimDuration::from_millis(20);

    let mut rng = SimRng::seed_from_u64(seed);
    let mut faults = FaultScheduleSpec::none().with_bursty(GilbertElliott::mild());
    let mut outages = Vec::new();
    let mut waves = Vec::new();
    for k in 0..cycles {
        let o = k * cycle_us + rng.below(1_000);
        waves.push(at_us(o));
        faults = faults
            .flap(LinkId(16), at_us(o + 300), at_us(o + 1_500))
            .flap(LinkId(21), at_us(o + 3_500), at_us(o + 4_200))
            .fail_switch(4, at_us(o + 2_000), at_us(o + 3_000))
            .degrade(LinkId(27), at_us(o + 1_000), at_us(o + 4_000), 0.2, 0.05);
        if k % 4 == 1 {
            outages.push((at_us(o + 5_000), at_us(o + 8_000)));
        }
    }

    p.begin("setup");
    p.begin("core.build");
    let mut cfg = pinned(ClusterConfig::now(n), seed, shards, true, true).with_faults(faults);
    cfg.topology = TopologySpec::FatTree {
        leaves: 4,
        hosts_per_leaf: 2,
        spines: 2,
    };
    let mut c = Cluster::new(cfg);
    p.end();
    p.begin("apps.launch");
    let echo: EpFactory = Arc::new(|gep| {
        Box::new(Echo {
            ep: gep.ep,
            pending: Vec::new(),
        })
    });
    let tenant = |name: &str| TenantSpec {
        name: name.into(),
        max_endpoints: 2,
        max_bound_channels: 4,
        bytes_per_epoch: u64::MAX / 4,
        factory: echo.clone(),
    };
    c.install_control(ControlSpec {
        tenants: vec![tenant("alpha"), tenant("beta")],
        tick_period: SimDuration::from_micros(250),
        first_tick: at_us(100),
        horizon,
        outages,
        phase_gap: SimDuration::from_micros(500),
        retry_backoff: SimDuration::from_micros(500),
        max_attempts: 3,
        epoch: SimDuration::from_millis(1),
        placement_pool: (2..n).collect(),
    });
    let (vid_sa, _) = c.ctl_create_service(0, HostId(4)).expect("alpha service");
    let (vid_sb, _) = c.ctl_create_service(1, HostId(5)).expect("beta service");
    let (vid_ca, gep_ca) = c.ctl_create_client(0, HostId(6)).expect("alpha client");
    let (vid_cb, gep_cb) = c.ctl_create_client(1, HostId(7)).expect("beta client");
    c.ctl_connect(vid_ca, 0, vid_sa).expect("alpha connect");
    c.ctl_connect(vid_cb, 0, vid_sb).expect("beta connect");
    let mut clients = vec![
        (
            HostId(6),
            c.spawn_thread(HostId(6), Box::new(Client::new(gep_ca.ep, stop))),
        ),
        (
            HostId(7),
            c.spawn_thread(HostId(7), Box::new(Client::new(gep_cb.ep, stop))),
        ),
    ];
    let servers: Vec<GlobalEp> = (0..n).map(|h| c.create_endpoint(HostId(h))).collect();
    for h in 0..n {
        let ce = c.create_endpoint(HostId(h));
        c.connect(ce, 0, servers[((h + 1) % n) as usize]);
        c.spawn_thread(
            HostId(h),
            Box::new(Echo {
                ep: servers[h as usize].ep,
                pending: Vec::new(),
            }),
        );
        clients.push((
            HostId(h),
            c.spawn_thread(HostId(h), Box::new(Client::new(ce.ep, stop))),
        ));
    }
    p.end();
    p.end();
    if setup_only {
        return None;
    }

    let mut next_wave = 0;
    let mut slices = 0u64;
    p.begin("run");
    loop {
        while next_wave < waves.len() && waves[next_wave] <= c.now() {
            c.ctl_request_migration(vid_sa, None);
            c.ctl_request_migration(vid_sb, None);
            next_wave += 1;
        }
        p.slice(&mut c, slice);
        slices += 1;
        let _ = p.call("sim.audit.check", || c.audit());
        if slices.is_multiple_of(5) {
            p.call("sim.telemetry.snapshot", || c.telemetry().snapshot());
        }
        let drained = clients
            .iter()
            .all(|&k| body(&c, k).replies >= body(&c, k).sent);
        if (c.now() >= horizon && drained) || c.now() >= guard {
            break;
        }
    }
    c.check_recovery(SimDuration::from_millis(20));
    c.check_reconverged(SimDuration::from_millis(15));
    c.auditor().borrow_mut().check_tenant_quota();
    let trace = p.call("sim.telemetry.export", || c.telemetry().export_perfetto());
    p.end();

    let ops = clients.iter().map(|&k| body(&c, k).sent).sum();
    let (mut out, mut d) = Outcome::new(&c, p, ops, "chaos");
    let mut rtt = LogHistogram::default();
    let mut rtt_ns = Vec::new();
    let (mut replies, mut unanswered) = (0, 0);
    for &k in &clients {
        let cl = body(&c, k);
        d.add("client.sent", cl.sent);
        d.add("client.replies", cl.replies);
        d.add("client.bounced", cl.bounced);
        for &ns in &cl.rtt_ns {
            rtt.record(ns);
            rtt_ns.push(ns as f64);
        }
        replies += cl.replies;
        unanswered += cl.sent.abs_diff(cl.replies);
    }
    d.histogram("rtt_ns", &rtt);
    out.digest = d.finish();
    out.fail("requests not replied exactly once", unanswered);
    out.fail(
        "empty Perfetto export",
        u64::from(!trace.contains("traceEvents")),
    );
    out.counts.insert("apps.completed".into(), replies as f64);
    out.latency("apps.rtt", &rtt, &rtt_ns);
    Some(out)
}
