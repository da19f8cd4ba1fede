//! Control-plane chaos: the multi-tenant coordinator under a fault
//! campaign, on a mixed-fidelity cluster, with the invariant auditor
//! forced on.
//!
//! The scenario (fixed seed, byte-reproducible):
//!
//! * two tenants — "alpha" (tight byte quota: the noisy neighbor gets
//!   throttled) and "beta" — each with one service and one client on the
//!   full-fidelity half of a small fat tree;
//! * an open-loop Poisson population driving the abstract half, so the
//!   coordinator works under unrelated background load;
//! * a **live migration** of alpha's service requested to a host whose
//!   uplink the campaign takes down mid-protocol: the attempt aborts at
//!   `CreateDst`, retries with backoff to another host, and completes —
//!   all while the client keeps sending;
//! * the campaign **kills host 5** (its only uplink flaps 3–9 ms), so the
//!   reconcile loop must evict beta's service from it and re-converge;
//! * a **coordinator outage** window (5–7 ms) during which reconcile
//!   ticks degrade to cached-state serving (counted, not errored);
//! * the whole run must be byte-identical at 1 and 4 shards — control
//!   decisions are replicated state machines driven by keyed wheel
//!   events, not cross-shard messages.

use std::sync::Arc;
use vnet::corelib::EpFactory;
use vnet::net::{FaultScheduleSpec, LinkId, TopologySpec};
use vnet::prelude::*;
use vnet::sim::MsgFate;

fn at_us(us: u64) -> SimTime {
    SimTime::from_nanos(us * 1_000)
}

/// Echo service, stamped out by the tenant factory at every (re)creation
/// — including on the migration destination host.
struct Service {
    ep: EpId,
    pending: Vec<DeliveredMsg>,
}

impl ThreadBody for Service {
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

/// Tenant client: keeps `total` requests flowing to translation 0 through
/// quota denials (yield, retry next epoch), credit exhaustion, and
/// undeliverable returns (a request that chased the old incarnation of a
/// migrated service comes back; the slot is re-sent through the updated
/// translation).
struct Client {
    ep: EpId,
    total: u32,
    sent: u32,
    replies: u32,
    returned: u32,
    denied: u64,
}

impl ThreadBody for Client {
    fn run(&mut self, sys: &mut Sys<'_>) -> Step {
        while let Some(m) = sys.poll(self.ep, QueueSel::Reply) {
            if m.undeliverable {
                self.returned += 1;
                self.sent -= 1; // re-earn the slot; resend below
            } else {
                self.replies += 1;
            }
        }
        while self.sent < self.total {
            match sys.request(self.ep, 0, 1, [u64::from(self.sent), 0, 0, 0], 0) {
                Ok(_) => self.sent += 1,
                Err(SendError::NoCredit) => return Step::WaitEvent(self.ep),
                Err(SendError::WouldBlock) => return Step::WaitResident(self.ep),
                Err(SendError::QuotaExceeded) => {
                    self.denied += 1;
                    return Step::Yield; // next epoch refills the budget
                }
                Err(e) => panic!("send failed: {e:?}"),
            }
        }
        if self.replies >= self.total {
            Step::Exit
        } else {
            Step::WaitEvent(self.ep)
        }
    }
}

/// Everything a run observably produces, for exact 1-vs-4-shard
/// comparison.
#[derive(Debug, PartialEq)]
struct Outcome {
    shards_used: u32,
    events: u64,
    now_ns: u64,
    ledger: Vec<(u64, MsgFate)>,
    violations: u64,
    spans: String,
    /// (started, completed, failed, reconciles, cached_ticks, retries).
    ctl: (u64, u64, u64, u64, u64, u64),
    /// Final placements: (vid, host, raw endpoint id).
    placements: Vec<(u32, u32, u32)>,
    denials: u64,
    /// Per client: (replies, returned, quota denials observed).
    clients: Vec<(u32, u32, u64)>,
    abs: Vec<(u64, u64, u64, u64, u64)>,
    lat: (Vec<u64>, u64, u128),
}

const FULL_BASE: u32 = 4;
const HOSTS: u32 = 8;

fn control_spec() -> ControlSpec {
    let echo: EpFactory =
        Arc::new(|gep| Box::new(Service { ep: gep.ep, pending: Vec::new() }));
    ControlSpec {
        tenants: vec![
            TenantSpec {
                name: "alpha".into(),
                max_endpoints: 2,
                max_bound_channels: 1,
                bytes_per_epoch: 400, // per-ep slice: 200 → ~3 requests/epoch
                factory: echo.clone(),
            },
            TenantSpec {
                name: "beta".into(),
                max_endpoints: 2,
                max_bound_channels: 4,
                bytes_per_epoch: 1_000_000,
                factory: echo,
            },
        ],
        tick_period: SimDuration::from_micros(500),
        first_tick: at_us(100),
        horizon: at_us(38_000),
        outages: vec![(at_us(5_000), at_us(7_000))],
        phase_gap: SimDuration::from_micros(1_500),
        retry_backoff: SimDuration::from_micros(800),
        max_attempts: 3,
        epoch: SimDuration::from_millis(1),
        placement_pool: (FULL_BASE..HOSTS).collect(),
    }
}

fn run_once(shards: u32) -> Outcome {
    // Hosts 0–3 abstract (leaf 0 and 1), hosts 4–7 full (leaf 2 and 3).
    let mut fid = FidelityMap::full();
    fid.set_hosts(0..FULL_BASE, Fidelity::Abstract);
    let mut cfg = ClusterConfig::now(HOSTS)
        .with_seed(0xC4A0_57E5)
        .with_audit(true)
        .with_telemetry(true)
        .with_shards(shards)
        .with_fidelity(fid);
    cfg.topology = TopologySpec::FatTree { leaves: 4, hosts_per_leaf: 2, spines: 2 };
    // Host 5's only uplink dies 3–9 ms: kills the CreateDst of the
    // requested alpha migration (targeted at host 5) AND displaces beta's
    // service, which lives there.
    cfg.faults = FaultScheduleSpec::none().flap(LinkId(5), at_us(3_000), at_us(9_000));
    let mut c = Cluster::new(cfg);
    c.install_control(control_spec());

    let (vid_sa, _) = c.ctl_create_service(0, HostId(4)).expect("alpha service");
    let (vid_sb, _) = c.ctl_create_service(1, HostId(5)).expect("beta service");
    let (vid_ca, gep_ca) = c.ctl_create_client(0, HostId(7)).expect("alpha client");
    let (vid_cb, gep_cb) = c.ctl_create_client(1, HostId(7)).expect("beta client");
    // Quota enforcement at the allocation boundary, both flavors.
    assert!(
        matches!(c.ctl_create_client(0, HostId(6)), Err(QuotaError::Endpoints { .. })),
        "alpha's endpoint quota (2) must reject a third endpoint"
    );
    c.ctl_connect(vid_ca, 0, vid_sa).expect("alpha connect");
    assert!(
        matches!(c.ctl_connect(vid_cb, 1, vid_sa), Err(QuotaError::BoundChannels { .. })),
        "alpha's bound-channel quota (1) must reject a second binding"
    );
    c.ctl_connect(vid_cb, 0, vid_sb).expect("beta connect");

    let tid_a = c.spawn_thread(
        HostId(7),
        Box::new(Client { ep: gep_ca.ep, total: 40, sent: 0, replies: 0, returned: 0, denied: 0 }),
    );
    let tid_b = c.spawn_thread(
        HostId(7),
        Box::new(Client { ep: gep_cb.ep, total: 150, sent: 0, replies: 0, returned: 0, denied: 0 }),
    );

    // Ask for a live migration of alpha's service onto the host the
    // campaign is about to kill: Drain lands before the flap, CreateDst
    // (first_tick + 2×phase_gap = 3.1 ms) lands just inside it.
    c.ctl_request_migration(vid_sa, Some(HostId(5)));

    // Background open-loop load on the abstract half.
    let ol = OpenLoopSpec {
        streams: 2,
        mean_gap: SimDuration::from_micros(25),
        requests: 300,
        zipf_s: 1.0,
        targets: FULL_BASE,
        size_min: 64,
        size_max: 4_096,
        size_alpha: 1.3,
    };
    for h in 0..FULL_BASE {
        c.drive_open_loop(HostId(h), ol.clone());
    }

    // Two slices: the 8 ms boundary lands mid-migration for both tenants,
    // exercising split/absorb of in-flight control state.
    c.run_for(SimDuration::from_millis(8));
    c.run_for(SimDuration::from_millis(32));

    assert_eq!(c.fault_horizon(), at_us(9_000), "campaign horizon");
    c.check_recovery(SimDuration::from_millis(20));
    c.check_reconverged(SimDuration::from_millis(15));
    c.auditor().borrow_mut().check_tenant_quota();
    if let Err(report) = c.audit() {
        panic!("control-plane chaos must finish with zero violations:\n{report}");
    }

    let ctl = c.control().expect("control installed");
    let outcome = Outcome {
        shards_used: c.shards(),
        events: c.events_processed(),
        now_ns: c.now().as_nanos(),
        ctl: (
            ctl.migrations_started,
            ctl.migrations_completed,
            ctl.migrations_failed,
            ctl.reconciles,
            ctl.cached_ticks,
            ctl.retries,
        ),
        placements: ctl.placements().map(|(v, m)| (v, m.host, m.ep.0)).collect(),
        denials: c.world().quota_denials(),
        ledger: {
            let a = c.auditor();
            let l = a.borrow().ledger_snapshot();
            l
        },
        violations: c.auditor().borrow().total_violations(),
        spans: c.telemetry().handle().map(|t| t.borrow().span_log()).unwrap_or_default(),
        clients: [tid_a, tid_b]
            .iter()
            .map(|&tid| {
                let b: &Client = c.body(HostId(7), tid).expect("client body");
                (b.replies, b.returned, b.denied)
            })
            .collect(),
        abs: (0..FULL_BASE)
            .map(|h| {
                let s = c.abs_stats(HostId(h)).expect("abstract host");
                (s.sent, s.sent_bytes, s.recvd, s.recv_bytes, s.corrupt_drops)
            })
            .collect(),
        lat: {
            let l = c.open_loop_latency();
            (l.buckets().to_vec(), l.count(), l.sum())
        },
    };

    // The scenario must have actually exercised every claimed mechanism.
    let (started, completed, failed, reconciles, cached, retries) = outcome.ctl;
    assert!(completed >= 2, "both displaced services must land: {:?}", outcome.ctl);
    assert!(failed >= 1, "the migration into the dead host must abort: {:?}", outcome.ctl);
    assert!(retries >= 1, "the aborted attempt must retry with backoff: {:?}", outcome.ctl);
    assert!(started > completed, "failed attempts count as started: {:?}", outcome.ctl);
    assert!(reconciles > 0, "the reconcile loop must run");
    assert!(cached >= 1, "outage-window ticks must degrade to cached state, not error");
    assert!(outcome.denials >= 1, "alpha's tight byte budget must throttle its client");
    for &(vid, host, _) in &outcome.placements {
        assert_ne!(host, 5, "vid {vid} must not remain on the killed host");
    }
    let sa = ctl.managed(vid_sa).expect("alpha service record");
    assert_ne!(sa.host, 4, "alpha's service must have moved off its origin");
    let sb = ctl.managed(vid_sb).expect("beta service record");
    assert_ne!(sb.host, 5, "beta's service must have been evicted from the dead host");
    assert_eq!(
        outcome.clients.iter().map(|&(r, ..)| r).collect::<Vec<_>>(),
        vec![40, 150],
        "both clients must see every reply exactly once despite the migrations"
    );
    assert!(
        outcome.clients[0].2 >= 1,
        "alpha's client must observe QuotaExceeded: {:?}",
        outcome.clients
    );
    assert_eq!(c.open_loop_remaining(), 0, "background load must drain");
    assert_eq!(outcome.lat.1, u64::from(FULL_BASE) * 300, "every open-loop request served");
    outcome
}

#[test]
fn coordinator_survives_campaign_and_matches_sequential() {
    let seq = run_once(1);
    assert_eq!(seq.shards_used, 1);
    assert_eq!(seq.violations, 0);
    let par = run_once(4);
    assert_eq!(par.shards_used, 4);
    // Field-by-field so a mismatch names what diverged.
    assert_eq!(seq.ctl, par.ctl, "control-plane counters");
    assert_eq!(seq.placements, par.placements, "final placements");
    assert_eq!(seq.denials, par.denials, "quota denials");
    assert_eq!(seq.clients, par.clients, "client results");
    assert_eq!(seq.abs, par.abs, "abstract host counters");
    assert_eq!(seq.lat, par.lat, "open-loop latency histogram");
    assert_eq!(seq.events, par.events, "event count");
    assert_eq!(seq.now_ns, par.now_ns, "final clock");
    assert_eq!(seq.ledger, par.ledger, "audit ledger");
    assert_eq!(seq.violations, par.violations, "violations");
    assert_eq!(seq.spans, par.spans, "span log");
}
