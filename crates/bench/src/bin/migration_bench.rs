//! Live-migration bench: the multi-tenant coordinator moving service
//! endpoints between hosts **under client traffic**, reporting the
//! control-plane counters and the worst convergence lag (longest
//! continuous window in which a migration was in flight or a service
//! sat displaced on a dead host) for four campaigns:
//!
//! * a single quiet-fabric migration (protocol floor);
//! * a migration storm — waves of back-to-back migrations of both
//!   services while their clients keep sending;
//! * a migration aimed at a host whose only uplink is down mid-protocol
//!   (abort at `CreateDst`, backoff retry to the next pool host);
//! * a coordinator outage straddling the request — reconcile ticks
//!   degrade to cached-state serving and the request is picked up at
//!   the first post-outage tick.
//!
//! Every campaign runs with the invariant auditor on and must finish
//! with zero violations and every client reply delivered exactly once.
//! Rows carry `seed` and `shards` so any row can be reproduced
//! exactly; results are byte-identical for any shard count.
//! Accepts `--shards <n>` (or `VNET_SHARDS`) like every bench binary.

use std::sync::Arc;
use vnet_bench::Table;
use vnet_core::prelude::*;
use vnet_core::{Cluster, ClusterConfig, EpFactory};
use vnet_net::{FaultScheduleSpec, LinkId, TopologySpec};
use vnet_sim::SimTime;

const SEED: u64 = 0x316_A7E5;
const HOSTS: u32 = 8;
const REQUESTS: u32 = 300;

fn at_us(us: u64) -> SimTime {
    SimTime::from_nanos(us * 1_000)
}

/// Echo service, stamped out by the tenant factory at every
/// (re)creation — including on each migration destination.
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

/// Tenant client: keeps `total` requests flowing through migrations —
/// an undeliverable return (a request that chased the old incarnation)
/// re-earns its slot and is re-sent through the updated translation.
struct Client {
    ep: EpId,
    total: u32,
    sent: u32,
    replies: u32,
    returned: u32,
}

impl ThreadBody for Client {
    fn run(&mut self, sys: &mut Sys<'_>) -> Step {
        while let Some(m) = sys.poll(self.ep, QueueSel::Reply) {
            if m.undeliverable {
                self.returned += 1;
                self.sent -= 1;
            } else {
                self.replies += 1;
            }
        }
        while self.sent < self.total {
            match sys.request(self.ep, 0, 1, [u64::from(self.sent), 0, 0, 0], 0) {
                Ok(_) => self.sent += 1,
                Err(SendError::NoCredit) | Err(SendError::QuotaExceeded) => {
                    return Step::WaitEvent(self.ep)
                }
                Err(SendError::WouldBlock) => return Step::WaitResident(self.ep),
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

/// One campaign: its fault plan, coordinator outage windows, and the
/// migration-request waves (issued between fixed 4 ms run slices).
/// Each wave entry is `(service slot, destination)` — slot 0/1 are the
/// two tenant services, `None` lets the round-robin placer choose.
struct Plan {
    name: &'static str,
    faults: FaultScheduleSpec,
    outages: Vec<(SimTime, SimTime)>,
    waves: Vec<Vec<(usize, Option<u32>)>>,
}

fn plans() -> Vec<Plan> {
    vec![
        Plan {
            name: "single migration",
            faults: FaultScheduleSpec::none(),
            outages: vec![],
            waves: vec![vec![(0, None)]],
        },
        Plan {
            name: "migration storm (4 waves x 2)",
            faults: FaultScheduleSpec::none(),
            outages: vec![],
            waves: vec![
                vec![(0, None), (1, None)],
                vec![(0, None), (1, None)],
                vec![(0, None), (1, None)],
                vec![(0, None), (1, None)],
            ],
        },
        Plan {
            // Host 5's only uplink dies 1-6 ms: CreateDst of the targeted
            // migration lands inside the window and aborts; the retry
            // (backoff, next pool host) completes. The flap also displaces
            // the service living on host 5, so the reconcile loop evicts it.
            name: "dead destination (abort+retry)",
            faults: FaultScheduleSpec::none().flap(LinkId(5), at_us(1_000), at_us(6_000)),
            outages: vec![],
            waves: vec![vec![(0, Some(5))]],
        },
        Plan {
            // Coordinator down for the first 3 ms: every tick in the window
            // serves cached state; the migration request waits for the
            // first post-outage reconcile.
            name: "coordinator outage (0-3 ms)",
            faults: FaultScheduleSpec::none(),
            outages: vec![(at_us(0), at_us(3_000))],
            waves: vec![vec![(0, None)]],
        },
    ]
}

struct RunOut {
    started: u64,
    completed: u64,
    failed: u64,
    retries: u64,
    reconciles: u64,
    cached: u64,
    worst_lag_us: f64,
    returned: u32,
    shards: u32,
}

fn run_plan(plan: &Plan) -> RunOut {
    let total_ms = 40u64;
    let slice = SimDuration::from_millis(4);
    let mut cfg = ClusterConfig::now(HOSTS)
        .with_seed(SEED)
        .with_audit(true)
        .with_faults(plan.faults.clone());
    cfg.topology = TopologySpec::FatTree { leaves: 4, hosts_per_leaf: 2, spines: 2 };
    let mut c = Cluster::new(cfg);

    let echo: EpFactory = Arc::new(|gep| Box::new(Service { ep: gep.ep, pending: Vec::new() }));
    let tenant = |name: &str| TenantSpec {
        name: name.into(),
        max_endpoints: 2,
        max_bound_channels: 4,
        bytes_per_epoch: u64::MAX / 4, // quota machinery on, never binding
        factory: echo.clone(),
    };
    c.install_control(ControlSpec {
        tenants: vec![tenant("alpha"), tenant("beta")],
        tick_period: SimDuration::from_micros(250),
        first_tick: at_us(100),
        horizon: at_us(total_ms * 1_000),
        outages: plan.outages.clone(),
        phase_gap: SimDuration::from_micros(500),
        retry_backoff: SimDuration::from_micros(500),
        max_attempts: 3,
        epoch: SimDuration::from_millis(1),
        // Includes the client hosts (6, 7) on purpose: the coordinator's
        // client-host anti-affinity must steer services around them.
        placement_pool: (2..HOSTS).collect(),
    });

    let (vid_sa, _) = c.ctl_create_service(0, HostId(4)).expect("alpha service");
    let (vid_sb, _) = c.ctl_create_service(1, HostId(5)).expect("beta service");
    let services = [vid_sa, vid_sb];
    let (vid_ca, gep_ca) = c.ctl_create_client(0, HostId(6)).expect("alpha client");
    let (vid_cb, gep_cb) = c.ctl_create_client(1, HostId(7)).expect("beta client");
    c.ctl_connect(vid_ca, 0, vid_sa).expect("alpha connect");
    c.ctl_connect(vid_cb, 0, vid_sb).expect("beta connect");
    let tids = [
        (HostId(6), c.spawn_thread(HostId(6), Box::new(Client {
            ep: gep_ca.ep, total: REQUESTS, sent: 0, replies: 0, returned: 0,
        }))),
        (HostId(7), c.spawn_thread(HostId(7), Box::new(Client {
            ep: gep_cb.ep, total: REQUESTS, sent: 0, replies: 0, returned: 0,
        }))),
    ];

    let mut elapsed = 0u64;
    for wave in &plan.waves {
        for &(slot, dst) in wave {
            c.ctl_request_migration(services[slot], dst.map(HostId));
        }
        c.run_for(slice);
        elapsed += 4;
    }
    c.run_for(SimDuration::from_millis(total_ms - elapsed));

    let mut returned = 0;
    for &(h, tid) in &tids {
        let cl: &Client = c.body(h, tid).expect("client");
        assert_eq!(
            cl.replies, REQUESTS,
            "campaign '{}': client on {h} lost replies (sent {}, returned {})",
            plan.name, cl.sent, cl.returned
        );
        returned += cl.returned;
    }
    c.check_recovery(SimDuration::from_millis(20));
    c.check_reconverged(SimDuration::from_millis(15));
    c.auditor().borrow_mut().check_tenant_quota();
    if let Err(report) = c.audit() {
        panic!("campaign '{}' violated an invariant:\n{report}", plan.name);
    }
    let ctl = c.control().expect("control installed");
    let expected: u64 = plan.waves.iter().map(|w| w.len() as u64).sum();
    assert!(
        ctl.migrations_completed >= expected,
        "campaign '{}': {} of {expected} requested migrations completed",
        plan.name,
        ctl.migrations_completed
    );
    let out = RunOut {
        started: ctl.migrations_started,
        completed: ctl.migrations_completed,
        failed: ctl.migrations_failed,
        retries: ctl.retries,
        reconciles: ctl.reconciles,
        cached: ctl.cached_ticks,
        worst_lag_us: ctl.worst_lag.map_or(0.0, |(_, d)| d.as_nanos() as f64 / 1_000.0),
        returned,
        shards: c.shards(),
    };
    vnet_bench::emit_telemetry(
        &format!("migration_{}", plan.name.split(' ').next().unwrap()),
        &c,
    );
    out
}

fn main() {
    vnet_bench::init_shards_env();
    let mut t = Table::new(
        "Live endpoint migration under traffic: coordinator counters and worst \
         convergence lag, 8-host fat tree, 600 requests/campaign, auditor on, \
         zero violations and exactly-once delivery required",
        &[
            "campaign",
            "started",
            "completed",
            "failed",
            "retries",
            "reconciles",
            "cached ticks",
            "worst lag (us)",
            "bounced msgs",
            "seed",
            "shards",
        ],
    );
    for plan in plans() {
        let r = run_plan(&plan);
        let mut row = vec![
            plan.name.to_string(),
            r.started.to_string(),
            r.completed.to_string(),
            r.failed.to_string(),
            r.retries.to_string(),
            r.reconciles.to_string(),
            r.cached.to_string(),
            format!("{:.1}", r.worst_lag_us),
            r.returned.to_string(),
        ];
        row.extend(vnet_bench::repro_cells(SEED, r.shards));
        t.row(row);
    }
    t.emit("migration_bench");
    println!("Every campaign completed with zero auditor violations; in-flight requests that");
    println!("chased a migrated endpoint's old residence were bounced back and re-sent through");
    println!("the retargeted translation, preserving exactly-once delivery end to end.");
}
