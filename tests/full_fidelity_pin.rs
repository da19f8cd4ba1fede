//! Exact-behaviour pins for two short full-fidelity runs.
//!
//! The perfbench golden digests are the strongest check that a
//! host-time optimisation leaves the simulation unchanged, but they live
//! in a separate workspace that `cargo test` at the root never builds.
//! These two runs pin the same layers — NIC firmware, OS segment driver,
//! scheduler, user library, fabric — with exact counts recorded from a
//! reference build, so a change in behaviour (event order, a map whose
//! iteration order leaks into the simulation) fails here too.

use vnet::apps::bsp::{launch_job, BspApp, BspRunner, SuperStep};
use vnet::apps::clientserver::{CsClient, StServer};
use vnet::apps::collectives;
use vnet::prelude::*;
use vnet::{Cluster, ClusterConfig};

/// `host{N}.<metric>` summed over every host.
fn host_sum(c: &Cluster, metric: &str) -> u64 {
    let snap = c.telemetry().snapshot();
    (0..c.hosts())
        .map(|h| snap.counter(&format!("host{h}.{metric}")))
        .sum()
}

/// The Figure 6 page-thrash shape (`CsConfig::small(12, St, 8)`): twelve
/// closed-loop clients against one single-threaded server whose twelve
/// endpoints share eight NI frames, run for 100 ms of simulated time.
#[test]
fn fig6_page_thrash_is_pinned() {
    let n = 12;
    let mut c = Cluster::new(ClusterConfig::now(n + 1).with_frames(8).with_seed(0xC5));
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
        .enumerate()
        .map(|(i, ce)| {
            let h = HostId(i as u32 + 1);
            (h, c.spawn_thread(h, Box::new(CsClient::new(ce.ep, 0))))
        })
        .collect();
    c.run_for(SimDuration::from_millis(100));

    let completed: u64 = clients
        .iter()
        .map(|&(h, t)| c.body::<CsClient>(h, t).expect("client").completed)
        .sum();
    let got = (
        c.events_processed(),
        completed,
        host_sum(&c, "nic.nacks_rx_not_resident"),
        host_sum(&c, "os.loads"),
    );
    assert_eq!(
        got,
        (161_297, 6_718, 375, 51),
        "(events, completed, NotResident NACKs, OS loads)"
    );
}

/// A rank replaying a precomputed superstep schedule.
struct Replay(Vec<SuperStep>);

impl BspApp for Replay {
    fn step(&mut self, _rank: usize, _nranks: usize, step: u64) -> Option<SuperStep> {
        self.0.get(step as usize).cloned()
    }
}

/// An 8-host BSP all-to-all of 64 KB per pair in 8 KB messages: NIC DMA
/// staging, queue-full NACKs and retransmits, BSP barriers.
#[test]
fn bsp_all_to_all_8_is_pinned() {
    let hosts = 8;
    let mut c = Cluster::new(ClusterConfig::now(hosts).with_seed(0xB01C));
    let host_ids: Vec<HostId> = (0..hosts).map(HostId).collect();
    let ranks = launch_job(&mut c, &host_ids, |r| {
        let mut s = Vec::new();
        collectives::alltoall(&mut s, r, hosts as usize, 65_536, 8192);
        Replay(s)
    });
    let rank = |c: &Cluster, (h, t, _): (HostId, Tid, GlobalEp)| -> (bool, u64) {
        let r: &BspRunner<Replay> = c.body(h, t).expect("BSP rank");
        (r.is_done(), r.stats.msgs_sent)
    };
    let guard = SimTime::from_nanos(1_000_000_000);
    while !ranks.iter().all(|&k| rank(&c, k).0) && c.now() < guard {
        c.run_for(SimDuration::from_millis(1));
    }
    assert!(ranks.iter().all(|&k| rank(&c, k).0), "all-to-all wedged");

    let sent: u64 = ranks.iter().map(|&k| rank(&c, k).1).sum();
    let got = (
        c.events_processed(),
        sent,
        host_sum(&c, "nic.nacks_rx_queue_full"),
        host_sum(&c, "nic.retransmits"),
        host_sum(&c, "os.loads"),
    );
    assert_eq!(
        got,
        (29_355, 448, 212, 22, 8),
        "(events, messages sent, QueueFull NACKs, retransmits, OS loads)"
    );
}
