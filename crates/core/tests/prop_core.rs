//! Whole-stack property test: randomized small workloads — random host
//! counts, endpoint placements, payload sizes, fault rates, frame
//! pressure — always complete every request exactly once, and identical
//! seeds give identical runs.
//!
//! Cases are generated from [`SimRng`] seeds rather than an external
//! property-testing crate, so the suite builds offline.

use vnet_core::prelude::*;
use vnet_core::{Cluster, ClusterConfig};
use vnet_sim::SimDuration as D;
use vnet_sim::{FxHashSet, SimRng};

struct Echo {
    ep: EpId,
    pending: Vec<DeliveredMsg>,
}

impl ThreadBody for Echo {
    fn run(&mut self, sys: &mut Sys<'_>) -> Step {
        while let Some(m) = self.pending.pop() {
            if sys.reply(self.ep, &m, 0, m.msg.args, 0).is_err() {
                self.pending.push(m);
                return Step::Yield;
            }
        }
        while let Some(m) = sys.poll(self.ep, QueueSel::Request) {
            if sys.reply(self.ep, &m, 0, m.msg.args, 0).is_err() {
                self.pending.push(m);
                return Step::Yield;
            }
        }
        Step::WaitEvent(self.ep)
    }
}

struct Client {
    ep: EpId,
    total: u32,
    bytes: u32,
    sent: u32,
    replies: u32,
    seen: FxHashSet<u64>,
    dup: bool,
}

impl ThreadBody for Client {
    fn run(&mut self, sys: &mut Sys<'_>) -> Step {
        while self.sent < self.total {
            match sys.request(self.ep, 0, 0, [self.sent as u64, 0, 0, 0], self.bytes) {
                Ok(_) => self.sent += 1,
                Err(SendError::NoCredit) | Err(SendError::QueueFull) => break,
                Err(SendError::WouldBlock) => return Step::WaitResident(self.ep),
                Err(e) => panic!("{e:?}"),
            }
        }
        while let Some(m) = sys.poll(self.ep, QueueSel::Reply) {
            assert!(!m.undeliverable, "healthy-cluster request bounced");
            self.replies += 1;
            if !self.seen.insert(m.msg.args[0]) {
                self.dup = true;
            }
        }
        if self.replies == self.total {
            Step::Exit
        } else {
            Step::WaitEvent(self.ep)
        }
    }
}

/// One randomized scenario: `pairs` conversations spread over `hosts`
/// hosts (multiple endpoints per host when pairs > hosts, exercising
/// frame pressure and loopback).
fn run_scenario(
    seed: u64,
    hosts: u32,
    pairs: usize,
    msgs: u32,
    bytes: u32,
    drop: f64,
) -> (Vec<(u32, bool)>, u64) {
    let mut cfg = ClusterConfig::now(hosts).with_seed(seed);
    cfg.drop_prob = drop;
    let mut c = Cluster::new(cfg);
    let mut clients = Vec::new();
    for k in 0..pairs {
        let ch = HostId((k as u32) % hosts);
        let sh = HostId((k as u32 + 1) % hosts);
        let ce = c.create_endpoint(ch);
        let se = c.create_endpoint(sh);
        c.connect(ce, 0, se);
        c.spawn_thread(sh, Box::new(Echo { ep: se.ep, pending: vec![] }));
        let t = c.spawn_thread(
            ch,
            Box::new(Client {
                ep: ce.ep,
                total: msgs,
                bytes,
                sent: 0,
                replies: 0,
                seen: Default::default(),
                dup: false,
            }),
        );
        clients.push((ch, t));
    }
    c.run_for(D::from_secs(120));
    let out = clients
        .iter()
        .map(|&(h, t)| {
            let b = c.body::<Client>(h, t).expect("client body");
            (b.replies, b.dup)
        })
        .collect();
    (out, c.events_processed())
}

#[test]
fn random_workloads_complete_exactly_once() {
    for case in 0..10u64 {
        let mut rng = SimRng::seed_from_u64(0xC0DE + case);
        let seed = rng.below(u64::MAX);
        let hosts = 2 + rng.below(4) as u32;
        let pairs = 1 + rng.index(9);
        let msgs = 1 + rng.below(59) as u32;
        let bytes = [0u32, 64, 2048, 8192][rng.index(4)];
        let drop = if rng.chance(0.5) { 0.0 } else { rng.unit() * 0.08 };
        let (results, _) = run_scenario(seed, hosts, pairs, msgs, bytes, drop);
        for (i, (replies, dup)) in results.iter().enumerate() {
            assert_eq!(
                *replies, msgs,
                "case {case}: conversation {i} incomplete (hosts={hosts} pairs={pairs} drop={drop})"
            );
            assert!(!dup, "case {case}: conversation {i} saw a duplicate reply");
        }
    }
}

#[test]
fn identical_seeds_identical_runs() {
    for case in 0..6u64 {
        let mut rng = SimRng::seed_from_u64(0x5EED + case);
        let seed = rng.below(u64::MAX);
        let hosts = 2 + rng.below(3) as u32;
        let pairs = 1 + rng.index(5);
        let a = run_scenario(seed, hosts, pairs, 20, 64, 0.02);
        let b = run_scenario(seed, hosts, pairs, 20, 64, 0.02);
        assert_eq!(a, b, "case {case}");
    }
}
