//! Property tests for the network substrate: route validity over randomized
//! fat trees, and fabric timing invariants.
//!
//! Cases are generated from [`SimRng`] seeds rather than an external
//! property-testing crate, so the suite builds offline.

use vnet_net::{Fabric, FaultPlan, HostId, InjectOutcome, NetConfig, Packet, Topology, TopologySpec};
use vnet_sim::{FxHashSet, SimRng, SimTime};

fn random_fat_tree(rng: &mut SimRng) -> TopologySpec {
    TopologySpec::FatTree {
        leaves: 1 + rng.below(6) as u32,
        hosts_per_leaf: 1 + rng.below(6) as u32,
        spines: 1 + rng.below(4) as u32,
    }
}

/// Every route over every fat tree uses valid links, starts at the
/// source's up link, and ends at the destination's down link.
#[test]
fn routes_valid() {
    for case in 0..48u64 {
        let mut rng = SimRng::seed_from_u64(0x40075 + case);
        let spec = random_fat_tree(&mut rng);
        let channel = rng.below(8) as u8;
        let topo = Topology::build(spec);
        let h = topo.host_count();
        if h < 2 {
            continue;
        }
        let mut r = vec![];
        for s in 0..h {
            for d in 0..h {
                if s == d {
                    continue;
                }
                r.clear();
                let hops = topo.route(HostId(s), HostId(d), channel, &mut r);
                assert!(!r.is_empty(), "case {case}");
                assert!(hops >= 1, "case {case}");
                for l in &r {
                    assert!(l.idx() < topo.link_count() as usize, "case {case}");
                }
                assert_eq!(*r.last().unwrap(), topo.host_down_link(HostId(d)), "case {case}");
                // No link repeats within one route (loop freedom).
                let mut seen = FxHashSet::default();
                for l in &r {
                    assert!(seen.insert(*l), "case {case}: route revisits a link");
                }
            }
        }
    }
}

/// Uncontended delivery delay is positive and nondecreasing in size.
#[test]
fn delay_monotone_in_bytes() {
    for case in 0..48u64 {
        let mut rng = SimRng::seed_from_u64(0xDE1A + case);
        let spec = random_fat_tree(&mut rng);
        let topo = Topology::build(spec);
        if topo.host_count() < 2 {
            continue;
        }
        let n = 2 + rng.index(8);
        let mut sizes: Vec<u32> = (0..n).map(|_| 1 + rng.below(15_999) as u32).collect();
        sizes.sort_unstable();
        let mut last = None;
        for bytes in sizes {
            // Fresh fabric each time: no contention carryover.
            let mut f = Fabric::new(
                NetConfig::default(),
                Topology::build(topo.spec().clone()),
                FaultPlan::none(1),
            );
            let out = f.inject(
                SimTime::ZERO,
                Packet {
                    src: HostId(0),
                    dst: HostId(topo.host_count() - 1),
                    channel: 0,
                    bytes,
                    payload: (),
                },
            );
            let InjectOutcome::Delivered { delay, .. } = out else {
                panic!("case {case}: clean fabric must deliver");
            };
            assert!(delay.as_nanos() > 0, "case {case}");
            if let Some(prev) = last {
                assert!(delay >= prev, "case {case}: bigger packets cannot arrive faster");
            }
            last = Some(delay);
        }
    }
}

/// Same injection sequence produces identical delays (determinism).
#[test]
fn fabric_deterministic() {
    for case in 0..32u64 {
        let mut rng = SimRng::seed_from_u64(0xFAB + case);
        let seed = rng.below(u64::MAX);
        let n = 1 + rng.index(49);
        let flows: Vec<(u32, u32, u32)> = (0..n)
            .map(|_| (rng.below(10) as u32, rng.below(10) as u32, 1 + rng.below(8_999) as u32))
            .collect();
        let run = || {
            let mut f = Fabric::new(
                NetConfig::default(),
                Topology::build(TopologySpec::FatTree { leaves: 5, hosts_per_leaf: 2, spines: 2 }),
                FaultPlan::with_errors(seed, 0.05, 0.05),
            );
            let mut out = vec![];
            for (i, &(s, d, bytes)) in flows.iter().enumerate() {
                if s == d {
                    continue;
                }
                let t = SimTime::from_nanos(i as u64 * 500);
                match f.inject(
                    t,
                    Packet { src: HostId(s), dst: HostId(d), channel: 0, bytes, payload: () },
                ) {
                    InjectOutcome::Delivered { delay, corrupt, .. } => {
                        out.push((i, delay.as_nanos(), corrupt))
                    }
                    InjectOutcome::Dropped { .. } => out.push((i, u64::MAX, false)),
                }
            }
            out
        };
        assert_eq!(run(), run(), "case {case}");
    }
}
