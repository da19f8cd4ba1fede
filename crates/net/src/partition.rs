//! Host/link partitioning for the parallel executor.
//!
//! A [`Partition`] assigns every host to one shard (contiguous index
//! ranges) and every link to the shard that *reserves* it, and derives
//! the conservative **lookahead**: a lower bound on how far in the future
//! any cross-shard ingress lands relative to its injection. The split
//! follows the fabric's two-phase injection (`Fabric::inject_src` /
//! `Fabric::complete_ingress`): ascending links belong to the source's
//! shard, descending links to the destination's, and the lookahead is
//! the switch latency accumulated over the ascending segment — one
//! `hop_latency` for a crossbar, two for an inter-leaf fat-tree path.
//!
//! Not every topology can be partitioned: a ring's hops are all
//! "ascending" (each owned by the host the link leaves), so there is no
//! midpoint with a latency guarantee and the plan clamps to one shard.
//! Fat-tree partitions are leaf-aligned so an intra-leaf route (whose
//! ingress is only one hop out) never crosses shards.

use crate::fabric::NetConfig;
use crate::fault::FaultOp;
use crate::topology::{LinkId, Topology, TopologySpec};
use vnet_sim::{FxHashMap, PairLookahead, SimDuration, SimTime};

/// A plan for splitting one simulation across shards.
#[derive(Clone, Debug)]
pub struct Partition {
    /// Host range owned by shard `s` is `bounds[s] .. bounds[s + 1]`.
    bounds: Vec<u32>,
    /// Conservative lookahead: every cross-shard ingress is at least this
    /// far after its injection instant.
    lookahead: SimDuration,
    /// Owning shard per link id.
    link_owner: Vec<u32>,
}

impl Partition {
    /// Plan a partition of `topo` into (at most) `requested` shards.
    /// The count is clamped to what the topology supports: rings (and a
    /// zero `hop_latency`, which destroys the lookahead bound) force a
    /// single shard; fat trees shard on whole leaves; nothing shards
    /// finer than one host.
    pub fn plan(topo: &Topology, cfg: &NetConfig, requested: u32) -> Partition {
        let hosts = topo.host_count();
        let requested = requested.max(1);
        let (shards, lookahead) = match *topo.spec() {
            TopologySpec::Ring { .. } => (1, cfg.hop_latency.max(SimDuration::from_nanos(1))),
            _ if cfg.hop_latency == SimDuration::ZERO => (1, SimDuration::from_nanos(1)),
            TopologySpec::Crossbar { hosts } => (requested.min(hosts), cfg.hop_latency),
            TopologySpec::FatTree { leaves, .. } => {
                // Ascending inter-leaf segment: one host-up hop plus one
                // leaf-to-spine trunk (which may be configured slower).
                let trunk = cfg.trunk_latency.unwrap_or(cfg.hop_latency);
                (requested.min(leaves), cfg.hop_latency + trunk)
            }
        };
        // Contiguous host ranges; for the fat tree, unit = whole leaves.
        let unit = match *topo.spec() {
            TopologySpec::FatTree { hosts_per_leaf, .. } => hosts_per_leaf,
            _ => 1,
        };
        let units = hosts / unit;
        let mut bounds = Vec::with_capacity(shards as usize + 1);
        for s in 0..=shards {
            // Even split of `units` units over `shards` shards.
            bounds.push(units * s / shards * unit);
        }
        debug_assert_eq!(*bounds.last().unwrap(), hosts);

        let mut p = Partition { bounds, lookahead, link_owner: Vec::new() };
        p.link_owner = (0..topo.link_count()).map(|l| p.owner_of(topo, LinkId(l))).collect();
        p
    }

    /// Number of shards.
    pub fn shards(&self) -> u32 {
        self.bounds.len() as u32 - 1
    }

    /// The conservative lookahead bound (always positive).
    pub fn lookahead(&self) -> SimDuration {
        self.lookahead
    }

    /// Host range `[lo, hi)` owned by shard `s`.
    pub fn range(&self, s: u32) -> (u32, u32) {
        (self.bounds[s as usize], self.bounds[s as usize + 1])
    }

    /// The shard owning `host`.
    pub fn shard_of(&self, host: u32) -> u32 {
        // bounds is sorted; shards are few, a linear scan is fine.
        (self.bounds.iter().skip(1).position(|&b| host < b).unwrap_or(self.shards() as usize - 1))
            as u32
    }

    /// The shard that reserves `link` (precomputed at plan time).
    pub fn link_owner(&self, link: LinkId) -> u32 {
        self.link_owner[link.idx()]
    }

    /// Build the per-shard-pair lookahead for the parallel executor:
    /// `edge[j][i]` = the minimum ascending-segment latency over every
    /// usable route from a host in shard `j` to a host in shard `i` —
    /// exactly the earliest a packet injected by `j` can reach `i`'s
    /// ingress. One matrix is computed per fault-campaign interval
    /// (`campaign` as produced by `FaultScheduleSpec::compile`): routes
    /// with a scheduled-down link are excluded there, because the fault
    /// plan judges the *whole* route at injection time, so such packets
    /// never cross. Administrative (hot-swap) downs are ignored — they
    /// only remove routes, which can only *raise* the true bound.
    pub fn pair_lookahead(
        &self,
        topo: &Topology,
        cfg: &NetConfig,
        campaign: &[(SimTime, FaultOp)],
    ) -> PairLookahead {
        let n = self.shards() as usize;
        if n <= 1 {
            return PairLookahead::uniform(n, self.lookahead);
        }
        let mut down: FxHashMap<u32, u32> = FxHashMap::default();
        let mut intervals = vec![(0u64, self.pair_edges(topo, cfg, &down))];
        let mut i = 0;
        while i < campaign.len() {
            let t = campaign[i].0;
            let mut touched = false;
            // Fold all transitions at the same instant into one interval.
            while i < campaign.len() && campaign[i].0 == t {
                match campaign[i].1 {
                    FaultOp::LinkDown(l) => {
                        *down.entry(l.0).or_insert(0) += 1;
                        touched = true;
                    }
                    FaultOp::LinkUp(l) => {
                        if let Some(c) = down.get_mut(&l.0) {
                            *c -= 1;
                            if *c == 0 {
                                down.remove(&l.0);
                            }
                            touched = true;
                        }
                    }
                    // Degrades drop or corrupt packets; they never delay
                    // the ones that get through, so the bound is
                    // unaffected.
                    FaultOp::Degrade(..) | FaultOp::ClearDegrade(..) => {}
                }
                i += 1;
            }
            if !touched {
                continue;
            }
            let edges = self.pair_edges(topo, cfg, &down);
            if edges != intervals.last().unwrap().1 {
                let tns = t.as_nanos();
                if tns == 0 {
                    intervals[0].1 = edges;
                } else {
                    intervals.push((tns, edges));
                }
            }
        }
        PairLookahead::from_edge_intervals(n, intervals)
    }

    /// One `n × n` edge matrix: per ordered cross-shard pair, the minimum
    /// over channels and host pairs of the ascending-segment latency
    /// (`Σ latency_of(link)` for the links before the split point, the
    /// same sum `Fabric::walk` adds to an uncongested packet's head),
    /// skipping routes that traverse a link in `down`.
    ///
    /// Computed analytically rather than by walking every `(src, dst,
    /// channel)` route — that walk is O(hosts² × spines) and dominated
    /// `Cluster::new` at fleet scale (a 16k-host fat tree has 2.7 × 10⁸
    /// host pairs). The closed forms are exact because both shardable
    /// topologies have *uniform* ascending latency: one `hop_latency`
    /// for a crossbar route, `hop_latency + trunk` for an inter-leaf
    /// fat-tree route (and every cross-shard fat-tree route is
    /// inter-leaf, since shards are leaf-aligned). The min therefore
    /// reduces to reachability, which factors per route side: a route
    /// `s → d` exists iff `s`'s ascending links and `d`'s descending
    /// links are all up, and those sets touch only via the shared spine
    /// choice — so aggregating per (shard, spine) loses nothing.
    fn pair_edges(&self, topo: &Topology, cfg: &NetConfig, down: &FxHashMap<u32, u32>) -> Vec<u64> {
        let n = self.shards() as usize;
        let hosts = topo.host_count();
        let mut edges = vec![u64::MAX; n * n];
        let up = |id: u32| !down.contains_key(&id);
        match *topo.spec() {
            // plan() clamps rings to one shard: no cross edges exist.
            TopologySpec::Ring { .. } => {}
            // Crossbar layout: [0, H) host-in (ascending), [H, 2H)
            // host-out (descending). Shard j can inject iff some host
            // of j has its in-link up; shard i can hear iff some host
            // of i has its out-link up (the two hosts are distinct by
            // being in different shards).
            TopologySpec::Crossbar { .. } => {
                let lat = cfg.hop_latency.as_nanos();
                let mut can_src = vec![false; n];
                let mut can_dst = vec![false; n];
                for h in 0..hosts {
                    let j = self.shard_of(h) as usize;
                    can_src[j] |= up(h);
                    can_dst[j] |= up(hosts + h);
                }
                for js in 0..n {
                    for jd in 0..n {
                        if js != jd && can_src[js] && can_dst[jd] {
                            edges[js * n + jd] = lat;
                        }
                    }
                }
            }
            // Fat-tree route s → d via spine sp: [host-up(s),
            // leaf-up(leaf(s), sp), spine-down(leaf(d), sp),
            // host-down(d)], split point 2. Per-shard spine bitsets:
            // shard j reaches spine sp iff some leaf of j has an up
            // host-up link and an up leaf-up(l, sp); sp reaches shard
            // i symmetrically on the descending side. An edge exists
            // iff the bitsets intersect.
            TopologySpec::FatTree { leaves, hosts_per_leaf, spines } => {
                let trunk = cfg.trunk_latency.unwrap_or(cfg.hop_latency);
                let lat = (cfg.hop_latency + trunk).as_nanos();
                let words = (spines as usize).div_ceil(64);
                let mut src_ok = vec![0u64; n * words];
                let mut dst_ok = vec![0u64; n * words];
                for l in 0..leaves {
                    let base = l * hosts_per_leaf;
                    let j = self.shard_of(base) as usize;
                    let any_src = (base..base + hosts_per_leaf).any(up);
                    let any_dst = (base..base + hosts_per_leaf).any(|h| up(hosts + h));
                    if !any_src && !any_dst {
                        continue;
                    }
                    for sp in 0..spines {
                        let (w, b) = ((sp / 64) as usize, sp % 64);
                        if any_src && up(2 * hosts + l * spines + sp) {
                            src_ok[j * words + w] |= 1 << b;
                        }
                        if any_dst && up(2 * hosts + leaves * spines + l * spines + sp) {
                            dst_ok[j * words + w] |= 1 << b;
                        }
                    }
                }
                for js in 0..n {
                    for jd in 0..n {
                        if js == jd {
                            continue;
                        }
                        let reach = (0..words)
                            .any(|w| src_ok[js * words + w] & dst_ok[jd * words + w] != 0);
                        if reach {
                            edges[js * n + jd] = lat;
                        }
                    }
                }
            }
        }
        edges
    }

    fn owner_of(&self, topo: &Topology, link: LinkId) -> u32 {
        let id = link.0;
        match *topo.spec() {
            // Ring: single shard owns everything.
            TopologySpec::Ring { .. } => 0,
            // Crossbar layout: [0, H) host-in (ascending, src side),
            // [H, 2H) host-out (descending, dst side).
            TopologySpec::Crossbar { hosts } => {
                if id < hosts {
                    self.shard_of(id)
                } else {
                    self.shard_of(id - hosts)
                }
            }
            // Fat-tree layout (see Topology::route): host-up and
            // host-down go with the host; leaf-up (ascending) with the
            // source leaf; spine-down (descending) with the destination
            // leaf.
            TopologySpec::FatTree { leaves, hosts_per_leaf, spines } => {
                let hosts = leaves * hosts_per_leaf;
                if id < 2 * hosts {
                    self.shard_of(id % hosts)
                } else if id < 2 * hosts + leaves * spines {
                    let leaf = (id - 2 * hosts) / spines;
                    self.shard_of(leaf * hosts_per_leaf)
                } else {
                    let leaf = (id - 2 * hosts - leaves * spines) / spines;
                    self.shard_of(leaf * hosts_per_leaf)
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::HostId;

    fn net() -> NetConfig {
        NetConfig::default()
    }

    #[test]
    fn fat_tree_partitions_on_leaf_boundaries() {
        let t = Topology::build(TopologySpec::FatTree { leaves: 4, hosts_per_leaf: 3, spines: 2 });
        let p = Partition::plan(&t, &net(), 3);
        assert_eq!(p.shards(), 3);
        for s in 0..p.shards() {
            let (lo, hi) = p.range(s);
            assert_eq!(lo % 3, 0, "shard {s} starts mid-leaf");
            assert_eq!(hi % 3, 0, "shard {s} ends mid-leaf");
            for h in lo..hi {
                assert_eq!(p.shard_of(h), s);
            }
        }
        assert_eq!(p.lookahead(), SimDuration::from_nanos(600));
    }

    #[test]
    fn trunk_latency_widens_fat_tree_lookahead() {
        let t = Topology::build(TopologySpec::FatTree { leaves: 4, hosts_per_leaf: 3, spines: 2 });
        let mut cfg = net();
        cfg.trunk_latency = Some(SimDuration::from_nanos(1_200));
        let p = Partition::plan(&t, &cfg, 4);
        // Ascending inter-leaf segment: 300 ns host-up + 1200 ns trunk.
        assert_eq!(p.lookahead(), SimDuration::from_nanos(1_500));
        let look = p.pair_lookahead(&t, &cfg, &[]);
        assert_eq!(look.min_pair(), Some(SimDuration::from_nanos(1_500)));
    }

    #[test]
    fn campaign_down_window_slices_pair_lookahead() {
        // Crossbar, 2 shards of 2 hosts. Taking hosts 0 and 1's in-links
        // down removes every shard0 -> shard1 route for the window: the
        // interval matrix goes unreachable on that pair, and the horizon
        // must instead be capped at the next transition (the LinkUps).
        let t = Topology::build(TopologySpec::Crossbar { hosts: 4 });
        let p = Partition::plan(&t, &net(), 2);
        let at = |ns: u64| SimTime::from_nanos(ns);
        let ops = vec![
            (at(1_000), FaultOp::LinkDown(LinkId(0))),
            (at(1_000), FaultOp::LinkDown(LinkId(1))),
            (at(2_000), FaultOp::LinkUp(LinkId(0))),
            (at(2_000), FaultOp::LinkUp(LinkId(1))),
        ];
        let look = p.pair_lookahead(&t, &net(), &ops);
        // Inside the window: shard 1 hears nothing from shard 0, but the
        // epoch must still stop before the LinkUps restore the edge.
        let eff = [1_000, u64::MAX];
        assert_eq!(look.horizon(&eff, 1, u64::MAX), 1_999);
        // After the window the static 300 ns edge rules again.
        let eff = [2_500, u64::MAX];
        assert_eq!(look.horizon(&eff, 1, u64::MAX), 2_500 + 300 - 1);
        // Degrade-only campaigns do not slice at all.
        let deg = vec![(at(1_000), FaultOp::Degrade(LinkId(0), 0.5, 0.0))];
        let look = p.pair_lookahead(&t, &net(), &deg);
        let eff = [1_500, u64::MAX];
        assert_eq!(look.horizon(&eff, 1, u64::MAX), 1_500 + 300 - 1);
    }

    #[test]
    fn ring_refuses_to_shard() {
        let t = Topology::build(TopologySpec::Ring { hosts: 8 });
        let p = Partition::plan(&t, &net(), 4);
        assert_eq!(p.shards(), 1);
        assert!(p.lookahead() > SimDuration::ZERO);
    }

    #[test]
    fn shard_count_clamps_to_hosts_and_leaves() {
        let t = Topology::build(TopologySpec::Crossbar { hosts: 3 });
        assert_eq!(Partition::plan(&t, &net(), 16).shards(), 3);
        let ft = Topology::build(TopologySpec::FatTree { leaves: 2, hosts_per_leaf: 5, spines: 2 });
        assert_eq!(Partition::plan(&ft, &net(), 16).shards(), 2);
    }

    #[test]
    fn every_route_prefix_is_src_owned_and_suffix_dst_owned() {
        // The partition must agree with the fabric's two-phase split:
        // links before the split point are reserved by the source's
        // shard, links after by the destination's.
        for spec in [
            TopologySpec::FatTree { leaves: 4, hosts_per_leaf: 3, spines: 2 },
            TopologySpec::Crossbar { hosts: 6 },
        ] {
            let t = Topology::build(spec);
            let p = Partition::plan(&t, &net(), 3);
            let h = t.host_count();
            let mut r = vec![];
            for s in 0..h {
                for d in 0..h {
                    if s == d {
                        continue;
                    }
                    for ch in 0..3u8 {
                        r.clear();
                        t.route(HostId(s), HostId(d), ch, &mut r);
                        let k = t.split_point(HostId(s), HostId(d)) as usize;
                        for (i, l) in r.iter().enumerate() {
                            let want = if i < k { p.shard_of(s) } else { p.shard_of(d) };
                            assert_eq!(
                                p.link_owner(*l),
                                want,
                                "{s}->{d} ch{ch} link {i} ({l:?})"
                            );
                        }
                    }
                }
            }
        }
    }
}
