//! Cluster topologies.
//!
//! The paper's cluster is "a Myrinet network with 25 switches and 185 links
//! in a fat-tree like topology". [`TopologySpec::now_cluster`] builds the
//! closest regular equivalent: 20 leaf switches with 5 hosts each plus 5
//! spine switches, every leaf connected to every spine (25 switches,
//! 100 host links + 100 trunk links). Crossbar and ring topologies exist for
//! unit tests and contrast experiments.

use crate::packet::HostId;
use std::fmt;

/// Identifier of a unidirectional link. Full-duplex cables are modeled as
/// two independent links (one per direction), matching Myrinet's
/// independent send/receive lanes.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct LinkId(pub u32);

impl LinkId {
    /// Index form, for table lookups.
    pub fn idx(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for LinkId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "L{}", self.0)
    }
}

/// Declarative description of a topology.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TopologySpec {
    /// Two-level fat tree: `leaves` leaf switches each hosting
    /// `hosts_per_leaf` hosts, fully connected to `spines` spine switches.
    FatTree {
        /// Leaf switch count.
        leaves: u32,
        /// Hosts attached to each leaf.
        hosts_per_leaf: u32,
        /// Spine switch count (and the multipath degree).
        spines: u32,
    },
    /// Single ideal crossbar: every pair of hosts one hop apart, each host
    /// with a dedicated in/out link. Used for microbenchmark isolation.
    Crossbar {
        /// Host count.
        hosts: u32,
    },
    /// Unidirectional ring of hosts; packets travel clockwise. Used in
    /// tests to exercise multi-hop paths deterministically.
    Ring {
        /// Host count.
        hosts: u32,
    },
}

impl TopologySpec {
    /// The 100-workstation Berkeley NOW configuration used throughout the
    /// paper's evaluation.
    pub fn now_cluster() -> Self {
        TopologySpec::FatTree { leaves: 20, hosts_per_leaf: 5, spines: 5 }
    }

    /// Number of hosts this spec generates.
    pub fn hosts(&self) -> u32 {
        match *self {
            TopologySpec::FatTree { leaves, hosts_per_leaf, .. } => leaves * hosts_per_leaf,
            TopologySpec::Crossbar { hosts } | TopologySpec::Ring { hosts } => hosts,
        }
    }
}

/// A built topology: link metadata plus route computation.
///
/// Links are unidirectional. For the fat tree the link layout is:
/// * `host_up[h]`   — host `h` → its leaf switch
/// * `host_down[h]` — leaf switch → host `h`
/// * `leaf_up[l][s]`   — leaf `l` → spine `s`
/// * `leaf_down[l][s]` — spine `s` → leaf `l`
#[derive(Clone, Debug)]
pub struct Topology {
    spec: TopologySpec,
    n_links: u32,
    n_switches: u32,
}

impl Topology {
    /// Build a topology from its spec.
    ///
    /// # Panics
    /// Panics if the spec is degenerate (zero hosts, zero spines, …).
    pub fn build(spec: TopologySpec) -> Self {
        match spec {
            TopologySpec::FatTree { leaves, hosts_per_leaf, spines } => {
                assert!(leaves > 0 && hosts_per_leaf > 0 && spines > 0, "degenerate fat tree");
                let hosts = leaves * hosts_per_leaf;
                // host up/down + leaf<->spine up/down
                let n_links = 2 * hosts + 2 * leaves * spines;
                Topology { spec, n_links, n_switches: leaves + spines }
            }
            TopologySpec::Crossbar { hosts } => {
                assert!(hosts > 0, "degenerate crossbar");
                Topology { spec, n_links: 2 * hosts, n_switches: 1 }
            }
            TopologySpec::Ring { hosts } => {
                assert!(hosts > 1, "ring needs at least two hosts");
                Topology { spec, n_links: hosts, n_switches: 0 }
            }
        }
    }

    /// The spec this topology was built from.
    pub fn spec(&self) -> &TopologySpec {
        &self.spec
    }

    /// Number of unidirectional links.
    pub fn link_count(&self) -> u32 {
        self.n_links
    }

    /// Number of switches.
    pub fn switch_count(&self) -> u32 {
        self.n_switches
    }

    /// Number of hosts.
    pub fn host_count(&self) -> u32 {
        self.spec.hosts()
    }

    /// Leaf switch of a host (fat tree only).
    fn leaf_of(&self, h: HostId) -> u32 {
        match self.spec {
            TopologySpec::FatTree { hosts_per_leaf, .. } => h.0 / hosts_per_leaf,
            _ => 0,
        }
    }

    // Link id layout for the fat tree:
    //   [0, H)                       host h -> leaf          (up)
    //   [H, 2H)                      leaf -> host h          (down)
    //   [2H, 2H + L*S)               leaf l -> spine s       (up),   id = 2H + l*S + s
    //   [2H + L*S, 2H + 2*L*S)       spine s -> leaf l       (down), id = 2H + L*S + l*S + s
    /// Compute the route from `src` to `dst` on logical `channel`, appending
    /// link ids to `out`. Returns the number of switch hops traversed.
    ///
    /// Fat-tree routing is up/down: intra-leaf pairs go host→leaf→host;
    /// inter-leaf pairs ascend to a spine chosen by
    /// `(dst_leaf + channel) mod spines`, so distinct logical channels use
    /// distinct spines — the multipath the paper's NI exploits
    /// ("multiple logical channels … take advantage of multi-path routing").
    ///
    /// # Panics
    /// Panics if `src == dst`; the NIC never routes a host to itself.
    pub fn route(&self, src: HostId, dst: HostId, channel: u8, out: &mut Vec<LinkId>) -> u32 {
        assert_ne!(src, dst, "no self-routes");
        match self.spec {
            TopologySpec::FatTree { leaves, hosts_per_leaf, spines } => {
                let hosts = leaves * hosts_per_leaf;
                let (sl, dl) = (self.leaf_of(src), self.leaf_of(dst));
                out.push(LinkId(src.0)); // host up
                if sl == dl {
                    out.push(LinkId(hosts + dst.0)); // leaf down to host
                    1
                } else {
                    let s = (dl + channel as u32) % spines;
                    out.push(LinkId(2 * hosts + sl * spines + s)); // leaf up
                    out.push(LinkId(2 * hosts + leaves * spines + dl * spines + s)); // spine down
                    out.push(LinkId(hosts + dst.0)); // leaf down to host
                    3
                }
            }
            TopologySpec::Crossbar { hosts } => {
                out.push(LinkId(src.0)); // host in
                out.push(LinkId(hosts + dst.0)); // host out
                1
            }
            TopologySpec::Ring { hosts } => {
                let mut cur = src.0;
                let mut hops = 0;
                while cur != dst.0 {
                    out.push(LinkId(cur));
                    cur = (cur + 1) % hosts;
                    hops += 1;
                }
                hops
            }
        }
    }

    /// Number of *ascending* links on the `src → dst` route: the prefix
    /// reserved at injection time by the source's side of the network.
    /// The remaining (descending) links are reserved when the packet's
    /// head crosses the fabric midpoint — see `Fabric::inject_src` /
    /// `Fabric::complete_ingress`. For the fat tree the split is at the
    /// spine (so a leaf-aligned partition owns each side), for the
    /// crossbar at its single switch; the ring has no descending segment
    /// (every hop is owned by the host it leaves, which is why rings
    /// cannot be partitioned).
    pub fn split_point(&self, src: HostId, dst: HostId) -> u32 {
        match self.spec {
            TopologySpec::FatTree { .. } => {
                if self.leaf_of(src) == self.leaf_of(dst) {
                    1 // host-up; leaf-down belongs to dst's side
                } else {
                    2 // host-up + leaf-up; spine-down + host-down are dst's
                }
            }
            TopologySpec::Crossbar { .. } => 1,
            TopologySpec::Ring { hosts } => (dst.0 + hosts - src.0) % hosts,
        }
    }

    /// All links attached to switch `sw` (both directions), appended to
    /// `out`. A whole-switch failure downs exactly this set. Switch
    /// numbering: fat-tree leaves are `0..leaves`, spines are
    /// `leaves..leaves+spines`; the crossbar's single switch owns every
    /// link; the ring has no switches.
    ///
    /// # Panics
    /// Panics if `sw` is not a valid switch id for this topology.
    pub fn switch_links(&self, sw: u32, out: &mut Vec<LinkId>) {
        assert!(sw < self.n_switches, "switch {sw} out of range (topology has {})", self.n_switches);
        match self.spec {
            TopologySpec::FatTree { leaves, hosts_per_leaf, spines } => {
                let hosts = leaves * hosts_per_leaf;
                if sw < leaves {
                    let l = sw;
                    for h in l * hosts_per_leaf..(l + 1) * hosts_per_leaf {
                        out.push(LinkId(h)); // host up into this leaf
                        out.push(LinkId(hosts + h)); // leaf down to host
                    }
                    for s in 0..spines {
                        out.push(LinkId(2 * hosts + l * spines + s)); // leaf up
                        out.push(LinkId(2 * hosts + leaves * spines + l * spines + s)); // spine down
                    }
                } else {
                    let s = sw - leaves;
                    for l in 0..leaves {
                        out.push(LinkId(2 * hosts + l * spines + s)); // leaf up into this spine
                        out.push(LinkId(2 * hosts + leaves * spines + l * spines + s)); // spine down
                    }
                }
            }
            TopologySpec::Crossbar { .. } => {
                out.extend((0..self.n_links).map(LinkId));
            }
            TopologySpec::Ring { .. } => unreachable!("ring has no switches"),
        }
    }

    /// Whether `l` is a *trunk* link (leaf↔spine in a fat tree). Trunks
    /// may run at a different cut-through latency
    /// (`NetConfig::trunk_latency`); crossbars and rings have none.
    pub fn is_trunk(&self, l: LinkId) -> bool {
        match self.spec {
            TopologySpec::FatTree { leaves, hosts_per_leaf, .. } => {
                l.0 >= 2 * leaves * hosts_per_leaf
            }
            _ => false,
        }
    }

    /// The final (delivery) link into `dst` — the host's receive link. Used
    /// by incast instrumentation.
    pub fn host_down_link(&self, dst: HostId) -> LinkId {
        match self.spec {
            TopologySpec::FatTree { leaves, hosts_per_leaf, .. } => {
                LinkId(leaves * hosts_per_leaf + dst.0)
            }
            TopologySpec::Crossbar { hosts } => LinkId(hosts + dst.0),
            TopologySpec::Ring { hosts } => LinkId((dst.0 + hosts - 1) % hosts),
        }
    }

    /// The first (injection) link out of `src` — the host's transmit link.
    /// Every route from `src` starts here, so a scheduled down window on it
    /// isolates the host; the control plane reads a host's up/down verdict
    /// off this link through the [`crate::RouteOracle`].
    pub fn host_up_link(&self, src: HostId) -> LinkId {
        // Every topology numbers host transmit links first, in host order.
        LinkId(src.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vnet_sim::FxHashSet;

    #[test]
    fn now_cluster_dimensions() {
        let t = Topology::build(TopologySpec::now_cluster());
        assert_eq!(t.host_count(), 100);
        assert_eq!(t.switch_count(), 25);
        // 200 host links (up+down) + 200 trunk links (up+down).
        assert_eq!(t.link_count(), 400);
    }

    #[test]
    fn fat_tree_intra_leaf_route() {
        let t = Topology::build(TopologySpec::now_cluster());
        let mut r = vec![];
        let hops = t.route(HostId(0), HostId(3), 0, &mut r);
        assert_eq!(hops, 1);
        assert_eq!(r, vec![LinkId(0), LinkId(103)]);
    }

    #[test]
    fn fat_tree_inter_leaf_route_valid() {
        let t = Topology::build(TopologySpec::now_cluster());
        let mut r = vec![];
        let hops = t.route(HostId(0), HostId(99), 0, &mut r);
        assert_eq!(hops, 3);
        assert_eq!(r.len(), 4);
        for l in &r {
            assert!(l.idx() < t.link_count() as usize);
        }
        assert_eq!(*r.last().unwrap(), t.host_down_link(HostId(99)));
    }

    #[test]
    fn channels_select_distinct_spines() {
        let t = Topology::build(TopologySpec::now_cluster());
        let mut seen = FxHashSet::default();
        for ch in 0..5 {
            let mut r = vec![];
            t.route(HostId(0), HostId(99), ch, &mut r);
            seen.insert(r[1]); // leaf-up link identifies the spine
        }
        assert_eq!(seen.len(), 5, "five channels should use five spines");
    }

    #[test]
    fn crossbar_routes() {
        let t = Topology::build(TopologySpec::Crossbar { hosts: 4 });
        let mut r = vec![];
        let hops = t.route(HostId(1), HostId(2), 7, &mut r);
        assert_eq!(hops, 1);
        assert_eq!(r, vec![LinkId(1), LinkId(6)]);
        assert_eq!(t.host_down_link(HostId(2)), LinkId(6));
    }

    #[test]
    fn ring_routes_wrap() {
        let t = Topology::build(TopologySpec::Ring { hosts: 4 });
        let mut r = vec![];
        let hops = t.route(HostId(3), HostId(1), 0, &mut r);
        assert_eq!(hops, 2);
        assert_eq!(r, vec![LinkId(3), LinkId(0)]);
    }

    #[test]
    #[should_panic(expected = "no self-routes")]
    fn self_route_panics() {
        let t = Topology::build(TopologySpec::Crossbar { hosts: 2 });
        let mut r = vec![];
        t.route(HostId(0), HostId(0), 0, &mut r);
    }

    #[test]
    fn switch_links_cover_routes_through_the_switch() {
        let t = Topology::build(TopologySpec::FatTree { leaves: 4, hosts_per_leaf: 3, spines: 2 });
        // Every link belongs to exactly two switches on the fat tree's
        // trunk segment, or one switch (its leaf) on the host segment.
        let mut all = vec![];
        for sw in 0..t.switch_count() {
            t.switch_links(sw, &mut all);
        }
        let mut counts = vec![0u32; t.link_count() as usize];
        for l in &all {
            counts[l.idx()] += 1;
        }
        let hosts = t.host_count() as usize;
        for (i, &c) in counts.iter().enumerate() {
            let expect = if i < 2 * hosts { 1 } else { 2 };
            assert_eq!(c, expect, "link {i}");
        }
        // Downing spine 0 (switch id = leaves + 0) must cover channel-0
        // inter-leaf routes to leaf 0 (spine = (0 + ch) % 2).
        let mut spine0 = vec![];
        t.switch_links(4, &mut spine0);
        let mut r = vec![];
        t.route(HostId(3), HostId(0), 0, &mut r);
        assert!(r.iter().any(|l| spine0.contains(l)), "route {r:?} misses spine 0 {spine0:?}");
    }

    #[test]
    fn crossbar_switch_owns_every_link() {
        let t = Topology::build(TopologySpec::Crossbar { hosts: 3 });
        let mut l = vec![];
        t.switch_links(0, &mut l);
        assert_eq!(l.len(), t.link_count() as usize);
    }

    #[test]
    fn all_pairs_all_channels_routes_in_bounds() {
        let t = Topology::build(TopologySpec::FatTree { leaves: 4, hosts_per_leaf: 3, spines: 2 });
        let h = t.host_count();
        let mut r = vec![];
        for s in 0..h {
            for d in 0..h {
                if s == d {
                    continue;
                }
                for ch in 0..4 {
                    r.clear();
                    t.route(HostId(s), HostId(d), ch, &mut r);
                    assert!(!r.is_empty());
                    for l in &r {
                        assert!(l.idx() < t.link_count() as usize, "{s}->{d} ch{ch}");
                    }
                }
            }
        }
    }
}
