//! Precomputed source routes.
//!
//! Myrinet uses source routing: the sending interface prepends the full
//! switch-port path to each packet. Our NIC binds logical channels to
//! routes *statically* (§5.3: "the system statically binds flow control
//! channels to physical network routes, and this imposes a first-in
//! first-out ordering of messages across each logical channel"), so routes
//! are computed once per `(src, dst, channel)` and cached.

use crate::packet::HostId;
use crate::topology::{LinkId, Topology};
use vnet_sim::FxHashMap;

/// A cached source route: the link ids a packet traverses in order.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Route {
    /// Links in traversal order; first is the source host's up link, last is
    /// the destination host's down link.
    pub links: Vec<LinkId>,
    /// Number of switches traversed (each charges cut-through latency).
    pub switch_hops: u32,
}

/// Route cache keyed by `(src, dst, channel)`.
#[derive(Debug, Default)]
pub struct RouteTable {
    cache: FxHashMap<(HostId, HostId, u8), Route>,
}

impl RouteTable {
    /// Empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Look up (computing and caching on first use) the route for
    /// `(src, dst, channel)`.
    pub fn get(&mut self, topo: &Topology, src: HostId, dst: HostId, channel: u8) -> &Route {
        self.cache.entry((src, dst, channel)).or_insert_with(|| {
            let mut links = Vec::with_capacity(4);
            let switch_hops = topo.route(src, dst, channel, &mut links);
            Route { links, switch_hops }
        })
    }

    /// Number of distinct routes cached so far.
    pub fn len(&self) -> usize {
        self.cache.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.cache.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::TopologySpec;

    #[test]
    fn caches_and_reuses() {
        let topo = Topology::build(TopologySpec::now_cluster());
        let mut rt = RouteTable::new();
        assert!(rt.is_empty());
        let r1 = rt.get(&topo, HostId(0), HostId(50), 2).clone();
        let r2 = rt.get(&topo, HostId(0), HostId(50), 2).clone();
        assert_eq!(r1, r2);
        assert_eq!(rt.len(), 1);
        rt.get(&topo, HostId(0), HostId(50), 3);
        assert_eq!(rt.len(), 2);
    }

    #[test]
    fn route_matches_topology() {
        let topo = Topology::build(TopologySpec::now_cluster());
        let mut rt = RouteTable::new();
        let r = rt.get(&topo, HostId(1), HostId(98), 0).clone();
        let mut direct = vec![];
        let hops = topo.route(HostId(1), HostId(98), 0, &mut direct);
        assert_eq!(r.links, direct);
        assert_eq!(r.switch_hops, hops);
    }
}
