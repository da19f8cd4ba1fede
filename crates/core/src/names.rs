//! Endpoint name rendezvous (§3.1).
//!
//! "Endpoint names are opaque … and the names can be obtained by any
//! rendezvous mechanism." This module is that rendezvous: a simple
//! string-keyed registry, the analogue of the cluster's name server.
//! Applications register endpoints under well-known names
//! (`"nfs/server0"`, `"mpi/job42/rank3"`) and peers resolve them into
//! [`GlobalEp`]s to install in their translation tables.

use vnet_nic::GlobalEp;
use vnet_sim::FxHashMap;

/// A string-keyed endpoint registry.
#[derive(Debug, Default)]
pub struct NameService {
    names: FxHashMap<String, GlobalEp>,
}

impl NameService {
    /// Empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Register `ep` under `name`. Returns the previous binding, if any
    /// (re-registration is how a restarted service reclaims its name).
    pub fn register(&mut self, name: impl Into<String>, ep: GlobalEp) -> Option<GlobalEp> {
        self.names.insert(name.into(), ep)
    }

    /// Resolve a name.
    pub fn lookup(&self, name: &str) -> Option<GlobalEp> {
        self.names.get(name).copied()
    }

    /// Remove a binding.
    pub fn unregister(&mut self, name: &str) -> Option<GlobalEp> {
        self.names.remove(name)
    }

    /// All names with a given prefix (service discovery: every member of
    /// `"mpi/job42/"`).
    pub fn lookup_prefix<'a>(&'a self, prefix: &'a str) -> impl Iterator<Item = (&'a str, GlobalEp)> + 'a {
        self.names
            .iter()
            .filter(move |(k, _)| k.starts_with(prefix))
            .map(|(k, v)| (k.as_str(), *v))
    }

    /// Number of registered names.
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// Whether the registry is empty.
    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vnet_net::HostId;
    use vnet_nic::EpId;

    fn gep(h: u32, e: u32) -> GlobalEp {
        GlobalEp::new(HostId(h), EpId(e))
    }

    #[test]
    fn register_lookup_unregister() {
        let mut ns = NameService::new();
        assert!(ns.is_empty());
        assert_eq!(ns.register("nfs/server0", gep(3, 1)), None);
        assert_eq!(ns.lookup("nfs/server0"), Some(gep(3, 1)));
        assert_eq!(ns.lookup("nope"), None);
        // Restarted service reclaims its name.
        assert_eq!(ns.register("nfs/server0", gep(4, 0)), Some(gep(3, 1)));
        assert_eq!(ns.unregister("nfs/server0"), Some(gep(4, 0)));
        assert!(ns.is_empty());
    }

    #[test]
    fn prefix_discovery() {
        let mut ns = NameService::new();
        for r in 0..4 {
            ns.register(format!("mpi/job42/rank{r}"), gep(r, 0));
        }
        ns.register("mpi/job7/rank0", gep(9, 0));
        let members: Vec<_> = ns.lookup_prefix("mpi/job42/").collect();
        assert_eq!(members.len(), 4);
        assert_eq!(ns.len(), 5);
    }
}
