//! Per-endpoint user-level library state: the translation table (§3.1) and
//! the credit-based request flow control (§6.4.1).
//!
//! "An endpoint object contains a simple translation table, which allows
//! programs to construct a logical communication namespace of small
//! integers by associating endpoint names and protection keys. A
//! communication operation specifies the source endpoint and a translation
//! table index for the destination endpoint."

use vnet_nic::{GlobalEp, ProtectionKey};
use vnet_sim::FxHashMap;

/// One translation-table entry: where index *i* points and the key that
/// grants delivery there.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Translation {
    /// Destination endpoint.
    pub dst: GlobalEp,
    /// Protection key for that destination.
    pub key: ProtectionKey,
}

/// Concurrency marking of an endpoint (§3.3): "Applications can mark
/// endpoints as shared or exclusive, so that operations on shared
/// endpoints invoke code which performs the necessary synchronization
/// while operations on exclusive endpoints avoid those overheads."
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum EpMode {
    /// One thread uses the endpoint; no locking on the fast path.
    #[default]
    Exclusive,
    /// Multiple threads may operate on the endpoint concurrently; every
    /// operation takes the endpoint mutex (a per-op cost).
    Shared,
}

/// Per-endpoint tenant byte budget (control-plane quota): request payload
/// admitted per accounting epoch. Epochs reset lazily at send time — no
/// timer events, so sharded and sequential runs see identical admission
/// decisions.
#[derive(Clone, Debug)]
pub struct EpQuota {
    /// Tenant id (auditor tenant-conservation key).
    pub tenant: u32,
    /// Bytes this endpoint may admit per epoch.
    pub bytes_per_epoch: u64,
    /// Accounting epoch length in nanoseconds.
    pub epoch_nanos: u64,
    /// Bytes admitted in the current epoch.
    pub used: u64,
    /// Index of the current epoch (`now / epoch_nanos`).
    pub epoch_idx: u64,
    /// Sends denied by the quota (noisy-neighbor signal).
    pub denied: u64,
}

impl EpQuota {
    /// Charge `bytes` at time-epoch `idx`; `false` means over budget (the
    /// send is denied and counted).
    pub fn admit(&mut self, idx: u64, bytes: u64) -> bool {
        if idx != self.epoch_idx {
            self.epoch_idx = idx;
            self.used = 0;
        }
        if self.used + bytes > self.bytes_per_epoch {
            self.denied += 1;
            false
        } else {
            self.used += bytes;
            true
        }
    }
}

/// User-level state attached to one local endpoint.
#[derive(Debug, Default)]
pub struct UserEpState {
    table: Vec<Option<Translation>>,
    /// Concurrency marking (§3.3).
    pub mode: EpMode,
    /// Tenant byte budget; `None` means unmetered (services, system eps).
    pub quota: Option<EpQuota>,
    /// Outstanding (unreplied) requests per translation index.
    outstanding: FxHashMap<usize, u32>,
    /// uid → translation index, for credit recovery when the reply (or the
    /// undeliverable return) comes back.
    in_flight: FxHashMap<u64, usize>,
}

impl UserEpState {
    /// Empty state.
    pub fn new() -> Self {
        Self::default()
    }

    /// Install (or overwrite) translation `idx → (dst, key)`.
    pub fn set_translation(&mut self, idx: usize, dst: GlobalEp, key: ProtectionKey) {
        if self.table.len() <= idx {
            self.table.resize(idx + 1, None);
        }
        self.table[idx] = Some(Translation { dst, key });
    }

    /// Remove a translation (the slot becomes unaddressable).
    pub fn clear_translation(&mut self, idx: usize) {
        if let Some(slot) = self.table.get_mut(idx) {
            *slot = None;
        }
    }

    /// Look up a translation.
    pub fn translation(&self, idx: usize) -> Option<Translation> {
        self.table.get(idx).copied().flatten()
    }

    /// Number of table slots (including empty ones).
    pub fn table_len(&self) -> usize {
        self.table.len()
    }

    /// Reverse lookup: the first index that maps to `dst`.
    pub fn index_of(&self, dst: GlobalEp) -> Option<usize> {
        self.table.iter().position(|t| t.map(|t| t.dst) == Some(dst))
    }

    /// Outstanding requests to translation `idx`.
    pub fn outstanding(&self, idx: usize) -> u32 {
        self.outstanding.get(&idx).copied().unwrap_or(0)
    }

    /// Total outstanding requests across all destinations.
    pub fn outstanding_total(&self) -> u32 {
        self.outstanding.values().sum()
    }

    /// Record that request `uid` left for translation `idx` (one credit
    /// consumed).
    pub fn note_sent(&mut self, uid: u64, idx: usize) {
        *self.outstanding.entry(idx).or_insert(0) += 1;
        self.in_flight.insert(uid, idx);
    }

    /// A reply (or undeliverable return) for request `uid` arrived: release
    /// its credit. Unknown uids (e.g. replies to a restarted process) are
    /// ignored. Returns the translation index the credit belonged to.
    pub fn note_completed(&mut self, uid: u64) -> Option<usize> {
        let idx = self.in_flight.remove(&uid)?;
        if let Some(c) = self.outstanding.get_mut(&idx) {
            *c = c.saturating_sub(1);
            if *c == 0 {
                self.outstanding.remove(&idx);
            }
        }
        Some(idx)
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
    fn translations_round_trip() {
        let mut u = UserEpState::new();
        u.set_translation(3, gep(1, 0), ProtectionKey(7));
        assert_eq!(u.translation(0), None);
        assert_eq!(u.translation(3).unwrap().dst, gep(1, 0));
        assert_eq!(u.table_len(), 4);
        assert_eq!(u.index_of(gep(1, 0)), Some(3));
        assert_eq!(u.index_of(gep(2, 0)), None);
        u.clear_translation(3);
        assert_eq!(u.translation(3), None);
    }

    #[test]
    fn credits_consumed_and_recovered() {
        let mut u = UserEpState::new();
        u.set_translation(0, gep(1, 0), ProtectionKey(1));
        u.note_sent(100, 0);
        u.note_sent(101, 0);
        assert_eq!(u.outstanding(0), 2);
        assert_eq!(u.outstanding_total(), 2);
        assert_eq!(u.note_completed(100), Some(0));
        assert_eq!(u.outstanding(0), 1);
        // Unknown uid ignored.
        assert_eq!(u.note_completed(999), None);
        assert_eq!(u.note_completed(101), Some(0));
        assert_eq!(u.outstanding(0), 0);
    }

    #[test]
    fn per_destination_credit_isolation() {
        let mut u = UserEpState::new();
        u.set_translation(0, gep(1, 0), ProtectionKey(1));
        u.set_translation(1, gep(2, 0), ProtectionKey(2));
        u.note_sent(1, 0);
        u.note_sent(2, 1);
        u.note_sent(3, 1);
        assert_eq!(u.outstanding(0), 1);
        assert_eq!(u.outstanding(1), 2);
        assert_eq!(u.outstanding_total(), 3);
    }
}
