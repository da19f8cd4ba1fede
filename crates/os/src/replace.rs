//! Endpoint replacement policies.
//!
//! The paper's system "replaces a resident endpoint at random" (§4.2).
//! LRU and FIFO variants exist for the ablation benchmarks that DESIGN.md
//! calls out — random is cheap and avoids pathological thrash cycles under
//! round-robin access patterns, which is exactly what the contrast shows.

use vnet_nic::EpId;
use vnet_sim::{SimRng, SimTime};

/// Which resident endpoint to evict when every frame is occupied.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ReplacementPolicy {
    /// Uniform random among resident endpoints (the paper's choice).
    Random,
    /// Least recently *activated* (load time / last fault as the proxy the
    /// OS actually observes).
    Lru,
    /// First loaded, first evicted.
    Fifo,
}

impl ReplacementPolicy {
    /// Choose a victim from `candidates` (endpoint, last-activity, load-seq)
    /// tuples. Returns `None` when empty.
    pub fn choose(
        self,
        rng: &mut SimRng,
        candidates: &[(EpId, SimTime, u64)],
    ) -> Option<EpId> {
        if candidates.is_empty() {
            return None;
        }
        Some(match self {
            ReplacementPolicy::Random => candidates[rng.index(candidates.len())].0,
            ReplacementPolicy::Lru => {
                candidates.iter().min_by_key(|c| c.1).expect("nonempty").0
            }
            ReplacementPolicy::Fifo => {
                candidates.iter().min_by_key(|c| c.2).expect("nonempty").0
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vnet_sim::FxHashSet;

    fn cands() -> Vec<(EpId, SimTime, u64)> {
        vec![
            (EpId(0), SimTime::from_nanos(500), 2),
            (EpId(1), SimTime::from_nanos(100), 3),
            (EpId(2), SimTime::from_nanos(900), 1),
        ]
    }

    #[test]
    fn empty_has_no_victim() {
        let mut rng = SimRng::seed_from_u64(1);
        assert_eq!(ReplacementPolicy::Random.choose(&mut rng, &[]), None);
    }

    #[test]
    fn lru_picks_stalest() {
        let mut rng = SimRng::seed_from_u64(1);
        assert_eq!(ReplacementPolicy::Lru.choose(&mut rng, &cands()), Some(EpId(1)));
    }

    #[test]
    fn fifo_picks_oldest_load() {
        let mut rng = SimRng::seed_from_u64(1);
        assert_eq!(ReplacementPolicy::Fifo.choose(&mut rng, &cands()), Some(EpId(2)));
    }

    #[test]
    fn random_covers_all_candidates() {
        let mut rng = SimRng::seed_from_u64(1);
        let mut seen = FxHashSet::default();
        for _ in 0..200 {
            seen.insert(ReplacementPolicy::Random.choose(&mut rng, &cands()).unwrap());
        }
        assert_eq!(seen.len(), 3, "random must eventually pick every candidate");
    }
}
