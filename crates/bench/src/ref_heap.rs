//! The scheduler the timing wheel replaced, kept as an oracle and a
//! baseline: `tests/differential.rs` checks the wheel against it on
//! seeded workloads, and `engine_bench`'s timer-churn row measures the
//! wheel's speedup over it.

// The baseline must keep the pre-wheel scheduler's costs, SipHash set included.
#![allow(clippy::disallowed_types)]

use std::collections::{BinaryHeap, HashSet};
use vnet_sim::{Due, SimTime};

struct RefEntry<E> {
    at: u64,
    seq: u64,
    id: u64,
    ev: E,
}

impl<E> PartialEq for RefEntry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl<E> Eq for RefEntry<E> {}
impl<E> PartialOrd for RefEntry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<E> Ord for RefEntry<E> {
    // BinaryHeap is a max-heap; invert so the earliest (time, seq) pops first.
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (other.at, other.seq).cmp(&(self.at, self.seq))
    }
}

/// The scheduler the wheel replaced: a binary heap with lazy tombstone
/// cancellation. Kept **only** as a differential-testing oracle and a
/// benchmark baseline — the engine never uses it. Its delivery order
/// (earliest time, then schedule order) is the specification the wheel
/// must reproduce byte-for-byte.
pub struct RefHeap<E> {
    seq: u64,
    next_id: u64,
    live: usize,
    heap: BinaryHeap<RefEntry<E>>,
    cancelled: HashSet<u64>,
    /// Bitmap (ids are dense) of entries that physically left the heap —
    /// fired, or a consumed cancellation tombstone — so `cancel` reports
    /// liveness exactly like the wheel's generation check does. A bitmap
    /// rather than a set keeps the bookkeeping out of the benchmark
    /// baseline's critical path; the *original* engine had no such
    /// tracking at all and leaked a tombstone per dead-id cancel, the
    /// leak the wheel was built to remove.
    dead: Vec<u64>,
}

impl<E> Default for RefHeap<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> RefHeap<E> {
    /// An empty reference scheduler.
    pub fn new() -> Self {
        RefHeap {
            seq: 0,
            next_id: 0,
            live: 0,
            heap: BinaryHeap::new(),
            cancelled: HashSet::new(),
            dead: Vec::new(),
        }
    }

    /// Number of live events (cancelled-but-unpopped entries excluded).
    pub fn len(&self) -> usize {
        self.live
    }

    /// Whether no live events remain.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Schedule `ev` at absolute time `at`. Ids are dense and ordered by
    /// schedule call, so the differential test can pair them with wheel
    /// ids positionally.
    pub fn schedule(&mut self, at: SimTime, ev: E) -> u64 {
        let id = self.next_id;
        self.next_id += 1;
        let seq = self.seq;
        self.seq += 1;
        self.live += 1;
        self.heap.push(RefEntry { at: at.as_nanos(), seq, id, ev });
        id
    }

    fn is_dead(&self, id: u64) -> bool {
        self.dead.get((id / 64) as usize).is_some_and(|w| w & (1 << (id % 64)) != 0)
    }

    fn mark_dead(&mut self, id: u64) {
        let w = (id / 64) as usize;
        if w >= self.dead.len() {
            self.dead.resize(w + 1, 0);
        }
        self.dead[w] |= 1 << (id % 64);
    }

    /// Cancel by id (lazy: a tombstone skips the entry when popped).
    /// Returns whether a live event was cancelled.
    pub fn cancel(&mut self, id: u64) -> bool {
        if id < self.next_id && !self.is_dead(id) && self.cancelled.insert(id) {
            self.live -= 1;
            true
        } else {
            false
        }
    }

    /// Remove and return the earliest live event at or before `deadline`;
    /// mirror of `TimingWheel::pop_due`.
    pub fn pop_due(&mut self, deadline: SimTime) -> Due<E> {
        let deadline = deadline.as_nanos();
        while let Some(e) = self.heap.pop() {
            if self.cancelled.remove(&e.id) {
                self.mark_dead(e.id);
                continue;
            }
            if e.at > deadline {
                self.heap.push(e);
                return Due::AfterDeadline;
            }
            self.live -= 1;
            self.mark_dead(e.id);
            return Due::Event { at: SimTime::from_nanos(e.at), ev: e.ev };
        }
        Due::Empty
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vnet_sim::TimingWheel;

    fn t(ns: u64) -> SimTime {
        SimTime::from_nanos(ns)
    }

    fn drain<E>(w: &mut TimingWheel<E>) -> Vec<(u64, E)> {
        let mut out = Vec::new();
        loop {
            match w.pop_due(SimTime::MAX) {
                Due::Event { at, ev } => out.push((at.as_nanos(), ev)),
                Due::Empty => return out,
                Due::AfterDeadline => unreachable!(),
            }
        }
    }

    #[test]
    fn ref_heap_matches_wheel_on_a_small_script() {
        let mut w = TimingWheel::new();
        let mut h = RefHeap::new();
        let script = [(30u64, 0u32), (10, 1), (10, 2), (700, 3), (700, 4), (40, 5)];
        let mut wid = Vec::new();
        let mut hid = Vec::new();
        for &(at, ev) in &script {
            wid.push(w.schedule(t(at), ev));
            hid.push(h.schedule(t(at), ev));
        }
        w.cancel(wid[3]);
        h.cancel(hid[3]);
        let got = drain(&mut w);
        let mut want = Vec::new();
        loop {
            match h.pop_due(SimTime::MAX) {
                Due::Event { at, ev } => want.push((at.as_nanos(), ev)),
                Due::Empty => break,
                Due::AfterDeadline => unreachable!(),
            }
        }
        assert_eq!(got, want);
    }
}
