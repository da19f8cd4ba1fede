//! Hierarchical timing-wheel event scheduler.
//!
//! The engine's hot path is schedule / cancel / pop-earliest, dominated by
//! protocol timers that are scheduled and then cancelled moments later (a
//! retransmission timer dies on the first ack). A binary heap pays
//! O(log n) per operation and — with lazy tombstone deletion — retains
//! every cancelled id until its entry resurfaces at the top. The
//! [`TimingWheel`] replaces it with the classic hashed hierarchical wheel:
//!
//! * **Levels.** Six levels of 64 slots each. Level 0 buckets single
//!   nanoseconds; each higher level covers 64× the span of the one below
//!   (level *k* slots are `64^k` ns wide). Together the wheel spans
//!   `2^36` ns ≈ 68.7 simulated seconds ahead of the cursor; anything
//!   farther (including "never" timers at [`SimTime::MAX`]) waits in a
//!   spill min-heap and migrates into the wheel when the cursor gets
//!   close.
//! * **O(1) schedule.** The target level is the position of the highest
//!   bit in which the event time differs from the cursor (`at ^ cur`);
//!   the slot is the event time's base-64 digit at that level. One shift,
//!   one push.
//! * **O(1) cancel, no tombstone growth.** Every scheduled event lives in
//!   a generation-tagged slab; an [`EventId`] packs `(generation, slot)`.
//!   Cancelling checks the generation and drops the payload in place —
//!   cancelling an already-fired id finds a bumped generation and is a
//!   true no-op, so nothing accumulates (the old scheduler's
//!   cancel-after-fire inserted into a `HashSet` forever).
//! * **Determinism.** Events carry the monotone sequence number assigned
//!   at schedule time. A level-0 slot holds events of a single
//!   nanosecond; extraction scans it for the minimum sequence, so
//!   same-time events still fire in FIFO order, bit-identical to the
//!   reference heap (`vnet_bench::RefHeap` and its differential test).
//!
//! Cascading is lazy: the cursor jumps straight to the next occupied
//! slot (per-level 64-bit occupancy bitmaps make that a mask and a
//! `trailing_zeros`), and a higher-level slot is re-scattered only when
//! the cursor reaches its base time. Re-scattered entries land strictly
//! below their old level, so a pop terminates after at most five
//! cascades.

use crate::time::SimTime;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Number of wheel levels.
const LEVELS: usize = 6;
/// log2 of the slot count per level.
const SLOT_BITS: u32 = 6;
/// Slots per level.
const SLOTS: usize = 1 << SLOT_BITS;
/// Mask extracting one base-64 digit.
const DIGIT_MASK: u64 = (SLOTS as u64) - 1;
/// Events at `at ^ cur >= 2^HORIZON_BITS` spill to the overflow heap.
const HORIZON_BITS: u32 = SLOT_BITS * LEVELS as u32;

/// Identifier of a scheduled event, usable for cancellation.
///
/// Packs a slab slot index (low 32 bits) and that slot's generation at
/// schedule time (high 32 bits). The generation is bumped whenever the
/// slot's event fires or is cancelled, so a stale id can never cancel an
/// unrelated later event.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct EventId(u64);

impl EventId {
    /// A sentinel id that never matches a live event.
    pub const NONE: EventId = EventId(u64::MAX);

    fn new(generation: u32, idx: u32) -> Self {
        EventId(((generation as u64) << 32) | idx as u64)
    }

    fn generation(self) -> u32 {
        (self.0 >> 32) as u32
    }

    fn idx(self) -> u32 {
        self.0 as u32
    }
}

/// What [`TimingWheel::pop_due`] found.
pub enum Due<E> {
    /// The earliest event was at or before the deadline; it has been
    /// removed and the cursor advanced to its timestamp.
    Event {
        /// The event's timestamp.
        at: SimTime,
        /// The event payload.
        ev: E,
    },
    /// Events remain, but the earliest lies strictly after the deadline.
    /// Nothing was removed.
    AfterDeadline,
    /// No live events remain.
    Empty,
}

struct Payload<E> {
    at: u64,
    seq: u64,
    ev: E,
}

struct SlabEntry<E> {
    generation: u32,
    payload: Option<Payload<E>>,
}

/// A far-future event parked outside the wheel horizon. Ordered by
/// `(at, seq)` so the heap surfaces them in firing order.
#[derive(PartialEq, Eq, PartialOrd, Ord)]
struct Spill {
    at: u64,
    seq: u64,
    idx: u32,
}

/// The hierarchical timing wheel. See the module docs for the design.
pub struct TimingWheel<E> {
    /// Cursor: no live event is earlier than this. Advances monotonically
    /// and never beyond the engine's externally visible clock.
    cur: u64,
    /// Monotone sequence counter for FIFO tie-breaking.
    seq: u64,
    /// Live (scheduled, not yet fired or cancelled) event count.
    live: usize,
    /// `LEVELS * SLOTS` buckets of slab indices, flattened level-major.
    slots: Vec<Vec<u32>>,
    /// Per-level occupancy bitmaps (bit = slot possibly non-empty).
    occupancy: [u64; LEVELS],
    /// Events beyond the wheel horizon, earliest on top.
    spill: BinaryHeap<Reverse<Spill>>,
    /// Event storage; `EventId`s index into this.
    slab: Vec<SlabEntry<E>>,
    /// Free slab slots awaiting reuse.
    free: Vec<u32>,
    /// Reusable scratch for cascading a slot (capacity is retained).
    cascade_buf: Vec<u32>,
}

impl<E> Default for TimingWheel<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> TimingWheel<E> {
    /// An empty wheel with the cursor at time zero.
    pub fn new() -> Self {
        TimingWheel {
            cur: 0,
            seq: 0,
            live: 0,
            slots: (0..LEVELS * SLOTS).map(|_| Vec::new()).collect(),
            occupancy: [0; LEVELS],
            spill: BinaryHeap::new(),
            slab: Vec::new(),
            free: Vec::new(),
            cascade_buf: Vec::new(),
        }
    }

    /// Number of live (scheduled, not fired, not cancelled) events.
    pub fn len(&self) -> usize {
        self.live
    }

    /// Whether no live events remain.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Retained storage, for leak regression tests:
    /// `(slab slots, spill heap capacity, summed bucket capacity)`.
    /// None of these may grow across steady-state fire/cancel cycles.
    pub fn capacity_probe(&self) -> (usize, usize, usize) {
        let buckets = self.slots.iter().map(Vec::capacity).sum();
        (self.slab.len(), self.spill.capacity(), buckets)
    }

    /// Schedule `ev` at absolute time `at` (clamped up to the cursor, so
    /// a "past" time fires as soon as possible). Returns an id usable
    /// with [`TimingWheel::cancel`].
    pub fn schedule(&mut self, at: SimTime, ev: E) -> EventId {
        let at = at.as_nanos().max(self.cur);
        let seq = self.seq;
        self.seq += 1;
        let idx = match self.free.pop() {
            Some(idx) => {
                self.slab[idx as usize].payload = Some(Payload { at, seq, ev });
                idx
            }
            None => {
                let idx = self.slab.len() as u32;
                debug_assert!(idx != u32::MAX, "slab exhausted");
                self.slab.push(SlabEntry { generation: 0, payload: Some(Payload { at, seq, ev }) });
                idx
            }
        };
        self.live += 1;
        self.place(at, seq, idx);
        EventId::new(self.slab[idx as usize].generation, idx)
    }

    /// Schedule `ev` at `at` with a caller-supplied tie-break key instead
    /// of the wheel's monotone counter. Same-time events order by key, so
    /// two wheels fed the same `(at, key)` pairs pop identically no matter
    /// which wheel scheduled what first — the property the parallel
    /// executor relies on to merge cross-shard traffic deterministically.
    ///
    /// Keys must be unique per wheel and must not collide with the
    /// internal counter; by convention callers set bit 63 (the counter
    /// can never reach it), which also makes keyed events sort after
    /// counter-scheduled events at the same nanosecond in every wheel.
    pub fn schedule_keyed(&mut self, at: SimTime, key: u64, ev: E) -> EventId {
        let at = at.as_nanos().max(self.cur);
        let idx = match self.free.pop() {
            Some(idx) => {
                self.slab[idx as usize].payload = Some(Payload { at, seq: key, ev });
                idx
            }
            None => {
                let idx = self.slab.len() as u32;
                debug_assert!(idx != u32::MAX, "slab exhausted");
                self.slab
                    .push(SlabEntry { generation: 0, payload: Some(Payload { at, seq: key, ev }) });
                idx
            }
        };
        self.live += 1;
        self.place(at, key, idx);
        EventId::new(self.slab[idx as usize].generation, idx)
    }

    /// A conservative lower bound on the earliest live event's timestamp:
    /// never later than the true minimum, possibly earlier (cancelled
    /// entries and coarse high-level slots round down). `None` when no
    /// live events remain. O(levels) — no slab scan.
    ///
    /// The parallel executor sizes synchronization epochs from this bound;
    /// "too early" merely shrinks an epoch, while "too late" would break
    /// conservative causality, so the bound errs low.
    pub fn next_at_bound(&self) -> Option<SimTime> {
        if self.live == 0 {
            return None;
        }
        let mut best: Option<u64> = None;
        for level in 0..LEVELS {
            let digit = ((self.cur >> (SLOT_BITS * level as u32)) & DIGIT_MASK) as u32;
            let mask = if level == 0 {
                u64::MAX << digit
            } else if digit == 63 {
                0
            } else {
                u64::MAX << (digit + 1)
            };
            let hits = self.occupancy[level] & mask;
            if hits != 0 {
                let d = hits.trailing_zeros() as u64;
                let shift = SLOT_BITS * level as u32;
                let base = if level == 0 {
                    (self.cur & !DIGIT_MASK) | d
                } else {
                    (self.cur & !((1u64 << (shift + SLOT_BITS)) - 1)) | (d << shift)
                };
                best = Some(base);
                break;
            }
        }
        if let Some(Reverse(top)) = self.spill.peek() {
            best = Some(best.map_or(top.at, |b| b.min(top.at)));
        }
        Some(SimTime::from_nanos(best.unwrap_or(self.cur)))
    }

    /// Cancel a scheduled event. Cancelling [`EventId::NONE`], an
    /// already-fired id, or an already-cancelled id is a no-op that
    /// retains nothing. Returns whether a live event was cancelled.
    pub fn cancel(&mut self, id: EventId) -> bool {
        if id == EventId::NONE {
            return false;
        }
        let Some(s) = self.slab.get_mut(id.idx() as usize) else { return false };
        if s.generation != id.generation() || s.payload.is_none() {
            return false;
        }
        // Drop the payload in place; the bucket (or spill) entry that
        // still references this slot is purged when a scan reaches it,
        // which also returns the slot to the free list.
        s.payload = None;
        s.generation = s.generation.wrapping_add(1);
        self.live -= 1;
        true
    }

    /// Bucket an event: the level is the highest base-64 digit in which
    /// `at` differs from the cursor; beyond the horizon it spills.
    fn place(&mut self, at: u64, seq: u64, idx: u32) {
        debug_assert!(at >= self.cur);
        let x = at ^ self.cur;
        if x >> HORIZON_BITS != 0 {
            self.spill.push(Reverse(Spill { at, seq, idx }));
        } else {
            let level = ((63 - (x | 1).leading_zeros()) / SLOT_BITS) as usize;
            let digit = ((at >> (SLOT_BITS * level as u32)) & DIGIT_MASK) as usize;
            self.slots[level * SLOTS + digit].push(idx);
            self.occupancy[level] |= 1 << digit;
        }
    }

    /// Advance the cursor. Crossing a horizon boundary migrates
    /// now-eligible spill entries into the wheel (their high bits match
    /// the cursor again, so leaving them would break the invariant that
    /// every spill entry fires after every wheel entry).
    fn advance_cur(&mut self, t: u64) {
        debug_assert!(t >= self.cur, "cursor went backwards");
        let crossed = (self.cur >> HORIZON_BITS) != (t >> HORIZON_BITS);
        self.cur = t;
        if crossed {
            while let Some(Reverse(top)) = self.spill.peek() {
                if (top.at ^ self.cur) >> HORIZON_BITS != 0 {
                    break; // min `at` out of range → all are
                }
                let Some(Reverse(sp)) = self.spill.pop() else { unreachable!() };
                if self.slab[sp.idx as usize].payload.is_none() {
                    self.free_slot(sp.idx);
                } else {
                    self.place(sp.at, sp.seq, sp.idx);
                }
            }
        }
    }

    /// Return a slab slot to the free list once its last bucket/spill
    /// reference is gone.
    fn free_slot(&mut self, idx: u32) {
        self.free.push(idx);
    }

    /// Re-scatter one higher-level slot across lower levels. Entries land
    /// strictly below `level` because the cursor already matches their
    /// digits at `level` and above.
    fn cascade(&mut self, level: usize, digit: usize) {
        let mut buf = std::mem::take(&mut self.cascade_buf);
        std::mem::swap(&mut buf, &mut self.slots[level * SLOTS + digit]);
        self.occupancy[level] &= !(1 << digit);
        for idx in buf.drain(..) {
            match self.slab[idx as usize].payload.as_ref().map(|p| (p.at, p.seq)) {
                None => self.free_slot(idx),
                Some((at, seq)) => self.place(at, seq, idx),
            }
        }
        self.cascade_buf = buf;
    }

    /// Remove and return the earliest live event if it is at or before
    /// `deadline`; otherwise report what blocked ([`Due::AfterDeadline`]
    /// or [`Due::Empty`]). The cursor never advances past `deadline`, so
    /// callers may keep scheduling at any time ≥ `deadline` afterwards.
    pub fn pop_due(&mut self, deadline: SimTime) -> Due<E> {
        let deadline = deadline.as_nanos();
        if self.live == 0 {
            // Fast exact check (dead entries are purged lazily, so the
            // occupancy bitmaps alone cannot distinguish "all cancelled"
            // from "events remain"). Returning here also keeps the cursor
            // untouched. With `live > 0`, any `AfterDeadline` below is
            // exact too: slots are scanned in time order, so every live
            // event sits at or beyond the slot that blocked the scan.
            return Due::Empty;
        }
        let cur0 = self.cur;
        loop {
            // First occupied slot, lowest level first. Level-0 entries all
            // precede level-1 entries (they share the cursor's window one
            // level up), and so on; spill entries come after everything.
            let mut found = None;
            for level in 0..LEVELS {
                let digit = ((self.cur >> (SLOT_BITS * level as u32)) & DIGIT_MASK) as u32;
                // Level 0 may hold events at the cursor itself; higher
                // levels only hold digits strictly ahead of the cursor's.
                let mask = if level == 0 {
                    u64::MAX << digit
                } else if digit == 63 {
                    0
                } else {
                    u64::MAX << (digit + 1)
                };
                let hits = self.occupancy[level] & mask;
                if hits != 0 {
                    found = Some((level, hits.trailing_zeros() as u64));
                    break;
                }
            }
            let Some((level, digit)) = found else {
                // Wheel empty: the next event, if any, is in the spill.
                while let Some(Reverse(top)) = self.spill.peek() {
                    if self.slab[top.idx as usize].payload.is_some() {
                        break;
                    }
                    let idx = top.idx;
                    self.spill.pop();
                    self.free_slot(idx);
                }
                let Some(Reverse(top)) = self.spill.peek() else {
                    // Nothing live anywhere. The scan may have walked the
                    // cursor forward purging cancelled entries; rewind it
                    // so a caller whose clock never advanced (`Empty`
                    // under an infinite deadline) can keep scheduling at
                    // its own `now` without the schedule clamp deferring
                    // those events.
                    debug_assert_eq!(self.live, 0);
                    self.cur = cur0;
                    return Due::Empty;
                };
                if top.at > deadline {
                    return Due::AfterDeadline;
                }
                // Jump the cursor to the spill front; the horizon
                // crossing migrates it (and any peers) into the wheel.
                let t = top.at;
                self.advance_cur(t);
                continue;
            };
            if level == 0 {
                // Purge cancelled entries, then extract the minimum
                // sequence number — FIFO among same-nanosecond events.
                let slot = &mut self.slots[digit as usize];
                let mut i = 0;
                while i < slot.len() {
                    let idx = slot[i];
                    if self.slab[idx as usize].payload.is_none() {
                        slot.swap_remove(i);
                        self.free.push(idx);
                    } else {
                        i += 1;
                    }
                }
                if slot.is_empty() {
                    self.occupancy[0] &= !(1 << digit);
                    continue;
                }
                let slot_time = (self.cur & !DIGIT_MASK) | digit;
                if slot_time > deadline {
                    return Due::AfterDeadline;
                }
                let mut best = 0;
                let mut best_seq = u64::MAX;
                for (i, &idx) in slot.iter().enumerate() {
                    let Some(p) = self.slab[idx as usize].payload.as_ref() else { continue };
                    if p.seq < best_seq {
                        best_seq = p.seq;
                        best = i;
                    }
                }
                let slot = &mut self.slots[digit as usize];
                let idx = slot.swap_remove(best);
                if slot.is_empty() {
                    self.occupancy[0] &= !(1 << digit);
                }
                let s = &mut self.slab[idx as usize];
                let Some(payload) = s.payload.take() else { unreachable!() };
                s.generation = s.generation.wrapping_add(1);
                self.free.push(idx);
                self.live -= 1;
                debug_assert_eq!(payload.at, slot_time);
                self.advance_cur(payload.at);
                return Due::Event { at: SimTime::from_nanos(payload.at), ev: payload.ev };
            }
            // A higher-level slot: everything in it is at or after its
            // base time. If the base is past the deadline, so is every
            // remaining event; otherwise move the cursor to the base and
            // re-scatter the slot one or more levels down.
            let shift = SLOT_BITS * level as u32;
            let base = (self.cur & !((1u64 << (shift + SLOT_BITS)) - 1)) | (digit << shift);
            if base > deadline {
                return Due::AfterDeadline;
            }
            self.advance_cur(base);
            self.cascade(level, digit as usize);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
    fn orders_across_levels_and_spill() {
        let mut w = TimingWheel::new();
        // One event per level span, plus a spill and a "never" timer.
        let times =
            [5u64, 70, 5_000, 300_000, 20_000_000, 1_500_000_000, 1 << 40, u64::MAX];
        for (i, &at) in times.iter().enumerate() {
            w.schedule(t(at), i);
        }
        let got = drain(&mut w);
        let want: Vec<(u64, usize)> = times.iter().enumerate().map(|(i, &at)| (at, i)).collect();
        assert_eq!(got, want);
        assert!(w.is_empty());
    }

    #[test]
    fn same_time_is_fifo_even_after_cascade() {
        let mut w = TimingWheel::new();
        // Both land in a level-2 slot, cascade together, and must still
        // pop in schedule order.
        w.schedule(t(10_000), 'a');
        w.schedule(t(10_000), 'b');
        w.schedule(t(9_999), 'c');
        let got = drain(&mut w);
        assert_eq!(got, vec![(9_999, 'c'), (10_000, 'a'), (10_000, 'b')]);
    }

    #[test]
    fn cancel_is_exact_and_cancel_after_fire_is_noop() {
        let mut w = TimingWheel::new();
        let a = w.schedule(t(10), 1);
        let b = w.schedule(t(20), 2);
        assert!(w.cancel(a));
        assert!(!w.cancel(a), "double cancel");
        assert_eq!(w.len(), 1);
        let Due::Event { ev, .. } = w.pop_due(SimTime::MAX) else { panic!() };
        assert_eq!(ev, 2);
        assert!(!w.cancel(b), "cancel after fire");
        assert!(!w.cancel(EventId::NONE));
        assert!(w.is_empty());
    }

    #[test]
    fn deadline_leaves_future_events_and_cursor_stays_schedulable() {
        let mut w = TimingWheel::new();
        w.schedule(t(1_000_000), 1); // level-3 territory
        assert!(matches!(w.pop_due(t(50)), Due::AfterDeadline));
        // The cursor must not have run ahead of the deadline: scheduling
        // just after it still works and fires first.
        w.schedule(t(60), 2);
        let got = drain(&mut w);
        assert_eq!(got, vec![(60, 2), (1_000_000, 1)]);
    }

    #[test]
    fn spill_respects_deadline() {
        let mut w = TimingWheel::new();
        w.schedule(t(1 << 40), 1);
        assert!(matches!(w.pop_due(t(1 << 39)), Due::AfterDeadline));
        assert!(matches!(w.pop_due(SimTime::MAX), Due::Event { .. }));
        assert!(matches!(w.pop_due(SimTime::MAX), Due::Empty));
    }

    #[test]
    fn spill_migrates_on_horizon_crossing() {
        let mut w = TimingWheel::new();
        // Two spill entries close together; popping the first must pull
        // the second into the wheel so later near inserts cannot bypass it.
        w.schedule(t((1 << 40) + 5), 'x');
        w.schedule(t((1 << 40) + 9), 'y');
        let Due::Event { at, ev } = w.pop_due(SimTime::MAX) else { panic!() };
        assert_eq!((at.as_nanos(), ev), ((1 << 40) + 5, 'x'));
        w.schedule(t((1 << 40) + 7), 'z');
        let got = drain(&mut w);
        assert_eq!(got, vec![((1 << 40) + 7, 'z'), ((1 << 40) + 9, 'y')]);
    }

    #[test]
    fn fire_then_cancel_cycles_do_not_grow_memory() {
        // The old scheduler's `cancelled` HashSet grew by one entry per
        // cancel-after-fire, forever. The slab must stay at its steady
        // state instead.
        let mut w = TimingWheel::new();
        for round in 0..1_000_000u64 {
            let id = w.schedule(t(round + 1), round);
            assert!(matches!(w.pop_due(SimTime::MAX), Due::Event { .. }));
            w.cancel(id); // after fire: must retain nothing
        }
        // One live event at a time, so the slab never needs more than a
        // couple of slots; 1M leaked tombstones would dwarf these bounds.
        let (slab, spill, buckets) = w.capacity_probe();
        assert!(slab <= 4, "slab grew to {slab}");
        assert_eq!(spill, 0, "spill retained {spill} entries");
        assert!(buckets <= 4096, "bucket capacity grew to {buckets}");
    }

    #[test]
    fn keyed_events_order_by_key_regardless_of_insertion_order() {
        const K: u64 = 1 << 63;
        // Two wheels fed the same (at, key) pairs in opposite insertion
        // orders must pop identically — and keyed events must sort after
        // counter-scheduled events at the same nanosecond.
        let mut a = TimingWheel::new();
        let mut b = TimingWheel::new();
        a.schedule_keyed(t(100), K | 7, 'x');
        a.schedule_keyed(t(100), K | 3, 'y');
        a.schedule(t(100), 'n');
        b.schedule(t(100), 'n');
        b.schedule_keyed(t(100), K | 3, 'y');
        b.schedule_keyed(t(100), K | 7, 'x');
        let got_a = drain(&mut a);
        let got_b = drain(&mut b);
        assert_eq!(got_a, got_b);
        assert_eq!(got_a, vec![(100, 'n'), (100, 'y'), (100, 'x')]);
    }

    #[test]
    fn next_at_bound_is_a_lower_bound() {
        let mut w = TimingWheel::new();
        assert!(w.next_at_bound().is_none());
        w.schedule(t(5_000), 1); // level-2 slot: bound may round down
        let b = w.next_at_bound().unwrap().as_nanos();
        assert!(b <= 5_000, "bound {b} exceeds true minimum");
        w.schedule(t(12), 2);
        let b = w.next_at_bound().unwrap().as_nanos();
        assert!(b <= 12);
        // Spill entries participate too.
        let mut s = TimingWheel::new();
        s.schedule(t(1 << 40), 3);
        let b = s.next_at_bound().unwrap().as_nanos();
        assert!(b <= (1 << 40));
        // After popping everything the bound disappears.
        drain(&mut w);
        assert!(w.next_at_bound().is_none());
    }
}
