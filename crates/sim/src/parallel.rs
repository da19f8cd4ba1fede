//! Conservative parallel discrete-event execution.
//!
//! This module runs N *shards* — each a self-contained single-threaded
//! simulation with its own [`TimingWheel`](crate::wheel::TimingWheel) —
//! on `std::thread::scope` workers, synchronized in epochs bounded by a
//! **per-shard-pair lookahead** [`PairLookahead`]: `L(j, i)` is the
//! minimum simulated latency between shard `j` putting a packet on a
//! cross-shard link and shard `i` observing it. For the vnet stack that
//! is the minimum cross-shard ascending-path link latency from any of
//! `j`'s hosts to any of `i`'s.
//!
//! ## Output bounds and the relay delay
//!
//! Most events cannot put a packet on the wire at their own timestamp.
//! In the vnet stack every frame leaves only after a NIC firmware step,
//! so a packet arriving at `t` (or any other ordinary event at `t`)
//! cannot cause an injection before `t + R`, where `R` — the lookahead's
//! *relay delay* — is the cheapest firmware step that can emit. Each
//! shard therefore publishes an **output bound**, the earliest time it
//! can inject cross-shard mail:
//!
//! ```text
//! O_j = min(earliest scheduled emitting event on j,
//!           next event on j + R,
//!           earliest in-flight mail to j + R)
//! ```
//!
//! With `R = 0` (some event may inject with no delay) this is exactly
//! the shard's effective bound `Ḃ_j = min(next event, in-flight mail)`.
//!
//! ## Epoch protocol
//!
//! Each epoch: (1) every worker publishes its wheel's next-event bound,
//! its earliest scheduled emitting event (see [`ParShard::next_emit_at`])
//! and, per destination, the earliest delivery time of the cross-shard
//! mail it generated last epoch; (2) one spin barrier; (3) every worker
//! computes the same effective bounds `Ḃ` and output bounds `O` — in-flight
//! mail counts toward its *receiver*, which ingests it this epoch — then
//! runs to its own horizon
//!
//! ```text
//! E_i = min_j (O_j + D_R(j, i)) − 1
//! ```
//!
//! where `D_R` is the shortest-path closure of `L` over the shard
//! digraph in which every intermediate shard adds `R` (a relayed packet
//! is re-emitted no earlier than one firmware step after it arrives):
//! a direct pair costs `L`, a relay `L + R + L`, and `D_R(i, i)` — the
//! echo of a shard's own sends — `2L + R` on a symmetric pair. Any
//! packet not yet injected anywhere leaves shard `j` at `≥ O_j`, so mail
//! it (transitively) generates for `i` is stamped `≥ O_j + D_R(j, i) >
//! E_i` — always delivered before the epoch that could observe it.
//!
//! When `R > 0` the horizon is also **balanced**: `E_i ≤ min_j O_j +
//! min_{j≠i} D_R(j, i) − 1`. Without it the shard holding the global
//! minimum gets a window up to its own echo while its peers get only one
//! hop, and the two leapfrog each other, one idling while the other
//! runs. The cap only shrinks windows, so it is always safe. With
//! `R = 0` the horizon is exactly the plain `min_j (Ḃ_j + D(j, i)) − 1`.
//!
//! Horizons are capped at the next fault-campaign transition and at the
//! deadline. Publication slots are double-buffered by epoch parity, so a
//! single barrier per epoch suffices. Empty stretches of simulated time
//! cost nothing: the bounds jump straight to the next event anywhere in
//! the system. The quiescence and termination tests use the raw
//! effective bounds `Ḃ`, never `O`.
//!
//! ## Barrier elision
//!
//! Two epochs' worth of barrier crossings are removed outright. Mail
//! scans are batched behind a per-epoch publication bitmap: a worker
//! that published no mail never forces the other `n − 1` workers to
//! touch its `n` mailbox slots. And the final epoch of a finite-deadline
//! run is detected *inside* the epoch — when every shard's horizon
//! already reaches the deadline (a fact each worker computes from the
//! same published bounds) the workers run their last window and exit
//! without re-publishing, re-barriering, or re-checking. Mail generated
//! in that last window is provably timestamped past the deadline; it is
//! left in each shard's outbox for the caller to relay (see
//! [`run_conservative`]'s contract).
//!
//! ## Determinism
//!
//! Results are byte-identical to a sequential run for any shard count
//! because *order never depends on arrival*: cross-shard mail is
//! scheduled with [`schedule_keyed`](crate::wheel::TimingWheel::schedule_keyed)
//! under a key that is a pure function of the traffic ([`ingress_key`]:
//! `INGRESS_KEY_BIT | source << 40 | per-source sequence`), and wheels
//! break same-time ties by key. The sequential engine routes the same
//! messages through the same keyed path, so both executors process the
//! same events at the same timestamps in the same order. The epoch
//! schedule itself is a pure function of the published bounds, so the
//! per-shard epoch counts ([`ShardEpochs`]) are deterministic too.
//!
//! ## `Send` discipline
//!
//! Shard state is `Rc`-linked and deliberately not `Send`. [`SendCell`]
//! is the audited escape hatch: constructing one is `unsafe`, with the
//! invariant that the wrapped value is a *closed* `Rc` graph — every
//! strong count is reachable only from inside the value — so moving the
//! whole cell between threads is sound. Mail itself must be genuinely
//! `Send` (the vnet stack's wire frames carry frozen `Arc` payloads, so
//! crossing a shard moves a pointer, not a copy of the body).

use crate::time::{SimDuration, SimTime};
use std::cell::UnsafeCell;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};

/// Bit 63: set on every cross-shard ingress tie-break key so keyed events
/// sort after counter-scheduled events at the same nanosecond (the wheel
/// counter can never reach bit 63).
pub const INGRESS_KEY_BIT: u64 = 1 << 63;

/// The canonical tie-break key of an ingress from host `src` with
/// per-source sequence number `seq`: [`INGRESS_KEY_BIT`] set, then
/// `(src, seq)` in lexicographic order. Exact for `seq < 2^40` and
/// `src < 2^23`.
#[inline]
pub const fn ingress_key(src: u32, seq: u64) -> u64 {
    INGRESS_KEY_BIT | ((src as u64) << 40) | seq
}

/// Fallback epoch width when a shard digraph has no cycle information at
/// all (a single shard, or a campaign interval with every cross link
/// down): ~18 simulated minutes, far beyond any workload's horizon, so
/// the "epoch" degenerates to one `run_until` per bounds refresh.
const OPEN_HORIZON: u64 = 1 << 40;

/// Per-shard-pair conservative lookahead, closed over relay paths and
/// sliced by fault-campaign interval.
///
/// Built from one or more `n × n` *edge* matrices (`edge[j * n + i]` =
/// minimum latency of direct mail `j → i` in nanoseconds, `u64::MAX`
/// when no such mail is possible), each tagged with the simulated time
/// at which it takes effect, plus the relay delay `R` (zero unless set
/// with [`PairLookahead::with_relay`]). Construction runs a min-plus
/// Floyd–Warshall per interval, producing the closure `D_R(j, i)` =
/// cheapest way any influence can travel from `j` to `i` through any
/// sequence of shards, each intermediate shard adding `R` — including
/// `D_R(i, i)`, the cheapest *cycle* through `i`.
///
/// Campaign intervals exist because a scheduled `LinkUp` can *lower* a
/// pair's latency floor mid-run; an epoch computed from the wider
/// pre-transition matrix must therefore never extend past the next
/// transition instant, which [`PairLookahead::horizon`] enforces.
#[derive(Clone, Debug)]
pub struct PairLookahead {
    n: usize,
    /// Relay delay `R` in nanoseconds (see the module docs).
    relay: u64,
    /// Interval start times in nanoseconds; `starts[0] == 0`.
    starts: Vec<u64>,
    /// The raw edge matrix of each interval (kept so the relay delay can
    /// be changed after construction).
    edges: Vec<Vec<u64>>,
    /// One closure matrix per interval (`mats[k][j * n + i]`), entries
    /// saturating at `u64::MAX`, floor-clamped to 1 ns.
    mats: Vec<Vec<u64>>,
    /// Per interval and shard `i`: `min_{j≠i} mats[k][j * n + i]`, the
    /// balanced cap's hop (`u64::MAX` when nothing reaches `i`).
    caps: Vec<Vec<u64>>,
}

impl PairLookahead {
    /// A single-interval lookahead with the same latency `l` between
    /// every ordered pair — the pre-per-pair behavior, used by harness
    /// tests and as the degenerate plan for uniform topologies.
    ///
    /// # Panics
    /// Panics if `l` is zero (no conservative window exists).
    pub fn uniform(n: usize, l: SimDuration) -> Self {
        assert!(l.as_nanos() > 0, "lookahead must be positive");
        let lns = l.as_nanos();
        let mut edges = vec![u64::MAX; n * n];
        for j in 0..n {
            for i in 0..n {
                if i != j {
                    edges[j * n + i] = lns;
                }
            }
        }
        Self::from_edge_intervals(n, vec![(0, edges)])
    }

    /// Build from `(start_ns, edge_matrix)` intervals (see type docs).
    /// Intervals must be sorted by start time with `intervals[0].0 == 0`.
    ///
    /// # Panics
    /// Panics on an empty interval list, a misordered schedule, a matrix
    /// of the wrong dimension, or a zero edge latency.
    pub fn from_edge_intervals(n: usize, intervals: Vec<(u64, Vec<u64>)>) -> Self {
        assert!(n >= 1, "no shards");
        assert!(!intervals.is_empty(), "no lookahead intervals");
        assert_eq!(intervals[0].0, 0, "first interval must start at time zero");
        let mut starts = Vec::with_capacity(intervals.len());
        let mut edges = Vec::with_capacity(intervals.len());
        for (start, e) in intervals {
            assert!(starts.last().is_none_or(|&p| p < start), "intervals out of order");
            assert_eq!(e.len(), n * n, "edge matrix dimension mismatch");
            assert!(
                e.iter().all(|&x| x > 0),
                "zero-latency cross-shard edge destroys the lookahead bound"
            );
            starts.push(start);
            edges.push(e);
        }
        let mut look =
            PairLookahead { n, relay: 0, starts, edges, mats: Vec::new(), caps: Vec::new() };
        look.close();
        look
    }

    /// The same plan with relay delay `r`: the minimum delay between any
    /// event that cannot inject at its own timestamp (an arriving packet
    /// included) and the earliest injection it can cause. Zero restores
    /// the plain horizon.
    pub fn with_relay(mut self, r: SimDuration) -> Self {
        self.relay = r.as_nanos();
        self.close();
        self
    }

    /// The relay delay `R` this plan was closed with.
    pub fn relay(&self) -> SimDuration {
        SimDuration::from_nanos(self.relay)
    }

    /// Recompute every interval's closure and balanced-cap column.
    fn close(&mut self) {
        let n = self.n;
        self.mats = self.edges.iter().map(|e| closure(n, e, self.relay)).collect();
        self.caps = self
            .mats
            .iter()
            .map(|m| {
                (0..n)
                    .map(|i| (0..n).filter(|&j| j != i).map(|j| m[j * n + i]).min())
                    .map(|c| c.unwrap_or(u64::MAX))
                    .collect()
            })
            .collect();
    }

    /// Number of shards this plan covers.
    pub fn shards(&self) -> usize {
        self.n
    }

    /// The tightest pair bound in the static (time-zero) matrix — what a
    /// single global lookahead would have been. Informational.
    pub fn min_pair(&self) -> Option<SimDuration> {
        self.mats[0]
            .iter()
            .enumerate()
            .filter(|&(k, _)| k / self.n != k % self.n)
            .map(|(_, &d)| d)
            .min()
            .filter(|&d| d != u64::MAX)
            .map(SimDuration::from_nanos)
    }

    /// Index of the interval containing time `t`.
    fn interval(&self, t: u64) -> usize {
        self.starts.partition_point(|&s| s <= t) - 1
    }

    /// Shard `me`'s epoch horizon given the output bound vector `out`
    /// (one entry per shard, `u64::MAX` = idle), clamped to the deadline
    /// and to the end of the campaign interval the earliest output bound
    /// falls in. Every worker evaluates this from identical published
    /// data, so any worker can also evaluate any *other* shard's horizon
    /// (the final-epoch elision depends on that).
    pub fn horizon(&self, out: &[u64], me: usize, deadline_ns: u64) -> u64 {
        debug_assert_eq!(out.len(), self.n);
        let g = out.iter().copied().min().unwrap_or(u64::MAX);
        debug_assert_ne!(g, u64::MAX, "horizon of an idle system");
        let k = self.interval(g);
        let mat = &self.mats[k];
        let mut e = u64::MAX;
        for (j, &o) in out.iter().enumerate() {
            e = e.min(o.saturating_add(mat[j * self.n + me]));
        }
        if self.relay > 0 {
            // Balanced cap (module docs): no shard runs further ahead of
            // the slowest output than one hop.
            e = e.min(g.saturating_add(self.caps[k][me]));
        }
        // No relay path constrains this shard (single shard, or every
        // cross link scheduled down): take a huge but finite window so
        // quiescence detection still loops.
        if e == u64::MAX {
            e = g.saturating_add(OPEN_HORIZON);
        }
        let mut e = e - 1;
        if k + 1 < self.starts.len() {
            // The matrix is only valid up to the next campaign
            // transition: a LinkUp there may lower latency floors.
            e = e.min(self.starts[k + 1] - 1);
        }
        e.min(deadline_ns)
    }
}

/// Min-plus Floyd–Warshall closure with saturating arithmetic, where
/// every intermediate shard on a path adds `relay` (computed by closing
/// `edge + relay` and subtracting one `relay` per entry: a path of `m`
/// edges then costs `Σ L + (m − 1)·relay`). The diagonal starts
/// unreachable, so `out[i * n + i]` ends as the cheapest cycle through
/// `i`. Entries are floor-clamped to 1 ns so a horizon is always at
/// least the bound itself.
fn closure(n: usize, edges: &[u64], relay: u64) -> Vec<u64> {
    let mut d: Vec<u64> = edges.iter().map(|&e| e.saturating_add(relay)).collect();
    for k in 0..n {
        for i in 0..n {
            let dik = d[i * n + k];
            if dik == u64::MAX {
                continue;
            }
            for j in 0..n {
                let via = dik.saturating_add(d[k * n + j]);
                if via < d[i * n + j] {
                    d[i * n + j] = via;
                }
            }
        }
    }
    for v in d.iter_mut() {
        if *v != u64::MAX {
            *v -= relay;
        }
        *v = (*v).max(1);
    }
    d
}

/// One shard of a partitioned simulation, as seen by the executor.
///
/// Implementations are single-threaded simulations; the executor moves
/// each shard to a worker thread for the duration of a run and calls
/// these hooks strictly from that worker, separated by barriers.
pub trait ParShard {
    /// A cross-shard message. Sent by value between workers, so it must
    /// be genuinely `Send` (share only atomically counted, frozen data).
    type Mail: Send;

    /// Process all pending events with timestamp ≤ `deadline`, leaving
    /// the local clock at `deadline`. Returns the number of events
    /// processed.
    fn run_until(&mut self, deadline: SimTime) -> u64;

    /// Conservative lower bound on the next pending local event (`None`
    /// if idle). Must never exceed the true minimum.
    fn next_at_bound(&self) -> Option<SimTime>;

    /// Lower bound on the earliest pending local event that may inject
    /// cross-shard mail *at its own timestamp* (`None` if none is
    /// scheduled). Every other event — and every ingested message — must
    /// be at least the lookahead's relay delay away from any injection it
    /// causes. Only consulted when that delay is positive; the default,
    /// the next-event bound, treats every event as emitting.
    fn next_emit_at(&self) -> Option<SimTime> {
        self.next_at_bound()
    }

    /// Told, before each epoch window, the output bound this shard's
    /// peers computed their horizons from: the shard must not inject
    /// cross-shard mail earlier (implementations may check it in debug
    /// builds).
    fn set_output_bound(&mut self, _bound: SimTime) {}

    /// Move mail generated by the last `run_until` into `out` as
    /// `(destination shard, delivery time, mail)`.
    fn drain_outbox(&mut self, out: &mut Vec<(usize, SimTime, Self::Mail)>);

    /// Accept one message for local delivery at `at` (schedule it keyed).
    /// `at` is always strictly after every event already processed.
    fn ingest(&mut self, at: SimTime, mail: Self::Mail);

    /// Timestamp of the last event this shard processed, if any.
    fn last_event_at(&self) -> Option<SimTime>;

    /// Current local clock.
    fn now(&self) -> SimTime;

    /// Force the local clock to exactly `t` (may rewind an epoch-end
    /// overshoot, never behind a processed event).
    fn sync_now(&mut self, t: SimTime);
}

/// Per-shard epoch accounting of a conservative run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ShardEpochs {
    /// Epoch windows the shard ran.
    pub epochs: u64,
    /// Windows in which it processed no event.
    pub empty: u64,
}

impl ShardEpochs {
    /// Add another run's counts.
    pub fn add(&mut self, other: ShardEpochs) {
        self.epochs += other.epochs;
        self.empty += other.empty;
    }
}

/// What [`run_conservative`] reports.
#[derive(Clone, Debug)]
pub struct ParRun {
    /// The final simulated time every shard's clock was synchronized to.
    pub now: SimTime,
    /// Epoch accounting, one entry per shard.
    pub epochs: Vec<ShardEpochs>,
}

/// Unsafe `Send`/`Sync` wrapper: asserts the wrapped value is a closed
/// `Rc` graph that is only ever *accessed* by one thread at a time (the
/// executor's barriers provide the hand-off). See the module docs.
pub struct SendCell<T>(T);

unsafe impl<T> Send for SendCell<T> {}

impl<T> SendCell<T> {
    /// Wrap `v`.
    ///
    /// # Safety
    /// Every `Rc`/`RefCell` reachable from `v` must be reachable *only*
    /// from `v` (no aliases outside the cell), and the caller must not
    /// access `v` while another thread owns the cell.
    pub unsafe fn new(v: T) -> Self {
        SendCell(v)
    }

    /// Unwrap.
    pub fn into_inner(self) -> T {
        self.0
    }

    /// Shared access (single-thread phases only).
    pub fn get(&self) -> &T {
        &self.0
    }

    /// Exclusive access (single-thread phases only).
    pub fn get_mut(&mut self) -> &mut T {
        &mut self.0
    }
}

/// Busy-spin iterations before a waiter starts yielding its timeslice.
/// Epochs are often shorter than a mutex park/unpark (tens of µs), so a
/// short spin wins when every worker has a core; past the limit the
/// waiter must assume it is oversubscribed (shards > cores, or a peer
/// got descheduled) and `yield_now` so the peer can actually run —
/// unbounded spinning there collapses throughput to the scheduler tick.
const SPIN_LIMIT: u32 = 64;

/// Sense-reversing centralized spin barrier with a bounded spin (see
/// [`SPIN_LIMIT`]). `std::sync::Barrier` parks and wakes through a
/// mutex — tens of microseconds per crossing — while an epoch here is
/// often shorter than that.
struct SpinBarrier {
    count: AtomicUsize,
    sense: AtomicBool,
    n: usize,
}

impl SpinBarrier {
    fn new(n: usize) -> Self {
        SpinBarrier { count: AtomicUsize::new(0), sense: AtomicBool::new(false), n }
    }

    fn wait(&self, local_sense: &mut bool) {
        *local_sense = !*local_sense;
        if self.count.fetch_add(1, Ordering::AcqRel) + 1 == self.n {
            self.count.store(0, Ordering::Relaxed);
            self.sense.store(*local_sense, Ordering::Release);
        } else {
            let mut spins = 0u32;
            while self.sense.load(Ordering::Acquire) != *local_sense {
                if spins < SPIN_LIMIT {
                    spins += 1;
                    std::hint::spin_loop();
                } else {
                    std::thread::yield_now();
                }
            }
        }
    }
}

/// Double-buffered per-epoch publication slots. All writes happen before
/// the epoch barrier and all reads after it (one parity apart for the
/// mail a worker is still draining), which is exactly the discipline
/// that makes the `UnsafeCell` sound; see the module docs for the lag
/// argument.
struct Mailboxes<M> {
    n: usize,
    /// `[parity][src * n + dst]` — mail published by `src` for `dst`.
    #[allow(clippy::type_complexity)]
    slots: [Vec<UnsafeCell<Vec<(SimTime, M)>>>; 2],
    /// `[parity][shard]` — published wheel bound (`u64::MAX` when idle).
    /// Outbound mail is *not* folded in here; it is published per
    /// destination below and accounted to its receiver.
    wheel: [Vec<AtomicU64>; 2],
    /// `[parity][shard]` — earliest scheduled emitting event (`u64::MAX`
    /// when none; unused while the relay delay is zero).
    emit: [Vec<AtomicU64>; 2],
    /// `[parity][src * n + dst]` — earliest delivery time of the mail
    /// `src` published for `dst` this epoch (`u64::MAX` if none).
    mail_min: [Vec<AtomicU64>; 2],
    /// `[parity]` — bit `src` set iff `src` published any mail this
    /// epoch. Readers skip the whole slot scan when their senders' bits
    /// are clear, so quiet epochs touch one shared word instead of
    /// `n − 1` slot vectors.
    mail_bits: [AtomicU64; 2],
}

unsafe impl<M> Sync for Mailboxes<M> {}

impl<M> Mailboxes<M> {
    fn new(n: usize) -> Self {
        let mk_slots = || (0..n * n).map(|_| UnsafeCell::new(Vec::new())).collect();
        let mk_bound = || (0..n).map(|_| AtomicU64::new(u64::MAX)).collect();
        let mk_mail = || (0..n * n).map(|_| AtomicU64::new(u64::MAX)).collect();
        Mailboxes {
            n,
            slots: [mk_slots(), mk_slots()],
            wheel: [mk_bound(), mk_bound()],
            emit: [mk_bound(), mk_bound()],
            mail_min: [mk_mail(), mk_mail()],
            mail_bits: [AtomicU64::new(0), AtomicU64::new(0)],
        }
    }
}

/// Run `shards` to `deadline` (or to quiescence when `deadline` is
/// [`SimTime::MAX`]) under conservative epoch synchronization with the
/// given per-pair `lookahead`, one scoped worker thread per shard (the
/// last shard runs on the calling thread). Returns the final simulated
/// time — `deadline` when finite, otherwise the timestamp of the last
/// event processed anywhere — to which every shard's clock is
/// synchronized, and the per-shard epoch counts.
///
/// **Leftover-mail contract:** a finite-deadline run may end through the
/// final-epoch elision, in which case cross-shard mail generated in the
/// last window — all of it provably timestamped *after* the deadline —
/// is still sitting in shard outboxes. The caller must drain each
/// shard's outbox after the run and re-inject the mail (keyed) before
/// the next run; delivery order is fixed by `(time, key)`, so relaying
/// on one thread preserves byte-identical results.
///
/// With a single shard no threads are spawned and no barriers run; the
/// loop degenerates to plain sequential execution of that shard. More
/// shards than cores still complete (the barrier yields after a bounded
/// spin), just slower.
pub fn run_conservative<S: ParShard>(
    shards: &mut [SendCell<S>],
    lookahead: &PairLookahead,
    deadline: SimTime,
) -> ParRun {
    let n = shards.len();
    assert!(n > 0, "no shards");
    assert!(n <= 64, "publication bitmap caps the executor at 64 shards");
    assert_eq!(lookahead.shards(), n, "lookahead planned for a different shard count");
    let entry_now = shards.iter().map(|c| c.get().now()).max().unwrap();

    let boxes: Mailboxes<S::Mail> = Mailboxes::new(n);
    let barrier = SpinBarrier::new(n);
    let epochs = std::thread::scope(|scope| {
        let boxes = &boxes;
        let barrier = &barrier;
        let mut workers = Vec::new();
        let mut last = ShardEpochs::default();
        for (i, cell) in shards.iter_mut().enumerate() {
            let mut work = move || worker_loop(i, cell, boxes, barrier, lookahead, deadline);
            if i == n - 1 {
                // Run the last shard on the calling thread; with n == 1
                // this makes the parallel path thread-free.
                last = work();
            } else {
                workers.push(scope.spawn(work));
            }
        }
        let mut epochs: Vec<ShardEpochs> =
            workers.into_iter().map(|w| w.join().expect("shard worker panicked")).collect();
        epochs.push(last);
        epochs
    });

    let final_now = if deadline != SimTime::MAX {
        deadline
    } else {
        // Settling: end exactly where a sequential run would — the last
        // event processed anywhere in *this* call, or the entry clock if
        // the system was already quiescent. Lifetime `last_event_at`
        // values from earlier runs are ≤ `entry_now`, so the max folds
        // both cases together.
        shards
            .iter()
            .filter_map(|c| c.get().last_event_at())
            .chain(std::iter::once(entry_now))
            .max()
            .unwrap()
    };
    for c in shards.iter_mut() {
        c.get_mut().sync_now(final_now);
    }
    ParRun { now: final_now, epochs }
}

fn worker_loop<S: ParShard>(
    me: usize,
    cell: &mut SendCell<S>,
    boxes: &Mailboxes<S::Mail>,
    barrier: &SpinBarrier,
    look: &PairLookahead,
    deadline: SimTime,
) -> ShardEpochs {
    let shard = cell.get_mut();
    let n = boxes.n;
    let deadline_ns = deadline.as_nanos();
    let relay = look.relay().as_nanos();
    let mut local_sense = false;
    let mut outbox: Vec<(usize, SimTime, S::Mail)> = Vec::new();
    let mut dst_min = vec![u64::MAX; n];
    let mut eff = vec![u64::MAX; n];
    let mut out = vec![u64::MAX; n];
    let mut stats = ShardEpochs::default();
    // Whether our publication bit is currently set, per parity, so the
    // shared bitmap word is only touched on a state change.
    let mut bit_set = [false; 2];
    let mut epoch: usize = 0;
    loop {
        let p = epoch % 2;
        // Publish: the wheel bound, the earliest emitting event, and the
        // previous epoch's mail with its per-destination delivery minima.
        // In-flight mail counts toward its *receiver's* bounds — it is
        // delivered (and ingested) this very epoch, so accounting it
        // there is exact and lets the per-pair horizon argument go
        // through.
        let wheel = shard.next_at_bound().map_or(u64::MAX, |t| t.as_nanos());
        let emit = match relay {
            0 => u64::MAX,
            _ => shard.next_emit_at().map_or(u64::MAX, |t| t.as_nanos()),
        };
        dst_min.iter_mut().for_each(|m| *m = u64::MAX);
        let any_mail = !outbox.is_empty();
        for (dst, at, mail) in outbox.drain(..) {
            debug_assert!(dst < n && dst != me, "bad mail routing");
            dst_min[dst] = dst_min[dst].min(at.as_nanos());
            // SAFETY: slot (p, me, dst) is written only by `me` before
            // barrier `epoch` and read only by `dst` after it.
            unsafe { (*boxes.slots[p][me * n + dst].get()).push((at, mail)) };
        }
        boxes.wheel[p][me].store(wheel, Ordering::Relaxed);
        boxes.emit[p][me].store(emit, Ordering::Relaxed);
        for (dst, &m) in dst_min.iter().enumerate() {
            if dst != me {
                boxes.mail_min[p][me * n + dst].store(m, Ordering::Relaxed);
            }
        }
        if any_mail != bit_set[p] {
            let bit = 1u64 << me;
            if any_mail {
                boxes.mail_bits[p].fetch_or(bit, Ordering::Relaxed);
            } else {
                boxes.mail_bits[p].fetch_and(!bit, Ordering::Relaxed);
            }
            bit_set[p] = any_mail;
        }

        barrier.wait(&mut local_sense);

        // Everyone computes the same bounds from the same slots:
        // Ḃ_i = min(wheel_i, earliest mail addressed to i), and the
        // output bound O_i = min(emit_i, Ḃ_i + R) — which is Ḃ_i itself
        // when R = 0.
        for i in 0..n {
            let mut b = boxes.wheel[p][i].load(Ordering::Relaxed);
            for j in 0..n {
                if j != i {
                    b = b.min(boxes.mail_min[p][j * n + i].load(Ordering::Relaxed));
                }
            }
            eff[i] = b;
            out[i] = output_bound(b, boxes.emit[p][i].load(Ordering::Relaxed), relay);
        }
        let global = eff.iter().copied().min().unwrap();
        // Ingest mail addressed to us, scanning only senders that
        // actually published. Arrival order across sources is
        // irrelevant: delivery order is fixed by the (time, key) pairs.
        let bits = boxes.mail_bits[p].load(Ordering::Relaxed);
        if bits != 0 {
            for src in 0..n {
                if src == me || bits & (1u64 << src) == 0 {
                    continue;
                }
                // SAFETY: slot (p, src, me) was sealed at barrier `epoch`;
                // `src` will not touch it again until barrier `epoch + 1`.
                let slot = unsafe { &mut *boxes.slots[p][src * n + me].get() };
                for (at, mail) in slot.drain(..) {
                    shard.ingest(at, mail);
                }
            }
        }

        if global == u64::MAX || global > deadline_ns {
            // Nothing anywhere at or before the deadline (quiescence when
            // the deadline is infinite). Align the clock and leave — every
            // worker reaches this decision from the same data.
            if deadline != SimTime::MAX {
                shard.run_until(deadline);
            }
            return stats;
        }
        shard.set_output_bound(SimTime::from_nanos(out[me]));
        let end_ns = look.horizon(&out, me, deadline_ns);
        if end_ns >= deadline_ns
            && (0..n).all(|i| i == me || look.horizon(&out, i, deadline_ns) >= deadline_ns)
        {
            // Final-epoch elision: every shard's horizon reaches the
            // deadline, so after this window there is nothing left to
            // exchange *before* it — each worker proves the same fact
            // from the same bounds and exits without another barrier.
            // Mail born in this window is stamped past the deadline (the
            // horizon argument, applied at the deadline) and stays in
            // the outbox for the caller to relay.
            run_window(shard, deadline, &mut stats);
            return stats;
        }
        // Horizons are monotone in practice but the published bounds are
        // only *lower* bounds; never ask the wheel to run backwards.
        let end = SimTime::from_nanos(end_ns).max(shard.now());
        run_window(shard, end, &mut stats);
        shard.drain_outbox(&mut outbox);
        epoch += 1;
    }
}

/// One epoch window: run `shard` to `end` and count it.
fn run_window<S: ParShard>(shard: &mut S, end: SimTime, stats: &mut ShardEpochs) {
    let events = shard.run_until(end);
    stats.epochs += 1;
    stats.empty += u64::from(events == 0);
}

/// A shard's output bound `O = min(emit, Ḃ + R)` from its effective
/// bound `Ḃ` (next event or in-flight mail, whichever is earlier) and its
/// earliest scheduled emitting event.
fn output_bound(eff: u64, emit: u64, relay: u64) -> u64 {
    emit.min(eff.saturating_add(relay))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{Ctx, Engine, SimWorld};
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;

    const LAT: u64 = 50;

    #[derive(Clone)]
    struct Pass {
        host: u32,
        hops_left: u64,
    }

    enum Tok {
        /// A token arrives at `host` (never injects at its own time).
        Pass(Pass),
        /// The token leaves after the firmware delay (injects now).
        Fire(Pass),
    }

    /// Toy world: hosts pass a token; each pass goes to
    /// `(host + 1) % total`, leaving `fw` ns after it arrived and landing
    /// `LAT` ns after it left. Hosts are partitioned into contiguous
    /// shards, so most passes cross a shard boundary. With `fw > 0` the
    /// world tracks its scheduled `Fire` events, so it can run under a
    /// lookahead with relay delay `fw`.
    struct TokenWorld {
        lo: u32,
        hi: u32,
        total: u32,
        fw: u64,
        fires: BinaryHeap<Reverse<SimTime>>,
        floor: SimTime,
        log: Vec<(u64, u32, u64)>,
        outbox: Vec<(u32, SimTime, u64, Pass)>,
        seqs: Vec<u64>,
    }

    impl TokenWorld {
        fn send(&mut self, pass: Pass, ctx: &mut Ctx<'_, Tok>) {
            let nxt = (pass.host + 1) % self.total;
            let at = ctx.now() + SimDuration::from_nanos(LAT);
            let seq = &mut self.seqs[pass.host as usize];
            let key = ingress_key(pass.host, *seq);
            *seq += 1;
            let pass = Pass { host: nxt, hops_left: pass.hops_left - 1 };
            if nxt >= self.lo && nxt < self.hi {
                ctx.schedule_keyed_at(at, key, Tok::Pass(pass));
            } else {
                assert!(ctx.now() >= self.floor, "injected before the published output bound");
                self.outbox.push((nxt, at, key, pass));
            }
        }
    }

    impl SimWorld for TokenWorld {
        type Event = Tok;
        fn handle(&mut self, ev: Tok, ctx: &mut Ctx<'_, Tok>) {
            match ev {
                Tok::Pass(p) => {
                    self.log.push((ctx.now().as_nanos(), p.host, p.hops_left));
                    if p.hops_left == 0 {
                        return;
                    }
                    if self.fw == 0 {
                        self.send(p, ctx);
                    } else {
                        self.fires.push(Reverse(ctx.now() + SimDuration::from_nanos(self.fw)));
                        ctx.schedule(SimDuration::from_nanos(self.fw), Tok::Fire(p));
                    }
                }
                Tok::Fire(p) => {
                    assert_eq!(self.fires.pop(), Some(Reverse(ctx.now())));
                    self.send(p, ctx);
                }
            }
        }
    }

    struct Shard {
        engine: Engine<TokenWorld>,
        world: TokenWorld,
        hosts_per_shard: u32,
    }

    impl ParShard for Shard {
        type Mail = (u64, Pass);
        fn run_until(&mut self, deadline: SimTime) -> u64 {
            self.engine.run_until(&mut self.world, deadline)
        }
        fn next_at_bound(&self) -> Option<SimTime> {
            self.engine.next_at_bound()
        }
        fn next_emit_at(&self) -> Option<SimTime> {
            self.world.fires.peek().map(|r| r.0)
        }
        fn set_output_bound(&mut self, bound: SimTime) {
            self.world.floor = bound;
        }
        fn drain_outbox(&mut self, out: &mut Vec<(usize, SimTime, Self::Mail)>) {
            for (host, at, key, pass) in self.world.outbox.drain(..) {
                out.push(((host / self.hosts_per_shard) as usize, at, (key, pass)));
            }
        }
        fn ingest(&mut self, at: SimTime, (key, pass): Self::Mail) {
            assert!(at > self.engine.now(), "mail behind the receiver's horizon");
            self.engine.schedule_keyed_at(at, key, Tok::Pass(pass));
        }
        fn last_event_at(&self) -> Option<SimTime> {
            self.engine.last_event_at()
        }
        fn now(&self) -> SimTime {
            self.engine.now()
        }
        fn sync_now(&mut self, t: SimTime) {
            self.engine.sync_now(t);
        }
    }

    type Log = Vec<(u64, u32, u64)>;

    /// Run the token ring on `n_shards` with firmware delay `fw` under a
    /// lookahead with relay delay `relay` (at most `fw`).
    fn run_sharded(
        n_shards: u32,
        total_hosts: u32,
        hops: u64,
        deadline: SimTime,
        fw: u64,
        relay: u64,
    ) -> (Log, ParRun) {
        let per = total_hosts / n_shards;
        let mut shards: Vec<SendCell<Shard>> = (0..n_shards)
            .map(|s| {
                let lo = s * per;
                let hi = lo + per;
                let mut sh = Shard {
                    engine: Engine::new(),
                    world: TokenWorld {
                        lo,
                        hi,
                        total: total_hosts,
                        fw,
                        fires: BinaryHeap::new(),
                        floor: SimTime::ZERO,
                        log: Vec::new(),
                        outbox: Vec::new(),
                        seqs: vec![0; total_hosts as usize],
                    },
                    hosts_per_shard: per,
                };
                if lo == 0 {
                    sh.engine.schedule(
                        SimDuration::from_nanos(1),
                        Tok::Pass(Pass { host: 0, hops_left: hops }),
                    );
                }
                // SAFETY: freshly built, no external Rc references.
                unsafe { SendCell::new(sh) }
            })
            .collect();
        let look = PairLookahead::uniform(n_shards as usize, SimDuration::from_nanos(LAT))
            .with_relay(SimDuration::from_nanos(relay));
        let run = run_conservative(&mut shards, &look, deadline);
        let mut log: Log = shards
            .into_iter()
            .flat_map(|c| {
                let sh = c.into_inner();
                // The final-epoch elision may leave cross-shard mail in
                // the outbox (timestamped past the deadline); the real
                // cluster relays it into the destination engines. The
                // token test just asserts it is indeed past the deadline.
                for &(_, at, _, _) in &sh.world.outbox {
                    assert!(at > deadline, "undelivered mail within the deadline");
                }
                sh.world.log
            })
            .collect();
        log.sort();
        (log, run)
    }

    fn log_of(n: u32, total: u32, hops: u64, deadline: SimTime, fw: u64) -> Log {
        run_sharded(n, total, hops, deadline, fw, fw).0
    }

    #[test]
    fn ingress_key_sets_bit_63_and_orders_by_source_then_sequence() {
        assert_eq!(ingress_key(0, 0), INGRESS_KEY_BIT);
        assert_ne!(ingress_key(7, 3) & INGRESS_KEY_BIT, 0);
        let pairs =
            [(0, 1), (0, 2), (0, (1 << 40) - 1), (1, 0), (1, 5), (2, 0), ((1 << 23) - 1, 9)];
        for w in pairs.windows(2) {
            let ((sa, qa), (sb, qb)) = (w[0], w[1]);
            assert!(
                ingress_key(sa, qa) < ingress_key(sb, qb),
                "({sa}, {qa}) must sort before ({sb}, {qb})"
            );
        }
    }

    #[test]
    fn token_ring_matches_across_shard_counts() {
        let want = log_of(1, 4, 37, SimTime::MAX, 0);
        assert_eq!(want.len(), 38);
        assert_eq!(want.last().unwrap().0, 1 + 37 * LAT);
        for n in [2, 4] {
            assert_eq!(log_of(n, 4, 37, SimTime::MAX, 0), want, "{n} shards diverged");
        }
    }

    #[test]
    fn finite_deadline_cuts_identically() {
        let cut = SimTime::from_nanos(1 + 10 * LAT + 3);
        let want = log_of(1, 4, 37, cut, 0);
        assert_eq!(want.len(), 11, "10 hops + initial fire by the cut");
        assert_eq!(log_of(2, 4, 37, cut, 0), want);
        assert_eq!(log_of(4, 4, 37, cut, 0), want);
    }

    #[test]
    fn relay_delay_keeps_results_and_cuts_epochs() {
        // Each hop spends 200 ns in firmware before it leaves (four link
        // latencies): with the relay delay a window spans the firmware
        // step plus a hop instead of a link latency or two, and the same
        // events happen at the same times in fewer epochs.
        const FW: u64 = 200;
        for deadline in [SimTime::MAX, SimTime::from_nanos(1 + 12 * (LAT + FW) + 5)] {
            let want = log_of(1, 4, 37, deadline, FW);
            for n in [2, 4] {
                let (got, run) = run_sharded(n, 4, 37, deadline, FW, FW);
                assert_eq!(got, want, "{n} shards diverged with a relay delay");
                let (got, plain) = run_sharded(n, 4, 37, deadline, FW, 0);
                assert_eq!(got, want, "{n} shards diverged without a relay delay");
                let total = |r: &ParRun| r.epochs.iter().map(|e| e.epochs).sum::<u64>();
                assert!(total(&run) > 0);
                assert!(total(&run) < total(&plain), "relay delay did not widen windows");
            }
        }
        // The epoch schedule is deterministic.
        let a = run_sharded(2, 4, 37, SimTime::MAX, FW, FW).1.epochs;
        assert_eq!(a, run_sharded(2, 4, 37, SimTime::MAX, FW, FW).1.epochs);
    }

    #[test]
    fn oversubscribed_threads_still_complete_and_match() {
        // Regression for the bounded-spin barrier: more worker threads
        // than this machine has cores must neither livelock nor diverge.
        // (On a 1-core box this is the worst case: every barrier crossing
        // relies on the yield fallback.)
        let want = log_of(1, 8, 64, SimTime::MAX, 0);
        assert_eq!(log_of(8, 8, 64, SimTime::MAX, 0), want);
        let cut = SimTime::from_nanos(1 + 20 * LAT);
        let want = log_of(1, 8, 64, cut, 0);
        assert_eq!(log_of(8, 8, 64, cut, 0), want);
    }

    #[test]
    fn uniform_closure_degenerates_to_global_min_plus_echo() {
        let l = PairLookahead::uniform(3, SimDuration::from_nanos(100));
        // Direct pairs keep the edge latency; the self-cycle is the
        // round trip, which is what widens a lone busy shard's window.
        let eff = [500, u64::MAX, u64::MAX];
        assert_eq!(l.horizon(&eff, 1, u64::MAX), 500 + 100 - 1);
        assert_eq!(l.horizon(&eff, 0, u64::MAX), 500 + 200 - 1, "self-echo doubles the window");
        assert_eq!(l.min_pair(), Some(SimDuration::from_nanos(100)));
    }

    /// 0 -> 1 slow (1000), 1 -> 2 fast (10), 0 -> 2 direct (2000),
    /// 1 -> 0 (50), 2 -> 1 (300), 2 -> 0 (400).
    fn asymmetric_edges() -> Vec<u64> {
        let mut edges = vec![u64::MAX; 9];
        edges[1] = 1000; // 0 -> 1
        edges[5] = 10; // 1 -> 2
        edges[2] = 2000; // 0 -> 2
        edges[3] = 50; // 1 -> 0
        edges[7] = 300; // 2 -> 1
        edges[6] = 400; // 2 -> 0
        edges
    }

    #[test]
    fn asymmetric_closure_relays_through_the_fast_path() {
        // The closure must take the relay 0 -> 1 -> 2 = 1010.
        let l = PairLookahead::from_edge_intervals(3, vec![(0, asymmetric_edges())]);
        let eff = [100, u64::MAX, u64::MAX];
        assert_eq!(l.horizon(&eff, 2, u64::MAX), 100 + 1010 - 1);
        // Shard 1 is bounded by the direct slow edge.
        assert_eq!(l.horizon(&eff, 1, u64::MAX), 100 + 1000 - 1);
        // Shard 0's own echo: 0 -> 1 -> 0 = 1050.
        assert_eq!(l.horizon(&eff, 0, u64::MAX), 100 + 1050 - 1);
    }

    #[test]
    fn relay_delay_adds_r_per_intermediate_shard() {
        const R: u64 = 700;
        let l = PairLookahead::from_edge_intervals(3, vec![(0, asymmetric_edges())])
            .with_relay(SimDuration::from_nanos(R));
        assert_eq!(l.relay(), SimDuration::from_nanos(R));
        let n = 3;
        let d = |j: usize, i: usize| l.mats[0][j * n + i];
        // Direct pairs cost L alone.
        assert_eq!(d(0, 1), 1000);
        assert_eq!(d(1, 2), 10);
        // Relay 0 -> 1 -> 2 costs L + R + L = 1710, still cheaper than
        // the direct 2000.
        assert_eq!(d(0, 2), 1000 + R + 10);
        // Self-echo 0 -> 1 -> 0 is 2L + R on the cheapest cycle.
        assert_eq!(d(0, 0), 1000 + R + 50);
        assert_eq!(d(1, 1), 10 + R + 300);
        // With a large R the direct edge wins over the relay.
        let wide = l.clone().with_relay(SimDuration::from_nanos(5_000));
        assert_eq!(wide.mats[0][2], 2000);
    }

    #[test]
    fn in_flight_mail_counts_at_arrival_plus_r() {
        // Shard 1 is idle but has mail arriving at m: it cannot emit
        // before m + R, so shard 0's horizon is m + R + L - 1 (one hop),
        // not m + L - 1.
        const R: u64 = 2_000;
        let (m, l_ns) = (10_000, 300);
        let l = PairLookahead::uniform(2, SimDuration::from_nanos(l_ns))
            .with_relay(SimDuration::from_nanos(R));
        let o1 = output_bound(m, u64::MAX, R);
        assert_eq!(o1, m + R);
        // Shard 0 has an already-scheduled emitting event at 11_000 and
        // its next event at 10_500: O_0 = min(11_000, 10_500 + R).
        let o0 = output_bound(10_500, 11_000, R);
        assert_eq!(o0, 11_000);
        let out = [o0, o1];
        assert_eq!(l.horizon(&out, 0, u64::MAX), 11_000 + l_ns - 1);
        assert_eq!(l.horizon(&out, 1, u64::MAX), 11_000 + l_ns - 1);
        // R = 0 collapses the output bound to the effective bound.
        assert_eq!(output_bound(m, u64::MAX, 0), m);
    }

    #[test]
    fn balanced_cap_stops_the_leapfrog() {
        // Shard 0 is far behind shard 1. Uncapped, shard 0 would run to
        // its own echo (O_0 + 2L + R) while shard 1 only gets one hop
        // past O_0; the cap holds both to min O + one hop.
        const R: u64 = 2_000;
        let l = PairLookahead::uniform(2, SimDuration::from_nanos(300))
            .with_relay(SimDuration::from_nanos(R));
        let out = [1_000, 50_000];
        assert_eq!(l.horizon(&out, 0, u64::MAX), 1_000 + 300 - 1);
        assert_eq!(l.horizon(&out, 1, u64::MAX), 1_000 + 300 - 1);
        // Without the relay delay the plain horizon keeps the echo.
        let plain = PairLookahead::uniform(2, SimDuration::from_nanos(300));
        assert_eq!(plain.horizon(&out, 0, u64::MAX), 1_000 + 600 - 1);
        // Three shards, asymmetric: the cap for shard 2 is the cheapest
        // hop into it (1 -> 2 = 10), applied to the global minimum.
        let l3 = PairLookahead::from_edge_intervals(3, vec![(0, asymmetric_edges())])
            .with_relay(SimDuration::from_nanos(R));
        let out = [100, 5_000, 9_000];
        assert_eq!(l3.horizon(&out, 2, u64::MAX), 100 + 10 - 1);
        // A lone shard with nothing reaching it is not capped.
        let solo = PairLookahead::uniform(1, SimDuration::from_nanos(300))
            .with_relay(SimDuration::from_nanos(R));
        assert_eq!(solo.horizon(&[7], 0, u64::MAX), 7 + OPEN_HORIZON - 1);
    }

    #[test]
    fn relay_horizon_respects_interval_and_deadline() {
        const R: u64 = 2_000;
        let mk = |lat: u64| {
            let mut e = vec![u64::MAX; 4];
            e[1] = lat;
            e[2] = lat;
            e
        };
        let l = PairLookahead::from_edge_intervals(2, vec![(0, mk(5_000)), (10_000, mk(100))])
            .with_relay(SimDuration::from_nanos(R));
        // min O + one hop = 13_000 would cross the transition at 10_000.
        assert_eq!(l.horizon(&[8_000, 9_000], 1, u64::MAX), 9_999);
        // The deadline caps it too.
        assert_eq!(l.horizon(&[8_000, 9_000], 1, 9_500), 9_500);
        // Inside the second interval the tight matrix rules.
        assert_eq!(l.horizon(&[12_000, 20_000], 0, u64::MAX), 12_000 + 100 - 1);
    }

    #[test]
    fn zero_relay_is_exactly_the_plain_horizon() {
        // Reference: the pre-relay horizon, min_j (B_j + D(j, i)) - 1.
        let edges = asymmetric_edges();
        let plain = PairLookahead::from_edge_intervals(3, vec![(0, edges.clone())]);
        let zero = PairLookahead::from_edge_intervals(3, vec![(0, edges)])
            .with_relay(SimDuration::from_nanos(5))
            .with_relay(SimDuration::ZERO);
        let mut rng = crate::rng::SimRng::seed_from_u64(0x2E10);
        for _ in 0..500 {
            let b: Vec<u64> = (0..3)
                .map(|_| if rng.below(4) == 0 { u64::MAX } else { rng.below(1_000_000) })
                .collect();
            if b.iter().all(|&x| x == u64::MAX) {
                continue;
            }
            for i in 0..3 {
                let reference =
                    (0..3).map(|j| b[j].saturating_add(plain.mats[0][j * 3 + i])).min().unwrap()
                        - 1;
                let out: Vec<u64> = b.iter().map(|&x| output_bound(x, u64::MAX, 0)).collect();
                assert_eq!(zero.horizon(&out, i, u64::MAX), reference);
                assert_eq!(plain.horizon(&out, i, u64::MAX), reference);
            }
        }
    }

    #[test]
    fn campaign_interval_caps_the_horizon() {
        let mk = |lat: u64| {
            let mut e = vec![u64::MAX; 4];
            e[1] = lat;
            e[2] = lat;
            e
        };
        // Wide window until t=10_000, then (post-LinkUp) a tighter one.
        let l = PairLookahead::from_edge_intervals(2, vec![(0, mk(5_000)), (10_000, mk(100))]);
        let eff = [8_000, u64::MAX];
        // Uncapped the horizon would be 8_000 + 10_000 - 1; the interval
        // boundary must cut it to 9_999.
        assert_eq!(l.horizon(&eff, 1, u64::MAX), 9_999);
        // Inside the second interval the tight matrix rules: the direct
        // 100ns edge bounds shard 1, the 200ns echo bounds shard 0.
        let eff = [12_000, u64::MAX];
        assert_eq!(l.horizon(&eff, 1, u64::MAX), 12_000 + 100 - 1);
        assert_eq!(l.horizon(&eff, 0, u64::MAX), 12_000 + 200 - 1);
    }

    #[test]
    fn mailboxes_move_arcs_by_pointer() {
        use std::sync::Arc;
        // A frozen Arc payload crossing the executor must arrive as the
        // same allocation (zero-copy), not a clone of the bytes.
        struct ArcShard {
            engine: Engine<ArcWorld>,
            world: ArcWorld,
        }
        struct ArcWorld {
            me: usize,
            received: Vec<Arc<Vec<u64>>>,
            outbox: Vec<(usize, SimTime, Arc<Vec<u64>>)>,
        }
        impl SimWorld for ArcWorld {
            type Event = Arc<Vec<u64>>;
            fn handle(&mut self, ev: Arc<Vec<u64>>, ctx: &mut Ctx<'_, Self::Event>) {
                if self.me == 0 {
                    // Shard 0 originates: forward the payload untouched.
                    self.outbox.push((1, ctx.now() + SimDuration::from_nanos(LAT), ev));
                } else {
                    self.received.push(ev);
                }
            }
        }
        impl ParShard for ArcShard {
            type Mail = Arc<Vec<u64>>;
            fn run_until(&mut self, deadline: SimTime) -> u64 {
                self.engine.run_until(&mut self.world, deadline)
            }
            fn next_at_bound(&self) -> Option<SimTime> {
                self.engine.next_at_bound()
            }
            fn drain_outbox(&mut self, out: &mut Vec<(usize, SimTime, Self::Mail)>) {
                for (dst, at, m) in self.world.outbox.drain(..) {
                    out.push((dst, at, m));
                }
            }
            fn ingest(&mut self, at: SimTime, mail: Self::Mail) {
                self.engine.schedule_keyed_at(at, INGRESS_KEY_BIT, mail);
            }
            fn last_event_at(&self) -> Option<SimTime> {
                self.engine.last_event_at()
            }
            fn now(&self) -> SimTime {
                self.engine.now()
            }
            fn sync_now(&mut self, t: SimTime) {
                self.engine.sync_now(t);
            }
        }
        let payload = Arc::new(vec![1u64, 2, 3, 4]);
        let before = Arc::as_ptr(&payload);
        let mut shards: Vec<SendCell<ArcShard>> = (0..2)
            .map(|me| {
                let mut sh = ArcShard {
                    engine: Engine::new(),
                    world: ArcWorld { me, received: Vec::new(), outbox: Vec::new() },
                };
                if me == 0 {
                    sh.engine.schedule(SimDuration::from_nanos(1), Arc::clone(&payload));
                }
                unsafe { SendCell::new(sh) }
            })
            .collect();
        let look = PairLookahead::uniform(2, SimDuration::from_nanos(LAT));
        run_conservative(&mut shards, &look, SimTime::MAX);
        let receiver = shards.pop().unwrap().into_inner();
        assert_eq!(receiver.world.received.len(), 1);
        let got = &receiver.world.received[0];
        assert_eq!(Arc::as_ptr(got), before, "payload was copied, not moved");
        assert_eq!(**got, vec![1, 2, 3, 4]);
        // Sender kept its handle and the count survived the crossing:
        // nothing along the path could have mutated the sealed payload.
        assert!(Arc::strong_count(&payload) >= 2);
    }
}
