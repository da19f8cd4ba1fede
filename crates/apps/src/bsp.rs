//! A superstep (BSP-style) parallel programming layer on Active Messages.
//!
//! This is the role MPICH-on-AM plays in the paper: parallel programs are
//! expressed as a sequence of *supersteps* — local compute followed by a
//! message exchange — and the [`BspRunner`] turns each rank into a
//! [`ThreadBody`] that drives the exchange through the endpoint API with
//! credit-aware sends and spin-block waiting (the spin-then-block receive
//! is the mechanism behind the implicit co-scheduling of §6.3).

use vnet_core::prelude::*;
use vnet_sim::{FxHashMap, SimTime};

/// One superstep of a rank: compute, then exchange.
#[derive(Clone, Debug, Default)]
pub struct SuperStep {
    /// Local computation before communicating.
    pub compute: SimDuration,
    /// Messages to send: `(destination rank, payload bytes)`. Destination
    /// ranks index the virtual network built over the job's endpoints.
    pub sends: Vec<(usize, u32)>,
    /// Number of messages this rank must receive in this step (determined
    /// by the communication pattern).
    pub recv_count: u32,
}

/// A parallel application: yields one superstep at a time per rank.
pub trait BspApp: Send + 'static {
    /// The superstep `step` for `rank` of `nranks`, or `None` when the
    /// program is finished.
    fn step(&mut self, rank: usize, nranks: usize, step: u64) -> Option<SuperStep>;
}

/// Per-rank timing gathered by the runner.
#[derive(Clone, Debug, Default)]
pub struct BspStats {
    /// First scheduling of the rank.
    pub started: Option<SimTime>,
    /// Completion time (all supersteps done).
    pub finished: Option<SimTime>,
    /// Total compute time requested.
    pub compute: SimDuration,
    /// CPU time spent in communication primitives (sends, polls, replies)
    /// — the "time spent in communication" §6.3 reports as nearly constant
    /// under time-sharing.
    pub comm_cpu: SimDuration,
    /// Supersteps completed.
    pub steps: u64,
    /// Data messages sent.
    pub msgs_sent: u64,
    /// Undeliverable returns observed (0 on a healthy cluster).
    pub bounces: u64,
}

impl BspStats {
    /// Wall time from start to finish.
    pub fn elapsed(&self) -> Option<SimDuration> {
        Some(self.finished? - self.started?)
    }

    /// Wall time not spent computing: communication + waiting + scheduling.
    pub fn comm_time(&self) -> Option<SimDuration> {
        Some(self.elapsed()? - self.compute)
    }
}

/// Consecutive empty polls before a rank blocks on the event mask
/// (spin-block; ~2 RTTs of spinning is the implicit co-scheduling sweet
/// spot).
const SPIN_POLLS: u32 = 12;

enum Phase {
    /// Need the next superstep from the app.
    Fetch,
    /// Compute has been issued; when the runner resumes, it is done.
    Computing,
    /// Exchanging messages.
    Exchange,
    /// All supersteps complete.
    Done,
}

/// Drives one rank of a [`BspApp`] over an endpoint.
pub struct BspRunner<A: BspApp> {
    /// The application (public for post-run result extraction).
    pub app: A,
    /// Timing results.
    pub stats: BspStats,
    ep: EpId,
    rank: usize,
    nranks: usize,
    phase: Phase,
    step_idx: u64,
    cur: SuperStep,
    send_pos: usize,
    recv_counts: FxHashMap<u64, u32>,
    pending_replies: Vec<DeliveredMsg>,
    idle_polls: u32,
    /// The last send attempt failed for NI queue space (not credits):
    /// no arrival will signal the drain, so the rank must spin, not sleep.
    queue_blocked: bool,
}

impl<A: BspApp> BspRunner<A> {
    /// Runner for `rank` of `nranks` over endpoint `ep`.
    pub fn new(app: A, ep: EpId, rank: usize, nranks: usize) -> Self {
        BspRunner {
            app,
            stats: BspStats::default(),
            ep,
            rank,
            nranks,
            phase: Phase::Fetch,
            step_idx: 0,
            cur: SuperStep::default(),
            send_pos: 0,
            recv_counts: FxHashMap::default(),
            pending_replies: Vec::new(),
            idle_polls: 0,
            queue_blocked: false,
        }
    }

    /// Whether the rank has completed all supersteps.
    pub fn is_done(&self) -> bool {
        matches!(self.phase, Phase::Done)
    }

    fn drain(&mut self, sys: &mut Sys<'_>) {
        // Re-issue replies that hit send-queue backpressure earlier; a
        // dropped reply would leak the peer's credit forever.
        while let Some(m) = self.pending_replies.pop() {
            if sys.reply(self.ep, &m, 0, [m.msg.args[0], 0, 0, 0], 0).is_err() {
                self.pending_replies.push(m);
                break;
            }
        }
        // Requests from peers: count per step tag and reply (the reply is
        // the exchange acknowledgment that recovers the sender's credit).
        while let Some(m) = sys.poll(self.ep, QueueSel::Request) {
            if m.undeliverable {
                self.stats.bounces += 1;
                continue;
            }
            *self.recv_counts.entry(m.msg.args[0]).or_insert(0) += 1;
            if sys.reply(self.ep, &m, 0, [m.msg.args[0], 0, 0, 0], 0).is_err() {
                self.pending_replies.push(m);
            }
        }
        // Replies: recover credits (handled inside poll) and spot bounces.
        while let Some(m) = sys.poll(self.ep, QueueSel::Reply) {
            if m.undeliverable {
                self.stats.bounces += 1;
            }
        }
    }
}

impl<A: BspApp> ThreadBody for BspRunner<A> {
    fn run(&mut self, sys: &mut Sys<'_>) -> Step {
        if self.stats.started.is_none() {
            self.stats.started = Some(sys.now());
        }
        let step = self.run_inner(sys);
        // Everything a burst charges to the CPU besides Compute steps is
        // communication-primitive time.
        self.stats.comm_cpu += sys.elapsed();
        step
    }
}

impl<A: BspApp> BspRunner<A> {
    fn run_inner(&mut self, sys: &mut Sys<'_>) -> Step {
        loop {
            match self.phase {
                Phase::Done => return Step::Exit,
                Phase::Fetch => {
                    match self.app.step(self.rank, self.nranks, self.step_idx) {
                        None => {
                            self.phase = Phase::Done;
                            self.stats.finished = Some(sys.now());
                            return Step::Exit;
                        }
                        Some(s) => {
                            self.send_pos = 0;
                            let compute = s.compute;
                            self.cur = s;
                            self.phase = Phase::Computing;
                            if compute > SimDuration::ZERO {
                                self.stats.compute += compute;
                                return Step::Compute(compute);
                            }
                        }
                    }
                }
                Phase::Computing => {
                    // Compute finished (or was zero).
                    self.phase = Phase::Exchange;
                }
                Phase::Exchange => {
                    // Service peers before and after sending: replies keep
                    // the cluster's credits flowing.
                    self.drain(sys);
                    while self.send_pos < self.cur.sends.len() {
                        let (dst, bytes) = self.cur.sends[self.send_pos];
                        match sys.request(self.ep, dst, 0, [self.step_idx, 0, 0, 0], bytes) {
                            Ok(_) => {
                                self.send_pos += 1;
                                self.stats.msgs_sent += 1;
                                self.queue_blocked = false;
                            }
                            Err(SendError::NoCredit) | Err(SendError::QuotaExceeded) => break,
                            Err(SendError::QueueFull) => {
                                self.queue_blocked = true;
                                break;
                            }
                            Err(SendError::WouldBlock) => return Step::WaitResident(self.ep),
                            Err(SendError::BadIndex) | Err(SendError::TooLarge) => {
                                panic!(
                                    "rank {}: bad superstep send to {dst} (missing translation or oversized message)",
                                    self.rank
                                )
                            }
                        }
                    }
                    self.drain(sys);
                    let got = self.recv_counts.get(&self.step_idx).copied().unwrap_or(0);
                    let all_sent =
                        self.send_pos == self.cur.sends.len() && self.pending_replies.is_empty();
                    if all_sent && got >= self.cur.recv_count && sys.outstanding(self.ep) == 0 {
                        self.recv_counts.remove(&self.step_idx);
                        self.step_idx += 1;
                        self.stats.steps += 1;
                        self.idle_polls = 0;
                        self.phase = Phase::Fetch;
                        continue;
                    }
                    // Not ready: spin a little, then block on the event
                    // mask (§3.3 / §6.3 spin-block). Never block while
                    // holding backpressured replies or while sends are
                    // stalled on NI queue *space* — neither condition is
                    // signalled by an arrival, so sleeping would deadlock
                    // (a credit stall, by contrast, ends with a reply).
                    self.idle_polls += 1;
                    if self.idle_polls <= SPIN_POLLS
                        || !self.pending_replies.is_empty()
                        || self.queue_blocked
                    {
                        return Step::Yield;
                    }
                    self.idle_polls = 0;
                    return Step::WaitEvent(self.ep);
                }
            }
        }
    }
}

/// Build a `nranks`-rank job: endpoints on hosts `hosts[0..nranks]`, an
/// all-pairs virtual network, and one [`BspRunner`] thread per rank.
/// Returns the `(host, tid, endpoint)` of every rank.
pub fn launch_job<A, F>(
    cluster: &mut Cluster,
    hosts: &[HostId],
    mut make_app: F,
) -> Vec<(HostId, Tid, GlobalEp)>
where
    A: BspApp,
    F: FnMut(usize) -> A,
{
    let eps: Vec<GlobalEp> = hosts.iter().map(|&h| cluster.create_endpoint(h)).collect();
    cluster.build_virtual_network(&eps);
    hosts
        .iter()
        .enumerate()
        .map(|(rank, &h)| {
            let runner = BspRunner::new(make_app(rank), eps[rank].ep, rank, hosts.len());
            let tid = cluster.spawn_thread(h, Box::new(runner));
            (h, tid, eps[rank])
        })
        .collect()
}

/// Convenience patterns used by several workloads.
pub mod patterns {
    /// Ring neighbours: `(left, right)` of `rank` in `n`.
    pub fn ring(rank: usize, n: usize) -> (usize, usize) {
        ((rank + n - 1) % n, (rank + 1) % n)
    }

    /// Recursive-doubling partner at `round` (None when out of range).
    pub fn doubling_partner(rank: usize, n: usize, round: u32) -> Option<usize> {
        let p = rank ^ (1 << round);
        (p < n).then_some(p)
    }

    /// Rounds needed for a power-of-two dissemination over `n` ranks.
    pub fn log2_ceil(n: usize) -> u32 {
        (usize::BITS - n.saturating_sub(1).leading_zeros()).min(31)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vnet_core::{Cluster, ClusterConfig};

    /// All ranks exchange with both ring neighbours for `steps` steps.
    struct RingApp {
        steps: u64,
        bytes: u32,
        compute: SimDuration,
    }

    impl BspApp for RingApp {
        fn step(&mut self, rank: usize, n: usize, step: u64) -> Option<SuperStep> {
            if step >= self.steps {
                return None;
            }
            let (l, r) = patterns::ring(rank, n);
            Some(SuperStep {
                compute: self.compute,
                sends: vec![(l, self.bytes), (r, self.bytes)],
                recv_count: 2,
            })
        }
    }

    fn run_ring(n: u32, steps: u64, bytes: u32) -> Vec<BspStats> {
        let mut c = Cluster::new(ClusterConfig::now(n));
        let hosts: Vec<HostId> = (0..n).map(HostId).collect();
        let ranks = launch_job(&mut c, &hosts, |_| RingApp {
            steps,
            bytes,
            compute: SimDuration::from_micros(50),
        });
        c.run_for(SimDuration::from_secs(10));
        ranks
            .iter()
            .map(|&(h, tid, _)| {
                c.body::<BspRunner<RingApp>>(h, tid).expect("runner").stats.clone()
            })
            .collect()
    }

    #[test]
    fn ring_exchange_completes_on_four_nodes() {
        let stats = run_ring(4, 5, 0);
        for s in &stats {
            assert_eq!(s.steps, 5, "every rank completes every superstep");
            assert_eq!(s.msgs_sent, 10);
            assert_eq!(s.bounces, 0);
            assert!(s.finished.is_some());
            let comm = s.comm_time().unwrap();
            assert!(comm > SimDuration::ZERO);
        }
    }

    #[test]
    fn ring_exchange_with_bulk_payloads() {
        let stats = run_ring(3, 3, 8192);
        for s in &stats {
            assert_eq!(s.steps, 3);
            assert_eq!(s.bounces, 0);
        }
    }

    #[test]
    fn compute_time_is_accounted() {
        let stats = run_ring(2, 4, 0);
        for s in &stats {
            assert_eq!(s.compute, SimDuration::from_micros(200));
            assert!(s.elapsed().unwrap() >= s.compute);
        }
    }

    #[test]
    fn patterns_helpers() {
        assert_eq!(patterns::ring(0, 4), (3, 1));
        assert_eq!(patterns::doubling_partner(0, 4, 0), Some(1));
        assert_eq!(patterns::doubling_partner(0, 4, 1), Some(2));
        assert_eq!(patterns::doubling_partner(2, 3, 0), None); // 2^1=3 >= 3? 2 xor 1 = 3
        assert_eq!(patterns::log2_ceil(1), 0);
        assert_eq!(patterns::log2_ceil(4), 2);
        assert_eq!(patterns::log2_ceil(5), 3);
        assert_eq!(patterns::log2_ceil(36), 6);
    }
}
