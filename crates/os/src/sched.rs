//! Per-node thread scheduler.
//!
//! A conventional local time-sharing scheduler (§6.3 relies on "implicit
//! co-scheduling which coordinates the scheduling of processes within
//! parallel applications using conventional local schedulers"): one CPU per
//! node, a round-robin ready queue with a fixed quantum, and threads that
//! block on endpoint events or residency transitions (§3.3 thread-based
//! events).
//!
//! The scheduler owns only thread *states*; executing thread bodies is the
//! composing world's job (it asks [`Scheduler::current`], runs the body,
//! and reports back via `block`/`yield_current`/`exit_current`).

use std::collections::VecDeque;
use std::fmt;
use vnet_nic::EpId;
use vnet_sim::{FxHashMap, SimDuration, SimTime};

/// Thread identifier, unique within a node.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Tid(pub u32);

impl fmt::Debug for Tid {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t{}", self.0)
    }
}

/// Why a thread is not runnable.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BlockReason {
    /// Waiting on an endpoint's event mask (message arrival).
    EndpointEvent(EpId),
    /// Waiting for an endpoint to become resident (ablation path / page-in).
    Residency(EpId),
    /// Voluntary sleep until a deadline (the composing world arms the
    /// timer and calls [`Scheduler::wake`]).
    Sleep,
}

/// Scheduler tunables.
#[derive(Clone, Debug)]
pub struct SchedConfig {
    /// Round-robin timeslice.
    pub quantum: SimDuration,
    /// Context-switch cost charged when the running thread changes.
    pub switch_cost: SimDuration,
}

impl Default for SchedConfig {
    fn default() -> Self {
        SchedConfig {
            quantum: SimDuration::from_millis(10),
            switch_cost: SimDuration::from_micros(15),
        }
    }
}

#[derive(Clone, Debug, PartialEq, Eq)]
enum TState {
    Ready,
    Running,
    Blocked(BlockReason),
    Done,
}

/// One node's thread scheduler.
pub struct Scheduler {
    cfg: SchedConfig,
    threads: FxHashMap<Tid, TState>,
    ready: VecDeque<Tid>,
    running: Option<Tid>,
    last_ran: Option<Tid>,
    slice_started: SimTime,
    next_tid: u32,
    preemptions: u64,
    switches: u64,
}

impl Scheduler {
    /// Empty scheduler.
    pub fn new(cfg: SchedConfig) -> Self {
        Scheduler {
            cfg,
            threads: FxHashMap::default(),
            ready: VecDeque::new(),
            running: None,
            last_ran: None,
            slice_started: SimTime::ZERO,
            next_tid: 0,
            preemptions: 0,
            switches: 0,
        }
    }

    /// Create a thread in the Ready state; returns its id.
    pub fn spawn(&mut self) -> Tid {
        let tid = Tid(self.next_tid);
        self.next_tid += 1;
        self.threads.insert(tid, TState::Ready);
        self.ready.push_back(tid);
        tid
    }

    /// The thread currently on the CPU, if any.
    pub fn current(&self) -> Option<Tid> {
        self.running
    }

    /// Whether any thread is ready or running.
    pub fn has_runnable(&self) -> bool {
        self.running.is_some() || !self.ready.is_empty()
    }

    /// Number of threads waiting in the ready queue (excluding the
    /// incumbent).
    pub fn ready_count(&self) -> usize {
        self.ready.len()
    }

    /// Number of live (not Done) threads.
    pub fn live_threads(&self) -> usize {
        self.threads.values().filter(|s| **s != TState::Done).count()
    }

    /// Times the quantum expired on a running thread.
    pub fn preemptions(&self) -> u64 {
        self.preemptions
    }

    /// Thread-to-thread switches performed.
    pub fn switches(&self) -> u64 {
        self.switches
    }

    /// Dispatch: ensure some ready thread is running. Returns the switch
    /// cost to charge — zero when the incumbent keeps the CPU, nothing is
    /// runnable, or the same thread resumes after a yield (no context
    /// actually switches).
    pub fn dispatch(&mut self, now: SimTime) -> SimDuration {
        if self.running.is_some() {
            return SimDuration::ZERO;
        }
        let Some(tid) = self.ready.pop_front() else { return SimDuration::ZERO };
        debug_assert_eq!(self.threads[&tid], TState::Ready);
        self.threads.insert(tid, TState::Running);
        self.running = Some(tid);
        self.slice_started = now;
        if self.last_ran == Some(tid) {
            return SimDuration::ZERO;
        }
        self.last_ran = Some(tid);
        self.switches += 1;
        self.cfg.switch_cost
    }

    /// If the incumbent has exhausted its quantum and someone else is
    /// ready, move it to the back of the ready queue. Returns true if a
    /// preemption occurred (caller should then `dispatch`).
    pub fn preempt_if_due(&mut self, now: SimTime) -> bool {
        let Some(tid) = self.running else { return false };
        if self.ready.is_empty() {
            return false;
        }
        if now.since(self.slice_started) < self.cfg.quantum {
            return false;
        }
        self.threads.insert(tid, TState::Ready);
        self.ready.push_back(tid);
        self.running = None;
        self.preemptions += 1;
        true
    }

    /// Remaining quantum for the incumbent (full quantum if none).
    pub fn quantum_left(&self, now: SimTime) -> SimDuration {
        match self.running {
            Some(_) => self.cfg.quantum - now.since(self.slice_started),
            None => self.cfg.quantum,
        }
    }

    /// Block the running thread. Panics if no thread is running.
    pub fn block_current(&mut self, reason: BlockReason) -> Tid {
        let tid = self.running.take().expect("no running thread to block");
        self.threads.insert(tid, TState::Blocked(reason));
        tid
    }

    /// The running thread yields the CPU but stays ready.
    pub fn yield_current(&mut self) -> Tid {
        let tid = self.running.take().expect("no running thread to yield");
        self.threads.insert(tid, TState::Ready);
        self.ready.push_back(tid);
        tid
    }

    /// The running thread exits.
    pub fn exit_current(&mut self) -> Tid {
        let tid = self.running.take().expect("no running thread to exit");
        self.threads.insert(tid, TState::Done);
        tid
    }

    /// Wake a blocked thread (no-op for ready/running/done threads, so
    /// spurious wakeups are safe). Returns true if the thread became ready.
    pub fn wake(&mut self, tid: Tid) -> bool {
        match self.threads.get(&tid) {
            Some(TState::Blocked(_)) => {
                self.threads.insert(tid, TState::Ready);
                self.ready.push_back(tid);
                true
            }
            _ => false,
        }
    }

    /// All threads blocked on an event for endpoint `ep`, in tid order
    /// (deterministic wake order regardless of map layout).
    pub fn blocked_on_event(&self, ep: EpId) -> Vec<Tid> {
        let mut v: Vec<Tid> = self
            .threads
            .iter()
            .filter_map(|(t, s)| match s {
                TState::Blocked(BlockReason::EndpointEvent(e)) if *e == ep => Some(*t),
                _ => None,
            })
            .collect();
        v.sort_unstable();
        v
    }

    /// All threads blocked waiting for `ep` to become resident, in tid
    /// order.
    pub fn blocked_on_residency(&self, ep: EpId) -> Vec<Tid> {
        let mut v: Vec<Tid> = self
            .threads
            .iter()
            .filter_map(|(t, s)| match s {
                TState::Blocked(BlockReason::Residency(e)) if *e == ep => Some(*t),
                _ => None,
            })
            .collect();
        v.sort_unstable();
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sched() -> Scheduler {
        Scheduler::new(SchedConfig::default())
    }

    #[test]
    fn spawn_and_dispatch_fifo() {
        let mut s = sched();
        let a = s.spawn();
        let b = s.spawn();
        assert!(s.has_runnable());
        let cost = s.dispatch(SimTime::ZERO);
        assert!(cost > SimDuration::ZERO);
        assert_eq!(s.current(), Some(a));
        s.yield_current();
        s.dispatch(SimTime::ZERO);
        assert_eq!(s.current(), Some(b));
    }

    #[test]
    fn incumbent_keeps_cpu_without_dispatch_cost() {
        let mut s = sched();
        s.spawn();
        s.dispatch(SimTime::ZERO);
        assert_eq!(s.dispatch(SimTime::ZERO), SimDuration::ZERO);
    }

    #[test]
    fn quantum_preemption_round_robins() {
        let mut s = sched();
        let a = s.spawn();
        let b = s.spawn();
        s.dispatch(SimTime::ZERO);
        // Before the quantum: no preemption.
        assert!(!s.preempt_if_due(SimTime::ZERO + SimDuration::from_millis(5)));
        // After: preempted, b dispatches.
        let t = SimTime::ZERO + SimDuration::from_millis(11);
        assert!(s.preempt_if_due(t));
        s.dispatch(t);
        assert_eq!(s.current(), Some(b));
        assert_eq!(s.preemptions(), 1);
        // a is at the back of the queue.
        let t2 = t + SimDuration::from_millis(11);
        assert!(s.preempt_if_due(t2));
        s.dispatch(t2);
        assert_eq!(s.current(), Some(a));
    }

    #[test]
    fn no_preemption_when_alone() {
        let mut s = sched();
        s.spawn();
        s.dispatch(SimTime::ZERO);
        assert!(!s.preempt_if_due(SimTime::ZERO + SimDuration::from_secs(5)));
    }

    #[test]
    fn block_and_wake_cycle() {
        let mut s = sched();
        let a = s.spawn();
        s.dispatch(SimTime::ZERO);
        let blocked = s.block_current(BlockReason::EndpointEvent(EpId(3)));
        assert_eq!(blocked, a);
        assert!(!s.has_runnable());
        assert_eq!(s.blocked_on_event(EpId(3)), vec![a]);
        assert!(s.wake(a));
        assert!(!s.wake(a), "double wake is a no-op");
        s.dispatch(SimTime::ZERO);
        assert_eq!(s.current(), Some(a));
    }

    #[test]
    fn residency_blocking_is_queryable() {
        let mut s = sched();
        let a = s.spawn();
        s.dispatch(SimTime::ZERO);
        s.block_current(BlockReason::Residency(EpId(1)));
        assert_eq!(s.blocked_on_residency(EpId(1)), vec![a]);
        assert!(s.blocked_on_event(EpId(1)).is_empty());
    }

    #[test]
    fn exit_reduces_live_count() {
        let mut s = sched();
        s.spawn();
        s.spawn();
        s.dispatch(SimTime::ZERO);
        assert_eq!(s.live_threads(), 2);
        s.exit_current();
        assert_eq!(s.live_threads(), 1);
        s.dispatch(SimTime::ZERO);
        s.exit_current();
        assert!(!s.has_runnable());
    }

    #[test]
    fn quantum_left_shrinks() {
        let mut s = sched();
        s.spawn();
        s.dispatch(SimTime::ZERO);
        let left = s.quantum_left(SimTime::ZERO + SimDuration::from_millis(4));
        assert_eq!(left, SimDuration::from_millis(6));
    }
}
