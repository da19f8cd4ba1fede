//! Deterministic discrete-event simulation kernel for the `vnet` stack.
//!
//! This crate is the foundation substrate of the PPoPP'99 *virtual networks*
//! reproduction: every other crate (network fabric, network interface, host
//! operating system) is expressed as event handlers driven by the [`Engine`]
//! defined here.
//!
//! Design points:
//!
//! * **Determinism.** Events that are scheduled for the same timestamp are
//!   delivered in scheduling order (FIFO tie-breaking on a monotone sequence
//!   number). All randomness flows through [`rng::SimRng`], a seeded small
//!   PRNG, so a run is a pure function of `(configuration, seed)`.
//! * **Single-threaded shards.** Simulation state is `Rc`-linked and never
//!   *shared* across threads. The conservative parallel executor
//!   ([`parallel`]) still scales one simulation across cores by moving
//!   whole shards (a closed `Rc` graph each) between epoch barriers;
//!   within an epoch every shard runs strictly single-threaded.
//! * **O(1) timers.** Protocol code cancels timers constantly (an
//!   acknowledgment cancels a retransmission timer), so the queue is a
//!   hierarchical timing wheel ([`wheel`]) with O(1) schedule and O(1)
//!   generation-checked cancellation; the per-event loop allocates
//!   nothing.

#![warn(missing_docs)]

pub mod audit;
pub mod engine;
pub mod fxhash;
pub mod parallel;
pub mod rng;
pub mod stats;
pub mod telemetry;
pub mod time;
pub mod wheel;

pub use audit::{AuditCounters, AuditHandle, Auditor, EpPhase, MsgFate, Violation};
pub use engine::{Ctx, Engine, EventId, SimWorld};
pub use fxhash::{fx_map_with_capacity, FxHashMap, FxHashSet, FxHasher};
pub use parallel::{
    run_conservative, PairLookahead, ParRun, ParShard, SendCell, ShardEpochs, INGRESS_KEY_BIT,
};
pub use telemetry::{
    MetricSet, MetricValue, MetricVisitor, MetricsSnapshot, SpanId, Summary, Telemetry,
    TelemetryHandle,
};
pub use wheel::{Due, RefHeap, TimingWheel};
pub use rng::SimRng;
pub use time::{SimDuration, SimTime};
