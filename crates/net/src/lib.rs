//! Myrinet-like system-area network model.
//!
//! Reproduces the network substrate of the PPoPP'99 cluster: 1.28 Gb/s
//! full-duplex links, cut-through switches with ~300 ns per-hop latency, a
//! fat-tree-like topology of 25 switches connecting 100 hosts, deterministic
//! source routing with per-channel multipath, link-level flow control
//! (modeled as link reservation: contended links delay, never silently drop),
//! and fault injection for transmission errors and hot-swapped links.
//!
//! The fabric is *payload generic*: it moves [`Packet<P>`] values and charges
//! simulated time for their wire size, never inspecting `P`. The NIC crate
//! instantiates `P` with its own frame type.
//!
//! # Model
//!
//! A packet injected at time *t* walks its route's links in order. Each link
//! is a reservation server: the packet enters a link when both the link is
//! free and the packet's head has arrived from the previous hop
//! (cut-through), occupies it for `bytes / bandwidth`, and its head reaches
//! the next hop one `hop_latency` later. The delivery time returned by
//! [`Fabric::inject`] is when the packet's **tail** arrives at the
//! destination host. This closed-form walk is exact for FIFO links and
//! captures both pipelining (multi-hop latency grows by latency, not
//! serialization, per hop) and contention (busy links stretch delivery),
//! which are the only network properties the NIC protocols observe.
//!
//! [`Fabric::delay_only`] builds the same fabric without link reservation:
//! every packet sees the uncontended walk above, so fleet-scale runs can
//! skip contention while keeping routes, hop latencies, faults, ingress
//! sequences and link counters. It is one mode of the one [`Fabric`]; the
//! walk differs only in whether a link's reservation can delay the head.

#![warn(missing_docs)]

pub mod fabric;
pub mod fault;
pub mod packet;
pub mod partition;
pub mod routing;
pub mod schedule;
pub mod topology;

pub use fabric::{Fabric, InjectOutcome, LinkStats, NetConfig, Phase1};
pub use fault::{DropCounts, DropReason, FaultOp, FaultPlan, GilbertElliott};
pub use partition::Partition;
pub use packet::{HostId, Packet};
pub use routing::Route;
pub use schedule::{DegradeWindow, FaultScheduleSpec, LinkFlap, RouteOracle, SwitchFailure};
pub use topology::{LinkId, Topology, TopologySpec};
