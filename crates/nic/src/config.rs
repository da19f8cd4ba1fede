//! NIC configuration and the calibrated firmware cost model.
//!
//! Costs are calibrated against the paper's §6.1 microbenchmarks (see
//! DESIGN.md §4): the virtual-network preset yields a small-message gap of
//! ≈12.8 µs (the paper's 2.21× the GAM gap, and consistent with the 78 K
//! msgs/s server rate of Figure 6 and the N½ ≈ 540 B of Figure 4), and the
//! GAM preset a gap of ≈5.8 µs.

use vnet_sim::SimDuration;

/// Operating mode of the interface.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum NicMode {
    /// Virtual networks: full transport protocol (acks, retransmission,
    /// protection checks), many endpoint frames, driver protocol.
    VirtualNetwork,
    /// First-generation Active Messages baseline ("GAM"): one permanently
    /// resident endpoint, no transport acknowledgments (assumes a perfect
    /// network), no key checks. Receive-queue overruns silently drop.
    Gam,
}

/// Per-operation firmware costs (time the serial LANai processor is
/// occupied). These produce the LogP parameters; see module docs.
#[derive(Clone, Debug)]
pub struct FwCosts {
    /// Process one send descriptor for a short message and inject it.
    pub send_small: SimDuration,
    /// Receive a short data frame: demux, key check, deposit, build+inject
    /// the ack.
    pub recv_small: SimDuration,
    /// Process an arriving ack/nack: channel bookkeeping, timer management,
    /// timestamp reflection.
    pub ack: SimDuration,
    /// Set up a bulk send: descriptor decode + SBUS read DMA initiation.
    pub send_bulk_setup: SimDuration,
    /// Finish a bulk send after DMA: build packet, inject.
    pub send_bulk_finish: SimDuration,
    /// Receive a bulk data frame: demux, key check, SBUS write DMA
    /// initiation.
    pub recv_bulk_setup: SimDuration,
    /// Finish a bulk receive after DMA: deposit, build+inject ack.
    pub recv_bulk_finish: SimDuration,
    /// Retransmit an in-flight frame (copy already in NI memory).
    pub retransmit: SimDuration,
    /// Process one driver-protocol operation (load/unload bookkeeping
    /// around the DMA itself, mask updates).
    pub driver_op: SimDuration,
}

impl FwCosts {
    /// Virtual-network firmware (the paper's system).
    pub fn virtual_network() -> Self {
        FwCosts {
            send_small: SimDuration::from_nanos(4_200),
            recv_small: SimDuration::from_nanos(4_400),
            ack: SimDuration::from_nanos(4_200),
            send_bulk_setup: SimDuration::from_nanos(3_000),
            send_bulk_finish: SimDuration::from_nanos(2_000),
            recv_bulk_setup: SimDuration::from_nanos(3_000),
            recv_bulk_finish: SimDuration::from_nanos(2_400),
            retransmit: SimDuration::from_nanos(3_000),
            driver_op: SimDuration::from_nanos(10_000),
        }
    }

    /// Process one entry of a batched ack (channel bookkeeping only; the
    /// per-frame demux cost is paid once by [`FwCosts::ack`]).
    pub fn ack_entry(&self) -> SimDuration {
        self.ack / 3
    }

    /// GAM baseline firmware: no transport protocol, no defensive checks
    /// (the paper: checks and defensive practices cost 1.1 µs of L and g).
    pub fn gam() -> Self {
        FwCosts {
            send_small: SimDuration::from_nanos(2_600),
            recv_small: SimDuration::from_nanos(3_200),
            ack: SimDuration::ZERO,
            send_bulk_setup: SimDuration::from_nanos(2_400),
            send_bulk_finish: SimDuration::from_nanos(1_600),
            recv_bulk_setup: SimDuration::from_nanos(2_400),
            recv_bulk_finish: SimDuration::from_nanos(2_000),
            retransmit: SimDuration::ZERO,
            driver_op: SimDuration::from_nanos(10_000),
        }
    }
}

/// Full NIC configuration.
#[derive(Clone, Debug)]
pub struct NicConfig {
    /// Operating mode.
    pub mode: NicMode,
    /// Number of endpoint frames in NI memory: 8 on the LANai 4.3 (64 KB
    /// reserved), 96 on newer interfaces (§4.1).
    pub frames: u32,
    /// Logical flow-control channels per destination host (§5.1 "multiple
    /// logical channels between all interfaces mask transmission and
    /// acknowledgment latencies").
    pub channels_per_peer: u8,
    /// Send descriptor queue depth per endpoint (§5.2: 64).
    pub send_queue_depth: usize,
    /// Request receive queue depth per endpoint (§6.4.1: 32).
    pub recv_queue_depth: usize,
    /// Payload bytes the host writes with PIO; larger payloads stage
    /// through SBUS DMA.
    pub pio_threshold: u32,
    /// Endpoint frame size moved on load/unload (64 KB / 8 frames = 8 KB).
    pub frame_bytes: u32,
    /// Maximum transmission unit (one message = one packet up to this).
    pub mtu: u32,
    /// Base retransmission timeout.
    pub rto_base: SimDuration,
    /// Retransmission timeout cap.
    pub rto_max: SimDuration,
    /// Consecutive retransmissions of one message before the NI unbinds it
    /// from its channel so the channel can be reused (§5.1).
    pub max_retx_before_unbind: u32,
    /// Unbind/rebind cycles before the message is declared undeliverable
    /// and returned to its sender ("prolonged absence of acknowledgments").
    pub max_unbind_cycles: u32,
    /// Delay before retrying a message that drew a transient NACK
    /// (non-resident / queue full); doubles per consecutive transient NACK.
    pub nack_retry_base: SimDuration,
    /// Cap on the transient-NACK retry delay.
    pub nack_retry_max: SimDuration,
    /// Firmware costs.
    pub costs: FwCosts,
    /// Duplicate-suppression window per source host (delivered uids
    /// remembered).
    pub dedup_window: usize,
    /// Estimate per-peer round-trip times from reflected timestamps and
    /// schedule retransmissions from SRTT + 4·RTTVAR instead of the fixed
    /// base timeout (the paper's §8: more NI processing power "would
    /// enable more sophisticated algorithms, e.g., round-trip times
    /// estimation for scheduling retransmissions").
    pub adaptive_rto: bool,
    /// Coalesce positive acknowledgments to the same peer for this window
    /// before emitting one batched ack frame (§8 "piggybacking
    /// acknowledgments to reduce network occupancy"). `None` = emit every
    /// ack immediately (the paper's shipped firmware). NACKs always flush
    /// immediately.
    pub ack_coalesce: Option<SimDuration>,
    /// Flush a coalescing buffer once it holds this many acks.
    pub ack_coalesce_max: usize,
    /// Bulk receive staging buffers in NI SRAM. Data frames arriving while
    /// all are busy draw a RecvQueueFull NACK (the sender's exponential
    /// backoff then self-regulates incast) — the LANai's 1 MB cannot hold
    /// an unbounded backlog of 8 KB deposits.
    pub recv_staging_bufs: usize,
    /// Link rate hint (MB/s) used to charge the GAM baseline's
    /// store-and-forward staging penalty on bulk receives: the paper notes
    /// the virtual-network NI "pipelines its processing of message
    /// descriptors to compensate for the store-and-forward delay", which
    /// the first-generation interface did not (38 vs 43.9 MB/s at 8 KB).
    pub link_mb_s_hint: f64,
}

impl NicConfig {
    /// The smallest delay between a NIC event that cannot inject a packet
    /// at its own timestamp and the earliest injection it can cause. Only
    /// [`crate::NicEvent::emits`] events put frames on the wire at their
    /// own time; everything else reaches the wire through a firmware step
    /// whose frames leave when the step completes, so the bound is the
    /// cheapest step that can emit (`send_small`, `recv_small`,
    /// `send_bulk_finish`, `recv_bulk_finish`, `retransmit`). A coalesced
    /// ack flush armed outside a step fires after the `ack_coalesce`
    /// window, which is folded in too. Zero when any of these is zero
    /// (the GAM preset's `retransmit`): then nothing is known.
    pub fn min_emit_delay(&self) -> SimDuration {
        let c = &self.costs;
        let step =
            [c.send_small, c.recv_small, c.send_bulk_finish, c.recv_bulk_finish, c.retransmit]
                .into_iter()
                .min()
                .unwrap();
        self.ack_coalesce.map_or(step, |w| step.min(w))
    }

    /// The paper's virtual-network interface with the default 8 frames.
    pub fn virtual_network() -> Self {
        NicConfig {
            mode: NicMode::VirtualNetwork,
            frames: 8,
            channels_per_peer: 4,
            send_queue_depth: 64,
            recv_queue_depth: 32,
            pio_threshold: 64,
            frame_bytes: 8 * 1024,
            mtu: 8 * 1024,
            rto_base: SimDuration::from_micros(120),
            rto_max: SimDuration::from_millis(8),
            max_retx_before_unbind: 8,
            max_unbind_cycles: 24,
            nack_retry_base: SimDuration::from_micros(150),
            nack_retry_max: SimDuration::from_millis(4),
            costs: FwCosts::virtual_network(),
            dedup_window: 4096,
            adaptive_rto: false,
            ack_coalesce: None,
            ack_coalesce_max: 8,
            recv_staging_bufs: 4,
            link_mb_s_hint: 160.0,
        }
    }

    /// The 96-frame configuration of the newer interface hardware.
    pub fn virtual_network_96() -> Self {
        NicConfig { frames: 96, ..Self::virtual_network() }
    }

    /// The GAM baseline.
    pub fn gam() -> Self {
        NicConfig {
            mode: NicMode::Gam,
            frames: 1,
            costs: FwCosts::gam(),
            ..Self::virtual_network()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vn_gap_components_match_calibration() {
        // Sender-side firmware occupancy per message: send + ack + recv of
        // the reply + ack of the reply shared across both NIs works out to
        // send + ack + recv per NI = 12.8 us (see DESIGN.md §4).
        let c = FwCosts::virtual_network();
        let g = c.send_small + c.ack + c.recv_small;
        assert_eq!(g.as_nanos(), 12_800);
    }

    #[test]
    fn gam_gap_components_match_calibration() {
        let c = FwCosts::gam();
        let g = c.send_small + c.ack + c.recv_small;
        assert_eq!(g.as_nanos(), 5_800);
        // Gap ratio the paper reports: 2.21x.
        let vn = FwCosts::virtual_network();
        let gv = (vn.send_small + vn.ack + vn.recv_small).as_nanos() as f64;
        assert!((gv / g.as_nanos() as f64 - 2.21).abs() < 0.01);
    }

    #[test]
    fn min_emit_delay_is_the_cheapest_emitting_step() {
        let vn = NicConfig::virtual_network();
        assert_eq!(vn.min_emit_delay(), SimDuration::from_nanos(2_000), "send_bulk_finish");
        let coalesced =
            NicConfig { ack_coalesce: Some(SimDuration::from_nanos(1_500)), ..vn.clone() };
        assert_eq!(coalesced.min_emit_delay(), SimDuration::from_nanos(1_500));
        assert_eq!(NicConfig::gam().min_emit_delay(), SimDuration::ZERO, "GAM retransmit costs 0");
    }

    #[test]
    fn presets_differ_where_expected() {
        let vn = NicConfig::virtual_network();
        let gam = NicConfig::gam();
        assert_eq!(vn.frames, 8);
        assert_eq!(NicConfig::virtual_network_96().frames, 96);
        assert_eq!(gam.frames, 1);
        assert_eq!(gam.mode, NicMode::Gam);
        assert_eq!(vn.send_queue_depth, 64);
        assert_eq!(vn.recv_queue_depth, 32);
    }
}
