//! Property tests for the NIC protocol machinery: stop-and-wait channel
//! invariants under randomized operation sequences, WRR non-starvation, and
//! end-to-end exactly-once delivery under randomized loss.
//!
//! Cases are generated from [`SimRng`] seeds rather than an external
//! property-testing crate, so the suite builds offline.

use vnet_net::{Fabric, FaultPlan, HostId, NetConfig, Topology, TopologySpec};
use vnet_nic::channel::{ChannelState, InFlight};
use vnet_nic::sched::WrrScheduler;
use vnet_nic::testkit::{request, Harness};
use vnet_nic::{
    EpId, Frame, FrameKind, GlobalEp, NicConfig, PollOutcome, ProtectionKey, QueueSel, UserMsg,
};
use vnet_sim::{FxHashSet, SimDuration, SimRng, SimTime};

fn inflight(uid: u64) -> InFlight {
    InFlight {
        uid,
        src_ep: EpId(0),
        frame: Frame {
            kind: FrameKind::Data(std::sync::Arc::new(UserMsg {
                uid,
                is_request: true,
                handler: 0,
                args: [0; 4],
                payload_bytes: 0,
                src_ep: GlobalEp::new(HostId(0), EpId(0)),
                reply_key: ProtectionKey::OPEN,
                corr: 0,
            })),
            dst_ep: EpId(0),
            key: ProtectionKey::OPEN,
            chan: 0,
            seq: 0,
            ack_uid: 0,
            timestamp: 0,
        },
        bytes: 48,
        last_tx: SimTime::ZERO,
        retx: 0,
        gen: 0,
    }
}

#[derive(Clone, Copy, Debug)]
enum ChanOp {
    Bind(u64),
    Ack(u64),
    Retransmit,
    Unbind,
}

fn random_op(rng: &mut SimRng) -> ChanOp {
    match rng.below(4) {
        0 => ChanOp::Bind(rng.below(8)),
        1 => ChanOp::Ack(rng.below(8)),
        2 => ChanOp::Retransmit,
        _ => ChanOp::Unbind,
    }
}

/// Randomized legal op sequences keep the stop-and-wait invariants:
/// sequence numbers strictly increase per binding, the generation
/// counter is monotone, and at most one frame is in flight.
#[test]
fn channel_state_machine() {
    for case in 0..256u64 {
        let mut rng = SimRng::seed_from_u64(0xC4A7 + case);
        let n_ops = rng.index(200);
        let rto = SimDuration::from_micros(100);
        let rto_max = SimDuration::from_millis(8);
        let mut c = ChannelState::new(rto);
        let mut last_seq: Option<u64> = None;
        let mut last_gen = 0u64;
        for _ in 0..n_ops {
            let op = random_op(&mut rng);
            match op {
                ChanOp::Bind(uid) => {
                    if c.is_free() {
                        let seq = c.bind(inflight(uid));
                        if let Some(prev) = last_seq {
                            assert!(seq > prev, "case {case}: sequence must increase");
                        }
                        last_seq = Some(seq);
                    }
                }
                ChanOp::Ack(uid) => {
                    let was_busy = c.in_flight.is_some();
                    let done = c.complete(uid, rto);
                    if let Some(done) = done {
                        assert!(was_busy, "case {case}");
                        assert_eq!(done.uid, uid, "case {case}");
                        assert_eq!(c.rto, rto, "case {case}: ack resets backoff");
                    }
                }
                ChanOp::Retransmit => {
                    if c.in_flight.is_some() {
                        c.on_retransmit(rto_max);
                        assert!(c.rto <= rto_max, "case {case}: backoff is capped");
                    }
                }
                ChanOp::Unbind => {
                    let _ = c.unbind(rto);
                    assert!(c.in_flight.is_none(), "case {case}");
                }
            }
            assert!(c.gen >= last_gen, "case {case}: generation must be monotone");
            last_gen = c.gen;
        }
    }
}

/// WRR never starves a frame with persistent work: over any work
/// pattern, every busy frame is selected within (frames x budget)
/// selections.
#[test]
fn wrr_no_starvation() {
    for case in 0..256u64 {
        let mut rng = SimRng::seed_from_u64(0x3A2 + case);
        let n = 2 + rng.index(30);
        let busy: Vec<bool> = (0..n).map(|_| rng.chance(0.5)).collect();
        if !busy.iter().any(|&b| b) {
            continue;
        }
        let mut s = WrrScheduler::with_bounds(n, 4, SimDuration::from_secs(1));
        let mut hits = vec![0u32; n];
        for _ in 0..n as u32 * 4 * 3 {
            if let Some(i) = s.select(SimTime::ZERO, |i| busy[i]) {
                s.served();
                hits[i] += 1;
            }
        }
        for (i, &b) in busy.iter().enumerate() {
            if b {
                assert!(hits[i] > 0, "case {case}: frame {i} starved: {hits:?}");
            } else {
                assert_eq!(hits[i], 0, "case {case}: idle frame {i} serviced");
            }
        }
    }
}

/// End-to-end exactly-once: randomized loss/corruption rates and message
/// counts deliver every message exactly once.
#[test]
fn exactly_once_under_arbitrary_loss() {
    for case in 0..8u64 {
        let mut rng = SimRng::seed_from_u64(0x10E5 + case);
        let seed = rng.below(u64::MAX);
        let drop = rng.unit() * 0.25;
        let corrupt = rng.unit() * 0.15;
        let n = 5 + rng.index(35);

        let topo = Topology::build(TopologySpec::Crossbar { hosts: 2 });
        let fabric =
            Fabric::new(NetConfig::default(), topo, FaultPlan::with_errors(seed, drop, corrupt));
        let mut h = Harness::with_fabric(2, NicConfig::virtual_network(), fabric);
        let key = ProtectionKey(9);
        h.bring_up(0, EpId(0), ProtectionKey(1));
        h.bring_up(1, EpId(0), key);
        let mut posted = 0usize;
        let mut got = Vec::new();
        while got.len() < n {
            while posted < n && posted - got.len() < 8 {
                if !h.try_post(0, EpId(0), request(1, 0, key, 0)) {
                    break;
                }
                posted += 1;
            }
            h.run_for(SimDuration::from_micros(400));
            while let PollOutcome::Msg(m) = h.poll(1, EpId(0), QueueSel::Request) {
                got.push(m.msg.uid);
            }
            if h.now().as_secs_f64() > 60.0 {
                break;
            }
        }
        assert_eq!(got.len(), n, "case {case}: all messages deliver (drop={drop} corrupt={corrupt})");
        let unique: FxHashSet<_> = got.iter().collect();
        assert_eq!(unique.len(), n, "case {case}: duplicate delivery detected");
    }
}
