//! Protocol-level integration tests for the NIC transport (§5.1–§5.3):
//! exactly-once delivery under faults, NACK semantics, quiescent unload,
//! channel unbinding, hot-swap recovery, and firmware throughput.

use vnet_net::{Fabric, FaultPlan, LinkId, NetConfig, Topology, TopologySpec};
use vnet_nic::testkit::{request, Harness};
use vnet_nic::{
    DriverMsg, DriverOp, EndpointImage, EpId, NicConfig, PollOutcome, ProtectionKey, QueueSel,
};
use vnet_sim::telemetry::MetricSet;
use vnet_sim::{FxHashSet, SimDuration};

const KEY: ProtectionKey = ProtectionKey(42);

fn two_hosts() -> Harness {
    let mut h = Harness::crossbar(2, NicConfig::virtual_network());
    h.bring_up(0, EpId(0), ProtectionKey(1));
    h.bring_up(1, EpId(0), KEY);
    h
}

fn drain_requests(h: &mut Harness, host: usize, ep: EpId) -> Vec<u64> {
    let mut got = vec![];
    loop {
        match h.poll(host, ep, QueueSel::Request) {
            PollOutcome::Msg(m) => got.push(m.msg.uid),
            PollOutcome::Empty => break,
            PollOutcome::NotResident => break,
        }
        // Keep the pipeline moving: polls free queue slots, which matters
        // for overrun tests.
        h.run_for(SimDuration::from_micros(5));
    }
    got
}

#[test]
fn burst_within_queue_depth_delivered_in_order() {
    let mut h = two_hosts();
    for _ in 0..32 {
        h.post(0, EpId(0), request(1, 0, KEY, 0));
    }
    h.settle();
    let got = drain_requests(&mut h, 1, EpId(0));
    assert_eq!(got.len(), 32);
    let mut sorted = got.clone();
    sorted.sort_unstable();
    assert_eq!(got, sorted, "single-endpoint stream must stay FIFO");
    assert_eq!(h.world.nics[1].stats().counter_value("nacks_tx"), 0);
}

#[test]
fn overrun_draws_queue_full_nacks_then_recovers() {
    let mut h = two_hosts();
    // 64 sends into a 32-deep request queue with no draining: the excess
    // draws RecvQueueFull NACKs and retries.
    for _ in 0..64 {
        h.post(0, EpId(0), request(1, 0, KEY, 0));
    }
    // Let the first burst land and the NACK storm develop.
    h.run_for(SimDuration::from_millis(2));
    assert!(
        h.world.nics[0].stats().counter_value("nacks_rx_queue_full") > 0,
        "expected RecvQueueFull NACKs"
    );
    // Drain while the NIC keeps retrying; everything arrives exactly once.
    let mut got = vec![];
    for _ in 0..200 {
        if let PollOutcome::Msg(m) = h.poll(1, EpId(0), QueueSel::Request) {
            got.push(m.msg.uid);
        }
        h.run_for(SimDuration::from_micros(200));
        if got.len() == 64 {
            break;
        }
    }
    assert_eq!(got.len(), 64, "all messages must eventually deliver");
    let unique: FxHashSet<_> = got.iter().collect();
    assert_eq!(unique.len(), 64, "exactly-once violated");
}

#[test]
fn exactly_once_under_random_drops() {
    let topo = Topology::build(TopologySpec::Crossbar { hosts: 2 });
    let fabric = Fabric::new(NetConfig::default(), topo, FaultPlan::with_errors(11, 0.10, 0.05));
    let mut h = Harness::with_fabric(2, NicConfig::virtual_network(), fabric);
    h.bring_up(0, EpId(0), ProtectionKey(1));
    h.bring_up(1, EpId(0), KEY);
    let n = 100;
    let mut posted = 0;
    let mut got = vec![];
    while posted < n || got.len() < n {
        if posted < n {
            // Stay inside the send queue depth.
            for _ in 0..8.min(n - posted) {
                h.post(0, EpId(0), request(1, 0, KEY, 0));
                posted += 1;
            }
        }
        for _ in 0..64 {
            if let PollOutcome::Msg(m) = h.poll(1, EpId(0), QueueSel::Request) {
                assert!(!m.undeliverable);
                got.push(m.msg.uid);
            }
            h.run_for(SimDuration::from_micros(300));
        }
        if h.now().as_secs_f64() > 30.0 {
            break;
        }
    }
    assert_eq!(got.len(), n, "all messages deliver despite 10% drop / 5% corrupt");
    let unique: FxHashSet<_> = got.iter().collect();
    assert_eq!(unique.len(), n, "no duplicates despite retransmission");
    assert!(h.world.nics[0].stats().counter_value("retransmits") > 0, "drops must force retransmission");
    assert!(h.world.nics[1].stats().counter_value("crc_drops") > 0, "corruption must be seen and dropped");
}

#[test]
fn bad_key_returns_to_sender() {
    let mut h = two_hosts();
    h.post(0, EpId(0), request(1, 0, ProtectionKey(666), 0));
    h.settle();
    // Nothing delivered at the destination.
    assert!(matches!(h.poll(1, EpId(0), QueueSel::Request), PollOutcome::Empty));
    // The sender's reply queue got the message back, marked undeliverable.
    match h.poll(0, EpId(0), QueueSel::Reply) {
        PollOutcome::Msg(m) => assert!(m.undeliverable),
        other => panic!("expected undeliverable return, got {other:?}"),
    }
    assert_eq!(h.world.nics[0].stats().counter_value("nacks_rx_bad_key"), 1);
    assert_eq!(h.world.nics[0].stats().counter_value("returned_to_sender"), 1);
}

#[test]
fn unknown_endpoint_returns_to_sender() {
    let mut h = two_hosts();
    h.post(0, EpId(0), request(1, 9, KEY, 0));
    h.settle();
    match h.poll(0, EpId(0), QueueSel::Reply) {
        PollOutcome::Msg(m) => assert!(m.undeliverable),
        other => panic!("expected undeliverable return, got {other:?}"),
    }
    assert_eq!(h.world.nics[0].stats().counter_value("nacks_rx_no_endpoint"), 1);
}

#[test]
fn non_resident_destination_nacks_and_requests_residency() {
    let mut h = two_hosts();
    // Register (but do not load) a second endpoint on host 1.
    h.driver(1, DriverOp::Register { ep: EpId(1), clock: 0 });
    h.settle();
    h.post(0, EpId(0), request(1, 1, KEY, 0));
    h.run_for(SimDuration::from_micros(500));
    assert!(h.world.nics[0].stats().counter_value("nacks_rx_not_resident") >= 1);
    assert!(
        h.world.driver_mail[1]
            .iter()
            .any(|m| matches!(m, DriverMsg::NeedResident { ep: EpId(1), .. })),
        "receiver NI must ask its driver to make the endpoint resident"
    );
    // The driver obliges; the pending retry then delivers.
    h.driver(
        1,
        DriverOp::Load { ep: EpId(1), image: Box::new(EndpointImage::new(KEY)), clock: 1 },
    );
    h.settle();
    match h.poll(1, EpId(1), QueueSel::Request) {
        PollOutcome::Msg(m) => assert!(!m.undeliverable),
        other => panic!("expected delivery after load, got {other:?}"),
    }
}

#[test]
fn quiescent_unload_preserves_queued_sends() {
    let mut h = two_hosts();
    // Saturate: park many sends, then immediately unload the endpoint.
    for _ in 0..16 {
        h.post(0, EpId(0), request(1, 0, KEY, 0));
    }
    h.driver(0, DriverOp::Unload { ep: EpId(0), clock: 5 });
    h.settle();
    // Unloaded must eventually arrive with an image carrying the unsent
    // descriptors (some messages may have left before the drain began).
    let img = h.world.driver_mail[0]
        .iter()
        .find_map(|m| match m {
            DriverMsg::Unloaded { ep: EpId(0), image, .. } => Some(image.clone()),
            _ => None,
        })
        .expect("unload must complete");
    let sent_before_drain = drain_requests(&mut h, 1, EpId(0)).len();
    assert_eq!(
        sent_before_drain + img.send_q.len(),
        16,
        "every message is either delivered or preserved in the image"
    );
    // Reload: the preserved messages flow.
    h.driver(0, DriverOp::Load { ep: EpId(0), image: img, clock: 6 });
    h.settle();
    let rest = drain_requests(&mut h, 1, EpId(0)).len();
    assert_eq!(sent_before_drain + rest, 16);
}

#[test]
fn bulk_transfer_delivers_payload() {
    let mut h = two_hosts();
    h.post(0, EpId(0), request(1, 0, KEY, 8192));
    h.settle();
    match h.poll(1, EpId(0), QueueSel::Request) {
        PollOutcome::Msg(m) => assert_eq!(m.msg.payload_bytes, 8192),
        other => panic!("expected bulk delivery, got {other:?}"),
    }
    // Both DMA engines moved the payload (plus nothing else here).
    assert!(h.world.nics[0].dma().bytes() >= 8192);
    assert!(h.world.nics[1].dma().bytes() >= 8192);
}

#[test]
fn bulk_stream_approaches_sbus_write_limit() {
    let mut h = two_hosts();
    let n = 50u32;
    // Windowed transfer (the paper's bandwidth microbenchmark shape): keep
    // at most 8 requests outstanding so the 32-deep receive queue never
    // overruns, and drain promptly.
    let window = 8u32;
    let mut delivered = 0;
    let mut posted = 0;
    let t0 = h.now();
    while delivered < n {
        while posted < n && posted - delivered < window {
            assert!(h.try_post(0, EpId(0), request(1, 0, KEY, 8192)));
            posted += 1;
        }
        h.run_for(SimDuration::from_micros(25));
        while let PollOutcome::Msg(_) = h.poll(1, EpId(0), QueueSel::Request) {
            delivered += 1;
        }
        if h.now().as_secs_f64() > 5.0 {
            panic!("bulk stream stalled: {delivered}/{n}");
        }
    }
    let secs = (h.now() - t0).as_secs_f64();
    let mbps = (n as u64 * 8192) as f64 / 1e6 / secs;
    // The paper: 43.9 MB/s delivered against a 46.8 MB/s SBUS write limit.
    assert!(mbps > 38.0 && mbps < 46.8, "delivered {mbps:.1} MB/s");
}

#[test]
fn small_message_gap_matches_calibration() {
    let mut h = two_hosts();
    let n = 400;
    let mut delivered = 0;
    let mut posted = 0;
    let t0 = h.now();
    while delivered < n {
        while posted < n {
            if !h.try_post(0, EpId(0), request(1, 0, KEY, 0)) {
                break;
            }
            posted += 1;
        }
        h.run_for(SimDuration::from_micros(100));
        while let PollOutcome::Msg(_) = h.poll(1, EpId(0), QueueSel::Request) {
            delivered += 1;
        }
        if h.now().as_secs_f64() > 5.0 {
            panic!("stream stalled: {delivered}/{n}");
        }
    }
    let per_msg_us = (h.now() - t0).as_micros_f64() / n as f64;
    // One-way stream without replies: the sender pays send+ack, the
    // receiver recv; the rate-limiting stage is send+ack = 8.4 us.
    assert!(
        per_msg_us > 7.5 && per_msg_us < 10.5,
        "per-message time {per_msg_us:.2} us out of range"
    );
}

#[test]
fn dead_link_unbinds_then_returns_to_sender() {
    let mut h = two_hosts();
    // Kill every path from host 0 (its injection link).
    h.world.fabric.faults_mut().link_down(LinkId(0));
    h.post(0, EpId(0), request(1, 0, KEY, 0));
    h.settle();
    let s = h.world.nics[0].stats();
    assert!(s.counter_value("unbinds") >= 1, "persistent loss must unbind the channel");
    assert_eq!(s.counter_value("returned_to_sender"), 1, "and finally return to sender");
    match h.poll(0, EpId(0), QueueSel::Reply) {
        PollOutcome::Msg(m) => assert!(m.undeliverable),
        other => panic!("expected undeliverable return, got {other:?}"),
    }
}

#[test]
fn hot_swap_recovery_within_retry_budget() {
    let mut h = two_hosts();
    h.world.fabric.faults_mut().link_down(LinkId(0));
    h.post(0, EpId(0), request(1, 0, KEY, 0));
    // Bring the link back while retries are still in budget.
    h.run_for(SimDuration::from_millis(30));
    h.world.fabric.faults_mut().link_up(LinkId(0));
    h.settle();
    match h.poll(1, EpId(0), QueueSel::Request) {
        PollOutcome::Msg(m) => assert!(!m.undeliverable, "message survives the hot swap"),
        other => panic!("expected delivery after link restore, got {other:?}"),
    }
    assert_eq!(h.world.nics[0].stats().counter_value("returned_to_sender"), 0);
}

#[test]
fn gam_mode_drops_on_overrun() {
    let mut h = Harness::crossbar(2, NicConfig::gam());
    h.bring_up(0, EpId(0), ProtectionKey::OPEN);
    h.bring_up(1, EpId(0), ProtectionKey::OPEN);
    for _ in 0..40 {
        h.post(0, EpId(0), request(1, 0, ProtectionKey::OPEN, 0));
    }
    h.settle();
    let got = drain_requests(&mut h, 1, EpId(0));
    assert_eq!(got.len(), 32, "GAM delivers only what fits the queue");
    assert_eq!(h.world.nics[1].stats().counter_value("gam_overruns"), 8);
    assert_eq!(h.world.nics[0].stats().counter_value("retransmits"), 0, "GAM never retransmits");
}

#[test]
fn wrr_shares_firmware_between_endpoints() {
    // Host 0 hosts two endpoints, each streaming to a different peer.
    let mut h = Harness::crossbar(3, NicConfig::virtual_network());
    h.bring_up(0, EpId(0), ProtectionKey(1));
    h.bring_up(0, EpId(1), ProtectionKey(2));
    h.bring_up(1, EpId(0), KEY);
    h.bring_up(2, EpId(0), KEY);
    let n = 64;
    for _ in 0..n {
        h.post(0, EpId(0), request(1, 0, KEY, 0));
        h.post(0, EpId(1), request(2, 0, KEY, 0));
    }
    // Run long enough for roughly half of the traffic to complete; both
    // destinations should have progressed comparably (WRR fairness).
    h.run_for(SimDuration::from_micros(600));
    let d1 = drain_requests(&mut h, 1, EpId(0)).len() as i64;
    let d2 = drain_requests(&mut h, 2, EpId(0)).len() as i64;
    assert!(d1 > 0 && d2 > 0);
    assert!((d1 - d2).abs() <= 8, "unfair service: {d1} vs {d2}");
}

#[test]
fn timestamps_give_rtt_samples() {
    let mut h = two_hosts();
    for _ in 0..10 {
        h.post(0, EpId(0), request(1, 0, KEY, 0));
        h.settle();
    }
    let stats = h.world.nics[0].stats();
    assert_eq!(stats.rtt_us().count(), 10, "each ack reflects a timestamp");
}

#[test]
fn bulk_exactly_once_under_drops() {
    // The staging path has its own duplicate hazard: a retransmitted copy
    // arriving while the first is still staging through the SBUS must not
    // deposit twice.
    let topo = Topology::build(TopologySpec::Crossbar { hosts: 2 });
    let fabric = Fabric::new(NetConfig::default(), topo, FaultPlan::with_errors(5, 0.15, 0.0));
    let mut h = Harness::with_fabric(2, NicConfig::virtual_network(), fabric);
    h.bring_up(0, EpId(0), ProtectionKey(1));
    h.bring_up(1, EpId(0), KEY);
    let n = 30;
    let mut posted = 0u32;
    let mut got = vec![];
    while got.len() < n {
        while posted < n as u32 && posted as usize - got.len() < 6 {
            if !h.try_post(0, EpId(0), request(1, 0, KEY, 8192)) {
                break;
            }
            posted += 1;
        }
        h.run_for(SimDuration::from_micros(100));
        while let PollOutcome::Msg(m) = h.poll(1, EpId(0), QueueSel::Request) {
            got.push(m.msg.uid);
        }
        if h.now().as_secs_f64() > 30.0 {
            break;
        }
    }
    assert_eq!(got.len(), n, "every bulk message delivers");
    let unique: FxHashSet<_> = got.iter().collect();
    assert_eq!(unique.len(), n, "bulk exactly-once violated");
}
