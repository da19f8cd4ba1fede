//! Behavioural tests of the user-level interface (`Sys`): endpoint modes,
//! translation management, credit scoping, and the write-fault ablation.

use vnet_core::prelude::*;
use vnet_core::{Cluster, ClusterConfig};
use vnet_sim::SimDuration as D;

struct Echo {
    ep: EpId,
}
impl ThreadBody for Echo {
    fn run(&mut self, sys: &mut Sys<'_>) -> Step {
        while let Some(m) = sys.poll(self.ep, QueueSel::Request) {
            sys.reply(self.ep, &m, 0, m.msg.args, 0).expect("echo");
        }
        Step::WaitEvent(self.ep)
    }
}

/// Measures the CPU cost of one request+poll pair in the given mode.
struct CostProbe {
    ep: EpId,
    mode: EpMode,
    configured: bool,
    pub request_cost_us: f64,
    pub poll_cost_us: f64,
    done: bool,
}

impl ThreadBody for CostProbe {
    fn run(&mut self, sys: &mut Sys<'_>) -> Step {
        if !self.configured {
            sys.set_endpoint_mode(self.ep, self.mode);
            self.configured = true;
        }
        if self.done {
            return Step::Exit;
        }
        if sys.outstanding(self.ep) == 0 && self.request_cost_us == 0.0 {
            let e0 = sys.elapsed();
            sys.request(self.ep, 1, 0, [0; 4], 0).expect("send");
            self.request_cost_us = (sys.elapsed() - e0).as_micros_f64();
            return Step::Yield;
        }
        let e0 = sys.elapsed();
        if sys.poll(self.ep, QueueSel::Reply).is_some() {
            self.poll_cost_us = (sys.elapsed() - e0).as_micros_f64();
            self.done = true;
            return Step::Exit;
        }
        Step::Yield
    }
}

fn probe(mode: EpMode) -> (f64, f64) {
    let mut c = Cluster::new(ClusterConfig::now(2));
    let a = c.create_endpoint(HostId(0));
    let b = c.create_endpoint(HostId(1));
    c.build_virtual_network(&[a, b]);
    c.make_resident(a);
    c.make_resident(b);
    c.spawn_thread(HostId(1), Box::new(Echo { ep: b.ep }));
    let t = c.spawn_thread(
        HostId(0),
        Box::new(CostProbe {
            ep: a.ep,
            mode,
            configured: false,
            request_cost_us: 0.0,
            poll_cost_us: 0.0,
            done: false,
        }),
    );
    c.run_for(D::from_millis(20));
    let p: &CostProbe = c.body(HostId(0), t).unwrap();
    assert!(p.done);
    (p.request_cost_us, p.poll_cost_us)
}

#[test]
fn shared_endpoints_pay_the_lock_exclusive_do_not() {
    let (req_x, poll_x) = probe(EpMode::Exclusive);
    let (req_s, poll_s) = probe(EpMode::Shared);
    // Section 3.3: shared endpoints synchronize on every operation; the
    // calibrated mutex cost is 0.5 us.
    assert!((req_s - req_x - 0.5).abs() < 0.01, "request: {req_x} vs {req_s}");
    assert!((poll_s - poll_x - 0.5).abs() < 0.01, "poll: {poll_x} vs {poll_s}");
}

#[test]
fn two_threads_share_one_endpoint() {
    // Section 3.3: "many threads may concurrently access a single
    // endpoint" — two sender threads drive the same shared endpoint.
    struct HalfSender {
        ep: EpId,
        want: u32,
        sent: u32,
        got: u32,
        configured: bool,
    }
    impl ThreadBody for HalfSender {
        fn run(&mut self, sys: &mut Sys<'_>) -> Step {
            if !self.configured {
                sys.set_endpoint_mode(self.ep, EpMode::Shared);
                self.configured = true;
            }
            while self.sent < self.want {
                match sys.request(self.ep, 1, 0, [0; 4], 0) {
                    Ok(_) => self.sent += 1,
                    Err(SendError::NoCredit) | Err(SendError::QueueFull) => break,
                    Err(SendError::WouldBlock) => return Step::WaitResident(self.ep),
                    Err(e) => panic!("{e:?}"),
                }
            }
            while sys.poll(self.ep, QueueSel::Reply).is_some() {
                self.got += 1;
            }
            // The endpoint state (outstanding credits) is shared: both
            // threads observe global completion.
            if self.sent == self.want && sys.outstanding(self.ep) == 0 {
                Step::Exit
            } else {
                Step::Yield
            }
        }
    }
    let mut c = Cluster::new(ClusterConfig::now(2));
    let a = c.create_endpoint(HostId(0));
    let b = c.create_endpoint(HostId(1));
    c.build_virtual_network(&[a, b]);
    c.spawn_thread(HostId(1), Box::new(Echo { ep: b.ep }));
    let t1 = c.spawn_thread(
        HostId(0),
        Box::new(HalfSender { ep: a.ep, want: 20, sent: 0, got: 0, configured: false }),
    );
    let t2 = c.spawn_thread(
        HostId(0),
        Box::new(HalfSender { ep: a.ep, want: 20, sent: 0, got: 0, configured: false }),
    );
    c.run_for(D::from_millis(200));
    let g1 = c.body::<HalfSender>(HostId(0), t1).unwrap().got;
    let g2 = c.body::<HalfSender>(HostId(0), t2).unwrap().got;
    // Replies are polled by whichever thread runs first; together they must
    // account for every request.
    assert_eq!(g1 + g2, 40, "all replies consumed across sharing threads");
}

#[test]
fn ablation_write_fault_blocks_until_resident() {
    struct OneShot {
        ep: EpId,
        blocked_once: bool,
        sent: bool,
    }
    impl ThreadBody for OneShot {
        fn run(&mut self, sys: &mut Sys<'_>) -> Step {
            if self.sent {
                return Step::Exit;
            }
            match sys.request(self.ep, 1, 0, [0; 4], 0) {
                Ok(_) => {
                    self.sent = true;
                    Step::Exit
                }
                Err(SendError::WouldBlock) => {
                    self.blocked_once = true;
                    Step::WaitResident(self.ep)
                }
                Err(e) => panic!("{e:?}"),
            }
        }
    }
    let mut cfg = ClusterConfig::now(2);
    cfg.os.fast_write_fault = false; // the paper's original (ablated) design
    let mut c = Cluster::new(cfg);
    let a = c.create_endpoint(HostId(0));
    let b = c.create_endpoint(HostId(1));
    c.build_virtual_network(&[a, b]);
    c.make_resident(b);
    let t = c.spawn_thread(HostId(0), Box::new(OneShot { ep: a.ep, blocked_once: false, sent: false }));
    c.run_for(D::from_millis(100));
    let o: &OneShot = c.body(HostId(0), t).unwrap();
    assert!(o.blocked_once, "without on-host r/w the first write must block");
    assert!(o.sent, "the thread resumes once the endpoint is resident");
}

#[test]
fn translations_managed_through_sys() {
    struct Installer {
        ep: EpId,
        target: GlobalEp,
        sent: bool,
    }
    impl ThreadBody for Installer {
        fn run(&mut self, sys: &mut Sys<'_>) -> Step {
            if !self.sent {
                // Install a translation at runtime, then use it.
                sys.set_translation(self.ep, 5, self.target);
                match sys.request(self.ep, 5, 0, [0; 4], 0) {
                    Ok(_) => self.sent = true,
                    Err(SendError::WouldBlock) => return Step::WaitResident(self.ep),
                    Err(e) => panic!("{e:?}"),
                }
                return Step::Yield;
            }
            if sys.poll(self.ep, QueueSel::Reply).is_some() {
                return Step::Exit;
            }
            Step::WaitEvent(self.ep)
        }
    }
    let mut c = Cluster::new(ClusterConfig::now(2));
    let a = c.create_endpoint(HostId(0));
    let b = c.create_endpoint(HostId(1));
    c.spawn_thread(HostId(1), Box::new(Echo { ep: b.ep }));
    let t = c.spawn_thread(HostId(0), Box::new(Installer { ep: a.ep, target: b, sent: false }));
    c.run_for(D::from_millis(100));
    assert!(c.body::<Installer>(HostId(0), t).unwrap().sent);
    assert!(c.sched(HostId(0)).live_threads() == 0, "installer exited after its reply");
}

#[test]
fn oversized_payloads_are_rejected() {
    struct Oversend {
        ep: EpId,
        saw_too_large: bool,
    }
    impl ThreadBody for Oversend {
        fn run(&mut self, sys: &mut Sys<'_>) -> Step {
            match sys.request(self.ep, 1, 0, [0; 4], 9000) {
                Err(SendError::TooLarge) => self.saw_too_large = true,
                other => panic!("expected TooLarge, got {other:?}"),
            }
            Step::Exit
        }
    }
    let mut c = Cluster::new(ClusterConfig::now(2));
    let a = c.create_endpoint(HostId(0));
    let b = c.create_endpoint(HostId(1));
    c.build_virtual_network(&[a, b]);
    let t = c.spawn_thread(HostId(0), Box::new(Oversend { ep: a.ep, saw_too_large: false }));
    c.run_for(D::from_millis(5));
    assert!(c.body::<Oversend>(HostId(0), t).unwrap().saw_too_large);
}

#[test]
fn trace_records_driver_activity() {
    let mut c = Cluster::new(ClusterConfig::now(2).with_telemetry(true));
    let a = c.create_endpoint(HostId(0));
    c.make_resident(a);
    let log = c.telemetry().handle().expect("telemetry attached").borrow().span_log();
    let begin = log
        .lines()
        .find(|l| l.contains(" h0 os.seg/ep_load begin "))
        .unwrap_or_else(|| panic!("span log must show the load begin:\n{log}"));
    let id = begin.split_whitespace().nth(4).expect("span id");
    assert!(
        log.lines().any(|l| l.contains(" h0 ") && l.ends_with(&format!(" end {id}"))),
        "the load span must end once the endpoint is resident:\n{log}"
    );
}
