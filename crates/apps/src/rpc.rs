//! A SunRPC-style remote procedure call layer over Active Messages —
//! Figure 1's "SunRPC" box, rebuilt on endpoints.
//!
//! Services export numbered procedures on an endpoint registered in the
//! name service; clients issue calls through a [`RpcClient`] that tracks
//! outstanding calls, matches completions, and (because the transport is
//! exactly-once) never needs the duplicate-request cache classic RPC
//! servers carry.
//!
//! The call ABI on the wire: `handler` = procedure number,
//! `args[0..3]` = three argument words (`args[3]` carries the RPC serial),
//! payload = bulk argument bytes. The reply mirrors it.

use vnet_core::prelude::*;
use vnet_sim::FxHashMap;

/// A procedure implementation: `(args, payload_bytes) -> (results,
/// reply_payload_bytes)`.
pub type Procedure = Box<dyn FnMut([u64; 3], u32) -> ([u64; 3], u32) + Send>;

/// An RPC service: a dispatch table of procedures on one endpoint.
pub struct RpcService {
    ep: EpId,
    procedures: FxHashMap<u16, Procedure>,
    /// Calls served, per procedure.
    pub served: FxHashMap<u16, u64>,
    pending: Vec<DeliveredMsg>,
}

impl RpcService {
    /// Empty service on `ep`.
    pub fn new(ep: EpId) -> Self {
        RpcService { ep, procedures: FxHashMap::default(), served: FxHashMap::default(), pending: Vec::new() }
    }

    /// Register procedure `proc_num`. Builder-style.
    pub fn with_procedure(mut self, proc_num: u16, f: Procedure) -> Self {
        self.procedures.insert(proc_num, f);
        self
    }

    fn dispatch(&mut self, sys: &mut Sys<'_>, m: DeliveredMsg) {
        let proc_num = m.msg.handler;
        let args = [m.msg.args[0], m.msg.args[1], m.msg.args[2]];
        let (res, bytes) = match self.procedures.get_mut(&proc_num) {
            Some(f) => f(args, m.msg.payload_bytes),
            // Unknown procedure: RPC error convention — echo with the
            // error marker in results[0].
            None => ([u64::MAX, 0, 0], 0),
        };
        let reply = [res[0], res[1], res[2], m.msg.args[3]];
        match sys.reply(self.ep, &m, proc_num, reply, bytes) {
            Ok(_) => *self.served.entry(proc_num).or_insert(0) += 1,
            Err(_) => self.pending.push(m),
        }
    }
}

impl ThreadBody for RpcService {
    fn run(&mut self, sys: &mut Sys<'_>) -> Step {
        while let Some(m) = self.pending.pop() {
            let before = self.pending.len();
            self.dispatch(sys, m);
            if self.pending.len() > before {
                return Step::Yield; // backpressured; retry next burst
            }
        }
        while let Some(m) = sys.poll(self.ep, QueueSel::Request) {
            self.dispatch(sys, m);
        }
        if self.pending.is_empty() {
            Step::WaitEvent(self.ep)
        } else {
            Step::Yield
        }
    }
}

/// A completed call.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RpcCompletion {
    /// Caller-assigned serial number.
    pub serial: u64,
    /// Procedure called.
    pub proc_num: u16,
    /// Three result words.
    pub results: [u64; 3],
    /// Reply payload size.
    pub payload_bytes: u32,
    /// True when the call came back undeliverable (service endpoint gone).
    pub failed: bool,
}

/// Client-side call tracking for one endpoint + destination.
#[derive(Default)]
pub struct RpcClient {
    next_serial: u64,
    outstanding: FxHashMap<u64, u16>, // serial -> proc
    /// Completions in arrival order (drain with `take_completions`).
    pub completions: Vec<RpcCompletion>,
}

impl RpcClient {
    /// Fresh client state.
    pub fn new() -> Self {
        Self::default()
    }

    /// Issue `proc_num(args)` to translation `idx`; returns the call
    /// serial. Split-phase: harvest completions later.
    pub fn call(
        &mut self,
        sys: &mut Sys<'_>,
        ep: EpId,
        idx: usize,
        proc_num: u16,
        args: [u64; 3],
        payload_bytes: u32,
    ) -> Result<u64, SendError> {
        let serial = self.next_serial;
        sys.request(ep, idx, proc_num, [args[0], args[1], args[2], serial], payload_bytes)?;
        self.next_serial += 1;
        self.outstanding.insert(serial, proc_num);
        Ok(serial)
    }

    /// Drain replies from `ep`, matching them to outstanding calls.
    /// Returns completions harvested in this pass.
    pub fn harvest(&mut self, sys: &mut Sys<'_>, ep: EpId) -> usize {
        let mut n = 0;
        while let Some(m) = sys.poll(ep, QueueSel::Reply) {
            let serial = m.msg.args[3];
            let proc_num = self.outstanding.remove(&serial).unwrap_or(m.msg.handler);
            self.completions.push(RpcCompletion {
                serial,
                proc_num,
                results: [m.msg.args[0], m.msg.args[1], m.msg.args[2]],
                payload_bytes: m.msg.payload_bytes,
                failed: m.undeliverable,
            });
            n += 1;
        }
        n
    }

    /// Calls still in flight.
    pub fn outstanding(&self) -> usize {
        self.outstanding.len()
    }

    /// Take all harvested completions.
    pub fn take_completions(&mut self) -> Vec<RpcCompletion> {
        std::mem::take(&mut self.completions)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vnet_core::{Cluster, ClusterConfig};
    use vnet_sim::SimDuration as D;

    const PROC_ADD: u16 = 1;
    const PROC_FIB: u16 = 2;
    const PROC_BLOB: u16 = 3;

    struct Caller {
        ep: EpId,
        rpc: RpcClient,
        issued: u32,
        n: u32,
        pub adds_ok: u32,
        pub fibs_ok: u32,
        pub blobs_ok: u32,
        pub errors: u32,
    }

    impl ThreadBody for Caller {
        fn run(&mut self, sys: &mut Sys<'_>) -> Step {
            self.rpc.harvest(sys, self.ep);
            for c in self.rpc.take_completions() {
                assert!(!c.failed);
                match c.proc_num {
                    PROC_ADD => {
                        assert_eq!(c.results[0], c.serial + 100);
                        self.adds_ok += 1;
                    }
                    PROC_FIB => {
                        assert_eq!(c.results[0], 55, "fib(10)");
                        self.fibs_ok += 1;
                    }
                    PROC_BLOB => {
                        assert_eq!(c.payload_bytes, 4096);
                        self.blobs_ok += 1;
                    }
                    0xDEAD => {
                        assert_eq!(c.results[0], u64::MAX, "unknown proc marker");
                        self.errors += 1;
                    }
                    _ => unreachable!(),
                }
            }
            while self.issued < self.n {
                let serial = self.issued as u64;
                let r = match self.issued % 4 {
                    0 => self.rpc.call(sys, self.ep, 0, PROC_ADD, [serial + 100, 0, 0], 0),
                    1 => self.rpc.call(sys, self.ep, 0, PROC_FIB, [10, 0, 0], 0),
                    2 => self.rpc.call(sys, self.ep, 0, PROC_BLOB, [4096, 0, 0], 0),
                    _ => self.rpc.call(sys, self.ep, 0, 0xDEAD, [0, 0, 0], 0),
                };
                match r {
                    Ok(_) => self.issued += 1,
                    Err(SendError::NoCredit) | Err(SendError::QueueFull) => break,
                    Err(SendError::WouldBlock) => return Step::WaitResident(self.ep),
                    Err(e) => panic!("{e:?}"),
                }
            }
            if self.adds_ok + self.fibs_ok + self.blobs_ok + self.errors == self.n {
                Step::Exit
            } else {
                Step::WaitEvent(self.ep)
            }
        }
    }

    #[test]
    fn mixed_procedure_calls_complete() {
        let mut c = Cluster::new(ClusterConfig::now(2));
        let cl = c.create_endpoint(HostId(0));
        let sv = c.create_endpoint(HostId(1));
        c.register_name("svc/math", sv);
        assert!(c.connect_by_name(cl, 0, "svc/math"));
        let service = RpcService::new(sv.ep)
            .with_procedure(PROC_ADD, Box::new(|a, _| ([a[0], 0, 0], 0)))
            .with_procedure(
                PROC_FIB,
                Box::new(|a, _| {
                    let (mut x, mut y) = (0u64, 1u64);
                    for _ in 0..a[0] {
                        let z = x + y;
                        x = y;
                        y = z;
                    }
                    ([x, 0, 0], 0)
                }),
            )
            .with_procedure(PROC_BLOB, Box::new(|a, _| ([a[0], 0, 0], a[0] as u32)));
        c.spawn_thread(HostId(1), Box::new(service));
        let t = c.spawn_thread(
            HostId(0),
            Box::new(Caller {
                ep: cl.ep,
                rpc: RpcClient::new(),
                issued: 0,
                n: 80,
                adds_ok: 0,
                fibs_ok: 0,
                blobs_ok: 0,
                errors: 0,
            }),
        );
        c.run_for(D::from_secs(5));
        let caller: &Caller = c.body(HostId(0), t).unwrap();
        assert_eq!(caller.adds_ok, 20);
        assert_eq!(caller.fibs_ok, 20);
        assert_eq!(caller.blobs_ok, 20);
        assert_eq!(caller.errors, 20, "unknown procedures answered with the error marker");
        assert_eq!(caller.rpc.outstanding(), 0);
    }

    #[test]
    fn rpc_survives_a_lossy_fabric() {
        let mut cfg = ClusterConfig::now(2);
        cfg.drop_prob = 0.05;
        let mut c = Cluster::new(cfg);
        let cl = c.create_endpoint(HostId(0));
        let sv = c.create_endpoint(HostId(1));
        c.connect(cl, 0, sv);
        let service =
            RpcService::new(sv.ep).with_procedure(PROC_ADD, Box::new(|a, _| ([a[0] * 2, 0, 0], 0)));
        c.spawn_thread(HostId(1), Box::new(service));
        struct Simple {
            ep: EpId,
            rpc: RpcClient,
            issued: u32,
            pub done: u32,
        }
        impl ThreadBody for Simple {
            fn run(&mut self, sys: &mut Sys<'_>) -> Step {
                self.rpc.harvest(sys, self.ep);
                for c in self.rpc.take_completions() {
                    assert_eq!(c.results[0], (c.results[0] / 2) * 2);
                    self.done += 1;
                }
                while self.issued < 50 {
                    match self.rpc.call(sys, self.ep, 0, PROC_ADD, [7, 0, 0], 0) {
                        Ok(_) => self.issued += 1,
                        Err(SendError::NoCredit) | Err(SendError::QueueFull) => break,
                        Err(SendError::WouldBlock) => return Step::WaitResident(self.ep),
                        Err(e) => panic!("{e:?}"),
                    }
                }
                if self.done == 50 {
                    Step::Exit
                } else {
                    Step::WaitEvent(self.ep)
                }
            }
        }
        let t = c.spawn_thread(
            HostId(0),
            Box::new(Simple { ep: cl.ep, rpc: RpcClient::new(), issued: 0, done: 0 }),
        );
        c.run_for(D::from_secs(20));
        assert_eq!(c.body::<Simple>(HostId(0), t).unwrap().done, 50);
    }
}
