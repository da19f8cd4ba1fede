//! One-sided put/get over Active Messages — the Split-C style of remote
//! access the paper's user community ran ("the Split-C language originally
//! developed for the CM-5", §2), and the memory-based model of the SHRIMP
//! and Memory Channel systems discussed in §7, realized as AM
//! request/reply pairs.
//!
//! The target side runs a [`MemoryServer`]: a word-addressable region
//! whose handlers implement `GET(addr, words)` (bulk reply) and
//! `PUT(addr, value)` / bulk put (payload write + ack). The initiator uses
//! [`OneSided`] to issue operations and harvest completions.

use vnet_core::prelude::*;
use vnet_sim::FxHashMap;

/// Handler: read `args[1]` words at word address `args[0]`.
pub const OP_GET: u16 = 0x6E7;
/// Handler: write word `args[1]` at word address `args[0]` (plus any bulk
/// payload at `args[0]`).
pub const OP_PUT: u16 = 0x9D7;

/// Exported memory region served by one endpoint.
pub struct MemoryServer {
    ep: EpId,
    /// The exported words.
    pub memory: Vec<u64>,
    /// Gets served.
    pub gets: u64,
    /// Puts applied.
    pub puts: u64,
    pending: Vec<DeliveredMsg>,
}

impl MemoryServer {
    /// Serve `words` zeroed words from `ep`.
    pub fn new(ep: EpId, words: usize) -> Self {
        MemoryServer { ep, memory: vec![0; words], gets: 0, puts: 0, pending: Vec::new() }
    }

    fn serve(&mut self, sys: &mut Sys<'_>, m: DeliveredMsg) {
        let addr = m.msg.args[0] as usize;
        let result = match m.msg.handler {
            OP_GET => {
                let words = m.msg.args[1] as usize;
                let end = (addr + words).min(self.memory.len());
                // Reply carries the first word inline and the rest as bulk
                // payload (sizes are modeled; the inline word is real data).
                let first = self.memory.get(addr).copied().unwrap_or(0);
                let bulk = (end.saturating_sub(addr) * 8) as u32;
                sys.reply(self.ep, &m, OP_GET, [addr as u64, first, bulk as u64, 0], bulk)
            }
            OP_PUT => {
                if let Some(slot) = self.memory.get_mut(addr) {
                    *slot = m.msg.args[1];
                }
                sys.reply(self.ep, &m, OP_PUT, [addr as u64, 0, 0, 0], 0)
            }
            other => panic!("memory server got handler {other}"),
        };
        match result {
            Ok(_) => {
                if m.msg.handler == OP_GET {
                    self.gets += 1;
                } else {
                    self.puts += 1;
                }
            }
            Err(_) => self.pending.push(m),
        }
    }
}

impl ThreadBody for MemoryServer {
    fn run(&mut self, sys: &mut Sys<'_>) -> Step {
        while let Some(m) = self.pending.pop() {
            let before = self.pending.len();
            self.serve(sys, m);
            if self.pending.len() > before {
                return Step::Yield;
            }
        }
        while let Some(m) = sys.poll(self.ep, QueueSel::Request) {
            self.serve(sys, m);
        }
        if self.pending.is_empty() {
            Step::WaitEvent(self.ep)
        } else {
            Step::Yield
        }
    }
}

/// A completed get.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct GetResult {
    /// Word address read.
    pub addr: u64,
    /// First word of the data.
    pub first_word: u64,
    /// Bytes transferred.
    pub bytes: u32,
}

/// Initiator-side bookkeeping for split-phase one-sided operations.
#[derive(Debug, Default)]
pub struct OneSided {
    outstanding_gets: FxHashMap<u64, u64>, // uid -> addr
    outstanding_puts: FxHashMap<u64, u64>,
    /// Completed gets, in completion order.
    pub completed_gets: Vec<GetResult>,
    /// Puts acknowledged.
    pub acked_puts: u64,
}

impl OneSided {
    /// Fresh tracker.
    pub fn new() -> Self {
        Self::default()
    }

    /// Issue `get(addr, words)` to translation `idx` (split-phase: returns
    /// immediately; harvest with [`OneSided::harvest`]).
    pub fn get(
        &mut self,
        sys: &mut Sys<'_>,
        ep: EpId,
        idx: usize,
        addr: u64,
        words: u32,
    ) -> Result<(), SendError> {
        let uid = sys.request(ep, idx, OP_GET, [addr, words as u64, 0, 0], 0)?;
        self.outstanding_gets.insert(uid, addr);
        Ok(())
    }

    /// Issue `put(addr, value)`.
    pub fn put(
        &mut self,
        sys: &mut Sys<'_>,
        ep: EpId,
        idx: usize,
        addr: u64,
        value: u64,
    ) -> Result<(), SendError> {
        let uid = sys.request(ep, idx, OP_PUT, [addr, value, 0, 0], 0)?;
        self.outstanding_puts.insert(uid, addr);
        Ok(())
    }

    /// Drain replies from `ep`, recording completions. Returns how many
    /// operations completed in this pass.
    pub fn harvest(&mut self, sys: &mut Sys<'_>, ep: EpId) -> usize {
        let mut n = 0;
        while let Some(m) = sys.poll(ep, QueueSel::Reply) {
            assert!(!m.undeliverable, "one-sided op bounced");
            match m.msg.handler {
                OP_GET => {
                    self.outstanding_gets.remove(&m.msg.corr);
                    self.completed_gets.push(GetResult {
                        addr: m.msg.args[0],
                        first_word: m.msg.args[1],
                        bytes: m.msg.payload_bytes,
                    });
                }
                OP_PUT => {
                    self.outstanding_puts.remove(&m.msg.corr);
                    self.acked_puts += 1;
                }
                _ => unreachable!("unexpected completion"),
            }
            n += 1;
        }
        n
    }

    /// Operations still in flight.
    pub fn outstanding(&self) -> usize {
        self.outstanding_gets.len() + self.outstanding_puts.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vnet_core::{Cluster, ClusterConfig};
    use vnet_sim::SimDuration as D;

    /// Writes fib values then reads them back.
    struct FibClient {
        ep: EpId,
        ops: OneSided,
        phase: u8,
        issued: u64,
        n: u64,
        pub verified: u64,
    }

    impl ThreadBody for FibClient {
        fn run(&mut self, sys: &mut Sys<'_>) -> Step {
            self.ops.harvest(sys, self.ep);
            match self.phase {
                0 => {
                    while self.issued < self.n {
                        let v = fib(self.issued);
                        match self.ops.put(sys, self.ep, 0, self.issued, v) {
                            Ok(()) => self.issued += 1,
                            Err(SendError::NoCredit) | Err(SendError::QueueFull) => break,
                            Err(SendError::WouldBlock) => return Step::WaitResident(self.ep),
                            Err(e) => panic!("{e:?}"),
                        }
                    }
                    if self.ops.acked_puts == self.n {
                        self.phase = 1;
                        self.issued = 0;
                    }
                    Step::Yield
                }
                1 => {
                    while self.issued < self.n {
                        match self.ops.get(sys, self.ep, 0, self.issued, 4) {
                            Ok(()) => self.issued += 1,
                            Err(SendError::NoCredit) | Err(SendError::QueueFull) => break,
                            Err(SendError::WouldBlock) => return Step::WaitResident(self.ep),
                            Err(e) => panic!("{e:?}"),
                        }
                    }
                    if self.ops.completed_gets.len() as u64 == self.n {
                        for g in &self.ops.completed_gets {
                            assert_eq!(g.first_word, fib(g.addr), "remote read mismatch");
                            assert_eq!(g.bytes, 32);
                            self.verified += 1;
                        }
                        self.phase = 2;
                        return Step::Exit;
                    }
                    Step::Yield
                }
                _ => Step::Exit,
            }
        }
    }

    fn fib(n: u64) -> u64 {
        let (mut a, mut b) = (0u64, 1u64);
        for _ in 0..n {
            let c = a + b;
            a = b;
            b = c;
        }
        a
    }

    #[test]
    fn put_then_get_round_trip() {
        let mut c = Cluster::new(ClusterConfig::now(2));
        let a = c.create_endpoint(HostId(0));
        let b = c.create_endpoint(HostId(1));
        c.connect(a, 0, b);
        c.spawn_thread(HostId(1), Box::new(MemoryServer::new(b.ep, 256)));
        let t = c.spawn_thread(
            HostId(0),
            Box::new(FibClient { ep: a.ep, ops: OneSided::new(), phase: 0, issued: 0, n: 64, verified: 0 }),
        );
        c.run_for(D::from_secs(5));
        let cl: &FibClient = c.body(HostId(0), t).unwrap();
        assert_eq!(cl.verified, 64, "every remote word read back correctly");
        assert_eq!(cl.ops.outstanding(), 0);
    }

    #[test]
    fn gets_move_real_data_and_modeled_bulk() {
        // A get of 512 words returns a 4 KB modeled payload plus the first
        // word inline — checks both the data and the size accounting.
        struct BigGet {
            ep: EpId,
            ops: OneSided,
            started: bool,
            pub ok: bool,
        }
        impl ThreadBody for BigGet {
            fn run(&mut self, sys: &mut Sys<'_>) -> Step {
                if !self.started {
                    self.started = true;
                    self.ops.get(sys, self.ep, 0, 0, 512).expect("get");
                    return Step::Yield;
                }
                self.ops.harvest(sys, self.ep);
                if let Some(g) = self.ops.completed_gets.first() {
                    assert_eq!(g.bytes, 4096);
                    self.ok = true;
                    return Step::Exit;
                }
                Step::WaitEvent(self.ep)
            }
        }
        let mut c = Cluster::new(ClusterConfig::now(2));
        let a = c.create_endpoint(HostId(0));
        let b = c.create_endpoint(HostId(1));
        c.connect(a, 0, b);
        c.spawn_thread(HostId(1), Box::new(MemoryServer::new(b.ep, 1024)));
        let t = c.spawn_thread(
            HostId(0),
            Box::new(BigGet { ep: a.ep, ops: OneSided::new(), started: false, ok: false }),
        );
        c.run_for(D::from_secs(2));
        assert!(c.body::<BigGet>(HostId(0), t).unwrap().ok);
    }
}
