//! The user-level communication interface as seen by one running thread.
//!
//! Application code is written as [`ThreadBody`] state machines. Each time
//! the scheduler gives a thread the CPU, the world calls
//! [`ThreadBody::run`] with a [`Sys`] handle. The body performs synchronous
//! user-level operations (posting requests and replies, polling receive
//! queues — all ordinary loads and stores against mapped endpoint memory,
//! charged with the calibrated [`crate::config::CostModel`]) and then
//! returns a [`Step`] saying how it yields the processor.
//!
//! This mirrors how Active Message programs are actually structured: all
//! communication work happens in short handler-style bursts, and blocking
//! is expressed through endpoint event masks (§3.3).

use crate::config::CostModel;
use crate::user::UserEpState;
use std::any::Any;
use vnet_nic::{
    DeliveredMsg, EndpointImage, EpId, GlobalEp, Nic, NicOut, PendingSend, PollOutcome, PostError,
    QueueSel, SendRequest, UserMsg,
};
use vnet_os::{SegmentDriver, WriteOutcome};
use vnet_sim::{AuditHandle, Auditor, FxHashMap, SimDuration, SimRng, SimTime};

/// How a thread yields the CPU after a burst of work.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Step {
    /// Consume CPU for this long (split into quanta by the scheduler),
    /// then run again.
    Compute(SimDuration),
    /// Block until the endpoint's event mask fires (message arrival).
    /// If messages are already queued, the thread stays runnable.
    WaitEvent(EpId),
    /// Block until the endpoint becomes resident (used with the write-fault
    /// ablation and page-ins).
    WaitResident(EpId),
    /// Sleep for a fixed time.
    Sleep(SimDuration),
    /// Stay runnable; let the scheduler rotate.
    Yield,
    /// Terminate the thread.
    Exit,
}

/// Why a request could not be posted.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SendError {
    /// No translation installed at that index.
    BadIndex,
    /// The 32-credit window to that destination is exhausted; poll for
    /// replies to recover credits.
    NoCredit,
    /// The endpoint's send queue (NI or host image) is full.
    QueueFull,
    /// The endpoint is mid-transition (or the write-fault ablation is
    /// active); return [`Step::WaitResident`] to wait it out.
    WouldBlock,
    /// Payload exceeds the network MTU (8 KB): one message is one packet
    /// (§5.2); fragment larger transfers at the library level the way the
    /// paper's bulk store/get and our `bsp::collectives::chunked` do.
    TooLarge,
    /// The endpoint's tenant byte budget for the current accounting epoch
    /// is exhausted (control-plane quota); retry next epoch.
    QuotaExceeded,
}

/// Fixed per-message byte charge against the tenant quota, on top of the
/// payload (header + descriptor); keeps zero-payload chatter metered.
pub const QUOTA_MSG_OVERHEAD: u64 = 64;

/// Application thread logic.
///
/// `Any` supertrait allows the harness to downcast bodies and read results
/// after a run. Bodies are *not* required to be `Send`: the parallel
/// executor moves a whole host (bodies included) between threads as one
/// closed `Rc` graph under [`vnet_sim::SendCell`]'s invariant, and only
/// ever runs it on one thread at a time.
pub trait ThreadBody: Any {
    /// One scheduling burst. See [`Sys`] for the available operations.
    fn run(&mut self, sys: &mut Sys<'_>) -> Step;
}

/// Synchronous user-level services for the running thread.
pub struct Sys<'a> {
    pub(crate) now: SimTime,
    pub(crate) host: vnet_net::HostId,
    pub(crate) nic: &'a mut Nic,
    pub(crate) os: &'a mut SegmentDriver,
    pub(crate) user: &'a mut FxHashMap<EpId, UserEpState>,
    pub(crate) keys: &'a FxHashMap<GlobalEp, vnet_nic::ProtectionKey>,
    pub(crate) cost: &'a CostModel,
    pub(crate) credits: u32,
    pub(crate) rng: &'a mut SimRng,
    pub(crate) elapsed: SimDuration,
    pub(crate) nic_outs: Vec<NicOut>,
    pub(crate) os_outs: Vec<vnet_os::OsOut>,
    /// `None` when audit hooks are detached ([`ClusterConfig::audit`]
    /// off): the fast path then performs no auditor work at all.
    ///
    /// [`ClusterConfig::audit`]: crate::config::ClusterConfig::audit
    pub(crate) auditor: Option<&'a AuditHandle>,
}

impl<'a> Sys<'a> {
    /// Current simulated time (start of this burst).
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// This thread's host.
    pub fn host(&self) -> vnet_net::HostId {
        self.host
    }

    /// CPU time consumed so far in this burst.
    pub fn elapsed(&self) -> SimDuration {
        self.elapsed
    }

    /// Deterministic per-host randomness for workload decisions.
    pub fn rng(&mut self) -> &mut SimRng {
        self.rng
    }

    fn charge(&mut self, d: SimDuration) {
        self.elapsed += d;
    }

    fn audit(&self, f: impl FnOnce(&mut Auditor)) {
        if let Some(a) = self.auditor {
            f(&mut a.borrow_mut());
        }
    }

    /// Charge the endpoint mutex cost when the endpoint is marked shared
    /// (§3.3): every operation on a shared endpoint synchronizes.
    fn charge_lock(&mut self, ep: EpId) {
        if self.user.get(&ep).map(|u| u.mode) == Some(crate::user::EpMode::Shared) {
            self.charge(self.cost.shared_lock);
        }
    }

    /// Mark the endpoint shared or exclusive (§3.3).
    pub fn set_endpoint_mode(&mut self, ep: EpId, mode: crate::user::EpMode) {
        self.user.entry(ep).or_default().mode = mode;
    }

    /// Outstanding (unreplied) requests from `ep` across all destinations.
    pub fn outstanding(&self, ep: EpId) -> u32 {
        self.user.get(&ep).map(|u| u.outstanding_total()).unwrap_or(0)
    }

    /// Outstanding requests from `ep` to translation `idx`.
    pub fn outstanding_to(&self, ep: EpId, idx: usize) -> u32 {
        self.user.get(&ep).map(|u| u.outstanding(idx)).unwrap_or(0)
    }

    /// Send an Active Message request from `ep` to translation-table entry
    /// `idx` (§3.1 endpoint-relative naming). Consumes one of the 32
    /// per-destination credits; the credit returns when the reply (or the
    /// undeliverable return) is polled.
    pub fn request(
        &mut self,
        ep: EpId,
        idx: usize,
        handler: u16,
        args: [u64; 4],
        payload_bytes: u32,
    ) -> Result<u64, SendError> {
        self.charge(self.cost.credit_check);
        self.charge_lock(ep);
        if payload_bytes > self.nic.config().mtu {
            return Err(SendError::TooLarge);
        }
        let ustate = self.user.entry(ep).or_default();
        let Some(tr) = ustate.translation(idx) else { return Err(SendError::BadIndex) };
        if ustate.outstanding(idx) >= self.credits {
            return Err(SendError::NoCredit);
        }
        // Tenant byte budget (control-plane quota): charged per admitted
        // request, epochs reset lazily so admission is a pure function of
        // (send time, prior sends) — identical sequential vs sharded.
        let quota_charge = QUOTA_MSG_OVERHEAD + payload_bytes as u64;
        let mut quota_tenant = None;
        if let Some(q) = ustate.quota.as_mut() {
            let epoch_idx = self.now.as_nanos() / q.epoch_nanos.max(1);
            if !q.admit(epoch_idx, quota_charge) {
                return Err(SendError::QuotaExceeded);
            }
            quota_tenant = Some(q.tenant);
        }
        let src_ep = GlobalEp::new(self.host, ep);
        let reply_key = self.keys.get(&src_ep).copied().unwrap_or_default();
        let msg = UserMsg {
            uid: 0,
            is_request: true,
            handler,
            args,
            payload_bytes,
            src_ep,
            reply_key,
            corr: 0,
        };
        let uid = match self.post(ep, tr.dst, tr.key, msg) {
            Ok(uid) => uid,
            Err(e) => {
                // The send never left: refund the quota charge.
                if let Some(q) =
                    self.user.get_mut(&ep).and_then(|u| u.quota.as_mut())
                {
                    q.used = q.used.saturating_sub(quota_charge);
                }
                return Err(e);
            }
        };
        self.user.get_mut(&ep).unwrap().note_sent(uid, idx);
        let (now, h, e) = (self.now, self.host.0, ep.0);
        self.audit(|a| a.on_credit_acquire(now, h, e, idx, uid));
        if quota_tenant.is_some() {
            self.audit(|a| a.on_tenant_bytes(now, h, e, quota_charge));
        }
        Ok(uid)
    }

    /// Reply to a received request (§3: request/response paradigm). Replies
    /// are not credit-limited; they are addressed by the request's return
    /// path and carry `corr` so the requester recovers its credit.
    pub fn reply(
        &mut self,
        ep: EpId,
        to: &DeliveredMsg,
        handler: u16,
        args: [u64; 4],
        payload_bytes: u32,
    ) -> Result<u64, SendError> {
        if payload_bytes > self.nic.config().mtu {
            return Err(SendError::TooLarge);
        }
        let src_ep = GlobalEp::new(self.host, ep);
        let reply_key = self.keys.get(&src_ep).copied().unwrap_or_default();
        let msg = UserMsg {
            uid: 0,
            is_request: false,
            handler,
            args,
            payload_bytes,
            src_ep,
            reply_key,
            corr: to.msg.uid,
        };
        self.post(ep, to.msg.src_ep, to.msg.reply_key, msg)
    }

    /// Common post path: resident → PIO descriptor into the NI; otherwise
    /// the four-state write-fault path of §4.2.
    fn post(
        &mut self,
        ep: EpId,
        dst: GlobalEp,
        key: vnet_nic::ProtectionKey,
        msg: UserMsg,
    ) -> Result<u64, SendError> {
        self.charge(self.cost.host_send);
        // The descriptor becomes visible to the NI when the PIO writes
        // finish — after the CPU time charged so far in this burst.
        let ready_at = self.now + self.elapsed;
        match self.os.touch_write(self.now, ep, &mut self.os_outs) {
            WriteOutcome::Resident => {
                let req = SendRequest { dst, key, msg };
                match self.nic.post_send_at(self.now, ready_at, ep, req, &mut self.nic_outs) {
                    Ok(uid) => Ok(uid),
                    Err(PostError::SendQueueFull) => Err(SendError::QueueFull),
                    // Unload raced us between the residency check and the
                    // post; take the fault path next time.
                    Err(PostError::NotResident) => Err(SendError::WouldBlock),
                }
            }
            WriteOutcome::Proceed => {
                // On-host r/w state: write the descriptor into the host
                // image; it will flow when the remap daemon loads it.
                let uid = self.nic.alloc_uid();
                let depth = self.nic.config().send_queue_depth;
                let Some(image) = self.os.host_image_mut(ep) else {
                    return Err(SendError::WouldBlock);
                };
                if image.send_q.len() >= depth {
                    return Err(SendError::QueueFull);
                }
                let mut msg = msg;
                msg.uid = uid;
                image.send_q.push_back(PendingSend {
                    uid,
                    dst,
                    key,
                    msg: std::sync::Arc::new(msg),
                    not_before: ready_at,
                    nacks: 0,
                    unbind_cycles: 0,
                });
                let (now, h) = (self.now, self.host.0);
                self.audit(|a| a.on_posted(now, h, uid));
                Ok(uid)
            }
            WriteOutcome::MustBlock => Err(SendError::WouldBlock),
        }
    }

    /// Poll a receive queue of `ep`. Charges the residency-dependent poll
    /// cost (§6.4: uncached NI memory vs cacheable host memory) plus the
    /// receive overhead o_r when a message is dequeued. Handles credit
    /// recovery for replies and undeliverable returns.
    pub fn poll(&mut self, ep: EpId, q: QueueSel) -> Option<DeliveredMsg> {
        self.charge_lock(ep);
        let got = if self.nic.is_resident(ep) {
            self.charge(self.cost.poll_nic);
            match self.nic.poll_recv(self.now, ep, q) {
                PollOutcome::Msg(m) => Some(m),
                _ => None,
            }
        } else {
            self.charge(self.cost.poll_host);
            let image = self.os.host_image_mut(ep)?;
            match q {
                QueueSel::Request => image.recv_req.pop_front(),
                QueueSel::Reply => image.recv_rep.pop_front(),
            }
        };
        if let Some(m) = &got {
            // The o_r receive overhead subsumes the poll probe that found
            // the message (total charge for a successful poll = o_r).
            let poll_cost =
                if self.nic.is_resident(ep) { self.cost.poll_nic } else { self.cost.poll_host };
            self.charge(self.cost.host_recv - poll_cost);
            if !m.msg.is_request || m.undeliverable {
                // Reply or bounced request: recover the credit.
                let uid = if m.undeliverable { m.msg.uid } else { m.msg.corr };
                let released =
                    self.user.get_mut(&ep).is_some_and(|u| u.note_completed(uid).is_some());
                if released {
                    let (now, h, e) = (self.now, self.host.0, ep.0);
                    self.audit(|a| a.on_credit_release(now, h, e, uid));
                }
            }
        }
        got
    }

    /// Whether `ep` has any received message waiting (either queue),
    /// charged like a poll.
    pub fn has_messages(&mut self, ep: EpId) -> bool {
        if self.nic.is_resident(ep) {
            self.charge(self.cost.poll_nic);
            self.nic.recv_depths(ep).map(|(a, b)| a + b > 0).unwrap_or(false)
        } else {
            self.charge(self.cost.poll_host);
            self.os.host_image(ep).map(|i| i.has_received()).unwrap_or(false)
        }
    }

    /// Whether `ep` is currently resident (bound to an NI frame).
    pub fn is_resident(&self, ep: EpId) -> bool {
        self.nic.is_resident(ep)
    }

    /// Translation-table management (§3.1): point `idx` of `ep` at `dst`.
    /// The key is resolved through the name service snapshot the world
    /// holds; unknown destinations get the open key.
    pub fn set_translation(&mut self, ep: EpId, idx: usize, dst: GlobalEp) {
        let key = self.keys.get(&dst).copied().unwrap_or_default();
        self.user.entry(ep).or_default().set_translation(idx, dst, key);
    }

    /// Host image accessor for tests and warm-up logic.
    pub fn host_image(&self, ep: EpId) -> Option<&EndpointImage> {
        self.os.host_image(ep)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // Sys is exercised end-to-end through the Cluster tests in
    // `crate::cluster`; here we only pin trivial enum behaviour.
    #[test]
    fn step_equality() {
        assert_eq!(Step::Yield, Step::Yield);
        assert_ne!(Step::Exit, Step::Yield);
        assert_eq!(
            Step::Compute(SimDuration::from_micros(5)),
            Step::Compute(SimDuration::from_micros(5))
        );
    }

    #[test]
    fn send_error_classification() {
        assert_ne!(SendError::NoCredit, SendError::QueueFull);
    }
}
