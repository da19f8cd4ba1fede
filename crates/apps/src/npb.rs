//! NAS Parallel Benchmark (NPB 2.2, Class A) communication skeletons —
//! Figure 5.
//!
//! Each kernel is reduced to its *communication skeleton*: the real
//! per-iteration message pattern (neighbour halos, transposes, reductions)
//! with message sizes derived from the Class A problem dimensions, plus a
//! per-process compute model (serial time divided by P, with a mild cache
//! bonus for constant-problem-size scaling — the paper: "improved cache
//! performance compensates for increased communication").
//!
//! The NOW curves run over the full simulated stack; the IBM SP-2 and SGI
//! Origin 2000 comparison curves use an analytic BSP model with machine
//! parameters (per-message cost, bandwidth, CPU factor) — see DESIGN.md's
//! substitution table.

use crate::bsp::{launch_job, patterns, BspApp, BspRunner, SuperStep};
use crate::collectives;
use vnet_core::prelude::*;
use vnet_core::{Cluster, ClusterConfig};

/// The eight NPB 2.2 kernels/pseudo-apps.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Kernel {
    /// Block-tridiagonal pseudo-app: 3D structured halos, medium messages.
    Bt,
    /// Scalar-pentadiagonal pseudo-app: like BT, more frequent exchanges.
    Sp,
    /// LU factorization: wavefront pipeline of small messages.
    Lu,
    /// Multigrid: halo exchanges over V-cycle levels + tiny reductions.
    Mg,
    /// 3D FFT: all-to-all transposes (bisection-bandwidth bound).
    Ft,
    /// Integer sort: all-to-all bucket exchange each iteration.
    Is,
    /// Conjugate gradient: partner exchanges + dot-product reductions.
    Cg,
    /// Embarrassingly parallel: compute, one final reduction.
    Ep,
}

impl Kernel {
    /// All kernels in the paper's plot order.
    pub const ALL: [Kernel; 8] =
        [Kernel::Bt, Kernel::Sp, Kernel::Lu, Kernel::Mg, Kernel::Ft, Kernel::Is, Kernel::Cg, Kernel::Ep];

    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            Kernel::Bt => "BT",
            Kernel::Sp => "SP",
            Kernel::Lu => "LU",
            Kernel::Mg => "MG",
            Kernel::Ft => "FT",
            Kernel::Is => "IS",
            Kernel::Cg => "CG",
            Kernel::Ep => "EP",
        }
    }

    /// Serial compute time per iteration (µs) on a 167 MHz UltraSPARC,
    /// Class A (approximate mid-90s numbers; shape matters, not absolutes).
    fn serial_iter_us(self) -> f64 {
        match self {
            Kernel::Bt => 12_000_000.0,
            Kernel::Sp => 4_500_000.0,
            Kernel::Lu => 5_000_000.0,
            Kernel::Mg => 14_000_000.0,
            Kernel::Ft => 28_000_000.0,
            Kernel::Is => 2_200_000.0,
            Kernel::Cg => 4_000_000.0,
            Kernel::Ep => 230_000_000.0,
        }
    }

    /// Iterations simulated (a handful preserves the steady-state ratio).
    fn iters(self) -> u64 {
        match self {
            Kernel::Ep => 1,
            Kernel::Mg | Kernel::Ft => 3,
            _ => 4,
        }
    }
}

/// Split `bytes` into MTU-sized messages to `dst`.
fn chunked(dst: usize, bytes: u64, out: &mut Vec<(usize, u32)>) -> u32 {
    collectives::chunked(dst, bytes, 8192, out)
}

/// An NPB rank's precomputed superstep schedule.
pub struct NpbApp {
    schedule: Vec<SuperStep>,
}

impl NpbApp {
    /// Build the schedule for `rank` of `p` running `kernel`.
    pub fn new(kernel: Kernel, rank: usize, p: usize) -> Self {
        NpbApp { schedule: build_schedule(kernel, rank, p) }
    }
}

impl BspApp for NpbApp {
    fn step(&mut self, _rank: usize, _n: usize, step: u64) -> Option<SuperStep> {
        self.schedule.get(step as usize).cloned()
    }
}

/// Per-process compute time for one iteration on `p` processors, with a
/// mild constant-problem-size cache bonus.
fn compute_us(kernel: Kernel, p: usize) -> f64 {
    let cache_bonus = 1.0 / (1.0 + 0.07 * (1.0 - 1.0 / p as f64));
    kernel.serial_iter_us() / p as f64 * cache_bonus
}

/// Reduction rounds (recursive doubling) appended as supersteps.
fn push_allreduce(sched: &mut Vec<SuperStep>, rank: usize, p: usize) {
    collectives::allreduce(sched, rank, p);
}

fn build_schedule(kernel: Kernel, rank: usize, p: usize) -> Vec<SuperStep> {
    let mut sched = Vec::new();
    if p == 1 {
        // Serial: pure compute.
        let total = kernel.serial_iter_us() * kernel.iters() as f64;
        sched.push(SuperStep {
            compute: SimDuration::from_micros_f64(total),
            sends: vec![],
            recv_count: 0,
        });
        return sched;
    }
    let comp = SimDuration::from_micros_f64(compute_us(kernel, p));
    let (l, r) = patterns::ring(rank, p);
    for _ in 0..kernel.iters() {
        match kernel {
            Kernel::Bt | Kernel::Sp => {
                // 3D structured halos ≈ 6 faces; model as 2 ring neighbours
                // x 3 sweeps with face bytes ~ (64^2 x 5 vars x 8B) / P^(2/3).
                let face = (64.0 * 64.0 * 5.0 * 8.0 / (p as f64).powf(2.0 / 3.0)) as u64;
                let sweeps = if kernel == Kernel::Bt { 3 } else { 6 };
                for _ in 0..sweeps {
                    let mut sends = Vec::new();
                    let mut recv = 0;
                    recv += chunked(l, face, &mut sends);
                    recv += chunked(r, face, &mut sends);
                    sched.push(SuperStep {
                        compute: comp / sweeps,
                        sends,
                        recv_count: recv,
                    });
                }
            }
            Kernel::Lu => {
                // Wavefront pipeline: frequent small neighbour messages.
                let stages = 8;
                for _ in 0..stages {
                    let mut sends = Vec::new();
                    let mut recv = 0;
                    recv += chunked(r, 4096, &mut sends);
                    recv += chunked(l, 4096, &mut sends);
                    sched.push(SuperStep { compute: comp / stages, sends, recv_count: recv });
                }
            }
            Kernel::Mg => {
                // V-cycle: halo exchange per level, sizes halving. Class A
                // MG is a 256^3 grid: top-level faces are 256^2 doubles.
                let levels = 6;
                for lev in 0..levels {
                    let bytes = ((256u64 * 256 * 8) >> lev).max(64) / (p as u64).isqrt().max(1);
                    let mut sends = Vec::new();
                    let mut recv = 0;
                    recv += chunked(l, bytes, &mut sends);
                    recv += chunked(r, bytes, &mut sends);
                    sched.push(SuperStep { compute: comp / levels, sends, recv_count: recv });
                }
                push_allreduce(&mut sched, rank, p);
            }
            Kernel::Ft => {
                // Two all-to-all transposes per iteration. Class A FT is a
                // 256x256x128 complex grid: ~134 MB cross the bisection per
                // transpose, spread over P^2 pairs.
                let per_pair = (256u64 * 256 * 128 * 16) / (p as u64 * p as u64);
                for _ in 0..2 {
                    let mut sends = Vec::new();
                    let mut recv = 0;
                    for d in 0..p {
                        if d != rank {
                            recv += chunked(d, per_pair, &mut sends);
                        }
                    }
                    sched.push(SuperStep { compute: comp / 2, sends, recv_count: recv });
                }
            }
            Kernel::Is => {
                // Bucket all-to-all: 2^23 keys x 4B over P^2 pairs.
                let per_pair = (1u64 << 23) * 4 / (p as u64 * p as u64);
                let mut sends = Vec::new();
                let mut recv = 0;
                for d in 0..p {
                    if d != rank {
                        recv += chunked(d, per_pair, &mut sends);
                    }
                }
                sched.push(SuperStep { compute: comp, sends, recv_count: recv });
                push_allreduce(&mut sched, rank, p);
            }
            Kernel::Cg => {
                // Partner exchange (rows/cols) + 3 dot-product reductions.
                // Class A CG: n = 14000 double vector slices.
                let bytes = (14_000u64 * 8) / (p as u64).isqrt().max(1);
                let partner = rank ^ 1;
                let mut sends = Vec::new();
                let mut recv = 0;
                if partner < p {
                    recv += chunked(partner, bytes, &mut sends);
                }
                sched.push(SuperStep { compute: comp, sends, recv_count: recv });
                for _ in 0..3 {
                    push_allreduce(&mut sched, rank, p);
                }
            }
            Kernel::Ep => {
                sched.push(SuperStep { compute: comp, sends: vec![], recv_count: 0 });
            }
        }
    }
    if matches!(kernel, Kernel::Ep) {
        push_allreduce(&mut sched, rank, p);
    }
    sched
}

/// Run `kernel` on `p` simulated NOW nodes; returns the makespan (µs).
pub fn run_now(kernel: Kernel, p: usize, seed: u64) -> f64 {
    let mut c = Cluster::new(ClusterConfig::now(p as u32).with_seed(seed));
    let hosts: Vec<HostId> = (0..p as u32).map(HostId).collect();
    let ranks = launch_job(&mut c, &hosts, |r| NpbApp::new(kernel, r, p));
    // Long ceiling; EP at P=1 computes ~230 s.
    c.run_for(SimDuration::from_secs(3_000));
    let mut finish = SimTime::ZERO;
    for &(h, t, _) in &ranks {
        let st = &c.body::<BspRunner<NpbApp>>(h, t).expect("runner").stats;
        finish = finish.max(st.finished.unwrap_or_else(|| {
            panic!(
                "{} rank on {h} did not finish (P={p}, seed={seed}, steps={}, sent={})",
                kernel.name(),
                st.steps,
                st.msgs_sent
            )
        }));
    }
    finish.as_micros_f64()
}

/// Analytic machine model for the comparison curves.
#[derive(Clone, Debug)]
pub struct MachineModel {
    /// Display name.
    pub name: &'static str,
    /// CPU time factor relative to the NOW node (lower = faster).
    pub cpu_factor: f64,
    /// Per-message cost, µs (MPI send+recv software path).
    pub per_msg_us: f64,
    /// Per-byte cost, µs (1 / bandwidth).
    pub per_byte_us: f64,
    /// Per-superstep synchronization latency, µs.
    pub latency_us: f64,
}

impl MachineModel {
    /// IBM SP-2: heavyweight MPI (~40 µs/msg), ~35 MB/s per link.
    pub fn sp2() -> Self {
        MachineModel {
            name: "SP-2",
            cpu_factor: 1.05,
            per_msg_us: 40.0,
            per_byte_us: 1.0 / 35.0,
            latency_us: 40.0,
        }
    }

    /// SGI Origin 2000: CC-NUMA — fast CPU, very cheap communication.
    pub fn origin2000() -> Self {
        MachineModel {
            name: "Origin 2000",
            cpu_factor: 0.5,
            per_msg_us: 3.0,
            per_byte_us: 1.0 / 300.0,
            latency_us: 2.0,
        }
    }
}

/// Analytic BSP execution time (µs) of `kernel` on `p` nodes of `m`.
pub fn run_analytic(kernel: Kernel, p: usize, m: &MachineModel) -> f64 {
    // Drive the same per-rank schedules; the BSP time of a superstep is
    // max over ranks of (compute + send and receive costs) + latency.
    let scheds: Vec<Vec<SuperStep>> =
        (0..p).map(|r| build_schedule(kernel, r, p)).collect();
    let steps = scheds.iter().map(|s| s.len()).max().unwrap_or(0);
    let mut total = 0.0;
    for s in 0..steps {
        // Receive volume per rank: what everyone else sends to it.
        let mut recv_bytes = vec![0u64; p];
        let mut recv_msgs = vec![0u64; p];
        for sc in &scheds {
            if let Some(st) = sc.get(s) {
                for &(d, b) in &st.sends {
                    recv_bytes[d] += b as u64;
                    recv_msgs[d] += 1;
                }
            }
        }
        let mut worst = 0.0f64;
        for (r, rank_sched) in scheds.iter().enumerate() {
            let Some(st) = rank_sched.get(s) else { continue };
            let bytes: u64 = st.sends.iter().map(|&(_, b)| b as u64).sum();
            let t = st.compute.as_micros_f64() * m.cpu_factor
                + (st.sends.len() as f64 + recv_msgs[r] as f64) * m.per_msg_us
                + (bytes + recv_bytes[r]) as f64 * m.per_byte_us;
            worst = worst.max(t);
        }
        total += worst + m.latency_us;
    }
    total
}

/// One Figure-5 series: speedups of `kernel` at the given processor counts.
pub fn speedup_series(
    kernel: Kernel,
    procs: &[usize],
    machine: Option<&MachineModel>,
    seed: u64,
) -> Vec<(usize, f64)> {
    let t1 = match machine {
        None => run_now(kernel, 1, seed),
        Some(m) => run_analytic(kernel, 1, m),
    };
    procs
        .iter()
        .map(|&p| {
            let tp = match machine {
                None => run_now(kernel, p, seed + p as u64),
                Some(m) => run_analytic(kernel, p, m),
            };
            (p, t1 / tp)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use vnet_sim::FxHashSet;

    #[test]
    fn schedules_are_consistent_across_ranks() {
        // Total sends == total expected receives, per kernel and P.
        for &k in &Kernel::ALL {
            for &p in &[2usize, 4, 8] {
                let scheds: Vec<_> = (0..p).map(|r| build_schedule(k, r, p)).collect();
                let steps = scheds.iter().map(|s| s.len()).max().unwrap();
                assert!(
                    scheds.iter().all(|s| s.len() == steps),
                    "{} P={p}: rank schedules differ in length",
                    k.name()
                );
                for s in 0..steps {
                    let sends: u32 =
                        scheds.iter().map(|sc| sc[s].sends.len() as u32).sum();
                    let recvs: u32 = scheds.iter().map(|sc| sc[s].recv_count).sum();
                    assert_eq!(
                        sends,
                        recvs,
                        "{} P={p} step {s}: sends {sends} != recvs {recvs}",
                        k.name()
                    );
                    // And each send's destination expects it: destinations
                    // must be valid ranks.
                    for sc in &scheds {
                        for &(d, _) in &sc[s].sends {
                            assert!(d < p);
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn ep_scales_nearly_linearly_on_now() {
        let t1 = run_now(Kernel::Ep, 1, 3);
        let t4 = run_now(Kernel::Ep, 4, 3);
        let s = t1 / t4;
        assert!((3.3..4.5).contains(&s), "EP speedup at 4 procs: {s:.2}");
    }

    #[test]
    fn cg_speeds_up_on_now() {
        let t1 = run_now(Kernel::Cg, 1, 3);
        let t4 = run_now(Kernel::Cg, 4, 3);
        let s = t1 / t4;
        assert!(s > 2.2, "CG speedup at 4 procs: {s:.2}");
    }

    #[test]
    fn analytic_sp2_trails_analytic_origin() {
        for &k in &[Kernel::Mg, Kernel::Ft, Kernel::Cg] {
            let sp2 = run_analytic(k, 16, &MachineModel::sp2());
            let sp2_1 = run_analytic(k, 1, &MachineModel::sp2());
            let ori = run_analytic(k, 16, &MachineModel::origin2000());
            let ori_1 = run_analytic(k, 1, &MachineModel::origin2000());
            assert!(
                sp2_1 / sp2 < ori_1 / ori,
                "{}: SP-2 speedup should trail Origin",
                k.name()
            );
        }
    }

    #[test]
    fn ft_moves_class_a_volume() {
        // Each FT transpose moves the whole 256x256x128 complex grid
        // (134.2 MB) across ranks: per rank per transpose = total/p.
        for &p in &[4usize, 8] {
            let sched = build_schedule(Kernel::Ft, 0, p);
            let total: u64 = 256 * 256 * 128 * 16;
            // Transpose steps are the ones with (p-1)-destination fanout.
            let mut transposes = 0;
            for st in &sched {
                let dsts: FxHashSet<usize> =
                    st.sends.iter().map(|&(d, _)| d).collect();
                if dsts.len() == p - 1 {
                    let bytes: u64 = st.sends.iter().map(|&(_, b)| b as u64).sum();
                    let expect = total / p as u64 / p as u64 * (p as u64 - 1);
                    let tol = expect / 50 + 8192;
                    assert!(
                        bytes.abs_diff(expect) <= tol,
                        "P={p}: transpose bytes {bytes} vs {expect}"
                    );
                    transposes += 1;
                }
            }
            assert_eq!(transposes, 2 * Kernel::Ft.iters(), "P={p}");
        }
    }

    #[test]
    fn ep_is_almost_communication_free() {
        let sched = build_schedule(Kernel::Ep, 3, 8);
        let total_msgs: usize = sched.iter().map(|s| s.sends.len()).sum();
        assert!(total_msgs <= 3, "EP sends only the final reduction: {total_msgs}");
        let compute: f64 = sched.iter().map(|s| s.compute.as_micros_f64()).sum();
        assert!(compute > 1e6, "EP is compute-dominated");
    }

    #[test]
    fn compute_shrinks_with_p() {
        for &k in &Kernel::ALL {
            let c2 = compute_us(k, 2);
            let c8 = compute_us(k, 8);
            assert!(c8 < c2 / 3.5, "{}: {c2} -> {c8}", k.name());
        }
    }

    #[test]
    fn chunking_respects_mtu() {
        let mut v = Vec::new();
        let n = chunked(3, 20_000, &mut v);
        assert_eq!(n, 3);
        assert_eq!(v.iter().map(|&(_, b)| b as u64).sum::<u64>(), 20_000);
        assert!(v.iter().all(|&(d, b)| d == 3 && b <= 8192));
        let mut v = Vec::new();
        assert_eq!(chunked(0, 0, &mut v), 0);
        assert!(v.is_empty());
    }
}
