//! Deterministic, seeded fault injection for the simulated CUDA/MPI stack.
//!
//! Real CUDA-aware MPI runs fail: `cudaMalloc` returns OOM, streams get
//! destroyed while in use, requests error out. The simulator substrate
//! lets us *schedule* such failures deterministically: a [`FaultPlan`]
//! (seed + rate) decides at every interception site — each checked CUDA
//! or MPI call — whether the call returns its typed error instead of
//! running. The decision is a pure function of `(seed, site index)`:
//!
//! * **Deterministic**: the same plan over the same call sequence faults
//!   the same sites, every run. This is what makes per-seed race reports
//!   and traces reproducible (`chaos_soak` asserts it).
//! * **Rank-independent**: the site counter is per rank, but the hash
//!   does not mix the rank in. A bulk-synchronous app whose ranks issue
//!   the same call sequence therefore faults *in lockstep* on every
//!   rank, so a failed collective is abandoned by all ranks at once
//!   instead of deadlocking the survivors. (Asymmetric schedules still
//!   degrade gracefully: once every rank is blocked, `mpi-sim` fails
//!   each wait with `MpiError::Deadlock` rather than hanging.)
//!
//! Fired faults flow through the event pipeline as
//! [`crate::CusanEvent::ApiFault`], so recorded traces carry the fault
//! schedule and offline replay reproduces a faulty run bit-for-bit
//! without re-deciding anything.
//!
//! Configure via [`crate::ToolConfig::faults`].

use std::cell::Cell;

/// Decisions per million sites (the fixed-point domain of the rate).
const PPM: u64 = 1_000_000;

/// A deterministic fault schedule: seed + fault rate.
///
/// The default (and [`FaultPlan::DISABLED`]) injects nothing and is
/// byte-for-byte invisible: no events, no counters, no behavior change.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FaultPlan {
    /// Seed mixed into every site decision.
    pub seed: u64,
    /// Fault probability in parts per million (0 = disabled, 1_000_000 =
    /// every site faults).
    pub rate_ppm: u32,
}

impl FaultPlan {
    /// No fault injection (the default).
    pub const DISABLED: FaultPlan = FaultPlan {
        seed: 0,
        rate_ppm: 0,
    };

    /// A plan from a seed and a fault probability in `[0, 1]`.
    pub fn with_rate(seed: u64, rate: f64) -> FaultPlan {
        let ppm = (rate * PPM as f64).round().clamp(0.0, PPM as f64) as u32;
        FaultPlan {
            seed,
            rate_ppm: ppm,
        }
    }

    /// True if this plan can ever fire.
    pub fn enabled(&self) -> bool {
        self.rate_ppm > 0
    }

    /// Parse the `<seed>:<rate>` spelling of a plan, where
    /// `seed` is a u64 and `rate` a probability in `[0, 1]`
    /// (e.g. `42:0.01`).
    pub fn parse(s: &str) -> Result<FaultPlan, String> {
        let (seed, rate) = s
            .split_once(':')
            .ok_or_else(|| format!("bad fault plan {s:?} (expected `<seed>:<rate>`)"))?;
        let seed: u64 = seed
            .trim()
            .parse()
            .map_err(|e| format!("bad fault seed {seed:?}: {e}"))?;
        let rate: f64 = rate
            .trim()
            .parse()
            .map_err(|e| format!("bad fault rate {rate:?}: {e}"))?;
        if !(0.0..=1.0).contains(&rate) {
            return Err(format!("fault rate {rate} outside [0, 1]"));
        }
        Ok(FaultPlan::with_rate(seed, rate))
    }

    /// Whether site number `site` faults under this plan.
    pub fn fires_at(&self, site: u64) -> bool {
        self.enabled() && splitmix64(self.seed ^ splitmix64(site)) % PPM < u64::from(self.rate_ppm)
    }

    /// Deterministic *network*-fault decision for frame-write site
    /// `site`: `None`, or which [`NetFault`] fires there. Fire/no-fire
    /// reuses [`Self::fires_at`] (so a plan's overall fault density is
    /// identical across API-fault and net-fault uses); the fault *kind*
    /// is drawn by a second, independent hash so the mix of kinds does
    /// not bias the firing schedule.
    pub fn net_fault_at(&self, site: u64) -> Option<NetFault> {
        if !self.fires_at(site) {
            return None;
        }
        let k = splitmix64(self.seed.rotate_left(17) ^ splitmix64(site ^ NET_KIND_SALT));
        Some(NetFault::ALL[(k % NetFault::ALL.len() as u64) as usize])
    }
}

/// Salt separating the kind-hash domain from the fire-hash domain.
const NET_KIND_SALT: u64 = 0x6E65_745F_6661_756C; // "net_faul"

/// A socket-level fault the serve chaos harness injects at one
/// frame-write site (the network analogue of an API-call fault).
///
/// Each kind exercises a different recovery path in `cusan-serve`:
/// torn frames and disconnects force session resumption from the last
/// acknowledged offset, stalls exercise the idle-session sweeper, and
/// duplicate resumes exercise the at-most-once replay trimming.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum NetFault {
    /// Write only a prefix of the frame, then drop the connection (a
    /// crash mid-`write`).
    TornFrame,
    /// Drop the connection cleanly between frames.
    Disconnect,
    /// Stall before the write long enough to look idle.
    StalledWrite,
    /// Replay the resume handshake and already-acknowledged frames (a
    /// retransmit racing its own ack).
    DuplicateResume,
}

impl NetFault {
    /// Every injectable kind, in kind-hash draw order.
    pub const ALL: [NetFault; 4] = [
        NetFault::TornFrame,
        NetFault::Disconnect,
        NetFault::StalledWrite,
        NetFault::DuplicateResume,
    ];
}

/// `splitmix64` — the classic 64-bit finalizer-style mixer. Chosen for
/// its avalanche behavior at tiny cost; the exact constants are part of
/// the determinism contract (changing them reschedules every plan).
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// Per-rank fault decision state: the plan plus a monotone site counter.
///
/// Every interception-site query advances the counter exactly once,
/// whether or not the site faults — the counter *is* the site numbering,
/// so it must advance identically on every rank for lockstep behavior.
#[derive(Debug)]
pub struct FaultInjector {
    plan: FaultPlan,
    site: Cell<u64>,
}

impl FaultInjector {
    /// Injector for a plan (possibly [`FaultPlan::DISABLED`]).
    pub fn new(plan: FaultPlan) -> Self {
        FaultInjector {
            plan,
            site: Cell::new(0),
        }
    }

    /// Sites queried so far.
    pub fn sites_visited(&self) -> u64 {
        self.site.get()
    }

    /// Advance to the next site; returns `Some(site)` if it faults.
    pub fn next_site(&self) -> Option<u64> {
        let site = self.site.get();
        self.site.set(site + 1);
        self.plan.fires_at(site).then_some(site)
    }

    /// Advance to the next site; returns the [`NetFault`] firing there,
    /// if any. Shares the site counter with [`Self::next_site`] — one
    /// injector numbers all its sites from a single sequence.
    pub fn next_net_fault(&self) -> Option<NetFault> {
        let site = self.site.get();
        self.site.set(site + 1);
        self.plan.net_fault_at(site)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_plan_never_fires() {
        let inj = FaultInjector::new(FaultPlan::DISABLED);
        for _ in 0..10_000 {
            assert_eq!(inj.next_site(), None);
        }
        assert_eq!(inj.sites_visited(), 10_000);
        assert!(!FaultPlan::DISABLED.enabled());
        assert_eq!(FaultPlan::default(), FaultPlan::DISABLED);
    }

    #[test]
    fn decisions_are_deterministic_per_seed() {
        let plan = FaultPlan::with_rate(42, 0.05);
        let a: Vec<bool> = (0..5_000).map(|s| plan.fires_at(s)).collect();
        let b: Vec<bool> = (0..5_000).map(|s| plan.fires_at(s)).collect();
        assert_eq!(a, b);
        let fired = a.iter().filter(|f| **f).count();
        assert!(fired > 0, "5% over 5000 sites must fire");
        // A different seed reschedules.
        let other = FaultPlan::with_rate(43, 0.05);
        let c: Vec<bool> = (0..5_000).map(|s| other.fires_at(s)).collect();
        assert_ne!(a, c);
    }

    #[test]
    fn rate_approximates_probability() {
        let plan = FaultPlan::with_rate(7, 0.10);
        let n = 100_000u64;
        let fired = (0..n).filter(|s| plan.fires_at(*s)).count() as f64;
        let p = fired / n as f64;
        assert!((p - 0.10).abs() < 0.01, "observed rate {p}");
    }

    #[test]
    fn injector_counter_matches_plan() {
        let plan = FaultPlan::with_rate(3, 0.2);
        let inj = FaultInjector::new(plan);
        for site in 0..1_000 {
            let expect = plan.fires_at(site).then_some(site);
            assert_eq!(inj.next_site(), expect);
        }
    }

    #[test]
    fn parse_accepts_seed_colon_rate() {
        assert_eq!(
            FaultPlan::parse("42:0.01").unwrap(),
            FaultPlan {
                seed: 42,
                rate_ppm: 10_000
            }
        );
        assert_eq!(
            FaultPlan::parse("0:1").unwrap(),
            FaultPlan {
                seed: 0,
                rate_ppm: 1_000_000
            }
        );
        let zero_rate = FaultPlan::parse("9:0").unwrap();
        assert_eq!(zero_rate.seed, 9);
        assert!(!zero_rate.enabled());
        assert!(FaultPlan::parse("").is_err());
        assert!(FaultPlan::parse("42").is_err());
        assert!(FaultPlan::parse("x:0.5").is_err());
        assert!(FaultPlan::parse("42:nan").is_err());
        assert!(FaultPlan::parse("42:1.5").is_err());
        assert!(FaultPlan::parse("42:-0.1").is_err());
    }

    #[test]
    fn net_faults_follow_the_fire_schedule() {
        let plan = FaultPlan::with_rate(11, 0.25);
        for site in 0..2_000 {
            let nf = plan.net_fault_at(site);
            assert_eq!(nf.is_some(), plan.fires_at(site));
            assert_eq!(nf, plan.net_fault_at(site), "kind draw is deterministic");
        }
        let kinds: std::collections::HashSet<NetFault> =
            (0..2_000).filter_map(|s| plan.net_fault_at(s)).collect();
        assert_eq!(kinds.len(), NetFault::ALL.len(), "every kind is drawn");
        assert_eq!(FaultPlan::DISABLED.net_fault_at(0), None);
    }

    #[test]
    fn with_rate_clamps_and_rounds() {
        assert_eq!(FaultPlan::with_rate(0, 0.0).rate_ppm, 0);
        assert_eq!(FaultPlan::with_rate(0, 1.0).rate_ppm, 1_000_000);
        assert_eq!(FaultPlan::with_rate(0, 0.5).rate_ppm, 500_000);
    }
}
