//! The resilient client's network-fault schedule: which frame writes
//! fail, and how.
//!
//! [`crate::check_traces_resilient`] asks a [`NetFaults`] once per `D`
//! frame write; [`crate::chaos_serve`] draws one schedule per seed for
//! the writes and a second, salted one for server restarts. Whether a
//! site fires, and which [`NetFault`] it is, are pure functions of the
//! seed and the site number, so one seed names one complete failure
//! schedule.

use std::cell::Cell;

/// Decisions per million sites (the fixed-point domain of a rate).
const PPM: u64 = 1_000_000;

/// Salt separating the kind-hash domain from the fire-hash domain.
const NET_KIND_SALT: u64 = 0x6E65_745F_6661_756C; // "net_faul"

/// A socket-level fault the resilient client injects at one frame-write
/// site.
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

/// A seeded network-fault schedule: whether site `k` fires, and which
/// [`NetFault`] it is, are splitmix64 hashes of `(seed, k)` (their
/// constants are part of the determinism contract), and a site counter
/// numbers the sites in the order they are asked. The default never
/// fires.
#[derive(Debug, Default)]
pub struct NetFaults {
    seed: u64,
    rate_ppm: u64,
    site: Cell<u64>,
    fired: Cell<u64>,
}

impl NetFaults {
    /// A schedule firing each site with probability `rate` (clamped to
    /// `[0, 1]`).
    pub fn new(seed: u64, rate: f64) -> NetFaults {
        NetFaults {
            seed,
            rate_ppm: (rate * PPM as f64).round().clamp(0.0, PPM as f64) as u64,
            ..NetFaults::default()
        }
    }

    /// Advance to the next site; the fault firing there, if any. The kind
    /// is drawn by a second, independent hash, so the mix of kinds does
    /// not bias the firing schedule.
    pub fn next_net_fault(&self) -> Option<NetFault> {
        let site = self.site.replace(self.site.get() + 1);
        if splitmix64(self.seed ^ splitmix64(site)) % PPM >= self.rate_ppm {
            return None;
        }
        self.fired.set(self.fired.get() + 1);
        let k = splitmix64(self.seed.rotate_left(17) ^ splitmix64(site ^ NET_KIND_SALT));
        Some(NetFault::ALL[(k % NetFault::ALL.len() as u64) as usize])
    }

    /// Sites asked so far.
    pub fn sites_visited(&self) -> u64 {
        self.site.get()
    }

    /// Sites that fired so far.
    pub fn fired(&self) -> u64 {
        self.fired.get()
    }
}

fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn draws(faults: &NetFaults, n: u64) -> Vec<Option<NetFault>> {
        (0..n).map(|_| faults.next_net_fault()).collect()
    }

    #[test]
    fn disabled_plan_never_fires() {
        let none = NetFaults::default();
        assert!(draws(&none, 10_000).iter().all(Option::is_none));
        assert_eq!((none.sites_visited(), none.fired()), (10_000, 0));
    }

    #[test]
    fn decisions_are_deterministic_per_seed() {
        let a = draws(&NetFaults::new(42, 0.05), 5_000);
        assert_eq!(a, draws(&NetFaults::new(42, 0.05), 5_000));
        assert!(
            a.iter().any(Option::is_some),
            "5% over 5000 sites must fire"
        );
        assert_ne!(
            a,
            draws(&NetFaults::new(43, 0.05), 5_000),
            "seeds reschedule"
        );
    }

    #[test]
    fn rate_approximates_probability() {
        let n = 100_000;
        let fired = draws(&NetFaults::new(7, 0.10), n).iter().flatten().count();
        let p = fired as f64 / n as f64;
        assert!((p - 0.10).abs() < 0.01, "observed rate {p}");
    }

    #[test]
    fn injector_counter_matches_plan() {
        let faults = NetFaults::new(3, 0.2);
        let fired = draws(&faults, 1_000).iter().flatten().count() as u64;
        assert_eq!((faults.sites_visited(), faults.fired()), (1_000, fired));
    }

    #[test]
    fn net_faults_follow_the_fire_schedule() {
        let a = draws(&NetFaults::new(11, 0.25), 2_000);
        let kinds: std::collections::HashSet<NetFault> = a.iter().flatten().copied().collect();
        assert_eq!(kinds.len(), NetFault::ALL.len(), "every kind is drawn");
        // The kind hash is independent of the fire hash: the same seed
        // fires at the same sites whatever the kinds.
        let fires = |d: &[Option<NetFault>]| d.iter().map(Option::is_some).collect::<Vec<_>>();
        assert_eq!(fires(&a), fires(&draws(&NetFaults::new(11, 0.25), 2_000)));
    }

    #[test]
    fn with_rate_clamps_and_rounds() {
        assert!(draws(&NetFaults::new(0, -1.0), 1_000)
            .iter()
            .all(Option::is_none));
        assert!(draws(&NetFaults::new(0, 2.0), 1_000)
            .iter()
            .all(Option::is_some));
        assert_eq!(NetFaults::new(0, 0.5).rate_ppm, 500_000);
        assert_eq!(NetFaults::new(0, 0.000_000_4).rate_ppm, 0);
    }
}
