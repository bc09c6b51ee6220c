//! Schedule exploration over the deterministic simulator.
//!
//! One execution of the sim observes exactly **one** interleaving, so a
//! race that only manifests under a different stream-completion order or
//! a different `MPI_ANY_SOURCE`/`ANY_TAG` match is silently missed
//! (the RustMC direction in the roadmap). This crate closes that gap
//! without giving up determinism: the sim stays bit-for-bit
//! reproducible, and *which* interleaving it reproduces becomes an
//! explicit, enumerable input — a [`SchedulePlan`].
//!
//! ## Choice points
//!
//! The sim has four kinds of *choice points*, each a place where the
//! simulated platform admits more than one outcome, and each with one
//! candidate-selection path: it consults an installed
//! [`ScheduleController`] when there are two or more candidates, and
//! takes candidate 0 otherwise:
//!
//! | kind | site | candidates |
//! |------|------|------------|
//! | [`ChoiceKind::WildcardRecv`] | `mpi-sim` wildcard receive matching | per-`(src, tag)` oldest pending sends |
//! | [`ChoiceKind::StreamDrain`] | `cuda-sim` full-device drains | streams whose front op has all deps satisfied |
//! | [`ChoiceKind::CollectiveFold`] | `mpi-sim` reduction fold | remaining contributions (arrival order) |
//! | [`ChoiceKind::ApiFault`] | every checked CUDA and MPI entry | run (0) or fail (1) |
//!
//! [`ChoiceKind::ApiFault`] is asked only of a controller that opts in
//! ([`ScheduleController::decides_faults`]): a [`FaultSchedule`], seeded
//! (a fault rate) or single (one site of one rank). A [`SchedulePlan`]
//! never sees it, so [`explore`] searches exactly the three
//! commutable-op kinds, and a fault that fires is in the trace as the
//! `ApiFault` event it emits, not as a `ScheduleChoice` marker.
//!
//! Candidates are always presented in a **canonical deterministic
//! order**. There is no uncontrolled sim: the default schedule is the
//! empty plan (choice 0 everywhere), one point of the explored space,
//! and any plan at all is still a deterministic execution.
//!
//! ## Exploration
//!
//! [`explore`] enumerates plans depth-first under a budget: run a plan,
//! read back the [`Decision`] log (what the controller was actually
//! asked, with how many candidates), and branch one decision at a time.
//! Two cuts keep the tree tractable:
//!
//! * **Outcome dedup** — each run reports a digest of its
//!   detector-visible outcome (event stream / reports); plans that land
//!   on an already-seen digest are counted but not expanded.
//! * **Sleep-set style signature cut** — every candidate carries a
//!   stable `u64` signature; a sibling alternative whose signature
//!   equals an earlier candidate's at the same decision is provably
//!   interchangeable with it and is never queued.
//!
//! The chosen schedule itself is recorded in the trace (the
//! `ScheduleChoice` event in `cusan`), so every explored execution
//! replays bit-for-bit like any other.

use std::collections::HashSet;
use std::sync::{Arc, Mutex};

/// Which kind of decision a controller is being asked to make. See the
/// module docs for the four sites.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ChoiceKind {
    /// Which pending send a wildcard (`ANY_SOURCE`/`ANY_TAG`) receive
    /// matches, among the per-`(src, tag)` oldest candidates.
    WildcardRecv,
    /// Which ready stream completes its front op next during a
    /// full-device drain.
    StreamDrain,
    /// Which remaining contribution folds into the accumulator next in
    /// a commutative reduction (models participant arrival order).
    CollectiveFold,
    /// Whether a checked CUDA or MPI call runs (0) or returns its typed
    /// fault error (1). The `k`-th consult on a rank's lane is that
    /// rank's site `k`.
    ApiFault,
}

impl ChoiceKind {
    /// Stable label, used for trace interning and reports.
    pub fn label(self) -> &'static str {
        match self {
            ChoiceKind::WildcardRecv => "sched.wildcard_recv",
            ChoiceKind::StreamDrain => "sched.stream_drain",
            ChoiceKind::CollectiveFold => "sched.collective_fold",
            ChoiceKind::ApiFault => "sched.api_fault",
        }
    }
}

/// A schedule decision-maker. `lane` identifies the deciding context
/// (rank index for per-rank choice points; a dedicated extra lane for
/// world-global ones like collectives), `sigs` the candidates' stable
/// signatures in canonical order. Must return an index into `sigs`;
/// returning 0 everywhere reproduces the default schedule.
pub trait ScheduleController: Send + Sync {
    /// Pick which candidate fires next.
    fn choose(&self, lane: usize, kind: ChoiceKind, sigs: &[u64]) -> usize;

    /// The decisions logged on `lane` so far, in order: what a recording
    /// carries as `ScheduleChoice` markers. None by default.
    fn decisions(&self, _lane: usize) -> Vec<Decision> {
        Vec::new()
    }

    /// Whether this controller decides [`ChoiceKind::ApiFault`]. Only one
    /// that opts in is asked at the checked CUDA and MPI entries.
    fn decides_faults(&self) -> bool {
        false
    }
}

/// One recorded consultation of the controller.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Decision {
    /// Which kind of choice point this was.
    pub kind: ChoiceKind,
    /// How many candidates were presented.
    pub arity: u32,
    /// Index that was chosen.
    pub chosen: u32,
    /// The candidates' signatures, in the order presented.
    pub sigs: Vec<u64>,
}

/// Per-lane state of a plan: the scripted choices, how many decisions
/// have been consumed, and the log of what actually happened.
#[derive(Debug, Default)]
struct Lane {
    plan: Vec<u32>,
    cursor: usize,
    log: Vec<Decision>,
}

/// A seeded/scripted schedule: per-lane vectors of choice indices,
/// consumed one per consultation. Positions beyond the vector (and
/// out-of-range indices) clamp to the default choice 0 / last valid
/// candidate, so *any* plan is a legal schedule for *any* execution.
///
/// Lanes `0..n_ranks` belong to the ranks; lane `n_ranks` is the
/// world-global lane used for collective choice points (collectives are
/// serialized by the phase barrier, so one lane suffices and its log is
/// deterministic).
#[derive(Debug)]
pub struct SchedulePlan {
    lanes: Vec<Mutex<Lane>>,
}

impl SchedulePlan {
    /// The all-defaults plan for a world of `n_ranks` ranks: choice 0
    /// at every decision, i.e. exactly the schedule a run without a
    /// controller takes.
    pub fn defaults(n_ranks: usize) -> Arc<SchedulePlan> {
        SchedulePlan::with_choices(vec![Vec::new(); n_ranks + 1])
    }

    /// A plan from explicit per-lane choice vectors (the explorer's
    /// constructor). The vector length fixes the lane count; use
    /// `n_ranks + 1` lanes for a world of `n_ranks` ranks.
    pub fn with_choices(choices: Vec<Vec<u32>>) -> Arc<SchedulePlan> {
        Arc::new(SchedulePlan {
            lanes: choices
                .into_iter()
                .map(|plan| {
                    Mutex::new(Lane {
                        plan,
                        cursor: 0,
                        log: Vec::new(),
                    })
                })
                .collect(),
        })
    }

    /// Number of lanes (ranks + the world-global collective lane).
    pub fn lanes(&self) -> usize {
        self.lanes.len()
    }

    /// All lanes' decision logs (the explorer's view of one run).
    fn decision_log(&self) -> Vec<Vec<Decision>> {
        (0..self.lanes.len()).map(|l| self.decisions(l)).collect()
    }
}

impl ScheduleController for SchedulePlan {
    fn choose(&self, lane: usize, kind: ChoiceKind, sigs: &[u64]) -> usize {
        let arity = sigs.len().max(1);
        let Some(l) = self.lanes.get(lane) else {
            return 0;
        };
        let mut l = l.lock().expect("plan lane poisoned");
        let scripted = l.plan.get(l.cursor).copied().unwrap_or(0);
        let chosen = (scripted as usize).min(arity - 1);
        l.cursor += 1;
        l.log.push(Decision {
            kind,
            arity: arity as u32,
            chosen: chosen as u32,
            sigs: sigs.to_vec(),
        });
        chosen
    }

    /// Clone of the decisions consulted so far on `lane`, in order.
    /// Non-destructive: the harness reads it to emit trace events, the
    /// explorer reads it again to branch.
    fn decisions(&self, lane: usize) -> Vec<Decision> {
        match self.lanes.get(lane) {
            Some(l) => l.lock().expect("plan lane poisoned").log.clone(),
            None => Vec::new(),
        }
    }
}

/// xorshift64*: cheap, deterministic, good enough to sample faults.
#[derive(Debug)]
struct Xorshift(u64);

impl Xorshift {
    fn new(seed: u64) -> Xorshift {
        Xorshift(seed ^ 0x9e37_79b9_7f4a_7c15)
    }

    fn next(&mut self) -> u64 {
        let s = &mut self.0;
        *s ^= *s >> 12;
        *s ^= *s << 25;
        *s ^= *s >> 27;
        s.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }
}

/// Fault decisions per million sites (the fixed-point domain of a rate).
const PPM: u64 = 1_000_000;

/// One lane's fault state: the sites asked so far and its draws.
#[derive(Debug)]
struct FaultLane {
    sites: u64,
    rng: Xorshift,
}

/// The fault controller: it decides [`ChoiceKind::ApiFault`] at every
/// checked CUDA and MPI entry and hands every other kind to its
/// [`SchedulePlan`], so faults compose with an explored schedule.
///
/// Lane `l`'s `k`-th consult is rank `l`'s site `k`, drawn from lane
/// `l`'s own generator: the same seed fails the same sites of the same
/// rank every run, however the ranks interleave, and ranks fail
/// independently (a partner left waiting gets `MpiError::Deadlock`).
#[derive(Debug)]
pub struct FaultSchedule {
    plan: Arc<SchedulePlan>,
    rate_ppm: u64,
    /// The one `(lane, site)` a single-fault schedule fails.
    at: Option<(usize, u64)>,
    lanes: Vec<Mutex<FaultLane>>,
}

impl FaultSchedule {
    /// Fail each site with probability `rate` (clamped to `[0, 1]`),
    /// drawn from `seed`; `plan` decides every other choice point.
    pub fn seeded(plan: Arc<SchedulePlan>, seed: u64, rate: f64) -> Arc<FaultSchedule> {
        let rate_ppm = (rate * PPM as f64).round().clamp(0.0, PPM as f64) as u64;
        FaultSchedule::new(plan, seed, rate_ppm, None)
    }

    /// Fail site `site` of lane `lane` and no other; `plan` decides every
    /// other choice point.
    pub fn single(plan: Arc<SchedulePlan>, lane: usize, site: u64) -> Arc<FaultSchedule> {
        FaultSchedule::new(plan, 0, 0, Some((lane, site)))
    }

    fn new(
        plan: Arc<SchedulePlan>,
        seed: u64,
        rate_ppm: u64,
        at: Option<(usize, u64)>,
    ) -> Arc<FaultSchedule> {
        let mut seeds = Xorshift::new(seed);
        let lanes = (0..plan.lanes())
            .map(|_| {
                let rng = Xorshift::new(seeds.next());
                Mutex::new(FaultLane { sites: 0, rng })
            })
            .collect();
        Arc::new(FaultSchedule {
            plan,
            rate_ppm,
            at,
            lanes,
        })
    }

    /// Sites asked on `lane` so far: after a run, the number of checked
    /// CUDA and MPI entries rank `lane` made.
    pub fn sites(&self, lane: usize) -> u64 {
        self.lanes
            .get(lane)
            .map_or(0, |l| l.lock().expect("fault lane poisoned").sites)
    }
}

impl ScheduleController for FaultSchedule {
    fn choose(&self, lane: usize, kind: ChoiceKind, sigs: &[u64]) -> usize {
        if kind != ChoiceKind::ApiFault {
            return self.plan.choose(lane, kind, sigs);
        }
        let Some(l) = self.lanes.get(lane) else {
            return 0;
        };
        let mut l = l.lock().expect("fault lane poisoned");
        let site = l.sites;
        l.sites += 1;
        let fail = self.at == Some((lane, site)) || l.rng.next() % PPM < self.rate_ppm;
        usize::from(fail).min(sigs.len().saturating_sub(1))
    }

    fn decisions(&self, lane: usize) -> Vec<Decision> {
        self.plan.decisions(lane)
    }

    fn decides_faults(&self) -> bool {
        true
    }
}

/// Counters from one [`explore`] enumeration.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ExploreStats {
    /// Schedules actually executed (bounded by the budget).
    pub schedules_run: usize,
    /// Runs whose outcome digest was new.
    pub unique_outcomes: usize,
    /// Runs whose outcome digest had been seen before (not expanded).
    pub dedup_hits: usize,
    /// Sibling alternatives skipped by the signature (sleep-set) cut.
    pub cut_alternatives: usize,
    /// Whether the frontier drained before the budget ran out (the
    /// reachable schedule space was fully covered).
    pub frontier_exhausted: bool,
}

/// One executed schedule and what it produced.
#[derive(Debug, Clone)]
pub struct ExploredRun<T> {
    /// The per-lane choice vectors that were scripted for this run.
    pub plan: Vec<Vec<u32>>,
    /// The run's detector-visible outcome digest.
    pub digest: u64,
    /// Whatever the runner returned alongside the digest.
    pub value: T,
}

/// The result of an [`explore`] enumeration: every digest-unique run,
/// plus the stats.
#[derive(Debug)]
pub struct ExploreReport<T> {
    /// Digest-unique runs, in discovery order (index 0 is always the
    /// default schedule).
    pub runs: Vec<ExploredRun<T>>,
    /// Enumeration counters.
    pub stats: ExploreStats,
}

/// Depth-first budgeted enumeration. `lanes` is the plan width
/// (`n_ranks + 1` for a world of `n_ranks`); `budget` caps how many
/// schedules are executed; `run` executes one plan and returns the
/// outcome digest plus a caller-defined value.
///
/// Expansion branches one decision at a time from each digest-unique
/// run: for decision `i` on lane `l` with arity `a`, every alternative
/// in `1..a` not cut by the signature rule is queued with the executed
/// prefix before `i` kept and everything after reset to defaults.
pub fn explore<T>(
    lanes: usize,
    budget: usize,
    mut run: impl FnMut(&Arc<SchedulePlan>) -> (u64, T),
) -> ExploreReport<T> {
    let mut stats = ExploreStats::default();
    let mut runs = Vec::new();
    let mut digests = HashSet::new();
    let mut queued: HashSet<Vec<Vec<u32>>> = HashSet::new();
    let root = vec![Vec::new(); lanes];
    queued.insert(root.clone());
    let mut stack = vec![root];

    while let Some(choices) = stack.pop() {
        if stats.schedules_run >= budget {
            // Put it back so exhaustion reporting stays honest.
            stack.push(choices);
            break;
        }
        let plan = SchedulePlan::with_choices(choices.clone());
        let (digest, value) = run(&plan);
        stats.schedules_run += 1;
        if !digests.insert(digest) {
            stats.dedup_hits += 1;
            continue;
        }
        stats.unique_outcomes += 1;
        let log = plan.decision_log();
        // Branch: one changed decision per child, defaults afterwards.
        for (lane, decisions) in log.iter().enumerate() {
            for (i, d) in decisions.iter().enumerate() {
                let mut first_of_sig: HashSet<u64> = HashSet::new();
                for (alt, sig) in d.sigs.iter().enumerate() {
                    if !first_of_sig.insert(*sig) {
                        // An earlier candidate at this decision has the
                        // same signature: interchangeable, never queue.
                        if alt as u32 != d.chosen {
                            stats.cut_alternatives += 1;
                        }
                        continue;
                    }
                    if alt as u32 == d.chosen {
                        continue;
                    }
                    let mut child: Vec<Vec<u32>> = log
                        .iter()
                        .map(|ds| ds.iter().map(|d| d.chosen).collect())
                        .collect();
                    child[lane].truncate(i);
                    child[lane].push(alt as u32);
                    for c in &mut child {
                        while c.last() == Some(&0) {
                            c.pop();
                        }
                    }
                    if queued.insert(child.clone()) {
                        stack.push(child);
                    }
                }
            }
        }
        runs.push(ExploredRun {
            plan: choices,
            digest,
            value,
        });
    }
    stats.frontier_exhausted = stack.is_empty();
    ExploreReport { runs, stats }
}

/// FNV-1a over a byte stream: the digest primitive used for outcome
/// hashing and candidate signatures (stable across runs and platforms).
#[derive(Debug, Clone, Copy)]
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    /// Fresh hasher with the FNV offset basis.
    pub fn new() -> Fnv {
        Fnv::default()
    }

    /// Absorb raw bytes.
    pub fn write(&mut self, bytes: &[u8]) -> &mut Self {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
        self
    }

    /// Absorb a little-endian `u64`.
    pub fn write_u64(&mut self, v: u64) -> &mut Self {
        self.write(&v.to_le_bytes())
    }

    /// Absorb a string.
    pub fn write_str(&mut self, s: &str) -> &mut Self {
        self.write(s.as_bytes())
    }

    /// The digest so far.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_plan_always_chooses_default() {
        let plan = SchedulePlan::defaults(2);
        assert_eq!(plan.choose(0, ChoiceKind::WildcardRecv, &[7, 8, 9]), 0);
        assert_eq!(plan.choose(1, ChoiceKind::StreamDrain, &[1]), 0);
        assert_eq!(plan.choose(2, ChoiceKind::CollectiveFold, &[4, 5]), 0);
        let log = plan.decisions(0);
        assert_eq!(log.len(), 1);
        assert_eq!(log[0].arity, 3);
        assert_eq!(log[0].chosen, 0);
        assert_eq!(log[0].sigs, vec![7, 8, 9]);
    }

    #[test]
    fn scripted_choices_clamp_to_arity() {
        let plan = SchedulePlan::with_choices(vec![vec![1, 9, 1]]);
        assert_eq!(plan.choose(0, ChoiceKind::WildcardRecv, &[10, 20]), 1);
        assert_eq!(plan.choose(0, ChoiceKind::WildcardRecv, &[10, 20]), 1); // 9 clamps
        assert_eq!(plan.choose(0, ChoiceKind::WildcardRecv, &[10]), 0); // 1 clamps
        assert_eq!(plan.choose(0, ChoiceKind::WildcardRecv, &[10, 20]), 0); // past end
                                                                            // Out-of-range lane: default, nothing logged.
        assert_eq!(plan.choose(5, ChoiceKind::WildcardRecv, &[10, 20]), 0);
        assert!(plan.decisions(5).is_empty());
    }

    fn fault_draws(f: &FaultSchedule, lane: usize, n: usize) -> Vec<usize> {
        (0..n)
            .map(|_| f.choose(lane, ChoiceKind::ApiFault, &[0, 1]))
            .collect()
    }

    #[test]
    fn seeded_plans_are_deterministic() {
        let a = FaultSchedule::seeded(SchedulePlan::defaults(2), 42, 0.1);
        let b = FaultSchedule::seeded(SchedulePlan::defaults(2), 42, 0.1);
        // Lane order does not matter: each lane draws from its own
        // generator.
        let b1 = fault_draws(&b, 1, 2_000);
        let b0 = fault_draws(&b, 0, 2_000);
        assert_eq!(fault_draws(&a, 0, 2_000), b0);
        assert_eq!(fault_draws(&a, 1, 2_000), b1);
        assert_ne!(b0, b1, "ranks fail independently");
        assert_eq!((a.sites(0), a.sites(1), a.sites(2)), (2_000, 2_000, 0));
        let rate = b0.iter().sum::<usize>() as f64 / 2_000.0;
        assert!((rate - 0.1).abs() < 0.03, "observed rate {rate}");
        let other = FaultSchedule::seeded(SchedulePlan::defaults(2), 43, 0.1);
        assert_ne!(fault_draws(&other, 0, 2_000), b0, "seeds reschedule");
        let never = FaultSchedule::seeded(SchedulePlan::defaults(1), 7, 0.0);
        assert!(fault_draws(&never, 0, 1_000).iter().all(|c| *c == 0));
        let always = FaultSchedule::seeded(SchedulePlan::defaults(1), 7, 1.0);
        assert!(fault_draws(&always, 0, 1_000).iter().all(|c| *c == 1));
    }

    #[test]
    fn a_single_fault_fails_one_site_of_one_lane() {
        let f = FaultSchedule::single(SchedulePlan::defaults(2), 1, 3);
        assert_eq!(fault_draws(&f, 0, 6), [0; 6]);
        assert_eq!(fault_draws(&f, 1, 6), [0, 0, 0, 1, 0, 0]);
    }

    /// Only the fault kind stays with the fault schedule: every other
    /// kind reaches its plan, and the plan never sees a fault.
    #[test]
    fn faults_opt_in_and_delegate_every_other_kind() {
        let plan = SchedulePlan::with_choices(vec![vec![1], vec![]]);
        assert!(!plan.decides_faults());
        let f = FaultSchedule::seeded(Arc::clone(&plan), 1, 1.0);
        assert!(f.decides_faults());
        assert_eq!(f.choose(0, ChoiceKind::ApiFault, &[0, 1]), 1);
        assert_eq!(f.choose(0, ChoiceKind::StreamDrain, &[5, 6]), 1);
        assert_eq!(
            f.choose(0, ChoiceKind::ApiFault, &[0]),
            0,
            "clamps to arity"
        );
        let log = f.decisions(0);
        assert_eq!(log.len(), 1);
        assert_eq!(log[0].kind, ChoiceKind::StreamDrain);
        assert_eq!(plan.decisions(0), log);
        assert_eq!(f.sites(0), 2);
    }

    /// A toy "system": two binary decisions on lane 0; the outcome is
    /// the pair of choices, digested. Exploration must cover all four
    /// outcomes and then report exhaustion.
    #[test]
    fn explorer_covers_a_two_decision_space() {
        let report = explore(1, 32, |plan| {
            let a = plan.choose(0, ChoiceKind::WildcardRecv, &[100, 200]);
            let b = plan.choose(0, ChoiceKind::StreamDrain, &[300, 400]);
            let digest = Fnv::new().write_u64(a as u64).write_u64(b as u64).finish();
            (digest, (a, b))
        });
        let mut outcomes: Vec<(usize, usize)> = report.runs.iter().map(|r| r.value).collect();
        outcomes.sort_unstable();
        assert_eq!(outcomes, vec![(0, 0), (0, 1), (1, 0), (1, 1)]);
        assert!(report.stats.frontier_exhausted);
        assert_eq!(report.stats.unique_outcomes, 4);
        assert_eq!(report.runs[0].plan, vec![Vec::<u32>::new()]);
    }

    /// If both candidates carry the same signature the alternative is
    /// interchangeable with the default and must be cut, not run.
    #[test]
    fn equal_signatures_are_cut() {
        let report = explore(1, 32, |plan| {
            let a = plan.choose(0, ChoiceKind::WildcardRecv, &[7, 7]);
            (a as u64, a)
        });
        assert_eq!(report.stats.schedules_run, 1);
        assert_eq!(report.stats.cut_alternatives, 1);
        assert!(report.stats.frontier_exhausted);
    }

    /// Digest collisions dedup: a second run landing on a seen digest
    /// is counted but not expanded.
    #[test]
    fn dedup_counts_and_stops_expansion() {
        let report = explore(1, 32, |plan| {
            let a = plan.choose(0, ChoiceKind::WildcardRecv, &[1, 2]);
            let _ = plan.choose(0, ChoiceKind::WildcardRecv, &[3, 4]);
            // Digest ignores the second decision entirely.
            (a as u64, a)
        });
        // Runs: default (0,0) unique; children (1,_) and (0,1).
        // (0,1) digests equal to default -> dedup, not expanded.
        assert!(report.stats.dedup_hits >= 1);
        assert_eq!(report.stats.unique_outcomes, 2);
        assert!(report.stats.frontier_exhausted);
    }

    #[test]
    fn budget_is_respected() {
        let report = explore(1, 3, |plan| {
            let a = plan.choose(0, ChoiceKind::WildcardRecv, &[1, 2, 3, 4]);
            let b = plan.choose(0, ChoiceKind::WildcardRecv, &[5, 6, 7, 8]);
            (
                Fnv::new().write_u64(a as u64).write_u64(b as u64).finish(),
                (),
            )
        });
        assert_eq!(report.stats.schedules_run, 3);
        assert!(!report.stats.frontier_exhausted);
    }
}
