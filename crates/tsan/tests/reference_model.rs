//! Differential property test: the production detector (4 shadow slots,
//! round-robin eviction, context-pair dedup) against an **exact reference
//! checker** that keeps the complete access history with full vector-clock
//! snapshots.
//!
//! Invariants:
//!
//! * **No false positives, ever**: if the engine reports a race, the
//!   reference must contain a genuinely concurrent conflicting pair.
//! * **No false negatives under low slot pressure**: when every word sees
//!   at most 3 accesses (no eviction possible), the engine finds a race
//!   iff the reference does.

use proptest::prelude::*;
use std::collections::HashMap;
use tsan_rt::{FiberId, SyncKey, TsanRuntime};

const N_FIBERS: usize = 4;

/// Schedule operations. Accesses are word-sized so the reference model is
/// exact per shadow word.
#[derive(Debug, Clone)]
enum Op {
    /// Switch without synchronization.
    Switch(usize),
    /// Synchronizing switch (submission order).
    SwitchSync(usize),
    /// Release on one of 3 keys.
    Release(u8),
    /// Acquire on one of 3 keys.
    Acquire(u8),
    /// 8-byte access to one of `n_words` words.
    Access { word: u8, write: bool },
}

fn op_strategy(n_words: u8) -> impl Strategy<Value = Op> {
    prop_oneof![
        (0..N_FIBERS).prop_map(Op::Switch),
        (0..N_FIBERS).prop_map(Op::SwitchSync),
        (0u8..3).prop_map(Op::Release),
        (0u8..3).prop_map(Op::Acquire),
        (0..n_words, any::<bool>()).prop_map(|(word, write)| Op::Access { word, write }),
    ]
}

/// One recorded access: (fiber, own component at access, snapshot, write).
type RefAccess = (usize, u64, Vec<u64>, bool);

/// Exact reference checker: full history + full clock snapshots.
#[derive(Default)]
struct Reference {
    clocks: Vec<Vec<u64>>,       // per fiber
    sync: HashMap<u8, Vec<u64>>, // per key
    current: usize,
    history: HashMap<u8, Vec<RefAccess>>,
}

fn join(a: &mut Vec<u64>, b: &[u64]) {
    if b.len() > a.len() {
        a.resize(b.len(), 0);
    }
    for (x, &y) in a.iter_mut().zip(b) {
        *x = (*x).max(y);
    }
}

impl Reference {
    fn new() -> Self {
        // Fiber 0 = host with initial own component 1; others created by
        // the host up front (inheriting its clock, bumping the creator) —
        // mirroring the engine's `create_fiber` semantics.
        let mut r = Reference {
            clocks: vec![vec![0; N_FIBERS + 1]; N_FIBERS + 1],
            ..Reference::default()
        };
        r.clocks[0][0] = 1;
        for f in 1..=N_FIBERS {
            let creator = r.clocks[0].clone();
            r.clocks[0][0] += 1; // creation bumps the creator
            r.clocks[f] = creator;
            r.clocks[f][f] = 1;
        }
        r.current = 0;
        r
    }

    fn switch(&mut self, f: usize, sync: bool) {
        if sync && f != self.current {
            let from = self.clocks[self.current].clone();
            join(&mut self.clocks[f], &from);
        }
        self.current = f;
    }

    fn release(&mut self, key: u8) {
        let c = self.clocks[self.current].clone();
        join(self.sync.entry(key).or_default(), &c);
        let cur = self.current;
        self.clocks[cur][cur] += 1;
    }

    fn acquire(&mut self, key: u8) {
        if let Some(sv) = self.sync.get(&key) {
            let sv = sv.clone();
            join(&mut self.clocks[self.current], &sv);
        }
    }

    fn access(&mut self, word: u8, write: bool) {
        let f = self.current;
        let own = self.clocks[f][f];
        let snap = self.clocks[f].clone();
        self.history
            .entry(word)
            .or_default()
            .push((f, own, snap, write));
    }

    /// True if any conflicting pair in the history is concurrent.
    fn has_race(&self) -> bool {
        for accesses in self.history.values() {
            for (i, (fa, ca, _, wa)) in accesses.iter().enumerate() {
                for (fb, _, snap_b, wb) in accesses.iter().skip(i + 1) {
                    if fa == fb || !(*wa || *wb) {
                        continue;
                    }
                    // B is later in program order; A happens-before B iff
                    // B's snapshot covers A's epoch.
                    let covered = snap_b.get(*fa).copied().unwrap_or(0) >= *ca;
                    if !covered {
                        return true;
                    }
                }
            }
        }
        false
    }

    /// Max number of accesses any single word received.
    fn max_word_pressure(&self) -> usize {
        self.history.values().map(Vec::len).max().unwrap_or(0)
    }
}

fn run_engine(ops: &[Op]) -> u64 {
    let mut rt = TsanRuntime::new("host");
    let fibers: Vec<FiberId> = (0..N_FIBERS)
        .map(|i| {
            let name = rt.define_ctx(format!("f{i}").into());
            rt.create_fiber(name)
        })
        .collect();
    let to_fiber = |i: usize| if i == 0 { FiberId::HOST } else { fibers[i - 1] };
    let ctx = rt.define_ctx("access".into());
    // NOTE: op fiber indices are 0..N_FIBERS where 0 = host; the reference
    // uses the same numbering.
    for op in ops {
        match op {
            Op::Switch(f) => rt.switch_to_fiber(to_fiber(*f)),
            Op::SwitchSync(f) => rt.switch_to_fiber_sync(to_fiber(*f)),
            Op::Release(k) => rt.annotate_happens_before(SyncKey(u64::from(*k))),
            Op::Acquire(k) => {
                rt.annotate_happens_after(SyncKey(u64::from(*k)));
            }
            Op::Access { word, write } => {
                let addr = 0x9_0000 + u64::from(*word) * 8;
                if *write {
                    rt.write_range(addr, 8, ctx);
                } else {
                    rt.read_range(addr, 8, ctx);
                }
            }
        }
    }
    rt.race_count()
}

fn run_reference(ops: &[Op]) -> (bool, usize) {
    let mut r = Reference::new();
    for op in ops {
        match op {
            Op::Switch(f) => r.switch(*f, false),
            Op::SwitchSync(f) => r.switch(*f, true),
            Op::Release(k) => r.release(*k),
            Op::Acquire(k) => r.acquire(*k),
            Op::Access { word, write } => r.access(*word, *write),
        }
    }
    (r.has_race(), r.max_word_pressure())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Soundness: every engine-reported race corresponds to a genuinely
    /// concurrent conflicting pair in the exact history.
    #[test]
    fn engine_never_reports_false_positives(
        ops in proptest::collection::vec(op_strategy(8), 1..60)
    ) {
        let engine_races = run_engine(&ops);
        let (ref_race, _) = run_reference(&ops);
        prop_assert!(
            engine_races == 0 || ref_race,
            "engine reported {engine_races} race(s) but the exact history has none"
        );
    }

    /// Completeness under low slot pressure: with few enough accesses per
    /// word (no eviction), the engine agrees exactly with the reference.
    #[test]
    fn engine_is_exact_without_eviction(
        ops in proptest::collection::vec(op_strategy(16), 1..24)
    ) {
        let (ref_race, pressure) = run_reference(&ops);
        prop_assume!(pressure <= 3);
        let engine_races = run_engine(&ops);
        prop_assert_eq!(
            engine_races > 0,
            ref_race,
            "engine={} reference={} (pressure {})",
            engine_races,
            ref_race,
            pressure
        );
    }
}
