//! Differential safety net for the tiered shadow.
//!
//! Replays randomized access/sync traces against two implementations:
//!
//! * the **tiered** [`ShadowMemory`] (page summaries) — the code under
//!   test;
//! * a **naive reference shadow** written here from scratch: a plain
//!   `HashMap<word, [u64; 4]>` that walks every word of every access with
//!   the same slot state machine and the same word-local eviction victim.
//!
//! Because eviction is deterministic and word-local in both, the two must
//! produce *exactly* equal conflict multisets (as word-addr/packed-prev
//! pairs) and equal final per-word slot contents — not merely equal
//! modulo eviction order. Any divergence (a lost detection, a spurious
//! conflict, a dropped re-emission) fails the test.
//!
//! The trace generator is a seeded LCG, so failures reproduce. The op mix
//! is shaped like real CuSan workloads: mostly whole-buffer (page-covering)
//! annotations, frequent identical re-annotations (the iteration-loop pattern),
//! some partial/unaligned accesses (unfold pressure), 6 fibers (slot
//! eviction pressure), and release/acquire edges over a few sync keys.
//! A second mix ([`gen_cover_op`]) aims at the run-valued walk: every
//! page is unfolded up front, partial writes keep cutting it into
//! regions, and 2–5 fibers keep covering whole pages. Its unaligned
//! writes also supply the other chunk that walk serves — a range's last
//! page, entered at its first word and left mid-page — and
//! [`TailChunks`] counts them, and the evictions inside them, instead of
//! trusting the generator.

use std::collections::{BTreeMap, HashMap};

use tsan_rt::clock::VectorClock;
use tsan_rt::fiber::FiberId;
use tsan_rt::report::CtxId;
use tsan_rt::shadow::{
    pack, unpack, RawConflict, ShadowAccess, ShadowMemory, PAGE_BYTES, SLOTS_PER_WORD, WORD_BYTES,
};

// ---- naive reference shadow ------------------------------------------------

/// Flat per-word shadow with no tiers. Semantics duplicated independently
/// of `shadow.rs` internals (same published rules: subsumption, HB check,
/// word-local eviction victim `(word ^ fiber) % 4`).
#[derive(Default)]
struct ReferenceShadow {
    words: HashMap<u64, [u64; SLOTS_PER_WORD]>,
    /// Words in which the last `access_range` call evicted a slot.
    evicted: Vec<u64>,
}

impl ReferenceShadow {
    #[allow(clippy::too_many_arguments)]
    fn access_range(
        &mut self,
        addr: u64,
        len: u64,
        write: bool,
        fiber: FiberId,
        clock: u32,
        ctx: CtxId,
        fiber_clock: &VectorClock,
        mut on_conflict: impl FnMut(RawConflict),
    ) {
        if len == 0 {
            return;
        }
        let new_raw = pack(ShadowAccess {
            fiber,
            clock,
            ctx,
            write,
        });
        let first = addr / WORD_BYTES;
        let last = (addr + len - 1) / WORD_BYTES;
        self.evicted.clear();
        for w in first..=last {
            let slots = self.words.entry(w).or_default();
            let mut store_at = None;
            let mut skip = false;
            let mut empty_at = None;
            for (i, &raw) in slots.iter().enumerate() {
                if raw == 0 {
                    if empty_at.is_none() {
                        empty_at = Some(i);
                    }
                    continue;
                }
                let prev = unpack(raw);
                if prev.fiber == fiber {
                    if write || !prev.write {
                        store_at = Some(i);
                    } else {
                        skip = true;
                    }
                    continue;
                }
                if (write || prev.write) && fiber_clock.get(prev.fiber) < prev.clock {
                    on_conflict(RawConflict {
                        word_addr: w * WORD_BYTES,
                        words: 1,
                        prev,
                    });
                }
            }
            if !skip {
                let i = store_at.or(empty_at).unwrap_or_else(|| {
                    self.evicted.push(w);
                    (w as usize ^ fiber.index()) % SLOTS_PER_WORD
                });
                slots[i] = new_raw;
            }
        }
    }

    fn word_accesses(&self, addr: u64) -> Vec<ShadowAccess> {
        self.words
            .get(&(addr / WORD_BYTES))
            .map(|s| s.iter().filter(|&&r| r != 0).map(|&r| unpack(r)).collect())
            .unwrap_or_default()
    }
}

// ---- deterministic trace generator ----------------------------------------

struct Lcg(u64);

impl Lcg {
    fn next(&mut self) -> u64 {
        // Knuth MMIX constants.
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        self.0 >> 16
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

const FIBERS: usize = 6;
const SYNC_KEYS: usize = 4;
/// The tracked arena: 8 pages.
const ARENA_PAGES: u64 = 8;

#[derive(Debug, Clone, Copy)]
enum Op {
    /// (addr, len, write, fiber, ctx)
    Access(u64, u64, bool, usize, u32),
    /// Re-issue the previous access verbatim.
    RepeatLast,
    /// fiber releases key.
    Release(usize, usize),
    /// fiber acquires key.
    Acquire(usize, usize),
}

fn gen_op(rng: &mut Lcg) -> Op {
    match rng.below(100) {
        // Whole-buffer annotation: 1..=3 pages, page-aligned.
        0..=34 => {
            let pages = 1 + rng.below(3);
            let page = rng.below(ARENA_PAGES - pages + 1);
            Op::Access(
                page * PAGE_BYTES,
                pages * PAGE_BYTES,
                rng.below(2) == 0,
                rng.below(FIBERS as u64) as usize,
                rng.below(8) as u32,
            )
        }
        // Identical re-annotation pressure.
        35..=54 => Op::RepeatLast,
        // Partial / unaligned access (unfold pressure).
        55..=79 => {
            let addr = rng.below(ARENA_PAGES * PAGE_BYTES - 512);
            let len = 1 + rng.below(500);
            Op::Access(
                addr,
                len,
                rng.below(2) == 0,
                rng.below(FIBERS as u64) as usize,
                rng.below(8) as u32,
            )
        }
        // Sync edges.
        80..=89 => Op::Release(
            rng.below(FIBERS as u64) as usize,
            rng.below(SYNC_KEYS as u64) as usize,
        ),
        _ => Op::Acquire(
            rng.below(FIBERS as u64) as usize,
            rng.below(SYNC_KEYS as u64) as usize,
        ),
    }
}

/// The run-valued mix: partial *writes* leave a few differently-stated
/// regions per (unfolded) page, and whole-page accesses from `fibers`
/// fibers then cover them — the chunks that pay per region, not per word.
fn gen_cover_op(rng: &mut Lcg, fibers: u64) -> Op {
    match rng.below(100) {
        // Region-cutting partial write, up to ~3/4 of a page, unaligned.
        0..=34 => {
            let len = 8 + rng.below(3000);
            let addr = rng.below(ARENA_PAGES * PAGE_BYTES - len);
            Op::Access(
                addr,
                len,
                true,
                rng.below(fibers) as usize,
                rng.below(8) as u32,
            )
        }
        // Page-covering access: 1..=3 pages, page-aligned.
        35..=74 => {
            let pages = 1 + rng.below(3);
            let page = rng.below(ARENA_PAGES - pages + 1);
            Op::Access(
                page * PAGE_BYTES,
                pages * PAGE_BYTES,
                rng.below(3) > 0,
                rng.below(fibers) as usize,
                rng.below(8) as u32,
            )
        }
        75..=79 => Op::RepeatLast,
        80..=89 => Op::Release(
            rng.below(fibers) as usize,
            rng.below(SYNC_KEYS as u64) as usize,
        ),
        _ => Op::Acquire(
            rng.below(fibers) as usize,
            rng.below(SYNC_KEYS as u64) as usize,
        ),
    }
}

// ---- the differential harness ---------------------------------------------

/// Conflict multiset: (word_addr, packed prev) → count.
type Conflicts = BTreeMap<(u64, u64), u64>;

/// A run is expanded into its words before it is counted, so the
/// comparison with the per-word reference stays word-exact.
fn record(conflicts: &mut Conflicts, c: RawConflict) {
    for w in 0..c.words {
        *conflicts
            .entry((c.word_addr + w * WORD_BYTES, pack(c.prev)))
            .or_insert(0) += 1;
    }
}

/// How often a trace walked the chunk `walk_runs` serves besides whole
/// pages: the last page of a range, entered at its first word and left
/// before its last. Whether that page was unfolded at the time is the
/// caller's to know — the cover mix unfolds every page up front.
#[derive(Debug, Default)]
struct TailChunks {
    chunks: u64,
    /// Words of those chunks whose store evicted a slot (read off the
    /// reference, which the device under test is asserted equal to).
    evictions: u64,
}

/// Replay `prelude`, then `ops` operations drawn from `gen`, through both
/// shadows; returns the device under test with both conflict multisets.
fn run_trace(
    seed: u64,
    prelude: &[Op],
    ops: usize,
    mut gen: impl FnMut(&mut Lcg) -> Op,
) -> (ShadowMemory, Conflicts, Conflicts, TailChunks) {
    let mut rng = Lcg(seed);
    let mut dut = ShadowMemory::new();
    let mut reference = ReferenceShadow::default();

    // Happens-before state, maintained once and fed to both shadows.
    let mut clocks: Vec<VectorClock> = (0..FIBERS)
        .map(|f| {
            let mut c = VectorClock::new();
            c.set(FiberId::from_index(f), 1);
            c
        })
        .collect();
    let mut sync: Vec<Option<VectorClock>> = vec![None; SYNC_KEYS];

    let mut dut_conflicts = Conflicts::new();
    let mut ref_conflicts = Conflicts::new();
    let mut last_access: Option<(u64, u64, bool, usize, u32)> = None;
    let mut tails = TailChunks::default();
    let words_per_page = PAGE_BYTES / WORD_BYTES;

    for i in 0..prelude.len() + ops {
        let drawn = match prelude.get(i) {
            Some(&op) => op,
            None => gen(&mut rng),
        };
        let op = match drawn {
            Op::RepeatLast => match last_access {
                Some((a, l, w, f, c)) => Op::Access(a, l, w, f, c),
                None => Op::Access(0, PAGE_BYTES, true, 0, 0),
            },
            op => op,
        };
        match op {
            Op::Access(addr, len, write, f, ctx) => {
                last_access = Some((addr, len, write, f, ctx));
                let fiber = FiberId::from_index(f);
                let clock = clocks[f].get(fiber);
                dut.access_range(
                    addr,
                    len,
                    write,
                    fiber,
                    clock,
                    CtxId(ctx),
                    &clocks[f],
                    |c| record(&mut dut_conflicts, c),
                );
                reference.access_range(
                    addr,
                    len,
                    write,
                    fiber,
                    clock,
                    CtxId(ctx),
                    &clocks[f],
                    |c| record(&mut ref_conflicts, c),
                );
                let (first_word, last_word) = (addr / WORD_BYTES, (addr + len - 1) / WORD_BYTES);
                let tail_start = last_word / words_per_page * words_per_page;
                if first_word <= tail_start && last_word % words_per_page != words_per_page - 1 {
                    tails.chunks += 1;
                    let evicted = reference.evicted.iter().filter(|w| **w >= tail_start);
                    tails.evictions += evicted.count() as u64;
                }
            }
            Op::Release(f, k) => {
                let fiber = FiberId::from_index(f);
                let snapshot = clocks[f].clone();
                match &mut sync[k] {
                    Some(sv) => sv.join(&snapshot),
                    None => sync[k] = Some(snapshot),
                }
                let cur = clocks[f].get(fiber);
                clocks[f].set(fiber, cur + 1);
            }
            Op::Acquire(f, k) => {
                if let Some(sv) = &sync[k] {
                    clocks[f].join(sv);
                }
            }
            Op::RepeatLast => unreachable!(),
        }
        // Spot-check slot-level equality as the trace evolves (cheap:
        // a few words per step).
        if i % 97 == 0 {
            let w = (rng.below(ARENA_PAGES * PAGE_BYTES / WORD_BYTES)) * WORD_BYTES;
            let mut a = dut.word_accesses(w);
            let mut b = reference.word_accesses(w);
            let key = |x: &ShadowAccess| pack(*x);
            a.sort_by_key(key);
            b.sort_by_key(key);
            assert_eq!(a, b, "seed {seed} step {i}: slots diverged at {w:#x}");
        }
    }

    // Full final sweep over every word both sides could have touched.
    for w in 0..(ARENA_PAGES * PAGE_BYTES / WORD_BYTES) {
        let addr = w * WORD_BYTES;
        let mut a = dut.word_accesses(addr);
        let mut b = reference.word_accesses(addr);
        let key = |x: &ShadowAccess| pack(*x);
        a.sort_by_key(key);
        b.sort_by_key(key);
        assert_eq!(a, b, "seed {seed}: final slots diverged at {addr:#x}");
    }

    (dut, dut_conflicts, ref_conflicts, tails)
}

/// Every walk emits what the per-word reference emits, re-issues
/// included, so the conflict multisets must be equal.
fn assert_same_detections(seed: u64, dut: &Conflicts, reference: &Conflicts) {
    assert_eq!(
        dut, reference,
        "seed {seed}: tiered and reference shadows disagree on the conflict multiset"
    );
}

#[test]
fn tiered_matches_reference_on_random_traces() {
    // ~14k randomized ops across several seeds.
    for seed in [1, 2, 3, 7, 8, 0xDEAD, 0xC0FFEE] {
        let (_, dut, reference, _) = run_trace(seed, &[], 2000, gen_op);
        assert_same_detections(seed, &dut, &reference);
        assert!(
            !reference.is_empty(),
            "seed {seed}: trace produced no conflicts — generator is too tame to test anything"
        );
    }
}

#[test]
fn whole_page_accesses_over_unfolded_pages_match_reference() {
    // One 8-byte write per page: every page is unfolded before the mix
    // starts (and a page never folds back), so each page-covering chunk
    // below lands on flat word slots.
    let unfold_all: Vec<Op> = (0..ARENA_PAGES)
        .map(|p| Op::Access(p * PAGE_BYTES + 64, 8, true, 0, 0))
        .collect();
    for (seed, fibers) in [(11, 2), (12, 3), (13, 4), (14, 5), (0xBEEF, 5)] {
        let (shadow, dut, reference, tails) =
            run_trace(seed, &unfold_all, 1500, |rng| gen_cover_op(rng, fibers));
        assert_same_detections(seed, &dut, &reference);
        assert_eq!(shadow.summary_page_count(), 0, "seed {seed}: a page folded");
        assert_eq!(shadow.counters().page_unfolds, 0);
        // Every page was unfolded throughout, so each of these took the
        // run-valued walk over a ragged last page — and with a fifth
        // fiber, some of their words had to evict.
        assert!(tails.chunks >= 100, "seed {seed}: {tails:?}");
        assert_eq!(tails.evictions > 0, fibers == 5, "seed {seed}: {tails:?}");
        assert!(
            !reference.is_empty(),
            "seed {seed}: no conflicts across {fibers} fibers — the mix tests nothing"
        );
    }
}

#[test]
fn identical_reannotation_emits_its_conflicts_again() {
    // An identical back-to-back re-annotation is walked like any other
    // access: the store is idempotent, the conflicts are found again
    // (the runtime's dedup set keeps them out of the reports).
    let mut tiered = ShadowMemory::new();
    let clk = VectorClock::new();
    let f1 = FiberId::from_index(1);
    let f2 = FiberId::from_index(2);
    tiered.access_range(0, PAGE_BYTES, true, f1, 1, CtxId(0), &clk, |_| {});
    let mut first = 0u64;
    tiered.access_range(0, PAGE_BYTES, false, f2, 1, CtxId(1), &clk, |c| {
        first += c.words
    });
    let mut second = 0u64;
    tiered.access_range(0, PAGE_BYTES, false, f2, 1, CtxId(1), &clk, |c| {
        second += c.words
    });
    assert_eq!(first, PAGE_BYTES / WORD_BYTES);
    assert_eq!(second, first);
}
