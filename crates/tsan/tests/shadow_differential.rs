//! Differential safety net for the tiered shadow.
//!
//! Replays randomized access/sync traces against two implementations:
//!
//! * the **tiered** [`ShadowMemory`] (summary extents) — the code under
//!   test;
//! * a **naive reference shadow** written here from scratch: a plain
//!   `Vec<[u64; 4]>` indexed by word that walks every word of every
//!   access with the same slot state machine and the same word-local
//!   eviction victim, and tallies tracked pages one by one.
//!
//! Because eviction is deterministic and word-local in both, the two must
//! produce *exactly* equal conflicts access by access (the words each
//! prior access conflicts on, in the order found) and equal final
//! per-word slot contents — not merely equal modulo eviction order. Any divergence (a lost detection, a spurious
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
//! [`ChunkCounts`] counts them, and the evictions inside them, instead of
//! trusting the generator. A third mix ([`gen_extent_op`]) aims at the
//! summary extents: over a 64-page arena, long covers form extents,
//! sub-range covers split them, re-covers merge them back, ragged ends
//! unfold their edge pages and discards cut pages out of their middle.
//! Half of its seeds run under a page budget that long first touches
//! exhaust mid-gap; the reference keeps its own per-page tally of pages
//! taken and chunks dropped, which the shadow's counts must equal after
//! every operation.

use std::collections::{BTreeMap, HashSet};

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
    /// Slots by word index, grown on demand; an untouched word is empty.
    words: Vec<[u64; SLOTS_PER_WORD]>,
    /// Words in which the last `access_range` call evicted a slot.
    evicted: Vec<u64>,
    /// The per-page tally: pages tracked, the page budget, and the page
    /// chunks dropped because a new page would have exceeded it.
    pages: HashSet<u64>,
    budget: Option<usize>,
    dropped: u64,
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
        let words_per_page = PAGE_BYTES / WORD_BYTES;
        let mut tracked = false;
        for w in first..=last {
            // Page by page: a page not yet tracked is taken while the
            // budget allows, otherwise its whole chunk is dropped.
            if w == first || w % words_per_page == 0 {
                let page = w / words_per_page;
                tracked = self.pages.contains(&page)
                    || (self.budget.is_none_or(|b| self.pages.len() < b)
                        && self.pages.insert(page));
                if !tracked {
                    self.dropped += 1;
                }
            }
            if !tracked {
                continue;
            }
            if self.words.len() <= w as usize {
                self.words.resize(w as usize + 1, [0; SLOTS_PER_WORD]);
            }
            let slots = &mut self.words[w as usize];
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

    /// Forget the page holding `addr`; whether it was tracked.
    fn discard_page(&mut self, addr: u64) -> bool {
        let words_per_page = PAGE_BYTES / WORD_BYTES;
        let page = addr / PAGE_BYTES;
        let first = (page * words_per_page) as usize;
        let end = (first + words_per_page as usize).min(self.words.len());
        if first < end {
            self.words[first..end].fill([0; SLOTS_PER_WORD]);
        }
        self.pages.remove(&page)
    }

    fn word_accesses(&self, addr: u64) -> Vec<ShadowAccess> {
        self.words
            .get((addr / WORD_BYTES) as usize)
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
/// The tracked arena of the first two mixes: 8 pages.
const ARENA_PAGES: u64 = 8;
/// The extent mix's arena: long enough for long extents.
const EXTENT_ARENA_PAGES: u64 = 64;

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
    /// Discard the page holding this address.
    Discard(u64),
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

/// The extent mix, over [`EXTENT_ARENA_PAGES`]: long whole-buffer covers,
/// sub-range covers that split the extents they leave behind, re-covers of
/// the last long cover that merge them back, long ranges with ragged ends,
/// and discards that land mid-extent. Few contexts, so neighbouring pages
/// often end up equal. Run under a page budget, the long first touches
/// run out of it inside a vacant gap.
fn gen_extent_op(rng: &mut Lcg, last_cover: &mut Option<Op>) -> Op {
    let arena = EXTENT_ARENA_PAGES;
    let fiber = rng.below(FIBERS as u64) as usize;
    let ctx = rng.below(2) as u32;
    match rng.below(100) {
        // Long cover: 16..=64 pages, page-aligned.
        0..=24 => {
            let pages = 16 + rng.below(arena - 15);
            let page = rng.below(arena - pages + 1);
            let write = rng.below(3) > 0;
            let op = Op::Access(page * PAGE_BYTES, pages * PAGE_BYTES, write, fiber, ctx);
            *last_cover = Some(op);
            op
        }
        // Sub-range cover: 1..=8 pages, page-aligned.
        25..=44 => {
            let pages = 1 + rng.below(8);
            let page = rng.below(arena - pages + 1);
            let write = rng.below(2) == 0;
            Op::Access(page * PAGE_BYTES, pages * PAGE_BYTES, write, fiber, ctx)
        }
        // Re-cover: the last long cover again.
        45..=56 => last_cover.unwrap_or(Op::RepeatLast),
        // A long range entered and left mid-page.
        57..=71 => {
            let len = 1 + rng.below(40 * PAGE_BYTES);
            let addr = rng.below(arena * PAGE_BYTES - len);
            Op::Access(addr, len, rng.below(2) == 0, fiber, ctx)
        }
        72..=76 => Op::Discard(rng.below(arena * PAGE_BYTES)),
        77..=88 => Op::Release(fiber, rng.below(SYNC_KEYS as u64) as usize),
        _ => Op::Acquire(fiber, rng.below(SYNC_KEYS as u64) as usize),
    }
}

// ---- the differential harness ---------------------------------------------

/// The conflicts of one access, word-exact yet independent of how they
/// were grouped: packed prior access → the runs of words that conflicted
/// with it, in the order emitted, a run that continues the previous one
/// merged into it. The per-word reference's runs of one and the shadow's
/// page- or extent-long runs normalise alike iff they name the same words
/// in the same order.
type Runs = BTreeMap<u64, Vec<(u64, u64)>>;

/// A trace's conflicts, access by access.
type Conflicts = Vec<Runs>;

fn record(runs: &mut Runs, c: RawConflict) {
    let runs = runs.entry(pack(c.prev)).or_default();
    match runs.last_mut() {
        Some((addr, words)) if *addr + *words * WORD_BYTES == c.word_addr => *words += c.words,
        _ => runs.push((c.word_addr, c.words)),
    }
}

fn any_conflict(conflicts: &Conflicts) -> bool {
    conflicts.iter().any(|runs| !runs.is_empty())
}

/// What a trace exercised, counted off the reference (which the device
/// under test is asserted equal to) instead of trusted to the generator.
#[derive(Debug, Default)]
struct ChunkCounts {
    /// How often a trace walked the chunk `walk_runs` serves besides
    /// whole pages: the last page of a range, entered at its first word
    /// and left before its last. Whether that page was unfolded at the
    /// time is the caller's to know — the cover mix unfolds every page up
    /// front.
    tail_chunks: u64,
    /// Words of those chunks whose store evicted a slot.
    tail_evictions: u64,
    /// Accesses during which the page budget ran out: some new pages
    /// were taken, later ones dropped.
    budget_ran_out: u64,
    /// Discards that found a tracked page.
    discards: u64,
}

/// The shadow a trace runs against: its arena and page budget.
#[derive(Clone, Copy)]
struct Arena {
    pages: u64,
    budget: Option<usize>,
}

const SMALL_ARENA: Arena = Arena {
    pages: ARENA_PAGES,
    budget: None,
};

/// Replay `prelude`, then `ops` operations drawn from `gen`, through both
/// shadows; returns the device under test with both conflict multisets.
/// After every operation the device's page count and dropped chunks must
/// equal the reference's per-page tally.
fn run_trace(
    seed: u64,
    arena: Arena,
    prelude: &[Op],
    ops: usize,
    mut gen: impl FnMut(&mut Lcg) -> Op,
) -> (ShadowMemory, Conflicts, Conflicts, ChunkCounts) {
    let mut rng = Lcg(seed);
    let mut dut = ShadowMemory::new();
    dut.set_page_budget(arena.budget);
    let mut reference = ReferenceShadow {
        budget: arena.budget,
        ..ReferenceShadow::default()
    };

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
    let mut tally = ChunkCounts::default();
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
                let (pages_before, dropped_before) = (reference.pages.len(), reference.dropped);
                let (mut dut_runs, mut ref_runs) = (Runs::new(), Runs::new());
                dut.access_range(
                    addr,
                    len,
                    write,
                    fiber,
                    clock,
                    CtxId(ctx),
                    &clocks[f],
                    |c| record(&mut dut_runs, c),
                );
                reference.access_range(
                    addr,
                    len,
                    write,
                    fiber,
                    clock,
                    CtxId(ctx),
                    &clocks[f],
                    |c| record(&mut ref_runs, c),
                );
                dut_conflicts.push(dut_runs);
                ref_conflicts.push(ref_runs);
                let (first_word, last_word) = (addr / WORD_BYTES, (addr + len - 1) / WORD_BYTES);
                let tail_start = last_word / words_per_page * words_per_page;
                if first_word <= tail_start && last_word % words_per_page != words_per_page - 1 {
                    tally.tail_chunks += 1;
                    let evicted = reference.evicted.iter().filter(|w| **w >= tail_start);
                    tally.tail_evictions += evicted.count() as u64;
                }
                if reference.pages.len() > pages_before && reference.dropped > dropped_before {
                    tally.budget_ran_out += 1;
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
            Op::Discard(addr) => {
                let discarded = dut.discard_page(addr);
                assert_eq!(
                    discarded,
                    reference.discard_page(addr),
                    "seed {seed} step {i}"
                );
                tally.discards += u64::from(discarded);
            }
            Op::RepeatLast => unreachable!(),
        }
        assert_eq!(
            (dut.page_count(), dut.counters().dropped_annotations),
            (reference.pages.len(), reference.dropped),
            "seed {seed} step {i}: pages and dropped chunks diverged from the per-page tally"
        );
        // Spot-check slot-level equality as the trace evolves (cheap:
        // a few words per step).
        if i % 97 == 0 {
            let w = (rng.below(arena.pages * PAGE_BYTES / WORD_BYTES)) * WORD_BYTES;
            let mut a = dut.word_accesses(w);
            let mut b = reference.word_accesses(w);
            let key = |x: &ShadowAccess| pack(*x);
            a.sort_by_key(key);
            b.sort_by_key(key);
            assert_eq!(a, b, "seed {seed} step {i}: slots diverged at {w:#x}");
        }
    }

    // Full final sweep over every word both sides could have touched.
    for w in 0..(arena.pages * PAGE_BYTES / WORD_BYTES) {
        let addr = w * WORD_BYTES;
        let mut a = dut.word_accesses(addr);
        let mut b = reference.word_accesses(addr);
        let key = |x: &ShadowAccess| pack(*x);
        a.sort_by_key(key);
        b.sort_by_key(key);
        assert_eq!(a, b, "seed {seed}: final slots diverged at {addr:#x}");
    }

    (dut, dut_conflicts, ref_conflicts, tally)
}

/// Every walk emits what the per-word reference emits, re-issues
/// included, so the conflicts must be equal access by access.
fn assert_same_detections(seed: u64, dut: &Conflicts, reference: &Conflicts) {
    assert_eq!(dut.len(), reference.len());
    for (i, (d, r)) in dut.iter().zip(reference).enumerate() {
        assert_eq!(
            d, r,
            "seed {seed} access {i}: tiered and reference shadows disagree on the conflicts"
        );
    }
}

#[test]
fn tiered_matches_reference_on_random_traces() {
    // ~14k randomized ops across several seeds.
    for seed in [1, 2, 3, 7, 8, 0xDEAD, 0xC0FFEE] {
        let (_, dut, reference, _) = run_trace(seed, SMALL_ARENA, &[], 2000, gen_op);
        assert_same_detections(seed, &dut, &reference);
        assert!(
            any_conflict(&reference),
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
        let (shadow, dut, reference, tally) =
            run_trace(seed, SMALL_ARENA, &unfold_all, 1500, |rng| {
                gen_cover_op(rng, fibers)
            });
        assert_same_detections(seed, &dut, &reference);
        assert_eq!(shadow.summary_page_count(), 0, "seed {seed}: a page folded");
        assert_eq!(shadow.counters().page_unfolds, 0);
        // Every page was unfolded throughout, so each of these took the
        // run-valued walk over a ragged last page — and with a fifth
        // fiber, some of their words had to evict.
        assert!(tally.tail_chunks >= 100, "seed {seed}: {tally:?}");
        assert_eq!(
            tally.tail_evictions > 0,
            fibers == 5,
            "seed {seed}: {tally:?}"
        );
        assert!(
            any_conflict(&reference),
            "seed {seed}: no conflicts across {fibers} fibers — the mix tests nothing"
        );
    }
}

/// The extent mix over `seed`, budgeted on odd seeds.
fn run_extent_trace(seed: u64, ops: usize) -> (ShadowMemory, Conflicts, Conflicts, ChunkCounts) {
    let arena = Arena {
        pages: EXTENT_ARENA_PAGES,
        budget: (seed % 2 == 1).then_some(40),
    };
    let mut last_cover = None;
    run_trace(seed, arena, &[], ops, |rng| {
        gen_extent_op(rng, &mut last_cover)
    })
}

#[test]
fn long_extents_split_and_merged_match_reference() {
    for seed in [21, 22, 23, 24, 0xE7E7, 0xE7E8] {
        let (shadow, dut, reference, tally) = run_extent_trace(seed, 800);
        assert_same_detections(seed, &dut, &reference);
        assert!(
            any_conflict(&reference),
            "seed {seed}: the mix found no conflict"
        );
        let c = shadow.counters();
        assert!(
            c.page_summaries_stored > 0 && c.page_unfolds > 0,
            "seed {seed}: {c:?}"
        );
        assert!(tally.discards > 0, "seed {seed}: {tally:?}");
        // Budgeted, the long first touches run out of pages mid-range.
        let budgeted = seed % 2 == 1;
        assert_eq!(tally.budget_ran_out > 0, budgeted, "seed {seed}: {tally:?}");
    }
}

/// Release-mode sweep of all three mixes over 200 seeds each:
/// `cargo test --release -p tsan-rt --test shadow_differential -- --ignored`.
#[test]
#[ignore = "release-mode sweep, run by CI's evaluation job"]
fn all_three_mixes_match_reference_over_200_seeds() {
    let unfold_all: Vec<Op> = (0..ARENA_PAGES)
        .map(|p| Op::Access(p * PAGE_BYTES + 64, 8, true, 0, 0))
        .collect();
    for seed in 1000..1200 {
        let (_, dut, reference, _) = run_trace(seed, SMALL_ARENA, &[], 2000, gen_op);
        assert_same_detections(seed, &dut, &reference);
        let fibers = 2 + seed % 4;
        let (_, dut, reference, _) = run_trace(seed, SMALL_ARENA, &unfold_all, 1500, |rng| {
            gen_cover_op(rng, fibers)
        });
        assert_same_detections(seed, &dut, &reference);
        let (_, dut, reference, _) = run_extent_trace(seed, 800);
        assert_same_detections(seed, &dut, &reference);
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
