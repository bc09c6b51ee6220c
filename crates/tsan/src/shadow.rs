//! Shadow memory: packed access epochs, 4 slots per 8-byte word, with a
//! summary-extent tier on top.
//!
//! Mirrors ThreadSanitizer's shadow layout: every 8 bytes of application
//! memory map to a small fixed number of *shadow slots*, each recording one
//! recent access as a packed epoch. On a new access, the stored slots are
//! checked for conflicts under the happens-before relation.
//!
//! ## Packed epoch layout (64 bits)
//!
//! ```text
//! | 63    | 62..52       | 51..20        | 19..0        |
//! | write | fiber (11 b) | clock (32 b)  | ctx (20 b)   |
//! ```
//!
//! A slot is empty iff it is zero; real accesses always carry clock ≥ 1.
//! The 11-bit fiber field bounds live fibers to 2048 (see
//! [`crate::fiber::MAX_FIBERS`]); the 20-bit ctx field bounds interned
//! access contexts to ~1M.
//!
//! ## Tiers
//!
//! The instrumentation layers above (CuSan kernel arguments, MUST MPI
//! buffers, memcpy spans) overwhelmingly annotate *whole buffers* with a
//! single (fiber, epoch, ctx) — the effect behind the paper's Fig. 12,
//! where checker cost grows linearly with tracked bytes. The summary tier
//! collapses that cost for the dominant shapes while preserving exact
//! per-word detection semantics:
//!
//! **Summary extents.** A run of consecutive shadow pages whose words
//! all hold identical slot contents is stored as one *extent*: a
//! `[u64; 4]` *summary* and a page count, instead of 512 word
//! slot-arrays per page. The page table is an ordered map of extents
//! keyed by first page; an access looks it up once per extent or gap it
//! meets, never once per page. An access covering every word of a
//! stretch of an extent's pages runs the slot state machine **once**
//! against the summary — O(1) per run of identical pages instead of per
//! 4 KiB or per word, for the store *and* for what it finds: each
//! conflicting prior access is emitted as one [`RawConflict`] *run*
//! covering the stretch's words (the per-word walk emits runs of one
//! word), which the runtime folds into its dedup set and counters in one
//! step. A first touch of a gap's covered pages stores one extent for
//! all of them. Extents are canonical — they never overlap, and two
//! adjacent summaries never hold equal slots, because a stored or
//! created summary merges with equal neighbours at once — so the shape
//! is a function of the content. A partial overlap, or a store that
//! would evict (eviction is word-local, so words would diverge), lazily
//! *unfolds* the affected pages one by one into the flat word
//! representation first; an unfolded page is an extent of exactly one
//! page, and never folds back. Counters and snapshots stay per page:
//! `page_summaries_stored` grows by the pages a stretch covers, and a
//! snapshot holds one record per page.
//!
//! **Run-valued walk.** The same rule carries over to unfolded pages:
//! `walk_runs` scans each maximal run of words holding the same four
//! slots once, stores with a strided write (an eviction keeps its
//! per-word victim) and emits one [`RawConflict`] run per conflicting
//! prior access — cost ∝ distinct word *states*, of which a page that
//! partial accesses cut into regions has two or three, not 512. It
//! serves every chunk that starts on its page's first word — a
//! covered page, and the ragged *last* page of every multi-page range
//! — and the chunk that has just materialised its block (a first
//! touch: all empty; an unfold: the summary replicated). What is left
//! to the per-word `walk_words` is the one chunk that can start
//! mid-page, a range's *first*, on an already-unfolded page. The two
//! walks are proven equivalent; that chunk stays behind only because
//! the ledger's serve ratios charge solo-replay speed-ups as
//! regressions and admit one edge per PR, not both (ROADMAP items 0
//! and 1).
//!
//! This is the only shadow representation. An independent flat per-word
//! model lives in `tests/shadow_differential.rs` as the oracle the tiers
//! are proven against.

use std::collections::BTreeMap;

use crate::clock::VectorClock;
use crate::codec::{put_ascending, put_varint, DecodeError, Scanner};
use crate::fiber::FiberId;
use crate::report::CtxId;

/// Application bytes covered by one shadow word.
pub const WORD_BYTES: u64 = 8;
/// Shadow slots per word (TSan uses 4).
pub const SLOTS_PER_WORD: usize = 4;
/// Application bytes covered by one shadow page.
pub const PAGE_BYTES: u64 = 4096;
const WORDS_PER_PAGE: usize = (PAGE_BYTES / WORD_BYTES) as usize;
const SLOTS_PER_PAGE: usize = WORDS_PER_PAGE * SLOTS_PER_WORD;

const CTX_BITS: u32 = 20;
const CLOCK_BITS: u32 = 32;
const FIBER_BITS: u32 = 11;
const CTX_MASK: u64 = (1 << CTX_BITS) - 1;
const CLOCK_MASK: u64 = (1 << CLOCK_BITS) - 1;
const FIBER_MASK: u64 = (1 << FIBER_BITS) - 1;
const CLOCK_SHIFT: u32 = CTX_BITS;
const FIBER_SHIFT: u32 = CTX_BITS + CLOCK_BITS;
const WRITE_SHIFT: u32 = 63;

/// One recorded access, unpacked from a shadow slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShadowAccess {
    /// Fiber that performed the access.
    pub fiber: FiberId,
    /// The fiber's clock component at access time.
    pub clock: u32,
    /// Interned access-context id.
    pub ctx: CtxId,
    /// Whether the access was a write.
    pub write: bool,
}

/// Pack an access into a shadow slot.
#[inline]
pub fn pack(a: ShadowAccess) -> u64 {
    debug_assert!(a.clock >= 1, "real accesses have clock >= 1");
    debug_assert!((a.fiber.index() as u64) <= FIBER_MASK);
    debug_assert!((a.ctx.0 as u64) <= CTX_MASK);
    (u64::from(a.write) << WRITE_SHIFT)
        | ((a.fiber.index() as u64 & FIBER_MASK) << FIBER_SHIFT)
        | ((u64::from(a.clock) & CLOCK_MASK) << CLOCK_SHIFT)
        | (u64::from(a.ctx.0) & CTX_MASK)
}

/// Unpack a non-empty shadow slot.
#[inline]
pub fn unpack(raw: u64) -> ShadowAccess {
    ShadowAccess {
        fiber: FiberId::from_index(((raw >> FIBER_SHIFT) & FIBER_MASK) as usize),
        clock: ((raw >> CLOCK_SHIFT) & CLOCK_MASK) as u32,
        ctx: CtxId(((raw) & CTX_MASK) as u32),
        write: (raw >> WRITE_SHIFT) & 1 == 1,
    }
}

/// A race discovered while recording an access: a run of consecutive
/// words that all conflict identically with `prev`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RawConflict {
    /// Word-aligned application address of the run's first word.
    pub word_addr: u64,
    /// Words in the run (≥ 1): the covered stretch of a summary extent
    /// conflicts as one run of `pages × 512`, the run-valued walk emits
    /// one run per stretch of equal words, the per-word walk emits runs
    /// of 1.
    pub words: u64,
    /// The previously recorded access.
    pub prev: ShadowAccess,
}

/// Event counters for the tiered shadow (surfaced through
/// [`crate::TsanStats`] and Table I).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ShadowCounters {
    /// Pages recorded at the summary tier by an access covering them
    /// whole, counted per page although one scan serves a whole stretch
    /// of an extent.
    pub page_summaries_stored: u64,
    /// Summaries expanded into flat word slots (partial overlap or a
    /// store that needed word-local eviction).
    pub page_unfolds: u64,
    /// Arena slabs allocated (logarithmic in unfolded page count thanks
    /// to geometric slab growth).
    pub arena_slabs_allocated: u64,
}

/// Pages in the first arena slab; subsequent slabs double up to
/// [`ARENA_MAX_SLAB_PAGES`], keeping slab count logarithmic while
/// bounding the worst-case over-allocation.
const ARENA_FIRST_SLAB_PAGES: usize = 4;
const ARENA_MAX_SLAB_PAGES: usize = 256;

/// Handle of one page block inside the arena: slab index + block index.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct BlockId {
    slab: u32,
    block: u32,
}

/// Slab arena carving [`SLOTS_PER_PAGE`]-word page blocks out of
/// geometrically grown slabs.
///
/// Unfolding a summary pays one `Vec` allocation per *slab* (4 pages
/// doubling to 256) and otherwise just bumps a cursor. `vec![0u64; n]`
/// lowers to `alloc_zeroed`, so large slabs come from lazily-zeroed OS
/// pages — carving never eagerly zeroes slab memory ahead of use. A page
/// is never given back, so every block is carved once, all-zero, and
/// owned by one unfolded page for the life of the shadow: the arena's
/// shape is a function of how many pages are unfolded.
struct PageArena {
    slabs: Vec<Box<[u64]>>,
    /// Blocks already carved from the newest slab.
    carved: usize,
    next_slab_pages: usize,
}

impl PageArena {
    fn new() -> Self {
        PageArena {
            slabs: Vec::new(),
            carved: 0,
            next_slab_pages: ARENA_FIRST_SLAB_PAGES,
        }
    }

    /// Carve a fresh block: all of its slots are empty.
    fn alloc_zeroed(&mut self) -> BlockId {
        let cap = self.slabs.last().map_or(0, |s| s.len() / SLOTS_PER_PAGE);
        if self.carved == cap {
            self.slabs
                .push(vec![0u64; self.next_slab_pages * SLOTS_PER_PAGE].into_boxed_slice());
            self.carved = 0;
            self.next_slab_pages = (self.next_slab_pages * 2).min(ARENA_MAX_SLAB_PAGES);
        }
        let id = BlockId {
            slab: (self.slabs.len() - 1) as u32,
            block: self.carved as u32,
        };
        self.carved += 1;
        id
    }

    /// Carve a block and fill every word with `summary` — the unfold
    /// fill. Only the live prefix is stored: the tail is already zero.
    fn alloc_filled(&mut self, summary: &[u64; SLOTS_PER_WORD]) -> BlockId {
        let id = self.alloc_zeroed();
        // Live slots form a prefix (the store machine fills the first
        // empty slot), but a rear scan stays correct even if an interior
        // slot were zero.
        let live = SLOTS_PER_WORD - summary.iter().rev().take_while(|&&s| s == 0).count();
        if live > 0 {
            let slots = self.block_mut(id);
            for w in 0..WORDS_PER_PAGE {
                let base = w * SLOTS_PER_WORD;
                slots[base..base + live].copy_from_slice(&summary[..live]);
            }
        }
        id
    }

    fn block(&self, id: BlockId) -> &[u64; SLOTS_PER_PAGE] {
        let base = id.block as usize * SLOTS_PER_PAGE;
        (&self.slabs[id.slab as usize][base..base + SLOTS_PER_PAGE])
            .try_into()
            .expect("block size")
    }

    fn block_mut(&mut self, id: BlockId) -> &mut [u64; SLOTS_PER_PAGE] {
        let base = id.block as usize * SLOTS_PER_PAGE;
        (&mut self.slabs[id.slab as usize][base..base + SLOTS_PER_PAGE])
            .try_into()
            .expect("block size")
    }

    /// All slab bytes, carved or not: what the arena actually holds from
    /// the allocator, not just live blocks.
    fn heap_bytes(&self) -> u64 {
        self.slabs.iter().map(|s| (s.len() * 8) as u64).sum()
    }
}

/// A run of shadow pages stored as one unit, keyed in the page table by
/// its first page.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Extent {
    /// `pages` consecutive pages whose words all hold `slots`. Invariant:
    /// flat pages with these slots replicated into every word behave
    /// identically. Maintained by unfolding before any operation that
    /// would make words diverge.
    Summary {
        pages: u64,
        slots: [u64; SLOTS_PER_WORD],
    },
    /// Exactly one page of per-word slots in an arena block.
    Unfolded(BlockId),
}

impl Extent {
    fn pages(&self) -> u64 {
        match self {
            Extent::Summary { pages, .. } => *pages,
            Extent::Unfolded(_) => 1,
        }
    }
}

/// Page table: extents keyed by first page. Canonical form: extents never
/// overlap and two adjacent summaries never hold equal slots, so the
/// shape is a function of the content (and of which pages are unfolded).
type Extents = BTreeMap<u64, Extent>;

/// The extent holding `page`, with its first page.
fn extent_at(extents: &Extents, page: u64) -> Option<(u64, Extent)> {
    let (&key, &extent) = extents.range(..=page).next_back()?;
    (key + extent.pages() > page).then_some((key, extent))
}

/// Cut pages `[lo, hi]` out of the summary extent at `key`, keeping the
/// rest of it on either side.
fn cut(extents: &mut Extents, key: u64, lo: u64, hi: u64) {
    let Some(Extent::Summary { pages, slots }) = extents.get_mut(&key) else {
        unreachable!("`cut` splits summary extents only")
    };
    let (end, slots) = (key + *pages, *slots);
    if lo > key {
        *pages = lo - key;
    } else {
        extents.remove(&key);
    }
    if hi + 1 < end {
        let rest = Extent::Summary {
            pages: end - hi - 1,
            slots,
        };
        extents.insert(hi + 1, rest);
    }
}

/// Insert a summary extent of `pages` pages from `start`, merged with an
/// adjacent summary on either side that holds the same slots: the
/// canonical form, kept by every store.
fn insert_summary(
    extents: &mut Extents,
    mut start: u64,
    mut pages: u64,
    slots: [u64; SLOTS_PER_WORD],
) {
    if let Some(&Extent::Summary { pages: n, slots: s }) = extents.get(&(start + pages)) {
        if s == slots {
            extents.remove(&(start + pages));
            pages += n;
        }
    }
    if let Some((&k, &Extent::Summary { pages: n, slots: s })) = extents.range(..start).next_back()
    {
        if k + n == start && s == slots {
            start = k;
            pages += n;
        }
    }
    extents.insert(start, Extent::Summary { pages, slots });
}

/// What the slot state machine decided to do with the incoming access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum StoreDecision {
    /// Overwrite the slot at this index (same-fiber subsumption or an
    /// empty slot).
    At(usize),
    /// Do not store: an own write already subsumes this read.
    Skip,
    /// All slots are occupied by other fibers — evict the word-local
    /// victim.
    Evict,
}

/// Scan one word's slots against an incoming access: emit each conflicting
/// prior access and decide where (whether) to store. Pure with respect to
/// the slots; the caller applies the decision.
#[inline]
fn scan_slots(
    slots: &[u64],
    fiber: FiberId,
    write: bool,
    fiber_clock: &VectorClock,
    mut emit: impl FnMut(ShadowAccess),
) -> StoreDecision {
    #[cfg(test)]
    tests::SCANS.with(|n| n.set(n.get() + 1));
    let mut store_at: Option<usize> = None;
    let mut skip_store = false;
    let mut empty_at: Option<usize> = None;
    for (i, &raw) in slots.iter().enumerate() {
        if raw == 0 {
            if empty_at.is_none() {
                empty_at = Some(i);
            }
            continue;
        }
        let prev = unpack(raw);
        if prev.fiber == fiber {
            // Same fiber: ordered by program order; never a race.
            if write || !prev.write {
                // New access subsumes the old entry.
                store_at = Some(i);
            } else {
                // Old write subsumes this read: keep the write, recording
                // the read adds no conflict coverage.
                skip_store = true;
            }
            continue;
        }
        // Different fiber: conflicting iff at least one write and the
        // recorded epoch is not in our happens-before past.
        if (write || prev.write) && fiber_clock.get(prev.fiber) < prev.clock {
            emit(prev);
        }
    }
    if skip_store {
        StoreDecision::Skip
    } else {
        match (store_at, empty_at) {
            (Some(i), _) => StoreDecision::At(i),
            (None, Some(i)) => StoreDecision::At(i),
            (None, None) => StoreDecision::Evict,
        }
    }
}

/// [`scan_slots`] with the conflicts buffered instead of emitted: a scan
/// that stands for many words (a summary, a run) only learns how many
/// after it has decided. At most one conflict per slot; the count is the
/// last field.
#[inline]
fn scan_buffered(
    slots: &[u64; SLOTS_PER_WORD],
    fiber: FiberId,
    write: bool,
    fiber_clock: &VectorClock,
) -> (StoreDecision, [ShadowAccess; SLOTS_PER_WORD], usize) {
    let mut conflicts = [ShadowAccess {
        fiber: FiberId::HOST,
        clock: 0,
        ctx: CtxId(0),
        write: false,
    }; SLOTS_PER_WORD];
    let mut n = 0usize;
    let decision = scan_slots(slots, fiber, write, fiber_clock, |prev| {
        conflicts[n] = prev;
        n += 1;
    });
    (decision, conflicts, n)
}

/// Word-local deterministic eviction victim. Depends only on the word
/// index and the incoming fiber — unrelated words no longer share a
/// global rotor, so eviction at one address cannot bias another, and
/// identical schedules always evict identically. Mixing in the fiber
/// spreads repeated evictions at one word across slots.
#[inline]
fn victim_slot(word: u64, fiber: FiberId) -> usize {
    (word as usize ^ fiber.index()) % SLOTS_PER_WORD
}

/// The shadow memory of one [`crate::TsanRuntime`].
pub struct ShadowMemory {
    extents: Extents,
    /// Pages held, summed over `extents`.
    page_count: u64,
    arena: PageArena,
    counters: ShadowCounters,
}

impl Default for ShadowMemory {
    fn default() -> Self {
        Self::new()
    }
}

impl ShadowMemory {
    /// Fresh, empty shadow memory.
    pub fn new() -> Self {
        ShadowMemory {
            extents: Extents::new(),
            page_count: 0,
            arena: PageArena::new(),
            counters: ShadowCounters::default(),
        }
    }

    /// Tier event counters, with the arena's slab count merged in.
    pub fn counters(&self) -> ShadowCounters {
        ShadowCounters {
            arena_slabs_allocated: self.arena.slabs.len() as u64,
            ..self.counters
        }
    }

    /// Record an access of `[addr, addr+len)` by `fiber` (whose clock
    /// component is `clock` and full vector clock is `fiber_clock`).
    /// Invokes `on_conflict` for each run of words that conflicts with a
    /// prior access: once per (stretch of a summary extent the access
    /// covers whole, prior access), once per (run of equal words, prior
    /// access) where the run-valued walk serves, once per (word, prior
    /// access) elsewhere. The page table is looked up once per extent or
    /// gap met, never per page. Cost is O(extents + distinct states) for
    /// every chunk that starts on its page's first word — conflicts
    /// included — and O(words) for the one chunk that can start mid-page,
    /// a range's first, when its page is already unfolded. `addr + len`
    /// must not overflow.
    #[allow(clippy::too_many_arguments)]
    pub fn access_range(
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
        let first_word = addr / WORD_BYTES;
        // The range's end is validated upstream: the trace decoders
        // reject records whose `addr + len` overflows, and live ranges
        // come from real allocations.
        let last_word = (addr + (len - 1)) / WORD_BYTES;
        let words_per_page = WORDS_PER_PAGE as u64;
        let (first_page, last_page) = (first_word / words_per_page, last_word / words_per_page);
        // A page's chunk covers it unless it is the range's first page
        // entered mid-page or its last page left mid-page (bytes may still
        // be ragged at the edges — word coverage is what a per-word walk
        // stores).
        let partial = |page: u64| {
            (page == first_page && !first_word.is_multiple_of(words_per_page))
                || (page == last_page && last_word % words_per_page != words_per_page - 1)
        };
        let chunk = |page: u64| {
            let page_first_word = page * words_per_page;
            (
                first_word.max(page_first_word),
                last_word.min(page_first_word + words_per_page - 1),
            )
        };
        // Split borrows: the page table, the arena, and the counters are
        // touched together in every arm below.
        let Self {
            extents,
            page_count,
            arena,
            counters,
        } = self;
        let mut page = first_page;
        while page <= last_page {
            match extent_at(extents, page) {
                // A chunk that starts on its page's first word — a covered
                // page, or the ragged last page of a multi-page range —
                // pays per distinct word state (the few regions partial
                // accesses left behind), not per word.
                Some((_, Extent::Unfolded(id))) => {
                    let (word, end_word) = chunk(page);
                    let slots = arena.block_mut(id);
                    if word == page * words_per_page {
                        walk_runs(
                            slots,
                            word,
                            end_word,
                            new_raw,
                            fiber,
                            write,
                            fiber_clock,
                            &mut on_conflict,
                        );
                    } else {
                        // The last per-word caller: the one chunk that can
                        // start mid-page, a range's first, on an
                        // already-unfolded page. `walk_runs` is equivalent
                        // here too; routing it waits on the ledger's serve
                        // ratios (ROADMAP items 0 and 1).
                        walk_words(
                            slots,
                            word,
                            end_word,
                            new_raw,
                            fiber,
                            write,
                            fiber_clock,
                            &mut on_conflict,
                        );
                    }
                    page += 1;
                }
                Some((key, Extent::Summary { pages, slots })) => {
                    let unfold_end = if partial(page) {
                        page
                    } else {
                        // The pages of this extent the range covers whole,
                        // from `page` on.
                        let end = (key + pages - 1).min(last_page);
                        let whole_end = end - u64::from(partial(end));
                        // Run the slot state machine once against the
                        // summary. Conflicts are buffered (an eviction
                        // discards them: the unfold walks below find them
                        // again) and emitted as one run each covering the
                        // stretch — every word held identical slots, so
                        // every word conflicts identically.
                        let (decision, conflicts, n_conflicts) =
                            scan_buffered(&slots, fiber, write, fiber_clock);
                        if decision != StoreDecision::Evict {
                            let stretch = whole_end - page + 1;
                            for prev in conflicts.iter().take(n_conflicts) {
                                on_conflict(RawConflict {
                                    word_addr: page * words_per_page * WORD_BYTES,
                                    words: stretch * words_per_page,
                                    prev: *prev,
                                });
                            }
                            counters.page_summaries_stored += stretch;
                            if let StoreDecision::At(i) = decision {
                                if slots[i] != new_raw {
                                    let mut stored = slots;
                                    stored[i] = new_raw;
                                    cut(extents, key, page, whole_end);
                                    insert_summary(extents, page, stretch, stored);
                                }
                            }
                            page = whole_end + 1;
                            continue;
                        }
                        // Eviction is word-local: applying it at the
                        // summary tier would evict the same slot in every
                        // word while a per-word walk would diverge per
                        // word. Unfold and take the slow path instead
                        // (rare: needs 4 live foreign epochs).
                        whole_end
                    };
                    // Unfold = carve a block + replicate the summary into
                    // every word, so the chunk is one run of it. Once a
                    // page is unfolded, the rest of the extent starts
                    // after it.
                    for p in page..=unfold_end {
                        let id = arena.alloc_filled(&slots);
                        cut(extents, if p == page { key } else { p }, p, p);
                        extents.insert(p, Extent::Unfolded(id));
                        counters.page_unfolds += 1;
                        let (word, end_word) = chunk(p);
                        walk_runs(
                            arena.block_mut(id),
                            word,
                            end_word,
                            new_raw,
                            fiber,
                            write,
                            fiber_clock,
                            &mut on_conflict,
                        );
                    }
                    page = unfold_end + 1;
                }
                None if partial(page) => {
                    // Partial first touch: carve a zeroed block from the
                    // arena. Every word is empty — one run.
                    let id = arena.alloc_zeroed();
                    extents.insert(page, Extent::Unfolded(id));
                    *page_count += 1;
                    let (word, end_word) = chunk(page);
                    walk_runs(
                        arena.block_mut(id),
                        word,
                        end_word,
                        new_raw,
                        fiber,
                        write,
                        fiber_clock,
                        &mut on_conflict,
                    );
                    page += 1;
                }
                None => {
                    // First touch of the covered pages of a gap: one
                    // packed store for all of them.
                    let gap_end = match extents.range(page..).next() {
                        Some((&next, _)) => (next - 1).min(last_page),
                        None => last_page,
                    };
                    let whole_end = gap_end - u64::from(partial(gap_end));
                    let gap = whole_end - page + 1;
                    let mut slots = [0u64; SLOTS_PER_WORD];
                    slots[0] = new_raw;
                    insert_summary(extents, page, gap, slots);
                    *page_count += gap;
                    counters.page_summaries_stored += gap;
                    page = whole_end + 1;
                }
            }
        }
    }

    /// All recorded accesses for the word containing `addr` (test/debug).
    pub fn word_accesses(&self, addr: u64) -> Vec<ShadowAccess> {
        let word = addr / WORD_BYTES;
        let Some((_, extent)) = extent_at(&self.extents, word / WORDS_PER_PAGE as u64) else {
            return Vec::new();
        };
        let slots: &[u64] = match &extent {
            Extent::Summary { slots, .. } => &slots[..],
            Extent::Unfolded(id) => {
                let slot_base = (word % WORDS_PER_PAGE as u64) as usize * SLOTS_PER_WORD;
                &self.arena.block(*id)[slot_base..slot_base + SLOTS_PER_WORD]
            }
        };
        slots
            .iter()
            .filter(|&&s| s != 0)
            .map(|&s| unpack(s))
            .collect()
    }

    /// Number of shadow pages allocated so far (summaries included).
    pub fn page_count(&self) -> usize {
        self.page_count as usize
    }

    /// Number of pages currently held as summaries.
    pub fn summary_page_count(&self) -> usize {
        self.extents
            .values()
            .map(|e| match e {
                Extent::Summary { pages, .. } => *pages as usize,
                Extent::Unfolded(_) => 0,
            })
            .sum()
    }

    /// Approximate heap bytes used by the shadow (drives Fig. 11).
    /// Charged per page, whatever the extent shape: a summary page costs a
    /// fixed few words, an unfolded page only its table entry here because
    /// every slab byte — carved or not yet carved — is charged via
    /// `PageArena::heap_bytes`.
    pub fn heap_bytes(&self) -> u64 {
        let summary_pages = self.summary_page_count() as u64;
        let unfolded_pages = self.page_count - summary_pages;
        summary_pages * (SLOTS_PER_WORD * 8 + 32) as u64
            + unfolded_pages * 32
            + self.arena.heap_bytes()
    }

    /// Serialize the entire shadow — the tier counters and one record per
    /// page in page order, whatever the extent shape (so one content
    /// always snapshots to the same bytes). The arena is not written: its
    /// shape is a function of the unfolded page count.
    pub(crate) fn write_snapshot(&self, buf: &mut Vec<u8>) {
        put_varint(buf, self.counters.page_summaries_stored);
        put_varint(buf, self.counters.page_unfolds);
        put_varint(buf, self.page_count);
        let mut last = None;
        for (&key, extent) in &self.extents {
            match extent {
                Extent::Summary { pages, slots } => {
                    for page in key..key + pages {
                        put_ascending(buf, &mut last, page);
                        buf.push(0);
                        for &v in slots {
                            buf.extend_from_slice(&v.to_le_bytes());
                        }
                    }
                }
                // Tag 1 is retired with layout v1; it must stay unassigned.
                Extent::Unfolded(id) => {
                    put_ascending(buf, &mut last, key);
                    buf.push(2);
                    write_sparse_slots(buf, self.arena.block(*id));
                }
            }
        }
    }

    /// Rebuild a shadow from [`Self::write_snapshot`] output, whose slots
    /// must name fibers below `n_fibers`. Consecutive summary pages with
    /// equal slots coalesce back into one extent. Unfolded pages carve
    /// their blocks in page order, which grows the same slabs the
    /// snapshotted shadow held.
    pub(crate) fn read_snapshot(s: &mut Scanner<'_>, n_fibers: usize) -> Result<Self, DecodeError> {
        let counters = ShadowCounters {
            page_summaries_stored: s.varint()?,
            page_unfolds: s.varint()?,
            ..ShadowCounters::default()
        };
        let mut arena = PageArena::new();
        // The table and the arena grow as pages decode (see
        // `TsanRuntime::read_snapshot`): an unfolded page's block is
        // carved only once its record is in hand.
        let n_pages = s.count(3)?;
        let mut extents = Extents::new();
        let mut last = None;
        for _ in 0..n_pages {
            let key = s.ascending(&mut last)?;
            let extent = match s.u8()? {
                0 => {
                    let mut slots = [0u64; SLOTS_PER_WORD];
                    for v in &mut slots {
                        *v = read_slot(s, n_fibers)?;
                    }
                    if let Some(mut prev) = extents.last_entry() {
                        let start = *prev.key();
                        if let Extent::Summary { pages, slots: s } = prev.get_mut() {
                            if start + *pages == key && *s == slots {
                                *pages += 1;
                                continue;
                            }
                        }
                    }
                    Extent::Summary { pages: 1, slots }
                }
                2 => {
                    let id = arena.alloc_zeroed();
                    read_sparse_slots(s, arena.block_mut(id), n_fibers)?;
                    Extent::Unfolded(id)
                }
                t => return Err(s.corrupt(format!("page state tag {t}"))),
            };
            extents.insert(key, extent);
        }
        Ok(ShadowMemory {
            extents,
            page_count: n_pages as u64,
            arena,
            counters,
        })
    }
}

/// Encode one page's slot array as (index, value) pairs of its nonzero
/// slots, indices ascending — spilled shadows are dominated by
/// sparsely-touched pages, and zero slots reconstruct for free.
fn write_sparse_slots(buf: &mut Vec<u8>, slots: &[u64; SLOTS_PER_PAGE]) {
    put_varint(buf, slots.iter().filter(|&&v| v != 0).count() as u64);
    let mut last = None;
    for (i, &v) in slots.iter().enumerate() {
        if v != 0 {
            put_ascending(buf, &mut last, i as u64);
            buf.extend_from_slice(&v.to_le_bytes());
        }
    }
}

/// Decode [`write_sparse_slots`] output into an all-zero slot array.
fn read_sparse_slots(
    s: &mut Scanner<'_>,
    slots: &mut [u64; SLOTS_PER_PAGE],
    n_fibers: usize,
) -> Result<(), DecodeError> {
    // A pair is a one-byte index at least and an 8-byte word.
    let n = s.count(9)?;
    let mut last = None;
    for _ in 0..n {
        let i = s.ascending(&mut last)?;
        let Some(slot) = usize::try_from(i).ok().and_then(|i| slots.get_mut(i)) else {
            return Err(s.corrupt(format!("slot index {i} past the page")));
        };
        *slot = read_slot(s, n_fibers)?;
        if *slot == 0 {
            return Err(s.corrupt("zero slot in sparse list"));
        }
    }
    Ok(())
}

/// One packed slot word, whose access (if any) must name a fiber below
/// `n_fibers` — a report names both fibers of a race.
fn read_slot(s: &mut Scanner<'_>, n_fibers: usize) -> Result<u64, DecodeError> {
    let v = s.u64_le()?;
    if v != 0 && unpack(v).fiber.index() >= n_fibers {
        return Err(s.corrupt(format!("slot {v:#x} names a fiber past the table")));
    }
    Ok(v)
}

/// Per-word walk over `[word, end_word]` within one page's slot array:
/// per-word conflict scan + store.
#[allow(clippy::too_many_arguments)]
#[inline]
fn walk_words(
    page_slots: &mut [u64; SLOTS_PER_PAGE],
    word: u64,
    end_word: u64,
    new_raw: u64,
    fiber: FiberId,
    write: bool,
    fiber_clock: &VectorClock,
    on_conflict: &mut impl FnMut(RawConflict),
) {
    let mut w = word;
    while w <= end_word {
        let slot_base = (w % WORDS_PER_PAGE as u64) as usize * SLOTS_PER_WORD;
        let slots = &mut page_slots[slot_base..slot_base + SLOTS_PER_WORD];
        let decision = scan_slots(slots, fiber, write, fiber_clock, |prev| {
            on_conflict(RawConflict {
                word_addr: w * WORD_BYTES,
                words: 1,
                prev,
            })
        });
        match decision {
            StoreDecision::Skip => {}
            StoreDecision::At(i) => slots[i] = new_raw,
            StoreDecision::Evict => slots[victim_slot(w, fiber)] = new_raw,
        }
        w += 1;
    }
}

/// Run-valued walk over `[word, end_word]` within one page's slot array:
/// each maximal run of words holding the same four slots is scanned once,
/// stored with a strided write, and conflicts as one [`RawConflict`] run
/// per conflicting prior access. Slots, conflicts (once runs are expanded)
/// and the order in which each prior access first appears are exactly
/// [`walk_words`]'s: equal slots decide equally, and eviction — the one
/// word-dependent store — keeps its per-word victim.
#[allow(clippy::too_many_arguments)]
fn walk_runs(
    page_slots: &mut [u64; SLOTS_PER_PAGE],
    word: u64,
    end_word: u64,
    new_raw: u64,
    fiber: FiberId,
    write: bool,
    fiber_clock: &VectorClock,
    on_conflict: &mut impl FnMut(RawConflict),
) {
    let slot_base = |w: u64| (w % WORDS_PER_PAGE as u64) as usize * SLOTS_PER_WORD;
    let mut run_start = word;
    while run_start <= end_word {
        let base = slot_base(run_start);
        let state: [u64; SLOTS_PER_WORD] = page_slots[base..base + SLOTS_PER_WORD]
            .try_into()
            .expect("word size");
        let (decision, conflicts, n_conflicts) = scan_buffered(&state, fiber, write, fiber_clock);
        // Store into the run's words while finding where it ends: a word
        // joins the run iff it still holds the state that was scanned.
        let mut w = run_start;
        loop {
            let base = slot_base(w);
            match decision {
                StoreDecision::Skip => {}
                StoreDecision::At(i) => page_slots[base + i] = new_raw,
                StoreDecision::Evict => page_slots[base + victim_slot(w, fiber)] = new_raw,
            }
            w += 1;
            if w > end_word {
                break;
            }
            let base = slot_base(w);
            if page_slots[base..base + SLOTS_PER_WORD] != state {
                break;
            }
        }
        for prev in conflicts.iter().take(n_conflicts) {
            on_conflict(RawConflict {
                word_addr: run_start * WORD_BYTES,
                words: w - run_start,
                prev: *prev,
            });
        }
        run_start = w;
    }
}

#[cfg(test)]
mod tests {
    /// The per-word walk as the reference of the equivalence property.
    /// Imported under another name so that grepping this file for calls
    /// of `walk_words` keeps showing its one production caller only.
    use super::walk_words as walk_per_word;
    use super::*;
    use proptest::prelude::*;

    thread_local! {
        /// `scan_slots` calls made by this test's thread — the unit of
        /// work the run-valued walk promises to save.
        pub(super) static SCANS: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
    }

    fn ctx(i: u32) -> CtxId {
        CtxId(i)
    }

    fn fid(i: usize) -> FiberId {
        FiberId::from_index(i)
    }

    #[test]
    fn pack_unpack_roundtrip() {
        let a = ShadowAccess {
            fiber: fid(1234),
            clock: 0xDEAD_BEEF,
            ctx: ctx(77),
            write: true,
        };
        assert_eq!(unpack(pack(a)), a);
        let b = ShadowAccess {
            fiber: fid(0),
            clock: 1,
            ctx: ctx(0),
            write: false,
        };
        assert_eq!(unpack(pack(b)), b);
    }

    #[test]
    fn empty_slot_is_zero_and_real_access_is_not() {
        let a = ShadowAccess {
            fiber: fid(0),
            clock: 1,
            ctx: ctx(0),
            write: false,
        };
        assert_ne!(pack(a), 0);
    }

    fn no_conflict_expected(c: RawConflict) {
        panic!("unexpected conflict: {c:?}");
    }

    #[test]
    fn same_fiber_never_conflicts() {
        let mut sh = ShadowMemory::new();
        let clk = VectorClock::new();
        sh.access_range(
            0x1000,
            8,
            true,
            fid(1),
            1,
            ctx(0),
            &clk,
            no_conflict_expected,
        );
        sh.access_range(
            0x1000,
            8,
            true,
            fid(1),
            2,
            ctx(0),
            &clk,
            no_conflict_expected,
        );
        sh.access_range(
            0x1000,
            8,
            false,
            fid(1),
            2,
            ctx(0),
            &clk,
            no_conflict_expected,
        );
    }

    #[test]
    fn read_read_never_conflicts() {
        let mut sh = ShadowMemory::new();
        let clk = VectorClock::new();
        sh.access_range(
            0x1000,
            8,
            false,
            fid(1),
            5,
            ctx(0),
            &clk,
            no_conflict_expected,
        );
        sh.access_range(
            0x1000,
            8,
            false,
            fid(2),
            5,
            ctx(1),
            &clk,
            no_conflict_expected,
        );
    }

    #[test]
    fn write_write_unordered_conflicts() {
        let mut sh = ShadowMemory::new();
        let clk = VectorClock::new(); // knows nothing about fiber 1
        sh.access_range(
            0x1000,
            8,
            true,
            fid(1),
            5,
            ctx(0),
            &clk,
            no_conflict_expected,
        );
        let mut hits = Vec::new();
        sh.access_range(0x1000, 8, true, fid(2), 5, ctx(1), &clk, |c| hits.push(c));
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].prev.fiber, fid(1));
        assert_eq!(hits[0].prev.clock, 5);
        assert!(hits[0].prev.write);
    }

    #[test]
    fn happens_before_suppresses_conflict() {
        let mut sh = ShadowMemory::new();
        sh.access_range(
            0x1000,
            8,
            true,
            fid(1),
            5,
            ctx(0),
            &VectorClock::new(),
            no_conflict_expected,
        );
        // Fiber 2 has synchronized with fiber 1 up to clock 5.
        let mut clk = VectorClock::new();
        clk.set(fid(1), 5);
        sh.access_range(
            0x1000,
            8,
            true,
            fid(2),
            1,
            ctx(1),
            &clk,
            no_conflict_expected,
        );
    }

    #[test]
    fn stale_sync_still_conflicts() {
        let mut sh = ShadowMemory::new();
        sh.access_range(
            0x1000,
            8,
            true,
            fid(1),
            7,
            ctx(0),
            &VectorClock::new(),
            no_conflict_expected,
        );
        // Fiber 2 only synchronized with fiber 1 up to clock 6 < 7.
        let mut clk = VectorClock::new();
        clk.set(fid(1), 6);
        let mut hits = 0;
        sh.access_range(0x1000, 8, false, fid(2), 1, ctx(1), &clk, |_| hits += 1);
        assert_eq!(hits, 1);
    }

    #[test]
    fn range_conflict_reported_per_word() {
        let mut sh = ShadowMemory::new();
        let clk = VectorClock::new();
        sh.access_range(
            0x1000,
            64,
            true,
            fid(1),
            1,
            ctx(0),
            &clk,
            no_conflict_expected,
        );
        let mut hits = 0;
        sh.access_range(0x1000, 64, false, fid(2), 1, ctx(1), &clk, |c| {
            hits += c.words
        });
        assert_eq!(hits, 8, "one conflict per 8-byte word");
    }

    #[test]
    fn partial_overlap_detected() {
        let mut sh = ShadowMemory::new();
        let clk = VectorClock::new();
        sh.access_range(
            0x1000,
            32,
            true,
            fid(1),
            1,
            ctx(0),
            &clk,
            no_conflict_expected,
        );
        let mut words = Vec::new();
        // Overlaps only the last two words of the previous range.
        sh.access_range(0x1010, 32, true, fid(2), 1, ctx(1), &clk, |c| {
            words.push(c.word_addr)
        });
        assert_eq!(words, vec![0x1010, 0x1018]);
    }

    #[test]
    fn unaligned_range_covers_touched_words() {
        let mut sh = ShadowMemory::new();
        let clk = VectorClock::new();
        // 4 bytes starting at 0x1006 touch words 0x1000 and 0x1008.
        sh.access_range(
            0x1006,
            4,
            true,
            fid(1),
            1,
            ctx(0),
            &clk,
            no_conflict_expected,
        );
        assert_eq!(sh.word_accesses(0x1000).len(), 1);
        assert_eq!(sh.word_accesses(0x1008).len(), 1);
        assert_eq!(sh.word_accesses(0x1010).len(), 0);
    }

    #[test]
    fn crossing_page_boundary() {
        let mut sh = ShadowMemory::new();
        let clk = VectorClock::new();
        let addr = PAGE_BYTES - 16;
        sh.access_range(
            addr,
            32,
            true,
            fid(1),
            1,
            ctx(0),
            &clk,
            no_conflict_expected,
        );
        assert_eq!(sh.page_count(), 2);
        let mut hits = 0;
        sh.access_range(addr, 32, true, fid(2), 1, ctx(1), &clk, |c| hits += c.words);
        assert_eq!(hits, 4);
    }

    #[test]
    fn eviction_keeps_detecting_new_accessors() {
        let mut sh = ShadowMemory::new();
        let clk = VectorClock::new();
        // Five distinct reading fibers exhaust the 4 slots.
        for f in 1..=5 {
            sh.access_range(
                0x1000,
                8,
                false,
                fid(f),
                1,
                ctx(f as u32),
                &clk,
                no_conflict_expected,
            );
        }
        // A writer still conflicts with whatever remains recorded.
        let mut hits = 0;
        sh.access_range(0x1000, 8, true, fid(9), 1, ctx(9), &clk, |_| hits += 1);
        assert!(
            hits >= 3,
            "expected conflicts with surviving slots, got {hits}"
        );
    }

    #[test]
    fn eviction_is_word_local_and_deterministic() {
        // Two far-apart words see the same schedule; interleaving
        // evictions at other words must not change either outcome.
        let survivors = |interleave: bool| {
            let mut sh = ShadowMemory::new();
            let clk = VectorClock::new();
            for f in 1..=5 {
                sh.access_range(0x1000, 8, false, fid(f), 1, ctx(0), &clk, |_| {});
                if interleave {
                    // Unrelated word under eviction pressure — with a
                    // shared rotor this advanced the victim for 0x1000.
                    sh.access_range(0x8_0000, 8, false, fid(f + 20), 1, ctx(0), &clk, |_| {});
                }
            }
            let mut s: Vec<usize> = sh
                .word_accesses(0x1000)
                .iter()
                .map(|a| a.fiber.index())
                .collect();
            s.sort_unstable();
            s
        };
        assert_eq!(survivors(false), survivors(true));
    }

    #[test]
    fn same_fiber_read_after_write_keeps_write_entry() {
        let mut sh = ShadowMemory::new();
        let clk = VectorClock::new();
        sh.access_range(
            0x1000,
            8,
            true,
            fid(1),
            1,
            ctx(0),
            &clk,
            no_conflict_expected,
        );
        sh.access_range(
            0x1000,
            8,
            false,
            fid(1),
            2,
            ctx(0),
            &clk,
            no_conflict_expected,
        );
        let acc = sh.word_accesses(0x1000);
        assert_eq!(acc.len(), 1);
        assert!(acc[0].write, "write entry must survive the subsequent read");
    }

    #[test]
    fn zero_length_range_is_noop() {
        let mut sh = ShadowMemory::new();
        let clk = VectorClock::new();
        sh.access_range(
            0x1000,
            0,
            true,
            fid(1),
            1,
            ctx(0),
            &clk,
            no_conflict_expected,
        );
        assert_eq!(sh.page_count(), 0);
    }

    // ---- tier behavior -----------------------------------------------------

    #[test]
    fn whole_page_access_stores_a_summary() {
        let mut sh = ShadowMemory::new();
        let clk = VectorClock::new();
        sh.access_range(
            0,
            4 * PAGE_BYTES,
            true,
            fid(1),
            1,
            ctx(0),
            &clk,
            no_conflict_expected,
        );
        assert_eq!(sh.page_count(), 4);
        assert_eq!(sh.summary_page_count(), 4);
        assert_eq!(sh.counters().page_summaries_stored, 4);
        // Summaries are 4 KiB of coverage for a few words of heap.
        assert!(sh.heap_bytes() < 4 * PAGE_BYTES);
        // Detection still sees the access on every word.
        assert_eq!(sh.word_accesses(2 * PAGE_BYTES + 64).len(), 1);
    }

    #[test]
    fn summary_conflict_is_one_run_per_page() {
        let mut sh = ShadowMemory::new();
        let clk = VectorClock::new();
        sh.access_range(
            0,
            PAGE_BYTES,
            true,
            fid(1),
            1,
            ctx(0),
            &clk,
            no_conflict_expected,
        );
        let mut runs = Vec::new();
        sh.access_range(0, PAGE_BYTES, false, fid(2), 1, ctx(1), &clk, |c| {
            runs.push((c.word_addr, c.words, c.prev.fiber))
        });
        assert_eq!(runs, vec![(0, WORDS_PER_PAGE as u64, fid(1))]);
        // The page stays summarized: both epochs fit the summary slots.
        assert_eq!(sh.summary_page_count(), 1);
    }

    /// The once-per-extent claim as a count of work, not a timing: an
    /// access covering a summary extent calls `on_conflict` once per
    /// conflicting prior access for the whole extent, never once per page
    /// or per word.
    #[test]
    fn summary_extents_cost_one_callback_per_conflict() {
        const PAGES: u64 = 64;
        let len = PAGES * PAGE_BYTES;
        let clk = VectorClock::new();
        let written_by_fiber_1 = || {
            let mut sh = ShadowMemory::new();
            sh.access_range(0, len, true, fid(1), 1, ctx(0), &clk, no_conflict_expected);
            assert_eq!(sh.extents.len(), 1);
            sh
        };

        let mut sh = written_by_fiber_1();
        let mut runs = Vec::new();
        sh.access_range(0, len, true, fid(2), 1, ctx(1), &clk, |c| {
            runs.push((c.word_addr, c.words))
        });
        assert_eq!(
            runs,
            vec![(0, PAGES * WORDS_PER_PAGE as u64)],
            "one run for 64 racy pages"
        );

        // The steady state of an iteration loop: the second fiber is
        // ordered after the first, so 64 summary pages take one scan, one
        // store and no callback at all, and stay one extent (the counter
        // still counts pages).
        let mut sh = written_by_fiber_1();
        let mut ordered = VectorClock::new();
        ordered.set(fid(1), 1);
        let (f2, c1) = (fid(2), ctx(1));
        sh.access_range(0, len, true, f2, 1, c1, &ordered, no_conflict_expected);
        assert_eq!(sh.counters().page_summaries_stored, 2 * PAGES);
        assert_eq!(sh.summary_page_count(), PAGES as usize);
        assert_eq!(sh.extents.len(), 1);
    }

    /// The same claim for `scan_slots`: a range pays one scan per region
    /// of equal pages it meets — 1 for a uniform 4 MiB buffer, k for k
    /// regions — not one per page.
    #[test]
    fn a_range_pays_one_scan_per_region_of_equal_pages() {
        const PAGES: u64 = 1024;
        let unordered = VectorClock::new();
        for k in 1..=4u64 {
            // Fiber i + 1 writes the i-th of k regions of whole pages.
            let mut sh = ShadowMemory::new();
            for i in 0..k {
                let (lo, hi) = (i * PAGES / k, (i + 1) * PAGES / k);
                let f = fid(i as usize + 1);
                let len = (hi - lo) * PAGE_BYTES;
                sh.access_range(lo * PAGE_BYTES, len, true, f, 1, ctx(0), &unordered, |_| {});
            }
            assert_eq!(sh.extents.len() as u64, k);

            let (mut calls, mut covered) = (0u64, 0u64);
            reset_scans();
            let len = PAGES * PAGE_BYTES;
            sh.access_range(0, len, true, fid(9), 1, ctx(1), &unordered, |c| {
                calls += 1;
                covered += c.words;
            });
            assert_eq!(scans(), k, "k = {k}: one scan per region, not {PAGES}");
            assert_eq!(calls, k, "k = {k}: one run per racy region");
            assert_eq!(covered, PAGES * WORDS_PER_PAGE as u64);
            assert_eq!(sh.counters().page_summaries_stored, 2 * PAGES);
            assert_eq!(sh.counters().page_unfolds, 0);
        }
    }

    /// Extents are canonical: a sub-range write splits one, and a
    /// re-covering write that leaves every page equal merges it back.
    #[test]
    fn a_re_covering_write_merges_the_extents_a_sub_range_write_split() {
        const PAGES: u64 = 64;
        let clk = VectorClock::new();
        let mut sh = ShadowMemory::new();
        let (f1, f2, c0) = (fid(1), fid(2), ctx(0));
        sh.access_range(0, PAGES * PAGE_BYTES, true, f1, 1, c0, &clk, |_| {});
        assert_eq!(sh.extents.len(), 1);
        // Pages 10..20 gain fiber 2's write: three extents.
        let (lo, len) = (10 * PAGE_BYTES, 10 * PAGE_BYTES);
        sh.access_range(lo, len, true, f2, 1, c0, &clk, |_| {});
        assert_eq!(sh.extents.len(), 3);
        assert_eq!(sh.word_accesses(lo - 8).len(), 1);
        assert_eq!(sh.word_accesses(lo).len(), 2);
        // The same write over all 64 pages: the outer pages gain it, the
        // middle ones already hold it — every page equal, one extent.
        sh.access_range(0, PAGES * PAGE_BYTES, true, f2, 1, c0, &clk, |_| {});
        assert_eq!(sh.extents.len(), 1);
        assert_eq!(sh.page_count(), PAGES as usize);
        assert_eq!(sh.summary_page_count(), PAGES as usize);
        assert_eq!(sh.counters().page_summaries_stored, 2 * PAGES + 10);
    }

    #[test]
    fn partial_access_unfolds_summary() {
        let mut sh = ShadowMemory::new();
        let clk = VectorClock::new();
        sh.access_range(
            0,
            PAGE_BYTES,
            true,
            fid(1),
            1,
            ctx(0),
            &clk,
            no_conflict_expected,
        );
        assert_eq!(sh.summary_page_count(), 1);
        let mut hits = 0;
        sh.access_range(64, 128, true, fid(2), 1, ctx(1), &clk, |c| hits += c.words);
        assert_eq!(hits, 16, "conflicts on the 16 overlapped words");
        assert_eq!(sh.summary_page_count(), 0, "summary unfolded");
        assert_eq!(sh.counters().page_unfolds, 1);
        // Words outside the partial overlap kept the summarized epoch.
        assert_eq!(sh.word_accesses(PAGE_BYTES - 8).len(), 1);
        assert_eq!(sh.word_accesses(64).len(), 2);
    }

    #[test]
    fn reissued_read_after_interleaved_writer_conflicts_again() {
        let mut sh = ShadowMemory::new();
        let clk = VectorClock::new();
        sh.access_range(0, PAGE_BYTES, false, fid(1), 1, ctx(0), &clk, |_| {});
        let mut hits = 0;
        sh.access_range(0, PAGE_BYTES, true, fid(2), 1, ctx(1), &clk, |c| {
            hits += c.words
        });
        assert_eq!(hits, WORDS_PER_PAGE as u64);
        // Fiber 1 re-issues its identical read — the previous access was
        // fiber 2's write, so this must walk and conflict again.
        hits = 0;
        sh.access_range(0, PAGE_BYTES, false, fid(1), 1, ctx(0), &clk, |c| {
            hits += c.words
        });
        assert_eq!(hits, WORDS_PER_PAGE as u64);
    }

    #[test]
    fn summary_eviction_pressure_unfolds_and_keeps_detecting() {
        let mut sh = ShadowMemory::new();
        let clk = VectorClock::new();
        // Four distinct reader fibers fill the summary slots.
        for f in 1..=4 {
            sh.access_range(
                0,
                PAGE_BYTES,
                false,
                fid(f),
                1,
                ctx(f as u32),
                &clk,
                no_conflict_expected,
            );
        }
        assert_eq!(sh.summary_page_count(), 1);
        // A fifth reader forces eviction — which is word-local, so the
        // summary must unfold rather than evict uniformly.
        sh.access_range(
            0,
            PAGE_BYTES,
            false,
            fid(5),
            1,
            ctx(5),
            &clk,
            no_conflict_expected,
        );
        assert_eq!(sh.summary_page_count(), 0);
        assert_eq!(sh.counters().page_unfolds, 1);
        let mut hits = 0;
        sh.access_range(0, PAGE_BYTES, true, fid(9), 1, ctx(9), &clk, |c| {
            hits += c.words
        });
        assert!(hits >= 3 * WORDS_PER_PAGE as u64, "still detecting");
    }

    // ---- run-valued walk ---------------------------------------------------

    fn reset_scans() {
        SCANS.with(|n| n.set(0));
    }

    fn scans() -> u64 {
        SCANS.with(|n| n.get())
    }

    /// The run-valued claim as a count of work, not a timing: a whole-page
    /// access over an *unfolded* page scans and calls back once per
    /// distinct word state, never once per word.
    #[test]
    fn unfolded_pages_cost_one_scan_per_distinct_state() {
        let words = WORDS_PER_PAGE as u64;
        let unordered = VectorClock::new();
        for k in 1..=3u64 {
            // An 8-byte first touch unfolds the page; then fiber i + 1
            // writes the i-th of k regions (the whole page when k = 1,
            // which stays unfolded).
            let regions_written = || {
                let mut sh = ShadowMemory::new();
                sh.access_range(0, 8, true, fid(1), 1, ctx(0), &unordered, |_| {});
                for i in 0..k {
                    let (lo, hi) = (i * words / k, (i + 1) * words / k);
                    let f = fid(i as usize + 1);
                    let len = (hi - lo) * WORD_BYTES;
                    sh.access_range(lo * WORD_BYTES, len, true, f, 1, ctx(0), &unordered, |_| {});
                }
                assert_eq!(sh.summary_page_count(), 0, "k = {k}: page is unfolded");
                sh
            };

            let mut sh = regions_written();
            let (mut calls, mut covered) = (0u64, 0u64);
            reset_scans();
            sh.access_range(0, PAGE_BYTES, true, fid(9), 1, ctx(1), &unordered, |c| {
                calls += 1;
                covered += c.words;
            });
            assert_eq!(scans(), k, "k = {k}: one scan per region, not {words}");
            assert_eq!(calls, k, "k = {k}: one run per racy region");
            assert_eq!(covered, words);

            // The steady state of an iteration loop: the covering fiber is
            // ordered after every region's writer — k scans, no callback.
            let mut sh = regions_written();
            let mut ordered = VectorClock::new();
            for f in 1..=k as usize {
                ordered.set(fid(f), 1);
            }
            let (f9, c1) = (fid(9), ctx(1));
            reset_scans();
            sh.access_range(
                0,
                PAGE_BYTES,
                true,
                f9,
                1,
                c1,
                &ordered,
                no_conflict_expected,
            );
            assert_eq!(scans(), k);
            assert_eq!(
                sh.word_accesses(PAGE_BYTES - 8).len(),
                2,
                "stored on every word"
            );
        }
    }

    /// The same count for the chunks the guard `word == page_first_word`
    /// admits beyond whole pages — a range's ragged *last* page — and for
    /// the one it leaves out, a range's first.
    #[test]
    fn a_range_pays_per_state_where_it_ends_and_per_word_where_it_starts() {
        let unordered = VectorClock::new();
        // Page 1 cut into two regions by two partial writes: fiber 1 holds
        // words [0, 200), fiber 2 words [200, 512).
        let cut_page = || {
            let mut sh = ShadowMemory::new();
            let (lo, hi) = (200 * WORD_BYTES, 312 * WORD_BYTES);
            sh.access_range(PAGE_BYTES, lo, true, fid(1), 1, ctx(0), &unordered, |_| {});
            sh.access_range(
                PAGE_BYTES + lo,
                hi,
                true,
                fid(2),
                1,
                ctx(0),
                &unordered,
                |_| {},
            );
            assert_eq!(sh.summary_page_count(), 0, "page 1 is unfolded");
            sh
        };

        // All of page 0 and the first 300 words of page 1: the last chunk
        // starts on its page's first word and crosses both regions.
        let mut sh = cut_page();
        let (mut calls, mut covered) = (0u64, 0u64);
        reset_scans();
        let len = PAGE_BYTES + 300 * WORD_BYTES;
        sh.access_range(0, len, true, fid(9), 1, ctx(1), &unordered, |c| {
            assert!(c.word_addr >= PAGE_BYTES, "page 0 was never touched");
            calls += 1;
            covered += c.words;
        });
        assert_eq!(scans(), 2, "one scan per region crossed, not 300");
        assert_eq!((calls, covered), (2, 300));
        assert_eq!(sh.word_accesses(PAGE_BYTES + 299 * WORD_BYTES).len(), 2);
        assert_eq!(sh.word_accesses(PAGE_BYTES + 300 * WORD_BYTES).len(), 1);

        // The same 300 words of the same page entered at word 100: a
        // range's first chunk is the arm that is left, and pays per word.
        // Routing it too (ROADMAP item 1) has to move this assertion.
        let mut sh = cut_page();
        let (mut calls, mut covered) = (0u64, 0u64);
        reset_scans();
        let (addr, len) = (PAGE_BYTES + 100 * WORD_BYTES, 300 * WORD_BYTES);
        sh.access_range(addr, len, true, fid(9), 1, ctx(1), &unordered, |c| {
            calls += 1;
            covered += c.words;
        });
        assert_eq!(scans(), 300, "the first chunk is still walked word by word");
        assert_eq!((calls, covered), (300, 300));
    }

    /// (fiber, clock, ctx, write); clock 0 is an empty slot.
    type Slot = (usize, u32, u32, bool);
    /// Words in the segment, and the four slots each of them holds.
    type Segment = (usize, (Slot, Slot, Slot, Slot));

    fn slot_raw((fiber, clock, c, write): Slot) -> u64 {
        if clock == 0 {
            return 0;
        }
        pack(ShadowAccess {
            fiber: fid(fiber),
            clock,
            ctx: ctx(c),
            write,
        })
    }

    /// A page block laid out as the segments, repeated until it is full.
    fn block_of(segments: &[Segment]) -> Vec<u64> {
        let mut block = Vec::with_capacity(SLOTS_PER_PAGE);
        for &(words, (a, b, c, d)) in segments.iter().cycle() {
            for _ in 0..words.min(WORDS_PER_PAGE - block.len() / SLOTS_PER_WORD) {
                block.extend([a, b, c, d].map(slot_raw));
            }
            if block.len() == SLOTS_PER_PAGE {
                return block;
            }
        }
        unreachable!("segments is never empty")
    }

    /// The incoming access of the equivalence property: (fiber, clock,
    /// ctx, write) and what its vector clock knows of fibers 0..8.
    type Incoming = (Slot, Vec<u32>);

    /// Run both walks over words `[lo, hi]` of a copy of `block` and
    /// demand the same slots, the same conflicts word for word, and each
    /// prior access first met at the same word in the same order (what
    /// the runtime's report order and `addr` are made of).
    fn assert_walks_agree(block: &[u64], page: u64, lo: u64, hi: u64, incoming: &Incoming) {
        let ((fiber, clock, c, write), known) = incoming;
        let fiber = fid(*fiber);
        let new_raw = pack(ShadowAccess {
            fiber,
            clock: *clock,
            ctx: ctx(*c),
            write: *write,
        });
        let mut clk = VectorClock::new();
        for (f, &v) in known.iter().enumerate() {
            clk.set(fid(f), v);
        }
        let first_word = page * WORDS_PER_PAGE as u64;
        let walk = |runs: bool| {
            let mut slots = block.to_vec();
            let page_slots: &mut [u64; SLOTS_PER_PAGE] =
                (&mut slots[..]).try_into().expect("block size");
            let mut emitted = Vec::new();
            let (w, e) = (first_word + lo, first_word + hi);
            if runs {
                walk_runs(page_slots, w, e, new_raw, fiber, *write, &clk, &mut |c| {
                    emitted.push(c)
                });
            } else {
                walk_per_word(page_slots, w, e, new_raw, fiber, *write, &clk, &mut |c| {
                    emitted.push(c)
                });
            }
            (slots, emitted)
        };
        let (run_slots, run_emitted) = walk(true);
        let (word_slots, word_emitted) = walk(false);
        assert!(run_slots == word_slots, "slots diverged");

        let expand = |emitted: &[RawConflict]| {
            let mut per_word: Vec<(u64, u64)> = emitted
                .iter()
                .flat_map(|c| (0..c.words).map(|i| (c.word_addr + i * WORD_BYTES, pack(c.prev))))
                .collect();
            per_word.sort_unstable();
            per_word
        };
        assert_eq!(expand(&run_emitted), expand(&word_emitted));

        let first_seen = |emitted: &[RawConflict]| {
            let mut seen: Vec<(u64, u64)> = Vec::new();
            for c in emitted {
                if !seen.iter().any(|&(prev, _)| prev == pack(c.prev)) {
                    seen.push((pack(c.prev), c.word_addr));
                }
            }
            seen
        };
        assert_eq!(first_seen(&run_emitted), first_seen(&word_emitted));
    }

    fn slot_strategy(clocks: std::ops::Range<u32>) -> impl Strategy<Value = Slot> {
        (0usize..7, clocks, 0u32..3, any::<bool>())
    }

    fn segments_strategy(clocks: std::ops::Range<u32>) -> impl Strategy<Value = Vec<Segment>> {
        let slot = || slot_strategy(clocks.clone());
        proptest::collection::vec((1usize..160, (slot(), slot(), slot(), slot())), 1..24)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// `walk_runs` ≡ `walk_words` on arbitrary block contents (empty
        /// slots, repeated fibers, runs from one word to the whole page)
        /// and an arbitrary `[lo, hi]`.
        #[test]
        fn walk_runs_equals_the_per_word_walk(
            segments in segments_strategy(0..4),
            page in 0u64..5,
            lo in 0u64..512,
            span in 0u64..512,
            incoming in (slot_strategy(1..4), proptest::collection::vec(0u32..4, 8)),
        ) {
            let hi = (lo + span).min(WORDS_PER_PAGE as u64 - 1);
            assert_walks_agree(&block_of(&segments), page, lo, hi, &incoming);
        }

        /// Every word holds four live epochs of fibers 0..7 and fiber 7
        /// arrives: each run decides `Evict`, whose victim differs from
        /// word to word inside the run.
        #[test]
        fn walk_runs_equals_the_per_word_walk_under_eviction(
            segments in segments_strategy(1..4),
            page in 0u64..5,
            lo in 0u64..512,
            span in 0u64..512,
            incoming in ((7usize..8, 1u32..4, 0u32..3, any::<bool>()),
                         proptest::collection::vec(0u32..4, 8)),
        ) {
            let hi = (lo + span).min(WORDS_PER_PAGE as u64 - 1);
            assert_walks_agree(&block_of(&segments), page, lo, hi, &incoming);
        }
    }

    // ---- arena -------------------------------------------------------------

    /// There is no page budget: every page a range touches is kept —
    /// the covered ones as one summary extent, the ragged ends unfolded.
    #[test]
    fn no_budget_means_no_drops() {
        let mut sh = ShadowMemory::new();
        let clk = VectorClock::new();
        let (f1, c0) = (fid(1), ctx(0));
        sh.access_range(
            0,
            64 * PAGE_BYTES,
            true,
            f1,
            1,
            c0,
            &clk,
            no_conflict_expected,
        );
        let ragged = (64 * PAGE_BYTES + 8, 1000 * PAGE_BYTES);
        sh.access_range(
            ragged.0,
            ragged.1,
            true,
            f1,
            1,
            c0,
            &clk,
            no_conflict_expected,
        );
        assert_eq!(sh.page_count(), 1065);
        assert_eq!(sh.summary_page_count(), 1063);
        assert_eq!(sh.counters().page_summaries_stored, 64 + 999);
    }

    /// One 8-byte access per page: partial first touches, so every page
    /// gets its own unfolded arena block.
    fn touch_pages_partially(sh: &mut ShadowMemory, pages: u64) {
        let clk = VectorClock::new();
        for p in 0..pages {
            sh.access_range(
                p * PAGE_BYTES,
                8,
                true,
                fid(1),
                1,
                ctx(0),
                &clk,
                no_conflict_expected,
            );
        }
    }

    #[test]
    fn arena_slabs_grow_geometrically() {
        let mut sh = ShadowMemory::new();
        // 28 unfolded pages = 4 + 8 + 16 block capacity → exactly 3 slabs.
        touch_pages_partially(&mut sh, 28);
        let c = sh.counters();
        assert_eq!(c.arena_slabs_allocated, 3);
        assert_eq!(sh.summary_page_count(), 0);
        // Slab bytes dominate: (4+8+16) pages * 16 KiB of slots each.
        assert!(sh.heap_bytes() >= 28 * (SLOTS_PER_PAGE as u64) * 8);
    }

    // ---- snapshot hardening ------------------------------------------------

    fn snapshot(sh: &ShadowMemory) -> Vec<u8> {
        let mut buf = Vec::new();
        sh.write_snapshot(&mut buf);
        buf
    }

    fn restore(bytes: &[u8]) -> ShadowMemory {
        let mut s = Scanner::new(bytes);
        let sh = ShadowMemory::read_snapshot(&mut s, 3).expect("restores");
        s.expect_end().expect("nothing trails");
        sh
    }

    /// A snapshot is one record per page: one 64-page access and 64
    /// one-page accesses write the same bytes, and so does the same
    /// content cut into one extent per page — a shape the canonical form
    /// never leaves behind. Restoring coalesces it into one extent.
    #[test]
    fn snapshot_bytes_do_not_depend_on_extent_shape() {
        const PAGES: u64 = 64;
        let clk = VectorClock::new();
        let (f1, c0) = (fid(1), ctx(0));
        let mut whole = ShadowMemory::new();
        whole.access_range(0, PAGES * PAGE_BYTES, true, f1, 1, c0, &clk, |_| {});
        let mut paged = ShadowMemory::new();
        for p in 0..PAGES {
            paged.access_range(p * PAGE_BYTES, PAGE_BYTES, true, f1, 1, c0, &clk, |_| {});
        }
        let bytes = snapshot(&whole);
        assert_eq!(snapshot(&paged), bytes);

        let Some(&Extent::Summary { slots, .. }) = whole.extents.get(&0) else {
            panic!("one summary extent");
        };
        let mut split = restore(&bytes);
        split.extents = (0..PAGES)
            .map(|p| (p, Extent::Summary { pages: 1, slots }))
            .collect();
        assert_eq!(snapshot(&split), bytes);

        let restored = restore(&snapshot(&split));
        assert_eq!(restored.extents.len(), 1, "a uniform shadow is one extent");
        assert_eq!(restored.page_count(), PAGES as usize);
        assert_eq!(snapshot(&restored), bytes);
    }

    /// Restore → snapshot is byte-identical, and the restored table is the
    /// snapshotted one, on a shadow of every extent kind: split and merged
    /// summaries and unfolded pages.
    #[test]
    fn restore_then_snapshot_is_byte_identical() {
        let clk = VectorClock::new();
        let mut sh = ShadowMemory::new();
        let (f1, f2, c0) = (fid(1), fid(2), ctx(0));
        let p = PAGE_BYTES;
        sh.access_range(0, 64 * p, true, f1, 1, c0, &clk, |_| {});
        sh.access_range(20 * p, 10 * p, false, f2, 1, c0, &clk, |_| {});
        sh.access_range(5 * p + 24, 100, true, f2, 1, c0, &clk, |_| {});
        sh.access_range(29 * p - 8, 2 * p, true, f2, 1, c0, &clk, |_| {});
        sh.access_range(70 * p + 8, 8, true, f1, 1, c0, &clk, |_| {});
        assert!(sh.extents.len() > 5);

        let bytes = snapshot(&sh);
        let restored = restore(&bytes);
        assert_eq!(restored.extents, sh.extents);
        assert_eq!(restored.page_count(), sh.page_count());
        assert_eq!(restored.counters(), sh.counters());
        assert_eq!(restored.heap_bytes(), sh.heap_bytes());
        assert_eq!(snapshot(&restored), bytes);
    }

    /// The shadow sections that precede the pages: zeroed tier counters.
    fn shadow_snapshot_prefix() -> Vec<u8> {
        vec![0; 2]
    }

    fn corrupt_message(buf: Vec<u8>) -> String {
        match ShadowMemory::read_snapshot(&mut Scanner::new(&buf), 1) {
            Err(DecodeError::Corrupt { what, .. }) => what,
            Err(e) => panic!("expected Corrupt, got {e:?}"),
            Ok(_) => panic!("expected Corrupt, got a shadow"),
        }
    }

    #[test]
    fn restore_rejects_slabs_the_blob_cannot_back() {
        // 3840 unfolded pages would grow 16 full slabs, 60 MiB of zeroed
        // slots, but their records cannot fit in the bytes that follow
        // (≥ 3 each): the count is refused before any block is carved.
        let mut buf = shadow_snapshot_prefix();
        put_varint(&mut buf, 3840);
        for page in 0..10 {
            buf.extend_from_slice(&[u8::from(page > 0), 2, 0]);
        }
        assert!(buf.len() < 40);
        let got = ShadowMemory::read_snapshot(&mut Scanner::new(&buf), 1).err();
        assert_eq!(got, Some(DecodeError::CountTooLarge { at: 2, count: 3840 }));
    }

    #[test]
    fn restore_rejects_the_retired_boxed_page_tag() {
        let mut buf = shadow_snapshot_prefix();
        put_varint(&mut buf, 1);
        put_varint(&mut buf, 0); // page key
        buf.push(1); // layout v1's boxed page
        buf.extend_from_slice(&[0; 4]); // room for a minimal page
        assert_eq!(corrupt_message(buf), "page state tag 1");
    }

    #[test]
    fn restore_refuses_a_slot_of_no_fiber() {
        let mut sh = ShadowMemory::new();
        let clk = VectorClock::new();
        for addr in [0x1000, 0x3000] {
            sh.access_range(addr, 8, true, fid(1), 1, ctx(0), &clk, no_conflict_expected);
        }
        let mut buf = Vec::new();
        sh.write_snapshot(&mut buf);
        let mut s = Scanner::new(&buf);
        ShadowMemory::read_snapshot(&mut s, 2).unwrap();
        s.expect_end().unwrap();
        // Fiber 1 wrote the slots; a one-fiber table cannot name it.
        assert!(corrupt_message(buf).contains("names a fiber past the table"));
    }
}
