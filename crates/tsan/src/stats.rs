//! Event counters and memory accounting.
//!
//! These counters back the reproduction of the paper's Table I (TSan rows:
//! fiber switches, happens-before/after annotations, read/write range
//! counts and tracked byte volumes) and contribute the tool share of the
//! Fig. 11 memory-overhead reproduction.

/// Counters maintained by a [`crate::TsanRuntime`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TsanStats {
    /// `switch_to_fiber` calls (Table I: "Switch To Fiber").
    pub fiber_switches: u64,
    /// Fibers created (host fiber included).
    pub fibers_created: u64,
    /// Fibers destroyed.
    pub fibers_destroyed: u64,
    /// `annotate_happens_before` calls (Table I).
    pub happens_before: u64,
    /// `annotate_happens_after` calls (Table I).
    pub happens_after: u64,
    /// `read_range` calls (Table I: "Memory Read Range").
    pub read_range_calls: u64,
    /// `write_range` calls (Table I: "Memory Write Range").
    pub write_range_calls: u64,
    /// Total bytes covered by `read_range` calls.
    pub read_bytes: u64,
    /// Total bytes covered by `write_range` calls.
    pub write_bytes: u64,
    /// Races reported (after dedup, before suppression).
    pub races_reported: u64,
    /// Races suppressed by the suppression list.
    pub races_suppressed: u64,
    /// Conflicts dropped because an identical (ctx, ctx) pair was already
    /// reported.
    pub races_deduped: u64,
    /// Never written (the same-state cache is gone); stays only because
    /// the frozen `benchmark/src/probes.rs` names it (ROADMAP item 0(d)).
    pub fastpath_hits: u64,
    /// Whole-page accesses recorded at the page-summary tier (one packed
    /// store instead of a 512-word walk).
    pub page_summaries_stored: u64,
    /// Page summaries expanded into flat word slots by a partial overlap
    /// or eviction pressure.
    pub page_unfolds: u64,
    /// Never written (every clock op is a full join); stays only because
    /// the frozen `benchmark/src/probes.rs` names it (ROADMAP item 0(d)).
    pub epoch_fast_acquires: u64,
    /// Never written; as [`Self::epoch_fast_acquires`].
    pub epoch_fast_releases: u64,
    /// O(fibers) vector-clock joins performed: every release onto an
    /// existing sync variable, every acquire that finds one, every sync
    /// switch between distinct fibers.
    pub full_clock_joins: u64,
    /// Never written (shadow pages are never given back, so no arena
    /// block is reused); stays only because the frozen
    /// `benchmark/src/probes.rs` names it (ROADMAP item 0(d)).
    pub arena_pages_reused: u64,
    /// Arena slabs allocated (geometric growth: 4 pages doubling to the
    /// cap, so this stays logarithmic in the unfolded page count).
    pub arena_slabs_allocated: u64,
}

impl TsanStats {
    /// Average bytes per `read_range` call in KiB (Table I: "Memory Read
    /// Size [avg KB]").
    pub fn avg_read_kb(&self) -> f64 {
        if self.read_range_calls == 0 {
            0.0
        } else {
            self.read_bytes as f64 / self.read_range_calls as f64 / 1024.0
        }
    }

    /// Average bytes per `write_range` call in KiB.
    pub fn avg_write_kb(&self) -> f64 {
        if self.write_range_calls == 0 {
            0.0
        } else {
            self.write_bytes as f64 / self.write_range_calls as f64 / 1024.0
        }
    }

    /// Elementwise sum (for aggregating over ranks).
    pub fn merged(&self, other: &TsanStats) -> TsanStats {
        TsanStats {
            fiber_switches: self.fiber_switches + other.fiber_switches,
            fibers_created: self.fibers_created + other.fibers_created,
            fibers_destroyed: self.fibers_destroyed + other.fibers_destroyed,
            happens_before: self.happens_before + other.happens_before,
            happens_after: self.happens_after + other.happens_after,
            read_range_calls: self.read_range_calls + other.read_range_calls,
            write_range_calls: self.write_range_calls + other.write_range_calls,
            read_bytes: self.read_bytes + other.read_bytes,
            write_bytes: self.write_bytes + other.write_bytes,
            races_reported: self.races_reported + other.races_reported,
            races_suppressed: self.races_suppressed + other.races_suppressed,
            races_deduped: self.races_deduped + other.races_deduped,
            fastpath_hits: self.fastpath_hits + other.fastpath_hits,
            page_summaries_stored: self.page_summaries_stored + other.page_summaries_stored,
            page_unfolds: self.page_unfolds + other.page_unfolds,
            epoch_fast_acquires: self.epoch_fast_acquires + other.epoch_fast_acquires,
            epoch_fast_releases: self.epoch_fast_releases + other.epoch_fast_releases,
            full_clock_joins: self.full_clock_joins + other.full_clock_joins,
            arena_pages_reused: self.arena_pages_reused + other.arena_pages_reused,
            arena_slabs_allocated: self.arena_slabs_allocated + other.arena_slabs_allocated,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn avg_kb_handles_zero_calls() {
        let s = TsanStats::default();
        assert_eq!(s.avg_read_kb(), 0.0);
        assert_eq!(s.avg_write_kb(), 0.0);
    }

    #[test]
    fn avg_kb_computes_mean() {
        let s = TsanStats {
            read_range_calls: 2,
            read_bytes: 4096,
            write_range_calls: 4,
            write_bytes: 8192,
            ..TsanStats::default()
        };
        assert_eq!(s.avg_read_kb(), 2.0);
        assert_eq!(s.avg_write_kb(), 2.0);
    }

    #[test]
    fn merged_sums_fields() {
        let a = TsanStats {
            happens_before: 3,
            read_bytes: 10,
            ..TsanStats::default()
        };
        let b = TsanStats {
            happens_before: 4,
            read_bytes: 5,
            ..TsanStats::default()
        };
        let m = a.merged(&b);
        assert_eq!(m.happens_before, 7);
        assert_eq!(m.read_bytes, 15);
    }
}
