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
    /// Races reported (after dedup).
    pub races_reported: u64,
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
}
