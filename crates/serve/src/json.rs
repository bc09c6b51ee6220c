//! Hand-rolled JSON for session summaries (the workspace is offline, so
//! no serde). This is the product's only JSON writer: the wire format of
//! an `S` reply and of `cusan-serve check`'s output.
//!
//! The `"counters"` object keeps its historical keys: nine of them
//! (fiber creates, destroys and switches, happens-before/after, the
//! range calls and bytes) are the detector's counts, printed from the
//! summary's `stats`; the rest are the session's marker counts and the
//! named CUDA rows.
//!
//! Serialization is deterministic: field order is fixed, reports keep
//! detection order, and the named counter map is a `BTreeMap`. Two equal
//! [`SessionSummary`] values therefore always produce byte-identical
//! JSON — the determinism and chaos tests compare served and solo
//! summaries at the JSON level for exactly this reason.

use cusan::SessionSummary;
use std::fmt::Write as _;

/// Escape a string for a JSON string literal.
fn esc(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// One summary as a single-line JSON object, tagged with the
/// client-chosen session id.
pub fn summary_to_json(session: u64, s: &SessionSummary) -> String {
    let mut j = String::with_capacity(512);
    let _ = write!(
        j,
        "{{\"session\": {session}, \"rank\": {}, \"race_count\": {}, \"reports\": [",
        s.rank, s.race_count
    );
    for (i, r) in s.reports.iter().enumerate() {
        if i > 0 {
            j.push_str(", ");
        }
        let _ = write!(
            j,
            "{{\"addr\": \"{:#x}\", \
             \"current\": {{\"write\": {}, \"fiber\": \"{}\", \"ctx\": \"{}\"}}, \
             \"previous\": {{\"write\": {}, \"fiber\": \"{}\", \"ctx\": \"{}\"}}}}",
            r.addr,
            r.current.write,
            esc(&r.current.fiber),
            esc(&r.current.ctx),
            r.previous.write,
            esc(&r.previous.fiber),
            esc(&r.previous.ctx),
        );
    }
    let t = &s.stats;
    let _ = write!(
        j,
        "], \"stats\": {{\
         \"fiber_switches\": {}, \"happens_before\": {}, \"happens_after\": {}, \
         \"read_range_calls\": {}, \"write_range_calls\": {}, \
         \"read_bytes\": {}, \"write_bytes\": {}, \
         \"races_reported\": {}, \"races_deduped\": {}, \
         \"fastpath_hits\": {}, \"page_summaries_stored\": {}, \"page_unfolds\": {}, \
         \"arena_pages_reused\": {}, \"arena_slabs_allocated\": {}}}",
        t.fiber_switches,
        t.happens_before,
        t.happens_after,
        t.read_range_calls,
        t.write_range_calls,
        t.read_bytes,
        t.write_bytes,
        t.races_reported,
        t.races_deduped,
        t.fastpath_hits,
        t.page_summaries_stored,
        t.page_unfolds,
        t.arena_pages_reused,
        t.arena_slabs_allocated,
    );
    // `fiber_creates` counts events; the host fiber is created with the
    // runtime, never by one.
    let c = &s.counters;
    let _ = write!(
        j,
        ", \"counters\": {{\
         \"fiber_creates\": {}, \"fiber_destroys\": {}, \"fiber_switches\": {}, \
         \"sync_switches\": {}, \"happens_before\": {}, \"happens_after\": {}, \
         \"read_range_calls\": {}, \"write_range_calls\": {}, \
         \"read_bytes\": {}, \"write_bytes\": {}, \
         \"allocs\": {}, \"frees\": {}, \
         \"requests_begun\": {}, \"requests_completed\": {}, \"api_faults\": {}, \
         \"named\": {{",
        t.fibers_created.saturating_sub(1),
        t.fibers_destroyed,
        t.fiber_switches,
        c.sync_switches,
        t.happens_before,
        t.happens_after,
        t.read_range_calls,
        t.write_range_calls,
        t.read_bytes,
        t.write_bytes,
        c.allocs,
        c.frees,
        c.requests_begun,
        c.requests_completed,
        c.api_faults,
    );
    for (i, (name, v)) in c.named.iter().enumerate() {
        if i > 0 {
            j.push_str(", ");
        }
        let _ = write!(j, "\"{}\": {v}", esc(name));
    }
    j.push_str("}}}");
    j
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escapes_specials() {
        assert_eq!(esc("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(esc("\u{1}"), "\\u0001");
    }

    #[test]
    fn equal_summaries_serialize_identically() {
        let s = crate::solo_summary(
            "cusan-trace v2 rank 1 tiered 1 budget none\n\
             s 0 f\nfc 1 0\nfy 1\nwr 1000 64 0\nfs 0\nfd 1\n",
        )
        .unwrap();
        let a = summary_to_json(7, &s);
        let b = summary_to_json(7, &s.clone());
        assert_eq!(a, b);
        assert!(a.starts_with("{\"session\": 7, \"rank\": 1, "), "{a}");
        // Sanity: it is one line and structurally balanced.
        assert!(!a.contains('\n'));
        assert_eq!(
            a.matches('{').count(),
            a.matches('}').count(),
            "balanced: {a}"
        );
    }
}
