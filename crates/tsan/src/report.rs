//! Race reports, access contexts, and suppressions.
//!
//! Real TSan attaches stack traces to accesses; we attach *access context*
//! labels interned at annotation time (e.g. `"kernel jacobi_step arg#0
//! [write]"` or `"MPI_Isend buffer [read]"`). Reports pair the current
//! access context with the recorded previous one — exactly the information
//! a user needs to locate both sides of the race.

use crate::snapshot::{SnapshotError, SnapshotReader, SnapshotWriter};
use std::collections::HashMap;
use std::fmt;

/// Interned id of an access-context label (bounded to 20 bits by the
/// shadow-slot packing).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct CtxId(pub u32);

impl CtxId {
    /// Context used when no label was supplied.
    pub const UNKNOWN: CtxId = CtxId(0);
}

/// Maximum number of interned access contexts (`<unknown>` included);
/// bounded by the 20-bit ctx field in the packed shadow epoch (see
/// [`crate::shadow`]).
pub const MAX_CTXS: usize = 1 << 20;

/// Intern table for access-context labels.
#[derive(Debug)]
pub(crate) struct CtxTable {
    labels: Vec<String>,
    by_label: HashMap<String, CtxId>,
}

impl CtxTable {
    pub fn new() -> Self {
        let mut t = CtxTable {
            labels: Vec::new(),
            by_label: HashMap::new(),
        };
        let unknown = t.intern("<unknown>");
        debug_assert_eq!(unknown, CtxId::UNKNOWN);
        t
    }

    /// The id of `label`, interning it if there is room; `None` once all
    /// [`MAX_CTXS`] ids are taken by other labels.
    pub fn try_intern(&mut self, label: &str) -> Option<CtxId> {
        if let Some(&id) = self.by_label.get(label) {
            return Some(id);
        }
        if self.labels.len() >= MAX_CTXS {
            return None;
        }
        let id = CtxId(self.labels.len() as u32);
        self.labels.push(label.to_string());
        self.by_label.insert(label.to_string(), id);
        Some(id)
    }

    pub fn intern(&mut self, label: &str) -> CtxId {
        self.try_intern(label).expect("context table exhausted")
    }

    pub fn label(&self, id: CtxId) -> &str {
        self.labels
            .get(id.0 as usize)
            .map(String::as_str)
            .unwrap_or("<invalid>")
    }

    pub fn heap_bytes(&self) -> u64 {
        self.labels.iter().map(|l| l.capacity() as u64 + 24).sum()
    }

    /// Serialize the label table in id order (ids are dense, so order is
    /// identity).
    pub fn write_snapshot(&self, w: &mut SnapshotWriter) {
        w.put_len(self.labels.len());
        for l in &self.labels {
            w.put_str(l);
        }
    }

    /// Rebuild from [`Self::write_snapshot`] output.
    pub fn read_snapshot(r: &mut SnapshotReader<'_>) -> Result<Self, SnapshotError> {
        let n = r.get_len()?;
        if n == 0 {
            return Err(SnapshotError::Corrupt("empty context table".into()));
        }
        let mut t = CtxTable {
            labels: Vec::with_capacity(n),
            by_label: HashMap::with_capacity(n),
        };
        for i in 0..n {
            let label = r.get_str()?;
            if t.by_label.contains_key(&label) {
                return Err(SnapshotError::Corrupt(format!(
                    "duplicate context label {label:?}"
                )));
            }
            t.by_label.insert(label.clone(), CtxId(i as u32));
            t.labels.push(label);
        }
        if t.labels[0] != "<unknown>" {
            return Err(SnapshotError::Corrupt(
                "context id 0 is not <unknown>".into(),
            ));
        }
        Ok(t)
    }
}

/// One side of a reported race.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RaceSide {
    /// Whether this side was a write.
    pub write: bool,
    /// Name of the fiber that performed the access (e.g. `"cuda stream 0"`,
    /// `"mpi req#3 (Isend)"`, `"host"`).
    pub fiber: String,
    /// Access-context label.
    pub ctx: String,
}

impl fmt::Display for RaceSide {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} by {} at {}",
            if self.write { "write" } else { "read" },
            self.fiber,
            self.ctx
        )
    }
}

/// A detected data race (the analogue of a TSan report).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RaceReport {
    /// Word-aligned address where the conflict was detected.
    pub addr: u64,
    /// The access that triggered detection.
    pub current: RaceSide,
    /// The previously recorded conflicting access.
    pub previous: RaceSide,
}

impl fmt::Display for RaceReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "WARNING: data race at {:#x}", self.addr)?;
        writeln!(f, "  current:  {}", self.current)?;
        write!(f, "  previous: {}", self.previous)
    }
}

/// Suppression list: substring patterns matched against either side's
/// context or fiber label (paper artifact description: suppression lists
/// avoid false positives from uninstrumented libraries).
#[derive(Debug, Default, Clone)]
pub struct Suppressions {
    patterns: Vec<String>,
}

impl Suppressions {
    /// Add a substring pattern.
    pub fn add(&mut self, pattern: &str) {
        self.patterns.push(pattern.to_string());
    }

    /// Parse a TSan-style suppression file: one `race:<pattern>` entry per
    /// line, `#` comments and blank lines ignored. Suppression types other
    /// than `race:` (e.g. `thread:`, `mutex:`) are accepted but skipped,
    /// since only race reports exist here. Malformed lines are errors.
    pub fn parse(text: &str) -> Result<Suppressions, String> {
        let mut out = Suppressions::default();
        for (lineno, raw) in text.lines().enumerate() {
            let line = raw.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let Some((kind, pattern)) = line.split_once(':') else {
                return Err(format!(
                    "suppression line {}: expected `type:pattern`, got {line:?}",
                    lineno + 1
                ));
            };
            if pattern.is_empty() {
                return Err(format!("suppression line {}: empty pattern", lineno + 1));
            }
            if kind == "race" {
                out.add(pattern);
            }
        }
        Ok(out)
    }

    /// Merge another suppression set into this one.
    pub fn extend(&mut self, other: Suppressions) {
        self.patterns.extend(other.patterns);
    }

    /// True if the report matches any pattern.
    pub fn matches(&self, report: &RaceReport) -> bool {
        self.patterns.iter().any(|p| {
            report.current.ctx.contains(p.as_str())
                || report.previous.ctx.contains(p.as_str())
                || report.current.fiber.contains(p.as_str())
                || report.previous.fiber.contains(p.as_str())
        })
    }

    /// Number of patterns.
    pub fn len(&self) -> usize {
        self.patterns.len()
    }

    /// True if no patterns are installed.
    pub fn is_empty(&self) -> bool {
        self.patterns.is_empty()
    }

    /// The installed patterns.
    pub fn patterns(&self) -> impl Iterator<Item = &str> {
        self.patterns.iter().map(String::as_str)
    }

    /// Serialize the pattern list in install order (matching is
    /// any-pattern, but order still decides nothing — kept for byte
    /// stability of repeated snapshots).
    pub fn write_snapshot(&self, w: &mut SnapshotWriter) {
        w.put_len(self.patterns.len());
        for p in &self.patterns {
            w.put_str(p);
        }
    }

    /// Rebuild from [`Self::write_snapshot`] output.
    pub fn read_snapshot(r: &mut SnapshotReader<'_>) -> Result<Self, SnapshotError> {
        let n = r.get_len()?;
        let mut patterns = Vec::with_capacity(n);
        for _ in 0..n {
            patterns.push(r.get_str()?);
        }
        Ok(Suppressions { patterns })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intern_dedupes() {
        let mut t = CtxTable::new();
        let a = t.intern("kernel foo arg#0");
        let b = t.intern("kernel foo arg#0");
        let c = t.intern("kernel foo arg#1");
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(t.label(a), "kernel foo arg#0");
    }

    #[test]
    fn unknown_ctx_is_zero() {
        let t = CtxTable::new();
        assert_eq!(t.label(CtxId::UNKNOWN), "<unknown>");
    }

    fn sample_report() -> RaceReport {
        RaceReport {
            addr: 0x4000,
            current: RaceSide {
                write: true,
                fiber: "cuda stream 1".into(),
                ctx: "kernel jacobi arg#0 [write]".into(),
            },
            previous: RaceSide {
                write: false,
                fiber: "mpi req#2 (Isend)".into(),
                ctx: "MPI_Isend buffer [read]".into(),
            },
        }
    }

    #[test]
    fn report_display_mentions_both_sides() {
        let r = sample_report().to_string();
        assert!(r.contains("data race"));
        assert!(r.contains("write by cuda stream 1"));
        assert!(r.contains("read by mpi req#2"));
    }

    #[test]
    fn parse_suppression_file() {
        let text =
            "# cluster-specific false positives\n\nrace:libucp\nrace:mca_btl\nthread:progress\n";
        let s = Suppressions::parse(text).unwrap();
        assert_eq!(s.len(), 2, "thread: entries are skipped");
        let mut r = sample_report();
        r.current.ctx = "write inside libucp progress".into();
        assert!(s.matches(&r));
    }

    #[test]
    fn parse_rejects_malformed_lines() {
        assert!(Suppressions::parse("just-a-word").is_err());
        assert!(Suppressions::parse("race:").is_err());
        assert!(Suppressions::parse("").unwrap().is_empty());
    }

    #[test]
    fn suppressions_match_either_side() {
        let mut s = Suppressions::default();
        assert!(!s.matches(&sample_report()));
        s.add("MPI_Isend");
        assert!(s.matches(&sample_report()));
        let mut s2 = Suppressions::default();
        s2.add("stream 1");
        assert!(s2.matches(&sample_report()));
        let mut s3 = Suppressions::default();
        s3.add("no-such-thing");
        assert!(!s3.matches(&sample_report()));
    }
}
