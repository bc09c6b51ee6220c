//! Race reports, access contexts, and suppressions.
//!
//! Real TSan attaches stack traces to accesses; we attach *access context*
//! labels interned at annotation time (e.g. `"kernel jacobi_step arg#0
//! [write]"` or `"MPI_Isend buffer [read]"`). Reports pair the current
//! access context with the recorded previous one — exactly the information
//! a user needs to locate both sides of the race.

use crate::snapshot::{SnapshotError, SnapshotReader, SnapshotWriter};
use std::fmt;
use std::sync::Arc;

/// Id of an access-context label: its index in the label table the
/// runtime's owner defines ([`crate::TsanRuntime::define_ctx`]). A range
/// access may name ids below [`MAX_CTXS`] only.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct CtxId(pub u32);

/// Number of context ids a range access can name; bounded by the 20-bit
/// ctx field in the packed shadow epoch (see [`crate::shadow`]).
pub const MAX_CTXS: usize = 1 << 20;

/// The label `id` names in `labels`, or `<invalid>` past its end.
pub(crate) fn label(labels: &[Arc<str>], id: CtxId) -> &str {
    labels.get(id.0 as usize).map_or("<invalid>", |l| l)
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
