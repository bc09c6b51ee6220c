//! Race reports and access contexts.
//!
//! Real TSan attaches stack traces to accesses; we attach *access context*
//! labels interned at annotation time (e.g. `"kernel jacobi_step arg#0
//! [write]"` or `"MPI_Isend buffer [read]"`). Reports pair the current
//! access context with the recorded previous one — exactly the information
//! a user needs to locate both sides of the race.

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
}
