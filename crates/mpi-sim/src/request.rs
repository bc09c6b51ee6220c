//! Non-blocking requests and completion flags.

use crate::error::MpiError;
use std::sync::{Arc, OnceLock};

/// Completion status of a receive (source/tag are meaningful for
/// `ANY_SOURCE`/`ANY_TAG` receives; sends report their own parameters).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Status {
    /// Rank the message came from (or went to, for sends).
    pub source: usize,
    /// Message tag.
    pub tag: i32,
    /// Transferred bytes.
    pub bytes: u64,
}

/// Completion flag shared by the two sides of a match: set once, first
/// settlement wins. Waiting on it goes through the world's monitor.
pub(crate) type Flag = OnceLock<Result<Status, MpiError>>;

/// What kind of operation a request tracks (diagnostics + MUST labels).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RequestKind {
    /// `MPI_Isend`.
    Send,
    /// `MPI_Irecv`.
    Recv,
}

/// A non-blocking communication request.
#[derive(Debug)]
pub struct Request {
    pub(crate) flag: Arc<Flag>,
    pub(crate) kind: RequestKind,
    /// The one rank that can settle it, if it names one (not a wildcard
    /// or `PROC_NULL` receive).
    pub(crate) peer: Option<usize>,
    pub(crate) what: String,
    pub(crate) completed: bool,
}

impl Request {
    /// The operation kind.
    pub fn kind(&self) -> RequestKind {
        self.kind
    }

    /// Human-readable description ("Isend to 1 tag 7").
    pub fn describe(&self) -> &str {
        &self.what
    }

    /// True once `wait`/successful `test` observed completion.
    pub fn is_completed(&self) -> bool {
        self.completed
    }
}
