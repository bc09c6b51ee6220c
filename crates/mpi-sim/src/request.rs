//! Non-blocking requests and completion flags.

use crate::error::MpiError;
use parking_lot::{Condvar, Mutex};
use std::sync::Arc;
use std::time::Duration;

/// The deadlock-detection timeout of a world built without one.
pub(crate) const WAIT_TIMEOUT: Duration = Duration::from_secs(20);

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

#[derive(Debug)]
pub(crate) enum FlagState {
    Pending,
    Done(Status),
    Failed(MpiError),
}

/// Shared completion flag between the two sides of a match.
#[derive(Debug)]
pub(crate) struct Flag {
    pub state: Mutex<FlagState>,
    pub cv: Condvar,
}

impl Flag {
    pub fn new() -> Arc<Flag> {
        Arc::new(Flag {
            state: Mutex::new(FlagState::Pending),
            cv: Condvar::new(),
        })
    }

    /// Settle the flag as completed. First settlement wins: an eager
    /// send's flag is completed at post time, and a later delivery path
    /// (e.g. a truncating receive failing both sides of the match) must
    /// never flip an outcome the poster may already have observed —
    /// whichever thread settles first by mailbox order, not whichever
    /// acquires this lock last.
    pub fn complete(&self, status: Status) {
        let mut st = self.state.lock();
        if matches!(*st, FlagState::Pending) {
            *st = FlagState::Done(status);
            drop(st);
            self.cv.notify_all();
        }
    }

    /// Settle the flag as failed (first settlement wins; see
    /// [`Flag::complete`]).
    pub fn fail(&self, err: MpiError) {
        let mut st = self.state.lock();
        if matches!(*st, FlagState::Pending) {
            *st = FlagState::Failed(err);
            drop(st);
            self.cv.notify_all();
        }
    }

    /// Block until the flag settles, or fail with [`MpiError::Timeout`]
    /// after `timeout` without a settlement.
    pub fn wait(&self, what: &str, timeout: Duration) -> Result<Status, MpiError> {
        let mut st = self.state.lock();
        loop {
            match &*st {
                FlagState::Done(s) => return Ok(*s),
                FlagState::Failed(e) => return Err(e.clone()),
                FlagState::Pending => {
                    if self.cv.wait_for(&mut st, timeout).timed_out() {
                        return Err(MpiError::Timeout {
                            what: what.to_string(),
                        });
                    }
                }
            }
        }
    }

    pub fn poll(&self) -> Option<Result<Status, MpiError>> {
        match &*self.state.lock() {
            FlagState::Pending => None,
            FlagState::Done(s) => Some(Ok(*s)),
            FlagState::Failed(e) => Some(Err(e.clone())),
        }
    }
}

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
