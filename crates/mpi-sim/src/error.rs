//! MPI simulator errors.

use sim_mem::MemError;
use std::fmt;

/// Errors returned by simulated MPI calls.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MpiError {
    /// Destination or source rank outside the communicator.
    RankOutOfBounds {
        /// The offending rank value.
        rank: i64,
        /// Communicator size.
        size: usize,
    },
    /// Incoming message longer than the posted receive buffer
    /// (`MPI_ERR_TRUNCATE`).
    Truncated {
        /// Message length in bytes.
        message: u64,
        /// Receive capacity in bytes.
        capacity: u64,
    },
    /// Underlying memory failure (unmapped buffer, overrun).
    Mem(MemError),
    /// Every live rank is blocked, so no wait can ever complete (an
    /// unmatched send/recv, a barrier some rank never reaches). Every
    /// waiter gets it, and so does every later wait that would block.
    Deadlock {
        /// Each blocked rank and what it waits for, in rank order.
        waiting: Vec<(usize, String)>,
    },
    /// A request polled with `MPI_Test` can never settle: the one rank
    /// that could settle it has exited.
    PeerExited {
        /// The exited rank.
        peer: usize,
        /// The request ("Irecv from 1 tag 0").
        what: String,
    },
    /// Request already completed or invalid.
    BadRequest,
    /// Failure injected by a fault plan (see `cusan::fault`); the
    /// operation was not performed.
    FaultInjected {
        /// Name of the intercepted call that was made to fail.
        call: &'static str,
    },
}

impl fmt::Display for MpiError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MpiError::RankOutOfBounds { rank, size } => {
                write!(f, "rank {rank} out of bounds (communicator size {size})")
            }
            MpiError::Truncated { message, capacity } => {
                write!(
                    f,
                    "message truncated: {message} bytes into {capacity}-byte buffer"
                )
            }
            MpiError::Mem(e) => write!(f, "memory error: {e}"),
            MpiError::Deadlock { waiting } => {
                write!(f, "MPI deadlock: every live rank is blocked")?;
                for (rank, what) in waiting {
                    write!(f, "; rank {rank} waits for {what}")?;
                }
                Ok(())
            }
            MpiError::PeerExited { peer, what } => {
                write!(f, "{what} can never complete: rank {peer} has exited")
            }
            MpiError::BadRequest => write!(f, "invalid or already-completed request"),
            MpiError::FaultInjected { call } => write!(f, "injected fault in {call}"),
        }
    }
}

impl std::error::Error for MpiError {}

impl From<MemError> for MpiError {
    fn from(e: MemError) -> Self {
        MpiError::Mem(e)
    }
}
