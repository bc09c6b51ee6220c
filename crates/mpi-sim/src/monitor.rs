//! The world's wait monitor: deadlocks are detected, not timed out.
//!
//! Every blocking MPI wait blocks here, and every settlement (a request
//! completing or failing, a barrier's last rank arriving) is reported
//! here. A rank counts as blocked only if it found its condition false
//! after the most recent settlement: each settlement clears every mark
//! and wakes every waiter to check again. Only rank threads settle, so
//! once every live rank is blocked nothing can settle again — an
//! execution is stuck exactly when no thread can run. Every waiter then
//! gets [`MpiError::Deadlock`], and the world stays failed: every later
//! wait that would block, and every barrier arrival, gets the same error.
//!
//! The monitor lock is the innermost lock: mailbox → monitor, never the
//! reverse.

use crate::error::MpiError;
use parking_lot::{Mutex, MutexGuard};

/// The world's barriers, counted apart: `MPI_Barrier` and the phase
/// barrier inside every collective; a deadlock names them "Barrier" and
/// "collective phase".
#[derive(Clone, Copy)]
pub(crate) enum BarrierId {
    World,
    Phase,
}

struct State {
    /// Ranks whose thread has not returned.
    live: usize,
    /// Per rank: what it waits for, if it found that false since the
    /// most recent settlement.
    blocked: Vec<Option<String>>,
    /// Per barrier: ranks arrived this round, and rounds completed.
    rounds: [(usize, u64); 2],
    failed: Option<MpiError>,
}

impl State {
    /// Fail the world if every live rank is blocked.
    fn check_deadlock(&mut self) -> Option<MpiError> {
        let n_blocked = self.blocked.iter().flatten().count();
        if self.live == 0 || n_blocked < self.live {
            return None;
        }
        let waiting = self
            .blocked
            .iter()
            .enumerate()
            .filter_map(|(r, w)| Some((r, w.clone()?)))
            .collect();
        self.failed = Some(MpiError::Deadlock { waiting });
        self.failed.clone()
    }
}

/// One per world: the blocked marks and barrier rounds under one mutex,
/// and the world's one condition variable.
pub(crate) struct Monitor {
    state: Mutex<State>,
    cv: parking_lot::Condvar,
    size: usize,
}

impl Monitor {
    pub fn new(size: usize) -> Self {
        Monitor {
            state: Mutex::new(State {
                live: size,
                blocked: vec![None; size],
                rounds: [(0, 0); 2],
                failed: None,
            }),
            cv: Default::default(),
            size,
        }
    }

    /// Report a settlement: clear every blocked mark and wake every
    /// waiter to check its condition again.
    pub fn settled(&self) {
        self.state.lock().blocked.fill(None);
        self.cv.notify_all();
    }

    /// Block `rank` until `ready` yields a value; `what` names the wait in
    /// a deadlock. `ready` may turn true only through a settlement.
    pub fn wait_until<T>(
        &self,
        rank: usize,
        what: &str,
        mut ready: impl FnMut() -> Option<T>,
    ) -> Result<T, MpiError> {
        match ready() {
            Some(v) => Ok(v),
            None => self.block(self.state.lock(), rank, what, |_| ready()),
        }
    }

    /// Arrive at barrier `id` and block until all ranks have. True on
    /// exactly one rank per round (the last arrival, whose arrival is the
    /// settlement).
    pub fn barrier(&self, rank: usize, id: BarrierId) -> Result<bool, MpiError> {
        let what = ["Barrier", "collective phase"][id as usize];
        let mut s = self.state.lock();
        if let Some(e) = &s.failed {
            return Err(e.clone());
        }
        let (arrived, round) = &mut s.rounds[id as usize];
        *arrived += 1;
        if *arrived < self.size {
            let round = *round;
            return self.block(s, rank, what, |s| {
                (s.rounds[id as usize].1 != round).then_some(false)
            });
        }
        *arrived = 0;
        *round += 1;
        s.blocked.fill(None);
        // Wakes under the lock on purpose. Unlocking first would save the
        // woken ranks a second sleep on the mutex and make uninstrumented
        // TeaLeaf ≈ 40 % faster on one hardware thread: a substrate
        // speedup that moves every `overhead_x` denominator, a change of
        // its own.
        self.cv.notify_all();
        Ok(true)
    }

    /// Record that `rank`'s thread is gone (returned or unwinding).
    pub fn exit(&self, rank: usize) {
        let mut s = self.state.lock();
        s.blocked[rank] = None;
        s.live -= 1;
        if s.failed.is_none() && s.check_deadlock().is_some() {
            self.cv.notify_all();
        }
    }

    fn block<T>(
        &self,
        mut s: MutexGuard<'_, State>,
        rank: usize,
        what: &str,
        mut ready: impl FnMut(&State) -> Option<T>,
    ) -> Result<T, MpiError> {
        loop {
            if let Some(e) = &s.failed {
                return Err(e.clone());
            }
            if let Some(v) = ready(&s) {
                s.blocked[rank] = None;
                return Ok(v);
            }
            s.blocked[rank].get_or_insert_with(|| what.to_owned());
            if let Some(e) = s.check_deadlock() {
                self.cv.notify_all();
                return Err(e);
            }
            self.cv.wait(&mut s);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn releases_all_with_one_leader_per_round() {
        let m = Monitor::new(4);
        let leaders: usize = std::thread::scope(|s| {
            (0..4)
                .map(|rank| {
                    let m = &m;
                    s.spawn(move || {
                        (0..5)
                            .filter(|_| m.barrier(rank, BarrierId::World).unwrap())
                            .count()
                    })
                })
                .collect::<Vec<_>>()
                .into_iter()
                .map(|h| h.join().unwrap())
                .sum()
        });
        assert_eq!(leaders, 5, "one leader per round");
    }
}
