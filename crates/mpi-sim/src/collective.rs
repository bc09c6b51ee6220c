//! Collective operations: barrier-phased reference implementations.
//!
//! Every collective runs in phases separated by the world monitor's phase
//! barrier over a shared slot table: (1) contribute, (2) compute/read,
//! (3) leader cleanup. This is deliberately the simplest correct scheme —
//! collectives are not on the overhead-critical path of the evaluation;
//! their MPI-semantic surface (buffer reads/writes) is what MUST
//! annotates.

use crate::datatype::{reduce_bytes, MpiDatatype, ReduceOp};
use crate::error::MpiError;
use crate::monitor::{BarrierId, Monitor};
use explore::{ChoiceKind, ScheduleController};
use parking_lot::Mutex;
use sim_mem::{AddressSpace, Ptr};
use std::sync::Arc;

struct Slots {
    contribs: Vec<Option<Vec<u8>>>,
    result: Option<Result<Vec<u8>, MpiError>>,
}

pub(crate) struct CollShared {
    slots: Mutex<Slots>,
    monitor: Arc<Monitor>,
    size: usize,
    /// Schedule controller plus the world-global lane it is consulted
    /// on for reduction fold order (participant "arrival" order).
    /// `None`: candidate 0 at every step, ascending rank order.
    sched: Option<(Arc<dyn ScheduleController>, usize)>,
}

impl CollShared {
    /// Shared collective state for `size` ranks, phased by the world's
    /// `monitor`, with an optional schedule controller deciding
    /// reduction fold order on the given lane.
    pub fn with_schedule(
        size: usize,
        monitor: Arc<Monitor>,
        sched: Option<(Arc<dyn ScheduleController>, usize)>,
    ) -> Self {
        CollShared {
            slots: Mutex::new(Slots {
                contribs: vec![None; size],
                result: None,
            }),
            monitor,
            size,
            sched,
        }
    }

    /// The 3-phase skeleton: `contribute` fills this rank's slot, `compute`
    /// runs on exactly one rank after all contributions, every rank then
    /// receives the result, and the leader clears the table.
    fn run<T>(
        &self,
        rank: usize,
        contribute: impl FnOnce(&mut Vec<Option<Vec<u8>>>),
        compute: impl FnOnce(&mut Slots),
        consume: impl FnOnce(&Slots) -> Result<T, MpiError>,
    ) -> Result<T, MpiError> {
        {
            let mut s = self.slots.lock();
            contribute(&mut s.contribs);
        }
        // A missing rank (fault injection, application bug) leaves the
        // others blocked here: once every live rank is, they all return
        // Deadlock instead of hanging the world.
        if self.monitor.barrier(rank, BarrierId::Phase)? {
            let mut s = self.slots.lock();
            compute(&mut s);
        }
        self.monitor.barrier(rank, BarrierId::Phase)?;
        let out = {
            let s = self.slots.lock();
            consume(&s)
        };
        if self.monitor.barrier(rank, BarrierId::Phase)? {
            let mut s = self.slots.lock();
            s.contribs.iter_mut().for_each(|c| *c = None);
            s.result = None;
        }
        self.monitor.barrier(rank, BarrierId::Phase)?;
        out
    }

    #[allow(clippy::too_many_arguments)]
    pub fn allreduce(
        &self,
        rank: usize,
        space: &AddressSpace,
        send_buf: Ptr,
        recv_buf: Ptr,
        count: u64,
        dtype: MpiDatatype,
        op: ReduceOp,
    ) -> Result<(), MpiError> {
        let bytes = count * dtype.size();
        let mut mine = vec![0u8; bytes as usize];
        space.read_bytes(send_buf, &mut mine)?;
        let result = self.run(
            rank,
            |contribs| contribs[rank] = Some(mine),
            |slots| slots.result = Some(fold(&slots.contribs, dtype, op, self.sched.as_ref())),
            |slots| slots.result.clone().expect("result computed"),
        )?;
        space.write_bytes(recv_buf, &result)?;
        Ok(())
    }

    #[allow(clippy::too_many_arguments)]
    pub fn reduce(
        &self,
        rank: usize,
        root: usize,
        space: &AddressSpace,
        send_buf: Ptr,
        recv_buf: Ptr,
        count: u64,
        dtype: MpiDatatype,
        op: ReduceOp,
    ) -> Result<(), MpiError> {
        assert!(root < self.size, "invalid root {root}");
        let bytes = count * dtype.size();
        let mut mine = vec![0u8; bytes as usize];
        space.read_bytes(send_buf, &mut mine)?;
        let result = self.run(
            rank,
            |contribs| contribs[rank] = Some(mine),
            |slots| slots.result = Some(fold(&slots.contribs, dtype, op, self.sched.as_ref())),
            |slots| slots.result.clone().expect("result computed"),
        )?;
        if rank == root {
            space.write_bytes(recv_buf, &result)?;
        }
        Ok(())
    }

    pub fn bcast(
        &self,
        rank: usize,
        root: usize,
        space: &AddressSpace,
        buf: Ptr,
        count: u64,
        dtype: MpiDatatype,
    ) -> Result<(), MpiError> {
        assert!(root < self.size, "invalid root {root}");
        let bytes = count * dtype.size();
        let mine = if rank == root {
            let mut data = vec![0u8; bytes as usize];
            space.read_bytes(buf, &mut data)?;
            Some(data)
        } else {
            None
        };
        let result = self.run(
            rank,
            |contribs| {
                if let Some(data) = mine {
                    contribs[root] = Some(data);
                }
            },
            |slots| {
                slots.result = Some(match slots.contribs[root].clone() {
                    Some(d) => Ok(d),
                    None => Err(MpiError::BadRequest),
                });
            },
            |slots| slots.result.clone().expect("result computed"),
        )?;
        if rank != root {
            space.write_bytes(buf, &result)?;
        }
        Ok(())
    }
}

/// Fold the contributions into one reduction result, taking each next
/// one from the ranks not yet folded. The candidates model the
/// (unordered) arrival of participants: seq-ascending with signature =
/// rank, so candidate 0 — the pick without a controller, or when one
/// rank is left — folds in ascending rank order. An installed
/// controller picks among two or more.
fn fold(
    contribs: &[Option<Vec<u8>>],
    dtype: MpiDatatype,
    op: ReduceOp,
    sched: Option<&(Arc<dyn ScheduleController>, usize)>,
) -> Result<Vec<u8>, MpiError> {
    let mut remaining: Vec<usize> = (0..contribs.len()).collect();
    let mut acc: Option<Vec<u8>> = None;
    while !remaining.is_empty() {
        let k = match sched {
            Some((ctrl, lane)) if remaining.len() > 1 => {
                let sigs: Vec<u64> = remaining.iter().map(|r| *r as u64).collect();
                ctrl.choose(*lane, ChoiceKind::CollectiveFold, &sigs)
                    .min(remaining.len() - 1)
            }
            _ => 0,
        };
        let Some(c) = &contribs[remaining.remove(k)] else {
            return Err(MpiError::BadRequest);
        };
        match &mut acc {
            None => acc = Some(c.clone()),
            Some(acc) => {
                if c.len() != acc.len() {
                    return Err(MpiError::Truncated {
                        message: c.len() as u64,
                        capacity: acc.len() as u64,
                    });
                }
                reduce_bytes(dtype, op, acc, c);
            }
        }
    }
    acc.ok_or(MpiError::BadRequest)
}

#[cfg(test)]
mod tests {
    use crate::datatype::{MpiDatatype, ReduceOp};
    use crate::world::run_world;
    use sim_mem::{AddressSpace, MemKind, Ptr};
    use std::sync::Arc;

    fn space() -> Arc<AddressSpace> {
        Arc::new(AddressSpace::new())
    }

    #[test]
    fn allreduce_sum() {
        let sp = space();
        let n = 4;
        let send: Vec<Ptr> = (0..n)
            .map(|_| sp.alloc_array::<f64>(MemKind::HostPageable, 2).unwrap())
            .collect();
        let recv: Vec<Ptr> = (0..n)
            .map(|_| sp.alloc_array::<f64>(MemKind::HostPageable, 2).unwrap())
            .collect();
        for (r, p) in send.iter().enumerate() {
            sp.write_slice_data::<f64>(*p, &[r as f64, 10.0 * r as f64])
                .unwrap();
        }
        let (s, rc) = (send.clone(), recv.clone());
        run_world(n, Arc::clone(&sp), move |comm| {
            comm.allreduce(
                s[comm.rank()],
                rc[comm.rank()],
                2,
                MpiDatatype::Double,
                ReduceOp::Sum,
            )
            .unwrap();
        });
        for p in &recv {
            assert_eq!(sp.read_vec::<f64>(*p, 2).unwrap(), vec![6.0, 60.0]);
        }
    }

    #[test]
    fn allreduce_repeated_generations() {
        // Back-to-back collectives must not leak state between rounds.
        let sp = space();
        let n = 3;
        let bufs: Vec<(Ptr, Ptr)> = (0..n)
            .map(|_| {
                (
                    sp.alloc_array::<i64>(MemKind::HostPageable, 1).unwrap(),
                    sp.alloc_array::<i64>(MemKind::HostPageable, 1).unwrap(),
                )
            })
            .collect();
        let b = bufs.clone();
        run_world(n, Arc::clone(&sp), move |comm| {
            let (s, r) = b[comm.rank()];
            for round in 0..10i64 {
                comm.space()
                    .write_at::<i64>(s, round + comm.rank() as i64)
                    .unwrap();
                comm.allreduce(s, r, 1, MpiDatatype::Long, ReduceOp::Max)
                    .unwrap();
                let got = comm.space().read_at::<i64>(r).unwrap();
                assert_eq!(got, round + 2, "round {round}");
            }
        });
    }

    #[test]
    fn reduce_only_root_receives() {
        let sp = space();
        let n = 3;
        let send: Vec<Ptr> = (0..n)
            .map(|_| sp.alloc_array::<i32>(MemKind::HostPageable, 1).unwrap())
            .collect();
        let recv: Vec<Ptr> = (0..n)
            .map(|_| sp.alloc_array::<i32>(MemKind::HostPageable, 1).unwrap())
            .collect();
        for (r, p) in send.iter().enumerate() {
            sp.write_at::<i32>(*p, (r + 1) as i32).unwrap();
        }
        let (s, rc) = (send.clone(), recv.clone());
        run_world(n, Arc::clone(&sp), move |comm| {
            comm.reduce(
                s[comm.rank()],
                rc[comm.rank()],
                1,
                MpiDatatype::Int,
                ReduceOp::Prod,
                1,
            )
            .unwrap();
        });
        assert_eq!(sp.read_at::<i32>(recv[1]).unwrap(), 6);
        assert_eq!(sp.read_at::<i32>(recv[0]).unwrap(), 0, "non-root untouched");
    }

    #[test]
    fn bcast_from_root() {
        let sp = space();
        let n = 4;
        let bufs: Vec<Ptr> = (0..n)
            .map(|_| sp.alloc_array::<f64>(MemKind::HostPageable, 3).unwrap())
            .collect();
        sp.write_slice_data::<f64>(bufs[2], &[7.0, 8.0, 9.0])
            .unwrap();
        let b = bufs.clone();
        run_world(n, Arc::clone(&sp), move |comm| {
            comm.bcast(b[comm.rank()], 3, MpiDatatype::Double, 2)
                .unwrap();
        });
        for p in &bufs {
            assert_eq!(sp.read_vec::<f64>(*p, 3).unwrap(), vec![7.0, 8.0, 9.0]);
        }
    }

    /// The collective fold choice point, twice per world: an `f64` sum
    /// whose rounding depends on the fold order makes the order
    /// observable — ascending rank with no controller and under an
    /// all-defaults plan, the plan's permutation otherwise — and an
    /// `i64` sum shows every explored order gives the identical result
    /// for an exact commutative reduction (the detector-visible outcome
    /// is schedule-independent). A plan is consulted on the world-global
    /// lane.
    #[test]
    fn fold_order_plans_are_consulted_and_commute() {
        use explore::{ChoiceKind, ScheduleController, SchedulePlan};
        let n = 3;
        let vals = [0.1, 0.2, 0.3];
        let sum_in = |order: [usize; 3]| order.iter().fold(0.0, |acc, &r| acc + vals[r]);
        assert_ne!(sum_in([0, 1, 2]), sum_in([2, 1, 0]), "order is observable");
        for (coll_choices, order) in [
            (None, [0, 1, 2]),
            (Some(vec![]), [0, 1, 2]),
            (Some(vec![2, 1]), [2, 1, 0]),
            (Some(vec![1, 0]), [1, 0, 2]),
        ] {
            let sp = space();
            // One 8-byte word per rank.
            let words = || -> Vec<Ptr> {
                (0..n)
                    .map(|_| sp.alloc(MemKind::HostPageable, 8).unwrap())
                    .collect()
            };
            let (fsend, frecv, isend, irecv) = (words(), words(), words(), words());
            for r in 0..n {
                sp.write_at::<f64>(fsend[r], vals[r]).unwrap();
                sp.write_at::<i64>(isend[r], (r as i64 + 1) * 10).unwrap();
            }
            // The same permutation for both reductions.
            let plan = coll_choices.map(|c| {
                let both = [c.clone(), c].concat();
                SchedulePlan::with_choices(vec![vec![], vec![], vec![], both])
            });
            let sched = plan
                .as_ref()
                .map(|p| Arc::clone(p) as Arc<dyn ScheduleController>);
            let bufs = (fsend, frecv.clone(), isend, irecv.clone());
            crate::world::run_world_with_schedule(n, Arc::clone(&sp), sched, move |comm| {
                let r = comm.rank();
                let (fs, fr, is, ir) = &bufs;
                comm.allreduce(fs[r], fr[r], 1, MpiDatatype::Double, ReduceOp::Sum)
                    .unwrap();
                comm.allreduce(is[r], ir[r], 1, MpiDatatype::Long, ReduceOp::Sum)
                    .unwrap();
            });
            for r in 0..n {
                assert_eq!(
                    sp.read_at::<f64>(frecv[r]).unwrap(),
                    sum_in(order),
                    "{order:?}"
                );
                assert_eq!(sp.read_at::<i64>(irecv[r]).unwrap(), 60, "sum commutes");
            }
            if let Some(plan) = plan {
                let log = plan.decisions(3);
                assert_eq!(log.len(), 2 * (n - 1), "n-1 fold consultations each");
                assert!(log.iter().all(|d| d.kind == ChoiceKind::CollectiveFold));
                assert_eq!(
                    log.iter().map(|d| d.arity).collect::<Vec<_>>(),
                    [3, 2, 3, 2]
                );
            }
        }
    }

    #[test]
    fn barrier_separates_phases() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let sp = space();
        let counter = Arc::new(AtomicUsize::new(0));
        let c = Arc::clone(&counter);
        run_world(4, sp, move |comm| {
            c.fetch_add(1, Ordering::SeqCst);
            comm.barrier().unwrap();
            // After the barrier every rank must observe all increments.
            assert_eq!(c.load(Ordering::SeqCst), 4);
        });
    }
}
