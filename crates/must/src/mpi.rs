//! The checked MPI API: MUST's interception layer.
//!
//! Wraps [`mpi_sim::Comm`]; every call runs the MUST callback (TSan
//! annotations + TypeART datatype checks) and forwards to the simulator.

use crate::checks::{check_buffer, MustReport};
use cusan::keys::request_key;
use cusan::{CusanEvent, ToolCtx};
use mpi_sim::{Comm, MpiDatatype, MpiError, ReduceOp, Request, Status, PROC_NULL, PROC_NULL_SRC};
use sim_mem::Ptr;
use std::cell::RefCell;
use std::rc::Rc;
use tsan_rt::{FiberId, SyncKey};

/// A request returned by the checked non-blocking calls, carrying the
/// TSan fiber that models the operation's concurrent region (Fig. 1).
#[derive(Debug)]
pub struct MustRequest {
    inner: Request,
    fiber: Option<FiberId>,
    key: Option<SyncKey>,
    serial: Option<u64>,
}

impl MustRequest {
    /// The simulator request.
    pub fn inner(&self) -> &Request {
        &self.inner
    }
}

/// The MUST-checked MPI interface for one rank.
pub struct CheckedMpi {
    comm: Comm,
    tools: Rc<ToolCtx>,
    reports: RefCell<Vec<MustReport>>,
}

impl CheckedMpi {
    /// Wrap a communicator with the rank's tool context.
    pub fn new(comm: Comm, tools: Rc<ToolCtx>) -> Self {
        CheckedMpi {
            comm,
            tools,
            reports: RefCell::new(Vec::new()),
        }
    }

    /// This rank.
    pub fn rank(&self) -> usize {
        self.comm.rank()
    }

    /// World size.
    pub fn size(&self) -> usize {
        self.comm.size()
    }

    /// The underlying communicator.
    pub fn comm(&self) -> &Comm {
        &self.comm
    }

    /// Datatype-check findings collected so far.
    pub fn must_reports(&self) -> Vec<MustReport> {
        self.reports.borrow().clone()
    }

    fn enabled(&self) -> bool {
        self.tools.config.must
    }

    /// Fault-injection gate, checked first in every fallible call — before
    /// PROC_NULL short-circuits and before any annotation, so a faulted
    /// call leaves no happens-before state behind.
    ///
    /// Polling calls (`test`, `waitany`) are deliberately *not* gated:
    /// their invocation count depends on completion timing, which would
    /// make the site numbering — and thus the fault schedule —
    /// nondeterministic.
    fn fault(&self, call: &'static str) -> Result<(), MpiError> {
        if self.tools.should_fault(call) {
            Err(MpiError::FaultInjected { call })
        } else {
            Ok(())
        }
    }

    fn run_checks(&self, call: &str, buf: Ptr, count: u64, dtype: MpiDatatype) {
        // The datatype analysis needs TypeART's allocation data; it is
        // active only when both layers run (the MUST & CuSan stack).
        if self.enabled() && self.tools.config.typeart {
            let mut ta = self.tools.typeart.borrow_mut();
            check_buffer(
                &mut ta,
                call,
                buf,
                count,
                dtype,
                &mut self.reports.borrow_mut(),
            );
        }
    }

    fn annotate_host(&self, buf: Ptr, bytes: u64, write: bool, label: &str) {
        if self.enabled() {
            let ctx = self.tools.intern_label(label);
            self.tools.emit(if write {
                CusanEvent::WriteRange {
                    addr: buf.addr(),
                    len: bytes,
                    ctx,
                }
            } else {
                CusanEvent::ReadRange {
                    addr: buf.addr(),
                    len: bytes,
                    ctx,
                }
            });
        }
    }

    /// MUST callback for a non-blocking operation: fiber + annotation +
    /// happens-before arc (Fig. 1, paper §II-B b).
    fn begin_nonblocking(
        &self,
        buf: Ptr,
        bytes: u64,
        write: bool,
        what: &str,
    ) -> (Option<FiberId>, Option<SyncKey>, Option<u64>) {
        if !self.enabled() {
            return (None, None, None);
        }
        let serial = self.tools.next_request_serial();
        let key = request_key(serial);
        self.tools.emit(CusanEvent::RequestBegin { serial });
        let fiber = self
            .tools
            .emit_fiber_create(&format!("mpi req#{serial} ({what})"));
        let ctx = self.tools.intern_label(&format!(
            "{what} buffer [{}]",
            if write { "write" } else { "read" }
        ));
        // Plain (non-synchronizing) switch: the request region runs
        // concurrently with the host until the completing wait.
        self.tools
            .emit(CusanEvent::FiberSwitch { fiber, sync: false });
        self.tools.emit(if write {
            CusanEvent::WriteRange {
                addr: buf.addr(),
                len: bytes,
                ctx,
            }
        } else {
            CusanEvent::ReadRange {
                addr: buf.addr(),
                len: bytes,
                ctx,
            }
        });
        self.tools.emit(CusanEvent::HappensBefore { key });
        self.tools.emit(CusanEvent::FiberSwitch {
            fiber: FiberId::HOST,
            sync: false,
        });
        (Some(fiber), Some(key), Some(serial))
    }

    /// MUST callback for request completion: terminate the arc on the host
    /// fiber, retire the request fiber.
    fn complete_nonblocking(&self, req: &mut MustRequest) {
        if let (Some(fiber), Some(key)) = (req.fiber.take(), req.key.take()) {
            self.tools.emit(CusanEvent::HappensAfter { key });
            self.tools.emit(CusanEvent::FiberDestroy { fiber });
            if let Some(serial) = req.serial.take() {
                self.tools.emit(CusanEvent::RequestComplete { serial });
            }
        }
    }

    // ---- point-to-point ------------------------------------------------------

    /// `MPI_Send`: blocking, buffer read annotated on the host fiber.
    pub fn send(
        &self,
        buf: Ptr,
        count: u64,
        dtype: MpiDatatype,
        dest: i64,
        tag: i32,
    ) -> Result<Status, MpiError> {
        self.fault("MPI_Send")?;
        if dest != PROC_NULL {
            self.run_checks("MPI_Send", buf, count, dtype);
            self.annotate_host(buf, count * dtype.size(), false, "MPI_Send buffer [read]");
        }
        self.comm.send(buf, count, dtype, dest, tag)
    }

    /// `MPI_Recv`: blocking, buffer write annotated on the host fiber.
    pub fn recv(
        &self,
        buf: Ptr,
        count: u64,
        dtype: MpiDatatype,
        src: i32,
        tag: i32,
    ) -> Result<Status, MpiError> {
        self.fault("MPI_Recv")?;
        if src != PROC_NULL_SRC {
            self.run_checks("MPI_Recv", buf, count, dtype);
            self.annotate_host(buf, count * dtype.size(), true, "MPI_Recv buffer [write]");
        }
        self.comm.recv(buf, count, dtype, src, tag)
    }

    /// `MPI_Isend`: models the concurrent region with an MPI fiber.
    pub fn isend(
        &self,
        buf: Ptr,
        count: u64,
        dtype: MpiDatatype,
        dest: i64,
        tag: i32,
    ) -> Result<MustRequest, MpiError> {
        self.fault("MPI_Isend")?;
        if dest == PROC_NULL {
            let inner = self.comm.isend(buf, count, dtype, dest, tag)?;
            return Ok(MustRequest {
                inner,
                fiber: None,
                key: None,
                serial: None,
            });
        }
        self.run_checks("MPI_Isend", buf, count, dtype);
        let (fiber, key, serial) =
            self.begin_nonblocking(buf, count * dtype.size(), false, "MPI_Isend");
        let inner = self.comm.isend(buf, count, dtype, dest, tag)?;
        Ok(MustRequest {
            inner,
            fiber,
            key,
            serial,
        })
    }

    /// `MPI_Irecv`: models the concurrent region with an MPI fiber.
    pub fn irecv(
        &self,
        buf: Ptr,
        count: u64,
        dtype: MpiDatatype,
        src: i32,
        tag: i32,
    ) -> Result<MustRequest, MpiError> {
        self.fault("MPI_Irecv")?;
        if src == PROC_NULL_SRC {
            let inner = self.comm.irecv(buf, count, dtype, src, tag)?;
            return Ok(MustRequest {
                inner,
                fiber: None,
                key: None,
                serial: None,
            });
        }
        self.run_checks("MPI_Irecv", buf, count, dtype);
        let (fiber, key, serial) =
            self.begin_nonblocking(buf, count * dtype.size(), true, "MPI_Irecv");
        let inner = self.comm.irecv(buf, count, dtype, src, tag)?;
        Ok(MustRequest {
            inner,
            fiber,
            key,
            serial,
        })
    }

    /// `MPI_Wait`: completion terminates the request's concurrent region.
    pub fn wait(&self, req: &mut MustRequest) -> Result<Status, MpiError> {
        self.fault("MPI_Wait")?;
        let st = self.comm.wait(&mut req.inner)?;
        self.complete_nonblocking(req);
        Ok(st)
    }

    /// `MPI_Waitall`.
    pub fn waitall(&self, reqs: &mut [MustRequest]) -> Result<Vec<Status>, MpiError> {
        reqs.iter_mut().map(|r| self.wait(r)).collect()
    }

    /// `MPI_Waitany`: completion of the winning request terminates its
    /// concurrent region; the others stay open. Times out like
    /// [`mpi_sim::Comm::waitany`], whose loop it is.
    pub fn waitany(&self, reqs: &mut [MustRequest]) -> Result<(usize, Status), MpiError> {
        let (i, st) = self.comm.waitany_by(reqs, |r| &mut r.inner)?;
        self.complete_nonblocking(&mut reqs[i]);
        Ok((i, st))
    }

    /// `MPI_Test`: a successful test is a completion.
    pub fn test(&self, req: &mut MustRequest) -> Result<Option<Status>, MpiError> {
        match self.comm.test(&mut req.inner)? {
            Some(st) => {
                self.complete_nonblocking(req);
                Ok(Some(st))
            }
            None => Ok(None),
        }
    }

    /// `MPI_Sendrecv`: both buffers annotated on the host fiber.
    #[allow(clippy::too_many_arguments)]
    pub fn sendrecv(
        &self,
        send_buf: Ptr,
        send_count: u64,
        dest: i64,
        send_tag: i32,
        recv_buf: Ptr,
        recv_count: u64,
        src: i32,
        recv_tag: i32,
        dtype: MpiDatatype,
    ) -> Result<Status, MpiError> {
        self.fault("MPI_Sendrecv")?;
        if dest != PROC_NULL {
            self.run_checks("MPI_Sendrecv (send)", send_buf, send_count, dtype);
            self.annotate_host(
                send_buf,
                send_count * dtype.size(),
                false,
                "MPI_Sendrecv send buffer [read]",
            );
        }
        if src != PROC_NULL_SRC {
            self.run_checks("MPI_Sendrecv (recv)", recv_buf, recv_count, dtype);
            self.annotate_host(
                recv_buf,
                recv_count * dtype.size(),
                true,
                "MPI_Sendrecv recv buffer [write]",
            );
        }
        self.comm.sendrecv(
            send_buf, send_count, dest, send_tag, recv_buf, recv_count, src, recv_tag, dtype,
        )
    }

    // ---- collectives ------------------------------------------------------------

    /// `MPI_Barrier`.
    pub fn barrier(&self) -> Result<(), MpiError> {
        self.fault("MPI_Barrier")?;
        self.comm.barrier()
    }

    /// `MPI_Allreduce`.
    pub fn allreduce(
        &self,
        send_buf: Ptr,
        recv_buf: Ptr,
        count: u64,
        dtype: MpiDatatype,
        op: ReduceOp,
    ) -> Result<(), MpiError> {
        self.fault("MPI_Allreduce")?;
        self.run_checks("MPI_Allreduce (send)", send_buf, count, dtype);
        self.run_checks("MPI_Allreduce (recv)", recv_buf, count, dtype);
        self.annotate_host(
            send_buf,
            count * dtype.size(),
            false,
            "MPI_Allreduce send buffer [read]",
        );
        self.annotate_host(
            recv_buf,
            count * dtype.size(),
            true,
            "MPI_Allreduce recv buffer [write]",
        );
        self.comm.allreduce(send_buf, recv_buf, count, dtype, op)
    }

    /// `MPI_Reduce`.
    #[allow(clippy::too_many_arguments)]
    pub fn reduce(
        &self,
        send_buf: Ptr,
        recv_buf: Ptr,
        count: u64,
        dtype: MpiDatatype,
        op: ReduceOp,
        root: usize,
    ) -> Result<(), MpiError> {
        self.fault("MPI_Reduce")?;
        self.run_checks("MPI_Reduce (send)", send_buf, count, dtype);
        self.annotate_host(
            send_buf,
            count * dtype.size(),
            false,
            "MPI_Reduce send buffer [read]",
        );
        if self.rank() == root {
            self.run_checks("MPI_Reduce (recv)", recv_buf, count, dtype);
            self.annotate_host(
                recv_buf,
                count * dtype.size(),
                true,
                "MPI_Reduce recv buffer [write]",
            );
        }
        self.comm.reduce(send_buf, recv_buf, count, dtype, op, root)
    }

    /// `MPI_Gather`.
    pub fn gather(
        &self,
        send_buf: Ptr,
        recv_buf: Ptr,
        count: u64,
        dtype: MpiDatatype,
        root: usize,
    ) -> Result<(), MpiError> {
        self.fault("MPI_Gather")?;
        self.run_checks("MPI_Gather (send)", send_buf, count, dtype);
        self.annotate_host(
            send_buf,
            count * dtype.size(),
            false,
            "MPI_Gather send buffer [read]",
        );
        if self.rank() == root {
            self.run_checks(
                "MPI_Gather (recv)",
                recv_buf,
                count * self.size() as u64,
                dtype,
            );
            self.annotate_host(
                recv_buf,
                count * self.size() as u64 * dtype.size(),
                true,
                "MPI_Gather recv buffer [write]",
            );
        }
        self.comm.gather(send_buf, recv_buf, count, dtype, root)
    }

    /// `MPI_Allgather`.
    pub fn allgather(
        &self,
        send_buf: Ptr,
        recv_buf: Ptr,
        count: u64,
        dtype: MpiDatatype,
    ) -> Result<(), MpiError> {
        self.fault("MPI_Allgather")?;
        self.run_checks("MPI_Allgather (send)", send_buf, count, dtype);
        self.run_checks(
            "MPI_Allgather (recv)",
            recv_buf,
            count * self.size() as u64,
            dtype,
        );
        self.annotate_host(
            send_buf,
            count * dtype.size(),
            false,
            "MPI_Allgather send buffer [read]",
        );
        self.annotate_host(
            recv_buf,
            count * self.size() as u64 * dtype.size(),
            true,
            "MPI_Allgather recv buffer [write]",
        );
        self.comm.allgather(send_buf, recv_buf, count, dtype)
    }

    /// `MPI_Scatter`.
    pub fn scatter(
        &self,
        send_buf: Ptr,
        recv_buf: Ptr,
        count: u64,
        dtype: MpiDatatype,
        root: usize,
    ) -> Result<(), MpiError> {
        self.fault("MPI_Scatter")?;
        if self.rank() == root {
            self.run_checks(
                "MPI_Scatter (send)",
                send_buf,
                count * self.size() as u64,
                dtype,
            );
            self.annotate_host(
                send_buf,
                count * self.size() as u64 * dtype.size(),
                false,
                "MPI_Scatter send buffer [read]",
            );
        }
        self.run_checks("MPI_Scatter (recv)", recv_buf, count, dtype);
        self.annotate_host(
            recv_buf,
            count * dtype.size(),
            true,
            "MPI_Scatter recv buffer [write]",
        );
        self.comm.scatter(send_buf, recv_buf, count, dtype, root)
    }

    /// `MPI_Bcast`.
    pub fn bcast(
        &self,
        buf: Ptr,
        count: u64,
        dtype: MpiDatatype,
        root: usize,
    ) -> Result<(), MpiError> {
        self.fault("MPI_Bcast")?;
        self.run_checks("MPI_Bcast", buf, count, dtype);
        let write = self.rank() != root;
        self.annotate_host(
            buf,
            count * dtype.size(),
            write,
            if write {
                "MPI_Bcast buffer [write]"
            } else {
                "MPI_Bcast buffer [read]"
            },
        );
        self.comm.bcast(buf, count, dtype, root)
    }
}
