//! The world runner, communicator, and point-to-point matching engine.
//!
//! ## Transfer protocol
//!
//! Like a real MPI library, the simulator uses two protocols:
//!
//! * **Eager** (message ≤ [`EAGER_LIMIT`] bytes): the payload is copied out
//!   of the send buffer when the send is *posted*, and the send completes
//!   immediately.
//! * **Rendezvous** (larger messages): the send registers the buffer
//!   pointer; the payload is copied directly from the sender's (possibly
//!   device) memory into the receiver's buffer when the match happens —
//!   zero-copy CUDA-aware behaviour over the shared UVA space.
//!
//! Matching follows MPI's non-overtaking rule: a receive matches the
//! earliest posted send with a matching `(source, tag)`, and an arriving
//! send matches the earliest posted matching receive.

use crate::collective::CollShared;
use crate::datatype::{MpiDatatype, ReduceOp};
use crate::error::MpiError;
use crate::monitor::{BarrierId, Monitor};
use crate::request::{Flag, Request, RequestKind, Status};
use explore::{ChoiceKind, ScheduleController};
use parking_lot::Mutex;
use sim_mem::{AddressSpace, Ptr};
use std::sync::Arc;

/// Wildcard source rank (`MPI_ANY_SOURCE`).
pub const ANY_SOURCE: i32 = -1;
/// Wildcard tag (`MPI_ANY_TAG`).
pub const ANY_TAG: i32 = -1;
/// The null process (`MPI_PROC_NULL`): communication with it completes
/// immediately and moves no data — the standard idiom for fixed-boundary
/// halo exchanges.
pub const PROC_NULL: i64 = -2;
/// `PROC_NULL` as a receive-source selector.
pub const PROC_NULL_SRC: i32 = -2;

/// Messages at or below this size use the eager protocol.
pub const EAGER_LIMIT: u64 = 4096;

#[derive(Debug)]
enum SendPayload {
    /// Eager: bytes already copied out of the send buffer.
    Eager(Vec<u8>),
    /// Rendezvous: read from the sender's memory at match time.
    Zero(Ptr),
}

#[derive(Debug)]
struct PendingSend {
    seq: u64,
    src: usize,
    tag: i32,
    bytes: u64,
    payload: SendPayload,
    flag: Arc<Flag>,
}

#[derive(Debug)]
struct PostedRecv {
    seq: u64,
    src_sel: i32,
    tag_sel: i32,
    ptr: Ptr,
    cap: u64,
    flag: Arc<Flag>,
}

#[derive(Debug, Default)]
struct MailboxState {
    seq: u64,
    sends: Vec<PendingSend>,
    recvs: Vec<PostedRecv>,
}

pub(crate) struct WorldShared {
    pub space: Arc<AddressSpace>,
    pub size: usize,
    mailboxes: Vec<Mutex<MailboxState>>,
    monitor: Arc<Monitor>,
    pub coll: CollShared,
    /// Installed schedule controller, consulted at wildcard-receive
    /// matches with more than one candidate (`None`: candidate 0);
    /// collectives hold their own copy inside [`CollShared`].
    sched: Option<Arc<dyn ScheduleController>>,
}

/// A communicator handle for one rank (the `MPI_COMM_WORLD` analogue).
pub struct Comm {
    rank: usize,
    shared: Arc<WorldShared>,
}

fn matches(sel_src: i32, src: usize, sel_tag: i32, tag: i32) -> bool {
    (sel_src == ANY_SOURCE || sel_src as usize == src) && (sel_tag == ANY_TAG || sel_tag == tag)
}

impl Comm {
    /// This rank's id.
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// Communicator size.
    pub fn size(&self) -> usize {
        self.shared.size
    }

    /// The shared UVA address space.
    pub fn space(&self) -> &Arc<AddressSpace> {
        &self.shared.space
    }

    fn check_rank(&self, r: i64) -> Result<usize, MpiError> {
        if r < 0 || r as usize >= self.shared.size {
            Err(MpiError::RankOutOfBounds {
                rank: r,
                size: self.shared.size,
            })
        } else {
            Ok(r as usize)
        }
    }

    /// Deliver a matched message into the receive buffer, settle both
    /// flags and report the settlement. Called with the destination
    /// mailbox lock held. First settlement wins: an eager send's flag is
    /// complete at post time, and a truncating receive failing both sides
    /// must never flip an outcome the poster may already have observed.
    fn deliver(shared: &WorldShared, send: PendingSend, recv: PostedRecv, dest_rank: usize) {
        let copied = if send.bytes > recv.cap {
            Err(MpiError::Truncated {
                message: send.bytes,
                capacity: recv.cap,
            })
        } else {
            match &send.payload {
                SendPayload::Eager(bytes) => shared.space.write_bytes(recv.ptr, bytes),
                SendPayload::Zero(src_ptr) => shared.space.copy(recv.ptr, *src_ptr, send.bytes),
            }
            .map_err(MpiError::Mem)
        };
        let status = |source| Status {
            source,
            tag: send.tag,
            bytes: send.bytes,
        };
        let _ = recv.flag.set(copied.clone().map(|()| status(send.src)));
        let _ = send.flag.set(copied.map(|()| status(dest_rank)));
        shared.monitor.settled();
    }

    fn null_request(&self, kind: RequestKind, what: &str) -> Request {
        Request {
            flag: Arc::new(Flag::from(Ok(Status {
                source: usize::MAX,
                tag: ANY_TAG,
                bytes: 0,
            }))),
            kind,
            what: what.to_string(),
            completed: false,
        }
    }

    /// `MPI_Isend`. Sends to [`PROC_NULL`] complete immediately and move
    /// no data.
    pub fn isend(
        &self,
        buf: Ptr,
        count: u64,
        dtype: MpiDatatype,
        dest: i64,
        tag: i32,
    ) -> Result<Request, MpiError> {
        if dest == PROC_NULL {
            return Ok(self.null_request(RequestKind::Send, "Isend to PROC_NULL"));
        }
        let dest = self.check_rank(dest)?;
        let bytes = count * dtype.size();
        let flag = Arc::<Flag>::default();
        let payload = if bytes <= EAGER_LIMIT {
            let mut data = vec![0u8; bytes as usize];
            self.shared.space.read_bytes(buf, &mut data)?;
            SendPayload::Eager(data)
        } else {
            // Validate the buffer exists before registering it.
            self.shared.space.find_range(buf, bytes)?;
            SendPayload::Zero(buf)
        };
        let mut mb = self.shared.mailboxes[dest].lock();
        mb.seq += 1;
        let send = PendingSend {
            seq: mb.seq,
            src: self.rank,
            tag,
            bytes,
            payload,
            flag: Arc::clone(&flag),
        };
        // Match the earliest posted compatible receive.
        let candidate = mb
            .recvs
            .iter()
            .enumerate()
            .filter(|(_, r)| matches(r.src_sel, self.rank, r.tag_sel, tag))
            .min_by_key(|(_, r)| r.seq)
            .map(|(i, _)| i);
        match candidate {
            Some(i) => {
                let recv = mb.recvs.swap_remove(i);
                Self::deliver(&self.shared, send, recv, dest);
            }
            None => {
                // Eager sends complete as soon as the payload is buffered,
                // even with no matching receive posted yet — like a real
                // MPI eager protocol. Rendezvous sends stay pending. No
                // rank can wait on this flag yet, so this completion is
                // no settlement for the monitor.
                let eager = matches!(send.payload, SendPayload::Eager(_));
                mb.sends.push(send);
                if eager {
                    let _ = flag.set(Ok(Status {
                        source: dest,
                        tag,
                        bytes,
                    }));
                }
            }
        }
        drop(mb);
        Ok(Request {
            flag,
            kind: RequestKind::Send,
            what: format!("Isend to {dest} tag {tag}"),
            completed: false,
        })
    }

    /// `MPI_Irecv`. `src` may be [`ANY_SOURCE`] or [`PROC_NULL_SRC`]
    /// (immediate empty completion), `tag` may be [`ANY_TAG`].
    pub fn irecv(
        &self,
        buf: Ptr,
        count: u64,
        dtype: MpiDatatype,
        src: i32,
        tag: i32,
    ) -> Result<Request, MpiError> {
        if src == PROC_NULL_SRC {
            return Ok(self.null_request(RequestKind::Recv, "Irecv from PROC_NULL"));
        }
        if src != ANY_SOURCE {
            self.check_rank(i64::from(src))?;
        }
        let cap = count * dtype.size();
        self.shared.space.find_range(buf, cap)?;
        let flag = Arc::<Flag>::default();
        let mut mb = self.shared.mailboxes[self.rank].lock();
        mb.seq += 1;
        let recv = PostedRecv {
            seq: mb.seq,
            src_sel: src,
            tag_sel: tag,
            ptr: buf,
            cap,
            flag: Arc::clone(&flag),
        };
        // Match the earliest compatible pending send — by recorded
        // mailbox seq, so the winner is fixed the moment both ops are
        // stamped, never by lock-acquisition timing. The candidates are
        // the per-`(src, tag)` oldest pending sends (non-overtaking pins
        // the order within a stream), seq-ascending, so candidate 0 is
        // the earliest. Only a wildcard selector can see more than one;
        // then *which* stream wins is a genuine platform choice, made by
        // an installed controller and otherwise candidate 0. Each head
        // is (send index, seq, src, tag).
        let mut heads: Vec<(usize, u64, usize, i32)> = Vec::new();
        for (i, s) in mb.sends.iter().enumerate() {
            if !matches(src, s.src, tag, s.tag) {
                continue;
            }
            match heads.iter_mut().find(|h| h.2 == s.src && h.3 == s.tag) {
                Some(h) if s.seq < h.1 => {
                    h.0 = i;
                    h.1 = s.seq;
                }
                Some(_) => {}
                None => heads.push((i, s.seq, s.src, s.tag)),
            }
        }
        heads.sort_by_key(|h| h.1);
        let k = match &self.shared.sched {
            Some(sched) if heads.len() > 1 => {
                let sigs: Vec<u64> = heads
                    .iter()
                    .map(|h| ((h.2 as u64) << 32) | u64::from(h.3 as u32))
                    .collect();
                sched
                    .choose(self.rank, ChoiceKind::WildcardRecv, &sigs)
                    .min(heads.len() - 1)
            }
            _ => 0,
        };
        match heads.get(k) {
            Some(&(i, ..)) => {
                let send = mb.sends.swap_remove(i);
                Self::deliver(&self.shared, send, recv, self.rank);
            }
            None => mb.recvs.push(recv),
        }
        drop(mb);
        Ok(Request {
            flag,
            kind: RequestKind::Recv,
            what: format!("Irecv from {src} tag {tag}"),
            completed: false,
        })
    }

    /// `MPI_Wait`; [`MpiError::Deadlock`] if every live rank is blocked.
    pub fn wait(&self, req: &mut Request) -> Result<Status, MpiError> {
        let monitor = &self.shared.monitor;
        let st = monitor.wait_until(self.rank, &req.what, || req.flag.get().cloned())??;
        req.completed = true;
        Ok(st)
    }

    /// `MPI_Waitall`.
    pub fn waitall(&self, reqs: &mut [Request]) -> Result<Vec<Status>, MpiError> {
        reqs.iter_mut().map(|r| self.wait(r)).collect()
    }

    /// `MPI_Waitany`: blocks until one of the *active* requests completes
    /// and returns its index and status. Already-completed requests are
    /// inactive (like `MPI_REQUEST_NULL`); if all are inactive, returns
    /// [`MpiError::BadRequest`]. [`MpiError::Deadlock`] if every live rank
    /// is blocked.
    pub fn waitany(&self, reqs: &mut [Request]) -> Result<(usize, Status), MpiError> {
        self.waitany_by(reqs, |r| r)
    }

    /// [`Comm::waitany`] over requests wrapped in `R`: `request` reaches
    /// each element's [`Request`]. A checking layer waits on its own
    /// request type this way and annotates the winner itself.
    pub fn waitany_by<R>(
        &self,
        reqs: &mut [R],
        request: impl Fn(&mut R) -> &mut Request,
    ) -> Result<(usize, Status), MpiError> {
        if reqs.iter_mut().all(|r| request(r).completed) {
            return Err(MpiError::BadRequest);
        }
        // The first active request (in index order) whose flag settled.
        let i = self.shared.monitor.wait_until(self.rank, "Waitany", || {
            reqs.iter_mut().position(|r| {
                let req = request(r);
                !req.completed && req.flag.get().is_some()
            })
        })?;
        let st = self.test(request(&mut reqs[i]))?.expect("settled");
        Ok((i, st))
    }

    /// `MPI_Test`.
    pub fn test(&self, req: &mut Request) -> Result<Option<Status>, MpiError> {
        match req.flag.get() {
            None => Ok(None),
            Some(Ok(st)) => {
                req.completed = true;
                Ok(Some(*st))
            }
            Some(Err(e)) => Err(e.clone()),
        }
    }

    /// `MPI_Send` (blocking; eager below [`EAGER_LIMIT`], synchronous
    /// above).
    pub fn send(
        &self,
        buf: Ptr,
        count: u64,
        dtype: MpiDatatype,
        dest: i64,
        tag: i32,
    ) -> Result<Status, MpiError> {
        let mut req = self.isend(buf, count, dtype, dest, tag)?;
        self.wait(&mut req)
    }

    /// `MPI_Recv` (blocking).
    pub fn recv(
        &self,
        buf: Ptr,
        count: u64,
        dtype: MpiDatatype,
        src: i32,
        tag: i32,
    ) -> Result<Status, MpiError> {
        let mut req = self.irecv(buf, count, dtype, src, tag)?;
        self.wait(&mut req)
    }

    /// `MPI_Sendrecv`.
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
        let mut rreq = self.irecv(recv_buf, recv_count, dtype, src, recv_tag)?;
        let mut sreq = self.isend(send_buf, send_count, dtype, dest, send_tag)?;
        self.wait(&mut sreq)?;
        self.wait(&mut rreq)
    }

    /// `MPI_Barrier`. [`MpiError::Deadlock`] instead of hanging if some
    /// rank never arrives.
    pub fn barrier(&self) -> Result<(), MpiError> {
        self.shared
            .monitor
            .barrier(self.rank, BarrierId::World)
            .map(drop)
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
        self.shared.coll.allreduce(
            self.rank,
            &self.shared.space,
            send_buf,
            recv_buf,
            count,
            dtype,
            op,
        )
    }

    /// `MPI_Reduce` to `root`.
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
        self.shared.coll.reduce(
            self.rank,
            root,
            &self.shared.space,
            send_buf,
            recv_buf,
            count,
            dtype,
            op,
        )
    }

    /// `MPI_Gather` to `root` (`count` elements contributed per rank;
    /// root's receive buffer holds `count * size` elements).
    #[allow(clippy::too_many_arguments)]
    pub fn gather(
        &self,
        send_buf: Ptr,
        recv_buf: Ptr,
        count: u64,
        dtype: MpiDatatype,
        root: usize,
    ) -> Result<(), MpiError> {
        self.shared.coll.gather(
            self.rank,
            root,
            &self.shared.space,
            send_buf,
            recv_buf,
            count,
            dtype,
        )
    }

    /// `MPI_Allgather`.
    pub fn allgather(
        &self,
        send_buf: Ptr,
        recv_buf: Ptr,
        count: u64,
        dtype: MpiDatatype,
    ) -> Result<(), MpiError> {
        self.shared.coll.allgather(
            self.rank,
            &self.shared.space,
            send_buf,
            recv_buf,
            count,
            dtype,
        )
    }

    /// `MPI_Scatter` from `root` (root provides `count * size` elements;
    /// every rank receives `count`).
    #[allow(clippy::too_many_arguments)]
    pub fn scatter(
        &self,
        send_buf: Ptr,
        recv_buf: Ptr,
        count: u64,
        dtype: MpiDatatype,
        root: usize,
    ) -> Result<(), MpiError> {
        self.shared.coll.scatter(
            self.rank,
            root,
            &self.shared.space,
            send_buf,
            recv_buf,
            count,
            dtype,
        )
    }

    /// `MPI_Bcast` from `root`.
    pub fn bcast(
        &self,
        buf: Ptr,
        count: u64,
        dtype: MpiDatatype,
        root: usize,
    ) -> Result<(), MpiError> {
        self.shared
            .coll
            .bcast(self.rank, root, &self.shared.space, buf, count, dtype)
    }
}

/// Run an `n`-rank world: spawns one thread per rank, invokes `f` with the
/// rank's communicator, joins all ranks, and returns their results in rank
/// order. A panicking rank propagates once the others finish; a rank
/// left waiting on it gets [`MpiError::Deadlock`].
pub fn run_world<T: Send>(
    n: usize,
    space: Arc<AddressSpace>,
    f: impl Fn(Comm) -> T + Send + Sync,
) -> Vec<T> {
    run_world_with_schedule(n, space, None, f)
}

/// Records a rank thread's exit with the world's monitor, also when the
/// rank unwinds.
struct RankExit(Arc<Monitor>, usize);

impl Drop for RankExit {
    fn drop(&mut self) {
        self.0.exit(self.1);
    }
}

/// As [`run_world`] with an optional schedule controller
/// deciding wildcard-receive matches and collective fold order (the
/// `explore` crate's choice points). Rank `r` consults controller lane
/// `r`; collectives use the world-global lane `n` — so a
/// `SchedulePlan` for this world needs `n + 1` lanes. There is no
/// uncontrolled schedule: `None` takes candidate 0 at every choice
/// point, exactly what a plan of all-default choices picks.
pub fn run_world_with_schedule<T: Send>(
    n: usize,
    space: Arc<AddressSpace>,
    sched: Option<Arc<dyn ScheduleController>>,
    f: impl Fn(Comm) -> T + Send + Sync,
) -> Vec<T> {
    assert!(n > 0, "world size must be positive");
    let monitor = Arc::new(Monitor::new(n));
    let shared = Arc::new(WorldShared {
        space,
        size: n,
        mailboxes: (0..n)
            .map(|_| Mutex::new(MailboxState::default()))
            .collect(),
        coll: CollShared::with_schedule(
            n,
            Arc::clone(&monitor),
            sched.as_ref().map(|s| (Arc::clone(s), n)),
        ),
        monitor,
        sched,
    });
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..n)
            .map(|rank| {
                let shared = Arc::clone(&shared);
                let f = &f;
                s.spawn(move || {
                    let _exit = RankExit(Arc::clone(&shared.monitor), rank);
                    f(Comm { rank, shared })
                })
            })
            .collect();
        handles
            .into_iter()
            .enumerate()
            .map(|(r, h)| {
                h.join().unwrap_or_else(|e| {
                    std::panic::resume_unwind(Box::new(format!("rank {r} panicked: {e:?}")))
                })
            })
            .collect()
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use sim_mem::{DeviceId, MemKind};

    fn space() -> Arc<AddressSpace> {
        Arc::new(AddressSpace::new())
    }

    #[test]
    fn blocking_send_recv_host_buffers() {
        let sp = space();
        let bufs: Vec<Ptr> = (0..2)
            .map(|_| sp.alloc_array::<f64>(MemKind::HostPageable, 8).unwrap())
            .collect();
        sp.write_slice_data::<f64>(bufs[0], &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0])
            .unwrap();
        let b = bufs.clone();
        run_world(2, Arc::clone(&sp), move |comm| {
            if comm.rank() == 0 {
                comm.send(b[0], 8, MpiDatatype::Double, 1, 7).unwrap();
            } else {
                let st = comm.recv(b[1], 8, MpiDatatype::Double, 0, 7).unwrap();
                assert_eq!(st.source, 0);
                assert_eq!(st.tag, 7);
                assert_eq!(st.bytes, 64);
            }
        });
        assert_eq!(sp.read_vec::<f64>(bufs[1], 8).unwrap()[7], 8.0);
    }

    #[test]
    fn device_to_device_cuda_aware_transfer() {
        // The CUDA-aware path: both buffers are device-resident; the
        // message moves directly between device windows.
        let sp = space();
        let d0 = sp
            .alloc_array::<f64>(MemKind::Device(DeviceId(0)), 1024)
            .unwrap();
        let d1 = sp
            .alloc_array::<f64>(MemKind::Device(DeviceId(1)), 1024)
            .unwrap();
        sp.with_slice_mut::<f64, _>(d0, 1024, |s| {
            for (i, v) in s.iter_mut().enumerate() {
                *v = i as f64;
            }
        })
        .unwrap();
        run_world(2, Arc::clone(&sp), move |comm| {
            if comm.rank() == 0 {
                // 8 KiB > EAGER_LIMIT: rendezvous zero-copy.
                comm.send(d0, 1024, MpiDatatype::Double, 1, 0).unwrap();
            } else {
                comm.recv(d1, 1024, MpiDatatype::Double, 0, 0).unwrap();
            }
        });
        assert_eq!(sp.read_vec::<f64>(d1, 1024).unwrap()[1023], 1023.0);
    }

    #[test]
    fn eager_sends_complete_without_receiver() {
        // Small both-send-first exchange must not deadlock.
        let sp = space();
        let b: Vec<Ptr> = (0..4)
            .map(|_| sp.alloc_array::<i32>(MemKind::HostPageable, 4).unwrap())
            .collect();
        let bb = b.clone();
        run_world(2, Arc::clone(&sp), move |comm| {
            let me = comm.rank();
            let peer = 1 - me as i64;
            let sbuf = bb[me];
            let rbuf = bb[2 + me];
            comm.send(sbuf, 4, MpiDatatype::Int, peer, 1).unwrap();
            comm.recv(rbuf, 4, MpiDatatype::Int, peer as i32, 1)
                .unwrap();
        });
    }

    #[test]
    fn isend_irecv_waitall() {
        let sp = space();
        let tx = sp.alloc_array::<f64>(MemKind::HostPageable, 4).unwrap();
        let rx = sp.alloc_array::<f64>(MemKind::HostPageable, 4).unwrap();
        sp.write_slice_data::<f64>(tx, &[9.0; 4]).unwrap();
        run_world(2, Arc::clone(&sp), move |comm| {
            if comm.rank() == 0 {
                let mut reqs = vec![comm.isend(tx, 4, MpiDatatype::Double, 1, 3).unwrap()];
                comm.waitall(&mut reqs).unwrap();
            } else {
                let mut r = comm.irecv(rx, 4, MpiDatatype::Double, 0, 3).unwrap();
                let st = comm.wait(&mut r).unwrap();
                assert!(r.is_completed());
                assert_eq!(st.bytes, 32);
            }
        });
        assert_eq!(sp.read_vec::<f64>(rx, 4).unwrap(), vec![9.0; 4]);
    }

    #[test]
    fn tag_matching_keeps_streams_separate() {
        let sp = space();
        let a = sp.alloc_array::<i32>(MemKind::HostPageable, 1).unwrap();
        let b = sp.alloc_array::<i32>(MemKind::HostPageable, 1).unwrap();
        let ra = sp.alloc_array::<i32>(MemKind::HostPageable, 1).unwrap();
        let rb = sp.alloc_array::<i32>(MemKind::HostPageable, 1).unwrap();
        sp.write_at::<i32>(a, 100).unwrap();
        sp.write_at::<i32>(b, 200).unwrap();
        run_world(2, Arc::clone(&sp), move |comm| {
            if comm.rank() == 0 {
                comm.send(a, 1, MpiDatatype::Int, 1, 10).unwrap();
                comm.send(b, 1, MpiDatatype::Int, 1, 20).unwrap();
            } else {
                // Receive in reverse tag order.
                comm.recv(rb, 1, MpiDatatype::Int, 0, 20).unwrap();
                comm.recv(ra, 1, MpiDatatype::Int, 0, 10).unwrap();
            }
        });
        assert_eq!(sp.read_at::<i32>(ra).unwrap(), 100);
        assert_eq!(sp.read_at::<i32>(rb).unwrap(), 200);
    }

    #[test]
    fn non_overtaking_same_tag() {
        let sp = space();
        let a = sp.alloc_array::<i32>(MemKind::HostPageable, 1).unwrap();
        let b = sp.alloc_array::<i32>(MemKind::HostPageable, 1).unwrap();
        let r1 = sp.alloc_array::<i32>(MemKind::HostPageable, 1).unwrap();
        let r2 = sp.alloc_array::<i32>(MemKind::HostPageable, 1).unwrap();
        sp.write_at::<i32>(a, 1).unwrap();
        sp.write_at::<i32>(b, 2).unwrap();
        run_world(2, Arc::clone(&sp), move |comm| {
            if comm.rank() == 0 {
                comm.send(a, 1, MpiDatatype::Int, 1, 0).unwrap();
                comm.send(b, 1, MpiDatatype::Int, 1, 0).unwrap();
            } else {
                comm.recv(r1, 1, MpiDatatype::Int, 0, 0).unwrap();
                comm.recv(r2, 1, MpiDatatype::Int, 0, 0).unwrap();
            }
        });
        assert_eq!(sp.read_at::<i32>(r1).unwrap(), 1, "FIFO per (src, tag)");
        assert_eq!(sp.read_at::<i32>(r2).unwrap(), 2);
    }

    #[test]
    fn any_source_any_tag() {
        let sp = space();
        let tx = sp.alloc_array::<i32>(MemKind::HostPageable, 1).unwrap();
        let rx = sp.alloc_array::<i32>(MemKind::HostPageable, 1).unwrap();
        sp.write_at::<i32>(tx, 42).unwrap();
        run_world(3, Arc::clone(&sp), move |comm| match comm.rank() {
            2 => {
                let st = comm
                    .recv(rx, 1, MpiDatatype::Int, ANY_SOURCE, ANY_TAG)
                    .unwrap();
                assert_eq!(st.source, 1);
                assert_eq!(st.tag, 5);
            }
            1 => {
                comm.send(tx, 1, MpiDatatype::Int, 2, 5).unwrap();
            }
            _ => {}
        });
        assert_eq!(sp.read_at::<i32>(rx).unwrap(), 42);
    }

    #[test]
    fn truncation_detected() {
        let sp = space();
        let big = sp.alloc_array::<f64>(MemKind::HostPageable, 8).unwrap();
        let small = sp.alloc_array::<f64>(MemKind::HostPageable, 2).unwrap();
        let results = run_world(2, Arc::clone(&sp), move |comm| {
            if comm.rank() == 0 {
                comm.send(big, 8, MpiDatatype::Double, 1, 0)
            } else {
                comm.recv(small, 2, MpiDatatype::Double, 0, 0)
            }
        });
        assert!(matches!(
            results[1],
            Err(MpiError::Truncated {
                message: 64,
                capacity: 16
            })
        ));
    }

    #[test]
    fn sendrecv_exchange() {
        let sp = space();
        let bufs: Vec<Ptr> = (0..4)
            .map(|_| sp.alloc_array::<f64>(MemKind::HostPageable, 2).unwrap())
            .collect();
        sp.write_slice_data::<f64>(bufs[0], &[10.0, 11.0]).unwrap();
        sp.write_slice_data::<f64>(bufs[1], &[20.0, 21.0]).unwrap();
        let b = bufs.clone();
        run_world(2, Arc::clone(&sp), move |comm| {
            let me = comm.rank();
            let peer = 1 - me as i64;
            comm.sendrecv(
                b[me],
                2,
                peer,
                0,
                b[2 + me],
                2,
                peer as i32,
                0,
                MpiDatatype::Double,
            )
            .unwrap();
        });
        assert_eq!(sp.read_vec::<f64>(bufs[2], 2).unwrap(), vec![20.0, 21.0]);
        assert_eq!(sp.read_vec::<f64>(bufs[3], 2).unwrap(), vec![10.0, 11.0]);
    }

    #[test]
    fn waitany_returns_first_completion() {
        let sp = space();
        let rx1 = sp.alloc_array::<i32>(MemKind::HostPageable, 1).unwrap();
        let rx2 = sp.alloc_array::<i32>(MemKind::HostPageable, 1).unwrap();
        let tx = sp.alloc_array::<i32>(MemKind::HostPageable, 1).unwrap();
        sp.write_at::<i32>(tx, 7).unwrap();
        run_world(2, Arc::clone(&sp), move |comm| {
            if comm.rank() == 0 {
                let mut reqs = vec![
                    comm.irecv(rx1, 1, MpiDatatype::Int, 1, 1).unwrap(),
                    comm.irecv(rx2, 1, MpiDatatype::Int, 1, 2).unwrap(),
                ];
                // Only tag 2 is ever sent: waitany must return index 1.
                let (i, st) = comm.waitany(&mut reqs).unwrap();
                assert_eq!(i, 1);
                assert_eq!(st.tag, 2);
                // The other request stays pending; a second send completes it.
                comm.barrier().unwrap();
                let (i, _) = comm.waitany(&mut reqs).unwrap();
                assert_eq!(i, 0);
                // All done: further waitany is an error.
                assert!(matches!(comm.waitany(&mut reqs), Err(MpiError::BadRequest)));
            } else {
                comm.send(tx, 1, MpiDatatype::Int, 0, 2).unwrap();
                comm.barrier().unwrap();
                comm.send(tx, 1, MpiDatatype::Int, 0, 1).unwrap();
            }
        });
    }

    #[test]
    fn proc_null_completes_immediately_with_no_data() {
        let sp = space();
        let buf = sp.alloc_array::<f64>(MemKind::HostPageable, 4).unwrap();
        sp.write_slice_data::<f64>(buf, &[1.0, 2.0, 3.0, 4.0])
            .unwrap();
        run_world(1, Arc::clone(&sp), move |comm| {
            let st = comm
                .send(buf, 4, MpiDatatype::Double, PROC_NULL, 0)
                .unwrap();
            assert_eq!(st.bytes, 0);
            let st = comm
                .recv(buf, 4, MpiDatatype::Double, PROC_NULL_SRC, 0)
                .unwrap();
            assert_eq!(st.bytes, 0);
            // sendrecv against PROC_NULL on both sides: pure no-op.
            comm.sendrecv(
                buf,
                4,
                PROC_NULL,
                0,
                buf,
                4,
                PROC_NULL_SRC,
                0,
                MpiDatatype::Double,
            )
            .unwrap();
        });
        // Data untouched.
        assert_eq!(
            sp.read_vec::<f64>(buf, 4).unwrap(),
            vec![1.0, 2.0, 3.0, 4.0]
        );
    }

    #[test]
    fn rank_out_of_bounds() {
        let sp = space();
        let b = sp.alloc_array::<i32>(MemKind::HostPageable, 1).unwrap();
        let results = run_world(1, Arc::clone(&sp), move |comm| {
            comm.send(b, 1, MpiDatatype::Int, 5, 0)
        });
        assert!(matches!(
            results[0],
            Err(MpiError::RankOutOfBounds { rank: 5, size: 1 })
        ));
    }

    #[test]
    fn test_polls_without_blocking() {
        let sp = space();
        let rx = sp.alloc_array::<i32>(MemKind::HostPageable, 1).unwrap();
        let tx = sp.alloc_array::<i32>(MemKind::HostPageable, 1).unwrap();
        sp.write_at::<i32>(tx, 3).unwrap();
        run_world(2, Arc::clone(&sp), move |comm| {
            if comm.rank() == 0 {
                let mut r = comm.irecv(rx, 1, MpiDatatype::Int, 1, 0).unwrap();
                // Poll until completion.
                loop {
                    if let Some(st) = comm.test(&mut r).unwrap() {
                        assert_eq!(st.source, 1);
                        break;
                    }
                    std::thread::yield_now();
                }
            } else {
                comm.send(tx, 1, MpiDatatype::Int, 0, 0).unwrap();
            }
        });
    }

    fn deadlock_ranks(r: &Result<Status, MpiError>) -> Vec<usize> {
        match r {
            Err(MpiError::Deadlock { waiting }) => waiting.iter().map(|w| w.0).collect(),
            other => panic!("expected a deadlock, got {other:?}"),
        }
    }

    #[test]
    fn recv_cycle_is_a_deadlock_naming_every_rank() {
        let sp = space();
        let bufs: Vec<Ptr> = (0..3)
            .map(|_| sp.alloc_array::<i32>(MemKind::HostPageable, 1).unwrap())
            .collect();
        let results = run_world(3, Arc::clone(&sp), move |comm| {
            let from = (comm.rank() + 1) % 3;
            comm.recv(bufs[comm.rank()], 1, MpiDatatype::Int, from as i32, 0)
        });
        for r in &results {
            assert_eq!(deadlock_ranks(r), [0, 1, 2]);
        }
        assert_eq!(results[0], results[2], "every waiter gets the same error");
        assert!(results[0]
            .as_ref()
            .unwrap_err()
            .to_string()
            .contains("rank 2 waits for Irecv from 0 tag 0"));
    }

    #[test]
    fn recv_from_a_returned_rank_is_a_deadlock() {
        let sp = space();
        let buf = sp.alloc_array::<i32>(MemKind::HostPageable, 1).unwrap();
        let results = run_world(2, Arc::clone(&sp), move |comm| {
            (comm.rank() == 0).then(|| comm.recv(buf, 1, MpiDatatype::Int, 1, 0))
        });
        assert_eq!(deadlock_ranks(results[0].as_ref().unwrap()), [0]);
    }

    #[test]
    fn barrier_two_of_three_reach_is_a_deadlock_and_stays_one() {
        let results = run_world(3, space(), |comm| {
            if comm.rank() == 2 {
                return None;
            }
            let first = comm.barrier();
            let start = std::time::Instant::now();
            let late = comm.barrier();
            Some((first, late, start.elapsed()))
        });
        for (first, late, took) in results.into_iter().flatten() {
            assert!(
                matches!(&first, Err(MpiError::Deadlock { waiting }) if waiting.len() == 2),
                "{first:?}"
            );
            assert_eq!(late, first, "a late arrival gets the same error");
            assert!(took < std::time::Duration::from_millis(100), "{took:?}");
        }
    }

    #[test]
    fn a_slow_partner_is_not_a_deadlock() {
        let sp = space();
        let buf = sp.alloc_array::<i32>(MemKind::HostPageable, 1).unwrap();
        let results = run_world(2, Arc::clone(&sp), move |comm| {
            if comm.rank() == 1 {
                std::thread::sleep(std::time::Duration::from_millis(200));
                comm.send(buf, 1, MpiDatatype::Int, 0, 0)
            } else {
                comm.recv(buf, 1, MpiDatatype::Int, 1, 0)
            }
        });
        assert!(results.iter().all(Result::is_ok), "{results:?}");
    }

    /// Many blocking handoffs beside two threads that never block: a
    /// rank that is merely descheduled is never taken for blocked.
    #[test]
    fn no_false_deadlock_beside_busy_threads() {
        use std::sync::atomic::{AtomicBool, Ordering};
        let sp = space();
        // 1024 doubles: above EAGER_LIMIT, so every send is rendezvous.
        let bufs: Vec<Ptr> = (0..2)
            .map(|_| sp.alloc_array::<f64>(MemKind::HostPageable, 1024).unwrap())
            .collect();
        let stop = AtomicBool::new(false);
        std::thread::scope(|s| {
            for _ in 0..2 {
                s.spawn(|| {
                    while !stop.load(Ordering::Relaxed) {
                        std::hint::spin_loop();
                    }
                });
            }
            let results = run_world(2, Arc::clone(&sp), |comm| -> Result<(), MpiError> {
                let me = comm.rank();
                for _ in 0..10_000 {
                    if me == 0 {
                        comm.send(bufs[0], 1024, MpiDatatype::Double, 1, 0)?;
                        comm.recv(bufs[0], 1024, MpiDatatype::Double, 1, 0)?;
                    } else {
                        comm.recv(bufs[1], 1024, MpiDatatype::Double, 0, 0)?;
                        comm.send(bufs[1], 1024, MpiDatatype::Double, 0, 0)?;
                    }
                }
                for _ in 0..1_000 {
                    comm.allreduce(bufs[me], bufs[me], 1, MpiDatatype::Double, ReduceOp::Sum)?;
                }
                Ok(())
            });
            stop.store(true, Ordering::Relaxed);
            assert!(results.iter().all(Result::is_ok), "{results:?}");
        });
    }

    #[test]
    fn a_panicking_rank_reraises_promptly() {
        let sp = space();
        let buf = sp.alloc_array::<i32>(MemKind::HostPageable, 1).unwrap();
        let start = std::time::Instant::now();
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            run_world(2, Arc::clone(&sp), move |comm| {
                if comm.rank() == 1 {
                    panic!("rank 1 dies");
                }
                let r = comm.recv(buf, 1, MpiDatatype::Int, 1, 0);
                assert!(matches!(r, Err(MpiError::Deadlock { .. })), "{r:?}");
            })
        }));
        let took = start.elapsed();
        let msg = caught.unwrap_err();
        assert!(
            msg.downcast_ref::<String>()
                .unwrap()
                .starts_with("rank 1 panicked"),
            "{msg:?}"
        );
        assert!(took < std::time::Duration::from_secs(1), "{took:?}");
    }

    #[test]
    fn rendezvous_reads_sender_buffer_at_match_time() {
        // Demonstrates WHY unsynchronized writes between Isend and Wait
        // corrupt data: the payload is read at match time.
        let sp = space();
        let tx = sp.alloc_array::<f64>(MemKind::HostPageable, 1024).unwrap();
        let rx = sp.alloc_array::<f64>(MemKind::HostPageable, 1024).unwrap();
        run_world(2, Arc::clone(&sp), move |comm| {
            if comm.rank() == 0 {
                sp_fill(comm.space(), tx, 1.0);
                let mut req = comm.isend(tx, 1024, MpiDatatype::Double, 1, 0).unwrap();
                // Overwrite the buffer BEFORE the receiver matched: the
                // user-visible corruption of a missing wait (the receiver
                // delays its recv until after our write via a barrier).
                sp_fill(comm.space(), tx, 2.0);
                comm.barrier().unwrap();
                comm.wait(&mut req).unwrap();
            } else {
                comm.barrier().unwrap(); // let rank 0 overwrite first
                comm.recv(rx, 1024, MpiDatatype::Double, 0, 0).unwrap();
                assert_eq!(
                    comm.space().read_at::<f64>(rx).unwrap(),
                    2.0,
                    "stale overwrite visible"
                );
            }
        });
    }

    fn sp_fill(space: &AddressSpace, p: Ptr, v: f64) {
        space
            .with_slice_mut::<f64, _>(p, 1024, |s| s.fill(v))
            .unwrap();
    }

    /// Satellite regression: a completing `irecv` and a blocking `recv`
    /// racing for the same pending sends must resolve by recorded
    /// mailbox seq (post order), never by completion-wait timing. Two
    /// threads share rank 0's communicator; their post order is pinned
    /// by a handshake, so the irecv (posted first) must take the
    /// first-seq send and the blocking recv the second — on every run.
    #[test]
    fn concurrent_irecv_and_recv_resolve_by_seq() {
        for _ in 0..64 {
            let sp = space();
            let a = sp.alloc_array::<i32>(MemKind::HostPageable, 1).unwrap();
            let b = sp.alloc_array::<i32>(MemKind::HostPageable, 1).unwrap();
            let tx1 = sp.alloc_array::<i32>(MemKind::HostPageable, 1).unwrap();
            let tx2 = sp.alloc_array::<i32>(MemKind::HostPageable, 1).unwrap();
            sp.write_at::<i32>(tx1, 111).unwrap();
            sp.write_at::<i32>(tx2, 222).unwrap();
            run_world(2, Arc::clone(&sp), move |comm| {
                if comm.rank() == 1 {
                    comm.send(tx1, 1, MpiDatatype::Int, 0, 0).unwrap();
                    comm.send(tx2, 1, MpiDatatype::Int, 0, 0).unwrap();
                    comm.barrier().unwrap();
                } else {
                    comm.barrier().unwrap(); // both sends are now pending
                    let (sig_tx, sig_rx) = std::sync::mpsc::channel::<()>();
                    std::thread::scope(|s| {
                        let comm = &comm;
                        let helper = s.spawn(move || {
                            let mut req = comm.irecv(a, 1, MpiDatatype::Int, 1, 0).unwrap();
                            sig_tx.send(()).unwrap(); // posted (and seq-stamped)
                            comm.wait(&mut req).unwrap()
                        });
                        sig_rx.recv().unwrap();
                        let st2 = comm.recv(b, 1, MpiDatatype::Int, 1, 0).unwrap();
                        let st1 = helper.join().unwrap();
                        assert_eq!(st1.bytes, 4);
                        assert_eq!(st2.bytes, 4);
                    });
                }
            });
            assert_eq!(sp.read_at::<i32>(a).unwrap(), 111, "irecv posted first");
            assert_eq!(sp.read_at::<i32>(b).unwrap(), 222, "recv posted second");
        }
    }

    /// Satellite regression: an eager send's flag settles at post time;
    /// a later truncating receive failing both sides of the match must
    /// not flip the sender's already-settled success (first settlement
    /// wins, regardless of lock-acquisition timing).
    #[test]
    fn eager_send_flag_survives_truncating_recv() {
        let sp = space();
        let tx = sp.alloc_array::<i32>(MemKind::HostPageable, 4).unwrap();
        let small = sp.alloc_array::<i32>(MemKind::HostPageable, 1).unwrap();
        let results = run_world(2, Arc::clone(&sp), move |comm| {
            if comm.rank() == 1 {
                // Eager: completes at post, before any receive exists.
                let mut req = comm.isend(tx, 4, MpiDatatype::Int, 0, 0).unwrap();
                comm.barrier().unwrap();
                comm.barrier().unwrap(); // rank 0's truncating recv ran
                comm.wait(&mut req)
            } else {
                comm.barrier().unwrap();
                let r = comm.recv(small, 1, MpiDatatype::Int, 1, 0);
                assert!(matches!(r, Err(MpiError::Truncated { .. })));
                comm.barrier().unwrap();
                Ok(Status {
                    source: 1,
                    tag: 0,
                    bytes: 0,
                })
            }
        });
        assert!(
            results[0].is_ok(),
            "settled eager send flipped to {:?}",
            results[0]
        );
    }

    /// The wildcard choice point: with no controller, and under an
    /// all-defaults plan, an `ANY_TAG` receive matches the minimum-seq
    /// pending send (tag 10); a plan choosing candidate 1 matches the
    /// other `(src, tag)` stream. Non-wildcard matching never consults
    /// the controller.
    #[test]
    fn wildcard_choice_point_follows_the_plan() {
        use explore::SchedulePlan;
        for (rank0_choices, want_tag) in [
            (None, 10),
            (Some(vec![]), 10),
            (Some(vec![0]), 10),
            (Some(vec![1]), 20),
        ] {
            let sp = space();
            let a = sp.alloc_array::<i32>(MemKind::HostPageable, 1).unwrap();
            let b = sp.alloc_array::<i32>(MemKind::HostPageable, 1).unwrap();
            let rx = sp.alloc_array::<i32>(MemKind::HostPageable, 1).unwrap();
            sp.write_at::<i32>(a, 100).unwrap();
            sp.write_at::<i32>(b, 200).unwrap();
            let plan = rank0_choices
                .map(|choices| SchedulePlan::with_choices(vec![choices, vec![], vec![]]));
            let sched = plan
                .as_ref()
                .map(|p| Arc::clone(p) as Arc<dyn ScheduleController>);
            run_world_with_schedule(2, Arc::clone(&sp), sched, move |comm| {
                if comm.rank() == 1 {
                    comm.send(a, 1, MpiDatatype::Int, 0, 10).unwrap();
                    comm.send(b, 1, MpiDatatype::Int, 0, 20).unwrap();
                    comm.barrier().unwrap();
                } else {
                    comm.barrier().unwrap(); // both streams pending
                    let st = comm.recv(rx, 1, MpiDatatype::Int, 1, ANY_TAG).unwrap();
                    assert_eq!(st.tag, want_tag);
                    // Drain the other message; a unique (src, tag) head
                    // never consults the controller.
                    let other = if want_tag == 10 { 20 } else { 10 };
                    comm.recv(rx, 1, MpiDatatype::Int, 1, other).unwrap();
                }
            });
            // The second receive took the message the first left.
            assert_eq!(
                sp.read_at::<i32>(rx).unwrap(),
                if want_tag == 10 { 200 } else { 100 }
            );
            if let Some(plan) = plan {
                let decisions = plan.decisions(0);
                assert_eq!(decisions.len(), 1, "one wildcard consultation");
                assert_eq!(decisions[0].arity, 2);
                assert_eq!(decisions[0].kind, explore::ChoiceKind::WildcardRecv);
            }
        }
    }
}
