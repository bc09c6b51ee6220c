//! The simulated CUDA device: stream queues, deferred forcing, and the
//! CUDA-like API surface.
//!
//! One `CudaDevice` corresponds to one GPU owned by one MPI rank (the
//! paper's setup gives each process its own V100). The device shares the
//! global [`AddressSpace`] so CUDA-aware MPI can address its memory.

use crate::error::CudaError;
use crate::exec;
use crate::semantics::{self, CopyKind, HostSync};
use crate::stream::{
    DefaultStreamMode, Dep, EventId, EventState, Op, OpKind, StreamFlags, StreamId, StreamState,
};
use explore::{ChoiceKind, ScheduleController};
use kernel_ir::{KernelId, KernelRegistry, LaunchArg, LaunchGrid};
use sim_mem::{AddressSpace, AllocationInfo, DeviceId, MemKind, Pod, PointerAttr, Ptr};
use std::sync::Arc;

/// CUDA-call counters for one device — the "CUDA" section of Table I.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CudaCounters {
    /// Streams in use (default stream + user streams created).
    pub streams: u64,
    /// `cudaMemset(+Async)` calls.
    pub memset_calls: u64,
    /// `cudaMemcpy(+Async)` calls.
    pub memcpy_calls: u64,
    /// Explicit synchronization calls (device/stream/event sync,
    /// stream query, stream-wait-event).
    pub sync_calls: u64,
    /// Kernel launches.
    pub kernel_calls: u64,
    /// Events created.
    pub events: u64,
    /// Device operations actually executed (diagnostics).
    pub ops_executed: u64,
}

/// A simulated CUDA device. See module docs.
pub struct CudaDevice {
    id: DeviceId,
    space: Arc<AddressSpace>,
    registry: Arc<KernelRegistry>,
    streams: Vec<StreamState>,
    events: Vec<EventState>,
    counters: CudaCounters,
    default_mode: DefaultStreamMode,
    /// Schedule controller plus the lane (rank) it is consulted on for
    /// full-device drain order. `None`: candidate 0 at every drain step.
    sched: Option<(Arc<dyn ScheduleController>, usize)>,
}

impl CudaDevice {
    /// Create a device with its implicit default stream.
    pub fn new(id: DeviceId, space: Arc<AddressSpace>, registry: Arc<KernelRegistry>) -> Self {
        CudaDevice {
            id,
            space,
            registry,
            streams: vec![StreamState::new(StreamFlags::Default)],
            events: Vec::new(),
            counters: CudaCounters {
                streams: 1,
                ..CudaCounters::default()
            },
            default_mode: DefaultStreamMode::Legacy,
            sched: None,
        }
    }

    /// Install a schedule controller consulted (on `lane`) for the
    /// completion order of independent queued ops during full-device
    /// drains (`CudaDevice::force_all` sites: `cudaDeviceSynchronize`,
    /// `cudaFree`, teardown flush). Targeted syncs
    /// (`cudaStreamSynchronize` etc.) keep their mandated order.
    pub fn set_schedule_controller(&mut self, sched: Arc<dyn ScheduleController>, lane: usize) {
        self.sched = Some((sched, lane));
    }

    /// Select legacy vs per-thread default-stream semantics (the
    /// `--default-stream per-thread` compile flag). Must be chosen before
    /// work is enqueued.
    pub fn set_default_stream_mode(&mut self, mode: DefaultStreamMode) {
        assert!(
            self.streams.iter().all(|s| s.enqueued == 0),
            "default-stream mode must be set before any work is enqueued"
        );
        self.default_mode = mode;
    }

    /// The active default-stream mode.
    pub fn default_stream_mode(&self) -> DefaultStreamMode {
        self.default_mode
    }

    /// The device id.
    pub fn id(&self) -> DeviceId {
        self.id
    }

    /// The shared address space.
    pub fn space(&self) -> &Arc<AddressSpace> {
        &self.space
    }

    /// The kernel registry.
    pub fn registry(&self) -> &Arc<KernelRegistry> {
        &self.registry
    }

    /// Counter snapshot.
    pub fn counters(&self) -> CudaCounters {
        self.counters
    }

    // ---- memory management --------------------------------------------------

    /// `cudaMalloc`: device-resident allocation.
    pub fn malloc(&mut self, bytes: u64) -> Result<Ptr, CudaError> {
        Ok(self.space.alloc(MemKind::Device(self.id), bytes)?)
    }

    /// `cudaMalloc` sized in elements of `T`.
    pub fn malloc_array<T: Pod>(&mut self, n: u64) -> Result<Ptr, CudaError> {
        Ok(self.space.alloc_array::<T>(MemKind::Device(self.id), n)?)
    }

    /// `cudaMallocManaged`.
    pub fn malloc_managed(&mut self, bytes: u64) -> Result<Ptr, CudaError> {
        Ok(self
            .space
            .alloc_in_shard(MemKind::Managed, self.id.0, bytes)?)
    }

    /// `cudaHostAlloc`: pinned host memory.
    pub fn host_alloc(&mut self, bytes: u64) -> Result<Ptr, CudaError> {
        Ok(self
            .space
            .alloc_in_shard(MemKind::HostPinned, self.id.0, bytes)?)
    }

    /// Plain `malloc`: pageable host memory (tracked so that UVA queries
    /// and TypeART callbacks work for host buffers as well).
    pub fn host_malloc(&mut self, bytes: u64) -> Result<Ptr, CudaError> {
        Ok(self
            .space
            .alloc_in_shard(MemKind::HostPageable, self.id.0, bytes)?)
    }

    /// `cudaFree`: synchronizes the whole device, then releases.
    /// (Paper §III-B2: "memory management calls like cudaFree synchronize
    /// with the host across all streams".)
    pub fn free(&mut self, ptr: Ptr) -> Result<AllocationInfo, CudaError> {
        self.force_all()?;
        Ok(self.space.free(ptr)?)
    }

    /// Validate a `free` target without freeing it (see
    /// [`AddressSpace::free_validate`]).
    pub fn free_validate(&self, ptr: Ptr) -> Result<(), CudaError> {
        Ok(self.space.free_validate(ptr)?)
    }

    /// `cudaFreeAsync`: stream-ordered release — waits only for the given
    /// stream's prior work.
    pub fn free_async(&mut self, ptr: Ptr, stream: StreamId) -> Result<AllocationInfo, CudaError> {
        let target = self.check_stream(stream)?.enqueued;
        self.complete_through(stream, target)?;
        Ok(self.space.free(ptr)?)
    }

    /// `cuPointerGetAttribute` analogue.
    pub fn pointer_attributes(&self, ptr: Ptr) -> Result<PointerAttr, CudaError> {
        Ok(self.space.attributes(ptr)?)
    }

    // ---- streams -------------------------------------------------------------

    /// `cudaStreamCreate(WithFlags)`.
    pub fn stream_create(&mut self, flags: StreamFlags) -> StreamId {
        self.counters.streams += 1;
        self.streams.push(StreamState::new(flags));
        StreamId(self.streams.len() as u32 - 1)
    }

    /// `cudaStreamDestroy`: completes outstanding work, then retires the
    /// handle.
    pub fn stream_destroy(&mut self, s: StreamId) -> Result<(), CudaError> {
        if s.is_default() {
            return Err(CudaError::InvalidStream(0));
        }
        let target = self.check_stream(s)?.enqueued;
        self.complete_through(s, target)?;
        self.streams[s.0 as usize].alive = false;
        Ok(())
    }

    /// Stream flags (for the checker's non-blocking bookkeeping).
    pub fn stream_flags(&self, s: StreamId) -> Result<StreamFlags, CudaError> {
        Ok(self.check_stream(s)?.flags)
    }

    /// Ids of all live streams (default first).
    pub fn live_streams(&self) -> Vec<StreamId> {
        self.streams
            .iter()
            .enumerate()
            .filter(|(_, st)| st.alive)
            .map(|(i, _)| StreamId(i as u32))
            .collect()
    }

    fn check_stream(&self, s: StreamId) -> Result<&StreamState, CudaError> {
        let st = self
            .streams
            .get(s.0 as usize)
            .ok_or(CudaError::InvalidStream(s.0))?;
        if !st.alive {
            return Err(CudaError::StreamDestroyed(s.0));
        }
        Ok(st)
    }

    // ---- enqueue / force machinery --------------------------------------------

    /// Build the dependency set for an op about to be enqueued on `s`,
    /// implementing the legacy default-stream logical barriers (Fig. 3).
    fn barrier_deps(&mut self, s: StreamId) -> Vec<Dep> {
        let mut deps = std::mem::take(&mut self.streams[s.0 as usize].pending_deps);
        if self.default_mode == DefaultStreamMode::PerThread {
            // Per-thread default stream: no implicit barriers (§VI-B).
            return deps;
        }
        if s.is_default() {
            // Default-stream work waits for all previously enqueued work on
            // every blocking user stream.
            for (i, st) in self.streams.iter().enumerate().skip(1) {
                if st.alive && st.is_blocking() && st.enqueued > st.completed {
                    deps.push(Dep {
                        stream: StreamId(i as u32),
                        seq: st.enqueued,
                    });
                }
            }
        } else if self.streams[s.0 as usize].is_blocking() {
            // Blocking user-stream work waits for prior default-stream work.
            let d = &self.streams[0];
            if d.enqueued > d.completed {
                deps.push(Dep {
                    stream: StreamId::DEFAULT,
                    seq: d.enqueued,
                });
            }
        }
        deps
    }

    fn enqueue(&mut self, s: StreamId, kind: OpKind) -> Result<u64, CudaError> {
        self.check_stream(s)?;
        let deps = self.barrier_deps(s);
        let st = &mut self.streams[s.0 as usize];
        st.queue.push_back(Op { kind, deps });
        st.enqueued += 1;
        Ok(st.enqueued)
    }

    /// Force completion of the first `seq` operations enqueued on `s`.
    fn complete_through(&mut self, s: StreamId, seq: u64) -> Result<(), CudaError> {
        loop {
            let st = &self.streams[s.0 as usize];
            if st.completed >= seq.min(st.enqueued) {
                return Ok(());
            }
            let op = self.streams[s.0 as usize]
                .queue
                .pop_front()
                .expect("completed < enqueued implies non-empty queue");
            // Count the op as completed *before* executing so a device
            // fault cannot wedge the queue.
            self.streams[s.0 as usize].completed += 1;
            for dep in &op.deps {
                self.complete_through(dep.stream, dep.seq)?;
            }
            self.execute(op.kind)?;
        }
    }

    fn execute(&mut self, kind: OpKind) -> Result<(), CudaError> {
        self.counters.ops_executed += 1;
        match kind {
            OpKind::Kernel { kernel, grid, args } => {
                exec::execute_kernel(&self.space, &self.registry, kernel, grid, &args)
            }
            OpKind::Copy { dst, src, len } => Ok(self.space.copy(dst, src, len)?),
            OpKind::Copy2D {
                dst,
                dpitch,
                src,
                spitch,
                width,
                height,
            } => {
                for row in 0..height {
                    self.space
                        .copy(dst.offset(row * dpitch), src.offset(row * spitch), width)?;
                }
                Ok(())
            }
            OpKind::Memset { ptr, value, len } => Ok(self.space.fill(ptr, len, value)?),
            OpKind::EventRecord { .. } => Ok(()),
        }
    }

    /// True when the first `seq` ops of the dep's stream have executed
    /// (clamped like [`CudaDevice::complete_through`]'s target).
    fn dep_satisfied(&self, d: Dep) -> bool {
        let st = &self.streams[d.stream.0 as usize];
        st.completed >= d.seq.min(st.enqueued)
    }

    /// The stream whose front op a full-device drain offers as candidate
    /// 0: start at the lowest-index live non-idle stream and follow each
    /// front op's first unsatisfied dependency (the order a
    /// stream-by-stream drain completing dependencies first would take).
    /// Terminates because the dep graph is acyclic — a dep's seq only
    /// references work enqueued before the depending op.
    fn default_next(&self) -> Option<u32> {
        let mut cur = (0..self.streams.len())
            .find(|&i| self.streams[i].alive && !self.streams[i].queue.is_empty())?
            as u32;
        loop {
            let op = self.streams[cur as usize]
                .queue
                .front()
                .expect("an unsatisfied dep implies a non-empty queue");
            match op.deps.iter().find(|d| !self.dep_satisfied(**d)) {
                Some(d) => cur = d.stream.0,
                None => return Some(cur),
            }
        }
    }

    /// Drain every live stream. Independent queued ops genuinely commute
    /// at a full-device sync, so this completes ONE ready front op at a
    /// time: candidate 0 is [`Self::default_next`]'s, then every other
    /// stream whose front op is ready. An installed controller picks
    /// when there are two or more; otherwise candidate 0 runs.
    fn force_all(&mut self) -> Result<(), CudaError> {
        while let Some(first) = self.default_next() {
            let mut cands: Vec<u32> = vec![first];
            for (i, st) in self.streams.iter().enumerate() {
                if i as u32 == first || !st.alive {
                    continue;
                }
                let Some(op) = st.queue.front() else {
                    continue;
                };
                if op.deps.iter().all(|d| self.dep_satisfied(*d)) {
                    cands.push(i as u32);
                }
            }
            let pick = match &self.sched {
                Some((ctrl, lane)) if cands.len() > 1 => {
                    let sigs: Vec<u64> = cands
                        .iter()
                        .map(|&s| {
                            self.streams[s as usize]
                                .queue
                                .front()
                                .expect("candidates have front ops")
                                .kind
                                .drain_sig()
                        })
                        .collect();
                    ctrl.choose(*lane, ChoiceKind::StreamDrain, &sigs)
                        .min(cands.len() - 1)
                }
                _ => 0,
            };
            let s = cands[pick] as usize;
            let op = self.streams[s]
                .queue
                .pop_front()
                .expect("candidates have front ops");
            self.streams[s].completed += 1;
            // Candidates are ready by construction: execute directly.
            self.execute(op.kind)?;
        }
        Ok(())
    }

    // ---- kernel launch ----------------------------------------------------------

    /// `<<<grid>>>` kernel launch on a stream.
    pub fn launch(
        &mut self,
        kernel: KernelId,
        grid: LaunchGrid,
        stream: StreamId,
        args: Vec<LaunchArg>,
    ) -> Result<(), CudaError> {
        self.counters.kernel_calls += 1;
        exec::validate_launch(&self.space, self.registry.def(kernel), &args)?;
        self.enqueue(stream, OpKind::Kernel { kernel, grid, args })?;
        Ok(())
    }

    // ---- memory operations ---------------------------------------------------------

    /// `cudaMemcpy`: enqueued on the default stream; blocks the host when
    /// the semantics table says so.
    pub fn memcpy(
        &mut self,
        dst: Ptr,
        src: Ptr,
        len: u64,
        kind: CopyKind,
    ) -> Result<(), CudaError> {
        self.memcpy_impl(dst, src, len, kind, StreamId::DEFAULT, false)
    }

    /// `cudaMemcpyAsync` on a stream.
    pub fn memcpy_async(
        &mut self,
        dst: Ptr,
        src: Ptr,
        len: u64,
        kind: CopyKind,
        stream: StreamId,
    ) -> Result<(), CudaError> {
        self.memcpy_impl(dst, src, len, kind, stream, true)
    }

    fn memcpy_impl(
        &mut self,
        dst: Ptr,
        src: Ptr,
        len: u64,
        kind: CopyKind,
        stream: StreamId,
        is_async: bool,
    ) -> Result<(), CudaError> {
        self.counters.memcpy_calls += 1;
        let dk = self.space.attributes(dst)?.kind;
        let sk = self.space.attributes(src)?.kind;
        let resolved = semantics::resolve_copy_kind(kind, dk, sk)?;
        let seq = self.enqueue(stream, OpKind::Copy { dst, src, len })?;
        if semantics::memcpy_host_sync(resolved, is_async) == HostSync::Blocking {
            self.complete_through(stream, seq)?;
        }
        Ok(())
    }

    /// `cudaMemcpy2D`: pitched copy of `height` rows of `width` bytes
    /// (strided sub-matrix transfer — column halos, tiles). Host-sync
    /// semantics follow the plain memcpy rules for the resolved direction.
    #[allow(clippy::too_many_arguments)]
    pub fn memcpy_2d(
        &mut self,
        dst: Ptr,
        dpitch: u64,
        src: Ptr,
        spitch: u64,
        width: u64,
        height: u64,
        kind: CopyKind,
    ) -> Result<(), CudaError> {
        self.memcpy_2d_impl(
            dst,
            dpitch,
            src,
            spitch,
            width,
            height,
            kind,
            StreamId::DEFAULT,
            false,
        )
    }

    /// `cudaMemcpy2DAsync` on a stream.
    #[allow(clippy::too_many_arguments)]
    pub fn memcpy_2d_async(
        &mut self,
        dst: Ptr,
        dpitch: u64,
        src: Ptr,
        spitch: u64,
        width: u64,
        height: u64,
        kind: CopyKind,
        stream: StreamId,
    ) -> Result<(), CudaError> {
        self.memcpy_2d_impl(dst, dpitch, src, spitch, width, height, kind, stream, true)
    }

    #[allow(clippy::too_many_arguments)]
    fn memcpy_2d_impl(
        &mut self,
        dst: Ptr,
        dpitch: u64,
        src: Ptr,
        spitch: u64,
        width: u64,
        height: u64,
        kind: CopyKind,
        stream: StreamId,
        is_async: bool,
    ) -> Result<(), CudaError> {
        if width > dpitch || width > spitch {
            return Err(CudaError::InvalidCopyKind {
                detail: format!("width {width} exceeds pitch (dpitch {dpitch}, spitch {spitch})"),
            });
        }
        self.counters.memcpy_calls += 1;
        let dk = self.space.attributes(dst)?.kind;
        let sk = self.space.attributes(src)?.kind;
        let resolved = semantics::resolve_copy_kind(kind, dk, sk)?;
        // Validate the full strided footprint up front so a fault surfaces
        // at the call site, not mid-execution.
        if height > 0 {
            let span = (height - 1) * dpitch + width;
            self.space.find_range(dst, span)?;
            let span = (height - 1) * spitch + width;
            self.space.find_range(src, span)?;
        }
        let seq = self.enqueue(
            stream,
            OpKind::Copy2D {
                dst,
                dpitch,
                src,
                spitch,
                width,
                height,
            },
        )?;
        if semantics::memcpy_host_sync(resolved, is_async) == HostSync::Blocking {
            self.complete_through(stream, seq)?;
        }
        Ok(())
    }

    /// `cudaMemset`: enqueued on the default stream.
    pub fn memset(&mut self, ptr: Ptr, value: u8, len: u64) -> Result<(), CudaError> {
        self.memset_impl(ptr, value, len, StreamId::DEFAULT, false)
    }

    /// `cudaMemsetAsync` on a stream.
    pub fn memset_async(
        &mut self,
        ptr: Ptr,
        value: u8,
        len: u64,
        stream: StreamId,
    ) -> Result<(), CudaError> {
        self.memset_impl(ptr, value, len, stream, true)
    }

    fn memset_impl(
        &mut self,
        ptr: Ptr,
        value: u8,
        len: u64,
        stream: StreamId,
        is_async: bool,
    ) -> Result<(), CudaError> {
        self.counters.memset_calls += 1;
        let kind = self.space.attributes(ptr)?.kind;
        let seq = self.enqueue(stream, OpKind::Memset { ptr, value, len })?;
        if semantics::memset_host_sync(kind, is_async) == HostSync::Blocking {
            self.complete_through(stream, seq)?;
        }
        Ok(())
    }

    // ---- synchronization --------------------------------------------------------------

    /// `cudaDeviceSynchronize`.
    pub fn device_synchronize(&mut self) -> Result<(), CudaError> {
        self.counters.sync_calls += 1;
        self.force_all()
    }

    /// `cudaStreamSynchronize`.
    pub fn stream_synchronize(&mut self, s: StreamId) -> Result<(), CudaError> {
        self.counters.sync_calls += 1;
        let target = self.check_stream(s)?.enqueued;
        self.complete_through(s, target)
    }

    /// `cudaStreamQuery`, modeled as the busy-wait synchronization the
    /// paper describes (§III-B1): the simulated device makes progress only
    /// when forced, so the query forces completion and reports success.
    pub fn stream_query(&mut self, s: StreamId) -> Result<bool, CudaError> {
        self.counters.sync_calls += 1;
        let target = self.check_stream(s)?.enqueued;
        self.complete_through(s, target)?;
        Ok(true)
    }

    /// Non-forcing idleness check (diagnostics; not part of the modeled
    /// CUDA API).
    pub fn is_stream_idle(&self, s: StreamId) -> Result<bool, CudaError> {
        Ok(self.check_stream(s)?.is_idle())
    }

    // ---- events -----------------------------------------------------------------------

    /// `cudaEventCreate`.
    pub fn event_create(&mut self) -> EventId {
        self.counters.events += 1;
        self.events.push(EventState {
            alive: true,
            recorded: None,
        });
        EventId(self.events.len() as u32 - 1)
    }

    fn check_event(&self, e: EventId) -> Result<EventState, CudaError> {
        let st = self
            .events
            .get(e.0 as usize)
            .ok_or(CudaError::InvalidEvent(e.0))?;
        if !st.alive {
            return Err(CudaError::InvalidEvent(e.0));
        }
        Ok(*st)
    }

    /// Validate an event handle without touching it. Checker-side
    /// precondition: a record that will fail must not leave annotations
    /// behind, so the handle is checked before any emission.
    pub fn event_validate(&self, e: EventId) -> Result<(), CudaError> {
        self.check_event(e).map(|_| ())
    }

    /// `cudaEventRecord`: places a completion marker on `stream`.
    pub fn event_record(&mut self, e: EventId, stream: StreamId) -> Result<(), CudaError> {
        self.check_event(e)?;
        let seq = self.enqueue(stream, OpKind::EventRecord { event: e })?;
        self.events[e.0 as usize].recorded = Some(Dep { stream, seq });
        Ok(())
    }

    /// `cudaEventSynchronize`: blocks until the marker completes.
    pub fn event_synchronize(&mut self, e: EventId) -> Result<(), CudaError> {
        self.counters.sync_calls += 1;
        let rec = self
            .check_event(e)?
            .recorded
            .ok_or(CudaError::EventNotRecorded(e.0))?;
        self.complete_through(rec.stream, rec.seq)
    }

    /// `cudaEventQuery` (non-forcing).
    pub fn event_query(&mut self, e: EventId) -> Result<bool, CudaError> {
        match self.check_event(e)?.recorded {
            None => Err(CudaError::EventNotRecorded(e.0)),
            Some(rec) => Ok(self.streams[rec.stream.0 as usize].completed >= rec.seq),
        }
    }

    /// `cudaEventDestroy`.
    pub fn event_destroy(&mut self, e: EventId) -> Result<(), CudaError> {
        self.check_event(e)?;
        self.events[e.0 as usize].alive = false;
        Ok(())
    }

    /// `cudaStreamWaitEvent`: all *future* work on `stream` waits for the
    /// event's recorded position.
    pub fn stream_wait_event(&mut self, stream: StreamId, e: EventId) -> Result<(), CudaError> {
        self.counters.sync_calls += 1;
        let rec = self
            .check_event(e)?
            .recorded
            .ok_or(CudaError::EventNotRecorded(e.0))?;
        self.check_stream(stream)?;
        self.streams[stream.0 as usize].pending_deps.push(rec);
        Ok(())
    }

    /// Where the event was recorded (for the checker's event→stream map).
    pub fn event_stream(&self, e: EventId) -> Result<Option<StreamId>, CudaError> {
        Ok(self.check_event(e)?.recorded.map(|d| d.stream))
    }

    /// Flush all outstanding work (program teardown).
    pub fn flush(&mut self) -> Result<(), CudaError> {
        self.force_all()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kernel_ir::ast::ScalarTy;
    use kernel_ir::builder::*;

    struct Fixture {
        dev: CudaDevice,
        fill: KernelId,
        copy: KernelId,
    }

    /// fill(p, v, n): p[tid] = v; copy(dst, src, n): dst[tid] = src[tid].
    fn fixture() -> Fixture {
        let space = Arc::new(AddressSpace::new());
        let mut reg = KernelRegistry::new();
        let mut b = KernelBuilder::new("fill");
        let p = b.ptr_param("p", ScalarTy::F64);
        let v = b.scalar_param("v", ScalarTy::F64);
        let n = b.scalar_param("n", ScalarTy::I64);
        b.if_(tid().lt(n.get()), |bb| bb.store(p, tid(), v.get()));
        let fill = reg.register_ir(b.finish()).unwrap();

        let mut b = KernelBuilder::new("copy");
        let dst = b.ptr_param("dst", ScalarTy::F64);
        let src = b.ptr_param("src", ScalarTy::F64);
        let n = b.scalar_param("n", ScalarTy::I64);
        b.if_(tid().lt(n.get()), |bb| {
            bb.store(dst, tid(), load(src, tid()))
        });
        let copy = reg.register_ir(b.finish()).unwrap();

        Fixture {
            dev: CudaDevice::new(DeviceId(0), space, Arc::new(reg)),
            fill,
            copy,
        }
    }

    fn launch_fill(f: &mut Fixture, p: Ptr, v: f64, n: u64, s: StreamId) {
        let (fill, _) = (f.fill, ());
        f.dev
            .launch(
                fill,
                LaunchGrid::cover(n, 32),
                s,
                vec![
                    LaunchArg::Ptr(p),
                    LaunchArg::F64(v),
                    LaunchArg::I64(n as i64),
                ],
            )
            .unwrap();
    }

    fn launch_copy(f: &mut Fixture, dst: Ptr, src: Ptr, n: u64, s: StreamId) {
        let copy = f.copy;
        f.dev
            .launch(
                copy,
                LaunchGrid::cover(n, 32),
                s,
                vec![
                    LaunchArg::Ptr(dst),
                    LaunchArg::Ptr(src),
                    LaunchArg::I64(n as i64),
                ],
            )
            .unwrap();
    }

    #[test]
    fn kernel_effects_deferred_until_sync() {
        let mut f = fixture();
        let p = f.dev.malloc_array::<f64>(4).unwrap();
        launch_fill(&mut f, p, 9.0, 4, StreamId::DEFAULT);
        // Effects are NOT visible before synchronization: the stale-data
        // failure mode of a missing cudaDeviceSynchronize.
        assert_eq!(f.dev.space().read_vec::<f64>(p, 4).unwrap(), vec![0.0; 4]);
        f.dev.device_synchronize().unwrap();
        assert_eq!(f.dev.space().read_vec::<f64>(p, 4).unwrap(), vec![9.0; 4]);
    }

    #[test]
    fn stream_fifo_order() {
        let mut f = fixture();
        let p = f.dev.malloc_array::<f64>(4).unwrap();
        launch_fill(&mut f, p, 1.0, 4, StreamId::DEFAULT);
        launch_fill(&mut f, p, 2.0, 4, StreamId::DEFAULT);
        f.dev.stream_synchronize(StreamId::DEFAULT).unwrap();
        assert_eq!(f.dev.space().read_vec::<f64>(p, 4).unwrap(), vec![2.0; 4]);
    }

    #[test]
    fn fig3_default_stream_barriers() {
        // K1 on stream1; K0 on default; K2 on stream2. Synchronizing
        // stream2 must execute K1 and K0 first (Fig. 3).
        let mut f = fixture();
        let s1 = f.dev.stream_create(StreamFlags::Default);
        let s2 = f.dev.stream_create(StreamFlags::Default);
        let a = f.dev.malloc_array::<f64>(1).unwrap();
        let b = f.dev.malloc_array::<f64>(1).unwrap();
        let c = f.dev.malloc_array::<f64>(1).unwrap();
        launch_fill(&mut f, a, 1.0, 1, s1); // K1: a = 1
        launch_copy(&mut f, b, a, 1, StreamId::DEFAULT); // K0: b = a
        launch_copy(&mut f, c, b, 1, s2); // K2: c = b
        f.dev.stream_synchronize(s2).unwrap();
        assert_eq!(f.dev.space().read_at::<f64>(c).unwrap(), 1.0);
        // All three streams drained by the chain.
        assert!(f.dev.is_stream_idle(StreamId::DEFAULT).unwrap());
        assert!(f.dev.is_stream_idle(s1).unwrap());
    }

    #[test]
    fn non_blocking_stream_escapes_barriers() {
        let mut f = fixture();
        let nb = f.dev.stream_create(StreamFlags::NonBlocking);
        let a = f.dev.malloc_array::<f64>(1).unwrap();
        let b = f.dev.malloc_array::<f64>(1).unwrap();
        launch_fill(&mut f, a, 5.0, 1, nb); // on non-blocking stream
        launch_copy(&mut f, b, a, 1, StreamId::DEFAULT); // default does NOT wait
        f.dev.stream_synchronize(StreamId::DEFAULT).unwrap();
        // K on nb never ran: default stream saw stale a == 0.
        assert_eq!(f.dev.space().read_at::<f64>(b).unwrap(), 0.0);
        assert!(!f.dev.is_stream_idle(nb).unwrap());
        f.dev.stream_synchronize(nb).unwrap();
        assert_eq!(f.dev.space().read_at::<f64>(a).unwrap(), 5.0);
    }

    #[test]
    fn sync_memcpy_forces_prior_stream_work() {
        let mut f = fixture();
        let d = f.dev.malloc_array::<f64>(4).unwrap();
        let h = f.dev.host_malloc(32).unwrap();
        launch_fill(&mut f, d, 3.0, 4, StreamId::DEFAULT);
        // Blocking D2H memcpy on the default stream: runs the kernel first.
        f.dev.memcpy(h, d, 32, CopyKind::DeviceToHost).unwrap();
        assert_eq!(f.dev.space().read_vec::<f64>(h, 4).unwrap(), vec![3.0; 4]);
    }

    #[test]
    fn async_memcpy_defers() {
        let mut f = fixture();
        let d = f.dev.malloc_array::<f64>(4).unwrap();
        let h = f.dev.host_alloc(32).unwrap(); // pinned
        launch_fill(&mut f, d, 3.0, 4, StreamId::DEFAULT);
        f.dev
            .memcpy_async(h, d, 32, CopyKind::DeviceToHost, StreamId::DEFAULT)
            .unwrap();
        // Nothing forced yet.
        assert_eq!(f.dev.space().read_vec::<f64>(h, 4).unwrap(), vec![0.0; 4]);
        f.dev.device_synchronize().unwrap();
        assert_eq!(f.dev.space().read_vec::<f64>(h, 4).unwrap(), vec![3.0; 4]);
    }

    #[test]
    fn memset_on_pinned_blocks_on_device_defers() {
        let mut f = fixture();
        let pinned = f.dev.host_alloc(16).unwrap();
        let dev = f.dev.malloc(16).unwrap();
        f.dev.memset(pinned, 0xFF, 16).unwrap();
        assert_eq!(
            f.dev.space().read_at::<u8>(pinned).unwrap(),
            0xFF,
            "pinned memset blocks"
        );
        f.dev.memset(dev, 0xAA, 16).unwrap();
        assert_eq!(
            f.dev.space().read_at::<u8>(dev).unwrap(),
            0x00,
            "device memset deferred"
        );
        f.dev.device_synchronize().unwrap();
        assert_eq!(f.dev.space().read_at::<u8>(dev).unwrap(), 0xAA);
    }

    #[test]
    fn event_record_synchronize() {
        let mut f = fixture();
        let p = f.dev.malloc_array::<f64>(2).unwrap();
        let e = f.dev.event_create();
        launch_fill(&mut f, p, 4.0, 2, StreamId::DEFAULT);
        f.dev.event_record(e, StreamId::DEFAULT).unwrap();
        launch_fill(&mut f, p, 6.0, 2, StreamId::DEFAULT);
        // Event sync completes work up to the marker only.
        f.dev.event_synchronize(e).unwrap();
        assert_eq!(f.dev.space().read_vec::<f64>(p, 2).unwrap(), vec![4.0; 2]);
        assert!(f.dev.event_query(e).unwrap());
        assert!(!f.dev.is_stream_idle(StreamId::DEFAULT).unwrap());
    }

    #[test]
    fn stream_wait_event_orders_across_streams() {
        let mut f = fixture();
        let s1 = f.dev.stream_create(StreamFlags::NonBlocking);
        let s2 = f.dev.stream_create(StreamFlags::NonBlocking);
        let a = f.dev.malloc_array::<f64>(1).unwrap();
        let b = f.dev.malloc_array::<f64>(1).unwrap();
        let e = f.dev.event_create();
        launch_fill(&mut f, a, 8.0, 1, s1);
        f.dev.event_record(e, s1).unwrap();
        f.dev.stream_wait_event(s2, e).unwrap();
        launch_copy(&mut f, b, a, 1, s2);
        f.dev.stream_synchronize(s2).unwrap();
        assert_eq!(f.dev.space().read_at::<f64>(b).unwrap(), 8.0);
    }

    #[test]
    fn event_errors() {
        let mut f = fixture();
        let e = f.dev.event_create();
        assert!(matches!(
            f.dev.event_synchronize(e),
            Err(CudaError::EventNotRecorded(_))
        ));
        f.dev.event_destroy(e).unwrap();
        assert!(matches!(
            f.dev.event_record(e, StreamId::DEFAULT),
            Err(CudaError::InvalidEvent(_))
        ));
        assert!(matches!(
            f.dev.event_synchronize(EventId(99)),
            Err(CudaError::InvalidEvent(99))
        ));
    }

    #[test]
    fn stream_errors() {
        let mut f = fixture();
        assert!(matches!(
            f.dev.stream_synchronize(StreamId(9)),
            Err(CudaError::InvalidStream(9))
        ));
        let s = f.dev.stream_create(StreamFlags::Default);
        f.dev.stream_destroy(s).unwrap();
        let p = f.dev.malloc_array::<f64>(1).unwrap();
        assert!(matches!(
            f.dev.launch(
                f.fill,
                LaunchGrid::linear(1),
                s,
                vec![LaunchArg::Ptr(p), LaunchArg::F64(0.0), LaunchArg::I64(1)]
            ),
            Err(CudaError::StreamDestroyed(_))
        ));
        assert!(matches!(
            f.dev.stream_destroy(StreamId::DEFAULT),
            Err(CudaError::InvalidStream(0))
        ));
    }

    #[test]
    fn free_forces_device_and_releases() {
        let mut f = fixture();
        let p = f.dev.malloc_array::<f64>(4).unwrap();
        let q = f.dev.malloc_array::<f64>(4).unwrap();
        launch_copy(&mut f, q, p, 4, StreamId::DEFAULT);
        f.dev.free(p).unwrap(); // must execute the pending kernel first
        assert_eq!(f.dev.counters().ops_executed, 1);
        assert!(f.dev.space().attributes(p).is_err());
    }

    #[test]
    fn stream_query_forces() {
        let mut f = fixture();
        let p = f.dev.malloc_array::<f64>(2).unwrap();
        launch_fill(&mut f, p, 1.5, 2, StreamId::DEFAULT);
        assert!(f.dev.stream_query(StreamId::DEFAULT).unwrap());
        assert_eq!(f.dev.space().read_vec::<f64>(p, 2).unwrap(), vec![1.5; 2]);
    }

    #[test]
    fn counters_accumulate() {
        let mut f = fixture();
        let p = f.dev.malloc_array::<f64>(2).unwrap();
        let h = f.dev.host_malloc(16).unwrap();
        let s = f.dev.stream_create(StreamFlags::Default);
        launch_fill(&mut f, p, 1.0, 2, s);
        f.dev.memcpy(h, p, 16, CopyKind::DeviceToHost).unwrap();
        f.dev.memset(p, 0, 16).unwrap();
        f.dev.device_synchronize().unwrap();
        f.dev.stream_synchronize(s).unwrap();
        let c = f.dev.counters();
        assert_eq!(c.streams, 2);
        assert_eq!(c.kernel_calls, 1);
        assert_eq!(c.memcpy_calls, 1);
        assert_eq!(c.memset_calls, 1);
        assert_eq!(c.sync_calls, 2);
    }

    #[test]
    fn pointer_attributes_roundtrip() {
        let mut f = fixture();
        let p = f.dev.malloc(64).unwrap();
        let attr = f.dev.pointer_attributes(p.offset(8)).unwrap();
        assert_eq!(attr.kind, MemKind::Device(DeviceId(0)));
        assert_eq!(attr.offset, 8);
    }

    /// The default drain order, pinned absolutely: with no controller
    /// and under an all-defaults plan alike, a lower-index stream blocked
    /// on a dependency waits while the higher-index one it depends on
    /// drains first, and every queued op runs exactly once.
    #[test]
    fn controlled_drain_default_plan_matches_uncontrolled() {
        use explore::SchedulePlan;
        for controlled in [false, true] {
            let mut f = fixture();
            if controlled {
                f.dev.set_schedule_controller(SchedulePlan::defaults(0), 0);
            }
            let p = f.dev.malloc_array::<f64>(4).unwrap();
            let q = f.dev.malloc_array::<f64>(4).unwrap();
            let s1 = f.dev.stream_create(StreamFlags::NonBlocking);
            let s2 = f.dev.stream_create(StreamFlags::NonBlocking);
            let e = f.dev.event_create();
            // s2 fills p; s1 waits on the event, then copies p -> q.
            launch_fill(&mut f, p, 3.0, 4, s2);
            f.dev.event_record(e, s2).unwrap();
            f.dev.stream_wait_event(s1, e).unwrap();
            launch_copy(&mut f, q, p, 4, s1);
            f.dev.device_synchronize().unwrap();
            assert_eq!(f.dev.space().read_vec::<f64>(q, 4).unwrap(), [3.0; 4]);
            // The fill, the event record and the copy.
            assert_eq!(f.dev.counters().ops_executed, 3, "controlled: {controlled}");
        }
    }

    /// An op that fails mid-drain fails the sync, and the work that
    /// depended on it stays queued: the drain pops one ready op at a
    /// time, so it never takes a dependent op off its queue before the
    /// dependency ran. The next sync runs it.
    #[test]
    fn a_failed_drain_leaves_dependent_work_queued() {
        let mut f = fixture();
        let p = f.dev.malloc_array::<f64>(4).unwrap();
        let q = f.dev.malloc_array::<f64>(4).unwrap();
        let s1 = f.dev.stream_create(StreamFlags::NonBlocking);
        let s2 = f.dev.stream_create(StreamFlags::NonBlocking);
        let idle = f.dev.stream_create(StreamFlags::NonBlocking);
        let e = f.dev.event_create();
        // s2 fills p, which is freed behind its back; s1 waits on s2.
        launch_fill(&mut f, p, 3.0, 4, s2);
        f.dev.event_record(e, s2).unwrap();
        f.dev.stream_wait_event(s1, e).unwrap();
        launch_fill(&mut f, q, 5.0, 4, s1);
        f.dev.free_async(p, idle).unwrap();
        assert!(f.dev.device_synchronize().is_err());
        assert_eq!(f.dev.counters().ops_executed, 1, "only the failed fill ran");
        assert!(
            !f.dev.is_stream_idle(s1).unwrap(),
            "s1's fill is still queued"
        );
        f.dev.device_synchronize().unwrap();
        assert_eq!(f.dev.space().read_vec::<f64>(q, 4).unwrap(), [5.0; 4]);
        assert_eq!(f.dev.counters().ops_executed, 3);
    }

    /// A plan choosing the alternative drain order genuinely reorders
    /// independent ops: last writer wins flips with the schedule.
    #[test]
    fn controlled_drain_explores_alternate_orders() {
        use explore::SchedulePlan;
        let run = |choices: Vec<u32>| {
            let mut f = fixture();
            f.dev
                .set_schedule_controller(SchedulePlan::with_choices(vec![choices]), 0);
            let p = f.dev.malloc_array::<f64>(2).unwrap();
            let s1 = f.dev.stream_create(StreamFlags::NonBlocking);
            let s2 = f.dev.stream_create(StreamFlags::NonBlocking);
            launch_fill(&mut f, p, 1.0, 2, s1);
            launch_fill(&mut f, p, 2.0, 2, s2);
            f.dev.device_synchronize().unwrap();
            f.dev.space().read_at::<f64>(p).unwrap()
        };
        assert_eq!(run(vec![]), 2.0, "default: s1 drains before s2");
        assert_eq!(run(vec![1]), 1.0, "alternate: s2's op fires first");
    }
}
