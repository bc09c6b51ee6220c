//! The checked CUDA API: CuSan's interception layer over the simulated
//! runtime.
//!
//! Every method first executes the CuSan callback — emitting typed
//! [`CusanEvent`]s through the [`ToolCtx`] pipeline, which applies them to
//! TSan (the instrumentation the compiler pass inserts before each CUDA
//! call, paper Fig. 9) — and then forwards to the underlying
//! [`CudaDevice`]. With `cusan` disabled in the [`ToolConfig`] no events
//! are emitted and the layer is a thin passthrough, which is how the
//! Vanilla/TSan/MUST flavors run.
//!
//! Table-I "CUDA" counter rows are mirrored as
//! [`CusanEvent::CounterBump`] events at exactly the call sites where the
//! simulated device increments its own counters, so a recorded trace
//! reproduces the counter table offline.

use crate::config::ToolConfig;
use crate::ctx::ToolCtx;
use crate::event::{counter_names, CusanEvent, StrId};
use crate::keys::{event_key, stream_key};
use cuda_sim::semantics;
use cuda_sim::{
    CopyKind, CudaCounters, CudaDevice, CudaError, DefaultStreamMode, EventId, HostSync,
    StreamFlags, StreamId,
};
use kernel_ir::{KernelId, KernelRegistry, LaunchArg, LaunchGrid};
use sim_mem::{AddressSpace, AllocationInfo, DeviceId, MemError, MemKind, Pod, PointerAttr, Ptr};
use std::collections::{HashMap, HashSet};
use std::rc::Rc;
use std::sync::Arc;
use tsan_rt::FiberId;
use typeart_rt::TypeId;

/// One annotated memory range of a device operation.
struct RangeAccess {
    ptr: Ptr,
    len: u64,
    write: bool,
    ctx: StrId,
}

fn mem_kind_label(kind: MemKind) -> &'static str {
    match kind {
        MemKind::HostPageable => "host-pageable",
        MemKind::HostPinned => "host-pinned",
        MemKind::Managed => "managed",
        MemKind::Device(_) => "device",
    }
}

/// The CuSan-checked CUDA API for one rank's device. See module docs.
pub struct CusanCuda {
    dev: CudaDevice,
    tools: Rc<ToolCtx>,
    stream_fibers: HashMap<StreamId, FiberId>,
    /// Streams whose sync key holds a cross-stream barrier release that the
    /// stream's own fiber has not yet acquired.
    pending_release: HashSet<StreamId>,
    /// Cache of interned kernel-argument contexts: (kernel, arg, write).
    kernel_ctx_cache: HashMap<(KernelId, u32, bool), StrId>,
    ctx_memcpy_src: StrId,
    ctx_memcpy_dst: StrId,
    ctx_memset: StrId,
    ctx_free: StrId,
}

impl CusanCuda {
    /// Wrap a fresh device for `rank`'s tool context.
    ///
    /// Emits the default stream's `FiberCreate`; a recording the
    /// context's `config.record` asked for is already running, so the
    /// trace holds it.
    pub fn new(
        device: DeviceId,
        space: Arc<AddressSpace>,
        registry: Arc<KernelRegistry>,
        tools: Rc<ToolCtx>,
    ) -> Self {
        let dev = CudaDevice::new(device, space, registry);
        let (src, dst, ms, fr) = (
            tools.intern_label("cudaMemcpy source [read]"),
            tools.intern_label("cudaMemcpy destination [write]"),
            tools.intern_label("cudaMemset [write]"),
            tools.intern_label("cudaFree [write]"),
        );
        let mut this = CusanCuda {
            dev,
            tools,
            stream_fibers: HashMap::new(),
            pending_release: HashSet::new(),
            kernel_ctx_cache: HashMap::new(),
            ctx_memcpy_src: src,
            ctx_memcpy_dst: dst,
            ctx_memset: ms,
            ctx_free: fr,
        };
        if this.enabled() {
            // The default stream is always tracked (paper §IV-A a); the
            // device constructor counts it in its `streams` counter.
            this.bump(counter_names::CUDA_STREAMS, 1);
            this.fiber_for(StreamId::DEFAULT);
        }
        this
    }

    fn enabled(&self) -> bool {
        self.tools.config.cusan
    }

    fn config(&self) -> ToolConfig {
        self.tools.config
    }

    /// Fault-injection gate, checked at the top of every fallible call —
    /// before validation and before any detector annotation, so a faulted
    /// call leaves neither device nor happens-before state behind. Each
    /// gate is one site of [`ToolCtx::should_fault`].
    fn fault(&self, call: &'static str) -> Result<(), CudaError> {
        if self.tools.should_fault(call) {
            Err(CudaError::FaultInjected { call })
        } else {
            Ok(())
        }
    }

    /// Fault gate for the allocation family, which surfaces failures as
    /// the underlying memory error (like a real out-of-memory would).
    fn fault_mem(&self, call: &'static str) -> Result<(), CudaError> {
        if self.tools.should_fault(call) {
            Err(CudaError::Mem(MemError::FaultInjected { call }))
        } else {
            Ok(())
        }
    }

    /// Mirror a device counter increment into the event stream.
    fn bump(&self, counter: &str, delta: u64) {
        if self.enabled() {
            let counter = self.tools.intern_label(counter);
            self.tools.emit(CusanEvent::CounterBump { counter, delta });
        }
    }

    /// The underlying shared address space.
    pub fn space(&self) -> &Arc<AddressSpace> {
        self.dev.space()
    }

    /// The kernel registry.
    pub fn registry(&self) -> &Arc<KernelRegistry> {
        self.dev.registry()
    }

    /// The per-rank tool context.
    pub fn tools(&self) -> &Rc<ToolCtx> {
        &self.tools
    }

    /// Device-call counters (Table I "CUDA" rows).
    pub fn counters(&self) -> CudaCounters {
        self.dev.counters()
    }

    /// Raw device access for tests and the MUST harness.
    pub fn device_mut(&mut self) -> &mut CudaDevice {
        &mut self.dev
    }

    /// Select legacy vs per-thread default-stream semantics (paper §VI-B).
    /// In per-thread mode the default stream carries no implicit barriers;
    /// CuSan models it like any other stream. Must be called before work
    /// is enqueued.
    pub fn set_default_stream_mode(&mut self, mode: DefaultStreamMode) {
        self.dev.set_default_stream_mode(mode);
    }

    fn legacy_default(&self) -> bool {
        self.dev.default_stream_mode() == DefaultStreamMode::Legacy
    }

    fn fiber_for(&mut self, s: StreamId) -> FiberId {
        if let Some(&f) = self.stream_fibers.get(&s) {
            return f;
        }
        let name = if s.is_default() {
            "cuda stream 0 (default)".to_string()
        } else {
            format!("cuda stream {}", s.0)
        };
        let f = self.tools.emit_fiber_create(&name);
        self.stream_fibers.insert(s, f);
        f
    }

    /// Whether `s` was created `cudaStreamNonBlocking` (the device keeps
    /// the flag; a stream it does not know is not).
    fn is_nonblocking(&self, s: StreamId) -> bool {
        matches!(self.dev.stream_flags(s), Ok(StreamFlags::NonBlocking))
    }

    fn blocking_user_streams(&self) -> Vec<StreamId> {
        self.dev
            .live_streams()
            .into_iter()
            .filter(|&s| !s.is_default() && !self.is_nonblocking(s))
            .collect()
    }

    /// Every tracked stream, in stream-id order. The fiber map iterates in
    /// hash order, which must never leak into the (deterministic) event
    /// stream.
    fn tracked_streams_sorted(&self) -> Vec<StreamId> {
        let mut streams: Vec<StreamId> = self.stream_fibers.keys().copied().collect();
        streams.sort_unstable_by_key(|s| s.0);
        streams
    }

    /// The CuSan callback for a device operation on stream `s`: switch to
    /// the stream's fiber, consume any pending cross-stream barrier
    /// release, annotate the accessed ranges, start the stream's
    /// happens-before arc, push legacy default-stream barrier releases,
    /// and switch back to the host fiber (paper §IV-A b–e).
    fn stream_op(&mut self, s: StreamId, accesses: &[RangeAccess]) {
        if !self.enabled() {
            return;
        }
        let fiber = self.fiber_for(s);
        self.tools
            .emit(CusanEvent::FiberSwitch { fiber, sync: true });
        if self.pending_release.remove(&s) {
            self.tools
                .emit(CusanEvent::HappensAfter { key: stream_key(s) });
        }
        if self.config().track_access_ranges {
            for a in accesses {
                self.tools.emit(if a.write {
                    CusanEvent::WriteRange {
                        addr: a.ptr.addr(),
                        len: a.len,
                        ctx: a.ctx,
                    }
                } else {
                    CusanEvent::ReadRange {
                        addr: a.ptr.addr(),
                        len: a.len,
                        ctx: a.ctx,
                    }
                });
            }
        }
        self.tools
            .emit(CusanEvent::HappensBefore { key: stream_key(s) });
        // Legacy default-stream logical barriers (Fig. 3). Per-thread
        // default-stream mode (§VI-B) has no implicit barriers.
        let is_legacy_blocking =
            self.legacy_default() && (s.is_default() || !self.is_nonblocking(s));
        if is_legacy_blocking {
            let targets: Vec<StreamId> = if s.is_default() {
                self.blocking_user_streams()
            } else {
                vec![StreamId::DEFAULT]
            };
            for &u in &targets {
                self.tools
                    .emit(CusanEvent::HappensBefore { key: stream_key(u) });
            }
            self.pending_release.extend(targets);
        }
        self.tools.emit(CusanEvent::FiberSwitch {
            fiber: FiberId::HOST,
            sync: false,
        });
    }

    /// Host-side happens-after on a stream's arc (explicit or implicit
    /// host synchronization).
    fn host_sync_stream(&mut self, s: StreamId) {
        if !self.enabled() {
            return;
        }
        self.tools
            .emit(CusanEvent::HappensAfter { key: stream_key(s) });
    }

    // ---- memory management ----------------------------------------------------

    fn on_alloc(&self, ptr: Ptr, type_id: TypeId, count: u64, bytes: u64, kind: MemKind) {
        if self.enabled() {
            // An overlapping registration means the allocator handed out a
            // live range twice. The checker degrades rather than aborts:
            // the allocation stays untracked (no extent, no Alloc event)
            // and the inconsistency is reported as a diagnostic.
            if let Err(e) = self
                .tools
                .typeart
                .borrow_mut()
                .on_alloc(ptr, type_id, count, kind)
            {
                self.tools
                    .report_diagnostic(format!("typeart: allocation at {ptr} not tracked: {e}"));
                return;
            }
            let kind = self.tools.intern_label(mem_kind_label(kind));
            self.tools.emit(CusanEvent::Alloc {
                addr: ptr.addr(),
                bytes,
                kind,
            });
        }
    }

    fn type_id_of<T: Pod>(&self) -> TypeId {
        self.tools
            .typeart
            .borrow_mut()
            .registry_mut()
            .register(T::NAME, T::SIZE as u64)
    }

    /// `cudaMalloc` for `n` elements of `T`.
    pub fn malloc<T: Pod>(&mut self, n: u64) -> Result<Ptr, CudaError> {
        self.fault_mem("cudaMalloc")?;
        let p = self.dev.malloc_array::<T>(n)?;
        let tid = self.type_id_of::<T>();
        let bytes = n * T::SIZE as u64;
        self.on_alloc(p, tid, n, bytes, MemKind::Device(self.dev.id()));
        Ok(p)
    }

    /// `cudaMallocManaged` for `n` elements of `T`.
    pub fn malloc_managed<T: Pod>(&mut self, n: u64) -> Result<Ptr, CudaError> {
        self.fault_mem("cudaMallocManaged")?;
        let bytes = n * T::SIZE as u64;
        let p = self.dev.malloc_managed(bytes)?;
        let tid = self.type_id_of::<T>();
        self.on_alloc(p, tid, n, bytes, MemKind::Managed);
        Ok(p)
    }

    /// `cudaHostAlloc` (pinned) for `n` elements of `T`.
    pub fn host_alloc<T: Pod>(&mut self, n: u64) -> Result<Ptr, CudaError> {
        self.fault_mem("cudaHostAlloc")?;
        let bytes = n * T::SIZE as u64;
        let p = self.dev.host_alloc(bytes)?;
        let tid = self.type_id_of::<T>();
        self.on_alloc(p, tid, n, bytes, MemKind::HostPinned);
        Ok(p)
    }

    /// Pageable host `malloc` for `n` elements of `T`.
    pub fn host_malloc<T: Pod>(&mut self, n: u64) -> Result<Ptr, CudaError> {
        self.fault_mem("malloc")?;
        let bytes = n * T::SIZE as u64;
        let p = self.dev.host_malloc(bytes)?;
        let tid = self.type_id_of::<T>();
        self.on_alloc(p, tid, n, bytes, MemKind::HostPageable);
        Ok(p)
    }

    /// `cudaFree` (+ plain `free`): synchronizes the device, annotates the
    /// release as a host write (a kernel or MPI operation still using the
    /// buffer is a race), and drops tracking.
    pub fn free(&mut self, ptr: Ptr) -> Result<AllocationInfo, CudaError> {
        self.fault_mem("cudaFree")?;
        // A free that will fail (double free, interior pointer) must not
        // run the synchronize-and-annotate protocol below: the detector
        // would record phantom stream syncs for an operation that never
        // happened.
        self.dev.free_validate(ptr)?;
        // cudaFree synchronizes with the host across all streams
        // (paper §III-B2) — terminate every stream arc first.
        if self.enabled() {
            for s in self.tracked_streams_sorted() {
                self.host_sync_stream(s);
            }
        }
        let info = self.dev.free(ptr)?;
        // The free-as-write annotation is a CuSan callback: plain TSan has
        // no visibility into CUDA allocations (paper §II-B a).
        if self.enabled() {
            self.tools.emit(CusanEvent::WriteRange {
                addr: info.base.addr(),
                len: info.len,
                ctx: self.ctx_free,
            });
            let _ = self.tools.typeart.borrow_mut().on_free(info.base);
            self.tools.emit(CusanEvent::Free {
                addr: info.base.addr(),
                bytes: info.len,
            });
        }
        Ok(info)
    }

    /// `cuPointerGetAttribute` passthrough.
    pub fn pointer_attributes(&self, ptr: Ptr) -> Result<PointerAttr, CudaError> {
        self.fault("cuPointerGetAttribute")?;
        self.dev.pointer_attributes(ptr)
    }

    // ---- streams ---------------------------------------------------------------

    /// `cudaStreamCreate(WithFlags)`: tracked on demand with its
    /// non-blocking attribute (paper §IV-A a).
    pub fn stream_create(&mut self, flags: StreamFlags) -> StreamId {
        let s = self.dev.stream_create(flags);
        if self.enabled() {
            self.bump(counter_names::CUDA_STREAMS, 1);
            self.fiber_for(s);
        }
        s
    }

    /// `cudaStreamDestroy`: completes outstanding work (host sync).
    pub fn stream_destroy(&mut self, s: StreamId) -> Result<(), CudaError> {
        self.fault("cudaStreamDestroy")?;
        self.dev.stream_destroy(s)?;
        self.host_sync_stream(s);
        Ok(())
    }

    // ---- kernel launch -----------------------------------------------------------

    /// Kernel launch: the central CuSan callback (paper §IV-A b).
    pub fn launch(
        &mut self,
        kernel: KernelId,
        grid: LaunchGrid,
        stream: StreamId,
        args: Vec<LaunchArg>,
    ) -> Result<(), CudaError> {
        self.fault("cudaLaunchKernel")?;
        // Validate the stream before annotating: a call that will fail in
        // the runtime must not leave phantom accesses in the detector.
        self.dev.stream_flags(stream)?;
        if self.enabled() {
            let accesses = self.kernel_accesses(kernel, grid, &args);
            self.stream_op(stream, &accesses);
        }
        // The device counts the call even when launch validation fails.
        self.bump(counter_names::CUDA_KERNEL, 1);
        self.dev.launch(kernel, grid, stream, args)
    }

    /// Resolve the annotated ranges for a launch: access mode from the
    /// compiler pass, extent from TypeART (paper Fig. 9). With bounded
    /// tracking (§VI-D), tid-bounded arguments are clipped to the range
    /// the launch geometry can actually touch.
    fn kernel_accesses(
        &mut self,
        kernel: KernelId,
        grid: LaunchGrid,
        args: &[LaunchArg],
    ) -> Vec<RangeAccess> {
        if !self.config().track_access_ranges {
            return Vec::new();
        }
        let analysis = self.dev.registry().analysis();
        let attrs = analysis.kernel(kernel);
        let bounded_cfg = self.config().bounded_tracking;
        let mut out = Vec::new();
        for (i, arg) in args.iter().enumerate() {
            let LaunchArg::Ptr(p) = arg else { continue };
            let attr = match attrs.get(i) {
                Some(a) if a.any() => *a,
                _ => continue,
            };
            let Some(extent) = self.tools.typeart.borrow().extent_of(*p) else {
                // Untracked allocation: nothing to annotate (TypeART is the
                // only source of extents, paper §IV-C).
                continue;
            };
            let len = if bounded_cfg && analysis.tid_bounded(kernel, i) {
                let elem = self.dev.registry().def(kernel).params[i].ty.scalar().size();
                extent.min(grid.total() * elem)
            } else {
                extent
            };
            for write in [false, true] {
                if (write && attr.write) || (!write && attr.read) {
                    let ctx = self.kernel_arg_ctx(kernel, i as u32, write);
                    out.push(RangeAccess {
                        ptr: *p,
                        len,
                        write,
                        ctx,
                    });
                }
            }
        }
        out
    }

    fn kernel_arg_ctx(&mut self, kernel: KernelId, arg: u32, write: bool) -> StrId {
        if let Some(&c) = self.kernel_ctx_cache.get(&(kernel, arg, write)) {
            return c;
        }
        let def = self.dev.registry().def(kernel);
        let label = format!(
            "kernel {} arg#{arg} ({}) [{}]",
            def.name,
            def.params[arg as usize].name,
            if write { "write" } else { "read" }
        );
        let c = self.tools.intern_label(&label);
        self.kernel_ctx_cache.insert((kernel, arg, write), c);
        c
    }

    // ---- memory operations ----------------------------------------------------------

    /// `cudaMemcpy`: annotated as a default-stream operation; blocks the
    /// host (and terminates the arc) per the semantics table.
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
        self.fault(if is_async {
            "cudaMemcpyAsync"
        } else {
            "cudaMemcpy"
        })?;
        self.dev.stream_flags(stream)?;
        let mut host_sync = false;
        if self.enabled() {
            let dk = self.dev.pointer_attributes(dst)?.kind;
            let sk = self.dev.pointer_attributes(src)?.kind;
            let resolved = semantics::resolve_copy_kind(kind, dk, sk)?;
            host_sync = semantics::memcpy_host_sync(resolved, is_async) == HostSync::Blocking;
            let accesses = [
                RangeAccess {
                    ptr: src,
                    len,
                    write: false,
                    ctx: self.ctx_memcpy_src,
                },
                RangeAccess {
                    ptr: dst,
                    len,
                    write: true,
                    ctx: self.ctx_memcpy_dst,
                },
            ];
            self.stream_op(
                stream,
                if self.config().track_access_ranges {
                    &accesses
                } else {
                    &[]
                },
            );
        }
        self.bump(counter_names::CUDA_MEMCPY, 1);
        if is_async {
            self.dev.memcpy_async(dst, src, len, kind, stream)?;
        } else {
            self.dev.memcpy(dst, src, len, kind)?;
        }
        if host_sync {
            self.host_sync_stream(stream);
        }
        Ok(())
    }

    /// `cudaMemcpy2D`: each transferred row is annotated individually, so
    /// the detector sees the precise strided footprint rather than a
    /// bounding box.
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
        self.fault(if is_async {
            "cudaMemcpy2DAsync"
        } else {
            "cudaMemcpy2D"
        })?;
        let mut host_sync = false;
        if self.enabled() {
            let dk = self.dev.pointer_attributes(dst)?.kind;
            let sk = self.dev.pointer_attributes(src)?.kind;
            let resolved = semantics::resolve_copy_kind(kind, dk, sk)?;
            host_sync = semantics::memcpy_host_sync(resolved, is_async) == HostSync::Blocking;
            if self.config().track_access_ranges {
                let mut accesses = Vec::with_capacity(2 * height as usize);
                for row in 0..height {
                    accesses.push(RangeAccess {
                        ptr: src.offset(row * spitch),
                        len: width,
                        write: false,
                        ctx: self.ctx_memcpy_src,
                    });
                    accesses.push(RangeAccess {
                        ptr: dst.offset(row * dpitch),
                        len: width,
                        write: true,
                        ctx: self.ctx_memcpy_dst,
                    });
                }
                self.stream_op(stream, &accesses);
            } else {
                self.stream_op(stream, &[]);
            }
        }
        // The device rejects a width exceeding either pitch before counting
        // the call — mirror that ordering.
        if width <= dpitch && width <= spitch {
            self.bump(counter_names::CUDA_MEMCPY, 1);
        }
        if is_async {
            self.dev
                .memcpy_2d_async(dst, dpitch, src, spitch, width, height, kind, stream)?;
        } else {
            self.dev
                .memcpy_2d(dst, dpitch, src, spitch, width, height, kind)?;
        }
        if host_sync {
            self.host_sync_stream(stream);
        }
        Ok(())
    }

    /// `cudaMemset`.
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
        self.fault(if is_async {
            "cudaMemsetAsync"
        } else {
            "cudaMemset"
        })?;
        self.dev.stream_flags(stream)?;
        let mut host_sync = false;
        if self.enabled() {
            let kind = self.dev.pointer_attributes(ptr)?.kind;
            host_sync = semantics::memset_host_sync(kind, is_async) == HostSync::Blocking;
            let accesses = [RangeAccess {
                ptr,
                len,
                write: true,
                ctx: self.ctx_memset,
            }];
            self.stream_op(
                stream,
                if self.config().track_access_ranges {
                    &accesses
                } else {
                    &[]
                },
            );
        }
        self.bump(counter_names::CUDA_MEMSET, 1);
        if is_async {
            self.dev.memset_async(ptr, value, len, stream)?;
        } else {
            self.dev.memset(ptr, value, len)?;
        }
        if host_sync {
            self.host_sync_stream(stream);
        }
        Ok(())
    }

    // ---- explicit synchronization ------------------------------------------------------

    /// `cudaDeviceSynchronize`: terminates the arc of every tracked stream
    /// (paper §IV-A c).
    pub fn device_synchronize(&mut self) -> Result<(), CudaError> {
        self.fault("cudaDeviceSynchronize")?;
        let r = self.dev.device_synchronize();
        self.bump(counter_names::CUDA_SYNC, 1);
        r?;
        if self.enabled() {
            for s in self.tracked_streams_sorted() {
                self.host_sync_stream(s);
            }
        }
        Ok(())
    }

    /// `cudaStreamSynchronize`: terminates the stream's arc; synchronizing
    /// the legacy default stream also terminates every blocking user
    /// stream's arc (paper §IV-A e).
    pub fn stream_synchronize(&mut self, s: StreamId) -> Result<(), CudaError> {
        self.fault("cudaStreamSynchronize")?;
        let r = self.dev.stream_synchronize(s);
        self.bump(counter_names::CUDA_SYNC, 1);
        r?;
        self.host_sync_stream(s);
        if self.enabled() && s.is_default() && self.legacy_default() {
            for u in self.blocking_user_streams() {
                self.host_sync_stream(u);
            }
        }
        Ok(())
    }

    /// `cudaStreamQuery`, treated as a blocking busy-wait synchronization
    /// (paper §III-B1).
    pub fn stream_query(&mut self, s: StreamId) -> Result<bool, CudaError> {
        self.fault("cudaStreamQuery")?;
        // Propagate before counting: a query of a destroyed stream never
        // reached the device and must leave no trace in the event stream.
        let done = self.dev.stream_query(s)?;
        self.bump(counter_names::CUDA_SYNC, 1);
        self.host_sync_stream(s);
        if self.enabled() && s.is_default() && self.legacy_default() {
            for u in self.blocking_user_streams() {
                self.host_sync_stream(u);
            }
        }
        Ok(done)
    }

    // ---- events -------------------------------------------------------------------------

    /// `cudaEventCreate`.
    pub fn event_create(&mut self) -> EventId {
        self.dev.event_create()
    }

    /// `cudaEventRecord`: a stream operation that additionally releases
    /// the event's own arc (fine-grained sync marker, paper §III-B1).
    pub fn event_record(&mut self, e: EventId, stream: StreamId) -> Result<(), CudaError> {
        self.fault("cudaEventRecord")?;
        // Validate both handles before annotating: a record that will
        // fail must not release the event's happens-before arc.
        self.dev.stream_flags(stream)?;
        self.dev.event_validate(e)?;
        if self.enabled() {
            self.stream_op(stream, &[]);
            let fiber = self.fiber_for(stream);
            self.tools
                .emit(CusanEvent::FiberSwitch { fiber, sync: true });
            self.tools
                .emit(CusanEvent::HappensBefore { key: event_key(e) });
            self.tools.emit(CusanEvent::FiberSwitch {
                fiber: FiberId::HOST,
                sync: false,
            });
        }
        self.dev.event_record(e, stream)
    }

    /// `cudaEventSynchronize`: host waits for the marker.
    pub fn event_synchronize(&mut self, e: EventId) -> Result<(), CudaError> {
        self.fault("cudaEventSynchronize")?;
        self.dev.event_synchronize(e)?;
        self.bump(counter_names::CUDA_SYNC, 1);
        if self.enabled() {
            self.tools
                .emit(CusanEvent::HappensAfter { key: event_key(e) });
        }
        Ok(())
    }

    /// `cudaEventQuery` (non-forcing; a `true` result is a synchronization).
    pub fn event_query(&mut self, e: EventId) -> Result<bool, CudaError> {
        self.fault("cudaEventQuery")?;
        let done = self.dev.event_query(e)?;
        if done && self.enabled() {
            self.tools
                .emit(CusanEvent::HappensAfter { key: event_key(e) });
        }
        Ok(done)
    }

    /// `cudaEventDestroy`.
    pub fn event_destroy(&mut self, e: EventId) -> Result<(), CudaError> {
        self.fault("cudaEventDestroy")?;
        self.dev.event_destroy(e)
    }

    /// `cudaStreamWaitEvent`: the *stream* (not the host) acquires the
    /// event's arc.
    pub fn stream_wait_event(&mut self, stream: StreamId, e: EventId) -> Result<(), CudaError> {
        self.fault("cudaStreamWaitEvent")?;
        let r = self.dev.stream_wait_event(stream, e);
        self.bump(counter_names::CUDA_SYNC, 1);
        r?;
        if self.enabled() {
            let fiber = self.fiber_for(stream);
            self.tools
                .emit(CusanEvent::FiberSwitch { fiber, sync: true });
            self.tools
                .emit(CusanEvent::HappensAfter { key: event_key(e) });
            self.tools.emit(CusanEvent::FiberSwitch {
                fiber: FiberId::HOST,
                sync: false,
            });
        }
        Ok(())
    }

    /// Flush all outstanding device work (teardown; not an annotated
    /// synchronization).
    pub fn flush(&mut self) -> Result<(), CudaError> {
        self.fault("cudaFlush")?;
        self.dev.flush()
    }
}
