//! API error paths must leave the detector untouched.
//!
//! The robustness contract (graceful degradation): a CUDA call that
//! returns an error performed no operation, so the checker must record
//! nothing for it — no fiber switches, no happens-before arcs, no range
//! annotations, no allocation tracking changes. Each test snapshots the
//! full detector-visible state (TSan counters, race count, event-pipeline
//! counters) around a failing call and asserts bit-for-bit equality.

use cuda_sim::{CopyKind, EventId, StreamFlags, StreamId};
use cusan::{CusanCuda, EventCounters, Flavor, ToolCtx};
use explore::{ChoiceKind, FaultSchedule, ScheduleController, SchedulePlan};
use kernel_ir::ast::ScalarTy;
use kernel_ir::builder::*;
use kernel_ir::{KernelId, KernelRegistry, LaunchArg, LaunchGrid};
use sim_mem::{AddressSpace, DeviceId, MemError};
use std::rc::Rc;
use std::sync::Arc;
use tsan_rt::TsanStats;

struct World {
    cuda: CusanCuda,
    tools: Rc<ToolCtx>,
    fill: KernelId,
}

fn world() -> World {
    world_with_faults(None)
}

/// A one-rank world; under `faults`, a fault controller decides every
/// checked call on lane 0, as the harness installs it.
fn world_with_faults(faults: Option<Arc<dyn ScheduleController>>) -> World {
    let space = Arc::new(AddressSpace::new());
    let mut reg = KernelRegistry::new();
    let mut b = KernelBuilder::new("fill");
    let p = b.ptr_param("p", ScalarTy::F64);
    let v = b.scalar_param("v", ScalarTy::F64);
    let n = b.scalar_param("n", ScalarTy::I64);
    b.if_(tid().lt(n.get()), |bb| bb.store(p, tid(), v.get()));
    let fill = reg.register_ir(b.finish()).unwrap();
    let mut tools = ToolCtx::new(0, Flavor::MustCusan.config());
    if let Some(c) = faults {
        tools.decide_faults(move || c.choose(0, ChoiceKind::ApiFault, &[0, 1]) == 1);
    }
    let tools = Rc::new(tools);
    let cuda = CusanCuda::new(DeviceId(0), space, Arc::new(reg), Rc::clone(&tools));
    World { cuda, tools, fill }
}

/// Everything the checker can observe about its own state.
#[derive(Debug, Clone, PartialEq)]
struct Snapshot {
    tsan: TsanStats,
    races: u64,
    events: EventCounters,
}

fn snapshot(w: &World) -> Snapshot {
    Snapshot {
        tsan: w.tools.tsan_stats(),
        races: w.tools.race_count(),
        events: w.tools.event_counters(),
    }
}

#[test]
fn double_free_is_typed_and_leaves_detector_unchanged() {
    let mut w = world();
    let d = w.cuda.malloc::<f64>(64).unwrap();
    w.cuda.free(d).unwrap();
    let before = snapshot(&w);
    let err = w.cuda.free(d).unwrap_err();
    assert!(
        matches!(err, cuda_sim::CudaError::Mem(MemError::Unmapped(_))),
        "double free must report the unmapped pointer, got {err}"
    );
    assert_eq!(snapshot(&w), before, "failed free must not annotate");
}

#[test]
fn free_of_interior_pointer_is_typed_and_leaves_detector_unchanged() {
    let mut w = world();
    let d = w.cuda.malloc::<f64>(64).unwrap();
    let before = snapshot(&w);
    let err = w.cuda.free(d.offset(8)).unwrap_err();
    assert!(
        matches!(err, cuda_sim::CudaError::Mem(MemError::NotABase(_))),
        "interior free must name the non-base pointer, got {err}"
    );
    assert_eq!(snapshot(&w), before);
    w.cuda.free(d).unwrap();
}

#[test]
fn launch_on_destroyed_stream_leaves_detector_unchanged() {
    let mut w = world();
    let d = w.cuda.malloc::<f64>(8).unwrap();
    let s = w.cuda.stream_create(StreamFlags::Default);
    w.cuda.stream_destroy(s).unwrap();
    let before = snapshot(&w);
    let err = w
        .cuda
        .launch(
            w.fill,
            LaunchGrid::cover(8, 8),
            s,
            vec![LaunchArg::Ptr(d), LaunchArg::F64(1.0), LaunchArg::I64(8)],
        )
        .unwrap_err();
    assert!(
        matches!(
            err,
            cuda_sim::CudaError::InvalidStream(_) | cuda_sim::CudaError::StreamDestroyed(_)
        ),
        "launch on destroyed stream must be a stream error, got {err}"
    );
    assert_eq!(
        snapshot(&w),
        before,
        "failed launch must record no kernel accesses"
    );
}

#[test]
fn failing_2d_copies_leave_detector_unchanged() {
    // A blocking or async 2-D copy onto a destroyed stream, or with a
    // width past either pitch, returns its error before any fiber
    // switch, range or happens-before edge.
    let mut w = world();
    let d = w.cuda.malloc::<f64>(64).unwrap();
    let h = w.cuda.malloc::<f64>(64).unwrap();
    let s = w.cuda.stream_create(StreamFlags::Default);
    w.cuda.stream_destroy(s).unwrap();
    let live = w.cuda.stream_create(StreamFlags::Default);
    let before = snapshot(&w);
    let is_stream_error = |e: &cuda_sim::CudaError| {
        matches!(
            e,
            cuda_sim::CudaError::InvalidStream(_) | cuda_sim::CudaError::StreamDestroyed(_)
        )
    };
    let err = w
        .cuda
        .memcpy_2d_async(d, 64, h, 64, 64, 4, CopyKind::Default, s)
        .unwrap_err();
    assert!(
        is_stream_error(&err),
        "async onto a destroyed stream: {err}"
    );
    assert_eq!(snapshot(&w), before, "async onto a destroyed stream");
    for (dpitch, spitch) in [(32, 64), (64, 32)] {
        let err = w
            .cuda
            .memcpy_2d(d, dpitch, h, spitch, 64, 4, CopyKind::Default)
            .unwrap_err();
        assert!(
            matches!(err, cuda_sim::CudaError::InvalidCopyKind { .. }),
            "width past a pitch: {err}"
        );
        assert_eq!(snapshot(&w), before, "blocking, pitches {dpitch}/{spitch}");
        let err = w
            .cuda
            .memcpy_2d_async(d, dpitch, h, spitch, 64, 4, CopyKind::Default, live)
            .unwrap_err();
        assert!(
            matches!(err, cuda_sim::CudaError::InvalidCopyKind { .. }),
            "width past a pitch: {err}"
        );
        assert_eq!(snapshot(&w), before, "async, pitches {dpitch}/{spitch}");
    }
    // The same copy within its pitches annotates.
    w.cuda
        .memcpy_2d_async(d, 64, h, 64, 64, 4, CopyKind::Default, live)
        .unwrap();
    assert_ne!(snapshot(&w), before, "a good 2-D copy annotates");
}

#[test]
fn event_record_on_invalid_event_leaves_detector_unchanged() {
    let mut w = world();
    let before = snapshot(&w);
    let err = w
        .cuda
        .event_record(EventId(99), StreamId::DEFAULT)
        .unwrap_err();
    assert!(
        matches!(err, cuda_sim::CudaError::InvalidEvent(99)),
        "got {err}"
    );
    assert_eq!(
        snapshot(&w),
        before,
        "failed record must not release the event arc"
    );
}

#[test]
fn event_record_on_destroyed_event_leaves_detector_unchanged() {
    let mut w = world();
    let e = w.cuda.event_create();
    w.cuda.event_destroy(e).unwrap();
    let before = snapshot(&w);
    let err = w.cuda.event_record(e, StreamId::DEFAULT).unwrap_err();
    assert!(
        matches!(err, cuda_sim::CudaError::InvalidEvent(_)),
        "got {err}"
    );
    assert_eq!(snapshot(&w), before);
}

#[test]
fn stream_query_after_destroy_leaves_detector_unchanged() {
    let mut w = world();
    let s = w.cuda.stream_create(StreamFlags::Default);
    w.cuda.stream_destroy(s).unwrap();
    let before = snapshot(&w);
    let err = w.cuda.stream_query(s).unwrap_err();
    assert!(
        matches!(
            err,
            cuda_sim::CudaError::InvalidStream(_) | cuda_sim::CudaError::StreamDestroyed(_)
        ),
        "got {err}"
    );
    assert_eq!(
        snapshot(&w),
        before,
        "failed query is not a synchronization"
    );
}

#[test]
fn injected_fault_on_malloc_registers_no_allocation() {
    // Differential: a world whose very first checked call faults vs. an
    // identical world that makes no call at all. The only admissible
    // difference is the ApiFault marker itself.
    let control = world();
    // The controller fails site 0 of lane 0: the world's first checked
    // call.
    let mut w = world_with_faults(Some(FaultSchedule::single(SchedulePlan::defaults(1), 0, 0)));
    let err = w.cuda.malloc::<f64>(64).unwrap_err();
    assert!(
        matches!(
            err,
            cuda_sim::CudaError::Mem(MemError::FaultInjected { call: "cudaMalloc" })
        ),
        "got {err}"
    );
    assert_eq!(
        w.cuda.space().stats().live_allocs,
        0,
        "failed malloc must register no allocation"
    );
    let mut after = snapshot(&w);
    assert_eq!(after.events.api_faults, 1);
    after.events.api_faults = 0;
    assert_eq!(
        after,
        snapshot(&control),
        "a faulted malloc must touch nothing but the fault marker"
    );
}
