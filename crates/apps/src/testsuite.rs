//! The correctness testsuite (paper §VI-C, the `cusan-tests` analogue).
//!
//! Small-scale CUDA-aware MPI programs, each *manually classified* as
//! correct or incorrect (containing a data race / datatype misuse). The
//! suite serves the same two purposes as the paper's: (i) a test harness
//! verifying the checker's detection capabilities — every case must be
//! classified correctly — and (ii) executable documentation of the
//! supported CUDA features and their synchronization behaviour.
//!
//! Case names follow the upstream convention:
//! `<category>/<scenario>[_nok]` where `_nok` marks an incorrect program.
//!
//! Scheduled runs ([`run_case_scheduled`]) record every rank's trace in
//! the config's `trace_format`; [`outcome_digest`] hashes those records
//! straight off [`cusan::TraceReader`], and replaying one goes through
//! [`cusan::replay_stream`] like any other recording.

use crate::kernels::AppKernels;
use cuda_sim::{CopyKind, DefaultStreamMode, StreamFlags, StreamId};
use cusan::Flavor;
use kernel_ir::{LaunchArg, LaunchGrid};
use mpi_sim::{MpiDatatype, ReduceOp};
use must_rt::{run_checked_world, RankCtx};
use sim_mem::Ptr;
use std::sync::Arc;

/// Number of `f64` elements per test buffer (8 KiB: rendezvous path).
pub const N: u64 = 1024;

/// Expected classification of a case.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Expected {
    /// Correct program: no findings of any kind.
    Clean,
    /// Data race must be reported.
    Race,
    /// A MUST datatype/extent finding must be reported (no race).
    MustReport,
}

/// One testsuite case.
pub struct Case {
    /// `category/scenario` name.
    pub name: &'static str,
    /// Expected classification.
    pub expected: Expected,
    /// Per-rank body (world size is always 2).
    pub run: fn(&mut RankCtx, &'static AppKernels),
}

/// Outcome of executing one case under the full MUST & CuSan stack.
#[derive(Debug)]
pub struct CaseOutcome {
    /// Races reported (all ranks).
    pub races: u64,
    /// MUST findings (all ranks).
    pub must_reports: usize,
    /// Render-ready detail lines.
    pub details: Vec<String>,
}

/// Execute a case under the full MUST & CuSan stack.
pub fn run_case(case: &Case) -> CaseOutcome {
    run_case_with(case, Flavor::MustCusan.config())
}

/// Execute a case under an explicit tool configuration (used by the
/// bounded-tracking detection-preservation sweep).
pub fn run_case_with(case: &Case, cfg: cusan::ToolConfig) -> CaseOutcome {
    let k = AppKernels::shared();
    let run = case.run;
    let out = run_checked_world(2, cfg, Arc::clone(&k.registry), move |ctx| {
        run(ctx, k);
    });
    let mut details = Vec::new();
    for (rank, r) in out.all_races() {
        details.push(format!("rank {rank}: {r}"));
    }
    for (rank, m) in out.all_must_reports() {
        details.push(format!("rank {rank}: MUST: {m}"));
    }
    CaseOutcome {
        races: out.total_races(),
        must_reports: out.all_must_reports().len(),
        details,
    }
}

/// Check a case against its expected classification.
pub fn check_case(case: &Case) -> Result<CaseOutcome, String> {
    check_case_with(case, Flavor::MustCusan.config())
}

/// Check a case under an explicit tool configuration.
pub fn check_case_with(case: &Case, cfg: cusan::ToolConfig) -> Result<CaseOutcome, String> {
    let out = run_case_with(case, cfg);
    let ok = match case.expected {
        Expected::Clean => out.races == 0 && out.must_reports == 0,
        Expected::Race => out.races > 0,
        Expected::MustReport => out.must_reports > 0 && out.races == 0,
    };
    if ok {
        Ok(out)
    } else {
        Err(format!(
            "{}: expected {:?}, observed races={} must_reports={}\n{}",
            case.name,
            case.expected,
            out.races,
            out.must_reports,
            out.details.join("\n")
        ))
    }
}

// ---- kernel-launch helpers ----------------------------------------------------

fn fill(ctx: &mut RankCtx, k: &AppKernels, p: Ptr, v: f64, s: StreamId) {
    ctx.cuda
        .launch(
            k.fill,
            LaunchGrid::linear(N),
            s,
            vec![
                LaunchArg::Ptr(p),
                LaunchArg::F64(v),
                LaunchArg::I64(N as i64),
            ],
        )
        .unwrap();
}

fn consume(ctx: &mut RankCtx, k: &AppKernels, out: Ptr, inp: Ptr, s: StreamId) {
    ctx.cuda
        .launch(
            k.copy,
            LaunchGrid::linear(N),
            s,
            vec![
                LaunchArg::Ptr(out),
                LaunchArg::Ptr(inp),
                LaunchArg::I64(N as i64),
            ],
        )
        .unwrap();
}

fn peer_recv(ctx: &mut RankCtx) {
    let buf = ctx.cuda.malloc::<f64>(N).unwrap();
    ctx.mpi.recv(buf, N, MpiDatatype::Double, 0, 0).unwrap();
}

fn peer_send(ctx: &mut RankCtx, k: &AppKernels) {
    let buf = ctx.cuda.malloc::<f64>(N).unwrap();
    fill(ctx, k, buf, 5.0, StreamId::DEFAULT);
    ctx.cuda.device_synchronize().unwrap();
    ctx.mpi.send(buf, N, MpiDatatype::Double, 0, 0).unwrap();
}

// ---- the suite -------------------------------------------------------------------

/// Programs whose execution depends on thread timing by construction: a
/// free racing an in-flight send, and a `Waitany` taking whichever
/// request finishes first. Their verdict and MUST findings repeat from
/// run to run; which race they report, and the bytes they record, need
/// not.
pub const TIMING_DEPENDENT: [&str; 3] = [
    "cuda-to-mpi/free_during_isend_nok",
    "extensions/waitany_then_kernel",
    "extensions/waitany_wrong_buffer_nok",
];

/// All cases, grouped by category.
pub fn cases() -> Vec<Case> {
    macro_rules! case {
        ($name:literal, $expected:ident, $body:expr) => {
            Case {
                name: $name,
                expected: Expected::$expected,
                run: $body,
            }
        };
    }
    vec![
        // ------------------------- cuda-to-mpi -------------------------
        case!("cuda-to-mpi/send_device_sync", Clean, |ctx, k| {
            if ctx.rank() == 0 {
                let d = ctx.cuda.malloc::<f64>(N).unwrap();
                fill(ctx, k, d, 1.0, StreamId::DEFAULT);
                ctx.cuda.device_synchronize().unwrap();
                ctx.mpi.send(d, N, MpiDatatype::Double, 1, 0).unwrap();
            } else {
                peer_recv(ctx);
            }
        }),
        case!("cuda-to-mpi/send_no_sync_nok", Race, |ctx, k| {
            if ctx.rank() == 0 {
                let d = ctx.cuda.malloc::<f64>(N).unwrap();
                fill(ctx, k, d, 1.0, StreamId::DEFAULT);
                ctx.mpi.send(d, N, MpiDatatype::Double, 1, 0).unwrap();
            } else {
                peer_recv(ctx);
            }
        }),
        case!("cuda-to-mpi/send_stream_sync", Clean, |ctx, k| {
            if ctx.rank() == 0 {
                let s = ctx.cuda.stream_create(StreamFlags::NonBlocking);
                let d = ctx.cuda.malloc::<f64>(N).unwrap();
                fill(ctx, k, d, 1.0, s);
                ctx.cuda.stream_synchronize(s).unwrap();
                ctx.mpi.send(d, N, MpiDatatype::Double, 1, 0).unwrap();
            } else {
                peer_recv(ctx);
            }
        }),
        case!("cuda-to-mpi/send_wrong_stream_sync_nok", Race, |ctx, k| {
            if ctx.rank() == 0 {
                let s1 = ctx.cuda.stream_create(StreamFlags::NonBlocking);
                let s2 = ctx.cuda.stream_create(StreamFlags::NonBlocking);
                let d = ctx.cuda.malloc::<f64>(N).unwrap();
                fill(ctx, k, d, 1.0, s1);
                ctx.cuda.stream_synchronize(s2).unwrap(); // wrong stream
                ctx.mpi.send(d, N, MpiDatatype::Double, 1, 0).unwrap();
            } else {
                peer_recv(ctx);
            }
        }),
        case!("cuda-to-mpi/send_event_sync", Clean, |ctx, k| {
            if ctx.rank() == 0 {
                let s = ctx.cuda.stream_create(StreamFlags::NonBlocking);
                let e = ctx.cuda.event_create();
                let d = ctx.cuda.malloc::<f64>(N).unwrap();
                fill(ctx, k, d, 1.0, s);
                ctx.cuda.event_record(e, s).unwrap();
                ctx.cuda.event_synchronize(e).unwrap();
                ctx.mpi.send(d, N, MpiDatatype::Double, 1, 0).unwrap();
            } else {
                peer_recv(ctx);
            }
        }),
        case!(
            "cuda-to-mpi/send_event_before_kernel_nok",
            Race,
            |ctx, k| {
                if ctx.rank() == 0 {
                    let s = ctx.cuda.stream_create(StreamFlags::NonBlocking);
                    let e = ctx.cuda.event_create();
                    let d = ctx.cuda.malloc::<f64>(N).unwrap();
                    ctx.cuda.event_record(e, s).unwrap(); // marker BEFORE the kernel
                    fill(ctx, k, d, 1.0, s);
                    ctx.cuda.event_synchronize(e).unwrap();
                    ctx.mpi.send(d, N, MpiDatatype::Double, 1, 0).unwrap();
                } else {
                    peer_recv(ctx);
                }
            }
        ),
        case!("cuda-to-mpi/send_memcpy_sync", Clean, |ctx, k| {
            // A blocking D2H memcpy is an implicit synchronization point.
            if ctx.rank() == 0 {
                let d = ctx.cuda.malloc::<f64>(N).unwrap();
                let h = ctx.cuda.host_malloc::<f64>(N).unwrap();
                fill(ctx, k, d, 1.0, StreamId::DEFAULT);
                ctx.cuda
                    .memcpy(h, d, N * 8, CopyKind::DeviceToHost)
                    .unwrap();
                ctx.mpi.send(d, N, MpiDatatype::Double, 1, 0).unwrap();
            } else {
                peer_recv(ctx);
            }
        }),
        case!("cuda-to-mpi/send_memcpy_async_nok", Race, |ctx, k| {
            // The async variant does NOT synchronize the host.
            if ctx.rank() == 0 {
                let d = ctx.cuda.malloc::<f64>(N).unwrap();
                let h = ctx.cuda.host_alloc::<f64>(N).unwrap();
                fill(ctx, k, d, 1.0, StreamId::DEFAULT);
                ctx.cuda
                    .memcpy_async(h, d, N * 8, CopyKind::DeviceToHost, StreamId::DEFAULT)
                    .unwrap();
                ctx.mpi.send(d, N, MpiDatatype::Double, 1, 0).unwrap();
            } else {
                peer_recv(ctx);
            }
        }),
        case!("cuda-to-mpi/send_query_sync", Clean, |ctx, k| {
            if ctx.rank() == 0 {
                let d = ctx.cuda.malloc::<f64>(N).unwrap();
                fill(ctx, k, d, 1.0, StreamId::DEFAULT);
                // Busy-wait query acts as synchronization (paper §III-B1).
                while !ctx.cuda.stream_query(StreamId::DEFAULT).unwrap() {}
                ctx.mpi.send(d, N, MpiDatatype::Double, 1, 0).unwrap();
            } else {
                peer_recv(ctx);
            }
        }),
        case!("cuda-to-mpi/send_nonblocking_stream_nok", Race, |ctx, k| {
            if ctx.rank() == 0 {
                let s = ctx.cuda.stream_create(StreamFlags::NonBlocking);
                let d = ctx.cuda.malloc::<f64>(N).unwrap();
                fill(ctx, k, d, 1.0, s);
                // Synchronizing the DEFAULT stream does not cover a
                // non-blocking stream.
                ctx.cuda.stream_synchronize(StreamId::DEFAULT).unwrap();
                ctx.mpi.send(d, N, MpiDatatype::Double, 1, 0).unwrap();
            } else {
                peer_recv(ctx);
            }
        }),
        case!(
            "cuda-to-mpi/send_default_sync_covers_blocking_stream",
            Clean,
            |ctx, k| {
                // Legacy semantics: synchronizing the default stream also
                // terminates blocking user streams (paper §IV-A e).
                if ctx.rank() == 0 {
                    let s = ctx.cuda.stream_create(StreamFlags::Default);
                    let d = ctx.cuda.malloc::<f64>(N).unwrap();
                    fill(ctx, k, d, 1.0, s);
                    ctx.cuda.stream_synchronize(StreamId::DEFAULT).unwrap();
                    ctx.mpi.send(d, N, MpiDatatype::Double, 1, 0).unwrap();
                } else {
                    peer_recv(ctx);
                }
            }
        ),
        case!("cuda-to-mpi/isend_wait_then_kernel", Clean, |ctx, k| {
            if ctx.rank() == 0 {
                let d = ctx.cuda.malloc::<f64>(N).unwrap();
                fill(ctx, k, d, 1.0, StreamId::DEFAULT);
                ctx.cuda.device_synchronize().unwrap();
                let mut req = ctx.mpi.isend(d, N, MpiDatatype::Double, 1, 0).unwrap();
                ctx.mpi.wait(&mut req).unwrap();
                fill(ctx, k, d, 2.0, StreamId::DEFAULT);
                ctx.cuda.device_synchronize().unwrap();
            } else {
                peer_recv(ctx);
            }
        }),
        case!(
            "cuda-to-mpi/isend_kernel_before_wait_nok",
            Race,
            |ctx, k| {
                if ctx.rank() == 0 {
                    let d = ctx.cuda.malloc::<f64>(N).unwrap();
                    fill(ctx, k, d, 1.0, StreamId::DEFAULT);
                    ctx.cuda.device_synchronize().unwrap();
                    let mut req = ctx.mpi.isend(d, N, MpiDatatype::Double, 1, 0).unwrap();
                    fill(ctx, k, d, 2.0, StreamId::DEFAULT); // inside the region
                    ctx.mpi.wait(&mut req).unwrap();
                    ctx.cuda.device_synchronize().unwrap();
                } else {
                    peer_recv(ctx);
                }
            }
        ),
        case!("cuda-to-mpi/send_pinned_buffer", Clean, |ctx, k| {
            if ctx.rank() == 0 {
                let p = ctx.cuda.host_alloc::<f64>(N).unwrap();
                fill(ctx, k, p, 3.0, StreamId::DEFAULT);
                ctx.cuda.device_synchronize().unwrap();
                ctx.mpi.send(p, N, MpiDatatype::Double, 1, 0).unwrap();
            } else {
                peer_recv(ctx);
            }
        }),
        case!("cuda-to-mpi/free_during_isend_nok", Race, |ctx, k| {
            // Use-after-free: the buffer is released inside the Isend's
            // concurrent region. The race is reported at the free; the
            // rendezvous transfer then faults, so both sides tolerate the
            // resulting MPI errors.
            if ctx.rank() == 0 {
                let d = ctx.cuda.malloc::<f64>(N).unwrap();
                fill(ctx, k, d, 1.0, StreamId::DEFAULT);
                ctx.cuda.device_synchronize().unwrap();
                let mut req = ctx.mpi.isend(d, N, MpiDatatype::Double, 1, 0).unwrap();
                ctx.cuda.free(d).unwrap(); // released inside the region
                let _ = ctx.mpi.wait(&mut req);
            } else {
                let buf = ctx.cuda.malloc::<f64>(N).unwrap();
                let _ = ctx.mpi.recv(buf, N, MpiDatatype::Double, 0, 0);
            }
        }),
        case!("cuda-to-mpi/send_memset_async_nok", Race, |ctx, _k| {
            if ctx.rank() == 0 {
                let d = ctx.cuda.malloc::<f64>(N).unwrap();
                ctx.cuda.memset(d, 0xFF, N * 8).unwrap(); // async w.r.t. host
                ctx.mpi.send(d, N, MpiDatatype::Double, 1, 0).unwrap();
            } else {
                peer_recv(ctx);
            }
        }),
        case!("cuda-to-mpi/send_memset_pinned", Clean, |ctx, _k| {
            if ctx.rank() == 0 {
                let p = ctx.cuda.host_alloc::<f64>(N).unwrap();
                ctx.cuda.memset(p, 0, N * 8).unwrap(); // pinned: blocks host
                ctx.mpi.send(p, N, MpiDatatype::Double, 1, 0).unwrap();
            } else {
                peer_recv(ctx);
            }
        }),
        case!("cuda-to-mpi/send_memset_then_sync", Clean, |ctx, _k| {
            if ctx.rank() == 0 {
                let d = ctx.cuda.malloc::<f64>(N).unwrap();
                ctx.cuda.memset(d, 0, N * 8).unwrap();
                ctx.cuda.device_synchronize().unwrap();
                ctx.mpi.send(d, N, MpiDatatype::Double, 1, 0).unwrap();
            } else {
                peer_recv(ctx);
            }
        }),
        case!("cuda-to-mpi/allreduce_no_sync_nok", Race, |ctx, k| {
            let s = ctx.cuda.malloc::<f64>(N).unwrap();
            let r = ctx.cuda.malloc::<f64>(N).unwrap();
            fill(ctx, k, s, 1.0, StreamId::DEFAULT);
            // Missing sync before the collective reads the send buffer.
            ctx.mpi
                .allreduce(s, r, N, MpiDatatype::Double, ReduceOp::Sum)
                .unwrap();
        }),
        case!("cuda-to-mpi/allreduce_sync", Clean, |ctx, k| {
            let s = ctx.cuda.malloc::<f64>(N).unwrap();
            let r = ctx.cuda.malloc::<f64>(N).unwrap();
            fill(ctx, k, s, 1.0, StreamId::DEFAULT);
            ctx.cuda.device_synchronize().unwrap();
            ctx.mpi
                .allreduce(s, r, N, MpiDatatype::Double, ReduceOp::Sum)
                .unwrap();
        }),
        // ------------------------- mpi-to-cuda -------------------------
        case!("mpi-to-cuda/irecv_wait_kernel", Clean, |ctx, k| {
            if ctx.rank() == 0 {
                let d = ctx.cuda.malloc::<f64>(N).unwrap();
                let out = ctx.cuda.malloc::<f64>(N).unwrap();
                let mut req = ctx.mpi.irecv(d, N, MpiDatatype::Double, 1, 0).unwrap();
                ctx.mpi.wait(&mut req).unwrap();
                consume(ctx, k, out, d, StreamId::DEFAULT);
                ctx.cuda.device_synchronize().unwrap();
            } else {
                peer_send(ctx, k);
            }
        }),
        case!(
            "mpi-to-cuda/irecv_kernel_before_wait_nok",
            Race,
            |ctx, k| {
                if ctx.rank() == 0 {
                    let d = ctx.cuda.malloc::<f64>(N).unwrap();
                    let out = ctx.cuda.malloc::<f64>(N).unwrap();
                    let mut req = ctx.mpi.irecv(d, N, MpiDatatype::Double, 1, 0).unwrap();
                    consume(ctx, k, out, d, StreamId::DEFAULT); // before Wait
                    ctx.mpi.wait(&mut req).unwrap();
                    ctx.cuda.device_synchronize().unwrap();
                } else {
                    peer_send(ctx, k);
                }
            }
        ),
        case!("mpi-to-cuda/irecv_test_loop", Clean, |ctx, k| {
            if ctx.rank() == 0 {
                let d = ctx.cuda.malloc::<f64>(N).unwrap();
                let out = ctx.cuda.malloc::<f64>(N).unwrap();
                let mut req = ctx.mpi.irecv(d, N, MpiDatatype::Double, 1, 0).unwrap();
                // Poll with MPI_Test until completion — a successful test
                // is a completion call.
                while ctx.mpi.test(&mut req).unwrap().is_none() {
                    std::thread::yield_now();
                }
                consume(ctx, k, out, d, StreamId::DEFAULT);
                ctx.cuda.device_synchronize().unwrap();
            } else {
                peer_send(ctx, k);
            }
        }),
        case!("mpi-to-cuda/recv_then_kernel", Clean, |ctx, k| {
            if ctx.rank() == 0 {
                let d = ctx.cuda.malloc::<f64>(N).unwrap();
                let out = ctx.cuda.malloc::<f64>(N).unwrap();
                ctx.mpi.recv(d, N, MpiDatatype::Double, 1, 0).unwrap();
                consume(ctx, k, out, d, StreamId::DEFAULT);
                ctx.cuda.device_synchronize().unwrap();
            } else {
                peer_send(ctx, k);
            }
        }),
        case!("mpi-to-cuda/recv_into_kernel_input_nok", Race, |ctx, k| {
            if ctx.rank() == 0 {
                let d = ctx.cuda.malloc::<f64>(N).unwrap();
                let out = ctx.cuda.malloc::<f64>(N).unwrap();
                consume(ctx, k, out, d, StreamId::DEFAULT); // kernel reads d...
                                                            // ...while the blocking Recv writes it, unsynchronized.
                ctx.mpi.recv(d, N, MpiDatatype::Double, 1, 0).unwrap();
                ctx.cuda.device_synchronize().unwrap();
            } else {
                peer_send(ctx, k);
            }
        }),
        case!(
            "mpi-to-cuda/irecv_host_read_before_wait_nok",
            Race,
            |ctx, k| {
                if ctx.rank() == 0 {
                    let d = ctx.cuda.malloc::<f64>(N).unwrap();
                    let mut req = ctx.mpi.irecv(d, N, MpiDatatype::Double, 1, 0).unwrap();
                    let _ = ctx
                        .tools
                        .host_read_slice::<f64>(&ctx.space(), d, N, "host read before wait")
                        .unwrap();
                    ctx.mpi.wait(&mut req).unwrap();
                } else {
                    peer_send(ctx, k);
                }
            }
        ),
        case!("mpi-to-cuda/irecv_wait_host_read", Clean, |ctx, k| {
            if ctx.rank() == 0 {
                let d = ctx.cuda.malloc::<f64>(N).unwrap();
                let mut req = ctx.mpi.irecv(d, N, MpiDatatype::Double, 1, 0).unwrap();
                ctx.mpi.wait(&mut req).unwrap();
                let v = ctx
                    .tools
                    .host_read_slice::<f64>(&ctx.space(), d, N, "host read after wait")
                    .unwrap();
                assert_eq!(v[0], 5.0);
            } else {
                peer_send(ctx, k);
            }
        }),
        case!(
            "mpi-to-cuda/isend_host_write_before_wait_nok",
            Race,
            |ctx, k| {
                // The paper's Fig. 1 race.
                if ctx.rank() == 0 {
                    let d = ctx.cuda.malloc::<f64>(N).unwrap();
                    let mut req = ctx.mpi.isend(d, N, MpiDatatype::Double, 1, 0).unwrap();
                    ctx.tools
                        .host_write_at::<f64>(&ctx.space(), d, 9.0, "host write before wait")
                        .unwrap();
                    ctx.mpi.wait(&mut req).unwrap();
                } else {
                    let _ = k;
                    peer_recv(ctx);
                }
            }
        ),
        case!("mpi-to-cuda/overlapping_irecv_nok", Race, |ctx, k| {
            // Two concurrent Irecvs into the same device buffer: the MPI
            // fibers' writes conflict with each other.
            if ctx.rank() == 0 {
                let d = ctx.cuda.malloc::<f64>(N).unwrap();
                let mut r1 = ctx.mpi.irecv(d, N, MpiDatatype::Double, 1, 0).unwrap();
                let mut r2 = ctx.mpi.irecv(d, N, MpiDatatype::Double, 1, 1).unwrap();
                ctx.mpi.wait(&mut r1).unwrap();
                ctx.mpi.wait(&mut r2).unwrap();
            } else {
                let d = ctx.cuda.malloc::<f64>(N).unwrap();
                ctx.tools
                    .host_write_slice::<f64>(&ctx.space(), d, &vec![1.0; N as usize], "init")
                    .unwrap();
                ctx.mpi.send(d, N, MpiDatatype::Double, 0, 0).unwrap();
                ctx.mpi.send(d, N, MpiDatatype::Double, 0, 1).unwrap();
                let _ = k;
            }
        }),
        case!("mpi-to-cuda/disjoint_irecv_waitall", Clean, |ctx, k| {
            // Two Irecvs into disjoint halves of one buffer are fine.
            if ctx.rank() == 0 {
                let d = ctx.cuda.malloc::<f64>(N).unwrap();
                let half = N / 2;
                let mut reqs = vec![
                    ctx.mpi.irecv(d, half, MpiDatatype::Double, 1, 0).unwrap(),
                    ctx.mpi
                        .irecv(d.offset(half * 8), half, MpiDatatype::Double, 1, 1)
                        .unwrap(),
                ];
                ctx.mpi.waitall(&mut reqs).unwrap();
            } else {
                let d = ctx.cuda.malloc::<f64>(N).unwrap();
                fill(ctx, k, d, 2.0, StreamId::DEFAULT);
                ctx.cuda.device_synchronize().unwrap();
                ctx.mpi.send(d, N / 2, MpiDatatype::Double, 0, 0).unwrap();
                ctx.mpi.send(d, N / 2, MpiDatatype::Double, 0, 1).unwrap();
            }
        }),
        case!("mpi-to-cuda/sendrecv_kernel_after", Clean, |ctx, k| {
            let me = ctx.rank();
            let peer = 1 - me as i64;
            let tx = ctx.cuda.malloc::<f64>(N).unwrap();
            let rx = ctx.cuda.malloc::<f64>(N).unwrap();
            let out = ctx.cuda.malloc::<f64>(N).unwrap();
            fill(ctx, k, tx, me as f64, StreamId::DEFAULT);
            ctx.cuda.device_synchronize().unwrap();
            ctx.mpi
                .sendrecv(tx, N, peer, 0, rx, N, peer as i32, 0, MpiDatatype::Double)
                .unwrap();
            consume(ctx, k, out, rx, StreamId::DEFAULT);
            ctx.cuda.device_synchronize().unwrap();
        }),
        case!("mpi-to-cuda/bcast_device", Clean, |ctx, k| {
            let d = ctx.cuda.malloc::<f64>(N).unwrap();
            if ctx.rank() == 0 {
                fill(ctx, k, d, 4.0, StreamId::DEFAULT);
                ctx.cuda.device_synchronize().unwrap();
            }
            ctx.mpi.bcast(d, N, MpiDatatype::Double, 0).unwrap();
        }),
        case!("mpi-to-cuda/bcast_kernel_pending_nok", Race, |ctx, k| {
            let d = ctx.cuda.malloc::<f64>(N).unwrap();
            if ctx.rank() == 0 {
                fill(ctx, k, d, 4.0, StreamId::DEFAULT);
                // root's send buffer read while the kernel is pending
            }
            ctx.mpi.bcast(d, N, MpiDatatype::Double, 0).unwrap();
        }),
        // ------------------------- cuda-to-cuda -------------------------
        case!("cuda-to-cuda/two_streams_no_sync_nok", Race, |ctx, k| {
            let s1 = ctx.cuda.stream_create(StreamFlags::NonBlocking);
            let s2 = ctx.cuda.stream_create(StreamFlags::NonBlocking);
            let d = ctx.cuda.malloc::<f64>(N).unwrap();
            let out = ctx.cuda.malloc::<f64>(N).unwrap();
            fill(ctx, k, d, 1.0, s1);
            consume(ctx, k, out, d, s2);
            ctx.cuda.device_synchronize().unwrap();
        }),
        case!("cuda-to-cuda/two_streams_wait_event", Clean, |ctx, k| {
            let s1 = ctx.cuda.stream_create(StreamFlags::NonBlocking);
            let s2 = ctx.cuda.stream_create(StreamFlags::NonBlocking);
            let e = ctx.cuda.event_create();
            let d = ctx.cuda.malloc::<f64>(N).unwrap();
            let out = ctx.cuda.malloc::<f64>(N).unwrap();
            fill(ctx, k, d, 1.0, s1);
            ctx.cuda.event_record(e, s1).unwrap();
            ctx.cuda.stream_wait_event(s2, e).unwrap();
            consume(ctx, k, out, d, s2);
            ctx.cuda.device_synchronize().unwrap();
        }),
        case!(
            "cuda-to-cuda/two_streams_host_sync_between",
            Clean,
            |ctx, k| {
                let s1 = ctx.cuda.stream_create(StreamFlags::NonBlocking);
                let s2 = ctx.cuda.stream_create(StreamFlags::NonBlocking);
                let d = ctx.cuda.malloc::<f64>(N).unwrap();
                let out = ctx.cuda.malloc::<f64>(N).unwrap();
                fill(ctx, k, d, 1.0, s1);
                ctx.cuda.stream_synchronize(s1).unwrap();
                consume(ctx, k, out, d, s2);
                ctx.cuda.device_synchronize().unwrap();
            }
        ),
        case!("cuda-to-cuda/legacy_user_then_default", Clean, |ctx, k| {
            // Fig. 3 logical barrier: no explicit sync needed.
            let s = ctx.cuda.stream_create(StreamFlags::Default);
            let d = ctx.cuda.malloc::<f64>(N).unwrap();
            let out = ctx.cuda.malloc::<f64>(N).unwrap();
            fill(ctx, k, d, 1.0, s);
            consume(ctx, k, out, d, StreamId::DEFAULT);
            ctx.cuda.device_synchronize().unwrap();
        }),
        case!("cuda-to-cuda/legacy_default_then_user", Clean, |ctx, k| {
            let s = ctx.cuda.stream_create(StreamFlags::Default);
            let d = ctx.cuda.malloc::<f64>(N).unwrap();
            let out = ctx.cuda.malloc::<f64>(N).unwrap();
            fill(ctx, k, d, 1.0, StreamId::DEFAULT);
            consume(ctx, k, out, d, s);
            ctx.cuda.device_synchronize().unwrap();
        }),
        case!("cuda-to-cuda/legacy_transitive_chain", Clean, |ctx, k| {
            // K1 (s1) -> K0 (default) -> K2 (s2), all blocking: ordered.
            let s1 = ctx.cuda.stream_create(StreamFlags::Default);
            let s2 = ctx.cuda.stream_create(StreamFlags::Default);
            let a = ctx.cuda.malloc::<f64>(N).unwrap();
            let b = ctx.cuda.malloc::<f64>(N).unwrap();
            let c = ctx.cuda.malloc::<f64>(N).unwrap();
            fill(ctx, k, a, 1.0, s1);
            consume(ctx, k, b, a, StreamId::DEFAULT);
            consume(ctx, k, c, b, s2);
            ctx.cuda.stream_synchronize(s2).unwrap();
            let v = ctx
                .tools
                .host_read_slice::<f64>(&ctx.space(), c, N, "chain check")
                .unwrap();
            assert_eq!(v[0], 1.0);
        }),
        case!(
            "cuda-to-cuda/nonblocking_escapes_barrier_nok",
            Race,
            |ctx, k| {
                let nb = ctx.cuda.stream_create(StreamFlags::NonBlocking);
                let d = ctx.cuda.malloc::<f64>(N).unwrap();
                let out = ctx.cuda.malloc::<f64>(N).unwrap();
                fill(ctx, k, d, 1.0, nb);
                consume(ctx, k, out, d, StreamId::DEFAULT); // no barrier for nb
                ctx.cuda.device_synchronize().unwrap();
            }
        ),
        case!("cuda-to-cuda/same_stream_fifo", Clean, |ctx, k| {
            let d = ctx.cuda.malloc::<f64>(N).unwrap();
            let out = ctx.cuda.malloc::<f64>(N).unwrap();
            fill(ctx, k, d, 1.0, StreamId::DEFAULT);
            fill(ctx, k, d, 2.0, StreamId::DEFAULT);
            consume(ctx, k, out, d, StreamId::DEFAULT);
            ctx.cuda.device_synchronize().unwrap();
        }),
        // ------------------------- cuda-to-host -------------------------
        case!("cuda-to-host/read_no_sync_nok", Race, |ctx, k| {
            let d = ctx.cuda.malloc::<f64>(N).unwrap();
            fill(ctx, k, d, 1.0, StreamId::DEFAULT);
            let _ = ctx
                .tools
                .host_read_slice::<f64>(&ctx.space(), d, N, "host read")
                .unwrap();
        }),
        case!("cuda-to-host/read_after_device_sync", Clean, |ctx, k| {
            let d = ctx.cuda.malloc::<f64>(N).unwrap();
            fill(ctx, k, d, 1.0, StreamId::DEFAULT);
            ctx.cuda.device_synchronize().unwrap();
            let v = ctx
                .tools
                .host_read_slice::<f64>(&ctx.space(), d, N, "host read")
                .unwrap();
            assert_eq!(v[0], 1.0);
        }),
        case!("cuda-to-host/memcpy_async_read_nok", Race, |ctx, _k| {
            let d = ctx.cuda.malloc::<f64>(N).unwrap();
            let h = ctx.cuda.host_alloc::<f64>(N).unwrap();
            ctx.cuda
                .memcpy_async(h, d, N * 8, CopyKind::DeviceToHost, StreamId::DEFAULT)
                .unwrap();
            let _ = ctx
                .tools
                .host_read_slice::<f64>(&ctx.space(), h, N, "host read")
                .unwrap();
        }),
        case!("cuda-to-host/memcpy_sync_read", Clean, |ctx, _k| {
            let d = ctx.cuda.malloc::<f64>(N).unwrap();
            let h = ctx.cuda.host_malloc::<f64>(N).unwrap();
            ctx.cuda
                .memcpy(h, d, N * 8, CopyKind::DeviceToHost)
                .unwrap();
            let _ = ctx
                .tools
                .host_read_slice::<f64>(&ctx.space(), h, N, "host read")
                .unwrap();
        }),
        case!("cuda-to-host/memset_device_read_nok", Race, |ctx, _k| {
            let d = ctx.cuda.malloc::<f64>(N).unwrap();
            ctx.cuda.memset(d, 0xAB, N * 8).unwrap();
            let _ = ctx
                .tools
                .host_read_slice::<f64>(&ctx.space(), d, N, "host read")
                .unwrap();
        }),
        case!("cuda-to-host/memset_pinned_read", Clean, |ctx, _k| {
            let p = ctx.cuda.host_alloc::<f64>(N).unwrap();
            ctx.cuda.memset(p, 0, N * 8).unwrap();
            let _ = ctx
                .tools
                .host_read_slice::<f64>(&ctx.space(), p, N, "host read")
                .unwrap();
        }),
        case!(
            "cuda-to-host/managed_write_during_kernel_nok",
            Race,
            |ctx, k| {
                let m = ctx.cuda.malloc_managed::<f64>(N).unwrap();
                fill(ctx, k, m, 1.0, StreamId::DEFAULT);
                ctx.tools
                    .host_write_at::<f64>(&ctx.space(), m, 7.0, "managed host write")
                    .unwrap();
                ctx.cuda.device_synchronize().unwrap();
            }
        ),
        case!("cuda-to-host/managed_write_after_sync", Clean, |ctx, k| {
            let m = ctx.cuda.malloc_managed::<f64>(N).unwrap();
            fill(ctx, k, m, 1.0, StreamId::DEFAULT);
            ctx.cuda.device_synchronize().unwrap();
            ctx.tools
                .host_write_at::<f64>(&ctx.space(), m, 7.0, "managed host write")
                .unwrap();
        }),
        case!("cuda-to-host/host_init_then_kernel", Clean, |ctx, k| {
            // Host writes BEFORE the launch are ordered by submission.
            let m = ctx.cuda.malloc_managed::<f64>(N).unwrap();
            ctx.tools
                .host_write_slice::<f64>(&ctx.space(), m, &vec![3.0; N as usize], "init")
                .unwrap();
            let out = ctx.cuda.malloc::<f64>(N).unwrap();
            consume(ctx, k, out, m, StreamId::DEFAULT);
            ctx.cuda.device_synchronize().unwrap();
        }),
        // ------------------ extensions (§VI features) ------------------
        case!(
            "extensions/per_thread_default_no_barrier_nok",
            Race,
            |ctx, k| {
                // Correct under legacy semantics, racy under per-thread mode.
                ctx.cuda
                    .set_default_stream_mode(DefaultStreamMode::PerThread);
                let s = ctx.cuda.stream_create(StreamFlags::Default);
                let d = ctx.cuda.malloc::<f64>(N).unwrap();
                let out = ctx.cuda.malloc::<f64>(N).unwrap();
                fill(ctx, k, d, 1.0, s);
                consume(ctx, k, out, d, StreamId::DEFAULT); // no legacy barrier
                ctx.cuda.device_synchronize().unwrap();
            }
        ),
        case!("extensions/per_thread_event_ordered", Clean, |ctx, k| {
            ctx.cuda
                .set_default_stream_mode(DefaultStreamMode::PerThread);
            let s = ctx.cuda.stream_create(StreamFlags::Default);
            let e = ctx.cuda.event_create();
            let d = ctx.cuda.malloc::<f64>(N).unwrap();
            let out = ctx.cuda.malloc::<f64>(N).unwrap();
            fill(ctx, k, d, 1.0, s);
            ctx.cuda.event_record(e, s).unwrap();
            ctx.cuda.stream_wait_event(StreamId::DEFAULT, e).unwrap();
            consume(ctx, k, out, d, StreamId::DEFAULT);
            ctx.cuda.device_synchronize().unwrap();
        }),
        case!("extensions/waitany_then_kernel", Clean, |ctx, k| {
            if ctx.rank() == 0 {
                let a = ctx.cuda.malloc::<f64>(N).unwrap();
                let b = ctx.cuda.malloc::<f64>(N).unwrap();
                let out = ctx.cuda.malloc::<f64>(N).unwrap();
                let mut reqs = vec![
                    ctx.mpi.irecv(a, N, MpiDatatype::Double, 1, 0).unwrap(),
                    ctx.mpi.irecv(b, N, MpiDatatype::Double, 1, 1).unwrap(),
                ];
                // Consume each buffer only after ITS request completed.
                for _ in 0..2 {
                    let (i, _) = ctx.mpi.waitany(&mut reqs).unwrap();
                    let buf = if i == 0 { a } else { b };
                    consume(ctx, k, out, buf, StreamId::DEFAULT);
                    ctx.cuda.device_synchronize().unwrap();
                }
            } else {
                let d = ctx.cuda.malloc::<f64>(N).unwrap();
                fill(ctx, k, d, 2.0, StreamId::DEFAULT);
                ctx.cuda.device_synchronize().unwrap();
                ctx.mpi.send(d, N, MpiDatatype::Double, 0, 1).unwrap();
                ctx.mpi.send(d, N, MpiDatatype::Double, 0, 0).unwrap();
            }
        }),
        case!("extensions/waitany_wrong_buffer_nok", Race, |ctx, k| {
            if ctx.rank() == 0 {
                let a = ctx.cuda.malloc::<f64>(N).unwrap();
                let b = ctx.cuda.malloc::<f64>(N).unwrap();
                let out = ctx.cuda.malloc::<f64>(N).unwrap();
                let mut reqs = vec![
                    ctx.mpi.irecv(a, N, MpiDatatype::Double, 1, 0).unwrap(),
                    ctx.mpi.irecv(b, N, MpiDatatype::Double, 1, 1).unwrap(),
                ];
                // BUG: waitany completed ONE request but the kernel reads
                // the OTHER, still-in-flight buffer.
                let (i, _) = ctx.mpi.waitany(&mut reqs).unwrap();
                let wrong = if i == 0 { b } else { a };
                consume(ctx, k, out, wrong, StreamId::DEFAULT);
                ctx.mpi.waitall(&mut reqs).unwrap();
                ctx.cuda.device_synchronize().unwrap();
            } else {
                let d = ctx.cuda.malloc::<f64>(N).unwrap();
                ctx.mpi.send(d, N, MpiDatatype::Double, 0, 1).unwrap();
                ctx.mpi.send(d, N, MpiDatatype::Double, 0, 0).unwrap();
            }
        }),
        case!("extensions/memcpy2d_pack_sync", Clean, |ctx, k| {
            // Pitched column pack, synchronized before the send.
            if ctx.rank() == 0 {
                let field = ctx.cuda.malloc::<f64>(N).unwrap(); // 32x32
                let col = ctx.cuda.malloc::<f64>(32).unwrap();
                fill(ctx, k, field, 3.0, StreamId::DEFAULT);
                ctx.cuda.device_synchronize().unwrap();
                ctx.cuda
                    .memcpy_2d(col, 8, field, 32 * 8, 8, 32, CopyKind::DeviceToDevice)
                    .unwrap();
                ctx.cuda.device_synchronize().unwrap();
                ctx.mpi.send(col, 32, MpiDatatype::Double, 1, 0).unwrap();
            } else {
                let col = ctx.cuda.malloc::<f64>(32).unwrap();
                ctx.mpi.recv(col, 32, MpiDatatype::Double, 0, 0).unwrap();
            }
        }),
        case!("extensions/memcpy2d_pack_no_sync_nok", Race, |ctx, k| {
            // The pitched pack is stream-ordered (D2D): sending without a
            // synchronize races with the copy's write of the pack buffer.
            if ctx.rank() == 0 {
                let field = ctx.cuda.malloc::<f64>(N).unwrap();
                let col = ctx.cuda.malloc::<f64>(32).unwrap();
                fill(ctx, k, field, 3.0, StreamId::DEFAULT);
                ctx.cuda.device_synchronize().unwrap();
                ctx.cuda
                    .memcpy_2d(col, 8, field, 32 * 8, 8, 32, CopyKind::DeviceToDevice)
                    .unwrap();
                // MISSING device synchronize.
                ctx.mpi.send(col, 32, MpiDatatype::Double, 1, 0).unwrap();
            } else {
                let col = ctx.cuda.malloc::<f64>(32).unwrap();
                ctx.mpi.recv(col, 32, MpiDatatype::Double, 0, 0).unwrap();
            }
        }),
        // ------------------------- datatype (MUST) -------------------------
        case!("datatype/type_mismatch_nok", MustReport, |ctx, k| {
            let d = ctx.cuda.malloc::<i32>(2 * N).unwrap();
            if ctx.rank() == 0 {
                ctx.mpi.send(d, N, MpiDatatype::Double, 1, 0).unwrap();
            } else {
                ctx.mpi.recv(d, N, MpiDatatype::Double, 0, 0).unwrap();
            }
            let _ = k;
        }),
        case!("datatype/count_overrun_nok", MustReport, |ctx, _k| {
            // Both ranks attempt a send whose count overruns the
            // allocation. MUST reports the overrun at interception; the
            // transfer itself fails in the simulator (like a segfaulting
            // send in reality), so no rank posts a matching receive.
            let d = ctx.cuda.malloc::<f64>(N / 2).unwrap();
            let peer = 1 - ctx.rank() as i64;
            let err = ctx.mpi.send(d, N, MpiDatatype::Double, peer, 0);
            assert!(err.is_err(), "overrun send must fail in the simulator");
        }),
        case!("datatype/byte_view_ok", Clean, |ctx, _k| {
            // MPI_BYTE is compatible with any element type.
            let d = ctx.cuda.malloc::<f64>(N).unwrap();
            if ctx.rank() == 0 {
                ctx.mpi.send(d, N * 8, MpiDatatype::Byte, 1, 0).unwrap();
            } else {
                ctx.mpi.recv(d, N * 8, MpiDatatype::Byte, 0, 0).unwrap();
            }
        }),
        case!("datatype/interior_pointer_ok", Clean, |ctx, _k| {
            let d = ctx.cuda.malloc::<f64>(N).unwrap();
            let half = d.offset(N / 2 * 8);
            if ctx.rank() == 0 {
                ctx.mpi
                    .send(half, N / 2, MpiDatatype::Double, 1, 0)
                    .unwrap();
            } else {
                ctx.mpi
                    .recv(half, N / 2, MpiDatatype::Double, 0, 0)
                    .unwrap();
            }
        }),
    ]
}

// ---- schedule exploration ---------------------------------------------------

/// Element count of the exploration case's payloads: 2 KiB, safely under
/// the simulator's eager limit so rank 1's sends complete at post time
/// and all three are pending together.
const EAGER_M: u64 = 256;

/// The planted wildcard-receive race — deliberately **not** part of
/// [`cases`]. Under the default schedule this program is provably clean:
/// a wildcard `ANY_TAG` receive always matches the globally oldest
/// pending send (the tag-0 message), and that branch synchronizes the
/// device before touching the kernel's output. Only when a schedule
/// controller steers the wildcard match to the younger tag-1 send does
/// the unsynchronized branch execute and race with the still-pending
/// kernel write. One fixed run can never observe it; `explore::explore`
/// finds it by branching the wildcard decision.
pub fn wildcard_schedule_race() -> Case {
    Case {
        name: "explore/wildcard_match_unsynced_branch_nok",
        expected: Expected::Race,
        run: |ctx, k| {
            if ctx.rank() == 0 {
                let d = ctx.cuda.malloc::<f64>(EAGER_M).unwrap();
                let payload = ctx.cuda.malloc::<f64>(EAGER_M).unwrap();
                let ready = ctx.cuda.malloc::<f64>(1).unwrap();
                // Kernel write to `d` stays pending on the default stream.
                ctx.cuda
                    .launch(
                        k.fill,
                        LaunchGrid::linear(EAGER_M),
                        StreamId::DEFAULT,
                        vec![
                            LaunchArg::Ptr(d),
                            LaunchArg::F64(1.0),
                            LaunchArg::I64(EAGER_M as i64),
                        ],
                    )
                    .unwrap();
                // Rank 1 posts tag 0, tag 1, then the tag-2 flag, in that
                // seq order. Receiving the flag first (per-(src,tag)
                // matching lets it overtake) guarantees both payload
                // sends are pending when the wildcard below matches.
                ctx.mpi.recv(ready, 1, MpiDatatype::Double, 1, 2).unwrap();
                let st = ctx
                    .mpi
                    .recv(payload, EAGER_M, MpiDatatype::Double, 1, mpi_sim::ANY_TAG)
                    .unwrap();
                if st.tag == 0 {
                    // The default (oldest-send) match: synchronized.
                    ctx.cuda.device_synchronize().unwrap();
                }
                // Racy only on the tag-1 branch: the kernel write to `d`
                // is still queued.
                let _ = ctx
                    .tools
                    .host_read_slice::<f64>(&ctx.space(), d, EAGER_M, "host read of kernel output")
                    .unwrap();
                // Drain the other payload send, then the device.
                ctx.mpi
                    .recv(payload, EAGER_M, MpiDatatype::Double, 1, 1 - st.tag)
                    .unwrap();
                ctx.cuda.device_synchronize().unwrap();
            } else {
                let a = ctx.cuda.malloc::<f64>(EAGER_M).unwrap();
                let b = ctx.cuda.malloc::<f64>(EAGER_M).unwrap();
                let flag = ctx.cuda.malloc::<f64>(1).unwrap();
                ctx.cuda
                    .launch(
                        k.fill,
                        LaunchGrid::linear(EAGER_M),
                        StreamId::DEFAULT,
                        vec![
                            LaunchArg::Ptr(a),
                            LaunchArg::F64(2.0),
                            LaunchArg::I64(EAGER_M as i64),
                        ],
                    )
                    .unwrap();
                ctx.cuda.device_synchronize().unwrap();
                ctx.mpi.send(a, EAGER_M, MpiDatatype::Double, 0, 0).unwrap();
                ctx.mpi.send(b, EAGER_M, MpiDatatype::Double, 0, 1).unwrap();
                ctx.mpi.send(flag, 1, MpiDatatype::Double, 0, 2).unwrap();
            }
        },
    }
}

/// Execute a case under an explicit [`explore::SchedulePlan`] with a
/// trace recorded on every rank. The world is always 2 ranks, so plans
/// need 3 lanes ([`explore::SchedulePlan::defaults`]`(2)`).
pub fn run_case_scheduled(
    case: &Case,
    plan: Arc<explore::SchedulePlan>,
) -> must_rt::WorldOutcome<()> {
    run_case_scheduled_with(case, Flavor::MustCusan.config(), plan)
}

/// [`run_case_scheduled`] under an explicit tool configuration.
fn run_case_scheduled_with(
    case: &Case,
    cfg: cusan::ToolConfig,
    plan: Arc<explore::SchedulePlan>,
) -> must_rt::WorldOutcome<()> {
    let k = AppKernels::shared();
    let run = case.run;
    must_rt::run_checked_world_scheduled_traced(2, cfg, Arc::clone(&k.registry), plan, move |ctx| {
        run(ctx, k);
    })
}

/// State hash over the detector-visible outcome of a world run: every
/// rank's recorded event stream with `ScheduleChoice` markers masked out
/// (two schedules that produce identical detector inputs are the same
/// execution as far as checking is concerned), plus the race reports for
/// untraced runs. This is the dedup key [`explore::explore`] uses.
pub fn outcome_digest<T>(out: &must_rt::WorldOutcome<T>) -> u64 {
    let mut h = explore::Fnv::new();
    for r in &out.ranks {
        h.write_u64(r.rank as u64);
        if let Some(bytes) = &r.trace {
            // Records straight off the reader: a digest needs no
            // detector, and this rank's own recording none of the fiber
            // checks replay runs.
            let reader = cusan::TraceReader::new(&bytes[..]).expect("recorded trace parses");
            for rec in reader {
                match rec.expect("recorded trace parses") {
                    cusan::TraceRecord::Event(cusan::CusanEvent::ScheduleChoice { .. })
                    | cusan::TraceRecord::Str { .. } => {}
                    cusan::TraceRecord::Event(ev) => {
                        h.write_str(&format!("{ev:?}"));
                    }
                }
            }
        }
        h.write_u64(r.race_count);
        for race in &r.races {
            h.write_str(&format!("{race}"));
        }
        for m in &r.must_reports {
            h.write_str(&format!("{m}"));
        }
    }
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn suite_has_both_classes_in_every_category() {
        let cases = cases();
        assert!(
            cases.len() >= 45,
            "paper's suite has 49 cases; ours {}",
            cases.len()
        );
        for cat in [
            "cuda-to-mpi",
            "mpi-to-cuda",
            "cuda-to-cuda",
            "cuda-to-host",
            "extensions",
            "datatype",
        ] {
            let in_cat: Vec<_> = cases.iter().filter(|c| c.name.starts_with(cat)).collect();
            assert!(!in_cat.is_empty(), "category {cat} missing");
            assert!(
                in_cat.iter().any(|c| c.expected == Expected::Clean),
                "category {cat} has no correct case"
            );
            assert!(
                in_cat.iter().any(|c| c.expected != Expected::Clean),
                "category {cat} has no incorrect case"
            );
        }
    }

    #[test]
    fn names_are_unique() {
        let cases = cases();
        let mut names: Vec<_> = cases.iter().map(|c| c.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), cases.len());
    }

    #[test]
    fn timing_dependent_programs_are_in_the_suite() {
        let cases = cases();
        for name in TIMING_DEPENDENT {
            assert!(cases.iter().any(|c| c.name == name), "{name}");
        }
    }

    #[test]
    fn nok_suffix_matches_expectation() {
        for c in cases() {
            assert_eq!(
                c.name.ends_with("_nok"),
                c.expected != Expected::Clean,
                "{} suffix disagrees with {:?}",
                c.name,
                c.expected
            );
        }
    }
}
