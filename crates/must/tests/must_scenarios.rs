//! End-to-end MUST + CuSan scenarios: the CUDA-aware MPI race patterns of
//! paper Figs. 1, 4, and 6, plus MUST's datatype checks — run on the full
//! per-rank tool stack via the checked-world harness.

use cuda_sim::StreamId;
use cusan::Flavor;
use kernel_ir::ast::ScalarTy;
use kernel_ir::builder::*;
use kernel_ir::{KernelId, KernelRegistry, LaunchArg, LaunchGrid};
use mpi_sim::{MpiDatatype, MpiError, ReduceOp};
use must_rt::{run_checked_world, MustReport, RankCtx};
use sim_mem::Ptr;
use std::sync::Arc;

const N: u64 = 1024; // > eager limit in bytes for f64 (8 KiB): rendezvous

struct Kernels {
    registry: Arc<KernelRegistry>,
    fill: KernelId,
    reader: KernelId,
}

fn kernels() -> Kernels {
    let mut reg = KernelRegistry::new();
    let mut b = KernelBuilder::new("fill");
    let p = b.ptr_param("p", ScalarTy::F64);
    let v = b.scalar_param("v", ScalarTy::F64);
    let n = b.scalar_param("n", ScalarTy::I64);
    b.if_(tid().lt(n.get()), |bb| bb.store(p, tid(), v.get()));
    let fill = reg.register_ir(b.finish()).unwrap();

    let mut b = KernelBuilder::new("consume");
    let out = b.ptr_param("out", ScalarTy::F64);
    let inp = b.ptr_param("in", ScalarTy::F64);
    let n = b.scalar_param("n", ScalarTy::I64);
    b.if_(tid().lt(n.get()), |bb| {
        bb.store(out, tid(), load(inp, tid()) * cf(2.0));
    });
    let reader = reg.register_ir(b.finish()).unwrap();
    Kernels {
        registry: Arc::new(reg),
        fill,
        reader,
    }
}

fn launch_fill(ctx: &mut RankCtx, k: &Kernels, p: Ptr, v: f64) {
    ctx.cuda
        .launch(
            k.fill,
            LaunchGrid::cover(N, 128),
            StreamId::DEFAULT,
            vec![
                LaunchArg::Ptr(p),
                LaunchArg::F64(v),
                LaunchArg::I64(N as i64),
            ],
        )
        .unwrap();
}

fn launch_consume(ctx: &mut RankCtx, k: &Kernels, out: Ptr, inp: Ptr) {
    ctx.cuda
        .launch(
            k.reader,
            LaunchGrid::cover(N, 128),
            StreamId::DEFAULT,
            vec![
                LaunchArg::Ptr(out),
                LaunchArg::Ptr(inp),
                LaunchArg::I64(N as i64),
            ],
        )
        .unwrap();
}

/// Paper Fig. 4, as written (with both synchronizations): race-free.
#[test]
fn fig4_correct_version_is_race_free() {
    let k = kernels();
    let reg = Arc::clone(&k.registry);
    let out = run_checked_world(2, Flavor::MustCusan, reg, |ctx| {
        let d_data = ctx.cuda.malloc::<f64>(N).unwrap();
        if ctx.rank() == 0 {
            launch_fill(ctx, &k, d_data, 7.0);
            ctx.cuda.device_synchronize().unwrap(); // line 4
            ctx.mpi.send(d_data, N, MpiDatatype::Double, 1, 0).unwrap();
        } else {
            let mut req = ctx.mpi.irecv(d_data, N, MpiDatatype::Double, 0, 0).unwrap();
            ctx.mpi.wait(&mut req).unwrap(); // line 8
            let d_out = ctx.cuda.malloc::<f64>(N).unwrap();
            launch_consume(ctx, &k, d_out, d_data);
            ctx.cuda.device_synchronize().unwrap();
            // Verify the data actually moved: 7.0 * 2.0.
            let v = ctx
                .tools
                .host_read_slice::<f64>(&ctx.space(), d_out, N, "verify")
                .unwrap();
            assert_eq!(v[0], 14.0);
            assert_eq!(v[(N - 1) as usize], 14.0);
        }
    });
    assert_eq!(out.total_races(), 0, "{:#?}", out.all_races());
    assert!(out.all_must_reports().is_empty());
}

/// Fig. 4 without line 4 (`cudaDeviceSynchronize`): the kernel may still be
/// writing while MPI_Send reads the device buffer — CUDA-to-MPI race, and
/// the receiver observably gets stale data.
#[test]
fn fig4_missing_device_sync_races_and_corrupts() {
    let k = kernels();
    let reg = Arc::clone(&k.registry);
    let out = run_checked_world(2, Flavor::MustCusan, reg, |ctx| {
        let d_data = ctx.cuda.malloc::<f64>(N).unwrap();
        if ctx.rank() == 0 {
            launch_fill(ctx, &k, d_data, 7.0);
            // MISSING cudaDeviceSynchronize.
            ctx.mpi.send(d_data, N, MpiDatatype::Double, 1, 0).unwrap();
            0.0
        } else {
            ctx.mpi.recv(d_data, N, MpiDatatype::Double, 0, 0).unwrap();
            ctx.cuda.device_synchronize().unwrap();
            ctx.tools
                .host_read_slice::<f64>(&ctx.space(), d_data, N, "verify")
                .unwrap()[0]
        }
    });
    // Rank 0 detects the race between the kernel write and the Send read.
    assert!(out.ranks[0].race_count >= 1, "{:#?}", out.all_races());
    let races = &out.ranks[0].races;
    assert!(
        races
            .iter()
            .any(|r| r.current.ctx.contains("MPI_Send") && r.previous.ctx.contains("kernel fill")),
        "{races:#?}"
    );
    // And the receiver got stale zeros, not 7.0 — the bug is real.
    assert_eq!(out.results[1], 0.0, "stale data actually transmitted");
}

/// Fig. 4 without line 8 (`MPI_Wait`): kernel launched inside Irecv's
/// concurrent region — MPI-to-CUDA race (Fig. 6A mirror).
#[test]
fn fig4_missing_wait_races() {
    let k = kernels();
    let reg = Arc::clone(&k.registry);
    let out = run_checked_world(2, Flavor::MustCusan, reg, |ctx| {
        let d_data = ctx.cuda.malloc::<f64>(N).unwrap();
        if ctx.rank() == 0 {
            launch_fill(ctx, &k, d_data, 7.0);
            ctx.cuda.device_synchronize().unwrap();
            ctx.mpi.send(d_data, N, MpiDatatype::Double, 1, 0).unwrap();
        } else {
            let d_out = ctx.cuda.malloc::<f64>(N).unwrap();
            let mut req = ctx.mpi.irecv(d_data, N, MpiDatatype::Double, 0, 0).unwrap();
            // MISSING MPI_Wait before the dependent kernel.
            launch_consume(ctx, &k, d_out, d_data);
            ctx.mpi.wait(&mut req).unwrap();
        }
    });
    assert!(out.ranks[1].race_count >= 1, "{:#?}", out.all_races());
    let races = &out.ranks[1].races;
    assert!(
        races.iter().any(|r| {
            (r.current.ctx.contains("kernel consume") && r.previous.ctx.contains("MPI_Irecv"))
                || (r.current.ctx.contains("MPI_Irecv")
                    && r.previous.ctx.contains("kernel consume"))
        }),
        "{races:#?}"
    );
}

/// Fig. 6A: Isend's concurrent region vs a kernel write before MPI_Wait.
#[test]
fn fig6a_isend_concurrent_kernel_write_races() {
    let k = kernels();
    let reg = Arc::clone(&k.registry);
    let out = run_checked_world(2, Flavor::MustCusan, reg, |ctx| {
        let buf = ctx.cuda.malloc::<f64>(N).unwrap();
        if ctx.rank() == 0 {
            launch_fill(ctx, &k, buf, 1.0);
            ctx.cuda.device_synchronize().unwrap();
            let mut req = ctx.mpi.isend(buf, N, MpiDatatype::Double, 1, 0).unwrap();
            // Kernel writes buf inside the Isend concurrent region.
            launch_fill(ctx, &k, buf, 2.0);
            ctx.mpi.wait(&mut req).unwrap();
        } else {
            ctx.mpi.recv(buf, N, MpiDatatype::Double, 0, 0).unwrap();
        }
    });
    assert!(out.ranks[0].race_count >= 1, "{:#?}", out.all_races());
}

/// Fig. 6A done right: wait before the kernel touches the buffer again.
#[test]
fn fig6a_with_wait_is_race_free() {
    let k = kernels();
    let reg = Arc::clone(&k.registry);
    let out = run_checked_world(2, Flavor::MustCusan, reg, |ctx| {
        let buf = ctx.cuda.malloc::<f64>(N).unwrap();
        if ctx.rank() == 0 {
            launch_fill(ctx, &k, buf, 1.0);
            ctx.cuda.device_synchronize().unwrap();
            let mut req = ctx.mpi.isend(buf, N, MpiDatatype::Double, 1, 0).unwrap();
            ctx.mpi.wait(&mut req).unwrap();
            launch_fill(ctx, &k, buf, 2.0);
            ctx.cuda.device_synchronize().unwrap();
        } else {
            ctx.mpi.recv(buf, N, MpiDatatype::Double, 0, 0).unwrap();
        }
    });
    assert_eq!(out.total_races(), 0, "{:#?}", out.all_races());
}

/// Fig. 6B: blocking MPI_Recv into a buffer a running kernel reads.
#[test]
fn fig6b_blocking_recv_during_kernel_races() {
    let k = kernels();
    let reg = Arc::clone(&k.registry);
    let out = run_checked_world(2, Flavor::MustCusan, reg, |ctx| {
        let buf = ctx.cuda.malloc::<f64>(N).unwrap();
        if ctx.rank() == 0 {
            launch_fill(ctx, &k, buf, 1.0);
            ctx.cuda.device_synchronize().unwrap();
            ctx.mpi.send(buf, N, MpiDatatype::Double, 1, 0).unwrap();
        } else {
            let d_out = ctx.cuda.malloc::<f64>(N).unwrap();
            launch_consume(ctx, &k, d_out, buf); // kernel reads buf...
                                                 // ...while Recv writes it, with no synchronization between.
            ctx.mpi.recv(buf, N, MpiDatatype::Double, 0, 0).unwrap();
        }
    });
    assert!(out.ranks[1].race_count >= 1, "{:#?}", out.all_races());
}

/// The paper's layered-tools claim (§I): a tool that only sees MPI misses
/// CUDA-side races. The same buggy program under MUST-only reports
/// nothing; under MUST & CuSan it reports the race.
#[test]
fn must_alone_misses_cuda_race_cusan_catches_it() {
    for (flavor, expect_race) in [(Flavor::Must, false), (Flavor::MustCusan, true)] {
        let k = kernels();
        let reg = Arc::clone(&k.registry);
        let out = run_checked_world(2, flavor, reg, |ctx| {
            let d = ctx.cuda.malloc::<f64>(N).unwrap();
            if ctx.rank() == 0 {
                launch_fill(ctx, &k, d, 7.0);
                ctx.mpi.send(d, N, MpiDatatype::Double, 1, 0).unwrap(); // no sync
            } else {
                ctx.mpi.recv(d, N, MpiDatatype::Double, 0, 0).unwrap();
            }
        });
        assert_eq!(out.has_races(), expect_race, "flavor {flavor}");
    }
}

/// Halo-exchange pattern with Sendrecv (the Jacobi communication shape):
/// correct synchronization, race-free, data verified.
#[test]
fn sendrecv_halo_pattern_race_free() {
    let k = kernels();
    let reg = Arc::clone(&k.registry);
    let out = run_checked_world(2, Flavor::MustCusan, reg, |ctx| {
        let me = ctx.rank();
        let peer = 1 - me as i64;
        let d = ctx.cuda.malloc::<f64>(N).unwrap();
        let halo = ctx.cuda.malloc::<f64>(N).unwrap();
        launch_fill(ctx, &k, d, (me + 1) as f64);
        ctx.cuda.device_synchronize().unwrap();
        ctx.mpi
            .sendrecv(d, N, peer, 0, halo, N, peer as i32, 0, MpiDatatype::Double)
            .unwrap();
        ctx.tools
            .host_read_slice::<f64>(&ctx.space(), halo, N, "verify halo")
            .unwrap()[0]
    });
    assert_eq!(out.total_races(), 0, "{:#?}", out.all_races());
    assert_eq!(out.results, vec![2.0, 1.0], "halos crossed over");
}

/// Allreduce on device pointers under the full stack.
#[test]
fn allreduce_device_buffers_race_free() {
    let k = kernels();
    let reg = Arc::clone(&k.registry);
    let out = run_checked_world(3, Flavor::MustCusan, reg, |ctx| {
        let s = ctx.cuda.malloc::<f64>(4).unwrap();
        let r = ctx.cuda.malloc::<f64>(4).unwrap();
        ctx.tools
            .host_write_slice::<f64>(&ctx.space(), s, &[ctx.rank() as f64 + 1.0; 4], "init")
            .unwrap();
        ctx.mpi
            .allreduce(s, r, 4, MpiDatatype::Double, ReduceOp::Sum)
            .unwrap();
        ctx.tools
            .host_read_slice::<f64>(&ctx.space(), r, 4, "check")
            .unwrap()[0]
    });
    assert_eq!(out.total_races(), 0, "{:#?}", out.all_races());
    assert_eq!(out.results, vec![6.0, 6.0, 6.0]);
}

/// MUST datatype check: i32 buffer declared as MPI_DOUBLE.
#[test]
fn datatype_mismatch_reported() {
    let k = kernels();
    let reg = Arc::clone(&k.registry);
    let out = run_checked_world(2, Flavor::MustCusan, reg, |ctx| {
        let buf = ctx.cuda.malloc::<i32>(16).unwrap();
        if ctx.rank() == 0 {
            ctx.mpi.send(buf, 8, MpiDatatype::Double, 1, 0).unwrap();
        } else {
            ctx.mpi.recv(buf, 8, MpiDatatype::Double, 0, 0).unwrap();
        }
    });
    let reports = out.all_must_reports();
    assert!(
        reports.iter().any(|(_, r)| matches!(
            r,
            MustReport::TypeMismatch { allocated, declared: "f64", .. } if allocated == "i32"
        )),
        "{reports:#?}"
    );
}

/// MUST extent check: count overruns the allocation.
#[test]
fn count_overrun_reported() {
    let k = kernels();
    let reg = Arc::clone(&k.registry);
    let out = run_checked_world(2, Flavor::MustCusan, reg, |ctx| {
        let small = ctx.cuda.malloc::<f64>(4).unwrap();
        // Claim 64 elements from a 4-element allocation. MUST reports the
        // overrun at interception; the transfer itself faults in the
        // simulator, so no receive is posted anywhere.
        let peer = 1 - ctx.rank() as i64;
        let err = ctx.mpi.send(small, 64, MpiDatatype::Double, peer, 0);
        assert!(err.is_err());
    });
    assert!(
        out.all_must_reports().iter().any(|(rank, r)| {
            *rank == 0
                && matches!(
                    r,
                    MustReport::BufferOverrun {
                        requested: 512,
                        available: 32,
                        ..
                    }
                )
        }),
        "{:#?}",
        out.all_must_reports()
    );
}

/// Non-blocking ring exchange with Waitall across 4 ranks: race-free.
#[test]
fn nonblocking_ring_waitall_race_free() {
    let k = kernels();
    let reg = Arc::clone(&k.registry);
    let n = 4;
    let out = run_checked_world(n, Flavor::MustCusan, reg, |ctx| {
        let me = ctx.rank();
        let right = ((me + 1) % n) as i64;
        let left = ((me + n - 1) % n) as i32;
        let tx = ctx.cuda.malloc::<f64>(N).unwrap();
        let rx = ctx.cuda.malloc::<f64>(N).unwrap();
        launch_fill(ctx, &k, tx, me as f64);
        ctx.cuda.device_synchronize().unwrap();
        let mut reqs = vec![
            ctx.mpi.irecv(rx, N, MpiDatatype::Double, left, 0).unwrap(),
            ctx.mpi.isend(tx, N, MpiDatatype::Double, right, 0).unwrap(),
        ];
        ctx.mpi.waitall(&mut reqs).unwrap();
        ctx.tools
            .host_read_slice::<f64>(&ctx.space(), rx, N, "verify")
            .unwrap()[0] as usize
    });
    assert_eq!(out.total_races(), 0, "{:#?}", out.all_races());
    assert_eq!(out.results, vec![3, 0, 1, 2]);
}

/// Writing the send buffer between Isend and Wait (host-side): the classic
/// Fig. 1 race, detected via the MPI request fiber.
#[test]
fn host_write_in_isend_region_races() {
    let k = kernels();
    let reg = Arc::clone(&k.registry);
    let out = run_checked_world(2, Flavor::MustCusan, reg, |ctx| {
        let buf = ctx.cuda.malloc::<f64>(N).unwrap();
        if ctx.rank() == 0 {
            let mut req = ctx.mpi.isend(buf, N, MpiDatatype::Double, 1, 0).unwrap();
            // Host writes the buffer before Wait.
            ctx.tools
                .host_write_at::<f64>(&ctx.space(), buf, 99.0, "host write during Isend")
                .unwrap();
            ctx.mpi.wait(&mut req).unwrap();
        } else {
            ctx.mpi.recv(buf, N, MpiDatatype::Double, 0, 0).unwrap();
        }
    });
    assert!(out.ranks[0].race_count >= 1, "{:#?}", out.all_races());
}

/// Table-I-style accounting sanity on a small checked run.
#[test]
fn outcome_counters_populated() {
    let k = kernels();
    let reg = Arc::clone(&k.registry);
    let out = run_checked_world(2, Flavor::MustCusan, reg, |ctx| {
        let d = ctx.cuda.malloc::<f64>(N).unwrap();
        launch_fill(ctx, &k, d, 1.0);
        ctx.cuda.device_synchronize().unwrap();
        let peer = 1 - ctx.rank() as i64;
        let rx = ctx.cuda.malloc::<f64>(N).unwrap();
        ctx.mpi
            .sendrecv(d, N, peer, 0, rx, N, peer as i32, 0, MpiDatatype::Double)
            .unwrap();
    });
    for r in &out.ranks {
        assert_eq!(r.cuda.kernel_calls, 1);
        assert_eq!(r.cuda.sync_calls, 1);
        assert!(r.tsan.fiber_switches >= 2, "kernel switch there and back");
        assert!(r.tsan.happens_before >= 1);
        assert!(r.tsan.write_bytes >= N * 8);
        assert!(r.tool_memory_bytes > 0);
    }
    assert!(out.space.live_bytes >= 2 * 2 * N * 8);
}

/// Scale sanity: an 8-rank ring with non-blocking halos plus collectives,
/// race-free under the full stack, with per-rank detectors fully isolated.
#[test]
fn eight_rank_ring_with_collectives() {
    let k = kernels();
    let reg = Arc::clone(&k.registry);
    let n = 8;
    let out = run_checked_world(n, Flavor::MustCusan, reg, |ctx| {
        let me = ctx.rank();
        let right = ((me + 1) % n) as i64;
        let left = ((me + n - 1) % n) as i32;
        let tx = ctx.cuda.malloc::<f64>(N).unwrap();
        let rx = ctx.cuda.malloc::<f64>(N).unwrap();
        let s = ctx.cuda.malloc::<f64>(1).unwrap();
        let r = ctx.cuda.malloc::<f64>(1).unwrap();
        for round in 0..4 {
            launch_fill(ctx, &k, tx, (me * 10 + round) as f64);
            ctx.cuda.device_synchronize().unwrap();
            let mut reqs = vec![
                ctx.mpi.irecv(rx, N, MpiDatatype::Double, left, 0).unwrap(),
                ctx.mpi.isend(tx, N, MpiDatatype::Double, right, 0).unwrap(),
            ];
            ctx.mpi.waitall(&mut reqs).unwrap();
            ctx.tools
                .host_write_at::<f64>(&ctx.space(), s, me as f64, "contrib")
                .unwrap();
            ctx.mpi
                .allreduce(s, r, 1, MpiDatatype::Double, ReduceOp::Sum)
                .unwrap();
            let sum: f64 = ctx.tools.host_read_at(&ctx.space(), r, "sum").unwrap();
            assert_eq!(sum, (0..n).sum::<usize>() as f64);
        }
        ctx.tools
            .host_read_slice::<f64>(&ctx.space(), rx, N, "verify")
            .unwrap()[0]
    });
    assert_eq!(out.total_races(), 0, "{:#?}", out.all_races());
    // Ring: rank me received from its left neighbour's last round.
    for (me, v) in out.results.iter().enumerate() {
        let left = (me + n - 1) % n;
        assert_eq!(*v, (left * 10 + 3) as f64);
    }
    // Per-rank isolation: each rank has its own detector instance with
    // its own fibers and counters.
    for r in &out.ranks {
        assert!(r.tsan.fibers_created >= 8, "rank {} fibers", r.rank);
    }
}

/// A `Waitany` on receives nobody sends is a deadlock the moment the
/// only rank blocks: a typed error at once, no timeout. (Observed:
/// 4–7 µs on a 2-core x86-64 machine; the bound leaves room for a
/// loaded machine.)
#[test]
fn waitany_on_unmatched_receives_is_a_deadlock() {
    let k = kernels();
    let out = run_checked_world(1, Flavor::MustCusan.config(), k.registry, |ctx| {
        let buf = ctx.cuda.malloc::<f64>(2 * N).unwrap();
        let mut reqs: Vec<_> = (0..2)
            .map(|i| {
                let half = buf.offset(i * N * 8);
                ctx.mpi.irecv(half, N, MpiDatatype::Double, 0, 7).unwrap()
            })
            .collect();
        let start = std::time::Instant::now();
        let result = ctx.mpi.waitany(&mut reqs);
        (result, start.elapsed())
    });
    let (result, waited) = &out.results[0];
    assert_eq!(
        result,
        &Err(MpiError::Deadlock {
            waiting: vec![(0, "Waitany".to_string())]
        })
    );
    assert!(
        *waited < std::time::Duration::from_millis(100),
        "{waited:?}"
    );
}
