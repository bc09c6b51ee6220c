//! Criterion microbenchmarks for the design choices DESIGN.md calls out:
//!
//! * shadow-memory range tracking cost vs range length (the Fig. 12
//!   driver: cost must be linear in bytes with a small constant),
//! * vector-clock join cost vs live fiber count,
//! * fiber switch + happens-before/after annotation cost,
//! * TypeART pointer-query cost,
//! * checked vs unchecked kernel-launch overhead (the fixed per-call cost
//!   that dominates when domains are small, as in TeaLeaf).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use cuda_sim::StreamId;
use cusan::{CusanCuda, Flavor, ToolCtx};
use cusan_apps::AppKernels;
use kernel_ir::{LaunchArg, LaunchGrid};
use sim_mem::{AddressSpace, DeviceId, MemKind, Ptr};
use std::hint::black_box;
use std::rc::Rc;
use std::sync::Arc;
use tsan_rt::{FiberId, SyncKey, TsanRuntime, VectorClock};
use typeart_rt::{TypeId, TypeartRuntime};

fn bench_shadow_range(c: &mut Criterion) {
    let mut g = c.benchmark_group("tsan_write_range");
    for len in [64u64, 1 << 10, 1 << 16, 1 << 20] {
        g.throughput(Throughput::Bytes(len));
        g.bench_with_input(BenchmarkId::from_parameter(len), &len, |b, &len| {
            let mut rt = TsanRuntime::new("bench");
            let ctx = rt.intern_ctx("bench write");
            b.iter(|| rt.write_range(black_box(0x10_0000), len, ctx));
        });
    }
    g.finish();
}

/// The tiered-shadow fast paths (DESIGN.md "Shadow tiers"): cold
/// page-aligned ranges hit the summary tier, repeated identical ranges hit
/// the same-state cache, and a partial overlap pays the unfold.
fn bench_shadow_access_range(c: &mut Criterion) {
    use criterion::BatchSize;
    const LEN: u64 = 1 << 20;

    let mut g = c.benchmark_group("shadow_access_range");
    g.throughput(Throughput::Bytes(LEN));
    // Cold: every page is touched for the first time by a
    // page-covering write (one summary store per page).
    g.bench_function("cold_1MiB", |b| {
        b.iter_batched(
            || {
                let mut rt = TsanRuntime::new("bench");
                let ctx = rt.intern_ctx("cold write");
                (rt, ctx)
            },
            |(mut rt, ctx)| {
                rt.write_range(black_box(0x10_0000), LEN, ctx);
                rt
            },
            BatchSize::LargeInput,
        );
    });
    // Hot: the Jacobi/TeaLeaf loop shape — the same buffer
    // re-annotated with an unchanged epoch.
    g.bench_function("repeated_1MiB", |b| {
        let mut rt = TsanRuntime::new("bench");
        let ctx = rt.intern_ctx("repeat write");
        rt.write_range(0x10_0000, LEN, ctx);
        b.iter(|| rt.write_range(black_box(0x10_0000), LEN, ctx));
    });
    // Unfold: summarize a page, then split it with a partial access.
    g.bench_function("partial_unfold_4KiB", |b| {
        b.iter_batched(
            || {
                let mut rt = TsanRuntime::new("bench");
                let ctx = rt.intern_ctx("unfold");
                rt.write_range(0x10_0000, 4096, ctx);
                (rt, ctx)
            },
            |(mut rt, ctx)| {
                rt.write_range(black_box(0x10_0040), 128, ctx);
                rt
            },
            BatchSize::LargeInput,
        );
    });
    g.finish();
}

fn bench_clock_join(c: &mut Criterion) {
    let mut g = c.benchmark_group("vector_clock_join");
    for fibers in [4usize, 64, 512] {
        g.bench_with_input(BenchmarkId::from_parameter(fibers), &fibers, |b, &n| {
            let mut a = VectorClock::new();
            let mut other = VectorClock::new();
            for i in 0..n {
                a.set(FiberId::from_index(i), (i as u32) % 17);
                other.set(FiberId::from_index(i), (i as u32) % 23);
            }
            b.iter(|| {
                let mut x = a.clone();
                x.join(black_box(&other));
                black_box(x.get(FiberId::from_index(n - 1)))
            });
        });
    }
    g.finish();
}

fn bench_fiber_switch_and_arc(c: &mut Criterion) {
    c.bench_function("fiber_switch_hb_ha_roundtrip", |b| {
        let mut rt = TsanRuntime::new("bench");
        let fiber = rt.create_fiber("stream");
        let key = SyncKey(42);
        b.iter(|| {
            rt.switch_to_fiber_sync(fiber);
            rt.annotate_happens_before(key);
            rt.switch_to_fiber(FiberId::HOST);
            rt.annotate_happens_after(key);
        });
    });
}

fn bench_typeart_query(c: &mut Criterion) {
    c.bench_function("typeart_extent_query", |b| {
        let mut ta = TypeartRuntime::new();
        for i in 0..1024u64 {
            ta.on_alloc(
                Ptr(0x1_0000 + i * 0x1000),
                TypeId::F64,
                64,
                MemKind::Managed,
            )
            .unwrap();
        }
        b.iter(|| black_box(ta.extent_of(Ptr(0x1_0000 + 512 * 0x1000 + 64))));
    });
}

fn bench_space_access(c: &mut Criterion) {
    let mut g = c.benchmark_group("sim_mem_copy");
    for len in [1u64 << 10, 1 << 18] {
        g.throughput(Throughput::Bytes(len));
        g.bench_with_input(BenchmarkId::from_parameter(len), &len, |b, &len| {
            let space = AddressSpace::new();
            let a = space.alloc(MemKind::Device(DeviceId(0)), len).unwrap();
            let h = space.alloc(MemKind::HostPinned, len).unwrap();
            b.iter(|| space.copy(black_box(h), black_box(a), len).unwrap());
        });
    }
    g.finish();
}

fn bench_launch_overhead(c: &mut Criterion) {
    let mut g = c.benchmark_group("kernel_launch_and_sync");
    for (name, flavor) in [("vanilla", Flavor::Vanilla), ("cusan", Flavor::Cusan)] {
        g.bench_function(name, |b| {
            let k = AppKernels::shared();
            let tools = Rc::new(ToolCtx::new(0, flavor.config()));
            let mut cuda = CusanCuda::new(
                DeviceId(0),
                Arc::new(AddressSpace::new()),
                Arc::clone(&k.registry),
                tools,
            );
            let d = cuda.malloc::<f64>(256).unwrap();
            b.iter(|| {
                cuda.launch(
                    k.fill,
                    LaunchGrid::linear(256),
                    StreamId::DEFAULT,
                    vec![LaunchArg::Ptr(d), LaunchArg::F64(1.0), LaunchArg::I64(256)],
                )
                .unwrap();
                cuda.device_synchronize().unwrap();
            });
        });
    }
    g.finish();
}

criterion_group!(
    benches,
    bench_shadow_range,
    bench_shadow_access_range,
    bench_clock_join,
    bench_fiber_switch_and_arc,
    bench_typeart_query,
    bench_space_access,
    bench_launch_overhead
);
criterion_main!(benches);
