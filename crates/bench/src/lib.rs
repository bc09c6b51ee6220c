//! # cusan-bench — the evaluation harness
//!
//! Two binaries: `reproduce` regenerates the paper's evaluation (§V:
//! Figs. 10–12, Table I, the §V-B and §VI-D ablations) and one extension
//! figure; `replay_trace` records, checks, replays and transcodes traces.
//! Faults are not a bin's job: `crates/apps/tests/fault_sweep.rs` holds
//! every checked program to one fault contract, single-site and seeded.
//! Everything else that is measured — decode, apply, serve, spill,
//! explorer, shadow and clock costs — is a row of the ledger in
//! `benchmark/`; no bin here writes a file or reads an environment
//! variable.

use cuda_sim::StreamId;
use cusan::{CusanCuda, ToolConfig, ToolCtx};
use cusan_apps::AppKernels;
use kernel_ir::{LaunchArg, LaunchGrid};
use sim_mem::{AddressSpace, DeviceId};
use std::rc::Rc;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Mean wall time over `runs` invocations of `f` after one warmup.
pub fn measure(runs: usize, mut f: impl FnMut() -> Duration) -> Duration {
    let _warmup = f();
    let total: Duration = (0..runs).map(|_| f()).sum();
    total / runs as u32
}

/// `a / b` as a relative factor.
pub fn rel(a: Duration, b: Duration) -> f64 {
    a.as_secs_f64() / b.as_secs_f64()
}

/// Pretty bytes.
pub fn fmt_bytes(b: u64) -> String {
    if b >= 1 << 30 {
        format!("{:.2} GiB", b as f64 / (1u64 << 30) as f64)
    } else if b >= 1 << 20 {
        format!("{:.2} MiB", b as f64 / (1u64 << 20) as f64)
    } else if b >= 1 << 10 {
        format!("{:.2} KiB", b as f64 / (1u64 << 10) as f64)
    } else {
        format!("{b} B")
    }
}

/// Print a figure/table banner.
pub fn banner(title: &str, detail: &str) {
    println!("================================================================");
    println!("{title}");
    println!("{detail}");
    println!("================================================================");
}

/// The §VI-D boundary-pack workload (EXPERIMENTS.md E7): `PACK_ITERS`
/// kernels, each filling the first `PACK_ROW` elements of a 16 MiB device
/// field (grid = one row ≪ allocation, the shape of a 2-D halo pack).
pub const PACK_FIELD_ELEMS: u64 = 1 << 21;
pub const PACK_ROW: u64 = 1 << 10;
pub const PACK_ITERS: u64 = 200;

/// Run the boundary pack under `cfg`: the wall time of its launches and
/// the bytes the detector tracked.
pub fn boundary_pack(cfg: ToolConfig) -> (Duration, u64) {
    let k = AppKernels::shared();
    let tools = Rc::new(ToolCtx::new(0, cfg));
    let mut cuda = CusanCuda::new(
        DeviceId(0),
        Arc::new(AddressSpace::new()),
        Arc::clone(&k.registry),
        Rc::clone(&tools),
    );
    let field = cuda.malloc::<f64>(PACK_FIELD_ELEMS).unwrap();
    let start = Instant::now();
    for i in 0..PACK_ITERS {
        cuda.launch(
            k.fill,
            LaunchGrid::cover(PACK_ROW, 128),
            StreamId::DEFAULT,
            vec![
                LaunchArg::Ptr(field),
                LaunchArg::F64(i as f64),
                LaunchArg::I64(PACK_ROW as i64),
            ],
        )
        .unwrap();
        cuda.device_synchronize().unwrap();
    }
    let elapsed = start.elapsed();
    let stats = tools.tsan_stats();
    (elapsed, stats.read_bytes + stats.write_bytes)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn measure_averages_excluding_warmup() {
        let mut calls = 0;
        let d = measure(4, || {
            calls += 1;
            Duration::from_millis(10)
        });
        assert_eq!(calls, 5, "1 warmup + 4 measured");
        assert_eq!(d, Duration::from_millis(10));
    }

    #[test]
    fn rel_factor() {
        assert!((rel(Duration::from_secs(3), Duration::from_secs(2)) - 1.5).abs() < 1e-12);
    }

    #[test]
    fn fmt_bytes_units() {
        assert_eq!(fmt_bytes(512), "512 B");
        assert_eq!(fmt_bytes(2048), "2.00 KiB");
        assert_eq!(fmt_bytes(3 << 20), "3.00 MiB");
        assert_eq!(fmt_bytes(5 << 30), "5.00 GiB");
    }
}
