//! Property tests: every app kernel's native closure is semantically
//! identical to the reference interpretation of its IR.
//!
//! This is the consistency guarantee the real toolchain gets for free
//! (device IR and executed SASS come from one CUDA source); here the two
//! artifacts are hand-written, so the equivalence is *checked* — including
//! the error a launch that overruns a buffer returns.

use cusan_apps::AppKernels;
use kernel_ir::interp::{self, KValue, RunArg, VecBuffer, VecMemory};
use kernel_ir::registry::{NativeArg, NativeCtx};
use kernel_ir::{InterpError, KernelId};
use proptest::prelude::*;

/// Run a kernel both ways over identical inputs. Both must return the same
/// result; if that is `Ok`, every buffer must match too. Returns the result.
///
/// `bufs`: initial contents per pointer arg (write-attributed args listed
/// in `writes`). `scalars`: the scalar args in signature order.
fn check_equivalence(
    kernel: KernelId,
    grid: u64,
    bufs: &[Vec<f64>],
    writes: &[usize],
    scalars: &[KValue],
) -> Result<(), InterpError> {
    let k = AppKernels::shared();
    let def = k.registry.def(kernel);

    // Interpreter side.
    let mut mem = VecMemory::new(bufs.iter().map(|b| VecBuffer::F64(b.clone())).collect());
    let mut args = Vec::new();
    let mut slot = 0;
    let mut scalar_idx = 0;
    for p in &def.params {
        if p.ty.is_ptr() {
            args.push(RunArg::Slot(slot));
            slot += 1;
        } else {
            args.push(RunArg::Val(scalars[scalar_idx]));
            scalar_idx += 1;
        }
    }
    let interpreted = interp::run(k.registry.defs(), kernel, grid, &args, &mut mem);

    // Native side.
    let native = k
        .registry
        .native(kernel)
        .expect("app kernels all have native bodies");
    let mut native_bufs: Vec<Vec<f64>> = bufs.to_vec();
    let native_result = {
        let mut refs: Vec<NativeArg<'_>> = Vec::new();
        // Split native_bufs into per-arg mutable refs.
        let mut rest: &mut [Vec<f64>] = &mut native_bufs;
        let mut buf_idx = 0;
        let mut scalar_idx = 0;
        for p in &def.params {
            if p.ty.is_ptr() {
                let (head, tail) = rest.split_first_mut().expect("buffer per ptr arg");
                if writes.contains(&buf_idx) {
                    refs.push(NativeArg::MutF64(head));
                } else {
                    refs.push(NativeArg::RefF64(head));
                }
                rest = tail;
                buf_idx += 1;
            } else {
                refs.push(match scalars[scalar_idx] {
                    KValue::F(v) => NativeArg::F64(v),
                    KValue::I(v) => NativeArg::I64(v),
                });
                scalar_idx += 1;
            }
        }
        let mut ctx = NativeCtx::new(&def.name, grid, refs);
        native(&mut ctx)
    };
    assert_eq!(
        &native_result, &interpreted,
        "kernel {}: interpreter vs native result",
        def.name
    );
    // The interpreter stores up to the faulting access, the native
    // nothing: a faulted launch leaves its buffers undefined.
    interpreted?;

    for (i, expected) in native_bufs.iter().enumerate() {
        let got = mem.f64_slot(i);
        assert_eq!(
            got, expected,
            "kernel {} buffer {i}: interpreter vs native disagree",
            def.name
        );
    }
    Ok(())
}

fn field(n: impl Into<proptest::collection::SizeRange>) -> impl Strategy<Value = Vec<f64>> {
    proptest::collection::vec(-100.0f64..100.0, n)
}

/// A haloed block `nx` wide with `rows` interior rows, cycled from `seed`.
fn block(seed: &[f64], nx: u64, rows: u64) -> Vec<f64> {
    seed.iter()
        .cycle()
        .take(((rows + 2) * nx) as usize)
        .copied()
        .collect()
}

/// Asserts that a launch overran (native and interpreter already agree).
fn overran(result: Result<(), InterpError>) -> Result<(), proptest::test_runner::TestCaseError> {
    prop_assert!(
        matches!(result, Err(InterpError::OutOfBounds { .. })),
        "expected an overrun, got {result:?}"
    );
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn fill_equivalent(buf in field(64), v in -10.0f64..10.0, n in -4i64..80, grid in 0u64..96) {
        let k = AppKernels::shared();
        let _ = check_equivalence(k.fill, grid, &[buf], &[0], &[KValue::F(v), KValue::I(n)]);
    }

    #[test]
    fn copy_equivalent(dst in field(64), src in field(64), n in 0i64..=64, grid in 0u64..=64) {
        let k = AppKernels::shared();
        check_equivalence(k.copy, grid, &[dst, src], &[0], &[KValue::I(n)]).unwrap();
    }

    #[test]
    fn jacobi_step_equivalent(
        seed in field(6 * 9),
        nx in 3u64..=9,
        rows in 1u64..=4,
        pick in 0u64..1000,
    ) {
        // Any grid up to a row past `nx·rows`: a partial last row included.
        let k = AppKernels::shared();
        let a = block(&seed, nx, rows);
        let anew = vec![0.0; a.len()];
        let grid = pick % (nx * rows + nx + 1);
        check_equivalence(
            k.jacobi_step,
            grid,
            &[anew, a],
            &[0],
            &[KValue::I(nx as i64), KValue::I(rows as i64)],
        ).unwrap();
    }

    #[test]
    fn residual_equivalent(a in field(48), anew in field(48), grid in 0u64..8) {
        let k = AppKernels::shared();
        let n = a.len().min(anew.len()) as i64;
        check_equivalence(
            k.residual,
            grid,
            &[vec![0.0], a, anew],
            &[0],
            &[KValue::I(n)],
        ).unwrap();
    }

    #[test]
    fn dot_equivalent(x in field(48), y in field(48), grid in 0u64..8) {
        let k = AppKernels::shared();
        let n = x.len().min(y.len()) as i64;
        check_equivalence(k.dot, grid, &[vec![0.0], x, y], &[0], &[KValue::I(n)]).unwrap();
    }

    #[test]
    fn apply_a_equivalent(
        seed in field(40),
        nx in 3u64..=9,
        rows in 1u64..=4,
        pick in 0u64..1000,
        rx in 0.0f64..0.5,
        ry in 0.0f64..0.5,
    ) {
        let k = AppKernels::shared();
        let p = block(&seed, nx, rows);
        let w = vec![0.0; p.len()];
        let grid = pick % (nx * rows + nx + 1);
        check_equivalence(
            k.apply_a,
            grid,
            &[w, p],
            &[0],
            &[KValue::I(nx as i64), KValue::I(rows as i64), KValue::F(rx), KValue::F(ry)],
        ).unwrap();
    }

    #[test]
    fn axpy_equivalent(y in field(64), x in field(64), alpha in -4.0f64..4.0, grid in 0u64..=64) {
        let k = AppKernels::shared();
        let n = y.len().min(x.len()) as i64;
        check_equivalence(k.axpy, grid, &[y, x], &[0], &[KValue::F(alpha), KValue::I(n)]).unwrap();
    }

    #[test]
    fn xpay_equivalent(y in field(64), x in field(64), beta in -4.0f64..4.0, grid in 0u64..=64) {
        let k = AppKernels::shared();
        let n = y.len().min(x.len()) as i64;
        check_equivalence(k.xpay, grid, &[y, x], &[0], &[KValue::F(beta), KValue::I(n)]).unwrap();
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn residual2d_equivalent(
        seed in field(48),
        w in 3u64..=8,
        rows in 1u64..=4,
        grid in 0u64..6,
    ) {
        let k = AppKernels::shared();
        let local = ((rows + 2) * w) as usize;
        let a: Vec<f64> = seed.iter().cycle().take(local).copied().collect();
        let anew: Vec<f64> = seed.iter().rev().cycle().take(local).copied().collect();
        check_equivalence(
            k.residual2d,
            grid,
            &[vec![0.0], a, anew],
            &[0],
            &[KValue::I(w as i64), KValue::I(rows as i64)],
        ).unwrap();
    }
}

/// Blocks too narrow to have an interior column (or empty), and negative
/// counts: no native may panic or underflow, and each must do what the
/// interpreter does. (Both `nx` and `rows` negative is left out: their
/// product is positive and the interpreter then faults at index `nx`.)
#[test]
fn degenerate_extents_match() {
    let k = AppKernels::shared();
    let seed: Vec<f64> = (0..16).map(f64::from).collect();
    for nx in -1i64..=2 {
        for rows in -1i64..=2 {
            if nx < 0 && rows < 0 {
                continue;
            }
            let buf: Vec<f64> = seed.iter().cycle().take(12).copied().collect();
            let ints = [KValue::I(nx), KValue::I(rows)];
            for grid in 0..=8 {
                let bufs = [vec![0.0; 12], buf.clone()];
                check_equivalence(k.jacobi_step, grid, &bufs, &[0], &ints).unwrap();
                let scalars = [ints[0], ints[1], KValue::F(0.5), KValue::F(0.25)];
                check_equivalence(k.apply_a, grid, &bufs, &[0], &scalars).unwrap();
                let bufs = [vec![0.0], buf.clone(), buf.clone()];
                check_equivalence(k.residual2d, grid, &bufs, &[0], &ints).unwrap();
            }
        }
    }
    for n in [-3, -1, 0] {
        for kernel in [k.residual, k.dot] {
            let bufs = [vec![0.0], seed.clone(), seed.clone()];
            check_equivalence(kernel, 1, &bufs, &[0], &[KValue::I(n)]).unwrap();
        }
        let bufs = [seed.clone(), seed.clone()];
        check_equivalence(k.copy, 8, &bufs, &[0], &[KValue::I(n)]).unwrap();
        check_equivalence(k.axpy, 8, &bufs, &[0], &[KValue::F(2.0), KValue::I(n)]).unwrap();
        check_equivalence(k.xpay, 8, &bufs, &[0], &[KValue::F(2.0), KValue::I(n)]).unwrap();
    }
}

// Launches that overrun a buffer by construction: too large an `n`, too
// many `rows` or too large a grid, with buffer lengths drawn independently
// (and short, so that ties are common) so each pointer argument is
// sometimes the first to run out. Native and
// interpreter must name the same access (`param`, `idx`, `len`).
proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn fill_overrun(p in field(0..8), over in 1u64..16, extra in 0u64..8) {
        let k = AppKernels::shared();
        let n = p.len() as u64 + over;
        overran(check_equivalence(k.fill, n + extra, &[p], &[0], &[KValue::F(1.0), KValue::I(n as i64)]))?;
    }

    #[test]
    fn copy_overrun(dst in field(0..8), src in field(0..8), over in 1u64..16, extra in 0u64..8) {
        let k = AppKernels::shared();
        let n = dst.len().min(src.len()) as u64 + over;
        overran(check_equivalence(k.copy, n + extra, &[dst, src], &[0], &[KValue::I(n as i64)]))?;
    }

    #[test]
    fn axpy_overrun(y in field(0..8), x in field(0..8), over in 1u64..16, extra in 0u64..8) {
        let k = AppKernels::shared();
        let n = y.len().min(x.len()) as u64 + over;
        overran(check_equivalence(k.axpy, n + extra, &[y, x], &[0], &[KValue::F(2.0), KValue::I(n as i64)]))?;
    }

    #[test]
    fn xpay_overrun(y in field(0..8), x in field(0..8), over in 1u64..16, extra in 0u64..8) {
        let k = AppKernels::shared();
        let n = y.len().min(x.len()) as u64 + over;
        overran(check_equivalence(k.xpay, n + extra, &[y, x], &[0], &[KValue::F(2.0), KValue::I(n as i64)]))?;
    }

    #[test]
    fn reductions_overrun(
        a in field(0..8),
        b in field(0..8),
        over in 0u64..8,
        out_len in 0usize..=1,
        grid in 1u64..4,
    ) {
        // `n` past the shorter input, or (`over` = 0) an empty `out`.
        let k = AppKernels::shared();
        let n = (a.len().min(b.len()) as u64 + over) as i64;
        let out = vec![0.0; if over == 0 { 0 } else { out_len }];
        for kernel in [k.residual, k.dot] {
            let bufs = [out.clone(), a.clone(), b.clone()];
            overran(check_equivalence(kernel, grid, &bufs, &[0], &[KValue::I(n)]))?;
        }
    }

    #[test]
    fn residual2d_overrun(
        seed in field(48),
        w in 3u64..=8,
        rows in 1u64..=4,
        extra in 2u64..=3,
        cut in 0usize..12,
        grid in 1u64..4,
    ) {
        // Buffers for `rows` rows, a launch over `rows + extra`; `anew` may
        // also be cut short so that either input runs out first.
        let k = AppKernels::shared();
        let a = block(&seed, w, rows);
        let mut anew = a.clone();
        anew.truncate(a.len().saturating_sub(cut));
        overran(check_equivalence(
            k.residual2d,
            grid,
            &[vec![0.0], a, anew],
            &[0],
            &[KValue::I(w as i64), KValue::I((rows + extra) as i64)],
        ))?;
    }

    #[test]
    fn stencils_overrun(
        seed in field(6 * 9),
        nx in 3u64..=9,
        rows in 1u64..=4,
        extra in 1u64..=2,
        cut in 0usize..20,
        cut_input in 0usize..60,
        pick in 0u64..1000,
    ) {
        // Buffers for `rows` rows; the launch claims `rows + extra` and runs
        // at least to thread `nx·rows + 1`, the first whose south neighbour
        // is past the input. Either buffer may also be cut short.
        let k = AppKernels::shared();
        let mut input = block(&seed, nx, rows);
        let output = vec![0.0; input.len().saturating_sub(cut)];
        input.truncate(input.len().saturating_sub(cut_input));
        let first = nx * rows + 2;
        let grid = first + pick % (nx * (rows + extra) + nx + 1 - first);
        let ints = [KValue::I(nx as i64), KValue::I((rows + extra) as i64)];
        let bufs = [output, input];
        overran(check_equivalence(k.jacobi_step, grid, &bufs, &[0], &ints))?;
        let scalars = [ints[0], ints[1], KValue::F(0.25), KValue::F(0.125)];
        overran(check_equivalence(k.apply_a, grid, &bufs, &[0], &scalars))?;
    }
}
