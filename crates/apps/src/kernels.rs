//! The kernel library shared by the mini-apps.
//!
//! Each kernel is registered with **both** an IR definition (analyzed by
//! the compiler pass for per-argument access attributes) and a native Rust
//! closure (executed by the simulated device). The two derive from the
//! same pseudo-CUDA source written in the doc comment of each constructor;
//! `tests/` contains property tests asserting interpreter ≡ native, down to
//! the error an overrunning launch returns.

use kernel_ir::ast::ScalarTy;
use kernel_ir::builder::*;
use kernel_ir::registry::{NativeCtx, NativeKernel};
use kernel_ir::{InterpError, KernelId, KernelRegistry};
use std::sync::{Arc, OnceLock};

/// Kernel ids for the registered app kernels.
#[derive(Debug, Clone)]
pub struct AppKernels {
    /// The shared registry (IR + native + analysis).
    pub registry: Arc<KernelRegistry>,
    /// `fill(p, v, n)`: `p[i] = v`.
    pub fill: KernelId,
    /// `copy_buf(dst, src, n)`: `dst[i] = src[i]`.
    pub copy: KernelId,
    /// `jacobi_step(anew, a, nx, rows)`: 5-point stencil update.
    pub jacobi_step: KernelId,
    /// `residual_reduce(out, a, anew, n)`: `out[0] = Σ (anew-a)²`.
    pub residual: KernelId,
    /// `residual2d(out, a, anew, w, rows)`: interior-only squared update
    /// norm over a haloed 2-D block.
    pub residual2d: KernelId,
    /// `dot_reduce(out, x, y, n)`: `out[0] = Σ x·y`.
    pub dot: KernelId,
    /// `apply_a(w, p, nx, rows, rx, ry)`: `w = A·p` (5-point operator).
    pub apply_a: KernelId,
    /// `axpy(y, x, alpha, n)`: `y += α·x`.
    pub axpy: KernelId,
    /// `xpay(y, x, beta, n)`: `y = x + β·y`.
    pub xpay: KernelId,
}

static SHARED: OnceLock<AppKernels> = OnceLock::new();

impl AppKernels {
    /// The process-wide shared instance (kernels are immutable after
    /// registration; the registry is `Sync`).
    pub fn shared() -> &'static AppKernels {
        SHARED.get_or_init(AppKernels::build)
    }

    /// Build a fresh registry with all app kernels.
    pub fn build() -> AppKernels {
        let mut reg = KernelRegistry::new();
        let fill = register_fill(&mut reg);
        let copy = register_copy(&mut reg);
        let jacobi_step = register_jacobi_step(&mut reg);
        let residual = register_residual(&mut reg);
        let residual2d = register_residual2d(&mut reg);
        let dot = register_dot(&mut reg);
        let apply_a = register_apply_a(&mut reg);
        let axpy = register_axpy(&mut reg);
        let xpay = register_xpay(&mut reg);
        AppKernels {
            registry: Arc::new(reg),
            fill,
            copy,
            jacobi_step,
            residual,
            residual2d,
            dot,
            apply_a,
            axpy,
            xpay,
        }
    }
}

/// A launch extent taken from an `i64` argument; a negative one launches no
/// thread, as `t < n` holds for none.
fn extent(v: i64) -> usize {
    v.max(0) as usize
}

/// The bounds check every native runs before it touches memory. Thread
/// `t < threads` (in a one-thread reduction: loop iteration `t`) makes the
/// accesses `accesses(t)`: `(pointer param, element index)` pairs in the
/// interpreter's evaluation order. In every kernel here an access's index
/// grows with `t` and any three consecutive threads include one of each
/// access shape, so the last three threads fit iff all do. A launch that
/// overruns walks its threads in order to return the error the interpreter
/// stops at.
fn check_bounds<I>(
    kernel: &str,
    lens: &[usize],
    threads: usize,
    accesses: impl Fn(usize) -> I,
) -> Result<(), InterpError>
where
    I: IntoIterator<Item = (usize, usize)>,
{
    let fits = |t| accesses(t).into_iter().all(|(p, i)| i < lens[p]);
    if (threads.saturating_sub(3)..threads).all(fits) {
        return Ok(());
    }
    for t in 0..threads {
        if let Some((param, idx)) = accesses(t).into_iter().find(|&(p, i)| i >= lens[p]) {
            return Err(InterpError::OutOfBounds {
                kernel: kernel.to_string(),
                param,
                idx: idx as i64,
                len: lens[param] as u64,
            });
        }
    }
    Ok(())
}

/// The rows a stencil launch covers. Over a block `nx` wide with a halo row
/// above and below, thread `t` updates element `t + nx` (row `t / nx + 1`,
/// column `t % nx`); yields each row's first element and its column count
/// (`nx`, or fewer in a partial last row), in thread order.
fn stencil_rows(nx: usize, threads: usize) -> impl Iterator<Item = (usize, usize)> {
    (0..threads)
        .step_by(nx.max(1))
        .map(move |t| (t + nx, (threads - t).min(nx)))
}

/// The 5-point update of the interior columns `1..=nx - 2` among the
/// first `cols` of the row that starts at element `k0` of a block `nx`
/// wide: `out[k] = f(a[k], a[k - 1], a[k + 1], a[k - nx], a[k + nx])`.
/// The three input rows are sliced once, so the column loop indexes
/// nothing but `i ± 1`.
fn stencil_row(
    out: &mut [f64],
    a: &[f64],
    nx: usize,
    (k0, cols): (usize, usize),
    f: impl Fn(f64, f64, f64, f64, f64) -> f64,
) {
    let end = cols.min(nx - 1);
    if end < 2 {
        return;
    }
    let up = &a[k0 - nx..k0 - nx + end];
    let mid = &a[k0..=k0 + end];
    let down = &a[k0 + nx..k0 + nx + end];
    let out = &mut out[k0..k0 + end];
    for i in 1..end {
        out[i] = f(mid[i], mid[i - 1], mid[i + 1], up[i], down[i]);
    }
}

/// ```cuda
/// __global__ void fill(double* p, double v, long n)
///   { long t = TID; if (t < n) p[t] = v; }
/// ```
fn register_fill(reg: &mut KernelRegistry) -> KernelId {
    let mut b = KernelBuilder::new("fill");
    let p = b.ptr_param("p", ScalarTy::F64);
    let v = b.scalar_param("v", ScalarTy::F64);
    let n = b.scalar_param("n", ScalarTy::I64);
    b.if_(tid().lt(n.get()), |b| b.store(p, tid(), v.get()));
    let native: NativeKernel = Arc::new(|ctx: &mut NativeCtx<'_>| {
        let v = ctx.f64_arg(1);
        let n = extent(ctx.i64_arg(2)).min(ctx.grid as usize);
        let kernel = ctx.kernel();
        let p = ctx.f64s_mut(0);
        check_bounds(kernel, &[p.len()], n, |t| [(0, t)])?;
        p[..n].fill(v);
        Ok(())
    });
    reg.register(b.finish(), Some(native))
        .expect("register fill")
}

/// ```cuda
/// __global__ void copy_buf(double* dst, const double* src, long n)
///   { long t = TID; if (t < n) dst[t] = src[t]; }
/// ```
fn register_copy(reg: &mut KernelRegistry) -> KernelId {
    let mut b = KernelBuilder::new("copy_buf");
    let dst = b.ptr_param("dst", ScalarTy::F64);
    let src = b.ptr_param("src", ScalarTy::F64);
    let n = b.scalar_param("n", ScalarTy::I64);
    b.if_(tid().lt(n.get()), |b| b.store(dst, tid(), load(src, tid())));
    let native: NativeKernel = Arc::new(|ctx: &mut NativeCtx<'_>| {
        let n = extent(ctx.i64_arg(2)).min(ctx.grid as usize);
        let kernel = ctx.kernel();
        let (mut w, r) = ctx.split_f64(&[0], &[1]);
        let (dst, src) = (&mut *w[0], r[0]);
        check_bounds(kernel, &[dst.len(), src.len()], n, |t| [(1, t), (0, t)])?;
        dst[..n].copy_from_slice(&src[..n]);
        Ok(())
    });
    reg.register(b.finish(), Some(native))
        .expect("register copy_buf")
}

/// ```cuda
/// __global__ void jacobi_step(double* anew, const double* a, long nx, long rows) {
///   long t = TID;
///   if (t < nx * rows) {
///     long j = t / nx + 1, i = t % nx;           // interior rows 1..=rows
///     if (i >= 1 && i <= nx - 2) {
///       long k = j * nx + i;
///       anew[k] = 0.25 * (a[k-1] + a[k+1] + a[k-nx] + a[k+nx]);
///     }
///   }
/// }
/// ```
fn register_jacobi_step(reg: &mut KernelRegistry) -> KernelId {
    let mut b = KernelBuilder::new("jacobi_step");
    let anew = b.ptr_param("anew", ScalarTy::F64);
    let a = b.ptr_param("a", ScalarTy::F64);
    let nx = b.scalar_param("nx", ScalarTy::I64);
    let rows = b.scalar_param("rows", ScalarTy::I64);
    b.if_(tid().lt(nx.get() * rows.get()), |b| {
        let j = b.let_(tid() / nx.get() + ci(1));
        let i = b.let_(tid().rem(nx.get()));
        b.if_(i.get().ge(ci(1)).and(i.get().le(nx.get() - ci(2))), |b| {
            let k = b.let_(j.get() * nx.get() + i.get());
            b.store(
                anew,
                k.get(),
                cf(0.25)
                    * (load(a, k.get() - ci(1))
                        + load(a, k.get() + ci(1))
                        + load(a, k.get() - nx.get())
                        + load(a, k.get() + nx.get())),
            );
        });
    });
    let native: NativeKernel = Arc::new(|ctx: &mut NativeCtx<'_>| {
        let nx = extent(ctx.i64_arg(2));
        let n = nx
            .saturating_mul(extent(ctx.i64_arg(3)))
            .min(ctx.grid as usize);
        let kernel = ctx.kernel();
        let (mut w, r) = ctx.split_f64(&[0], &[1]);
        let (anew, a) = (&mut *w[0], r[0]);
        check_bounds(kernel, &[anew.len(), a.len()], n, |t| {
            let k = t + nx;
            (1..nx - 1)
                .contains(&(t % nx))
                .then_some([(1, k - 1), (1, k + 1), (1, k - nx), (1, k + nx), (0, k)])
                .into_iter()
                .flatten()
        })?;
        for row in stencil_rows(nx, n) {
            stencil_row(anew, a, nx, row, |_, west, east, north, south| {
                0.25 * (west + east + north + south)
            });
        }
        Ok(())
    });
    reg.register(b.finish(), Some(native))
        .expect("register jacobi_step")
}

/// ```cuda
/// __global__ void residual_reduce(double* out, const double* a,
///                                 const double* anew, long n) {
///   if (TID == 0) { double s = 0;
///     for (long k = 0; k < n; k++) { double d = anew[k]-a[k]; s += d*d; }
///     out[0] = s; }
/// }
/// ```
fn register_residual(reg: &mut KernelRegistry) -> KernelId {
    let mut b = KernelBuilder::new("residual_reduce");
    let out = b.ptr_param("out", ScalarTy::F64);
    let a = b.ptr_param("a", ScalarTy::F64);
    let anew = b.ptr_param("anew", ScalarTy::F64);
    let n = b.scalar_param("n", ScalarTy::I64);
    b.if_(tid().eq_(ci(0)), |b| {
        let acc = b.let_(cf(0.0));
        b.for_(ci(0), n.get(), |b, k| {
            let d = b.let_(load(anew, k.get()) - load(a, k.get()));
            b.set(acc, acc.get() + d.get() * d.get());
        });
        b.store(out, ci(0), acc.get());
    });
    let native: NativeKernel = Arc::new(|ctx: &mut NativeCtx<'_>| {
        if ctx.grid == 0 {
            return Ok(());
        }
        let n = extent(ctx.i64_arg(3));
        let kernel = ctx.kernel();
        let (mut w, r) = ctx.split_f64(&[0], &[1, 2]);
        let (a, anew) = (r[0], r[1]);
        let lens = [w[0].len(), a.len(), anew.len()];
        check_bounds(kernel, &lens, n, |k| [(2, k), (1, k)])?;
        check_bounds(kernel, &lens, 1, |_| [(0, 0)])?;
        let mut s = 0.0;
        for k in 0..n {
            let d = anew[k] - a[k];
            s += d * d;
        }
        w[0][0] = s;
        Ok(())
    });
    reg.register(b.finish(), Some(native))
        .expect("register residual_reduce")
}

/// ```cuda
/// __global__ void residual2d(double* out, const double* a,
///                            const double* anew, long w, long rows) {
///   if (TID == 0) { double s = 0;
///     for (long j = 1; j <= rows; j++)
///       for (long i = 1; i <= w - 2; i++) {
///         long k = j * w + i; double d = anew[k] - a[k]; s += d * d;
///       }
///     out[0] = s; }
/// }
/// ```
fn register_residual2d(reg: &mut KernelRegistry) -> KernelId {
    let mut b = KernelBuilder::new("residual2d");
    let out = b.ptr_param("out", ScalarTy::F64);
    let a = b.ptr_param("a", ScalarTy::F64);
    let anew = b.ptr_param("anew", ScalarTy::F64);
    let w = b.scalar_param("w", ScalarTy::I64);
    let rows = b.scalar_param("rows", ScalarTy::I64);
    b.if_(tid().eq_(ci(0)), |b| {
        let acc = b.let_(cf(0.0));
        b.for_(ci(1), rows.get() + ci(1), |b, j| {
            b.for_(ci(1), w.get() - ci(1), |b, i| {
                let k = b.let_(j.get() * w.get() + i.get());
                let d = b.let_(load(anew, k.get()) - load(a, k.get()));
                b.set(acc, acc.get() + d.get() * d.get());
            });
        });
        b.store(out, ci(0), acc.get());
    });
    let native: NativeKernel = Arc::new(|ctx: &mut NativeCtx<'_>| {
        if ctx.grid == 0 {
            return Ok(());
        }
        let w = extent(ctx.i64_arg(3));
        let rows = extent(ctx.i64_arg(4));
        let cols = w.saturating_sub(2);
        let kernel = ctx.kernel();
        let (mut o, r) = ctx.split_f64(&[0], &[1, 2]);
        let (a, anew) = (r[0], r[1]);
        let lens = [o[0].len(), a.len(), anew.len()];
        check_bounds(kernel, &lens, rows.saturating_mul(cols), |it| {
            let k = (it / cols + 1) * w + it % cols + 1;
            [(2, k), (1, k)]
        })?;
        check_bounds(kernel, &lens, 1, |_| [(0, 0)])?;
        let mut s = 0.0;
        for j in 1..=rows {
            for i in 1..=cols {
                let k = j * w + i;
                let d = anew[k] - a[k];
                s += d * d;
            }
        }
        o[0][0] = s;
        Ok(())
    });
    reg.register(b.finish(), Some(native))
        .expect("register residual2d")
}

/// ```cuda
/// __global__ void dot_reduce(double* out, const double* x,
///                            const double* y, long n) {
///   if (TID == 0) { double s = 0;
///     for (long k = 0; k < n; k++) s += x[k]*y[k];
///     out[0] = s; }
/// }
/// ```
fn register_dot(reg: &mut KernelRegistry) -> KernelId {
    let mut b = KernelBuilder::new("dot_reduce");
    let out = b.ptr_param("out", ScalarTy::F64);
    let x = b.ptr_param("x", ScalarTy::F64);
    let y = b.ptr_param("y", ScalarTy::F64);
    let n = b.scalar_param("n", ScalarTy::I64);
    b.if_(tid().eq_(ci(0)), |b| {
        let acc = b.let_(cf(0.0));
        b.for_(ci(0), n.get(), |b, k| {
            b.set(acc, acc.get() + load(x, k.get()) * load(y, k.get()));
        });
        b.store(out, ci(0), acc.get());
    });
    let native: NativeKernel = Arc::new(|ctx: &mut NativeCtx<'_>| {
        if ctx.grid == 0 {
            return Ok(());
        }
        let n = extent(ctx.i64_arg(3));
        let kernel = ctx.kernel();
        let (mut w, r) = ctx.split_f64(&[0], &[1, 2]);
        let (x, y) = (r[0], r[1]);
        let lens = [w[0].len(), x.len(), y.len()];
        check_bounds(kernel, &lens, n, |k| [(1, k), (2, k)])?;
        check_bounds(kernel, &lens, 1, |_| [(0, 0)])?;
        let mut s = 0.0;
        for k in 0..n {
            s += x[k] * y[k];
        }
        w[0][0] = s;
        Ok(())
    });
    reg.register(b.finish(), Some(native))
        .expect("register dot_reduce")
}

/// ```cuda
/// __global__ void apply_a(double* w, const double* p, long nx, long rows,
///                         double rx, double ry) {
///   long t = TID;
///   if (t < nx * rows) {
///     long j = t / nx + 1, i = t % nx, k = j * nx + i;
///     if (i >= 1 && i <= nx - 2)
///       w[k] = (1 + 2*rx + 2*ry) * p[k] - rx*(p[k-1]+p[k+1])
///                                       - ry*(p[k-nx]+p[k+nx]);
///     else
///       w[k] = p[k];   // identity on the fixed column boundaries
///   }
/// }
/// ```
fn register_apply_a(reg: &mut KernelRegistry) -> KernelId {
    let mut b = KernelBuilder::new("apply_a");
    let w = b.ptr_param("w", ScalarTy::F64);
    let p = b.ptr_param("p", ScalarTy::F64);
    let nx = b.scalar_param("nx", ScalarTy::I64);
    let rows = b.scalar_param("rows", ScalarTy::I64);
    let rx = b.scalar_param("rx", ScalarTy::F64);
    let ry = b.scalar_param("ry", ScalarTy::F64);
    b.if_(tid().lt(nx.get() * rows.get()), |b| {
        let j = b.let_(tid() / nx.get() + ci(1));
        let i = b.let_(tid().rem(nx.get()));
        let k = b.let_(j.get() * nx.get() + i.get());
        b.if_else(
            i.get().ge(ci(1)).and(i.get().le(nx.get() - ci(2))),
            |b| {
                b.store(
                    w,
                    k.get(),
                    (cf(1.0) + cf(2.0) * rx.get() + cf(2.0) * ry.get()) * load(p, k.get())
                        - rx.get() * (load(p, k.get() - ci(1)) + load(p, k.get() + ci(1)))
                        - ry.get() * (load(p, k.get() - nx.get()) + load(p, k.get() + nx.get())),
                );
            },
            |b| {
                b.store(w, k.get(), load(p, k.get()));
            },
        );
    });
    let native: NativeKernel = Arc::new(|ctx: &mut NativeCtx<'_>| {
        let nx = extent(ctx.i64_arg(2));
        let n = nx
            .saturating_mul(extent(ctx.i64_arg(3)))
            .min(ctx.grid as usize);
        let rx = ctx.f64_arg(4);
        let ry = ctx.f64_arg(5);
        let kernel = ctx.kernel();
        let (mut wbufs, r) = ctx.split_f64(&[0], &[1]);
        let (w, p) = (&mut *wbufs[0], r[0]);
        check_bounds(kernel, &[w.len(), p.len()], n, |t| {
            let k = t + nx;
            let around = (1..nx - 1).contains(&(t % nx)).then_some([
                (1, k - 1),
                (1, k + 1),
                (1, k - nx),
                (1, k + nx),
            ]);
            [(1, k)]
                .into_iter()
                .chain(around.into_iter().flatten())
                .chain([(0, k)])
        })?;
        let diag = 1.0 + 2.0 * rx + 2.0 * ry;
        for (k0, cols) in stencil_rows(nx, n) {
            // Identity on the fixed column boundaries this row reaches.
            w[k0] = p[k0];
            if cols == nx {
                w[k0 + nx - 1] = p[k0 + nx - 1];
            }
            stencil_row(w, p, nx, (k0, cols), |c, west, east, north, south| {
                diag * c - rx * (west + east) - ry * (north + south)
            });
        }
        Ok(())
    });
    reg.register(b.finish(), Some(native))
        .expect("register apply_a")
}

/// ```cuda
/// __global__ void axpy(double* y, const double* x, double alpha, long n)
///   { long t = TID; if (t < n) y[t] += alpha * x[t]; }
/// ```
fn register_axpy(reg: &mut KernelRegistry) -> KernelId {
    let mut b = KernelBuilder::new("axpy");
    let y = b.ptr_param("y", ScalarTy::F64);
    let x = b.ptr_param("x", ScalarTy::F64);
    let alpha = b.scalar_param("alpha", ScalarTy::F64);
    let n = b.scalar_param("n", ScalarTy::I64);
    b.if_(tid().lt(n.get()), |b| {
        b.store(y, tid(), load(y, tid()) + alpha.get() * load(x, tid()));
    });
    let native: NativeKernel = Arc::new(|ctx: &mut NativeCtx<'_>| {
        let alpha = ctx.f64_arg(2);
        let n = extent(ctx.i64_arg(3)).min(ctx.grid as usize);
        let kernel = ctx.kernel();
        let (mut w, r) = ctx.split_f64(&[0], &[1]);
        let (y, x) = (&mut *w[0], r[0]);
        check_bounds(kernel, &[y.len(), x.len()], n, |t| [(0, t), (1, t)])?;
        for t in 0..n {
            y[t] += alpha * x[t];
        }
        Ok(())
    });
    reg.register(b.finish(), Some(native))
        .expect("register axpy")
}

/// ```cuda
/// __global__ void xpay(double* y, const double* x, double beta, long n)
///   { long t = TID; if (t < n) y[t] = x[t] + beta * y[t]; }
/// ```
fn register_xpay(reg: &mut KernelRegistry) -> KernelId {
    let mut b = KernelBuilder::new("xpay");
    let y = b.ptr_param("y", ScalarTy::F64);
    let x = b.ptr_param("x", ScalarTy::F64);
    let beta = b.scalar_param("beta", ScalarTy::F64);
    let n = b.scalar_param("n", ScalarTy::I64);
    b.if_(tid().lt(n.get()), |b| {
        b.store(y, tid(), load(x, tid()) + beta.get() * load(y, tid()));
    });
    let native: NativeKernel = Arc::new(|ctx: &mut NativeCtx<'_>| {
        let beta = ctx.f64_arg(2);
        let n = extent(ctx.i64_arg(3)).min(ctx.grid as usize);
        let kernel = ctx.kernel();
        let (mut w, r) = ctx.split_f64(&[0], &[1]);
        let (y, x) = (&mut *w[0], r[0]);
        check_bounds(kernel, &[y.len(), x.len()], n, |t| [(1, t), (0, t)])?;
        for t in 0..n {
            y[t] = x[t] + beta * y[t];
        }
        Ok(())
    });
    reg.register(b.finish(), Some(native))
        .expect("register xpay")
}

#[cfg(test)]
mod tests {
    use super::*;
    use kernel_ir::AccessAttr;

    #[test]
    fn all_kernels_register() {
        let k = AppKernels::build();
        assert_eq!(k.registry.len(), 9);
        assert_eq!(k.registry.id_of("jacobi_step"), Some(k.jacobi_step));
        assert_eq!(k.registry.id_of("xpay"), Some(k.xpay));
    }

    #[test]
    fn shared_instance_is_cached() {
        let a = AppKernels::shared();
        let b = AppKernels::shared();
        assert!(Arc::ptr_eq(&a.registry, &b.registry));
    }

    #[test]
    fn pass_derives_expected_access_attributes() {
        let k = AppKernels::build();
        let an = k.registry.analysis();
        // fill: p write-only.
        assert_eq!(an.param(k.fill, 0), AccessAttr::WRITE);
        // copy: dst write, src read.
        assert_eq!(an.param(k.copy, 0), AccessAttr::WRITE);
        assert_eq!(an.param(k.copy, 1), AccessAttr::READ);
        // jacobi_step: anew write, a read.
        assert_eq!(an.param(k.jacobi_step, 0), AccessAttr::WRITE);
        assert_eq!(an.param(k.jacobi_step, 1), AccessAttr::READ);
        // residual: out write, a/anew read.
        assert_eq!(an.param(k.residual, 0), AccessAttr::WRITE);
        assert_eq!(an.param(k.residual, 1), AccessAttr::READ);
        assert_eq!(an.param(k.residual, 2), AccessAttr::READ);
        // residual2d: out write, a/anew read; loop-indexed, not bounded.
        assert_eq!(an.param(k.residual2d, 0), AccessAttr::WRITE);
        assert_eq!(an.param(k.residual2d, 1), AccessAttr::READ);
        assert_eq!(an.param(k.residual2d, 2), AccessAttr::READ);
        // apply_a: w write, p read.
        assert_eq!(an.param(k.apply_a, 0), AccessAttr::WRITE);
        assert_eq!(an.param(k.apply_a, 1), AccessAttr::READ);
        // axpy/xpay: y read-write, x read.
        assert_eq!(an.param(k.axpy, 0), AccessAttr::READ_WRITE);
        assert_eq!(an.param(k.axpy, 1), AccessAttr::READ);
        assert_eq!(an.param(k.xpay, 0), AccessAttr::READ_WRITE);
        assert_eq!(an.param(k.xpay, 1), AccessAttr::READ);
        // Scalars never carry access attributes.
        assert_eq!(an.param(k.axpy, 2), AccessAttr::NONE);
    }
}
