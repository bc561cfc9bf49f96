//! Runtime-dispatched SIMD kernel backends.
//!
//! The hot kernels of the verifier — `matmul_transb` (zonotope generator
//! propagation), `gemm` (batched PGD), `matvec`/`matvec_bias` (zonotope
//! centers, policy features), `matvec_transpose` (per-point gradients) —
//! exist in up to three arms:
//!
//! * **scalar** — the register-tiled portable kernels (4×4 tile, eight-way
//!   unrolled dots). Always available; the reference every other arm is
//!   tested against.
//! * **avx2** — `std::arch::x86_64` AVX2+FMA kernels (4-wide `f64`,
//!   fused multiply-add, 2×4 register micro-kernel). Selected at runtime
//!   when `is_x86_feature_detected!` confirms both features.
//! * **neon** — `std::arch::aarch64` NEON kernels (2-wide `f64`).
//!   NEON is architecturally guaranteed on aarch64, so it is the default
//!   arm there.
//!
//! Selection happens **once** per process: [`active`] probes the CPU on
//! first use and caches a `&'static Backend` in a [`OnceLock`]. Setting
//! the environment variable `CHARON_FORCE_SCALAR=1` (any non-empty value
//! other than `0`) pins the scalar arm, which CI uses to keep the
//! portable fallback green; the same variable also selects the verifier's
//! fallback shared-queue scheduler (see `charon::parallel`).
//!
//! All arms compute the same contraction with different association
//! orders, so results agree to a few ULP of the accumulated magnitude but
//! are not bit-identical; `tests/simd_equivalence.rs` pins every arm
//! against the scalar reference within a 4-ULP accumulation bound. The
//! one exception is `matvec_transpose` (the per-point backward pass):
//! every arm runs the scalar loop's exact operation sequence per output
//! element, so it is bit-identical across arms.
//!
//! Within one arm, a row of the batched kernels (`matmul_transb`'s left
//! operand, `gemm`'s left operand) is computed the same way wherever it
//! sits in the batch: micro-kernel tiles and remainder rows share one
//! association. The lockstep attack relies on this: it compacts retired
//! rows out of its batch, and the surviving rows' bits must not move.

#[cfg(target_arch = "x86_64")]
mod avx2;
#[cfg(target_arch = "aarch64")]
mod neon;
mod scalar;

use std::sync::OnceLock;

/// `out = A · Bᵀ` over flat row-major buffers: `a` is `m×k`, `b` is
/// `n×k`, `out` is `m×n`. Overwrites `out`.
type MatmulTransbFn = fn(&[f64], &[f64], usize, usize, usize, &mut [f64]);
/// `out = A · B` over flat row-major buffers: `a` is `m×k`, `b` is
/// `k×n`, `out` is `m×n`. Overwrites `out`.
type GemmFn = fn(&[f64], &[f64], usize, usize, usize, &mut [f64]);
/// `out = W x`: `w` is `out.len()×x.len()` row-major.
type MatvecFn = fn(&[f64], &[f64], &mut [f64]);
/// `out = W x + bias`: `w` is `out.len()×x.len()` row-major.
type MatvecBiasFn = fn(&[f64], &[f64], &[f64], &mut [f64]);
/// `out = Wᵀ x`: `w` is `x.len()×out.len()` row-major.
type MatvecTransposeFn = fn(&[f64], &[f64], &mut [f64]);

/// A dispatch table of kernel implementations for one instruction-set
/// arm.
///
/// Obtain one with [`active`] (the best arm for this CPU), [`scalar`]
/// (the portable reference), or [`available`] (every arm this host can
/// execute, for equivalence tests and benchmarks).
pub struct Backend {
    name: &'static str,
    matmul_transb: MatmulTransbFn,
    gemm: GemmFn,
    matvec: MatvecFn,
    matvec_bias: MatvecBiasFn,
    matvec_transpose: MatvecTransposeFn,
}

impl Backend {
    /// Short identifier of the arm: `"scalar"`, `"avx2"`, or `"neon"`.
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// `out = A · Bᵀ` on flat row-major buffers (`a`: `m×k`, `b`: `n×k`,
    /// `out`: `m×n`, fully overwritten).
    ///
    /// # Panics
    ///
    /// Panics if a buffer length disagrees with its dimensions.
    pub fn matmul_transb(&self, a: &[f64], b: &[f64], m: usize, n: usize, k: usize, out: &mut [f64]) {
        assert_eq!(a.len(), m * k, "matmul_transb: lhs buffer length");
        assert_eq!(b.len(), n * k, "matmul_transb: rhs buffer length");
        assert_eq!(out.len(), m * n, "matmul_transb: output buffer length");
        (self.matmul_transb)(a, b, m, n, k, out);
    }

    /// `out = A · B` on flat row-major buffers (`a`: `m×k`, `b`: `k×n`,
    /// `out`: `m×n`, fully overwritten).
    ///
    /// # Panics
    ///
    /// Panics if a buffer length disagrees with its dimensions.
    pub fn gemm(&self, a: &[f64], b: &[f64], m: usize, k: usize, n: usize, out: &mut [f64]) {
        assert_eq!(a.len(), m * k, "gemm: lhs buffer length");
        assert_eq!(b.len(), k * n, "gemm: rhs buffer length");
        assert_eq!(out.len(), m * n, "gemm: output buffer length");
        (self.gemm)(a, b, m, k, n, out);
    }

    /// `out = W x` (`w`: `out.len()×x.len()` row-major).
    ///
    /// # Panics
    ///
    /// Panics if `w.len() != out.len() * x.len()`.
    pub fn matvec(&self, w: &[f64], x: &[f64], out: &mut [f64]) {
        assert_eq!(w.len(), out.len() * x.len(), "matvec: weight buffer length");
        (self.matvec)(w, x, out);
    }

    /// `out = W x + bias` (`w`: `out.len()×x.len()` row-major).
    ///
    /// # Panics
    ///
    /// Panics if `w.len() != out.len() * x.len()` or
    /// `bias.len() != out.len()`.
    pub fn matvec_bias(&self, w: &[f64], x: &[f64], bias: &[f64], out: &mut [f64]) {
        assert_eq!(w.len(), out.len() * x.len(), "matvec_bias: weight buffer length");
        assert_eq!(bias.len(), out.len(), "matvec_bias: bias length");
        (self.matvec_bias)(w, x, bias, out);
    }

    /// `out = Wᵀ x` (`w`: `x.len()×out.len()` row-major), the per-point
    /// backward pass through an affine layer.
    ///
    /// Unlike the other kernels this one is bit-identical across arms:
    /// every arm adds the products `x[i]·W[i][j]` into `out[j]` in
    /// ascending `i`, as a multiply then an add (no fused multiply-add),
    /// skipping zero `x[i]`. The SIMD arms only widen the `j` loop.
    ///
    /// # Panics
    ///
    /// Panics if `w.len() != out.len() * x.len()`.
    pub fn matvec_transpose(&self, w: &[f64], x: &[f64], out: &mut [f64]) {
        assert_eq!(w.len(), out.len() * x.len(), "matvec_transpose: weight buffer length");
        (self.matvec_transpose)(w, x, out);
    }

    /// Fused zonotope affine transformer: pushes a center and a flat
    /// `G×in_dim` generator matrix through the layer `y = W x + b` in one
    /// call, streaming the generator buffer through `matmul_transb`.
    ///
    /// `weights` is `out_dim×in_dim` row-major with `out_dim ==
    /// bias.len() == out_center.len()` and `in_dim == center.len()`;
    /// `gens` is `G×in_dim` and `out_gens` is `G×out_dim`, both fully
    /// overwritten.
    ///
    /// # Panics
    ///
    /// Panics if any buffer length disagrees with the dimensions implied
    /// by `center`/`bias`.
    pub fn zonotope_affine(
        &self,
        weights: &[f64],
        bias: &[f64],
        center: &[f64],
        gens: &[f64],
        out_center: &mut [f64],
        out_gens: &mut [f64],
    ) {
        let in_dim = center.len();
        let out_dim = bias.len();
        assert_eq!(weights.len(), out_dim * in_dim, "zonotope_affine: weight buffer length");
        assert_eq!(out_center.len(), out_dim, "zonotope_affine: center output length");
        let num_gens = gens
            .len()
            .checked_div(in_dim)
            .or_else(|| out_gens.len().checked_div(out_dim))
            .unwrap_or(0);
        assert_eq!(gens.len(), num_gens * in_dim, "zonotope_affine: generator buffer length");
        assert_eq!(out_gens.len(), num_gens * out_dim, "zonotope_affine: generator output length");
        (self.matvec_bias)(weights, center, bias, out_center);
        (self.matmul_transb)(gens, weights, num_gens, out_dim, in_dim, out_gens);
    }
}

static ACTIVE: OnceLock<&'static Backend> = OnceLock::new();

/// The kernel arm selected for this process.
///
/// The first call probes `CHARON_FORCE_SCALAR` and the CPU's feature
/// flags; the choice is cached for the lifetime of the process, so the
/// per-call dispatch cost is one relaxed atomic load and an indirect
/// call.
pub fn active() -> &'static Backend {
    ACTIVE.get_or_init(|| if force_scalar() { scalar() } else { detect() })
}

/// The portable scalar arm (register-tiled, no `std::arch`).
pub fn scalar() -> &'static Backend {
    &scalar::BACKEND
}

/// Every arm this host can execute, scalar first.
///
/// Equivalence tests and benchmarks iterate this to cover all dispatch
/// arms reachable on the machine, independent of which one [`active`]
/// picked.
pub fn available() -> Vec<&'static Backend> {
    let mut arms = vec![scalar()];
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("avx2") && std::arch::is_x86_feature_detected!("fma") {
        arms.push(&avx2::BACKEND);
    }
    #[cfg(target_arch = "aarch64")]
    arms.push(&neon::BACKEND);
    arms
}

/// True when `CHARON_FORCE_SCALAR` is set to a non-empty value other
/// than `0`.
fn force_scalar() -> bool {
    std::env::var_os("CHARON_FORCE_SCALAR").is_some_and(|v| !v.is_empty() && v != "0")
}

#[cfg(target_arch = "x86_64")]
fn detect() -> &'static Backend {
    if std::arch::is_x86_feature_detected!("avx2") && std::arch::is_x86_feature_detected!("fma") {
        &avx2::BACKEND
    } else {
        scalar()
    }
}

#[cfg(target_arch = "aarch64")]
fn detect() -> &'static Backend {
    &neon::BACKEND
}

#[cfg(not(any(target_arch = "x86_64", target_arch = "aarch64")))]
fn detect() -> &'static Backend {
    scalar()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_arm_is_always_available() {
        assert_eq!(available()[0].name(), "scalar");
    }

    #[test]
    fn active_arm_is_among_available() {
        let name = active().name();
        assert!(available().iter().any(|b| b.name() == name));
    }

    #[test]
    fn zonotope_affine_matches_separate_calls() {
        let (out_dim, in_dim, gens_n) = (5, 7, 3);
        let weights: Vec<f64> = (0..out_dim * in_dim).map(|i| (i as f64 * 0.37).sin()).collect();
        let bias: Vec<f64> = (0..out_dim).map(|i| i as f64 * 0.25 - 0.5).collect();
        let center: Vec<f64> = (0..in_dim).map(|i| (i as f64 * 0.11).cos()).collect();
        let gens: Vec<f64> = (0..gens_n * in_dim).map(|i| (i as f64 * 0.53).sin()).collect();
        for backend in available() {
            let mut fused_c = vec![f64::NAN; out_dim];
            let mut fused_g = vec![f64::NAN; gens_n * out_dim];
            backend.zonotope_affine(&weights, &bias, &center, &gens, &mut fused_c, &mut fused_g);
            let mut sep_c = vec![f64::NAN; out_dim];
            backend.matvec_bias(&weights, &center, &bias, &mut sep_c);
            let mut sep_g = vec![f64::NAN; gens_n * out_dim];
            backend.matmul_transb(&gens, &weights, gens_n, out_dim, in_dim, &mut sep_g);
            assert_eq!(fused_c, sep_c, "{} center", backend.name());
            assert_eq!(fused_g, sep_g, "{} generators", backend.name());
        }
    }

    #[test]
    fn zero_dimension_edge_cases_do_not_panic() {
        for backend in available() {
            let mut out = [f64::NAN; 3];
            backend.matvec(&[], &[], &mut out);
            assert_eq!(out, [0.0; 3], "{}", backend.name());
            let mut out = [f64::NAN; 2];
            backend.matvec_bias(&[], &[], &[1.0, 2.0], &mut out);
            assert_eq!(out, [1.0, 2.0], "{}", backend.name());
            let mut out = [f64::NAN; 6];
            backend.matmul_transb(&[], &[], 2, 3, 0, &mut out);
            assert_eq!(out, [0.0; 6], "{}", backend.name());
            let mut out = [f64::NAN; 6];
            backend.gemm(&[], &[], 2, 0, 3, &mut out);
            assert_eq!(out, [0.0; 6], "{}", backend.name());
            let mut out: [f64; 0] = [];
            backend.matmul_transb(&[1.0, 2.0], &[], 1, 0, 2, &mut out);
            backend.gemm(&[1.0, 2.0], &[], 1, 2, 0, &mut out);
        }
    }
}
