//! NEON kernel arm (aarch64).
//!
//! Two-wide `f64` vectors with fused multiply-add (`vfmaq_f64`). NEON
//! (Advanced SIMD) is architecturally mandatory on AArch64, so this arm
//! needs no runtime detection — it is the default backend on aarch64
//! hosts — and the intrinsics are only `unsafe` for their raw-pointer
//! loads, not for feature availability.
//!
//! The shapes mirror the AVX2 arm at half the width: a 2×2 register
//! micro-kernel for `matmul_transb`, broadcast-FMA rows for `gemm`, and
//! row-paired dots for the matvec kernels. `matvec_transpose` is the
//! scalar arm's loop, which has no reduction and so vectorizes as is.

use core::arch::aarch64::*;

use super::Backend;

pub(super) static BACKEND: Backend = Backend {
    name: "neon",
    matmul_transb,
    gemm,
    matvec,
    matvec_bias,
    matvec_transpose: super::scalar::matvec_transpose,
};

/// `out = A · Bᵀ` with a 2×2 micro-kernel (four accumulator vectors,
/// each operand load feeding two FMAs), k-tiled like the scalar arm.
fn matmul_transb(a: &[f64], b: &[f64], m: usize, n: usize, k: usize, out: &mut [f64]) {
    out.fill(0.0);
    if m == 0 || n == 0 || k == 0 {
        return;
    }
    const KB: usize = 512;
    let mut k0 = 0;
    while k0 < k {
        let kb = KB.min(k - k0);
        let arow = |r: usize| &a[r * k + k0..r * k + k0 + kb];
        let brow = |r: usize| &b[r * k + k0..r * k + k0 + kb];
        let mut i = 0;
        while i + 2 <= m {
            let (a0, a1) = (arow(i), arow(i + 1));
            let mut j = 0;
            while j + 2 <= n {
                let d = tile2x2(a0, a1, brow(j), brow(j + 1));
                out[i * n + j] += d[0];
                out[i * n + j + 1] += d[1];
                out[(i + 1) * n + j] += d[2];
                out[(i + 1) * n + j + 1] += d[3];
                j += 2;
            }
            if j < n {
                let bj = brow(j);
                out[i * n + j] += dot(a0, bj);
                out[(i + 1) * n + j] += dot(a1, bj);
            }
            i += 2;
        }
        // The remainder row pairs its columns through `dot2`, which
        // accumulates exactly as a row of `tile2x2` does, so a row's bits
        // do not depend on where it sits in the batch.
        if i < m {
            let a0 = arow(i);
            let mut j = 0;
            while j + 2 <= n {
                let d = dot2(a0, brow(j), brow(j + 1));
                out[i * n + j] += d[0];
                out[i * n + j + 1] += d[1];
                j += 2;
            }
            if j < n {
                out[i * n + j] += dot(a0, brow(j));
            }
        }
        k0 += kb;
    }
}

/// `out = A · B`: broadcast-FMA along the contiguous rows of `b`.
fn gemm(a: &[f64], b: &[f64], m: usize, k: usize, n: usize, out: &mut [f64]) {
    out.fill(0.0);
    if m == 0 || n == 0 || k == 0 {
        return;
    }
    let n2 = n & !1;
    for (arow, orow) in a.chunks_exact(k).zip(out.chunks_exact_mut(n)) {
        for (kk, &aik) in arow.iter().enumerate() {
            if aik == 0.0 {
                continue;
            }
            let brow = &b[kk * n..(kk + 1) * n];
            // Safety: j stays within n2 <= min(orow.len(), brow.len()).
            unsafe {
                let va = vdupq_n_f64(aik);
                let mut j = 0;
                while j < n2 {
                    let vo = vld1q_f64(orow.as_ptr().add(j));
                    let vb = vld1q_f64(brow.as_ptr().add(j));
                    vst1q_f64(orow.as_mut_ptr().add(j), vfmaq_f64(vo, va, vb));
                    j += 2;
                }
            }
            if n2 < n {
                orow[n - 1] += aik * brow[n - 1];
            }
        }
    }
}

/// `out = W x` with row pairs sharing every `x` load.
fn matvec(w: &[f64], x: &[f64], out: &mut [f64]) {
    let k = x.len();
    if k == 0 {
        out.fill(0.0);
        return;
    }
    out.fill(0.0);
    matvec_accumulate(w, x, out);
}

/// `out = W x + bias`, same loop seeded with the bias.
fn matvec_bias(w: &[f64], x: &[f64], bias: &[f64], out: &mut [f64]) {
    let k = x.len();
    if k == 0 {
        out.copy_from_slice(bias);
        return;
    }
    out.copy_from_slice(bias);
    matvec_accumulate(w, x, out);
}

/// `out += W x`, row pairs with a column-blocked outer loop (matching
/// the AVX2 arm's L1 blocking).
fn matvec_accumulate(w: &[f64], x: &[f64], out: &mut [f64]) {
    const MV_KB: usize = 2048;
    let k = x.len();
    let rows = out.len();
    let mut k0 = 0;
    while k0 < k {
        let kb = MV_KB.min(k - k0);
        let xb = &x[k0..k0 + kb];
        let wrow = |r: usize| &w[r * k + k0..r * k + k0 + kb];
        let mut r = 0;
        while r + 2 <= rows {
            let d = dot2(xb, wrow(r), wrow(r + 1));
            out[r] += d[0];
            out[r + 1] += d[1];
            r += 2;
        }
        if r < rows {
            out[r] += dot(wrow(r), xb);
        }
        k0 += kb;
    }
}

/// Two left rows against two right rows: four accumulator vectors,
/// reduced to the 2×2 tile of dot products.
#[inline]
fn tile2x2(a0: &[f64], a1: &[f64], b0: &[f64], b1: &[f64]) -> [f64; 4] {
    let kb = a0.len();
    let kb2 = kb & !1;
    // Safety: all loads stay within kb2 <= the common slice length.
    unsafe {
        let mut acc00 = vdupq_n_f64(0.0);
        let mut acc01 = vdupq_n_f64(0.0);
        let mut acc10 = vdupq_n_f64(0.0);
        let mut acc11 = vdupq_n_f64(0.0);
        let mut o = 0;
        while o < kb2 {
            let va0 = vld1q_f64(a0.as_ptr().add(o));
            let va1 = vld1q_f64(a1.as_ptr().add(o));
            let vb0 = vld1q_f64(b0.as_ptr().add(o));
            let vb1 = vld1q_f64(b1.as_ptr().add(o));
            acc00 = vfmaq_f64(acc00, va0, vb0);
            acc01 = vfmaq_f64(acc01, va0, vb1);
            acc10 = vfmaq_f64(acc10, va1, vb0);
            acc11 = vfmaq_f64(acc11, va1, vb1);
            o += 2;
        }
        let mut d = [
            vaddvq_f64(acc00),
            vaddvq_f64(acc01),
            vaddvq_f64(acc10),
            vaddvq_f64(acc11),
        ];
        if kb2 < kb {
            let o = kb - 1;
            d[0] += a0[o] * b0[o];
            d[1] += a0[o] * b1[o];
            d[2] += a1[o] * b0[o];
            d[3] += a1[o] * b1[o];
        }
        d
    }
}

/// One shared row against two rows, for the matvec kernels.
#[inline]
fn dot2(a: &[f64], b0: &[f64], b1: &[f64]) -> [f64; 2] {
    let kb = a.len();
    let kb2 = kb & !1;
    // Safety: all loads stay within kb2 <= the common slice length.
    unsafe {
        let mut acc0 = vdupq_n_f64(0.0);
        let mut acc1 = vdupq_n_f64(0.0);
        let mut o = 0;
        while o < kb2 {
            let va = vld1q_f64(a.as_ptr().add(o));
            acc0 = vfmaq_f64(acc0, va, vld1q_f64(b0.as_ptr().add(o)));
            acc1 = vfmaq_f64(acc1, va, vld1q_f64(b1.as_ptr().add(o)));
            o += 2;
        }
        let mut d = [vaddvq_f64(acc0), vaddvq_f64(acc1)];
        if kb2 < kb {
            let o = kb - 1;
            d[0] += a[o] * b0[o];
            d[1] += a[o] * b1[o];
        }
        d
    }
}

/// Single dot product with four accumulator vectors (eight elements in
/// flight).
#[inline]
fn dot(a: &[f64], b: &[f64]) -> f64 {
    let kb = a.len();
    let kb8 = kb & !7;
    // Safety: all loads stay within kb8/kb2 <= the common slice length.
    unsafe {
        let mut acc0 = vdupq_n_f64(0.0);
        let mut acc1 = vdupq_n_f64(0.0);
        let mut acc2 = vdupq_n_f64(0.0);
        let mut acc3 = vdupq_n_f64(0.0);
        let mut o = 0;
        while o < kb8 {
            acc0 = vfmaq_f64(acc0, vld1q_f64(a.as_ptr().add(o)), vld1q_f64(b.as_ptr().add(o)));
            acc1 = vfmaq_f64(
                acc1,
                vld1q_f64(a.as_ptr().add(o + 2)),
                vld1q_f64(b.as_ptr().add(o + 2)),
            );
            acc2 = vfmaq_f64(
                acc2,
                vld1q_f64(a.as_ptr().add(o + 4)),
                vld1q_f64(b.as_ptr().add(o + 4)),
            );
            acc3 = vfmaq_f64(
                acc3,
                vld1q_f64(a.as_ptr().add(o + 6)),
                vld1q_f64(b.as_ptr().add(o + 6)),
            );
            o += 8;
        }
        let kb2 = kb & !1;
        while o < kb2 {
            acc0 = vfmaq_f64(acc0, vld1q_f64(a.as_ptr().add(o)), vld1q_f64(b.as_ptr().add(o)));
            o += 2;
        }
        let mut sum = vaddvq_f64(vaddq_f64(vaddq_f64(acc0, acc1), vaddq_f64(acc2, acc3)));
        if o < kb {
            sum += a[o] * b[o];
        }
        sum
    }
}
