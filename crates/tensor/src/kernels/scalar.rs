//! Portable scalar kernel arm: the register-tiled kernels that every
//! SIMD arm is tested against.
//!
//! These are the PR 2 kernels relocated from `Matrix` onto flat buffers:
//! a 4×4 register micro-kernel with k-tiling for `matmul_transb`, and
//! unrolled multi-accumulator dots everywhere else. They carry no
//! `std::arch` code, so they compile and run on every target and under
//! `miri`, and they define the reference association order for the
//! equivalence suite.

use super::Backend;

pub(super) static BACKEND: Backend = Backend {
    name: "scalar",
    matmul_transb,
    gemm,
    matvec,
    matvec_bias,
    matvec_transpose,
};

/// `out = A · Bᵀ`, register-tiled: 4 rows of `a` meet 4 rows of `b` in a
/// 4×4 micro-kernel, so every operand load feeds four multiply-adds, and
/// the inner dimension is tiled so the working set stays cache-resident.
fn matmul_transb(a: &[f64], b: &[f64], m: usize, n: usize, k: usize, out: &mut [f64]) {
    out.fill(0.0);
    if m == 0 || n == 0 || k == 0 {
        return;
    }
    // k-tile keeps the 8 active rows (4 of `a`, 4 of `b`) within L1:
    // 8 * KB * 8 bytes = 32 KiB.
    const KB: usize = 512;
    let mut k0 = 0;
    while k0 < k {
        let kb = KB.min(k - k0);
        let arow = |r: usize| &a[r * k + k0..r * k + k0 + kb];
        let brow = |r: usize| &b[r * k + k0..r * k + k0 + kb];
        let mut i = 0;
        while i + 4 <= m {
            let rows = [arow(i), arow(i + 1), arow(i + 2), arow(i + 3)];
            tile_rows(rows, &brow, n, &mut out[i * n..]);
            i += 4;
        }
        // Remainder rows run the same tile code one row at a time, so a
        // row's bits do not depend on where it sits in the batch.
        while i < m {
            tile_rows([arow(i)], &brow, n, &mut out[i * n..]);
            i += 1;
        }
        k0 += kb;
    }
}

/// `out = A · B`, row-major: the inner loop runs along the contiguous
/// rows of `b` and `out`, with a zero-skip on `a` entries (gradient
/// matrices are often sparse after ReLU masking).
fn gemm(a: &[f64], b: &[f64], m: usize, k: usize, n: usize, out: &mut [f64]) {
    out.fill(0.0);
    if m == 0 || n == 0 || k == 0 {
        return;
    }
    for (arow, orow) in a.chunks_exact(k).zip(out.chunks_exact_mut(n)) {
        for (kk, &aik) in arow.iter().enumerate() {
            if aik == 0.0 {
                continue;
            }
            let brow = &b[kk * n..(kk + 1) * n];
            for (o, bv) in orow.iter_mut().zip(brow.iter()) {
                *o += aik * bv;
            }
        }
    }
}

/// `out = W x`: row quads share every `x` load through [`dot_rx1`];
/// remainder rows use the eight-way unrolled dot.
fn matvec(w: &[f64], x: &[f64], out: &mut [f64]) {
    let k = x.len();
    if k == 0 {
        out.fill(0.0);
        return;
    }
    let rows = out.len();
    let row = |r: usize| &w[r * k..(r + 1) * k];
    let mut r = 0;
    while r + 4 <= rows {
        let dots = dot_rx1([row(r), row(r + 1), row(r + 2), row(r + 3)], x);
        out[r..r + 4].copy_from_slice(&dots);
        r += 4;
    }
    while r < rows {
        out[r] = dot_unrolled(row(r), x);
        r += 1;
    }
}

/// `out = W x + bias`, same blocking as [`matvec`] with the bias add
/// fused into the store.
fn matvec_bias(w: &[f64], x: &[f64], bias: &[f64], out: &mut [f64]) {
    let k = x.len();
    if k == 0 {
        out.copy_from_slice(bias);
        return;
    }
    let rows = out.len();
    let row = |r: usize| &w[r * k..(r + 1) * k];
    let mut r = 0;
    while r + 4 <= rows {
        let dots = dot_rx1([row(r), row(r + 1), row(r + 2), row(r + 3)], x);
        for (c, d) in dots.into_iter().enumerate() {
            out[r + c] = d + bias[r + c];
        }
        r += 4;
    }
    while r < rows {
        out[r] = dot_unrolled(row(r), x) + bias[r];
        r += 1;
    }
}

/// `out = Wᵀ x` (`w`: `x.len()×out.len()` row-major): rows in ascending
/// order, each nonzero `x[i]` scaling row `i` into `out` with a multiply
/// then an add. Zero entries are skipped (gradients are sparse after
/// ReLU masking), so a zero never turns an infinite weight into NaN.
pub(super) fn matvec_transpose(w: &[f64], x: &[f64], out: &mut [f64]) {
    out.fill(0.0);
    let n = out.len();
    if n == 0 {
        return;
    }
    for (&xi, row) in x.iter().zip(w.chunks_exact(n)) {
        if xi == 0.0 {
            continue;
        }
        for (o, a) in out.iter_mut().zip(row) {
            *o += xi * a;
        }
    }
}

/// Adds `R` rows of `A · Bᵀ` for one k-tile into `out` (the `R×n`
/// output rows, row-major): 4-column tiles through [`tile_rx4`], the
/// column remainder through [`dot_rx1`].
#[inline]
fn tile_rows<'b, const R: usize>(
    a: [&[f64]; R],
    brow: &impl Fn(usize) -> &'b [f64],
    n: usize,
    out: &mut [f64],
) {
    let mut j = 0;
    while j + 4 <= n {
        let tile = tile_rx4(a, [brow(j), brow(j + 1), brow(j + 2), brow(j + 3)]);
        for (r, row) in tile.iter().enumerate() {
            for (c, v) in row.iter().enumerate() {
                out[r * n + j + c] += v;
            }
        }
        j += 4;
    }
    while j < n {
        for (r, d) in dot_rx1(a, brow(j)).into_iter().enumerate() {
            out[r * n + j] += d;
        }
        j += 1;
    }
}

/// `R×4` register-tile micro-kernel: the dot products between `R` left
/// rows and four right rows, sharing every operand load across the
/// multiply-adds of a column.
///
/// At `R = 4` this is the classic GEMM register tile: sixteen
/// independent accumulator chains hide FP-add latency, and the load:FLOP
/// ratio drops from 2:1 (plain dot) to 1:2, which is what lifts the
/// kernel off the load-port ceiling. Every dot product accumulates in
/// the same order whatever `R` is, so the `R = 1` remainder rows agree
/// bitwise with the rows of a full tile. Same reassociation caveat as
/// [`dot_unrolled`].
///
/// All slices must have equal length (callers slice them to the same
/// k-tile).
#[inline]
fn tile_rx4<const R: usize>(a: [&[f64]; R], b: [&[f64]; 4]) -> [[f64; 4]; R] {
    let kb = b[0].len();
    let a = a.map(|r| &r[..kb]);
    let mut acc = [[0.0f64; 4]; R];
    let chunks = kb / 4;
    for c in 0..chunks {
        let o = c * 4;
        let lane = |s: &[f64]| -> [f64; 4] { s[o..o + 4].try_into().expect("chunk is 4 wide") };
        let la = a.map(lane);
        let lb = b.map(lane);
        for (ai, arow) in la.iter().enumerate() {
            for (bj, brow) in lb.iter().enumerate() {
                let mut s = 0.0;
                for l in 0..4 {
                    s += arow[l] * brow[l];
                }
                acc[ai][bj] += s;
            }
        }
    }
    for o in chunks * 4..kb {
        for (ai, arow) in a.iter().enumerate() {
            let av = arow[o];
            for (bj, brow) in b.iter().enumerate() {
                acc[ai][bj] += av * brow[o];
            }
        }
    }
    acc
}

/// `R` simultaneous dot products against a shared right-hand side.
///
/// The dominant cost of the blocked kernel is load traffic: a plain dot
/// issues two loads per multiply-add. At `R = 4`, amortizing each `b`
/// load over four `a` rows drops that to 1.25 loads per multiply-add,
/// and the sixteen independent accumulator chains keep the FP pipeline
/// saturated. Each row accumulates in four lanes whatever `R` is, so
/// results do not depend on `R`. Same reassociation caveat as
/// [`dot_unrolled`].
///
/// All slices must have equal length (callers slice them to the same
/// k-tile).
#[inline]
fn dot_rx1<const R: usize>(a: [&[f64]; R], b: &[f64]) -> [f64; R] {
    let a = a.map(|r| &r[..b.len()]);
    let mut acc = [[0.0f64; 4]; R];
    let k4 = b.len() / 4 * 4;
    for (o, bb) in b[..k4].chunks_exact(4).enumerate() {
        let bb: &[f64; 4] = bb.try_into().expect("chunk is 4 wide");
        for (acc, row) in acc.iter_mut().zip(a.iter()) {
            let r: &[f64; 4] = row[o * 4..o * 4 + 4].try_into().expect("chunk is 4 wide");
            for i in 0..4 {
                acc[i] += r[i] * bb[i];
            }
        }
    }
    for o in k4..b.len() {
        for (acc, row) in acc.iter_mut().zip(a.iter()) {
            acc[0] += row[o] * b[o];
        }
    }
    acc.map(|s| (s[0] + s[2]) + (s[1] + s[3]))
}

/// Dot product with eight independent accumulators.
///
/// A single-accumulator dot is latency-bound: every add waits on the
/// previous one, capping throughput at one element per FP-add latency.
/// Eight parallel chains keep the adder pipeline full (and give LLVM a
/// reduction it can vectorize). The price is a different summation
/// association than a naive ascending loop — equal within the usual
/// `O(k·eps)` reassociation error, covered by the kernel equivalence
/// suite.
#[inline]
pub(super) fn dot_unrolled(a: &[f64], b: &[f64]) -> f64 {
    let mut acc = [0.0f64; 8];
    let mut chunks_a = a.chunks_exact(8);
    let mut chunks_b = b.chunks_exact(8);
    for (ca, cb) in (&mut chunks_a).zip(&mut chunks_b) {
        let ca: &[f64; 8] = ca.try_into().expect("chunk is 8 wide");
        let cb: &[f64; 8] = cb.try_into().expect("chunk is 8 wide");
        for i in 0..8 {
            acc[i] += ca[i] * cb[i];
        }
    }
    let mut tail = 0.0;
    for (x, y) in chunks_a.remainder().iter().zip(chunks_b.remainder()) {
        tail += x * y;
    }
    (((acc[0] + acc[4]) + (acc[1] + acc[5])) + ((acc[2] + acc[6]) + (acc[3] + acc[7]))) + tail
}

#[cfg(test)]
mod tests {
    #[test]
    fn tail_rows_and_columns_are_covered() {
        // 5×3 against 5×3ᵀ exercises the <4 row and column remainders.
        let a: Vec<f64> = (0..15).map(|i| i as f64 * 0.5 - 3.0).collect();
        let b: Vec<f64> = (0..15).map(|i| (i as f64 * 0.7).sin()).collect();
        let mut out = vec![f64::NAN; 25];
        super::matmul_transb(&a, &b, 5, 5, 3, &mut out);
        for i in 0..5 {
            for j in 0..5 {
                let want: f64 = (0..3).map(|kk| a[i * 3 + kk] * b[j * 3 + kk]).sum();
                assert!((out[i * 5 + j] - want).abs() < 1e-12);
            }
        }
    }
}
