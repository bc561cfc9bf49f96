//! SIMD-vs-scalar equivalence suite: every dispatch arm the host can
//! execute must agree with the portable scalar arm within 4 ULP of the
//! accumulated magnitude, on odd sizes and unaligned tails.
//!
//! The arms sum in different orders (8-lane scalar chains, 4-wide AVX2
//! FMA chains, 2-wide NEON chains), so results are not bit-identical.
//! The comparison unit is the ULP of the *accumulation*, not of the
//! possibly-cancelled result: reassociated summation of `k` terms
//! drifts like a random walk of `O(√k)` roundings at magnitude
//! `Σ|aᵢ·bᵢ|`, so the suite pins every arm within
//! `4 ulp · √k · Σ|aᵢ·bᵢ|` of the scalar reference. A dropped lane or
//! a bad tail shows up at `Σ|aᵢ·bᵢ|/k` — ten orders of magnitude above
//! this tolerance — so the bound is tight where it matters.

use proptest::prelude::*;
use tensor::kernels::{self, Backend};

/// `|got - want| <= 4 ulp` at the reassociation magnitude
/// `√k · Σ|aᵢ·bᵢ|` of a length-`k` accumulation.
fn assert_within_4ulp(name: &str, got: f64, want: f64, mag: f64, k: usize) {
    let tol = 4.0 * f64::EPSILON * (k.max(1) as f64).sqrt() * mag.max(f64::MIN_POSITIVE);
    assert!(
        (got - want).abs() <= tol,
        "{name}: {got} vs scalar {want} (|Δ|={} > tol {tol}, mag {mag})",
        (got - want).abs()
    );
}

/// Deterministic pseudo-random buffer with sign changes and varied
/// magnitudes (so cancellation actually occurs).
fn filled(len: usize, seed: u64) -> Vec<f64> {
    (0..len)
        .map(|i| {
            let t = (i as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ seed;
            let u = (t >> 11) as f64 / (1u64 << 53) as f64;
            (u - 0.5) * 16.0
        })
        .collect()
}

/// Per-element `Σ|aᵢ·bᵢ|` for `A · Bᵀ`.
fn absdot(a: &[f64], b: &[f64]) -> f64 {
    a.iter().zip(b).map(|(x, y)| (x * y).abs()).sum()
}

/// All arms the host can run except the scalar reference itself.
fn simd_arms() -> Vec<&'static Backend> {
    kernels::available()
        .into_iter()
        .filter(|b| b.name() != "scalar")
        .collect()
}

proptest! {
    /// `matmul_transb` agreement on odd shapes crossing the k-tile, the
    /// 2-row and 4-column micro-kernel remainders, with both operands at
    /// arbitrary (unaligned) element offsets into their backing buffers.
    #[test]
    fn matmul_transb_arms_agree(
        m in 1usize..9,
        n in 1usize..9,
        k in 1usize..700,
        aoff in 0usize..4,
        boff in 0usize..4,
        seed in 0u64..500,
    ) {
        let abuf = filled(aoff + m * k, seed);
        let bbuf = filled(boff + n * k, seed ^ 0xabcd);
        let a = &abuf[aoff..];
        let b = &bbuf[boff..];
        let mut want = vec![f64::NAN; m * n];
        kernels::scalar().matmul_transb(a, b, m, n, k, &mut want);
        for arm in simd_arms() {
            let mut got = vec![f64::NAN; m * n];
            arm.matmul_transb(a, b, m, n, k, &mut got);
            for i in 0..m {
                for j in 0..n {
                    let mag = absdot(&a[i * k..(i + 1) * k], &b[j * k..(j + 1) * k]);
                    assert_within_4ulp(arm.name(), got[i * n + j], want[i * n + j], mag, k);
                }
            }
        }
    }

    /// `gemm` agreement, including the zero-skip path (a block of the
    /// left operand is zeroed) and unaligned row starts.
    #[test]
    fn gemm_arms_agree(
        m in 1usize..7,
        k in 1usize..24,
        n in 1usize..19,
        aoff in 0usize..4,
        zero_from in 0usize..24,
        seed in 0u64..500,
    ) {
        let mut abuf = filled(aoff + m * k, seed);
        for v in abuf[aoff..].iter_mut().skip(zero_from.min(m * k)) {
            *v = 0.0;
        }
        let bbuf = filled(k * n, seed ^ 0x1234);
        let a = &abuf[aoff..];
        let mut want = vec![f64::NAN; m * n];
        kernels::scalar().gemm(a, &bbuf, m, k, n, &mut want);
        for arm in simd_arms() {
            let mut got = vec![f64::NAN; m * n];
            arm.gemm(a, &bbuf, m, k, n, &mut got);
            for i in 0..m {
                for j in 0..n {
                    let mag: f64 = (0..k).map(|kk| (a[i * k + kk] * bbuf[kk * n + j]).abs()).sum();
                    assert_within_4ulp(arm.name(), got[i * n + j], want[i * n + j], mag, k);
                }
            }
        }
    }

    /// `matvec` / `matvec_bias` agreement on odd row counts (exercising
    /// the row-quad remainder) and k past the column-block width.
    #[test]
    fn matvec_arms_agree(
        rows in 1usize..11,
        k in 1usize..3000,
        woff in 0usize..4,
        seed in 0u64..500,
    ) {
        let wbuf = filled(woff + rows * k, seed);
        let w = &wbuf[woff..];
        let x = filled(k, seed ^ 0x77);
        let bias = filled(rows, seed ^ 0x99);
        let mut want = vec![f64::NAN; rows];
        kernels::scalar().matvec(w, &x, &mut want);
        let mut want_bias = vec![f64::NAN; rows];
        kernels::scalar().matvec_bias(w, &x, &bias, &mut want_bias);
        for arm in simd_arms() {
            let mut got = vec![f64::NAN; rows];
            arm.matvec(w, &x, &mut got);
            let mut got_bias = vec![f64::NAN; rows];
            arm.matvec_bias(w, &x, &bias, &mut got_bias);
            for r in 0..rows {
                let mag = absdot(&w[r * k..(r + 1) * k], &x);
                assert_within_4ulp(arm.name(), got[r], want[r], mag, k);
                assert_within_4ulp(arm.name(), got_bias[r], want_bias[r], mag + bias[r].abs(), k);
            }
        }
    }

    /// The fused zonotope-affine entry point agrees across arms on both
    /// outputs (center and generator matrix).
    #[test]
    fn zonotope_affine_arms_agree(
        out_dim in 1usize..10,
        in_dim in 1usize..40,
        gens_n in 0usize..9,
        seed in 0u64..500,
    ) {
        let weights = filled(out_dim * in_dim, seed);
        let bias = filled(out_dim, seed ^ 0x5);
        let center = filled(in_dim, seed ^ 0x6);
        let gens = filled(gens_n * in_dim, seed ^ 0x7);
        let mut want_c = vec![f64::NAN; out_dim];
        let mut want_g = vec![f64::NAN; gens_n * out_dim];
        kernels::scalar().zonotope_affine(&weights, &bias, &center, &gens, &mut want_c, &mut want_g);
        for arm in simd_arms() {
            let mut got_c = vec![f64::NAN; out_dim];
            let mut got_g = vec![f64::NAN; gens_n * out_dim];
            arm.zonotope_affine(&weights, &bias, &center, &gens, &mut got_c, &mut got_g);
            for r in 0..out_dim {
                let mag = absdot(&weights[r * in_dim..(r + 1) * in_dim], &center) + bias[r].abs();
                assert_within_4ulp(arm.name(), got_c[r], want_c[r], mag, in_dim);
            }
            for g in 0..gens_n {
                for r in 0..out_dim {
                    let mag = absdot(
                        &gens[g * in_dim..(g + 1) * in_dim],
                        &weights[r * in_dim..(r + 1) * in_dim],
                    );
                    assert_within_4ulp(arm.name(), got_g[g * out_dim + r], want_g[g * out_dim + r], mag, in_dim);
                }
            }
        }
    }
}

/// The dispatch decision itself: with `CHARON_FORCE_SCALAR` unset the
/// active arm is whatever `available()` ranks best, and the arm cached
/// in the `OnceLock` never changes for the process lifetime.
#[test]
fn active_arm_is_stable() {
    let first = kernels::active().name();
    for _ in 0..8 {
        assert_eq!(kernels::active().name(), first);
    }
}

/// Directed case: k exactly at the 512 k-tile and 2048 column-block
/// boundaries, where off-by-one tiling bugs live.
#[test]
fn tile_boundary_sizes_agree() {
    for &k in &[511usize, 512, 513, 2047, 2048, 2049] {
        let (m, n) = (5, 6);
        let a = filled(m * k, 11);
        let b = filled(n * k, 13);
        let mut want = vec![f64::NAN; m * n];
        kernels::scalar().matmul_transb(&a, &b, m, n, k, &mut want);
        for arm in simd_arms() {
            let mut got = vec![f64::NAN; m * n];
            arm.matmul_transb(&a, &b, m, n, k, &mut got);
            for i in 0..m {
                for j in 0..n {
                    let mag = absdot(&a[i * k..(i + 1) * k], &b[j * k..(j + 1) * k]);
                    assert_within_4ulp(arm.name(), got[i * n + j], want[i * n + j], mag, k);
                }
            }
            let x = filled(k, 17);
            let mut wv = vec![f64::NAN; m];
            kernels::scalar().matvec(&a, &x, &mut wv);
            let mut gv = vec![f64::NAN; m];
            arm.matvec(&a, &x, &mut gv);
            for r in 0..m {
                let mag = absdot(&a[r * k..(r + 1) * k], &x);
                assert_within_4ulp(arm.name(), gv[r], wv[r], mag, k);
            }
        }
    }
}

/// Buffer with exact zeros, `-0.0` and subnormals mixed into ordinary
/// values, for the bitwise tests.
fn awkward(len: usize, seed: u64) -> Vec<f64> {
    filled(len, seed)
        .into_iter()
        .enumerate()
        .map(|(i, v)| match (i as u64 ^ seed) % 6 {
            0 => 0.0,
            1 => -0.0,
            2 => v * f64::MIN_POSITIVE / 16.0,
            _ => v,
        })
        .collect()
}

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// The scalar `matvec_transpose` loop every arm must reproduce.
fn matvec_transpose_reference(w: &[f64], x: &[f64], n: usize) -> Vec<f64> {
    let mut y = vec![0.0; n];
    for (i, &xi) in x.iter().enumerate() {
        if xi == 0.0 {
            continue;
        }
        for (j, yj) in y.iter_mut().enumerate() {
            *yj += xi * w[i * n + j];
        }
    }
    y
}

/// `matvec_transpose` is bit-identical to the scalar loop on every arm,
/// for widths on and off the 4- and 32-column block boundaries.
#[test]
fn matvec_transpose_is_bitwise_on_every_arm() {
    for rows in [0usize, 1, 3, 10, 64] {
        for n in [0usize, 1, 3, 4, 5, 31, 32, 33, 35, 64, 67, 784] {
            let w = awkward(rows * n, (rows * 1000 + n) as u64);
            let x = awkward(rows, n as u64 ^ 0x55);
            let want = matvec_transpose_reference(&w, &x, n);
            for arm in kernels::available() {
                let mut got = vec![f64::NAN; n];
                arm.matvec_transpose(&w, &x, &mut got);
                assert_eq!(bits(&got), bits(&want), "{} {rows}x{n}", arm.name());
            }
        }
    }
}

/// A batch row's bits do not depend on its position in the batch or on
/// the batch size, for the forward (`matmul_transb`) and backward
/// (`gemm`) kernels of batched evaluation, on every arm. The lockstep
/// attack compacts retired rows out of its batch and relies on this.
#[test]
fn batch_rows_are_position_independent_on_every_arm() {
    let (k, n) = (37, 13);
    let weights = awkward(n * k, 3);
    let back = awkward(k * n, 4);
    let pool = awkward(6 * k, 5);
    let pool_g = awkward(6 * k, 6);
    for arm in kernels::available() {
        // Each row alone is the reference.
        let alone = |i: usize| {
            let mut f = vec![f64::NAN; n];
            arm.matmul_transb(&pool[i * k..(i + 1) * k], &weights, 1, n, k, &mut f);
            let mut g = vec![f64::NAN; n];
            arm.gemm(&pool_g[i * k..(i + 1) * k], &back, 1, k, n, &mut g);
            (f, g)
        };
        for rows in 1..=6 {
            // Rotations put every row at every position of the batch.
            for shift in 0..rows {
                let order: Vec<usize> = (0..rows).map(|p| (p + shift) % rows).collect();
                let a: Vec<f64> =
                    order.iter().flat_map(|&i| pool[i * k..(i + 1) * k].to_vec()).collect();
                let ag: Vec<f64> =
                    order.iter().flat_map(|&i| pool_g[i * k..(i + 1) * k].to_vec()).collect();
                let mut f = vec![f64::NAN; rows * n];
                arm.matmul_transb(&a, &weights, rows, n, k, &mut f);
                let mut g = vec![f64::NAN; rows * n];
                arm.gemm(&ag, &back, rows, k, n, &mut g);
                for (p, &i) in order.iter().enumerate() {
                    let (want_f, want_g) = alone(i);
                    let what = format!("{} rows={rows} row {i} at {p}", arm.name());
                    assert_eq!(bits(&f[p * n..(p + 1) * n]), bits(&want_f), "forward {what}");
                    assert_eq!(bits(&g[p * n..(p + 1) * n]), bits(&want_g), "backward {what}");
                }
            }
        }
    }
}
