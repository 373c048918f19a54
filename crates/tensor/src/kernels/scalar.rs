//! Portable reference kernels — the semantic definition every SIMD
//! backend must reproduce bit-for-bit.
//!
//! Written with fixed-width lane arrays (the unrolled shape non-x86
//! autovectorizers digest well): the `MR×NR` register tile of the blocked
//! kernels, the [`LANES`]-lane K-dot of `gemm_bt_f32`. Ragged edges all go
//! through the shared [`tail_f32`]/[`tail_i8`] helpers, so the edge index
//! arithmetic — historically triplicated across partial-NR, partial-MR,
//! and remainder paths — is written once and shared with the SIMD
//! variants.

use super::{dot_f32_lanes, tail_f32, tail_i8, KC, MR, NR};

pub(super) fn gemm_f32(
    a: &[f32],
    lda: usize,
    b: &[f32],
    ldb: usize,
    out: &mut [f32],
    ldo: usize,
    m: usize,
    n: usize,
    k0: usize,
    k1: usize,
) {
    let mut kp = k0;
    while kp < k1 {
        let kq = usize::min(kp + KC, k1);
        let mut i = 0;
        while i + MR <= m {
            let mut j = 0;
            while j + NR <= n {
                // Full MR×NR register tile.
                let mut acc = [[0.0f32; NR]; MR];
                for l in kp..kq {
                    let brow = &b[l * ldb + j..l * ldb + j + NR];
                    for (r, accr) in acc.iter_mut().enumerate() {
                        let av = a[(i + r) * lda + l];
                        for (c, accv) in accr.iter_mut().enumerate() {
                            *accv += av * brow[c];
                        }
                    }
                }
                for (r, accr) in acc.iter().enumerate() {
                    let orow = &mut out[(i + r) * ldo + j..(i + r) * ldo + j + NR];
                    for (o, &v) in orow.iter_mut().zip(accr.iter()) {
                        *o += v;
                    }
                }
                j += NR;
            }
            // Column remainder: same panel-local accumulation order.
            if j < n {
                tail_f32(a, lda, b, ldb, out, ldo, i, i + MR, j, n, kp, kq);
            }
            i += MR;
        }
        // Row remainder: one row at a time, still panel-accumulated.
        if i < m {
            tail_f32(a, lda, b, ldb, out, ldo, i, m, 0, n, kp, kq);
        }
        kp = kq;
    }
}

pub(super) fn gemm_bt_f32(
    a: &[f32],
    lda: usize,
    b: &[f32],
    ldb: usize,
    out: &mut [f32],
    ldo: usize,
    m: usize,
    n: usize,
    k0: usize,
    k1: usize,
) {
    for i in 0..m {
        let arow = &a[i * lda + k0..i * lda + k1];
        for j in 0..n {
            let brow = &b[j * ldb + k0..j * ldb + k1];
            out[i * ldo + j] += dot_f32_lanes(arow, brow);
        }
    }
}

pub(super) fn gemm_at_f32(
    a: &[f32],
    lda: usize,
    b: &[f32],
    ldb: usize,
    out: &mut [f32],
    ldo: usize,
    i0: usize,
    i1: usize,
    n: usize,
    k0: usize,
    k1: usize,
) {
    for l in k0..k1 {
        let brow = &b[l * ldb..l * ldb + n];
        for i in i0..i1 {
            // No zero-skip: 0.0 * inf/NaN must still poison the gradient,
            // exactly as the pre-engine matmul_at did.
            let av = a[l * lda + i];
            let orow = &mut out[(i - i0) * ldo..(i - i0) * ldo + n];
            for (o, &bv) in orow.iter_mut().zip(brow.iter()) {
                *o += av * bv;
            }
        }
    }
}

pub(super) fn gemm_i8(
    a: &[i8],
    lda: usize,
    b: &[i8],
    ldb: usize,
    out: &mut [i32],
    ldo: usize,
    m: usize,
    n: usize,
    k0: usize,
    k1: usize,
) {
    let mut kp = k0;
    while kp < k1 {
        let kq = usize::min(kp + KC, k1);
        let mut i = 0;
        while i + MR <= m {
            let mut j = 0;
            while j + NR <= n {
                let mut acc = [[0i32; NR]; MR];
                for l in kp..kq {
                    let brow = &b[l * ldb + j..l * ldb + j + NR];
                    for (r, accr) in acc.iter_mut().enumerate() {
                        let av = a[(i + r) * lda + l] as i32;
                        for (c, accv) in accr.iter_mut().enumerate() {
                            *accv += av * brow[c] as i32;
                        }
                    }
                }
                for (r, accr) in acc.iter().enumerate() {
                    let orow = &mut out[(i + r) * ldo + j..(i + r) * ldo + j + NR];
                    for (o, &v) in orow.iter_mut().zip(accr.iter()) {
                        *o += v;
                    }
                }
                j += NR;
            }
            if j < n {
                tail_i8(a, lda, b, ldb, out, ldo, i, i + MR, j, n, kp, kq);
            }
            i += MR;
        }
        if i < m {
            tail_i8(a, lda, b, ldb, out, ldo, i, m, 0, n, kp, kq);
        }
        kp = kq;
    }
}

pub(super) fn gemm_bt_i8(
    a: &[i8],
    lda: usize,
    b: &[i8],
    ldb: usize,
    out: &mut [i32],
    ldo: usize,
    m: usize,
    n: usize,
    k0: usize,
    k1: usize,
) {
    for i in 0..m {
        let arow = &a[i * lda + k0..i * lda + k1];
        for j in 0..n {
            let brow = &b[j * ldb + k0..j * ldb + k1];
            out[i * ldo + j] += dot_i8(arow, brow);
        }
    }
}

/// Exact i8 dot product of two equal-length slices.
#[inline]
fn dot_i8(x: &[i8], y: &[i8]) -> i32 {
    x.iter().zip(y).map(|(&p, &q)| p as i32 * q as i32).sum()
}

pub(super) fn gemm_bt_i8_psums(
    a: &[i8],
    lda: usize,
    b: &[i8],
    ldb: usize,
    out: &mut [i32],
    m: usize,
    n: usize,
    k0: usize,
    k1: usize,
    k_tile: usize,
) {
    let plane = m * n;
    for i in 0..m {
        let arow = &a[i * lda..i * lda + k1];
        for j in 0..n {
            let brow = &b[j * ldb..j * ldb + k1];
            for (s, ks) in (k0..k1).step_by(k_tile).enumerate() {
                let ke = usize::min(ks + k_tile, k1);
                out[s * plane + i * n + j] = dot_i8(&arow[ks..ke], &brow[ks..ke]);
            }
        }
    }
}

/// The `[K, N]`-layout twin of [`gemm_bt_i8_psums`]: per row, the K
/// range is swept once, step by step, each step accumulating its rows of
/// `b` into a zeroed output row — one output element per lane, no
/// horizontal reduction, so the loop autovectorizes at any width.
/// `#[inline(always)]` lets the AVX2 entry point recompile this very body
/// for 256-bit lanes.
#[inline(always)]
pub(super) fn gemm_i8_psums(
    a: &[i8],
    lda: usize,
    b: &[i8],
    ldb: usize,
    out: &mut [i32],
    m: usize,
    n: usize,
    k0: usize,
    k1: usize,
    k_tile: usize,
) {
    let plane = m * n;
    for i in 0..m {
        let arow = &a[i * lda..i * lda + k1];
        for (s, ks) in (k0..k1).step_by(k_tile).enumerate() {
            let ke = usize::min(ks + k_tile, k1);
            let orow = &mut out[s * plane + i * n..s * plane + (i + 1) * n];
            orow.fill(0);
            for (l, &av) in arow.iter().enumerate().take(ke).skip(ks) {
                let brow = &b[l * ldb..l * ldb + n];
                for (o, &bv) in orow.iter_mut().zip(brow) {
                    *o += av as i32 * bv as i32;
                }
            }
        }
    }
}

// ------------------------------------------------------ APSQ fold epilogues

const I32_LO: i64 = i32::MIN as i64;
const I32_HI: i64 = i32::MAX as i64;

/// `clamp_i32(code · 2^exp)` — the saturating dequantization shifter.
#[inline]
pub(super) fn dequantize_one(code: i32, exp: u32) -> i32 {
    ((code as i64) << exp).clamp(I32_LO, I32_HI) as i32
}

/// `clamp(round(clamp_i32(x) / 2^exp), qn, qp)` with round-half-away-
/// from-zero, branch-free: the sign mask rounds the magnitude and
/// restores the sign.
#[inline]
pub(super) fn quantize_one(x: i64, exp: u32, qn: i32, qp: i32) -> i32 {
    let x = x.clamp(I32_LO, I32_HI);
    let s = x >> 63;
    let mag = (x ^ s) - s;
    let t = (mag + ((1i64 << exp) >> 1)) >> exp;
    ((t ^ s) - s).clamp(qn as i64, qp as i64) as i32
}

/// Step `j`'s quantizer input: the tile word plus every read step's
/// dequantized code (`reads` holds `exps.len()` step-major tiles of
/// `numel` words), exact in 64 bits.
#[inline]
pub(super) fn fold_input(reads: &[i32], exps: &[u32], numel: usize, j: usize, tile: i32) -> i64 {
    let mut acc = tile as i64;
    for (l, &e) in exps.iter().enumerate() {
        acc += dequantize_one(reads[l * numel + j], e) as i64;
    }
    acc
}

pub(super) fn fold_requantize(
    reads: &[i32],
    exps: &[u32],
    slot: &mut [i32],
    exp: u32,
    qn: i32,
    qp: i32,
) {
    fold_requantize_at(reads, exps, slot, 0..slot.len(), exp, qn, qp);
}

/// [`fold_requantize`] over the element range `js` of the slot — also the
/// SIMD kernels' tail and exact-recompute path.
pub(super) fn fold_requantize_at(
    reads: &[i32],
    exps: &[u32],
    slot: &mut [i32],
    js: std::ops::Range<usize>,
    exp: u32,
    qn: i32,
    qp: i32,
) {
    let numel = slot.len();
    for j in js {
        slot[j] = quantize_one(fold_input(reads, exps, numel, j, slot[j]), exp, qn, qp);
    }
}

pub(super) fn fold_max_abs(reads: &[i32], exps: &[u32], tile: &[i32]) -> i32 {
    let m = fold_max_abs_at(reads, exps, tile, 0..tile.len());
    m.min(i32::MAX as u64) as i32
}

/// The unsaturated max `|x|` over the element range `js` — the SIMD
/// kernels' tail and exact-recompute path.
pub(super) fn fold_max_abs_at(
    reads: &[i32],
    exps: &[u32],
    tile: &[i32],
    js: std::ops::Range<usize>,
) -> u64 {
    js.map(|j| fold_input(reads, exps, tile.len(), j, tile[j]).unsigned_abs())
        .max()
        .unwrap_or(0)
}

pub(super) fn fold_dequantize(codes: &[i32], exp: u32, out: &mut [i32]) {
    for (o, &c) in out.iter_mut().zip(codes) {
        *o = dequantize_one(c, exp);
    }
}
