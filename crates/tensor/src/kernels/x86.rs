//! `core::arch::x86_64` kernel backends: 128-bit SSE2 (baseline, no
//! detection needed) and 256-bit AVX2 (runtime-detected).
//!
//! Bit-identity with the scalar reference is the design rule, not a test
//! afterthought:
//!
//! - f32 kernels use separate multiply and add intrinsics — never FMA,
//!   whose single rounding would diverge from the scalar two-rounding
//!   sequence.
//! - f32 kernels that vectorize along N (`gemm_f32`, `gemm_at_f32`) keep
//!   one output element per lane, so each element still reduces in `l`
//!   order, exactly like scalar.
//! - `gemm_bt_f32` maps SIMD lanes onto the pinned [`LANES`]-lane partial
//!   sums of [`super::dot_f32_lanes`] (SSE2 splits them across two
//!   128-bit registers), then reduces through the same lane array.
//! - Integer kernels accumulate in `i32`; any summation order is exact, so
//!   they are free to use `madd_epi16` widening reductions.
//!
//! Memory safety: every vector load/store first carves a bounds-checked
//! subslice of exactly the lanes it touches, then loads from the slice
//! pointer — out-of-range extents panic like the scalar kernels instead of
//! reading past the buffer.

use core::arch::x86_64::*;

use super::{pair_word, reduce_lanes_f32, tail_f32, tail_i8, KC, LANES, MR, NR};

/// Sign-extends the low 8 bytes of `v` to 8×i16 without SSE4.1:
/// duplicate each byte into a 16-bit lane, then arithmetic-shift the copy
/// back down.
#[target_feature(enable = "sse2")]
#[inline]
fn sse2_cvtepi8_epi16(v: __m128i) -> __m128i {
    _mm_srai_epi16::<8>(_mm_unpacklo_epi8(v, v))
}

/// Loads 8 `i8` values from a bounds-checked slice as 8×i16.
#[target_feature(enable = "sse2")]
#[inline]
fn sse2_load8_i8_as_i16(s: &[i8]) -> __m128i {
    debug_assert!(s.len() >= 8);
    // SAFETY: caller's slice carries ≥8 elements; loadl reads exactly 8
    // bytes (unaligned allowed).
    sse2_cvtepi8_epi16(unsafe { _mm_loadl_epi64(s.as_ptr() as *const __m128i) })
}

/// Widens 8×i16 `v` times 8×i16 `w` into two 4×i32 product vectors
/// (elements 0..4 and 4..8) using the SSE2 mullo/mulhi split.
#[target_feature(enable = "sse2")]
#[inline]
fn sse2_mul_i16_to_i32(v: __m128i, w: __m128i) -> (__m128i, __m128i) {
    let lo = _mm_mullo_epi16(v, w);
    let hi = _mm_mulhi_epi16(v, w);
    (_mm_unpacklo_epi16(lo, hi), _mm_unpackhi_epi16(lo, hi))
}

/// Horizontal sum of 4×i32 — exact, so the order is free.
#[target_feature(enable = "sse2")]
#[inline]
fn sse2_hsum_i32(v: __m128i) -> i32 {
    let mut lanes = [0i32; 4];
    // SAFETY: 4-lane stack array matches the 128-bit store width.
    unsafe { _mm_storeu_si128(lanes.as_mut_ptr() as *mut __m128i, v) };
    lanes.iter().sum()
}

/// One `R`-row × 8-channel block of a packed PSUM sweep: the widened
/// pair rows (`[m][pairs][2]`), the block's packed codes (`[pairs][8][2]`),
/// its first row, `(first channel, valid channels)`, and the output
/// geometry.
#[derive(Clone, Copy)]
struct PackedBlock<'a> {
    a: &'a [i16],
    bblk: &'a [i8],
    pairs: usize,
    row: usize,
    cols: (usize, usize),
    plane: usize,
    n: usize,
}

impl<'a> PackedBlock<'a> {
    /// Every block of an `m × n` sweep over `pairs` K-pairs, with its
    /// row count (`MR`, or the `m mod MR` rest): channel blocks outer,
    /// row blocks inner.
    fn all(
        a: &'a [i16],
        b: &'a [i8],
        m: usize,
        n: usize,
        pairs: usize,
    ) -> impl Iterator<Item = (PackedBlock<'a>, usize)> {
        b.chunks_exact(2 * NR * pairs)
            .enumerate()
            .flat_map(move |(jb, bblk)| {
                let cols = (jb * NR, usize::min(NR, n - jb * NR));
                (0..m).step_by(MR).map(move |row| {
                    let plane = m * n;
                    let at = PackedBlock {
                        a,
                        bblk,
                        pairs,
                        row,
                        cols,
                        plane,
                        n,
                    };
                    (at, usize::min(MR, m - row))
                })
            })
    }

    /// The pair words of each of the `R` rows over pairs `[p0, p1)` and
    /// the packed code pairs of the same range — equal-length slices.
    #[inline(always)]
    fn range<const R: usize>(&self, p0: usize, p1: usize) -> ([&[[i16; 2]]; R], &[[i8; 2 * NR]]) {
        let len = p1 - p0;
        let rows = std::array::from_fn(|r| {
            let at = 2 * ((self.row + r) * self.pairs + p0);
            &self.a[at..at + 2 * len].as_chunks::<2>().0[..len]
        });
        let codes = &self.bblk[2 * NR * p0..2 * NR * p1];
        (rows, &codes.as_chunks::<{ 2 * NR }>().0[..len])
    }

    /// Row `r`'s valid channels in step `s`'s plane of `out`.
    #[inline(always)]
    fn dst<'o>(&self, out: &'o mut [i32], s: usize, r: usize) -> &'o mut [i32] {
        let (j, nc) = self.cols;
        let o = s * self.plane + (self.row + r) * self.n + j;
        &mut out[o..o + nc]
    }
}

// ================================================================== SSE2

#[target_feature(enable = "sse2")]
pub(super) fn sse2_gemm_f32(
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
                // MR rows × NR cols, each row's accumulator split across
                // two 4-wide registers. Lane c still sums in l order.
                let mut acc = [[_mm_setzero_ps(); 2]; MR];
                for l in kp..kq {
                    let brow = &b[l * ldb + j..l * ldb + j + NR];
                    // SAFETY: brow has exactly NR = 8 elements.
                    let (bv0, bv1) = unsafe {
                        (
                            _mm_loadu_ps(brow.as_ptr()),
                            _mm_loadu_ps(brow.as_ptr().add(4)),
                        )
                    };
                    for (r, accr) in acc.iter_mut().enumerate() {
                        let av = _mm_set1_ps(a[(i + r) * lda + l]);
                        accr[0] = _mm_add_ps(accr[0], _mm_mul_ps(av, bv0));
                        accr[1] = _mm_add_ps(accr[1], _mm_mul_ps(av, bv1));
                    }
                }
                for (r, accr) in acc.iter().enumerate() {
                    let orow = &mut out[(i + r) * ldo + j..(i + r) * ldo + j + NR];
                    // SAFETY: orow has exactly NR = 8 elements.
                    unsafe {
                        let p = orow.as_mut_ptr();
                        _mm_storeu_ps(p, _mm_add_ps(_mm_loadu_ps(p), accr[0]));
                        _mm_storeu_ps(p.add(4), _mm_add_ps(_mm_loadu_ps(p.add(4)), accr[1]));
                    }
                }
                j += NR;
            }
            if j < n {
                tail_f32(a, lda, b, ldb, out, ldo, i, i + MR, j, n, kp, kq);
            }
            i += MR;
        }
        if i < m {
            tail_f32(a, lda, b, ldb, out, ldo, i, m, 0, n, kp, kq);
        }
        kp = kq;
    }
}

#[target_feature(enable = "sse2")]
pub(super) fn sse2_gemm_bt_f32(
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
            out[i * ldo + j] += sse2_dot_f32(arow, brow);
        }
    }
}

/// [`super::dot_f32_lanes`] with lanes 0..4 in one register and 4..8 in
/// another — same per-lane sequence, same final reduction.
#[target_feature(enable = "sse2")]
#[inline]
fn sse2_dot_f32(x: &[f32], y: &[f32]) -> f32 {
    debug_assert_eq!(x.len(), y.len());
    let full = x.len() - x.len() % LANES;
    let mut acc0 = _mm_setzero_ps();
    let mut acc1 = _mm_setzero_ps();
    let mut t = 0;
    while t < full {
        let xs = &x[t..t + LANES];
        let ys = &y[t..t + LANES];
        // SAFETY: both chunks carry exactly LANES = 8 elements.
        unsafe {
            let xv0 = _mm_loadu_ps(xs.as_ptr());
            let xv1 = _mm_loadu_ps(xs.as_ptr().add(4));
            let yv0 = _mm_loadu_ps(ys.as_ptr());
            let yv1 = _mm_loadu_ps(ys.as_ptr().add(4));
            acc0 = _mm_add_ps(acc0, _mm_mul_ps(xv0, yv0));
            acc1 = _mm_add_ps(acc1, _mm_mul_ps(xv1, yv1));
        }
        t += LANES;
    }
    let mut lanes = [0.0f32; LANES];
    // SAFETY: lanes has 8 f32 slots, one 128-bit store into each half.
    unsafe {
        _mm_storeu_ps(lanes.as_mut_ptr(), acc0);
        _mm_storeu_ps(lanes.as_mut_ptr().add(4), acc1);
    }
    for (c, i) in (full..x.len()).enumerate() {
        lanes[c] += x[i] * y[i];
    }
    reduce_lanes_f32(&lanes)
}

#[target_feature(enable = "sse2")]
pub(super) fn sse2_gemm_at_f32(
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
    let wide = n - n % 4;
    for l in k0..k1 {
        let brow = &b[l * ldb..l * ldb + n];
        for i in i0..i1 {
            // No zero-skip: 0.0 * inf/NaN must still poison the gradient.
            let av = a[l * lda + i];
            let avv = _mm_set1_ps(av);
            let orow = &mut out[(i - i0) * ldo..(i - i0) * ldo + n];
            let mut j = 0;
            while j < wide {
                // SAFETY: j + 4 <= wide <= n bounds both row slices.
                unsafe {
                    let p = orow.as_mut_ptr().add(j);
                    let bv = _mm_loadu_ps(brow.as_ptr().add(j));
                    _mm_storeu_ps(p, _mm_add_ps(_mm_loadu_ps(p), _mm_mul_ps(avv, bv)));
                }
                j += 4;
            }
            for (o, &bv) in orow[wide..].iter_mut().zip(brow[wide..].iter()) {
                *o += av * bv;
            }
        }
    }
}

#[target_feature(enable = "sse2")]
pub(super) fn sse2_gemm_i8(
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
                // MR rows × NR i32 accumulators (two 4-wide registers per
                // row). Integer adds are exact, so lane order is free.
                let mut acc = [[_mm_setzero_si128(); 2]; MR];
                for l in kp..kq {
                    let bv16 = sse2_load8_i8_as_i16(&b[l * ldb + j..l * ldb + j + NR]);
                    for (r, accr) in acc.iter_mut().enumerate() {
                        let av16 = _mm_set1_epi16(a[(i + r) * lda + l] as i16);
                        let (p0, p1) = sse2_mul_i16_to_i32(bv16, av16);
                        accr[0] = _mm_add_epi32(accr[0], p0);
                        accr[1] = _mm_add_epi32(accr[1], p1);
                    }
                }
                for (r, accr) in acc.iter().enumerate() {
                    let orow = &mut out[(i + r) * ldo + j..(i + r) * ldo + j + NR];
                    // SAFETY: orow has exactly NR = 8 i32 slots.
                    unsafe {
                        let p = orow.as_mut_ptr() as *mut __m128i;
                        _mm_storeu_si128(p, _mm_add_epi32(_mm_loadu_si128(p), accr[0]));
                        _mm_storeu_si128(
                            p.add(1),
                            _mm_add_epi32(_mm_loadu_si128(p.add(1)), accr[1]),
                        );
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

#[target_feature(enable = "sse2")]
pub(super) fn sse2_gemm_bt_i8(
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
            out[i * ldo + j] += sse2_dot_i8(arow, brow);
        }
    }
}

/// Exact i8 dot product of two equal-length slices.
#[target_feature(enable = "sse2")]
#[inline]
fn sse2_dot_i8(arow: &[i8], brow: &[i8]) -> i32 {
    let klen = arow.len();
    let full = klen - klen % 8;
    let mut acc = _mm_setzero_si128();
    let mut t = 0;
    while t < full {
        let av16 = sse2_load8_i8_as_i16(&arow[t..t + 8]);
        let bv16 = sse2_load8_i8_as_i16(&brow[t..t + 8]);
        // i8×i8 products fit i16; madd pairs them into 4×i32.
        acc = _mm_add_epi32(acc, _mm_madd_epi16(av16, bv16));
        t += 8;
    }
    let mut sum = sse2_hsum_i32(acc);
    for (&x, &y) in arow[full..].iter().zip(brow[full..].iter()) {
        sum += x as i32 * y as i32;
    }
    sum
}

/// The packed-B PSUM sweep on 128-bit lanes: a pair's 16 codes widen
/// into two registers of four channels each, and every row's broadcast
/// pair word feeds both through `_mm_madd_epi16`.
#[target_feature(enable = "sse2")]
pub(super) fn sse2_gemm_packed_i8_psums(
    a: &[i16],
    b: &[i8],
    out: &mut [i32],
    m: usize,
    n: usize,
    pairs: usize,
    p0: usize,
    p1: usize,
    tile_pairs: usize,
) {
    for (at, rows) in PackedBlock::all(a, b, m, n, pairs) {
        match rows {
            1 => sse2_packed_rows::<1>(at, out, p0, p1, tile_pairs),
            2 => sse2_packed_rows::<2>(at, out, p0, p1, tile_pairs),
            3 => sse2_packed_rows::<3>(at, out, p0, p1, tile_pairs),
            _ => sse2_packed_rows::<MR>(at, out, p0, p1, tile_pairs),
        }
    }
}

#[target_feature(enable = "sse2")]
#[inline]
fn sse2_packed_rows<const R: usize>(
    at: PackedBlock<'_>,
    out: &mut [i32],
    p0: usize,
    p1: usize,
    tile_pairs: usize,
) {
    let (rows, codes) = at.range::<R>(p0, p1);
    for (s, step) in codes.chunks(tile_pairs).enumerate() {
        let ps = s * tile_pairs;
        let mut acc = [[_mm_setzero_si128(); 2]; R];
        for (q, pair) in step.iter().enumerate() {
            // SAFETY: pair holds exactly 2·NR = 16 codes for the 128-bit load.
            let v = unsafe { _mm_loadu_si128(pair.as_ptr() as *const __m128i) };
            let lo = _mm_srai_epi16::<8>(_mm_unpacklo_epi8(v, v));
            let hi = _mm_srai_epi16::<8>(_mm_unpackhi_epi8(v, v));
            for (accr, row) in acc.iter_mut().zip(rows) {
                let w = _mm_set1_epi32(pair_word(row[ps + q]));
                accr[0] = _mm_add_epi32(accr[0], _mm_madd_epi16(w, lo));
                accr[1] = _mm_add_epi32(accr[1], _mm_madd_epi16(w, hi));
            }
        }
        for (r, accr) in acc.iter().enumerate() {
            let mut lanes = [0i32; NR];
            // SAFETY: lanes holds exactly NR = 8 i32 for the two stores.
            unsafe {
                let q = lanes.as_mut_ptr() as *mut __m128i;
                _mm_storeu_si128(q, accr[0]);
                _mm_storeu_si128(q.add(1), accr[1]);
            }
            let dst = at.dst(out, s, r);
            dst.copy_from_slice(&lanes[..dst.len()]);
        }
    }
}

// ================================================================== AVX2

/// Horizontal sum of 8×i32 — exact, so the order is free.
#[target_feature(enable = "avx2")]
#[inline]
fn avx2_hsum_i32(v: __m256i) -> i32 {
    let mut lanes = [0i32; 8];
    // SAFETY: 8-lane stack array matches the 256-bit store width.
    unsafe { _mm256_storeu_si256(lanes.as_mut_ptr() as *mut __m256i, v) };
    lanes.iter().sum()
}

/// Loads 16 `i8` values from a bounds-checked slice as 16×i16.
#[target_feature(enable = "avx2")]
#[inline]
fn avx2_load16_i8_as_i16(s: &[i8]) -> __m256i {
    debug_assert!(s.len() >= 16);
    // SAFETY: the slice carries ≥16 bytes for the 128-bit load.
    _mm256_cvtepi8_epi16(unsafe { _mm_loadu_si128(s.as_ptr() as *const __m128i) })
}

#[target_feature(enable = "avx2")]
pub(super) fn avx2_gemm_f32(
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
            // MR rows × two 8-wide registers (a 4×16 tile): each a-value
            // broadcast feeds two column vectors, halving the broadcast
            // cost per MAC. Every output element still sums its own lane
            // in l order with separate mul and add — the scalar sequence
            // — so the wider tile cannot change a bit.
            while j + 2 * NR <= n {
                let mut acc0 = [_mm256_setzero_ps(); MR];
                let mut acc1 = [_mm256_setzero_ps(); MR];
                for l in kp..kq {
                    let brow = &b[l * ldb + j..l * ldb + j + 2 * NR];
                    // SAFETY: brow has exactly 2·NR = 16 elements.
                    let (bv0, bv1) = unsafe {
                        (
                            _mm256_loadu_ps(brow.as_ptr()),
                            _mm256_loadu_ps(brow.as_ptr().add(NR)),
                        )
                    };
                    for r in 0..MR {
                        let av = _mm256_set1_ps(a[(i + r) * lda + l]);
                        acc0[r] = _mm256_add_ps(acc0[r], _mm256_mul_ps(av, bv0));
                        acc1[r] = _mm256_add_ps(acc1[r], _mm256_mul_ps(av, bv1));
                    }
                }
                for r in 0..MR {
                    let orow = &mut out[(i + r) * ldo + j..(i + r) * ldo + j + 2 * NR];
                    // SAFETY: orow has exactly 2·NR = 16 elements.
                    unsafe {
                        let p = orow.as_mut_ptr();
                        _mm256_storeu_ps(p, _mm256_add_ps(_mm256_loadu_ps(p), acc0[r]));
                        let p1 = p.add(NR);
                        _mm256_storeu_ps(p1, _mm256_add_ps(_mm256_loadu_ps(p1), acc1[r]));
                    }
                }
                j += 2 * NR;
            }
            while j + NR <= n {
                // Narrow 4×8 tile for the last full-NR block.
                let mut acc = [_mm256_setzero_ps(); MR];
                for l in kp..kq {
                    let brow = &b[l * ldb + j..l * ldb + j + NR];
                    // SAFETY: brow has exactly NR = 8 elements.
                    let bv = unsafe { _mm256_loadu_ps(brow.as_ptr()) };
                    for (r, accr) in acc.iter_mut().enumerate() {
                        let av = _mm256_set1_ps(a[(i + r) * lda + l]);
                        *accr = _mm256_add_ps(*accr, _mm256_mul_ps(av, bv));
                    }
                }
                for (r, accr) in acc.iter().enumerate() {
                    let orow = &mut out[(i + r) * ldo + j..(i + r) * ldo + j + NR];
                    // SAFETY: orow has exactly NR = 8 elements.
                    unsafe {
                        let p = orow.as_mut_ptr();
                        _mm256_storeu_ps(p, _mm256_add_ps(_mm256_loadu_ps(p), *accr));
                    }
                }
                j += NR;
            }
            if j < n {
                tail_f32(a, lda, b, ldb, out, ldo, i, i + MR, j, n, kp, kq);
            }
            i += MR;
        }
        if i < m {
            tail_f32(a, lda, b, ldb, out, ldo, i, m, 0, n, kp, kq);
        }
        kp = kq;
    }
}

#[target_feature(enable = "avx2")]
pub(super) fn avx2_gemm_bt_f32(
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
            out[i * ldo + j] += avx2_dot_f32(arow, brow);
        }
    }
}

/// [`super::dot_f32_lanes`] with all [`LANES`] partial sums in one 256-bit
/// register — vector lane c IS pinned lane c.
#[target_feature(enable = "avx2")]
#[inline]
fn avx2_dot_f32(x: &[f32], y: &[f32]) -> f32 {
    debug_assert_eq!(x.len(), y.len());
    let full = x.len() - x.len() % LANES;
    let mut acc = _mm256_setzero_ps();
    let mut t = 0;
    while t < full {
        let xs = &x[t..t + LANES];
        let ys = &y[t..t + LANES];
        // SAFETY: both chunks carry exactly LANES = 8 elements.
        unsafe {
            let xv = _mm256_loadu_ps(xs.as_ptr());
            let yv = _mm256_loadu_ps(ys.as_ptr());
            acc = _mm256_add_ps(acc, _mm256_mul_ps(xv, yv));
        }
        t += LANES;
    }
    let mut lanes = [0.0f32; LANES];
    // SAFETY: lanes has exactly 8 f32 slots for the 256-bit store.
    unsafe { _mm256_storeu_ps(lanes.as_mut_ptr(), acc) };
    for (c, i) in (full..x.len()).enumerate() {
        lanes[c] += x[i] * y[i];
    }
    reduce_lanes_f32(&lanes)
}

#[target_feature(enable = "avx2")]
pub(super) fn avx2_gemm_at_f32(
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
    let wide = n - n % NR;
    for l in k0..k1 {
        let brow = &b[l * ldb..l * ldb + n];
        for i in i0..i1 {
            // No zero-skip: 0.0 * inf/NaN must still poison the gradient.
            let av = a[l * lda + i];
            let avv = _mm256_set1_ps(av);
            let orow = &mut out[(i - i0) * ldo..(i - i0) * ldo + n];
            let mut j = 0;
            while j < wide {
                // SAFETY: j + 8 <= wide <= n bounds both row slices.
                unsafe {
                    let p = orow.as_mut_ptr().add(j);
                    let bv = _mm256_loadu_ps(brow.as_ptr().add(j));
                    _mm256_storeu_ps(p, _mm256_add_ps(_mm256_loadu_ps(p), _mm256_mul_ps(avv, bv)));
                }
                j += NR;
            }
            for (o, &bv) in orow[wide..].iter_mut().zip(brow[wide..].iter()) {
                *o += av * bv;
            }
        }
    }
}

#[target_feature(enable = "avx2")]
pub(super) fn avx2_gemm_i8(
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
                // MR rows × one 8×i32 register each: widen b's 8 codes to
                // i32 lanes once per l, broadcast-multiply per row.
                let mut acc = [_mm256_setzero_si256(); MR];
                for l in kp..kq {
                    let brow = &b[l * ldb + j..l * ldb + j + NR];
                    // SAFETY: brow has exactly NR = 8 bytes for the
                    // 64-bit load.
                    let bv8 = unsafe { _mm_loadl_epi64(brow.as_ptr() as *const __m128i) };
                    let bv32 = _mm256_cvtepi8_epi32(bv8);
                    for (r, accr) in acc.iter_mut().enumerate() {
                        let av = _mm256_set1_epi32(a[(i + r) * lda + l] as i32);
                        *accr = _mm256_add_epi32(*accr, _mm256_mullo_epi32(av, bv32));
                    }
                }
                for (r, accr) in acc.iter().enumerate() {
                    let orow = &mut out[(i + r) * ldo + j..(i + r) * ldo + j + NR];
                    // SAFETY: orow has exactly NR = 8 i32 slots.
                    unsafe {
                        let p = orow.as_mut_ptr() as *mut __m256i;
                        _mm256_storeu_si256(p, _mm256_add_epi32(_mm256_loadu_si256(p), *accr));
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

#[target_feature(enable = "avx2")]
pub(super) fn avx2_gemm_bt_i8(
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
        let mut j = 0;
        // Four columns at a time: each a-chunk is loaded/widened once and
        // feeds four madds, and the four dot products collapse together
        // in one hadd tree instead of four scalar-extract reductions.
        while j + 4 <= n {
            let sums = avx2_dot4_i8(
                arow,
                &b[j * ldb + k0..j * ldb + k1],
                &b[(j + 1) * ldb + k0..(j + 1) * ldb + k1],
                &b[(j + 2) * ldb + k0..(j + 2) * ldb + k1],
                &b[(j + 3) * ldb + k0..(j + 3) * ldb + k1],
            );
            let orow = &mut out[i * ldo + j..i * ldo + j + 4];
            // SAFETY: orow holds exactly 4 i32 slots.
            unsafe {
                let p = orow.as_mut_ptr() as *mut __m128i;
                _mm_storeu_si128(p, _mm_add_epi32(_mm_loadu_si128(p), sums));
            }
            j += 4;
        }
        while j < n {
            out[i * ldo + j] += avx2_dot_i8(arow, &b[j * ldb + k0..j * ldb + k1]);
            j += 1;
        }
    }
}

/// Four exact i8 dot products of `arow` against four equal-length rows,
/// as `[d0, d1, d2, d3]` in one 128-bit vector. Integer adds are exact in
/// any order, so the hadd regrouping cannot change a single output bit;
/// it is what keeps shallow APSQ k-tiles (depth 16) from being
/// reduction-bound.
#[target_feature(enable = "avx2")]
#[inline]
fn avx2_dot4_i8(arow: &[i8], b0: &[i8], b1: &[i8], b2: &[i8], b3: &[i8]) -> __m128i {
    let klen = arow.len();
    let full16 = klen - klen % 16;
    let mut acc0 = _mm256_setzero_si256();
    let mut acc1 = _mm256_setzero_si256();
    let mut acc2 = _mm256_setzero_si256();
    let mut acc3 = _mm256_setzero_si256();
    let mut t = 0;
    while t < full16 {
        let av = avx2_load16_i8_as_i16(&arow[t..t + 16]);
        acc0 = _mm256_add_epi32(
            acc0,
            _mm256_madd_epi16(av, avx2_load16_i8_as_i16(&b0[t..t + 16])),
        );
        acc1 = _mm256_add_epi32(
            acc1,
            _mm256_madd_epi16(av, avx2_load16_i8_as_i16(&b1[t..t + 16])),
        );
        acc2 = _mm256_add_epi32(
            acc2,
            _mm256_madd_epi16(av, avx2_load16_i8_as_i16(&b2[t..t + 16])),
        );
        acc3 = _mm256_add_epi32(
            acc3,
            _mm256_madd_epi16(av, avx2_load16_i8_as_i16(&b3[t..t + 16])),
        );
        t += 16;
    }
    // hadd twice folds pairs within each 128-bit lane, the third level is
    // the lane add: lanes end up [sum0, sum1, sum2, sum3].
    let h01 = _mm256_hadd_epi32(acc0, acc1);
    let h23 = _mm256_hadd_epi32(acc2, acc3);
    let h = _mm256_hadd_epi32(h01, h23);
    let sums = _mm_add_epi32(_mm256_castsi256_si128(h), _mm256_extracti128_si256::<1>(h));
    if full16 == klen {
        return sums;
    }
    let mut tail = [0i32; 4];
    for (dst, brow) in tail.iter_mut().zip([b0, b1, b2, b3]) {
        for (&x, &y) in arow[full16..].iter().zip(brow[full16..].iter()) {
            *dst += x as i32 * y as i32;
        }
    }
    // SAFETY: tail holds exactly 4 i32 slots.
    _mm_add_epi32(sums, unsafe {
        _mm_loadu_si128(tail.as_ptr() as *const __m128i)
    })
}

/// Exact i8 dot product of two equal-length slices.
#[target_feature(enable = "avx2")]
#[inline]
fn avx2_dot_i8(arow: &[i8], brow: &[i8]) -> i32 {
    let klen = arow.len();
    let full32 = klen - klen % 32;
    let full16 = klen - klen % 16;
    // Two independent accumulators hide the madd latency on the
    // 2×-unrolled main loop; integer adds make the split exact.
    let mut acc0 = _mm256_setzero_si256();
    let mut acc1 = _mm256_setzero_si256();
    let mut t = 0;
    while t < full32 {
        let av0 = avx2_load16_i8_as_i16(&arow[t..t + 16]);
        let bv0 = avx2_load16_i8_as_i16(&brow[t..t + 16]);
        let av1 = avx2_load16_i8_as_i16(&arow[t + 16..t + 32]);
        let bv1 = avx2_load16_i8_as_i16(&brow[t + 16..t + 32]);
        acc0 = _mm256_add_epi32(acc0, _mm256_madd_epi16(av0, bv0));
        acc1 = _mm256_add_epi32(acc1, _mm256_madd_epi16(av1, bv1));
        t += 32;
    }
    while t < full16 {
        let av = avx2_load16_i8_as_i16(&arow[t..t + 16]);
        let bv = avx2_load16_i8_as_i16(&brow[t..t + 16]);
        acc0 = _mm256_add_epi32(acc0, _mm256_madd_epi16(av, bv));
        t += 16;
    }
    let mut sum = avx2_hsum_i32(_mm256_add_epi32(acc0, acc1));
    for (&x, &y) in arow[full16..].iter().zip(brow[full16..].iter()) {
        sum += x as i32 * y as i32;
    }
    sum
}

/// The packed-B PSUM sweep on 256-bit lanes: per K-pair, one widening
/// load of the block's 16 codes, then one broadcast pair word and one
/// `_mm256_madd_epi16` per row of an [`MR`]-row block. A step's eight
/// channel sums are complete in their lanes and are stored straight to
/// the step plane.
#[target_feature(enable = "avx2")]
pub(super) fn avx2_gemm_packed_i8_psums(
    a: &[i16],
    b: &[i8],
    out: &mut [i32],
    m: usize,
    n: usize,
    pairs: usize,
    p0: usize,
    p1: usize,
    tile_pairs: usize,
) {
    for (at, rows) in PackedBlock::all(a, b, m, n, pairs) {
        match rows {
            1 => avx2_packed_rows::<1>(at, out, p0, p1, tile_pairs),
            2 => avx2_packed_rows::<2>(at, out, p0, p1, tile_pairs),
            3 => avx2_packed_rows::<3>(at, out, p0, p1, tile_pairs),
            _ => avx2_packed_rows::<MR>(at, out, p0, p1, tile_pairs),
        }
    }
}

#[target_feature(enable = "avx2")]
#[inline]
fn avx2_packed_rows<const R: usize>(
    at: PackedBlock<'_>,
    out: &mut [i32],
    p0: usize,
    p1: usize,
    tile_pairs: usize,
) {
    let (rows, codes) = at.range::<R>(p0, p1);
    for (s, step) in codes.chunks(tile_pairs).enumerate() {
        let ps = s * tile_pairs;
        let mut acc = [_mm256_setzero_si256(); R];
        for (q, pair) in step.iter().enumerate() {
            let bv = avx2_load16_i8_as_i16(pair);
            for (accr, row) in acc.iter_mut().zip(rows) {
                let w = _mm256_set1_epi32(pair_word(row[ps + q]));
                *accr = _mm256_add_epi32(*accr, _mm256_madd_epi16(w, bv));
            }
        }
        for (r, accr) in acc.iter().enumerate() {
            let dst = at.dst(out, s, r);
            if dst.len() == NR {
                // SAFETY: dst holds exactly NR = 8 i32 slots.
                unsafe { _mm256_storeu_si256(dst.as_mut_ptr() as *mut __m256i, *accr) };
            } else {
                let mut lanes = [0i32; NR];
                // SAFETY: lanes holds exactly NR = 8 i32 slots.
                unsafe { _mm256_storeu_si256(lanes.as_mut_ptr() as *mut __m256i, *accr) };
                dst.copy_from_slice(&lanes[..dst.len()]);
            }
        }
    }
}

/// [`super::scalar::gemm_i8_psums`] recompiled for 256-bit lanes: the
/// loop is elementwise along N, so the autovectorized body is the scalar
/// definition itself.
#[target_feature(enable = "avx2")]
pub(super) fn avx2_gemm_i8_psums(
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
    super::scalar::gemm_i8_psums(a, lda, b, ldb, out, m, n, k0, k1, k_tile)
}

// ====================================================== APSQ fold epilogues
//
// Lane-parallel twins of the scalar `fold_input` / `quantize_one` /
// `dequantize_one` maps. All are elementwise integer functions (the max
// is exact in any order), so there is no reduction order to pin: each
// lane computes exactly the scalar bits.
//
// The quantizer input `Tp + Σ clamp_i32(code · 2^e)` is exact in 64 bits.
// The kernels add it in i32 lanes and flag every lane where a shift
// saturated or an add overflowed; without a flag the i32 sum is the
// exact sum (so the scalar i32 clamp is a no-op), and a flagged chunk is
// recomputed by the scalar map. Real PSUM streams never set a flag, so
// the hot path never leaves 32-bit lanes.
//
// - Dequantize: shift left, shift back arithmetically; a lane whose round
//   trip differs saturated (and takes its sign's bound in
//   `fold_dequantize`).
// - Quantize: round the magnitude (`|x|` as u32 never overflows: `2^31 +
//   2^29 < 2^32` at e ≤ 30) with a logical shift, restore the sign, clamp
//   to the code range.

/// `mask ? x : y` per bit.
#[target_feature(enable = "sse2")]
#[inline]
fn sse2_select(mask: __m128i, x: __m128i, y: __m128i) -> __m128i {
    _mm_or_si128(_mm_and_si128(mask, x), _mm_andnot_si128(mask, y))
}

/// The quantizer input of elements `t..t+4` in i32 lanes, plus a vector
/// whose sign bits flag the lanes where it is not exact.
#[target_feature(enable = "sse2")]
#[inline]
fn sse2_fold_input4(
    reads: &[i32],
    exps: &[u32],
    numel: usize,
    t: usize,
    tile: __m128i,
) -> (__m128i, __m128i) {
    let ones = _mm_set1_epi32(-1);
    let mut acc = tile;
    let mut bad = _mm_setzero_si128();
    for (l, &e) in exps.iter().enumerate() {
        let src = &reads[l * numel + t..l * numel + t + 4];
        // SAFETY: src holds exactly 4 i32 for the 128-bit load.
        let c = unsafe { _mm_loadu_si128(src.as_ptr() as *const __m128i) };
        let cnt = _mm_cvtsi32_si128(e as i32);
        let d = _mm_sll_epi32(c, cnt);
        let saturated = _mm_xor_si128(_mm_cmpeq_epi32(_mm_sra_epi32(d, cnt), c), ones);
        let r = _mm_add_epi32(acc, d);
        let overflow = _mm_and_si128(_mm_xor_si128(acc, r), _mm_xor_si128(d, r));
        bad = _mm_or_si128(bad, _mm_or_si128(saturated, overflow));
        acc = r;
    }
    (acc, bad)
}

/// Whether any lane's sign bit is set.
#[target_feature(enable = "sse2")]
#[inline]
fn sse2_any_sign(v: __m128i) -> bool {
    _mm_movemask_ps(_mm_castsi128_ps(v)) != 0
}

#[target_feature(enable = "sse2")]
pub(super) fn sse2_fold_requantize(
    reads: &[i32],
    exps: &[u32],
    slot: &mut [i32],
    exp: u32,
    qn: i32,
    qp: i32,
) {
    let numel = slot.len();
    let cnt = _mm_cvtsi32_si128(exp as i32);
    let half = _mm_set1_epi32(((1i64 << exp) >> 1) as i32);
    let (qnv, qpv) = (_mm_set1_epi32(qn), _mm_set1_epi32(qp));
    let full = numel - numel % 4;
    let mut t = 0;
    while t < full {
        let dst = &mut slot[t..t + 4];
        // SAFETY: dst holds exactly 4 i32 for the 128-bit load.
        let tile = unsafe { _mm_loadu_si128(dst.as_ptr() as *const __m128i) };
        let (x, bad) = sse2_fold_input4(reads, exps, numel, t, tile);
        if sse2_any_sign(bad) {
            super::scalar::fold_requantize_at(reads, exps, slot, t..t + 4, exp, qn, qp);
        } else {
            let s = _mm_srai_epi32::<31>(x);
            let mag = _mm_sub_epi32(_mm_xor_si128(x, s), s);
            let r = _mm_srl_epi32(_mm_add_epi32(mag, half), cnt);
            let r = _mm_sub_epi32(_mm_xor_si128(r, s), s);
            let r = sse2_select(_mm_cmpgt_epi32(r, qpv), qpv, r);
            let r = sse2_select(_mm_cmpgt_epi32(qnv, r), qnv, r);
            // SAFETY: as above, for the 128-bit store.
            unsafe { _mm_storeu_si128(dst.as_mut_ptr() as *mut __m128i, r) };
        }
        t += 4;
    }
    super::scalar::fold_requantize_at(reads, exps, slot, full..numel, exp, qn, qp);
}

#[target_feature(enable = "sse2")]
pub(super) fn sse2_fold_max_abs(reads: &[i32], exps: &[u32], tile: &[i32]) -> i32 {
    let numel = tile.len();
    let flip = _mm_set1_epi32(i32::MIN);
    // Running unsigned max, kept sign-flipped so a signed compare orders
    // it: `a >u b  ⇔  (a ^ 2^31) >s (b ^ 2^31)`.
    let mut best = flip;
    let mut m = 0u64;
    let full = numel - numel % 4;
    let mut t = 0;
    while t < full {
        let src = &tile[t..t + 4];
        // SAFETY: src holds exactly 4 i32 for the 128-bit load.
        let v = unsafe { _mm_loadu_si128(src.as_ptr() as *const __m128i) };
        let (x, bad) = sse2_fold_input4(reads, exps, numel, t, v);
        if sse2_any_sign(bad) {
            m = m.max(super::scalar::fold_max_abs_at(reads, exps, tile, t..t + 4));
        } else {
            let s = _mm_srai_epi32::<31>(x);
            let mag = _mm_xor_si128(_mm_sub_epi32(_mm_xor_si128(x, s), s), flip);
            best = sse2_select(_mm_cmpgt_epi32(mag, best), mag, best);
        }
        t += 4;
    }
    let mut lanes = [0i32; 4];
    // SAFETY: 4-lane stack array matches the 128-bit store width.
    unsafe {
        _mm_storeu_si128(
            lanes.as_mut_ptr() as *mut __m128i,
            _mm_xor_si128(best, flip),
        )
    };
    for &v in &lanes {
        m = m.max(v as u32 as u64);
    }
    m = m.max(super::scalar::fold_max_abs_at(
        reads,
        exps,
        tile,
        full..numel,
    ));
    m.min(i32::MAX as u64) as i32
}

#[target_feature(enable = "sse2")]
pub(super) fn sse2_fold_dequantize(codes: &[i32], exp: u32, out: &mut [i32]) {
    let cnt = _mm_cvtsi32_si128(exp as i32);
    let max = _mm_set1_epi32(i32::MAX);
    let full = codes.len() - codes.len() % 4;
    let mut t = 0;
    while t < full {
        let src = &codes[t..t + 4];
        let dst = &mut out[t..t + 4];
        // SAFETY: src and dst each hold 4 i32 (one 128-bit access).
        unsafe {
            let c = _mm_loadu_si128(src.as_ptr() as *const __m128i);
            let d = _mm_sll_epi32(c, cnt);
            let ok = _mm_cmpeq_epi32(_mm_sra_epi32(d, cnt), c);
            let sat = _mm_xor_si128(_mm_srai_epi32::<31>(c), max);
            _mm_storeu_si128(dst.as_mut_ptr() as *mut __m128i, sse2_select(ok, d, sat));
        }
        t += 4;
    }
    super::scalar::fold_dequantize(&codes[full..], exp, &mut out[full..]);
}

/// The quantizer input of elements `t..t+8` in i32 lanes, plus a vector
/// whose sign bits flag the lanes where it is not exact.
#[target_feature(enable = "avx2")]
#[inline]
fn avx2_fold_input8(
    reads: &[i32],
    exps: &[u32],
    numel: usize,
    t: usize,
    tile: __m256i,
) -> (__m256i, __m256i) {
    let ones = _mm256_set1_epi32(-1);
    let mut acc = tile;
    let mut bad = _mm256_setzero_si256();
    for (l, &e) in exps.iter().enumerate() {
        let src = &reads[l * numel + t..l * numel + t + 8];
        // SAFETY: src holds exactly 8 i32 for the 256-bit load.
        let c = unsafe { _mm256_loadu_si256(src.as_ptr() as *const __m256i) };
        let cnt = _mm256_set1_epi32(e as i32);
        let d = _mm256_sllv_epi32(c, cnt);
        let saturated = _mm256_xor_si256(_mm256_cmpeq_epi32(_mm256_srav_epi32(d, cnt), c), ones);
        let r = _mm256_add_epi32(acc, d);
        let overflow = _mm256_and_si256(_mm256_xor_si256(acc, r), _mm256_xor_si256(d, r));
        bad = _mm256_or_si256(bad, _mm256_or_si256(saturated, overflow));
        acc = r;
    }
    (acc, bad)
}

/// Whether any lane's sign bit is set.
#[target_feature(enable = "avx2")]
#[inline]
fn avx2_any_sign(v: __m256i) -> bool {
    _mm256_movemask_ps(_mm256_castsi256_ps(v)) != 0
}

#[target_feature(enable = "avx2")]
pub(super) fn avx2_fold_requantize(
    reads: &[i32],
    exps: &[u32],
    slot: &mut [i32],
    exp: u32,
    qn: i32,
    qp: i32,
) {
    let numel = slot.len();
    let cnt = _mm256_set1_epi32(exp as i32);
    let half = _mm256_set1_epi32(((1i64 << exp) >> 1) as i32);
    let (qnv, qpv) = (_mm256_set1_epi32(qn), _mm256_set1_epi32(qp));
    let full = numel - numel % 8;
    let mut t = 0;
    while t < full {
        let dst = &mut slot[t..t + 8];
        // SAFETY: dst holds exactly 8 i32 for the 256-bit load.
        let tile = unsafe { _mm256_loadu_si256(dst.as_ptr() as *const __m256i) };
        let (x, bad) = avx2_fold_input8(reads, exps, numel, t, tile);
        if avx2_any_sign(bad) {
            super::scalar::fold_requantize_at(reads, exps, slot, t..t + 8, exp, qn, qp);
        } else {
            let s = _mm256_srai_epi32::<31>(x);
            let mag = _mm256_sub_epi32(_mm256_xor_si256(x, s), s);
            let r = _mm256_srlv_epi32(_mm256_add_epi32(mag, half), cnt);
            let r = _mm256_sub_epi32(_mm256_xor_si256(r, s), s);
            let r = _mm256_max_epi32(_mm256_min_epi32(r, qpv), qnv);
            // SAFETY: as above, for the 256-bit store.
            unsafe { _mm256_storeu_si256(dst.as_mut_ptr() as *mut __m256i, r) };
        }
        t += 8;
    }
    super::scalar::fold_requantize_at(reads, exps, slot, full..numel, exp, qn, qp);
}

#[target_feature(enable = "avx2")]
pub(super) fn avx2_fold_max_abs(reads: &[i32], exps: &[u32], tile: &[i32]) -> i32 {
    let numel = tile.len();
    let mut best = _mm256_setzero_si256();
    let mut m = 0u64;
    let full = numel - numel % 8;
    let mut t = 0;
    while t < full {
        let src = &tile[t..t + 8];
        // SAFETY: src holds exactly 8 i32 for the 256-bit load.
        let v = unsafe { _mm256_loadu_si256(src.as_ptr() as *const __m256i) };
        let (x, bad) = avx2_fold_input8(reads, exps, numel, t, v);
        if avx2_any_sign(bad) {
            m = m.max(super::scalar::fold_max_abs_at(reads, exps, tile, t..t + 8));
        } else {
            // |x| as u32 (i32::MIN maps to 2^31).
            best = _mm256_max_epu32(best, _mm256_abs_epi32(x));
        }
        t += 8;
    }
    let mut lanes = [0u32; 8];
    // SAFETY: 8-lane stack array matches the 256-bit store width.
    unsafe { _mm256_storeu_si256(lanes.as_mut_ptr() as *mut __m256i, best) };
    for &v in &lanes {
        m = m.max(v as u64);
    }
    m = m.max(super::scalar::fold_max_abs_at(
        reads,
        exps,
        tile,
        full..numel,
    ));
    m.min(i32::MAX as u64) as i32
}

#[target_feature(enable = "avx2")]
pub(super) fn avx2_fold_dequantize(codes: &[i32], exp: u32, out: &mut [i32]) {
    let cnt = _mm256_set1_epi32(exp as i32);
    let max = _mm256_set1_epi32(i32::MAX);
    let full = codes.len() - codes.len() % 8;
    let mut t = 0;
    while t < full {
        let src = &codes[t..t + 8];
        let dst = &mut out[t..t + 8];
        // SAFETY: src and dst each hold 8 i32 (one 256-bit access).
        unsafe {
            let c = _mm256_loadu_si256(src.as_ptr() as *const __m256i);
            let d = _mm256_sllv_epi32(c, cnt);
            let ok = _mm256_cmpeq_epi32(_mm256_srav_epi32(d, cnt), c);
            let sat = _mm256_xor_si256(_mm256_srai_epi32::<31>(c), max);
            _mm256_storeu_si256(
                dst.as_mut_ptr() as *mut __m256i,
                _mm256_blendv_epi8(sat, d, ok),
            );
        }
        t += 8;
    }
    super::scalar::fold_dequantize(&codes[full..], exp, &mut out[full..]);
}
