//! The packed right-hand operand of the int8 PSUM sweep.
//!
//! A weight-stationary PE column emits one output channel's `k_tile`-deep
//! partial sum per step, with no reduction across columns. [`PackedI8`]
//! lays the i8 operand out so the CPU kernel does the same: eight output
//! channels sit side by side, one per i32 lane, and each lane consumes
//! its channel's K axis two codes at a time with one widening
//! multiply-add. A step's sums are complete in their lanes and are stored
//! straight to the step plane — no horizontal reduction.

use crate::kernels::NR;

/// An i8 GEMM operand `B` (`N` output channels × `K` input channels)
/// packed for [`crate::ExecEngine::int8_packed_psums_into`]:
/// `[⌈N/8⌉][pairs][8][2]` — per block of eight channels, per K-pair, the
/// two codes of each channel in turn.
///
/// - **Pairs never straddle a `k_tile` boundary.** Step `s` covers input
///   channels `[s·k_tile, min((s+1)·k_tile, K))`; a step of odd length
///   ends in a pair whose second code is zero. Each step therefore owns
///   `⌈k_tile/2⌉` whole pairs (the last, ragged step `⌈len/2⌉`), and
///   the kernel closes a step by storing its lanes.
/// - **N is padded to a multiple of 8 with zero channels.** The kernel
///   computes the padded lanes and stores only the `N` valid ones.
///
/// The packing is fixed by `(N, K, k_tile)` and the codes alone, so the
/// same matrix packed from `[N, K]` ([`PackedI8::from_nk`]) and from
/// `[K, N]` ([`PackedI8::from_kn`]) compares equal.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct PackedI8 {
    data: Vec<i8>,
    n: usize,
    k: usize,
    k_tile: usize,
}

impl PackedI8 {
    /// Packs `b` stored `[N, K]` with row stride `ldb` (row `j` is
    /// `b[j·ldb..j·ldb + k]`) — the weight-stationary layout, or one
    /// head's key columns of a KV cache.
    ///
    /// # Panics
    ///
    /// Panics if `k == 0`, `k_tile == 0`, `ldb < k`, or `b` is short of
    /// `n` rows.
    pub fn from_nk(b: &[i8], ldb: usize, n: usize, k: usize, k_tile: usize) -> PackedI8 {
        let mut p = PackedI8::default();
        p.repack_nk(b, ldb, n, k, k_tile);
        p
    }

    /// [`PackedI8::from_nk`] into this operand's storage, reusing its
    /// allocation — the decode path repacks each head's keys per call.
    ///
    /// # Panics
    ///
    /// As [`PackedI8::from_nk`].
    pub fn repack_nk(&mut self, b: &[i8], ldb: usize, n: usize, k: usize, k_tile: usize) {
        assert!(ldb >= k, "row stride {ldb} is shorter than a row of {k}");
        assert!(
            n == 0 || b.len() >= (n - 1) * ldb + k,
            "b holds {} codes, short of {n} rows of stride {ldb}",
            b.len()
        );
        self.reset(n, k, k_tile);
        let (tp, pairs) = (tile_pairs(k_tile), self.pairs());
        // Two-code slots, `[⌈N/8⌉][pairs][8]`: channel j's pair p sits at
        // slot `(j/8·pairs + p)·8 + j%8`.
        let slots = self.data.as_chunks_mut::<2>().0;
        for j in 0..n {
            let row = &b[j * ldb..j * ldb + k];
            let first = (j / NR) * pairs * NR + j % NR;
            for (s, tile) in row.chunks(k_tile).enumerate() {
                let (codes, odd) = tile.as_chunks::<2>();
                let at = first + s * tp * NR;
                for (p, &pair) in codes.iter().enumerate() {
                    slots[at + p * NR] = pair;
                }
                if let Some(&lo) = odd.first() {
                    slots[at + codes.len() * NR] = [lo, 0];
                }
            }
        }
    }

    /// Packs `b` stored `[K, N]` with row stride `ldb` (row `l` is
    /// `b[l·ldb..l·ldb + n]`) — the `[in, out]` layout of a layer's
    /// weights.
    ///
    /// # Panics
    ///
    /// Panics if `k == 0`, `k_tile == 0`, `ldb < n`, or `b` is short of
    /// `k` rows.
    pub fn from_kn(b: &[i8], ldb: usize, n: usize, k: usize, k_tile: usize) -> PackedI8 {
        assert!(ldb >= n, "row stride {ldb} is shorter than a row of {n}");
        assert!(
            n == 0 || k == 0 || b.len() >= (k - 1) * ldb + n,
            "b holds {} codes, short of {k} rows of stride {ldb}",
            b.len()
        );
        let mut p = PackedI8::default();
        p.reset(n, k, k_tile);
        let block = 2 * NR * p.pairs();
        let row = |l: usize| &b[l * ldb..l * ldb + n];
        for (s, ks) in (0..k).step_by(k_tile).enumerate() {
            let ke = usize::min(ks + k_tile, k);
            for (q, l) in (ks..ke).step_by(2).enumerate() {
                // Input channels l and l + 1 (zero past the step) fill
                // pair q of step s in every channel block.
                let (lo, hi) = (row(l), (l + 1 < ke).then(|| row(l + 1)));
                let at = (s * tile_pairs(k_tile) + q) * 2 * NR;
                for (jb, dst) in p.data.chunks_exact_mut(block).enumerate() {
                    let cols = jb * NR..usize::min(jb * NR + NR, n);
                    let dst = &mut dst[at..at + 2 * NR];
                    for (d, j) in dst.chunks_exact_mut(2).zip(cols) {
                        d[0] = lo[j];
                        d[1] = hi.map_or(0, |hi| hi[j]);
                    }
                }
            }
        }
        p
    }

    /// Sets the shape and zero-fills storage for `N × K` at `k_tile`.
    fn reset(&mut self, n: usize, k: usize, k_tile: usize) {
        assert!(k > 0 && k_tile > 0, "k and k_tile must be positive");
        (self.n, self.k, self.k_tile) = (n, k, k_tile);
        self.data.clear();
        self.data.resize(n.div_ceil(NR) * self.pairs() * 2 * NR, 0);
    }

    /// Output channels `N`.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Reduction depth `K`.
    pub fn k(&self) -> usize {
        self.k
    }

    /// The PSUM step depth the pairs are aligned to.
    pub fn k_tile(&self) -> usize {
        self.k_tile
    }

    /// PSUM steps per output element, `⌈K/k_tile⌉`.
    pub fn steps(&self) -> usize {
        self.k.div_ceil(self.k_tile)
    }

    /// K-pairs per output channel over all steps.
    pub(crate) fn pairs(&self) -> usize {
        total_pairs(self.k, self.k_tile)
    }

    /// The packed codes, `[⌈N/8⌉][pairs][8][2]`.
    pub(crate) fn data(&self) -> &[i8] {
        &self.data
    }
}

/// K-pairs one full `k_tile`-deep step holds.
pub(crate) fn tile_pairs(k_tile: usize) -> usize {
    k_tile.div_ceil(2)
}

/// K-pairs over `K`: whole steps of [`tile_pairs`], the ragged last step
/// rounded up on its own.
fn total_pairs(k: usize, k_tile: usize) -> usize {
    let full = k / k_tile;
    full * tile_pairs(k_tile) + (k - full * k_tile).div_ceil(2)
}

/// Widens the rows of `a` (`[M, K]` i8) to i16 in the pair layout of
/// a [`PackedI8`] with the same `(K, k_tile)`: `out` becomes
/// `[M][pairs][2]`, each step's codes followed by a zero where the step
/// has odd length. Pair `p` of a row, read as one little-endian i32, is
/// the word a kernel broadcasts against packed pair `p`. With an even
/// `k_tile` the steps abut, so a row is its codes sign-extended.
pub(crate) fn widen_pairs(a: &[i8], k: usize, k_tile: usize, out: &mut Vec<i16>) {
    let row_len = 2 * total_pairs(k, k_tile);
    out.clear();
    out.resize(a.len() / k * row_len, 0);
    for (dst, row) in out.chunks_exact_mut(row_len).zip(a.chunks_exact(k)) {
        for (dst, tile) in dst
            .chunks_mut(2 * tile_pairs(k_tile))
            .zip(row.chunks(k_tile))
        {
            for (d, &c) in dst.iter_mut().zip(tile) {
                *d = c as i16;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn layout_pads_odd_steps_and_ragged_channels() {
        // N = 3 channels, K = 5, k_tile = 3: steps [0,3) and [3,5), pairs
        // (0,1) (2,pad) | (3,4).
        let b: Vec<i8> = (0..15).map(|x| x as i8 + 1).collect(); // [N, K]
        let p = PackedI8::from_nk(&b, 5, 3, 5, 3);
        assert_eq!(
            (p.n(), p.k(), p.k_tile(), p.steps(), p.pairs()),
            (3, 5, 3, 2, 3)
        );
        let d = p.data();
        assert_eq!(d.len(), 3 * 2 * NR);
        assert_eq!(&d[..6], &[1, 2, 6, 7, 11, 12]);
        assert!(d[6..16].iter().all(|&c| c == 0), "padded channels are zero");
        assert_eq!(&d[16..22], &[3, 0, 8, 0, 13, 0]);
        assert_eq!(&d[32..38], &[4, 5, 9, 10, 14, 15]);
    }

    #[test]
    fn widened_pairs_follow_the_packed_steps() {
        let mut out = Vec::new();
        widen_pairs(&[-128, 127, -1, 5, 6, 1, 2, 3, 4, 5], 5, 3, &mut out);
        assert_eq!(out, [-128, 127, -1, 0, 5, 6, 1, 2, 3, 0, 4, 5]);
    }
}
