//! The one-pass APSQ fold: Algorithm 1 over a whole step-major PSUM
//! buffer, with reused scratch and the integer epilogues dispatched to the
//! kernel backend.
//!
//! Every grouped-APSQ entry point in the workspace runs through
//! [`ApsqFold`]: [`crate::StreamingApsq`] (one step per pushed tile),
//! [`crate::grouped_apsq`], [`crate::grouped_apsq_streamed`],
//! [`ScaleSchedule::calibrate`], and the integer serving paths in
//! `apsq-nn` and `apsq-models`. [`crate::apsq_recursion_reference`] stays
//! the independent scalar oracle.

use crate::config::GroupSize;
use crate::schedule::ScaleSchedule;
use crate::traffic::BufferTraffic;
use apsq_quant::{Bitwidth, Pow2Scale};
use apsq_tensor::{fold_dequantize, fold_max_abs, fold_requantize, KernelBackend};
use std::ops::Range;

/// Where each fold step's power-of-two scale comes from.
#[derive(Clone, Copy, Debug)]
pub enum FoldScales<'a> {
    /// A frozen per-step schedule, e.g. one converted from trained PSUM
    /// observers.
    Frozen(&'a ScaleSchedule),
    /// Calibrate while folding: each step commits the tightest exponent
    /// covering its own quantizer input at this bit-width, then
    /// quantizes. The committed schedule is [`ApsqFold::scales`], equal to
    /// [`ScaleSchedule::calibrate`] over the same single stream.
    Calibrate(Bitwidth),
}

/// Reusable state of the one-pass grouped-APSQ fold (paper Algorithm 1).
///
/// The fold reads a **step-major** PSUM buffer: `np` tiles of `numel`
/// elements, tile `i` at `psums[i·numel..(i+1)·numel]`, as
/// [`apsq_tensor::ExecEngine::int8_bt_psums_into`] writes it. It runs in
/// place: once step `i` is done, its tile slot holds the stored code tile
/// `AP*_i`, which is exactly what later steps read back — and the steps a
/// step reads are always the contiguous run just before it. Each step is
/// one fused pass of the backend's fold epilogue
/// ([`apsq_tensor::fold_requantize`]): the 64-bit group sum lives in
/// registers. The only scratch is the committed scales, kept across
/// calls, so a fold held by its caller allocates nothing once warm.
///
/// Per step `i` (with `gs` the group size):
///
/// - `i ≡ 0 (mod gs)`: the **APSQ step** — dequantize the previous
///   group's `gs` stored codes into `Tp_i`, quantize, store;
/// - otherwise, `i < np−1`: the **PSQ step** — quantize `Tp_i` alone;
/// - `i = np−1` off a group boundary: the **final step** — dequantize the
///   current group's stored prefix into `Tp_i`, quantize.
///
/// The last step's codes are dequantized into the output tile `To`.
///
/// # Examples
///
/// ```
/// use apsq_core::{ApsqFold, FoldScales, GroupSize, ScaleSchedule};
/// use apsq_quant::Bitwidth;
/// use apsq_tensor::KernelBackend;
///
/// // Two steps of a two-element tile, step-major.
/// let mut psums = vec![10, -3, 5, 7];
/// let sched = ScaleSchedule::uniform(2, 0, Bitwidth::INT8);
/// let mut out = [0i32; 2];
/// let mut fold = ApsqFold::new();
/// let traffic = fold.run(
///     KernelBackend::detect(),
///     &mut psums,
///     2,
///     GroupSize::new(1),
///     FoldScales::Frozen(&sched),
///     &mut out,
/// );
/// assert_eq!(out, [15, 4]);
/// assert_eq!((traffic.writes, traffic.reads), (4, 2));
/// ```
#[derive(Clone, Debug, Default)]
pub struct ApsqFold {
    /// Words per tile, tiles per stream, group size of the current fold.
    numel: usize,
    np: usize,
    gs: usize,
    /// Committed scales; the next step to run is `scales.len()`.
    scales: Vec<Pow2Scale>,
    /// `scales[i].exponent()`, contiguous for the epilogue kernels.
    exps: Vec<u32>,
    traffic: BufferTraffic,
}

impl ApsqFold {
    /// An empty fold; its scratch grows on first use and is reused after.
    pub fn new() -> Self {
        Self::default()
    }

    /// Folds a whole step-major PSUM buffer in one pass: `psums` holds
    /// `np = psums.len() / numel` tiles and is overwritten with the stored
    /// codes; `out` receives the dequantized output tile `To`. Returns the
    /// PSUM-buffer traffic, in words: `np·numel` writes and
    /// `(np−1)·numel` reads, whatever the group size.
    ///
    /// # Panics
    ///
    /// Panics if `numel == 0`, `psums` is empty or not a whole number of
    /// tiles, `out.len() != numel`, or a frozen schedule does not cover
    /// exactly `np` steps.
    pub fn run(
        &mut self,
        bk: KernelBackend,
        psums: &mut [i32],
        numel: usize,
        group_size: GroupSize,
        scales: FoldScales<'_>,
        out: &mut [i32],
    ) -> BufferTraffic {
        assert!(numel > 0, "PSUM tiles must be non-empty");
        assert!(
            !psums.is_empty() && psums.len().is_multiple_of(numel),
            "PSUM buffer of {} words is not a whole number of {numel}-word tiles",
            psums.len()
        );
        assert_eq!(out.len(), numel, "output tile must hold {numel} words");
        let np = psums.len() / numel;
        if let FoldScales::Frozen(s) = scales {
            assert_eq!(
                s.len(),
                np,
                "schedule covers {} steps but the buffer holds {np} PSUM tiles",
                s.len()
            );
        }
        self.begin(numel, np, group_size);
        for i in 0..np {
            let scale = match scales {
                FoldScales::Frozen(s) => s.scale(i),
                FoldScales::Calibrate(bits) => Pow2Scale::covering(self.max_abs(bk, psums), bits),
            };
            self.step(bk, psums, scale, Some(&mut *out));
        }
        self.traffic
    }

    /// The scales of the steps committed by the current fold, in step
    /// order — after [`ApsqFold::run`] with [`FoldScales::Calibrate`], the
    /// calibrated schedule.
    pub fn scales(&self) -> &[Pow2Scale] {
        &self.scales
    }

    /// PSUM-buffer traffic of the steps committed by the current fold.
    pub(crate) fn traffic(&self) -> BufferTraffic {
        self.traffic
    }

    /// Starts a fold of `np` tiles of `numel` words (keeps the scratch
    /// capacity).
    pub(crate) fn begin(&mut self, numel: usize, np: usize, group_size: GroupSize) {
        (self.numel, self.np, self.gs) = (numel, np, group_size.get());
        self.scales.clear();
        self.exps.clear();
        self.traffic = BufferTraffic::new();
    }

    /// The largest magnitude entering the next step's quantizer — its
    /// tile `Tp_i` plus the dequantized stored codes the step reads —
    /// saturated to the i32 range and floored at 1: what
    /// [`Pow2Scale::covering`] is fed during calibration. `buf` holds the
    /// stored codes of the steps done and tile `i`.
    pub(crate) fn max_abs(&self, bk: KernelBackend, buf: &[i32]) -> i32 {
        let (i, n) = (self.scales.len(), self.numel);
        let r = read_range(i, self.np, self.gs);
        let reads = &buf[r.start * n..i * n];
        fold_max_abs(bk, reads, &self.exps[r], &buf[i * n..(i + 1) * n]).max(1)
    }

    /// Runs the next step `i` at `scale`: adds the dequantized stored
    /// codes the step reads (the previous group on an APSQ step, the
    /// current group's prefix on the final step, nothing on a PSQ step)
    /// to `Tp_i` in slot `i` of `buf`, quantizes in place, and on the
    /// last step dequantizes the codes into `out` (when given).
    pub(crate) fn step(
        &mut self,
        bk: KernelBackend,
        buf: &mut [i32],
        scale: Pow2Scale,
        out: Option<&mut [i32]>,
    ) {
        let (i, n) = (self.scales.len(), self.numel);
        let r = read_range(i, self.np, self.gs);
        let (done, rest) = buf.split_at_mut(i * n);
        let codes = &mut rest[..n];
        let range = scale.range();
        fold_requantize(
            bk,
            &done[r.start * n..],
            &self.exps[r.clone()],
            codes,
            scale.exponent(),
            range.qn,
            range.qp,
        );
        self.traffic.reads += (r.len() * n) as u64;
        self.traffic.writes += n as u64;
        self.scales.push(scale);
        self.exps.push(scale.exponent());
        if let (true, Some(out)) = (i == self.np - 1, out) {
            fold_dequantize(bk, codes, scale.exponent(), out);
        }
    }
}

/// The stored steps Algorithm 1 reads back at step `i` of `np` — always
/// a run ending at `i`.
fn read_range(i: usize, np: usize, gs: usize) -> Range<usize> {
    if i.is_multiple_of(gs) {
        i.saturating_sub(gs)..i
    } else if i == np - 1 {
        (i / gs) * gs..i
    } else {
        i..i
    }
}
