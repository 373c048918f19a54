//! The true integer inference datapath: i8×i8→i32 GEMMs with grouped
//! APSQ folded over the K axis, produced from trained fake-quant models
//! by a PTQ conversion pass.
//!
//! [`QuantLinear`] *simulates* the W8A8 + APSQ accumulation path in f32
//! (fake quantization). [`Int8Linear`] *executes* it: activations are
//! quantized to i8 codes, weights are stored as i8 codes packed once at
//! conversion for the weight-stationary sweep ([`PackedI8`]: one SIMD
//! lane per output channel), one sweep over K writes every `Pci`-deep
//! PSUM tile into a step-major buffer
//! ([`ExecEngine::int8_packed_psums_into`]), and one [`ApsqFold`] pass runs
//! Algorithm 1 over it in place — the PSUM stream of the PE array and
//! the RAE beside it, with the epilogues on the kernel backend. Nothing
//! leaves the integer domain between the input quantizer and the single
//! dequantize-and-bias epilogue. Decode attention folds its `Q·Kᵀ` and
//! `P·V` GEMMs the same way, calibrating each head's schedule during the
//! pass. The PSUM buffer and the fold are per-thread scratch, so a warm
//! serving thread folds without allocating.
//!
//! # Bit-identity contract
//!
//! When the source layer's learned scales are exact powers of two and its
//! bias sits on the product-scale grid (see [`QuantLinear::snap_pow2`]),
//! the integer path is **bit-identical** to
//! [`QuantLinear::forward_inference_with`] for every shape, group size,
//! `k_tile`, and engine thread count: products `α_x q_x · α_w q_w` and
//! their partial sums are exactly representable in f32 (|Σ q_x q_w| <
//! 2²⁴), the frozen-observer PSUM schedule is derived from the **same
//! float expression** both paths evaluate, and the integer and float
//! APSQ recursions agree bit-for-bit under power-of-two scales. The
//! property tests in `tests/proptest_int8.rs` pin this across random
//! shapes/gs/k_tile/threads.

use crate::embedding::Embedding;
use crate::kv_cache::{Int8AttentionKvCache, Int8DecoderKvState};
use crate::linear::{observer_pow2_scale, Linear, PsumMode, QuantLinear};
use crate::models::{DecoderLm, EncoderClassifier};
use crate::norm::LayerNorm;
use apsq_core::{ApsqConfig, ApsqFold, BufferTraffic, FoldScales, GroupSize, ScaleSchedule};
use apsq_quant::{pow2_f32, Bitwidth, LsqQuantizer};
use apsq_tensor::{gelu, softmax_rows, sum_axis0, ExecEngine, Int8Tensor, PackedI8, Tensor};
use std::cell::RefCell;

/// Snaps a positive step to the nearest power of two (identity on values
/// that already are).
fn pow2_snap(step: f32) -> f32 {
    step.log2().round().exp2()
}

/// Per-thread scratch of the integer fold paths: the step-major PSUM
/// buffer the engine writes, the fold, the output tile, and the attention
/// kernel's per-head key block and requantized probabilities. Every
/// buffer is fully overwritten before it is read, so reuse across calls
/// cannot leak state between them; a warm serving thread folds without
/// allocating.
#[derive(Default)]
struct FoldScratch {
    gemm: GemmFold,
    /// One head's key rows, packed as the `Q·Kᵀ` operand.
    keys: PackedI8,
    /// Requantized probabilities `[heads, t]`.
    probs: Vec<i8>,
}

/// The PSUM buffer, fold and output tile of one integer GEMM.
#[derive(Default)]
struct GemmFold {
    psums: Vec<i32>,
    out: Vec<i32>,
    fold: ApsqFold,
}

thread_local! {
    static SCRATCH: RefCell<FoldScratch> = RefCell::new(FoldScratch::default());
}

impl GemmFold {
    /// Runs one K-deep integer GEMM with a `numel`-word output through
    /// the APSQ fold: `psums(k_tile, buf)` writes the `⌈k/k_tile⌉`
    /// step-major PSUM tiles, one fold pass reduces them into `self.out`.
    /// `None` is the exact i32 path: one K-deep step, no fold, no
    /// PSUM-buffer traffic.
    fn run(
        &mut self,
        eng: &ExecEngine,
        numel: usize,
        k: usize,
        fold: Option<(usize, GroupSize, FoldScales<'_>)>,
        psums: impl FnOnce(usize, &mut [i32]),
    ) -> BufferTraffic {
        let k_tile = fold.as_ref().map_or(k, |f| f.0);
        self.psums.resize(k.div_ceil(k_tile) * numel, 0);
        psums(k_tile, &mut self.psums);
        self.out.resize(numel, 0);
        match fold {
            Some((_, gs, scales)) if numel > 0 => self.fold.run(
                eng.backend(),
                &mut self.psums,
                numel,
                gs,
                scales,
                &mut self.out,
            ),
            _ => {
                self.out.copy_from_slice(&self.psums[..numel]);
                BufferTraffic::new()
            }
        }
    }
}

/// A borrowed flat view over int8 KV storage: `[t, d]` row-major i8 codes
/// plus `[t, heads]` per-(token, head) power-of-two exponents. Both the
/// contiguous [`Int8AttentionKvCache`] and a gather from paged
/// [`crate::BlockAllocator`] blocks produce byte-identical views, which is
/// what makes the paged decode path bit-identical to the contiguous one:
/// the attention kernel only ever sees this view.
struct Int8KvView<'a> {
    width: usize,
    len: usize,
    k_codes: &'a [i8],
    v_codes: &'a [i8],
    k_exps: &'a [i8],
    v_exps: &'a [i8],
}

impl<'a> Int8KvView<'a> {
    fn from_cache(cache: &'a Int8AttentionKvCache) -> Self {
        Int8KvView {
            width: cache.width(),
            len: cache.len(),
            k_codes: cache.keys_codes(),
            v_codes: cache.values_codes(),
            k_exps: cache.keys_exponents(),
            v_exps: cache.values_exponents(),
        }
    }
}

/// How an [`Int8Linear`] treats its i32 PSUM stream.
#[derive(Clone, Debug)]
enum Int8PsumPath {
    /// Exact i32 accumulation (the W8A8 baseline).
    Exact,
    /// Grouped APSQ with a frozen per-step power-of-two schedule.
    Apsq {
        config: ApsqConfig,
        k_tile: usize,
        schedule: ScaleSchedule,
    },
}

/// A fully integer linear layer: i8 weight codes packed for the
/// weight-stationary PSUM sweep, power-of-two activation/weight scales
/// frozen from the trained LSQ observers, and an i32 bias on the
/// product-scale grid.
///
/// Built by the PTQ conversion pass from either a [`QuantLinear`]
/// ([`Int8Linear::from_quant_linear`] — preserves the APSQ PSUM path and
/// is bit-identical after [`QuantLinear::snap_pow2`]) or a plain f32
/// [`Linear`] plus a calibration batch ([`Int8Linear::from_linear`] —
/// best-effort W8A8 PTQ for classifier heads).
#[derive(Clone, Debug)]
pub struct Int8Linear {
    /// Weight codes, `N = out` channels of `K = in`, packed at the PSUM
    /// step depth (`K` itself on the exact path).
    weights: PackedI8,
    x_scale: f32,
    w_scale: f32,
    /// Bias codes at the product scale `α_x·α_w`.
    bias_q: Vec<i32>,
    /// Dequantized bias (`bias_q · α_x·α_w`), precomputed for the epilogue.
    bias_f: Vec<f32>,
    psum: Int8PsumPath,
}

impl Int8Linear {
    /// Converts a trained fake-quant layer to the integer datapath,
    /// freezing the APSQ schedule from the layer's warmed PSUM observers.
    ///
    /// Call [`QuantLinear::snap_pow2`] on the source first to get the
    /// bit-identity guarantee; otherwise the learned steps are snapped to
    /// the nearest power of two here and the conversion is best-effort
    /// PTQ.
    ///
    /// # Panics
    ///
    /// Panics if the layer is not INT8, was never calibrated (no input
    /// quantizer), or — in APSQ mode — its PSUM observers were never
    /// warmed.
    pub fn from_quant_linear(ql: &QuantLinear) -> Int8Linear {
        assert_eq!(
            ql.bits(),
            Bitwidth::INT8,
            "the integer datapath stores i8 weights/activations"
        );
        let ax = pow2_snap(ql.input_step().expect(
            "uncalibrated QuantLinear: run a training forward or `calibrate` before conversion",
        ));
        let aw = pow2_snap(ql.weight_step());
        let w = &ql.inner().w.value;
        let d_in = w.dims()[0];
        let psum = match ql.psum_mode() {
            PsumMode::Exact => Int8PsumPath::Exact,
            PsumMode::Apsq { bits, gs, k_tile } => {
                let np = d_in.div_ceil(k_tile);
                let obs = ql.psum_observers();
                assert_eq!(
                    obs.len(),
                    np,
                    "PSUM observers not warmed ({} steps recorded, GEMM produces {np}): run a \
                     training forward or `calibrate` before conversion",
                    obs.len()
                );
                let qp = bits.signed_range().qp as f32;
                let exponents: Vec<u32> = obs
                    .iter()
                    .map(|&o| {
                        // The same float expression the frozen fake-quant
                        // schedule evaluates, floored at 2^0 — shared so
                        // the two datapaths agree bit-for-bit. Observers
                        // large enough to exceed the shifter range (never
                        // reachable from i32 PSUMs) saturate at 2^30.
                        let s = observer_pow2_scale(o, qp).max(1.0);
                        apsq_quant::Pow2Scale::from_f32(s, bits).map_or(30, |p| p.exponent())
                    })
                    .collect();
                Int8PsumPath::Apsq {
                    config: ApsqConfig {
                        bits,
                        group_size: GroupSize::new(gs),
                    },
                    k_tile,
                    schedule: ScaleSchedule::from_exponents(&exponents, bits),
                }
            }
        };
        Self::build(w, &ql.inner().b.value, ax, aw, psum)
    }

    /// Best-effort W8A8 PTQ of a plain f32 layer: activation scale from a
    /// calibration batch, weight scale from the weights (both LSQ-init
    /// rules snapped to powers of two), exact i32 accumulation.
    ///
    /// # Panics
    ///
    /// Panics if `calib_x` is empty.
    pub fn from_linear(l: &Linear, calib_x: &Tensor) -> Int8Linear {
        let ax = pow2_snap(LsqQuantizer::with_init(calib_x, Bitwidth::INT8, true).step());
        let aw = pow2_snap(LsqQuantizer::with_init(&l.w.value, Bitwidth::INT8, true).step());
        Self::build(&l.w.value, &l.b.value, ax, aw, Int8PsumPath::Exact)
    }

    /// Shared constructor: quantizes `w` (`[in, out]`) into packed
    /// weight codes and `b` onto the product-scale grid.
    fn build(w: &Tensor, b: &Tensor, x_scale: f32, w_scale: f32, psum: Int8PsumPath) -> Int8Linear {
        let (d_in, d_out) = (w.dims()[0], w.dims()[1]);
        let k_tile = match &psum {
            Int8PsumPath::Exact => d_in,
            Int8PsumPath::Apsq { k_tile, .. } => *k_tile,
        };
        let codes: Vec<i8> = w
            .data()
            .iter()
            .map(|&v| Int8Tensor::quantize_one(v, w_scale))
            .collect();
        let weights = PackedI8::from_kn(&codes, d_out, d_out, d_in, k_tile);
        let base = x_scale * w_scale;
        let bias_q: Vec<i32> = b
            .data()
            .iter()
            .map(|&v| {
                let q = (v / base).round();
                // A hard assert in every profile: a bias beyond the 2^23
                // grid would silently wrap the i32 epilogue on adversarial
                // inputs (construction-time check, cost-free at inference).
                assert!(
                    q.abs() < (1 << 23) as f32,
                    "bias {v} overflows the i32 grid"
                );
                q as i32
            })
            .collect();
        let bias_f: Vec<f32> = bias_q.iter().map(|&q| q as f32 * base).collect();
        Int8Linear {
            weights,
            x_scale,
            w_scale,
            bias_q,
            bias_f,
            psum,
        }
    }

    /// Input features.
    pub fn d_in(&self) -> usize {
        self.weights.k()
    }

    /// Output features.
    pub fn d_out(&self) -> usize {
        self.weights.n()
    }

    /// The frozen power-of-two activation scale `α_x`.
    pub fn x_scale(&self) -> f32 {
        self.x_scale
    }

    /// The frozen power-of-two weight scale `α_w`.
    pub fn w_scale(&self) -> f32 {
        self.w_scale
    }

    /// The i32 bias codes at the product scale.
    pub fn bias_codes(&self) -> &[i32] {
        &self.bias_q
    }

    /// Integer inference over `[n, in]`: quantize → i8 GEMM (+ APSQ fold)
    /// → dequantize + bias.
    ///
    /// # Panics
    ///
    /// Panics if `x` is not `[n, d_in]`.
    pub fn forward_inference_with(&self, x: &Tensor, eng: &ExecEngine) -> Tensor {
        self.forward_traced(x, eng).0
    }

    /// [`Int8Linear::forward_inference_with`] also returning the PSUM
    /// buffer traffic the APSQ fold incurred (zero for the exact path,
    /// whose accumulator never leaves registers in this model).
    pub fn forward_traced(&self, x: &Tensor, eng: &ExecEngine) -> (Tensor, BufferTraffic) {
        let q = Int8Tensor::quantize(x, self.x_scale);
        let fold = match &self.psum {
            Int8PsumPath::Exact => None,
            Int8PsumPath::Apsq {
                config,
                k_tile,
                schedule,
            } => Some((*k_tile, config.group_size, FoldScales::Frozen(schedule))),
        };
        let base = self.x_scale * self.w_scale;
        let (m, d_out) = (x.dims()[0], self.d_out());
        let mut y = vec![0.0f32; m * d_out];
        let traffic = SCRATCH.with(|s| {
            let s = &mut *s.borrow_mut();
            let k = self.d_in();
            let traffic = s.gemm.run(eng, m * d_out, k, fold, |_, buf| {
                eng.int8_packed_psums_into(q.data(), &self.weights, buf)
            });
            for (yrow, arow) in y
                .chunks_exact_mut(d_out)
                .zip(s.gemm.out.chunks_exact(d_out))
            {
                for ((yv, &av), &bf) in yrow.iter_mut().zip(arow).zip(&self.bias_f) {
                    // Multiply-then-add in the same order as the fake-quant
                    // epilogue (`out * base` then `+ b`), preserving
                    // bit-identity.
                    *yv = av as f32 * base + bf;
                }
            }
            traffic
        });
        (Tensor::from_vec(y, [m, d_out]), traffic)
    }

    /// PSUM-buffer traffic (in stored words) one `m`-row call incurs —
    /// the Algorithm-1 invariant counts: `np` writes and `np − 1` reads
    /// per output element regardless of `gs`, zero for the exact
    /// register-resident path.
    pub fn psum_words(&self, m: usize) -> BufferTraffic {
        let numel = (m * self.d_out()) as u64;
        match &self.psum {
            Int8PsumPath::Exact => BufferTraffic::new(),
            Int8PsumPath::Apsq { schedule, .. } => {
                let np = schedule.len() as u64;
                BufferTraffic {
                    writes: np * numel,
                    reads: (np - 1) * numel,
                }
            }
        }
    }
}

/// Integer-datapath multi-head self-attention, **integer end to end**:
/// the four projections run as [`Int8Linear`] GEMMs, the KV cache stores
/// i8 codes with per-(token, head) power-of-two scales
/// ([`Int8AttentionKvCache`]), and both activation-activation GEMMs —
/// `Q·Kᵀ` and `P·V` — execute as i8×i8→i32 batched kernels with grouped
/// APSQ folded over their K loops. Only the softmax (and the row-level
/// dequant/requant glue) stays f32, as on the paper's accelerator.
///
/// Q is quantized at a power-of-two scale **frozen at PTQ conversion**
/// from a calibration sequence; K/V rows are quantized as they enter the
/// cache at the tightest covering per-row scale. For `P·V` the softmax
/// probabilities absorb each value row's scale before requantization, so
/// the GEMM runs on one scale pair and APSQ folds over the **context
/// dimension** — the PSUM traffic that dominates memory-bound decode.
///
/// Every step is deterministic pure-integer or per-row f32 arithmetic, so
/// decode results are bit-identical across engine thread counts and batch
/// shapes, and incremental decode is bit-identical to the full-sequence
/// forward (both walk the same per-row cache math).
#[derive(Clone, Debug)]
pub struct Int8MultiHeadAttention {
    wq: Int8Linear,
    wk: Int8Linear,
    wv: Int8Linear,
    wo: Int8Linear,
    heads: usize,
    causal: bool,
    /// Frozen power-of-two exponent of the Q quantizer (`α_q = 2^e`).
    q_exp: i32,
    /// APSQ config + k_tile for the score/context PSUM streams, inherited
    /// from the source projections' PSUM mode (`None` = exact i32).
    seq_apsq: Option<(ApsqConfig, usize)>,
}

impl Int8MultiHeadAttention {
    /// PTQ-converts a trained attention layer: all four projections plus
    /// a frozen power-of-two Q scale calibrated from `calib` (the
    /// layer-normed block input the conversion pass propagates).
    ///
    /// # Panics
    ///
    /// Same conditions as [`Int8Linear::from_quant_linear`], plus an empty
    /// or non-finite calibration batch.
    pub fn from_float(attn: &crate::MultiHeadAttention, calib: &Tensor, eng: &ExecEngine) -> Self {
        let (wq, wk, wv, wo) = attn.projections();
        let seq_apsq = match wq.psum_mode() {
            PsumMode::Exact => None,
            PsumMode::Apsq { bits, gs, k_tile } => Some((
                ApsqConfig {
                    bits,
                    group_size: GroupSize::new(gs),
                },
                k_tile,
            )),
        };
        let wq = Int8Linear::from_quant_linear(wq);
        assert!(calib.dims()[0] > 0, "empty Q calibration batch");
        let q = wq.forward_inference_with(calib, eng);
        let max_abs = q.data().iter().fold(0.0f32, |m, &x| {
            // `f32::max` would silently swallow NaN (freezing a Q scale
            // unrelated to the data); check every element instead.
            assert!(x.is_finite(), "non-finite Q calibration value {x}");
            m.max(x.abs())
        });
        let q_exp = apsq_quant::covering_pow2_exponent(max_abs, 127.0);
        Int8MultiHeadAttention {
            wq,
            wk: Int8Linear::from_quant_linear(wk),
            wv: Int8Linear::from_quant_linear(wv),
            wo: Int8Linear::from_quant_linear(wo),
            heads: attn.heads(),
            causal: attn.is_causal(),
            q_exp,
            seq_apsq,
        }
    }

    /// The frozen power-of-two Q scale `α_q`.
    pub fn q_scale(&self) -> f32 {
        pow2_f32(self.q_exp)
    }

    /// Quantizes one `[d]` query row at the frozen Q scale.
    fn quantize_q_row(&self, row: &[f32]) -> Vec<i8> {
        let scale = self.q_scale();
        row.iter()
            .map(|&x| Int8Tensor::quantize_one(x, scale))
            .collect()
    }

    /// Attends one quantized query row over a cache prefix of length
    /// `t = cache.len()`, writing the `[d]` context row into `ctx` and
    /// returning the PSUM buffer traffic the two APSQ folds incurred.
    fn attend_row(
        &self,
        qc: &[i8],
        cache: &Int8AttentionKvCache,
        eng: &ExecEngine,
        ctx: &mut [f32],
    ) -> BufferTraffic {
        self.attend_row_view(qc, &Int8KvView::from_cache(cache), eng, ctx)
    }

    /// [`Self::attend_row`] over a flat KV view — the single attention
    /// kernel both the contiguous and the paged decode paths funnel into.
    ///
    /// Per head, both activation GEMMs write their step-major PSUM tiles
    /// straight from the cache rows into reused scratch and fold them in
    /// one calibrating [`ApsqFold`] pass (a per-head schedule committed
    /// step by step, exactly [`ScaleSchedule::calibrate`] + grouped APSQ
    /// over that head's tile stream).
    fn attend_row_view(
        &self,
        qc: &[i8],
        kv: &Int8KvView<'_>,
        eng: &ExecEngine,
        ctx: &mut [f32],
    ) -> BufferTraffic {
        let d = kv.width;
        let heads = self.heads;
        let dh = d / heads;
        let t = kv.len;
        let inv_sqrt = 1.0 / (dh as f32).sqrt();
        let score_scale = self.q_scale() * inv_sqrt;
        let fold = |k_tile: usize, config: &ApsqConfig| {
            (
                k_tile,
                config.group_size,
                FoldScales::Calibrate(config.bits),
            )
        };
        SCRATCH.with(|s| {
            let s = &mut *s.borrow_mut();
            let mut traffic = BufferTraffic::new();

            // Q·Kᵀ in the integer domain, per head: [1, dh] × [t, dh]ᵀ →
            // [1, t], dequantized with one scale per cached token — the
            // key row's covering scale — and 1/√dh folded into the
            // Q-side scale. No mask needed: the cache prefix *is* the
            // causal window.
            let mut scores = vec![0.0f32; heads * t];
            for h in 0..heads {
                let apsq = self.seq_apsq.as_ref().map(|(c, k)| fold(*k, c));
                traffic += s.gemm.run(eng, t, dh, apsq, |k_tile, buf| {
                    s.keys.repack_nk(&kv.k_codes[h * dh..], d, t, dh, k_tile);
                    eng.int8_packed_psums_into(&qc[h * dh..(h + 1) * dh], &s.keys, buf)
                });
                for (j, (o, &v)) in scores[h * t..(h + 1) * t]
                    .iter_mut()
                    .zip(&s.gemm.out)
                    .enumerate()
                {
                    *o = v as f32 * score_scale * pow2_f32(kv.k_exps[j * heads + h] as i32);
                }
            }

            // Softmax in f32, per head (row).
            let probs = softmax_rows(&Tensor::from_vec(scores, [heads, t]));

            // P·V: fold each value row's scale into the probabilities,
            // then requantize so the GEMM runs on a single scale pair and
            // APSQ can fold over the context (K) dimension.
            s.probs.resize(heads * t, 0);
            for h in 0..heads {
                let p = &probs.data()[h * t..(h + 1) * t];
                let r = |j: usize| p[j] * pow2_f32(kv.v_exps[j * heads + h] as i32);
                let max_abs = (0..t).fold(0.0f32, |m, j| m.max(r(j).abs()));
                let e = apsq_quant::covering_pow2_exponent(max_abs, 127.0);
                let scale = pow2_f32(e);
                for (j, c) in s.probs[h * t..(h + 1) * t].iter_mut().enumerate() {
                    *c = Int8Tensor::quantize_one(r(j), scale);
                }
                // The context GEMM reads this head's value columns in
                // place: its K axis is the context length, the cache's
                // row axis.
                let apsq = self.seq_apsq.as_ref().map(|(c, k)| fold(*k, c));
                traffic += s.gemm.run(eng, dh, t, apsq, |k_tile, buf| {
                    let (p, v) = (&s.probs[h * t..(h + 1) * t], &kv.v_codes[h * dh..]);
                    eng.int8_psums_into(p, v, d, dh, t, k_tile, buf)
                });
                for (o, &v) in ctx[h * dh..(h + 1) * dh].iter_mut().zip(&s.gemm.out) {
                    *o = v as f32 * scale;
                }
            }
            traffic
        })
    }

    /// Full-sequence inference over `[T, d]` — the integer twin of
    /// [`crate::MultiHeadAttention::forward_inference_with`], executed as
    /// the same per-row cache walk the decode path uses, so incremental
    /// decoding reproduces it **bit for bit**.
    pub fn forward_inference_with(&self, x: &Tensor, eng: &ExecEngine) -> Tensor {
        let (t, d) = (x.dims()[0], x.dims()[1]);
        let q = self.wq.forward_inference_with(x, eng);
        let k = self.wk.forward_inference_with(x, eng);
        let v = self.wv.forward_inference_with(x, eng);
        let mut cache = Int8AttentionKvCache::with_capacity(d, self.heads, t);
        let mut ctx = Tensor::zeros([t, d]);
        if self.causal {
            for i in 0..t {
                cache.append_row(&k.data()[i * d..(i + 1) * d], &v.data()[i * d..(i + 1) * d]);
                let qc = self.quantize_q_row(&q.data()[i * d..(i + 1) * d]);
                self.attend_row(&qc, &cache, eng, &mut ctx.data_mut()[i * d..(i + 1) * d]);
            }
        } else {
            for i in 0..t {
                cache.append_row(&k.data()[i * d..(i + 1) * d], &v.data()[i * d..(i + 1) * d]);
            }
            for i in 0..t {
                let qc = self.quantize_q_row(&q.data()[i * d..(i + 1) * d]);
                self.attend_row(&qc, &cache, eng, &mut ctx.data_mut()[i * d..(i + 1) * d]);
            }
        }
        self.wo.forward_inference_with(&ctx, eng)
    }

    /// Batched decode step over `[B, d]` with one **int8** KV cache per
    /// row; row `b` is bit-identical to decoding that sequence alone for
    /// every engine thread count (integer GEMMs are exact and
    /// row-independent, and all f32 glue is per-row).
    ///
    /// # Panics
    ///
    /// Panics if `x` is not `[B, d]` with one cache per row.
    pub fn forward_decode_batch_with(
        &self,
        x: &Tensor,
        caches: &mut [&mut Int8AttentionKvCache],
        eng: &ExecEngine,
    ) -> Tensor {
        self.forward_decode_batch_traced(x, caches, eng).0
    }

    /// [`Self::forward_decode_batch_with`] also returning the PSUM buffer
    /// traffic the attention APSQ folds incurred across the batch.
    pub fn forward_decode_batch_traced(
        &self,
        x: &Tensor,
        caches: &mut [&mut Int8AttentionKvCache],
        eng: &ExecEngine,
    ) -> (Tensor, BufferTraffic) {
        let b = x.dims()[0];
        assert_eq!(b, caches.len(), "one KV cache per batched sequence");
        let d = x.dims()[1];
        let q = self.wq.forward_inference_with(x, eng);
        let k = self.wk.forward_inference_with(x, eng);
        let v = self.wv.forward_inference_with(x, eng);
        for (i, cache) in caches.iter_mut().enumerate() {
            cache.append_row(&k.data()[i * d..(i + 1) * d], &v.data()[i * d..(i + 1) * d]);
        }
        let mut traffic = BufferTraffic::new();
        let mut ctx = Tensor::zeros([b, d]);
        for (i, cache) in caches.iter().enumerate() {
            let qc = self.quantize_q_row(&q.data()[i * d..(i + 1) * d]);
            traffic += self.attend_row(&qc, cache, eng, &mut ctx.data_mut()[i * d..(i + 1) * d]);
        }
        (self.wo.forward_inference_with(&ctx, eng), traffic)
    }

    /// Paged twin of [`Self::forward_decode_batch_with`]: each sequence's
    /// K/V rows for this layer live in fixed-size blocks owned by the
    /// shared **int8** [`crate::BlockPool`] and addressed through the
    /// sequence's [`crate::PagedKvState`] block table. Appends quantize
    /// through the same per-(token, head) covering-scale recipe as
    /// [`Int8AttentionKvCache`] under one short pool lock; attention
    /// gathers the table back into the same flat view the contiguous path
    /// reads via the pool's lock-free gather, so no allocator lock is
    /// held during the integer GEMMs — and the result is **bit-identical**
    /// to the contiguous path for every block size, engine thread count,
    /// and worker count.
    ///
    /// Positions are read but **not** advanced; the model driver calls
    /// [`crate::PagedKvState::advance`] once per step after all layers.
    ///
    /// # Panics
    ///
    /// Panics if `x` is not `[B, d]` with one state per row, or the block
    /// pool is exhausted.
    pub fn forward_decode_batch_paged_with(
        &self,
        x: &Tensor,
        layer: usize,
        pool: &crate::BlockPool,
        states: &mut [&mut crate::PagedKvState],
        eng: &ExecEngine,
    ) -> Tensor {
        self.forward_decode_batch_paged_traced(x, layer, pool, states, eng)
            .0
    }

    /// [`Self::forward_decode_batch_paged_with`] also returning the PSUM
    /// buffer traffic the attention APSQ folds incurred across the batch.
    pub fn forward_decode_batch_paged_traced(
        &self,
        x: &Tensor,
        layer: usize,
        pool: &crate::BlockPool,
        states: &mut [&mut crate::PagedKvState],
        eng: &ExecEngine,
    ) -> (Tensor, BufferTraffic) {
        let b = x.dims()[0];
        assert_eq!(b, states.len(), "one paged KV state per batched sequence");
        let d = x.dims()[1];
        let q = self.wq.forward_inference_with(x, eng);
        let k = self.wk.forward_inference_with(x, eng);
        let v = self.wv.forward_inference_with(x, eng);
        {
            let mut alloc = pool.lock();
            for (i, state) in states.iter_mut().enumerate() {
                state.append_row(
                    layer,
                    &mut alloc,
                    &k.data()[i * d..(i + 1) * d],
                    &v.data()[i * d..(i + 1) * d],
                );
            }
        }
        let mut traffic = BufferTraffic::new();
        let mut ctx = Tensor::zeros([b, d]);
        let (mut kc, mut vc) = (Vec::new(), Vec::new());
        let (mut ke, mut ve) = (Vec::new(), Vec::new());
        for (i, state) in states.iter().enumerate() {
            // This step's row was just appended but `advance` has not run.
            let t = state.position() + 1;
            pool.gather_int8(
                state.layer_blocks(layer),
                t,
                &mut kc,
                &mut vc,
                &mut ke,
                &mut ve,
            );
            let kv = Int8KvView {
                width: d,
                len: t,
                k_codes: &kc,
                v_codes: &vc,
                k_exps: &ke,
                v_exps: &ve,
            };
            let qc = self.quantize_q_row(&q.data()[i * d..(i + 1) * d]);
            traffic += self.attend_row_view(&qc, &kv, eng, &mut ctx.data_mut()[i * d..(i + 1) * d]);
        }
        (self.wo.forward_inference_with(&ctx, eng), traffic)
    }

    /// Analytic PSUM-buffer word counts (Algorithm-1 invariant: `np`
    /// writes, `np − 1` reads per output element, independent of `gs`)
    /// for one decode row attending a context of length `t` — `Q·Kᵀ`
    /// streams `⌈dh/k_tile⌉` tiles over `t` scores, `P·V` streams
    /// `⌈t/k_tile⌉` tiles over `dh` outputs, per head. Zero in exact mode
    /// and at `t = 0` (no cached context, no attention GEMMs).
    pub fn attn_psum_words(&self, t: usize) -> BufferTraffic {
        if t == 0 {
            return BufferTraffic::new();
        }
        match &self.seq_apsq {
            None => BufferTraffic::new(),
            Some((_, k_tile)) => {
                let dh = (self.wq.d_out() / self.heads) as u64;
                let h = self.heads as u64;
                let np_qk = (self.wq.d_out() / self.heads).div_ceil(*k_tile) as u64;
                let np_pv = t.div_ceil(*k_tile) as u64;
                let t = t as u64;
                BufferTraffic {
                    writes: h * (np_qk * t + np_pv * dh),
                    reads: h * ((np_qk - 1) * t + (np_pv - 1) * dh),
                }
            }
        }
    }

    /// PSUM words for one `m`-row call across all four projections.
    fn psum_words(&self, m: usize) -> BufferTraffic {
        let mut t = self.wq.psum_words(m);
        t += self.wk.psum_words(m);
        t += self.wv.psum_words(m);
        t += self.wo.psum_words(m);
        t
    }
}

/// Integer-datapath pre-LN transformer block: LayerNorm / GELU /
/// residuals in f32, every weight GEMM through [`Int8Linear`] with
/// requantization at each integer layer's input.
#[derive(Clone, Debug)]
pub struct Int8TransformerBlock {
    ln1: LayerNorm,
    attn: Int8MultiHeadAttention,
    ln2: LayerNorm,
    fc1: Int8Linear,
    fc2: Int8Linear,
}

impl Int8TransformerBlock {
    /// PTQ-converts a trained block; `x` is the block's calibration input
    /// (the conversion pass propagates activations layer by layer), used
    /// to freeze the attention Q scale.
    ///
    /// # Panics
    ///
    /// Same conditions as [`Int8Linear::from_quant_linear`].
    pub fn from_float(block: &crate::TransformerBlock, x: &Tensor, eng: &ExecEngine) -> Self {
        let (ln1, attn, ln2, fc1, fc2) = block.parts();
        let a = ln1.forward_inference(x);
        Int8TransformerBlock {
            ln1: ln1.clone(),
            attn: Int8MultiHeadAttention::from_float(attn, &a, eng),
            ln2: ln2.clone(),
            fc1: Int8Linear::from_quant_linear(fc1),
            fc2: Int8Linear::from_quant_linear(fc2),
        }
    }

    /// Full-sequence inference over `[T, d]`.
    pub fn forward_inference_with(&self, x: &Tensor, eng: &ExecEngine) -> Tensor {
        let a = self.ln1.forward_inference(x);
        let a = self.attn.forward_inference_with(&a, eng);
        let x1 = x + &a;
        self.ffn_inference(&x1, eng)
    }

    /// Batched decode step over `[B, d]` — one row and one **int8** KV
    /// cache per sequence.
    pub fn forward_decode_batch_with(
        &self,
        x: &Tensor,
        caches: &mut [&mut Int8AttentionKvCache],
        eng: &ExecEngine,
    ) -> Tensor {
        let a = self.ln1.forward_inference(x);
        let a = self.attn.forward_decode_batch_with(&a, caches, eng);
        let x1 = x + &a;
        self.ffn_inference(&x1, eng)
    }

    /// Paged twin of [`Self::forward_decode_batch_with`]: K/V for this
    /// block live in `layer`'s block table of each sequence's
    /// [`crate::PagedKvState`]. Bit-identical to the contiguous path (see
    /// [`Int8MultiHeadAttention::forward_decode_batch_paged_with`]).
    pub fn forward_decode_batch_paged_with(
        &self,
        x: &Tensor,
        layer: usize,
        pool: &crate::BlockPool,
        states: &mut [&mut crate::PagedKvState],
        eng: &ExecEngine,
    ) -> Tensor {
        let a = self.ln1.forward_inference(x);
        let a = self
            .attn
            .forward_decode_batch_paged_with(&a, layer, pool, states, eng);
        let x1 = x + &a;
        self.ffn_inference(&x1, eng)
    }

    /// Attention heads of the block.
    pub(crate) fn heads(&self) -> usize {
        self.attn.heads
    }

    /// Analytic attention PSUM words for one decode row at context `t`.
    fn attn_psum_words(&self, t: usize) -> BufferTraffic {
        self.attn.attn_psum_words(t)
    }

    fn ffn_inference(&self, x1: &Tensor, eng: &ExecEngine) -> Tensor {
        let f = self.ln2.forward_inference(x1);
        let h = self.fc1.forward_inference_with(&f, eng);
        let g = gelu(&h);
        let o = self.fc2.forward_inference_with(&g, eng);
        x1 + &o
    }

    fn psum_words(&self, m: usize) -> BufferTraffic {
        let mut t = self.attn.psum_words(m);
        t += self.fc1.psum_words(m);
        t += self.fc2.psum_words(m);
        t
    }
}

/// Integer-datapath causal decoder LM: the serving-path model. Embedding
/// lookups and LayerNorms stay f32; every projection, FFN, and the LM
/// head run as [`Int8Linear`] GEMMs, and the KV caches hold **i8 codes
/// with per-(token, head) power-of-two scales** so decode attention runs
/// `Q·Kᵀ` and `P·V` in the integer domain with grouped APSQ folded over
/// the context dimension ([`Int8MultiHeadAttention`]).
#[derive(Clone, Debug)]
pub struct Int8DecoderLm {
    embed: Embedding,
    blocks: Vec<Int8TransformerBlock>,
    ln: LayerNorm,
    lm_head: Int8Linear,
}

impl Int8DecoderLm {
    /// PTQ conversion pass: converts every [`QuantLinear`] site from its
    /// frozen training state and calibrates the (plain f32) LM head from
    /// the activations `calib_ids` produces at its input.
    ///
    /// # Panics
    ///
    /// Panics if the source model was never primed (uncalibrated
    /// quantizers / unwarmed observers) or `calib_ids` is empty.
    pub fn from_decoder(m: &DecoderLm, calib_ids: &[usize], eng: &ExecEngine) -> Self {
        assert!(
            !calib_ids.is_empty(),
            "need a non-empty calibration sequence"
        );
        let (embed, blocks, ln, lm_head) = m.parts();
        let mut h = embed.forward_inference(calib_ids);
        let mut int8_blocks = Vec::with_capacity(blocks.len());
        for b in blocks {
            int8_blocks.push(Int8TransformerBlock::from_float(b, &h, eng));
            h = b.forward_inference_with(&h, eng);
        }
        let hn = ln.forward_inference(&h);
        Int8DecoderLm {
            embed: embed.clone(),
            blocks: int8_blocks,
            ln: ln.clone(),
            lm_head: Int8Linear::from_linear(lm_head, &hn),
        }
    }

    /// Decoder depth (transformer blocks).
    pub fn num_layers(&self) -> usize {
        self.blocks.len()
    }

    /// Attention heads per block.
    ///
    /// # Panics
    ///
    /// Panics on a depth-0 model (never produced by the conversion pass).
    pub fn heads(&self) -> usize {
        self.blocks.first().expect("decoder has no blocks").heads()
    }

    /// Hidden width `d_model`.
    pub fn width(&self) -> usize {
        self.embed.tokens.value.dims()[1]
    }

    /// Vocabulary size.
    pub fn vocab(&self) -> usize {
        self.embed.tokens.value.dims()[0]
    }

    /// Maximum sequence length (positional-table rows).
    pub fn max_len(&self) -> usize {
        self.embed.positions.value.dims()[0]
    }

    /// Int8 KV-cache state with every layer preallocated for `max_len` —
    /// `2·(d + heads)` bytes per cached token instead of the f32 cache's
    /// `8·d`.
    pub fn new_kv_state_with_capacity(&self) -> Int8DecoderKvState {
        Int8DecoderKvState::for_layers_with_capacity(
            self.blocks.len(),
            self.width(),
            self.heads(),
            self.max_len(),
        )
    }

    /// Full-sequence inference: token ids → `[T, vocab]` logits.
    pub fn forward_inference_with(&self, ids: &[usize], eng: &ExecEngine) -> Tensor {
        let mut h = self.embed.forward_inference(ids);
        for b in &self.blocks {
            h = b.forward_inference_with(&h, eng);
        }
        let h = self.ln.forward_inference(&h);
        self.lm_head.forward_inference_with(&h, eng)
    }

    /// One autoregressive decode step (batch of one).
    ///
    /// # Panics
    ///
    /// Same conditions as [`Int8DecoderLm::decode_batch_with`].
    pub fn decode_step_with(
        &self,
        token: usize,
        state: &mut Int8DecoderKvState,
        eng: &ExecEngine,
    ) -> Tensor {
        self.decode_batch_with(&[token], std::slice::from_mut(state), eng)
    }

    /// Batched decode through the integer datapath: one token and one KV
    /// state per sequence, returning `[B, vocab]` next-token logits. Row
    /// `b` is bit-identical to decoding that sequence alone, for every
    /// engine thread count — integer GEMM rows are independent and exact,
    /// and the f32 glue is per-row.
    ///
    /// # Panics
    ///
    /// Panics if `tokens` and `states` lengths differ, the batch is
    /// empty, a state was built for a different depth, or a position
    /// exceeds `max_len`.
    pub fn decode_batch_with(
        &self,
        tokens: &[usize],
        states: &mut [Int8DecoderKvState],
        eng: &ExecEngine,
    ) -> Tensor {
        assert_eq!(tokens.len(), states.len(), "one KV state per token");
        assert!(!tokens.is_empty(), "empty decode batch");
        let d = self.width();
        let mut x = Tensor::zeros([tokens.len(), d]);
        for (i, (&t, s)) in tokens.iter().zip(states.iter()).enumerate() {
            assert_eq!(s.layers.len(), self.blocks.len(), "KV state depth mismatch");
            let row = self.embed.embed_one(t, s.position);
            x.data_mut()[i * d..(i + 1) * d].copy_from_slice(row.data());
        }
        let mut h = x;
        for (l, b) in self.blocks.iter().enumerate() {
            let mut caches: Vec<&mut Int8AttentionKvCache> =
                states.iter_mut().map(|s| &mut s.layers[l]).collect();
            h = b.forward_decode_batch_with(&h, &mut caches, eng);
        }
        let h = self.ln.forward_inference(&h);
        for s in states.iter_mut() {
            s.position += 1;
        }
        self.lm_head.forward_inference_with(&h, eng)
    }

    /// An empty paged KV state with one block table per decoder layer.
    /// Pair with an **int8** [`crate::BlockPool`] over an allocator sized
    /// by [`crate::BlockAllocator::int8`] from the model's `width()` and
    /// `heads()`.
    pub fn new_paged_state(&self) -> crate::PagedKvState {
        crate::PagedKvState::for_layers(self.blocks.len())
    }

    /// Paged twin of [`Int8DecoderLm::decode_batch_with`]: every
    /// sequence's KV lives in fixed-size blocks carved from the shared
    /// pool's byte budget instead of per-session contiguous buffers. The
    /// pool lock covers only appends; gathers are lock-free, so batches
    /// on other workers decode concurrently. Bit-identical to the
    /// contiguous path for every block size, engine thread count, and
    /// worker count (see
    /// [`Int8MultiHeadAttention::forward_decode_batch_paged_with`]).
    ///
    /// # Panics
    ///
    /// Panics if `tokens` and `states` lengths differ, the batch is
    /// empty, a state was built for a different depth, a position exceeds
    /// `max_len`, or the block pool is exhausted.
    pub fn decode_batch_paged_with(
        &self,
        tokens: &[usize],
        states: &mut [&mut crate::PagedKvState],
        pool: &crate::BlockPool,
        eng: &ExecEngine,
    ) -> Tensor {
        assert_eq!(tokens.len(), states.len(), "one KV state per token");
        assert!(!tokens.is_empty(), "empty decode batch");
        let d = self.width();
        let mut x = Tensor::zeros([tokens.len(), d]);
        for (i, (&t, s)) in tokens.iter().zip(states.iter()).enumerate() {
            assert_eq!(s.num_layers(), self.blocks.len(), "KV state depth mismatch");
            let row = self.embed.embed_one(t, s.position());
            x.data_mut()[i * d..(i + 1) * d].copy_from_slice(row.data());
        }
        let mut h = x;
        for (l, b) in self.blocks.iter().enumerate() {
            h = b.forward_decode_batch_paged_with(&h, l, pool, states, eng);
        }
        let h = self.ln.forward_inference(&h);
        for s in states.iter_mut() {
            s.advance();
        }
        self.lm_head.forward_inference_with(&h, eng)
    }

    /// PSUM-buffer traffic (stored words) one decode token incurs across
    /// every integer **projection/FFN/head** GEMM in the model — the
    /// Algorithm-1 invariant counts, independent of `gs`. Multiply by the
    /// storage format's bytes-per-word (`apsq_dataflow::PsumFormat::beta`)
    /// for bytes. Attention-GEMM traffic grows with the context; see
    /// [`Int8DecoderLm::attn_psum_words_at`].
    pub fn psum_words_per_token(&self) -> BufferTraffic {
        let mut t = BufferTraffic::new();
        for b in &self.blocks {
            t += b.psum_words(1);
        }
        t += self.lm_head.psum_words(1);
        t
    }

    /// PSUM-buffer traffic the **attention** APSQ folds incur for one
    /// decode token at context length `t`, summed over all layers.
    pub fn attn_psum_words_at(&self, t: usize) -> BufferTraffic {
        let mut words = BufferTraffic::new();
        for b in &self.blocks {
            words += b.attn_psum_words(t);
        }
        words
    }
}

/// Integer-datapath encoder classifier: quantized blocks plus the
/// nonlinear pooler/head converted by best-effort W8A8 PTQ.
#[derive(Clone, Debug)]
pub struct Int8EncoderClassifier {
    embed: Embedding,
    blocks: Vec<Int8TransformerBlock>,
    ln: LayerNorm,
    pooler: Int8Linear,
    head: Int8Linear,
}

impl Int8EncoderClassifier {
    /// PTQ conversion pass: converts every [`QuantLinear`] site and
    /// calibrates the pooler/head from the activations `calib_ids`
    /// produce at their inputs.
    ///
    /// # Panics
    ///
    /// Panics if the source model was never trained/primed or
    /// `calib_ids` is empty.
    pub fn from_classifier(m: &EncoderClassifier, calib_ids: &[usize], eng: &ExecEngine) -> Self {
        assert!(
            !calib_ids.is_empty(),
            "need a non-empty calibration sequence"
        );
        let (embed, blocks, ln, pooler, head) = m.parts();
        let mut h = embed.forward_inference(calib_ids);
        let mut int8_blocks = Vec::with_capacity(blocks.len());
        for b in blocks {
            int8_blocks.push(Int8TransformerBlock::from_float(b, &h, eng));
            h = b.forward_inference_with(&h, eng);
        }
        let hn = ln.forward_inference(&h);
        let pooled = &sum_axis0(&hn) * (1.0 / calib_ids.len() as f32);
        let pooled = pooled.reshape([1, hn.dims()[1]]);
        let z = pooler.forward_inference_with(&pooled, eng);
        Int8EncoderClassifier {
            embed: embed.clone(),
            blocks: int8_blocks,
            ln: ln.clone(),
            pooler: Int8Linear::from_linear(pooler, &pooled),
            head: Int8Linear::from_linear(head, &gelu(&z)),
        }
    }

    /// Inference: token ids → `[1, classes]` logits (mean-pooled).
    pub fn forward_inference_with(&self, ids: &[usize], eng: &ExecEngine) -> Tensor {
        let mut h = self.embed.forward_inference(ids);
        for b in &self.blocks {
            h = b.forward_inference_with(&h, eng);
        }
        let h = self.ln.forward_inference(&h);
        let pooled = &sum_axis0(&h) * (1.0 / ids.len() as f32);
        let pooled = pooled.reshape([1, h.dims()[1]]);
        let z = self.pooler.forward_inference_with(&pooled, eng);
        self.head.forward_inference_with(&gelu(&z), eng)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ModelConfig, TrainConfig};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn apsq_mode(gs: usize, k_tile: usize) -> PsumMode {
        PsumMode::Apsq {
            bits: Bitwidth::INT8,
            gs,
            k_tile,
        }
    }

    /// A calibrated + pow2-snapped QuantLinear and a matching input batch.
    fn snapped_layer(
        d_in: usize,
        d_out: usize,
        mode: PsumMode,
        seed: u64,
    ) -> (QuantLinear, Tensor) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut ql = QuantLinear::new(d_in, d_out, Bitwidth::INT8, mode, &mut rng);
        let calib = apsq_tensor::randn([4, d_in], 1.0, &mut rng);
        ql.calibrate(&calib, &ExecEngine::serial());
        ql.snap_pow2();
        let x = apsq_tensor::randn([3, d_in], 1.0, &mut rng);
        (ql, x)
    }

    #[test]
    fn exact_mode_is_bit_identical_to_fake_quant() {
        let (ql, x) = snapped_layer(24, 10, PsumMode::Exact, 3);
        let il = Int8Linear::from_quant_linear(&ql);
        for threads in [1usize, 4] {
            let eng = ExecEngine::with_threads(threads).with_spawn_threshold(0);
            assert_eq!(
                il.forward_inference_with(&x, &eng),
                ql.forward_inference_with(&x, &eng),
                "threads={threads}"
            );
        }
    }

    #[test]
    fn apsq_mode_is_bit_identical_to_fake_quant() {
        for (gs, k_tile) in [(1usize, 8usize), (2, 8), (3, 7), (4, 16)] {
            let (ql, x) = snapped_layer(32, 12, apsq_mode(gs, k_tile), 7);
            let il = Int8Linear::from_quant_linear(&ql);
            for threads in [1usize, 3] {
                let eng = ExecEngine::with_threads(threads).with_spawn_threshold(0);
                assert_eq!(
                    il.forward_inference_with(&x, &eng),
                    ql.forward_inference_with(&x, &eng),
                    "gs={gs} k_tile={k_tile} threads={threads}"
                );
            }
        }
    }

    #[test]
    fn traced_forward_reports_invariant_traffic() {
        let (ql, x) = snapped_layer(32, 6, apsq_mode(2, 8), 11);
        let il = Int8Linear::from_quant_linear(&ql);
        let (_, traffic) = il.forward_traced(&x, &ExecEngine::serial());
        // np = 4 tiles over 3 rows × 6 cols.
        assert_eq!(traffic.writes, 4 * 18);
        assert_eq!(traffic.reads, 3 * 18);
        assert_eq!(il.psum_words(3), traffic);
    }

    #[test]
    #[should_panic(expected = "uncalibrated QuantLinear")]
    fn conversion_requires_calibration() {
        let mut rng = StdRng::seed_from_u64(1);
        let ql = QuantLinear::new(8, 4, Bitwidth::INT8, PsumMode::Exact, &mut rng);
        let _ = Int8Linear::from_quant_linear(&ql);
    }

    #[test]
    fn from_linear_is_close_to_f32() {
        let mut rng = StdRng::seed_from_u64(5);
        let l = Linear::new(32, 8, &mut rng);
        let calib = apsq_tensor::randn([8, 32], 1.0, &mut rng);
        let il = Int8Linear::from_linear(&l, &calib);
        let x = apsq_tensor::randn([4, 32], 1.0, &mut rng);
        let eng = ExecEngine::serial();
        let y_fp = l.forward_inference_with(&x, &eng);
        let y_q = il.forward_inference_with(&x, &eng);
        let rel = (&y_q - &y_fp).norm() / y_fp.norm().max(1e-6);
        assert!(rel < 0.1, "PTQ error {rel}");
    }

    #[test]
    fn int8_decoder_decode_matches_its_full_forward() {
        let mut rng = StdRng::seed_from_u64(21);
        let cfg = ModelConfig::tiny(apsq_mode(2, 16));
        let mut m = crate::DecoderLm::new(&cfg, &mut rng);
        let prime: Vec<usize> = (0..cfg.max_len).map(|i| i % cfg.vocab).collect();
        let _ = m.forward(&prime);
        let eng = ExecEngine::serial();
        let im = Int8DecoderLm::from_decoder(&m, &prime, &eng);
        assert_eq!(im.num_layers(), 2);
        assert_eq!(im.vocab(), cfg.vocab);

        let ids = [3usize, 7, 1, 12, 5, 9];
        let full = im.forward_inference_with(&ids, &eng);
        let mut state = im.new_kv_state_with_capacity();
        let mut dec = Tensor::zeros([1, 1]);
        for &t in &ids {
            dec = im.decode_step_with(t, &mut state, &eng);
        }
        // Incremental int8 decode walks the exact per-row cache math of the
        // full-sequence forward: bit-identical, not merely close.
        let last = ids.len() - 1;
        for j in 0..cfg.vocab {
            assert_eq!(
                full.at(&[last, j]).to_bits(),
                dec.at(&[0, j]).to_bits(),
                "logit {j}: {} vs {}",
                full.at(&[last, j]),
                dec.at(&[0, j])
            );
        }
        let words = im.psum_words_per_token();
        assert!(words.writes > 0 && words.reads > 0);
        let attn_words = im.attn_psum_words_at(ids.len());
        assert!(attn_words.writes > 0);
    }

    #[test]
    fn decode_attention_traffic_matches_analytic_counts() {
        let mut rng = StdRng::seed_from_u64(41);
        let cfg = ModelConfig::tiny(apsq_mode(2, 4));
        let mut m = crate::DecoderLm::new(&cfg, &mut rng);
        let prime: Vec<usize> = (0..cfg.max_len).map(|i| i % cfg.vocab).collect();
        let _ = m.forward(&prime);
        let eng = ExecEngine::serial();
        let im = Int8DecoderLm::from_decoder(&m, &prime, &eng);

        // Drive one attention layer directly and compare traced traffic to
        // the Algorithm-1 invariant counts.
        let attn = &im.blocks[0].attn;
        let d = im.width();
        // Degenerate context: no cached rows means no attention GEMMs
        // (and no u64 underflow in the `np − 1` read counts).
        assert_eq!(attn.attn_psum_words(0), BufferTraffic::new());
        let mut cache = Int8AttentionKvCache::with_capacity(d, im.heads(), 16);
        for step in 0..9 {
            let x = apsq_tensor::randn([1, d], 1.0, &mut rng);
            let (_, traffic) = attn.forward_decode_batch_traced(&x, &mut [&mut cache], &eng);
            let t = step + 1;
            assert_eq!(
                traffic,
                attn.attn_psum_words(t),
                "context length {t}: traced traffic diverged from the analytic counts"
            );
        }
    }

    #[test]
    fn int8_kv_cache_is_4x_smaller_per_token() {
        let mut rng = StdRng::seed_from_u64(43);
        let cfg = ModelConfig::tiny(apsq_mode(2, 16));
        let mut m = crate::DecoderLm::new(&cfg, &mut rng);
        let prime: Vec<usize> = (0..cfg.max_len).map(|i| i % cfg.vocab).collect();
        let _ = m.forward(&prime);
        let eng = ExecEngine::serial();
        let im = Int8DecoderLm::from_decoder(&m, &prime, &eng);

        let mut i8_state = im.new_kv_state_with_capacity();
        let mut f32_state = m.new_kv_state_with_capacity();
        for &t in &[1usize, 2, 3] {
            let _ = im.decode_step_with(t, &mut i8_state, &eng);
            let _ = m.decode_step_with(t, &mut f32_state, &eng);
        }
        let f32_bytes = f32_state.kv_bytes();
        let i8_bytes = i8_state.kv_bytes();
        assert!(i8_bytes > 0);
        let ratio = f32_bytes as f64 / i8_bytes as f64;
        // tiny config: d = 64, heads = 4 ⇒ 8·64 / (2·(64 + 4)) = 3.76;
        // serving shapes with head_dim ≥ 40 exceed 3.9 (see kv_cache tests).
        assert!(ratio > 3.7, "per-token KV ratio {ratio}");
    }

    #[test]
    fn int8_decoder_batched_decode_is_bit_identical_to_sequential() {
        let mut rng = StdRng::seed_from_u64(23);
        let cfg = ModelConfig::tiny(apsq_mode(3, 8));
        let mut m = crate::DecoderLm::new(&cfg, &mut rng);
        let prime: Vec<usize> = (0..cfg.max_len).map(|i| i % cfg.vocab).collect();
        let _ = m.forward(&prime);
        let eng = ExecEngine::with_threads(4).with_spawn_threshold(0);
        let im = Int8DecoderLm::from_decoder(&m, &prime, &eng);

        let seqs: [&[usize]; 3] = [&[1, 2, 3], &[7, 7], &[4, 9, 2]];
        // Sequential reference.
        let mut solo_logits = Vec::new();
        for seq in &seqs {
            let mut st = im.new_kv_state_with_capacity();
            let mut last = Tensor::zeros([1, 1]);
            for &t in *seq {
                last = im.decode_step_with(t, &mut st, &eng);
            }
            solo_logits.push(last);
        }
        // Batched: step through in lockstep while sequences remain.
        let mut states: Vec<Int8DecoderKvState> =
            (0..3).map(|_| im.new_kv_state_with_capacity()).collect();
        let mut batched_last: Vec<Option<Tensor>> = vec![None; 3];
        for step in 0..3 {
            let active: Vec<usize> = (0..3).filter(|&i| step < seqs[i].len()).collect();
            let tokens: Vec<usize> = active.iter().map(|&i| seqs[i][step]).collect();
            let mut sts: Vec<Int8DecoderKvState> = Vec::new();
            for &i in &active {
                sts.push(states[i].clone());
            }
            let logits = im.decode_batch_with(&tokens, &mut sts, &eng);
            let vocab = logits.dims()[1];
            for (row, &i) in active.iter().enumerate() {
                states[i] = sts[row].clone();
                batched_last[i] = Some(Tensor::from_vec(
                    logits.data()[row * vocab..(row + 1) * vocab].to_vec(),
                    [1, vocab],
                ));
            }
        }
        for (i, solo) in solo_logits.iter().enumerate() {
            assert_eq!(batched_last[i].as_ref().unwrap(), solo, "sequence {i}");
        }
    }

    #[test]
    fn int8_paged_decode_is_bit_identical_to_contiguous() {
        let mut rng = StdRng::seed_from_u64(29);
        let cfg = ModelConfig::tiny(apsq_mode(2, 8));
        let mut m = crate::DecoderLm::new(&cfg, &mut rng);
        let prime: Vec<usize> = (0..cfg.max_len).map(|i| i % cfg.vocab).collect();
        let _ = m.forward(&prime);
        let im = Int8DecoderLm::from_decoder(&m, &prime, &ExecEngine::serial());

        let ids = [3usize, 7, 1, 12, 5, 9, 2];
        // Contiguous reference.
        let mut ref_state = im.new_kv_state_with_capacity();
        let mut reference = Tensor::zeros([1, 1]);
        for &t in &ids {
            reference = im.decode_step_with(t, &mut ref_state, &ExecEngine::serial());
        }
        for block_tokens in [1usize, 3, 8] {
            for threads in [1usize, 4] {
                let eng = ExecEngine::with_threads(threads).with_spawn_threshold(0);
                let budget = im.num_layers()
                    * ids.len().div_ceil(block_tokens)
                    * crate::BlockAllocator::int8_bytes_per_block(
                        block_tokens,
                        im.width(),
                        im.heads(),
                    );
                let pool = crate::BlockPool::new(crate::BlockAllocator::int8(
                    budget,
                    block_tokens,
                    im.width(),
                    im.heads(),
                ));
                let mut state = im.new_paged_state();
                let mut paged = Tensor::zeros([1, 1]);
                for &t in &ids {
                    paged = im.decode_batch_paged_with(&[t], &mut [&mut state], &pool, &eng);
                }
                assert_eq!(
                    paged, reference,
                    "block_tokens={block_tokens} threads={threads}"
                );
                let mut alloc = pool.lock();
                state.release(&mut alloc);
                assert_eq!(alloc.blocks_in_use(), 0);
            }
        }
    }

    #[test]
    fn int8_classifier_tracks_the_float_model() {
        let mut rng = StdRng::seed_from_u64(31);
        let cfg = ModelConfig::tiny(PsumMode::Exact);
        let mut m = EncoderClassifier::new(&cfg, 3, &mut rng);
        let calib: Vec<usize> = (0..8).map(|i| i % cfg.vocab).collect();
        let y_fp = m.forward(&calib);
        let eng = ExecEngine::serial();
        let im = Int8EncoderClassifier::from_classifier(&m, &calib, &eng);
        let y_q = im.forward_inference_with(&calib, &eng);
        assert_eq!(y_q.dims(), &[1, 3]);
        let rel = (&y_q - &y_fp).norm() / y_fp.norm().max(1e-6);
        assert!(rel < 0.35, "int8 classifier drifted: {rel}");
    }

    #[test]
    #[cfg_attr(
        debug_assertions,
        ignore = "QAT training is only fast enough in release"
    )]
    fn training_pipeline_to_int8_conversion_end_to_end() {
        // The full story: QAT-train a tiny decoder, convert, decode.
        let cfg = ModelConfig::tiny(apsq_mode(2, 16));
        let m = crate::qat::train_lm(&cfg, &TrainConfig::quick());
        let eng = ExecEngine::serial();
        let prime: Vec<usize> = (0..cfg.max_len).map(|i| i % cfg.vocab).collect();
        let im = Int8DecoderLm::from_decoder(&m, &prime, &eng);
        let mut st = im.new_kv_state_with_capacity();
        let logits = im.decode_step_with(1, &mut st, &eng);
        assert_eq!(logits.dims(), &[1, cfg.vocab]);
        assert!(logits.data().iter().all(|v| v.is_finite()));
    }
}
