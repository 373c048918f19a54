//! Property tests pinning the true integer datapath (`Int8Linear`,
//! `Int8DecoderLm`) **bit-exact** to the fake-quant `QuantLinear`
//! reference under power-of-two scales, across random shapes, group
//! sizes, K-tiles, and engine thread counts.
//!
//! The contract: snap a calibrated `QuantLinear`'s learned scales to
//! powers of two (`snap_pow2` — the hardware-realizable
//! reparameterization), PTQ-convert it, and the i8×i8→i32 GEMM with the
//! one-pass `ApsqFold` must reproduce the f32 fake-quant inference
//! **bit for bit**: products and partial sums are exactly representable
//! in f32, both paths derive the frozen PSUM schedule from the same
//! float expression, and the integer and float APSQ recursions agree
//! under pow2 scales. Any rounding-mode mismatch, schedule drift, or
//! reduction-order dependence breaks these assertions.

use apsq_nn::{
    BlockAllocator, BlockPool, DecoderLm, Int8DecoderLm, Int8Linear, Int8MultiHeadAttention,
    ModelConfig, MultiHeadAttention, PagedKvState, PsumMode, QuantLinear,
};
use apsq_quant::Bitwidth;
use apsq_tensor::{ExecEngine, Int8Tensor, Tensor};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn psum_mode(apsq: bool, gs: usize, k_tile: usize) -> PsumMode {
    if apsq {
        PsumMode::Apsq {
            bits: Bitwidth::INT8,
            gs,
            k_tile,
        }
    } else {
        PsumMode::Exact
    }
}

/// A calibrated, pow2-snapped layer plus a fresh input batch.
fn snapped_layer(
    seed: u64,
    d_in: usize,
    d_out: usize,
    rows: usize,
    mode: PsumMode,
) -> (QuantLinear, Tensor) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut ql = QuantLinear::new(d_in, d_out, Bitwidth::INT8, mode, &mut rng);
    // Two calibration batches: the EMA observers move off their initial
    // values, exercising the blended frozen schedule.
    let eng = ExecEngine::serial();
    let c1 = apsq_tensor::randn([3, d_in], 1.0, &mut rng);
    let c2 = apsq_tensor::randn([2, d_in], 1.5, &mut rng);
    ql.calibrate(&c1, &eng);
    ql.calibrate(&c2, &eng);
    ql.snap_pow2();
    let x = apsq_tensor::randn([rows, d_in], 1.0, &mut rng);
    (ql, x)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The integer layer reproduces the fake-quant inference forward bit
    /// for bit — every shape, group size, K-tile, and thread count.
    #[test]
    fn int8_linear_is_bit_exact_to_fake_quant(
        seed in any::<u64>(),
        d_in in 4usize..64,
        d_out in 1usize..24,
        rows in 1usize..6,
        apsq in any::<bool>(),
        gs in 1usize..6,
        k_tile in 2usize..17,
        threads in 1usize..5,
    ) {
        let (ql, x) = snapped_layer(seed, d_in, d_out, rows, psum_mode(apsq, gs, k_tile));
        let il = Int8Linear::from_quant_linear(&ql);
        let eng = ExecEngine::with_threads(threads).with_spawn_threshold(0);
        let want = ql.forward_inference_with(&x, &eng);
        let got = il.forward_inference_with(&x, &eng);
        prop_assert_eq!(got.dims(), want.dims());
        for (i, (g, w)) in got.data().iter().zip(want.data()).enumerate() {
            prop_assert!(
                g.to_bits() == w.to_bits(),
                "element {i}: int8 {g:?} != fake-quant {w:?} \
                 (d_in={d_in} d_out={d_out} apsq={apsq} gs={gs} k_tile={k_tile} threads={threads})"
            );
        }
    }

    /// The integer layer is itself thread-invariant: every thread count
    /// produces the serial engine's bits.
    #[test]
    fn int8_linear_is_thread_invariant(
        seed in any::<u64>(),
        d_in in 4usize..48,
        d_out in 1usize..16,
        gs in 1usize..5,
        k_tile in 2usize..11,
    ) {
        let (ql, x) = snapped_layer(seed, d_in, d_out, 4, psum_mode(true, gs, k_tile));
        let il = Int8Linear::from_quant_linear(&ql);
        let want = il.forward_inference_with(&x, &ExecEngine::serial());
        for threads in [2usize, 3, 8] {
            let eng = ExecEngine::with_threads(threads).with_spawn_threshold(0);
            prop_assert_eq!(&il.forward_inference_with(&x, &eng), &want, "threads={}", threads);
        }
    }

    /// The int8 KV pool's quantization round trip: codes and exponents
    /// gathered from the block table dequantize to within half a step of
    /// every appended row's per-(token, head) covering scale, stay in the
    /// i8 range, and sit on their scale's lattice (requantizing the
    /// dequantized value at the same scale is exactly lossless).
    #[test]
    fn int8_kv_pool_roundtrip_invariants(
        seed in any::<u64>(),
        heads in 1usize..5,
        dh in 1usize..9,
        rows in 1usize..48,
        block_tokens in 1usize..9,
        magnitude in 0.01f32..100.0,
    ) {
        let width = heads * dh;
        let mut rng = StdRng::seed_from_u64(seed);
        let pool = BlockPool::new(BlockAllocator::int8(
            rows.div_ceil(block_tokens)
                * BlockAllocator::int8_bytes_per_block(block_tokens, width, heads),
            block_tokens,
            width,
            heads,
        ));
        let mut state = PagedKvState::for_layers(1);
        let mut appended: Vec<Vec<f32>> = Vec::new();
        for _ in 0..rows {
            let k = apsq_tensor::randn([1, width], magnitude, &mut rng);
            let v = apsq_tensor::randn([1, width], magnitude, &mut rng);
            state.append_row(0, &mut pool.lock(), k.data(), v.data());
            state.advance();
            appended.push(k.data().to_vec());
        }
        let (mut kc, mut vc, mut ke, mut ve) = (Vec::new(), Vec::new(), Vec::new(), Vec::new());
        pool.gather_int8(state.layer_blocks(0), rows, &mut kc, &mut vc, &mut ke, &mut ve);
        prop_assert_eq!(kc.len(), rows * width);
        prop_assert_eq!(ke.len(), rows * heads);

        for (t, row) in appended.iter().enumerate() {
            for h in 0..heads {
                let scale = (ke[t * heads + h] as f32).exp2();
                for j in 0..dh {
                    let idx = t * width + h * dh + j;
                    let src = row[h * dh + j];
                    let code = kc[idx];
                    let deq = code as f32 * scale;
                    // The dequantized code sits within half a step of the
                    // source row...
                    prop_assert!(
                        (deq - src).abs() <= scale * 0.5 + 1e-6,
                        "row {t} head {h} lane {j}: {} vs {}", deq, src
                    );
                    // ...on its scale's lattice: requantizing is lossless.
                    prop_assert_eq!(Int8Tensor::quantize_one(deq, scale), code);
                    // Covering scale: codes never saturate past the range.
                    prop_assert!((-128.0..=127.0).contains(&(code as f32)));
                }
            }
        }
        state.release(&mut pool.lock());
    }

    /// The integer paged attention decode tracks the f32 fake-quant paged
    /// attention reference within a bounded relative error — the KV
    /// quantization
    /// (per-row pow2 K/V scales, frozen Q scale, requantized P, APSQ
    /// folds) adds noise but can never drift unboundedly.
    #[test]
    fn int8_attention_decode_is_bounded_error_vs_f32(
        seed in any::<u64>(),
        heads in 1usize..4,
        steps in 1usize..6,
        apsq in any::<bool>(),
        gs in 1usize..4,
        k_tile in 2usize..9,
    ) {
        let d = 8 * heads;
        let mut rng = StdRng::seed_from_u64(seed);
        let mut attn = MultiHeadAttention::new(
            d, heads, Bitwidth::INT8, psum_mode(apsq, gs, k_tile), true, &mut rng,
        );
        let prime = apsq_tensor::randn([6, d], 1.0, &mut rng);
        let _ = attn.forward(&prime);
        let eng = ExecEngine::serial();
        let iattn = Int8MultiHeadAttention::from_float(&attn, &prime, &eng);

        let f32_pool = BlockPool::new(BlockAllocator::f32(
            BlockAllocator::f32_bytes_per_block(steps, d),
            steps,
            d,
        ));
        let i8_pool = BlockPool::new(BlockAllocator::int8(
            BlockAllocator::int8_bytes_per_block(steps, d, heads),
            steps,
            d,
            heads,
        ));
        let (mut f32_state, mut i8_state) = (PagedKvState::for_layers(1), PagedKvState::for_layers(1));
        for step in 0..steps {
            let x = apsq_tensor::randn([1, d], 1.0, &mut rng);
            let want =
                attn.forward_decode_batch_paged_with(&x, 0, &f32_pool, &mut [&mut f32_state], &eng);
            let got =
                iattn.forward_decode_batch_paged_with(&x, 0, &i8_pool, &mut [&mut i8_state], &eng);
            f32_state.advance();
            i8_state.advance();
            // Softmax-averaged context rows can nearly cancel, so
            // normalize by the activation scale as well as the output
            // norm — the bound still catches any scale or schedule bug
            // (which drifts by orders of magnitude, not fractions).
            let rel = (&got - &want).norm() / want.norm().max(x.norm());
            prop_assert!(
                rel < 0.35,
                "step {step}: int8 attention drifted {rel} from the f32 reference \
                 (heads={heads} apsq={apsq} gs={gs} k_tile={k_tile})"
            );
        }
    }

    /// Model-level: batched integer decode returns, in row `b`, exactly
    /// the bits that sequence gets decoding alone on a serial engine.
    #[test]
    fn int8_decoder_batched_decode_is_bit_identical_to_sequential(
        seed in any::<u64>(),
        heads in 1usize..3,
        batch in 1usize..5,
        steps in 1usize..4,
        gs in 1usize..4,
        threads in 1usize..4,
    ) {
        let cfg = ModelConfig {
            vocab: 16,
            max_len: 16,
            d_model: 8 * heads,
            heads,
            d_ff: 16 * heads,
            layers: 2,
            bits: Bitwidth::INT8,
            psum_mode: psum_mode(true, gs, 8),
        };
        let mut rng = StdRng::seed_from_u64(seed);
        let mut m = DecoderLm::new(&cfg, &mut rng);
        let prime: Vec<usize> = (0..cfg.max_len).map(|i| i % cfg.vocab).collect();
        let _ = m.forward(&prime);
        let im = Int8DecoderLm::from_decoder(&m, &prime, &ExecEngine::serial());

        let eng = ExecEngine::with_threads(threads).with_spawn_threshold(0);
        let serial = ExecEngine::serial();
        let pool = BlockPool::new(BlockAllocator::int8(
            2 * batch * im.num_layers() * BlockAllocator::int8_bytes_per_block(steps, im.width(), im.heads()),
            steps,
            im.width(),
            im.heads(),
        ));
        let mut batched: Vec<_> = (0..batch).map(|_| im.new_paged_state()).collect();
        let mut lone: Vec<_> = (0..batch).map(|_| im.new_paged_state()).collect();
        for s in 0..steps {
            let tokens: Vec<usize> =
                (0..batch).map(|b| (seed as usize + s * 7 + b * 3) % cfg.vocab).collect();
            let mut rows: Vec<_> = batched.iter_mut().collect();
            let out = im.decode_batch_paged_with(&tokens, &mut rows, &pool, &eng);
            prop_assert_eq!(out.dims(), &[batch, cfg.vocab]);
            for b in 0..batch {
                let alone =
                    im.decode_batch_paged_with(&[tokens[b]], &mut [&mut lone[b]], &pool, &serial);
                for j in 0..cfg.vocab {
                    prop_assert!(
                        out.at(&[b, j]).to_bits() == alone.at(&[0, j]).to_bits(),
                        "round {s} row {b} logit {j}: batched {:?} != alone {:?}",
                        out.at(&[b, j]),
                        alone.at(&[0, j])
                    );
                }
            }
        }
    }
}
