//! Property-based tests for the NN substrate: metric ranges, data
//! generator validity, quantized-layer invariants, and the bits of the
//! f32 decode glue (LayerNorm, embeddings).

use apsq_nn::{
    accuracy, matthews_corr, mean_iou, spearman_rho, Embedding, GlueTask, Label, LayerNorm,
    LmFamily, PsumMode, QuantLinear, SegTask,
};
use apsq_quant::Bitwidth;
use apsq_tensor::{mean_axis1, var_axis1, Tensor};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn metrics_stay_in_range(
        preds in proptest::collection::vec(0usize..2, 2..64),
        seed in any::<u64>(),
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        use rand::Rng;
        let gold: Vec<usize> = (0..preds.len()).map(|_| rng.gen_range(0..2)).collect();
        let acc = accuracy(&preds, &gold);
        prop_assert!((0.0..=1.0).contains(&acc));
        let mcc = matthews_corr(&preds, &gold);
        prop_assert!((-1.0..=1.0).contains(&mcc));
        let miou = mean_iou(&preds, &gold, 2);
        prop_assert!((0.0..=1.0).contains(&miou));
    }

    #[test]
    fn spearman_in_range(
        x in proptest::collection::vec(-100.0f64..100.0, 3..32),
        seed in any::<u64>(),
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        use rand::Rng;
        let y: Vec<f64> = (0..x.len()).map(|_| rng.gen_range(-10.0..10.0)).collect();
        let rho = spearman_rho(&x, &y);
        prop_assert!((-1.0001..=1.0001).contains(&rho), "rho {rho}");
    }

    #[test]
    fn glue_examples_always_valid(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        for task in GlueTask::ALL {
            let ex = task.sample(&mut rng);
            prop_assert!(ex.tokens.len() <= 32);
            prop_assert!(ex.tokens.iter().all(|&t| t < 16));
            match ex.label {
                Label::Class(c) => prop_assert!(c < task.num_outputs()),
                Label::Value(v) => prop_assert!((0.0..=1.0).contains(&v)),
            }
        }
    }

    #[test]
    fn seg_examples_always_valid(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        for task in [SegTask::segformer(), SegTask::efficientvit()] {
            let (tokens, labels) = task.sample(&mut rng);
            prop_assert_eq!(tokens.len(), labels.len());
            prop_assert!(labels.iter().all(|&l| l < task.classes));
        }
    }

    #[test]
    fn lm_sequences_always_valid(seed in any::<u64>(), len in 8usize..40, vocab in 8usize..24) {
        let mut rng = StdRng::seed_from_u64(seed);
        for fam in LmFamily::ALL {
            let s = fam.sequence(len, vocab, &mut rng);
            prop_assert_eq!(s.len(), len);
            prop_assert!(s.iter().all(|&t| t < vocab));
            for &p in &fam.scored_positions(&s) {
                prop_assert!(p + 1 < len, "{fam:?}: scored position {p} out of range");
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The APSQ forward perturbs outputs but never produces NaN/Inf, for
    /// any group size and bit-width.
    #[test]
    fn quant_linear_apsq_forward_is_finite(
        gs in 1usize..6,
        bits in 4u8..9,
        seed in any::<u64>(),
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut layer = QuantLinear::new(
            32,
            8,
            Bitwidth::INT8,
            PsumMode::Apsq { bits: Bitwidth::new(bits), gs, k_tile: 8 },
            &mut rng,
        );
        let x = apsq_tensor::randn([4, 32], 1.0, &mut rng);
        let y = layer.forward(&x);
        prop_assert!(y.data().iter().all(|v| v.is_finite()));
        // Backward also stays finite.
        let dx = layer.backward(&Tensor::ones([4, 8]));
        prop_assert!(dx.data().iter().all(|v| v.is_finite()));
    }
}

/// LayerNorm as the per-element formula over `Tensor::at`: row mean and
/// biased variance from the axis reductions, then `((x − μ)·(var +
/// ε)^−½)·γ + β`, each step rounded to f32 in that order.
fn layer_norm_reference(ln: &LayerNorm, x: &Tensor) -> Tensor {
    let (n, d) = (x.dims()[0], x.dims()[1]);
    let (mu, var) = (mean_axis1(x), var_axis1(x));
    let mut y = vec![0.0f32; n * d];
    for i in 0..n {
        let inv_std = 1.0 / (var.at(&[i]) + 1e-5).sqrt();
        for j in 0..d {
            let x_hat = (x.at(&[i, j]) - mu.at(&[i])) * inv_std;
            y[i * d + j] = x_hat * ln.gamma.value.at(&[j]) + ln.beta.value.at(&[j]);
        }
    }
    Tensor::from_vec(y, [n, d])
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The slice-walking LayerNorm reproduces the per-element formula bit
    /// for bit, in inference and in the training forward, at one row,
    /// sixteen rows, and random shapes.
    #[test]
    fn layer_norm_matches_per_element_reference_bitwise(
        n in prop_oneof![Just(1usize), Just(16), 1usize..20],
        d in prop_oneof![Just(1usize), Just(16), 1usize..40],
        scale in 0.01f32..100.0,
        seed in any::<u64>(),
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut ln = LayerNorm::new(d);
        ln.gamma.value = apsq_tensor::randn([d], 1.0, &mut rng);
        ln.beta.value = apsq_tensor::randn([d], 1.0, &mut rng);
        let x = &apsq_tensor::randn([n, d], scale, &mut rng) + scale;
        let want = layer_norm_reference(&ln, &x);
        let bits = |t: &Tensor| t.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        prop_assert_eq!(bits(&ln.forward_inference(&x)), bits(&want));
        prop_assert_eq!(bits(&ln.forward(&x)), bits(&want));
    }

    /// A decode step's single-token embedding is bit for bit the row of
    /// the full-sequence embedding at that position.
    #[test]
    fn embed_one_is_the_sequence_row_bitwise(
        vocab in 1usize..20,
        d in prop_oneof![Just(1usize), Just(16), 1usize..40],
        len in 1usize..12,
        seed in any::<u64>(),
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let e = Embedding::new(vocab, 12, d, &mut rng);
        use rand::Rng;
        let ids: Vec<usize> = (0..len).map(|_| rng.gen_range(0..vocab)).collect();
        let full = e.forward_inference(&ids);
        for (pos, &id) in ids.iter().enumerate() {
            let one = e.embed_one(id, pos);
            let row = &full.data()[pos * d..(pos + 1) * d];
            prop_assert_eq!(one.dims(), &[1, d]);
            for (a, b) in one.data().iter().zip(row) {
                prop_assert_eq!(a.to_bits(), b.to_bits());
            }
        }
    }
}
