//! Property-based tests for the APSQ algorithm invariants.

use apsq_core::{
    apsq_recursion_reference, exact_accumulate, grouped_apsq, grouped_apsq_f32,
    grouped_apsq_streamed, ApsqConfig, ApsqFold, FloatScaleSchedule, FoldScales, GroupSize,
    ScaleSchedule, StreamingApsq,
};
use apsq_quant::{Bitwidth, Pow2Scale};
use apsq_tensor::{int8_matmul_psum_tiles, ExecEngine, Int32Tensor, Int8Tensor, KernelBackend};
use proptest::prelude::*;

/// Algorithm 1 written out naively from the paper, element by element
/// with the scalar `Pow2Scale` maps and exact `i64` sums — an oracle
/// independent of the fold and its kernels. `pick(i, max_abs)` chooses
/// step `i`'s scale from the largest magnitude entering its quantizer
/// (saturated to i32, floored at 1). Returns the output tile, the stored
/// codes and the chosen scales.
fn naive_algorithm1(
    tiles: &[Vec<i32>],
    gs: usize,
    mut pick: impl FnMut(usize, i32) -> Pow2Scale,
) -> (Vec<i32>, Vec<Vec<i32>>, Vec<Pow2Scale>) {
    let np = tiles.len();
    let mut codes: Vec<Vec<i32>> = Vec::new();
    let mut scales: Vec<Pow2Scale> = Vec::new();
    for (i, tile) in tiles.iter().enumerate() {
        let reads = if i % gs == 0 {
            i.saturating_sub(gs)..i
        } else if i == np - 1 {
            (i / gs) * gs..i
        } else {
            i..i
        };
        let input: Vec<i64> = (0..tile.len())
            .map(|j| {
                let mut x = tile[j] as i64;
                for l in reads.clone() {
                    x += scales[l].dequantize(codes[l][j]) as i64;
                }
                x
            })
            .collect();
        let max_abs = input.iter().map(|v| v.unsigned_abs()).max().unwrap_or(0);
        let scale = pick(i, max_abs.clamp(1, i32::MAX as u64) as i32);
        let clamp = |x: i64| x.clamp(i32::MIN as i64, i32::MAX as i64) as i32;
        codes.push(input.iter().map(|&x| scale.quantize(clamp(x))).collect());
        scales.push(scale);
    }
    let last = scales[np - 1];
    let out = codes[np - 1].iter().map(|&c| last.dequantize(c)).collect();
    (out, codes, scales)
}

/// Raw PSUM tiles for the fold properties: moderate words, or (with
/// `big`) words across the whole i32 range that saturate the dequantize
/// shifter and the i32 clamp of the group sums.
fn raw_tiles() -> impl Strategy<Value = (Vec<Vec<i32>>, bool)> {
    (1usize..10, 1usize..20, any::<bool>()).prop_flat_map(|(np, numel, big)| {
        let word = if big {
            any::<i32>().boxed()
        } else {
            (-40_000i32..40_000).boxed()
        };
        (
            proptest::collection::vec(proptest::collection::vec(word, numel..=numel), np..=np),
            Just(big),
        )
    })
}

fn stream_strategy() -> impl Strategy<Value = Vec<Int32Tensor>> {
    (1usize..12, 1usize..16).prop_flat_map(|(np, numel)| {
        proptest::collection::vec(
            proptest::collection::vec(-20_000i32..20_000, numel..=numel),
            np..=np,
        )
        .prop_map(move |tiles| {
            tiles
                .into_iter()
                .map(|v| Int32Tensor::from_vec(v, [numel]))
                .collect()
        })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// gs = 1 must reduce exactly to the eq (10) recursion.
    #[test]
    fn gs1_equals_eq10(stream in stream_strategy()) {
        let sched = ScaleSchedule::calibrate(
            std::slice::from_ref(&stream),
            Bitwidth::INT8,
            GroupSize::new(1),
        );
        let run = grouped_apsq(&stream, &sched, &ApsqConfig::int8(1));
        let reference = apsq_recursion_reference(&stream, &sched);
        prop_assert_eq!(run.output, reference);
    }

    /// Buffer traffic is independent of group size: np·numel writes and
    /// (np−1)·numel reads, exactly (paper Section III-B).
    #[test]
    fn traffic_invariant(stream in stream_strategy(), gs in 1usize..9) {
        let np = stream.len() as u64;
        let numel = stream[0].numel() as u64;
        let sched = ScaleSchedule::calibrate(
            std::slice::from_ref(&stream),
            Bitwidth::INT8,
            GroupSize::new(gs),
        );
        let run = grouped_apsq(&stream, &sched, &ApsqConfig::int8(gs));
        prop_assert_eq!(run.traffic.writes, np * numel);
        prop_assert_eq!(run.traffic.reads, (np - 1) * numel);
    }

    /// Every stored code must fit the configured bit-width.
    #[test]
    fn stored_codes_fit_bitwidth(stream in stream_strategy(), gs in 1usize..6, bits in 3u8..9) {
        let b = Bitwidth::new(bits);
        let sched = ScaleSchedule::calibrate(
            std::slice::from_ref(&stream),
            b,
            GroupSize::new(gs),
        );
        let run = grouped_apsq(&stream, &sched, &ApsqConfig { bits: b, group_size: GroupSize::new(gs) });
        let r = b.signed_range();
        for codes in &run.stored_codes {
            for &c in codes {
                prop_assert!(r.contains(c), "code {} escapes {}", c, b);
            }
        }
    }

    /// With calibrated (non-clipping) scales, the APSQ output error vs the
    /// exact sum is bounded by the sum of per-step half-steps.
    #[test]
    fn error_bounded_by_accumulated_rounding(stream in stream_strategy(), gs in 1usize..5) {
        let sched = ScaleSchedule::calibrate(
            std::slice::from_ref(&stream),
            Bitwidth::INT8,
            GroupSize::new(gs),
        );
        let run = grouped_apsq(&stream, &sched, &ApsqConfig::int8(gs));
        let exact = exact_accumulate(&stream);
        // Worst case: each of the np quantizations contributes α_i/2, and
        // every earlier error can be carried through later requantization.
        let bound: i64 = sched
            .scales()
            .iter()
            .map(|s| (1i64 << s.exponent()) / 2 + 1)
            .sum::<i64>()
            * 2; // slack for error propagation through requantization
        for (a, e) in run.output.data().iter().zip(exact.data()) {
            prop_assert!(
                ((*a as i64) - (*e as i64)).abs() <= bound,
                "err {} exceeds bound {}",
                (*a as i64) - (*e as i64),
                bound
            );
        }
    }

    /// The float fake-quant twin agrees bit-for-bit with the integer golden
    /// model when scales are powers of two and inputs are integers.
    #[test]
    fn float_twin_bit_exact(stream in stream_strategy(), gs in 1usize..5) {
        let sched = ScaleSchedule::calibrate(
            std::slice::from_ref(&stream),
            Bitwidth::INT8,
            GroupSize::new(gs),
        );
        let fsched = FloatScaleSchedule::new(
            sched.scales().iter().map(|s| s.scale()).collect(),
            Bitwidth::INT8,
        );
        let float_tiles: Vec<_> = stream.iter().map(|t| t.to_f32()).collect();
        let int_run = grouped_apsq(&stream, &sched, &ApsqConfig::int8(gs));
        let f_out = grouped_apsq_f32(&float_tiles, &fsched, GroupSize::new(gs));
        for (a, b) in int_run.output.data().iter().zip(f_out.data()) {
            prop_assert_eq!(*a, *b as i32);
        }
    }

    /// The engine-driven streamed GEMM fold agrees with the batch API run
    /// over collected PSUM tiles — same output, same code bank, same
    /// traffic — for every group size, tile size, and thread count.
    #[test]
    fn streamed_equals_batch_for_all_group_sizes(
        (m, k, n) in (1usize..6, 2usize..40, 1usize..6),
        k_tile in 1usize..12,
        gs in 1usize..9,
        threads in 1usize..5,
        seed in any::<u32>(),
    ) {
        let a = Int8Tensor::from_vec(
            (0..m * k).map(|x| ((x as u32).wrapping_mul(37).wrapping_add(seed) % 255) as i8).collect(),
            [m, k],
        );
        let b = Int8Tensor::from_vec(
            (0..k * n).map(|x| ((x as u32).wrapping_mul(73).wrapping_add(seed / 3) % 251) as i8).collect(),
            [k, n],
        );
        let tiles = int8_matmul_psum_tiles(&a, &b, k_tile);
        let sched = ScaleSchedule::calibrate(
            std::slice::from_ref(&tiles),
            Bitwidth::INT8,
            GroupSize::new(gs),
        );
        let cfg = ApsqConfig { bits: Bitwidth::INT8, group_size: GroupSize::new(gs) };
        let batch = grouped_apsq(&tiles, &sched, &cfg);
        let streamed = grouped_apsq_streamed(
            &ExecEngine::with_threads(threads).with_spawn_threshold(0),
            &a, &b, k_tile, &sched, &cfg,
        );
        prop_assert_eq!(streamed.output, batch.output);
        prop_assert_eq!(streamed.stored_codes, batch.stored_codes);
        prop_assert_eq!(streamed.traffic, batch.traffic);
    }

    /// Calibrated schedules never clip: the dequantized range covers the
    /// exact partial results seen during the run.
    #[test]
    fn calibrated_run_is_deterministic(stream in stream_strategy(), gs in 1usize..5) {
        let sched = ScaleSchedule::calibrate(
            std::slice::from_ref(&stream),
            Bitwidth::INT8,
            GroupSize::new(gs),
        );
        let a = grouped_apsq(&stream, &sched, &ApsqConfig::int8(gs));
        let b = grouped_apsq(&stream, &sched, &ApsqConfig::int8(gs));
        prop_assert_eq!(a.output, b.output);
        prop_assert_eq!(a.stored_codes, b.stored_codes);
    }

    /// The one-pass fold equals the naive Algorithm 1 oracle, the
    /// push-based `StreamingApsq` (output, code bank, traffic), and — at
    /// gs = 1 — the eq (10) recursion, for every group size in
    /// `1..=np+1`, random frozen exponents up to 30, any bit-width, every
    /// kernel backend, and operands that hit the saturation clamps.
    #[test]
    fn fold_equals_reference_and_streaming(
        (tiles, _big) in raw_tiles(),
        exps in proptest::collection::vec(0u32..=30, 10),
        bits in prop_oneof![Just(4u8), Just(8), Just(16), Just(32)],
    ) {
        let np = tiles.len();
        let numel = tiles[0].len();
        let bw = Bitwidth::new(bits);
        let sched = ScaleSchedule::from_exponents(&exps[..np], bw);
        let tensors: Vec<Int32Tensor> =
            tiles.iter().map(|t| Int32Tensor::from_vec(t.clone(), [numel])).collect();
        for gs in 1..=np + 1 {
            let (want_out, want_codes, _) = naive_algorithm1(&tiles, gs, |i, _| sched.scale(i));
            let cfg = ApsqConfig { bits: bw, group_size: GroupSize::new(gs) };
            let mut stream = StreamingApsq::new(sched.clone(), cfg);
            for t in &tensors {
                stream.push_ref(t);
            }
            let streamed = stream.finish();
            prop_assert_eq!(streamed.output.data(), &want_out[..], "streaming gs={}", gs);
            prop_assert_eq!(&streamed.stored_codes, &want_codes, "streaming gs={}", gs);
            if gs == 1 {
                prop_assert_eq!(&apsq_recursion_reference(&tensors, &sched), &streamed.output);
            }
            for bk in KernelBackend::supported() {
                let mut psums = tiles.concat();
                let mut out = vec![0i32; numel];
                let traffic = ApsqFold::new().run(
                    bk, &mut psums, numel, GroupSize::new(gs), FoldScales::Frozen(&sched), &mut out,
                );
                prop_assert_eq!(&out, &want_out, "fold gs={} on {}", gs, bk);
                prop_assert_eq!(&psums, &want_codes.concat(), "codes gs={} on {}", gs, bk);
                prop_assert_eq!(traffic, streamed.traffic, "traffic gs={} on {}", gs, bk);
            }
        }
    }

    /// The calibrating fold commits exactly the schedule
    /// `ScaleSchedule::calibrate` returns and the naive oracle picks,
    /// and produces the output, codes and traffic of `grouped_apsq` run
    /// with that schedule — calibrate and fold in one pass.
    #[test]
    fn calibrating_fold_equals_calibrate_then_grouped(
        (tiles, _big) in raw_tiles(),
        gs in 1usize..11,
        bits in prop_oneof![Just(4u8), Just(8), Just(16)],
    ) {
        let numel = tiles[0].len();
        let bw = Bitwidth::new(bits);
        let tensors: Vec<Int32Tensor> =
            tiles.iter().map(|t| Int32Tensor::from_vec(t.clone(), [numel])).collect();
        let sched = ScaleSchedule::calibrate(std::slice::from_ref(&tensors), bw, GroupSize::new(gs));
        let (want_out, want_codes, want_scales) =
            naive_algorithm1(&tiles, gs, |_, m| Pow2Scale::covering(m, bw));
        prop_assert_eq!(sched.scales(), &want_scales[..]);
        let batch = grouped_apsq(&tensors, &sched, &ApsqConfig { bits: bw, group_size: GroupSize::new(gs) });
        prop_assert_eq!(batch.output.data(), &want_out[..]);
        prop_assert_eq!(&batch.stored_codes, &want_codes);
        for bk in KernelBackend::supported() {
            let mut fold = ApsqFold::new();
            let mut psums = tiles.concat();
            let mut out = vec![0i32; numel];
            let traffic = fold.run(
                bk, &mut psums, numel, GroupSize::new(gs), FoldScales::Calibrate(bw), &mut out,
            );
            prop_assert_eq!(fold.scales(), sched.scales(), "schedule on {}", bk);
            prop_assert_eq!(&out, &want_out, "output on {}", bk);
            prop_assert_eq!(&psums, &want_codes.concat(), "codes on {}", bk);
            prop_assert_eq!(traffic, batch.traffic, "traffic on {}", bk);
        }
    }

    /// The engine's one-sweep PSUM buffer folded by the calibrating fold
    /// equals calibrate + `grouped_apsq` over the collected K tiles of
    /// the same GEMM, for k-tiles that do not divide K and every thread
    /// count — the prefill and attention serving path.
    #[test]
    fn gemm_calibrating_fold_equals_collected_tiles(
        (m, k, n) in (1usize..6, 2usize..70, 1usize..9),
        k_tile in 1usize..20,
        gs in 1usize..6,
        threads in 1usize..4,
        seed in any::<u32>(),
    ) {
        let a: Vec<i8> = (0..m * k)
            .map(|x| ((x as u32).wrapping_mul(37).wrapping_add(seed) % 255) as i8)
            .collect();
        let bt: Vec<i8> = (0..n * k)
            .map(|x| ((x as u32).wrapping_mul(73).wrapping_add(seed / 3) % 251) as i8)
            .collect();
        let mut b = vec![0i8; k * n];
        for j in 0..n {
            for l in 0..k {
                b[l * n + j] = bt[j * k + l];
            }
        }
        let tiles = int8_matmul_psum_tiles(
            &Int8Tensor::from_vec(a.clone(), [m, k]),
            &Int8Tensor::from_vec(b, [k, n]),
            k_tile,
        );
        let sched = ScaleSchedule::calibrate(std::slice::from_ref(&tiles), Bitwidth::INT8, GroupSize::new(gs));
        let batch = grouped_apsq(&tiles, &sched, &ApsqConfig::int8(gs));
        let eng = ExecEngine::with_threads(threads).with_spawn_threshold(0);
        let mut psums = vec![0i32; tiles.len() * m * n];
        eng.int8_bt_psums_into(&a, &bt, k, k_tile, &mut psums);
        let mut out = vec![0i32; m * n];
        let mut fold = ApsqFold::new();
        let traffic = fold.run(
            eng.backend(), &mut psums, m * n, GroupSize::new(gs),
            FoldScales::Calibrate(Bitwidth::INT8), &mut out,
        );
        prop_assert_eq!(fold.scales(), sched.scales());
        prop_assert_eq!(&out[..], batch.output.data());
        prop_assert_eq!(traffic, batch.traffic);
    }
}
