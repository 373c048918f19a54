//! Property-based SIMD⇔scalar bit-identity tests.
//!
//! Every kernel backend (`Scalar`, `Sse2`, `Avx2` where the CPU supports
//! them) must produce **bit-identical** results for the same inputs: the
//! i8 path is exact integer arithmetic in any association, the APSQ fold
//! epilogues are elementwise integer maps, and the f32 path pins one
//! per-element lane-reduction order that all backends implement. These properties force each backend through
//! [`ExecEngine::with_backend`] and compare against the scalar reference
//! across random shapes (including ragged MR/NR/LANES tails), K ranges,
//! leading dimensions, and thread counts.

use apsq_tensor::{
    fold_dequantize, fold_max_abs, fold_requantize, ExecEngine, Int32Tensor, Int8Tensor,
    KernelBackend, PackedI8, Tensor,
};
use proptest::prelude::*;

/// Deterministic seed-mixed i8 fill, so proptest-drawn seeds really vary
/// the operand data across cases.
fn seeded_i8(m: usize, n: usize, seed: u32) -> Int8Tensor {
    Int8Tensor::from_vec(
        (0..m * n)
            .map(|x| ((x as u32).wrapping_mul(37).wrapping_add(seed) % 255) as i8)
            .collect(),
        [m, n],
    )
}

/// Hashed fill over the whole i8 range, −128 included; `extreme` makes
/// every code −128, the largest product magnitude.
fn full_range_i8(len: usize, seed: u32, extreme: bool) -> Vec<i8> {
    (0..len)
        .map(|x| {
            let h = (x as u32).wrapping_mul(2654435761).wrapping_add(seed);
            if extreme {
                i8::MIN
            } else {
                (h >> 13) as u8 as i8
            }
        })
        .collect()
}

/// Deterministic f32 fill with awkward magnitudes (rounding-sensitive).
fn seeded_f32(m: usize, n: usize, seed: u32) -> Tensor {
    Tensor::from_vec(
        (0..m * n)
            .map(|x| {
                let h = (x as u32).wrapping_mul(2654435761).wrapping_add(seed);
                (h % 4001) as f32 / 400.0 - 5.0
            })
            .collect(),
        [m, n],
    )
}

/// Shapes that straddle the register-tile edges: MR = 4 rows, NR = 8
/// columns, 8 f32 dot lanes. Small offsets around multiples of each
/// exercise every ragged-tail path.
fn ragged_dims() -> impl Strategy<Value = (usize, usize, usize)> {
    (
        prop_oneof![1usize..5, 7usize..10, 15usize..18],
        (0usize..4)
            .prop_map(|e| 8 * e + 1)
            .prop_flat_map(|base| base..base + 7),
        prop_oneof![1usize..9, 15usize..19, 63usize..67, 255usize..261],
    )
}

fn scalar_engine(threads: usize) -> ExecEngine {
    ExecEngine::with_threads(threads)
        .with_spawn_threshold(0)
        .with_backend(KernelBackend::Scalar)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// All three f32 kernels (plain, bᵀ, aᵀ) are bit-identical on every
    /// supported backend, at ragged shapes and across thread counts.
    #[test]
    fn f32_kernels_bit_identical_across_backends(
        (m, k, n) in ragged_dims(),
        threads in 1usize..5,
        seed in any::<u16>(),
    ) {
        let a = seeded_f32(m, k, seed as u32);
        let b = seeded_f32(k, n, seed as u32 ^ 0x9e37);
        let reference = scalar_engine(threads);
        let want = reference.matmul(&a, &b);
        let want_bt = reference.matmul_bt(&a, &b.transpose());
        let want_at = reference.matmul_at(&a.transpose(), &b);
        for bk in KernelBackend::supported() {
            let eng = ExecEngine::with_threads(threads)
                .with_spawn_threshold(0)
                .with_backend(bk);
            prop_assert_eq!(&eng.matmul(&a, &b), &want, "matmul on {}", bk);
            prop_assert_eq!(&eng.matmul_bt(&a, &b.transpose()), &want_bt, "bt on {}", bk);
            prop_assert_eq!(&eng.matmul_at(&a.transpose(), &b), &want_at, "at on {}", bk);
        }
    }

    /// The i8 GEMMs ([K, N] and transposed-weight layouts) are exact on
    /// every backend — any association of integer adds gives one answer.
    #[test]
    fn i8_kernels_bit_identical_across_backends(
        (m, k, n) in ragged_dims(),
        threads in 1usize..5,
        seed in any::<u16>(),
    ) {
        let a = seeded_i8(m, k, seed as u32);
        let b = seeded_i8(k, n, seed as u32 ^ 0x51ed);
        // bᵀ stored [N, K].
        let mut bt = vec![0i8; n * k];
        for l in 0..k {
            for j in 0..n {
                bt[j * k + l] = b.data()[l * n + j];
            }
        }
        let bt = Int8Tensor::from_vec(bt, [n, k]);
        let reference = scalar_engine(threads);
        let want = reference.int8_matmul(&a, &b);
        for bk in KernelBackend::supported() {
            let eng = ExecEngine::with_threads(threads)
                .with_spawn_threshold(0)
                .with_backend(bk);
            prop_assert_eq!(&eng.int8_matmul(&a, &b), &want, "i8 on {}", bk);
            prop_assert_eq!(&eng.int8_matmul_bt(&a, &bt), &want, "i8 bt on {}", bk);
        }
    }

    /// Streaming K-tiles hand out bit-identical partial sums on every
    /// backend for every K partition — the property the APSQ fold relies
    /// on when it quantizes PSUM tiles mid-reduction.
    #[test]
    fn k_tile_streams_bit_identical_across_backends(
        (m, k, n) in ragged_dims(),
        k_tile in 1usize..33,
        seed in any::<u16>(),
    ) {
        let a = seeded_i8(m, k, seed as u32);
        let b = seeded_i8(k, n, seed as u32 ^ 0x77aa);
        let af = seeded_f32(m, k, seed as u32 ^ 0x0f0f);
        let bf = seeded_f32(k, n, seed as u32 ^ 0xf0f0);
        let reference = scalar_engine(1);
        let want_i8 = reference.int8_matmul_psum_tiles(&a, &b, k_tile);
        let want_f32 = reference.matmul_psum_tiles(&af, &bf, k_tile);
        for bk in KernelBackend::supported() {
            let eng = ExecEngine::serial().with_backend(bk);
            prop_assert_eq!(&eng.int8_matmul_psum_tiles(&a, &b, k_tile), &want_i8,
                "i8 tiles on {}", bk);
            prop_assert_eq!(&eng.matmul_psum_tiles(&af, &bf, k_tile), &want_f32,
                "f32 tiles on {}", bk);
        }
    }

    /// The raw ranged block GEMM agrees bit-for-bit across backends with
    /// arbitrary leading dimensions (sub-blocks of larger buffers) and
    /// partial K ranges.
    #[test]
    fn gemm_block_bit_identical_with_leading_dims(
        (m, k, n) in ragged_dims(),
        (pada, padb, pado) in (0usize..5, 0usize..5, 0usize..5),
        (kcut0, kcut1) in (0usize..8, 0usize..8),
        seed in any::<u16>(),
    ) {
        let (lda, ldb, ldo) = (k + pada, n + padb, n + pado);
        let k0 = kcut0.min(k.saturating_sub(1));
        let k1 = (k - kcut1.min(k - k0 - 1)).max(k0 + 1);
        let a = seeded_i8(m, lda, seed as u32);
        let b = seeded_i8(k, ldb, seed as u32 ^ 0x1234);
        let mut want = vec![0i32; m * ldo];
        scalar_engine(1).int8_gemm_block(
            a.data(), lda, b.data(), ldb, &mut want, ldo, m, n, k0, k1);
        for bk in KernelBackend::supported() {
            let mut got = vec![0i32; m * ldo];
            ExecEngine::serial().with_backend(bk).int8_gemm_block(
                a.data(), lda, b.data(), ldb, &mut got, ldo, m, n, k0, k1);
            prop_assert_eq!(&got, &want, "block gemm on {}", bk);
        }
    }

    /// The packed-operand PSUM sweep (every serving GEMM's APSQ input)
    /// writes the naive per-step sums on every backend and thread count:
    /// ragged `n` (including `n % 8 != 0` and `n = 1`), row counts on
    /// both sides of the 4-row block, odd `k_tile`s and ones that do not
    /// divide K, full-range codes and the all-−128 extreme. Packing the
    /// same matrix from `[N, K]` and from `[K, N]` gives one operand.
    #[test]
    fn packed_psums_equal_naive_step_sums_on_every_backend(
        m in 1usize..10,
        n in prop_oneof![Just(1usize), 1usize..40],
        k in 1usize..80,
        k_tile in 1usize..40,
        threads in 1usize..4,
        extreme in any::<bool>(),
        seed in any::<u32>(),
    ) {
        let a = full_range_i8(m * k, seed, extreme);
        let b = full_range_i8(n * k, seed ^ 0xabcd, extreme); // [N, K]
        let packed = PackedI8::from_nk(&b, k, n, k, k_tile);
        let mut b_kn = vec![0i8; k * n];
        for j in 0..n {
            for l in 0..k {
                b_kn[l * n + j] = b[j * k + l];
            }
        }
        prop_assert_eq!(&PackedI8::from_kn(&b_kn, n, n, k, k_tile), &packed);
        let np = k.div_ceil(k_tile);
        let mut want = vec![0i32; np * m * n];
        for s in 0..np {
            for i in 0..m {
                for j in 0..n {
                    want[s * m * n + i * n + j] = (s * k_tile..usize::min((s + 1) * k_tile, k))
                        .map(|l| a[i * k + l] as i32 * b[j * k + l] as i32)
                        .sum();
                }
            }
        }
        for bk in KernelBackend::supported() {
            let mut got = vec![-7i32; np * m * n];
            ExecEngine::with_threads(threads)
                .with_spawn_threshold(0)
                .with_backend(bk)
                .int8_packed_psums_into(&a, &packed, &mut got);
            prop_assert_eq!(&got, &want, "psums on {}", bk);
        }
    }

    /// The APSQ fold epilogues — fused dequantize-accumulate +
    /// clamp-quantize, the calibration max, the final dequantize — are
    /// bit-identical across backends, including operands that saturate
    /// the shifter and the i32 clamp (the exact-recompute path).
    #[test]
    fn fold_epilogues_bit_identical_across_backends(
        numel in 1usize..70,
        nreads in 0usize..5,
        exps in proptest::collection::vec(0u32..=30, 5),
        exp in 0u32..=30,
        bits in prop_oneof![Just(4u32), Just(8), Just(16), Just(32)],
        big in any::<bool>(),
        seed in any::<u32>(),
    ) {
        let word = |i: usize| {
            let h = (i as u32).wrapping_mul(2654435761).wrapping_add(seed);
            if big { h as i32 } else { (h % 256) as i32 - 128 }
        };
        let tile: Vec<i32> = (0..numel).map(|i| word(i) / 4).collect();
        let reads: Vec<i32> = (0..nreads * numel).map(|i| word(i + 997)).collect();
        let exps = &exps[..nreads];
        let (qn, qp) = if bits == 32 {
            (i32::MIN, i32::MAX)
        } else {
            (-(1i32 << (bits - 1)), (1i32 << (bits - 1)) - 1)
        };
        let s = KernelBackend::Scalar;
        let mut want = tile.clone();
        fold_requantize(s, &reads, exps, &mut want, exp, qn, qp);
        let want_max = fold_max_abs(s, &reads, exps, &tile);
        let mut want_deq = vec![0i32; numel];
        fold_dequantize(s, &tile, exp, &mut want_deq);
        for bk in KernelBackend::supported() {
            let mut got = tile.clone();
            fold_requantize(bk, &reads, exps, &mut got, exp, qn, qp);
            prop_assert_eq!(&got, &want, "requantize on {}", bk);
            prop_assert_eq!(fold_max_abs(bk, &reads, exps, &tile), want_max, "max_abs on {}", bk);
            let mut deq = vec![0i32; numel];
            fold_dequantize(bk, &tile, exp, &mut deq);
            prop_assert_eq!(&deq, &want_deq, "dequantize on {}", bk);
        }
    }
}

/// The env knob (`APSQ_KERNEL_BACKEND`) names round-trip through
/// `from_name`, and an engine reports whatever backend it was forced to.
#[test]
fn forced_backend_is_reported() {
    for bk in KernelBackend::supported() {
        let eng = ExecEngine::serial().with_backend(bk);
        assert_eq!(eng.backend(), bk);
        assert_eq!(KernelBackend::from_name(bk.name()), Some(bk));
    }
    let _ = Int32Tensor::zeros([1, 1]); // keep the import honest on non-x86
}
