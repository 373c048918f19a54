//! Cache-blocked, register-tiled GEMM micro-kernels with explicit-width
//! SIMD backends behind one runtime dispatch.
//!
//! These are the serial building blocks the [`crate::exec::ExecEngine`]
//! dispatches over its worker pool. Every kernel:
//!
//! - operates on an explicit `[k0, k1)` slice of the reduction axis, so the
//!   same code path serves full GEMMs and K-tiled partial-sum (PSUM) tiles;
//! - takes leading dimensions (`lda`/`ldb`/`ldo`), so the accelerator
//!   simulator can run it over sub-blocks of larger matrices in place;
//! - **accumulates** into `out` (callers zero the buffer when they want a
//!   plain product), which is what makes K-panel streaming additive;
//! - reduces every output element in a **fixed order that depends only on
//!   the kernel's argument values** — never on the backend, the thread
//!   partition, or the host CPU. Integer kernels are exact regardless;
//!   float kernels pin the order explicitly (see below).
//!
//! # Backends
//!
//! Each kernel exists in up to three implementations selected by
//! [`KernelBackend`]:
//!
//! - [`KernelBackend::Scalar`] — the portable reference, written with
//!   fixed-width lane arrays (the unrolled form non-x86 autovectorizers
//!   digest well). This is the semantic definition of every kernel.
//! - [`KernelBackend::Sse2`] — `core::arch::x86_64` 128-bit intrinsics.
//!   SSE2 is part of the x86-64 baseline, so this tier needs no feature
//!   detection; it is the floor on any x86-64 host.
//! - [`KernelBackend::Avx2`] — 256-bit intrinsics (i8×i8→i16 widening
//!   multiply-add into i32 lanes, 8-wide f32 mul/add lanes), used when
//!   `is_x86_feature_detected!("avx2")` reports support.
//!
//! # The lane-reduction-order rule
//!
//! Bit-identity across backends is a hard contract, not an accident:
//!
//! - **Integer kernels** accumulate in `i32`; integer addition associates,
//!   so any summation order produces identical bits. SIMD variants are
//!   free to use widening multiply-adds and horizontal reductions.
//! - **f32 kernels that vectorize along N** (`gemm_f32`, `gemm_at_f32`)
//!   keep one output element per SIMD lane, so the per-element reduction
//!   order is `l` increasing — exactly the scalar order. They use separate
//!   multiply and add (never FMA: fusing would change rounding).
//! - **f32 kernels that vectorize along K** (`gemm_bt_f32`) cannot keep
//!   the serial order, so the order itself is pinned lane-structured:
//!   [`LANES`] partial sums accumulate strided chunks of the `[k0, k1)`
//!   range (lane `c` takes elements at chunk offset `c`, the < [`LANES`]
//!   tail folds into lanes `0..rem`), then lanes reduce in ascending index
//!   order ([`reduce_lanes_f32`]). Every backend implements *that*
//!   definition, so scalar and SIMD agree bit-for-bit.

// BLAS-convention argument lists (operand/ld/extent/k-range) are the
// clearest way to spell these kernels.
#![allow(clippy::too_many_arguments)]

mod scalar;
#[cfg(target_arch = "x86_64")]
mod x86;

use std::sync::OnceLock;

/// Register-tile height: rows of `a` processed together.
pub(crate) const MR: usize = 4;
/// Register-tile width: columns of `out` processed together.
pub(crate) const NR: usize = 8;
/// K-panel depth: reduction slice summed into registers per pass.
pub(crate) const KC: usize = 256;
/// Fixed partial-sum lane count for f32 K-axis reductions (`gemm_bt_f32`):
/// every backend accumulates into exactly this many lanes and reduces them
/// in ascending index order, which is what keeps a 128-bit, a 256-bit, and
/// a scalar implementation bit-identical.
pub(crate) const LANES: usize = 8;

/// Environment variable that overrides kernel-backend detection
/// (`scalar` | `sse2` | `avx2`). Unknown or unsupported values panic
/// loudly — a CI job forcing the fallback must never silently run SIMD.
pub const BACKEND_ENV: &str = "APSQ_KERNEL_BACKEND";

/// The micro-kernel implementation the execution engine dispatches to.
///
/// All backends produce **bit-identical** results (see the module docs for
/// why that holds even for f32); they differ only in speed. The default is
/// [`KernelBackend::detect`], cached per process; tests and CI force a
/// specific backend with [`crate::ExecEngine::with_backend`] or the
/// [`BACKEND_ENV`] environment variable.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum KernelBackend {
    /// Portable fixed-width-lane reference — the semantic definition.
    Scalar,
    /// 128-bit `core::arch::x86_64` intrinsics (x86-64 baseline).
    Sse2,
    /// 256-bit AVX2 intrinsics (runtime-detected).
    Avx2,
}

impl KernelBackend {
    /// The best supported backend on this host, resolved once per process
    /// (cached in a `OnceLock`): the [`BACKEND_ENV`] override if set,
    /// otherwise AVX2 when `is_x86_feature_detected!` reports it, SSE2 on
    /// any other x86-64, scalar elsewhere.
    ///
    /// # Panics
    ///
    /// Panics if [`BACKEND_ENV`] names an unknown backend or one this CPU
    /// cannot run.
    pub fn detect() -> KernelBackend {
        static DETECTED: OnceLock<KernelBackend> = OnceLock::new();
        *DETECTED.get_or_init(|| match std::env::var(BACKEND_ENV) {
            Ok(name) => {
                let bk = KernelBackend::from_name(&name).unwrap_or_else(|| {
                    panic!("{BACKEND_ENV}={name}: unknown backend (scalar|sse2|avx2)")
                });
                assert!(
                    bk.is_supported(),
                    "{BACKEND_ENV}={name}: backend not supported on this CPU"
                );
                bk
            }
            Err(_) => Self::native_best(),
        })
    }

    fn native_best() -> KernelBackend {
        #[cfg(target_arch = "x86_64")]
        {
            if std::arch::is_x86_feature_detected!("avx2") {
                KernelBackend::Avx2
            } else {
                KernelBackend::Sse2
            }
        }
        #[cfg(not(target_arch = "x86_64"))]
        {
            KernelBackend::Scalar
        }
    }

    /// Whether this backend can run on the current host.
    pub fn is_supported(self) -> bool {
        match self {
            KernelBackend::Scalar => true,
            #[cfg(target_arch = "x86_64")]
            KernelBackend::Sse2 => true,
            #[cfg(target_arch = "x86_64")]
            KernelBackend::Avx2 => std::arch::is_x86_feature_detected!("avx2"),
            #[cfg(not(target_arch = "x86_64"))]
            _ => false,
        }
    }

    /// Every backend variant, fastest last (sweep order for benches).
    pub fn all() -> [KernelBackend; 3] {
        [
            KernelBackend::Scalar,
            KernelBackend::Sse2,
            KernelBackend::Avx2,
        ]
    }

    /// The backends this host can actually run, scalar first.
    pub fn supported() -> Vec<KernelBackend> {
        Self::all()
            .into_iter()
            .filter(|b| b.is_supported())
            .collect()
    }

    /// Stable lowercase name (`"scalar"` | `"sse2"` | `"avx2"`) — the
    /// spelling benches record in `BENCH_*.json` and [`BACKEND_ENV`]
    /// accepts.
    pub fn name(self) -> &'static str {
        match self {
            KernelBackend::Scalar => "scalar",
            KernelBackend::Sse2 => "sse2",
            KernelBackend::Avx2 => "avx2",
        }
    }

    /// Parses a [`KernelBackend::name`] spelling (case-insensitive).
    pub fn from_name(name: &str) -> Option<KernelBackend> {
        match name.to_ascii_lowercase().as_str() {
            "scalar" => Some(KernelBackend::Scalar),
            "sse2" => Some(KernelBackend::Sse2),
            "avx2" => Some(KernelBackend::Avx2),
            _ => None,
        }
    }
}

impl std::fmt::Display for KernelBackend {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

// ------------------------------------------------------------------ dispatch

/// `out[i, j] += Σ_{l ∈ [k0, k1)} a[i, l] · b[l, j]` for `i < m`, `j < n`,
/// with row strides `lda`, `ldb`, `ldo`.
pub(crate) fn gemm_f32(
    bk: KernelBackend,
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
    match bk {
        KernelBackend::Scalar => scalar::gemm_f32(a, lda, b, ldb, out, ldo, m, n, k0, k1),
        #[cfg(target_arch = "x86_64")]
        // SAFETY: SSE2 is part of the x86-64 baseline — always present.
        KernelBackend::Sse2 => unsafe {
            x86::sse2_gemm_f32(a, lda, b, ldb, out, ldo, m, n, k0, k1)
        },
        #[cfg(target_arch = "x86_64")]
        // SAFETY: Avx2 engines only exist on hosts where detection
        // confirmed the feature (`ExecEngine::with_backend` asserts it).
        KernelBackend::Avx2 => unsafe {
            x86::avx2_gemm_f32(a, lda, b, ldb, out, ldo, m, n, k0, k1)
        },
        #[cfg(not(target_arch = "x86_64"))]
        _ => unreachable!("x86 backends are rejected at engine construction"),
    }
}

/// `out[i, j] += Σ_{l ∈ [k0, k1)} a[i, l] · b[j, l]` — `b` transposed
/// (`[N, K]` row-major), the backward-pass `dY · Wᵀ` primitive. The K-axis
/// reduction uses the pinned [`LANES`]-lane order (module docs).
pub(crate) fn gemm_bt_f32(
    bk: KernelBackend,
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
    match bk {
        KernelBackend::Scalar => scalar::gemm_bt_f32(a, lda, b, ldb, out, ldo, m, n, k0, k1),
        #[cfg(target_arch = "x86_64")]
        // SAFETY: SSE2 is part of the x86-64 baseline — always present.
        KernelBackend::Sse2 => unsafe {
            x86::sse2_gemm_bt_f32(a, lda, b, ldb, out, ldo, m, n, k0, k1)
        },
        #[cfg(target_arch = "x86_64")]
        // SAFETY: as in `gemm_f32`.
        KernelBackend::Avx2 => unsafe {
            x86::avx2_gemm_bt_f32(a, lda, b, ldb, out, ldo, m, n, k0, k1)
        },
        #[cfg(not(target_arch = "x86_64"))]
        _ => unreachable!("x86 backends are rejected at engine construction"),
    }
}

/// `out[i, j] += Σ_{l ∈ [k0, k1)} a[l, i] · b[l, j]` — `a` transposed
/// (`[K, M]` row-major), the weight-gradient `Xᵀ · dY` primitive.
///
/// Rows of `out` (columns of `a`) are independent, so the engine can
/// partition `[0, m)` across threads; the reduction order per element is
/// `l` increasing regardless of the partition or backend.
pub(crate) fn gemm_at_f32(
    bk: KernelBackend,
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
    match bk {
        KernelBackend::Scalar => scalar::gemm_at_f32(a, lda, b, ldb, out, ldo, i0, i1, n, k0, k1),
        #[cfg(target_arch = "x86_64")]
        // SAFETY: SSE2 is part of the x86-64 baseline — always present.
        KernelBackend::Sse2 => unsafe {
            x86::sse2_gemm_at_f32(a, lda, b, ldb, out, ldo, i0, i1, n, k0, k1)
        },
        #[cfg(target_arch = "x86_64")]
        // SAFETY: as in `gemm_f32`.
        KernelBackend::Avx2 => unsafe {
            x86::avx2_gemm_at_f32(a, lda, b, ldb, out, ldo, i0, i1, n, k0, k1)
        },
        #[cfg(not(target_arch = "x86_64"))]
        _ => unreachable!("x86 backends are rejected at engine construction"),
    }
}

/// Exact integer micro-kernel:
/// `out[i, j] += Σ_{l ∈ [k0, k1)} a[i, l] · b[l, j]` with `i8` operands
/// widened to `i32` products, `i32` accumulation.
pub(crate) fn gemm_i8(
    bk: KernelBackend,
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
    match bk {
        KernelBackend::Scalar => scalar::gemm_i8(a, lda, b, ldb, out, ldo, m, n, k0, k1),
        #[cfg(target_arch = "x86_64")]
        // SAFETY: SSE2 is part of the x86-64 baseline — always present.
        KernelBackend::Sse2 => unsafe { x86::sse2_gemm_i8(a, lda, b, ldb, out, ldo, m, n, k0, k1) },
        #[cfg(target_arch = "x86_64")]
        // SAFETY: as in `gemm_f32`.
        KernelBackend::Avx2 => unsafe { x86::avx2_gemm_i8(a, lda, b, ldb, out, ldo, m, n, k0, k1) },
        #[cfg(not(target_arch = "x86_64"))]
        _ => unreachable!("x86 backends are rejected at engine construction"),
    }
}

/// Exact integer transposed-B micro-kernel:
/// `out[i, j] += Σ_{l ∈ [k0, k1)} a[i, l] · b[j, l]` — `b` stored `[N, K]`
/// row-major, the layout a weight-stationary PE array keeps its filter
/// rows in. Unit-stride dot products on both operands make this the
/// decode-path (`[B, d] × Wᵀ`) primitive — and the kernel where the AVX2
/// i8×i8→i16 widening multiply-add pays off hardest.
pub(crate) fn gemm_bt_i8(
    bk: KernelBackend,
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
    match bk {
        KernelBackend::Scalar => scalar::gemm_bt_i8(a, lda, b, ldb, out, ldo, m, n, k0, k1),
        #[cfg(target_arch = "x86_64")]
        // SAFETY: SSE2 is part of the x86-64 baseline — always present.
        KernelBackend::Sse2 => unsafe {
            x86::sse2_gemm_bt_i8(a, lda, b, ldb, out, ldo, m, n, k0, k1)
        },
        #[cfg(target_arch = "x86_64")]
        // SAFETY: as in `gemm_f32`.
        KernelBackend::Avx2 => unsafe {
            x86::avx2_gemm_bt_i8(a, lda, b, ldb, out, ldo, m, n, k0, k1)
        },
        #[cfg(not(target_arch = "x86_64"))]
        _ => unreachable!("x86 backends are rejected at engine construction"),
    }
}

/// Every `k_tile`-deep partial sum of `a · bᵀ` in **one sweep over K**:
/// for step `s` covering `[k0 + s·k_tile, min(k0 + (s+1)·k_tile, k1))`,
/// **writes** (not accumulates) `out[s·m·n + i·n + j] = Σ_l a[i, l] ·
/// b[j, l]` — a step-major `[steps, m, n]` buffer. Each output pair walks
/// its K range once, so the per-tile re-entry, zeroing and row
/// partitioning of a tile-at-a-time stream never happen.
pub(crate) fn gemm_bt_i8_psums(
    bk: KernelBackend,
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
    match bk {
        KernelBackend::Scalar => {
            scalar::gemm_bt_i8_psums(a, lda, b, ldb, out, m, n, k0, k1, k_tile)
        }
        #[cfg(target_arch = "x86_64")]
        // SAFETY: SSE2 is part of the x86-64 baseline — always present.
        KernelBackend::Sse2 => unsafe {
            x86::sse2_gemm_bt_i8_psums(a, lda, b, ldb, out, m, n, k0, k1, k_tile)
        },
        #[cfg(target_arch = "x86_64")]
        // SAFETY: as in `gemm_f32`.
        KernelBackend::Avx2 => unsafe {
            x86::avx2_gemm_bt_i8_psums(a, lda, b, ldb, out, m, n, k0, k1, k_tile)
        },
        #[cfg(not(target_arch = "x86_64"))]
        _ => unreachable!("x86 backends are rejected at engine construction"),
    }
}

/// [`gemm_bt_i8_psums`] for `b` stored `[K, N]` (row stride `ldb`): step
/// `s` **writes** `out[s·m·n + i·n + j] = Σ_l a[i, l] · b[l, j]`. Vectorized
/// along N — the layout of a KV cache's value rows, whose context axis is
/// the reduction. The portable body serves scalar and SSE2 (the x86-64
/// baseline autovectorizes it), and is recompiled for AVX2.
pub(crate) fn gemm_i8_psums(
    bk: KernelBackend,
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
    match bk {
        KernelBackend::Scalar | KernelBackend::Sse2 => {
            scalar::gemm_i8_psums(a, lda, b, ldb, out, m, n, k0, k1, k_tile)
        }
        #[cfg(target_arch = "x86_64")]
        // SAFETY: as in `gemm_f32`.
        KernelBackend::Avx2 => unsafe {
            x86::avx2_gemm_i8_psums(a, lda, b, ldb, out, m, n, k0, k1, k_tile)
        },
        #[cfg(not(target_arch = "x86_64"))]
        _ => unreachable!("x86 backends are rejected at engine construction"),
    }
}

// ------------------------------------------------------ APSQ fold epilogues
//
// The integer slice maps an APSQ fold step is made of (paper Algorithm
// 1), over a step-major PSUM buffer: a step's quantizer input is its own
// tile plus the dequantized codes of the stored steps it reads back
// (`reads`: those steps' code tiles, contiguous, one exponent each). The
// dequantize-accumulate and the clamp-quantize run fused in registers,
// so the 64-bit group accumulator never touches memory. The maps are
// elementwise, so every backend computes the scalar bits lane by lane;
// `apsq-core`'s fold calls them with an engine's backend.

/// Checks the shared shape contract of the step epilogues.
fn check_reads(reads: &[i32], exps: &[u32], numel: usize) {
    assert_eq!(
        reads.len(),
        exps.len() * numel,
        "reads must hold one {numel}-word code tile per exponent"
    );
    assert!(
        exps.iter().all(|&e| e <= 30),
        "power-of-two exponents must lie in 0..=30"
    );
}

/// Fold epilogue, one step in place: `slot[j] = clamp(round(clamp_i32(x)
/// / 2^exp), qn, qp)` with round-half-away-from-zero, where `x =
/// slot[j] + Σ_l clamp_i32(reads[l·n + j] · 2^exps[l])` is exact in 64
/// bits (`n = slot.len()`). The slot enters holding the step's PSUM tile
/// `Tp_i` and leaves holding its stored codes — `Qᵢ(clamp(Σ αₗ·APₗ +
/// Tpᵢ))`, dequantize-accumulate and clamp-quantize fused.
///
/// # Panics
///
/// Panics if `reads.len() != exps.len() · slot.len()`, any exponent
/// exceeds 30, or `qn > qp`.
pub fn fold_requantize(
    bk: KernelBackend,
    reads: &[i32],
    exps: &[u32],
    slot: &mut [i32],
    exp: u32,
    qn: i32,
    qp: i32,
) {
    check_reads(reads, exps, slot.len());
    assert!(exp <= 30, "power-of-two exponent {exp} out of range 0..=30");
    assert!(qn <= qp, "empty code range [{qn}, {qp}]");
    match bk {
        KernelBackend::Scalar => scalar::fold_requantize(reads, exps, slot, exp, qn, qp),
        #[cfg(target_arch = "x86_64")]
        // SAFETY: SSE2 is part of the x86-64 baseline — always present.
        KernelBackend::Sse2 => unsafe { x86::sse2_fold_requantize(reads, exps, slot, exp, qn, qp) },
        #[cfg(target_arch = "x86_64")]
        // SAFETY: a `KernelBackend::Avx2` value reaching a kernel was
        // checked by `is_supported` (detection or `with_backend`).
        KernelBackend::Avx2 => unsafe { x86::avx2_fold_requantize(reads, exps, slot, exp, qn, qp) },
        #[cfg(not(target_arch = "x86_64"))]
        _ => unreachable!("x86 backends are rejected at engine construction"),
    }
}

/// Fold epilogue for calibration: the largest `|x|` over the step's
/// quantizer inputs (`x` as in [`fold_requantize`], with `tile` in place
/// of the slot), saturated to `i32::MAX`; 0 for an empty tile.
///
/// # Panics
///
/// Panics if `reads.len() != exps.len() · tile.len()` or any exponent
/// exceeds 30.
pub fn fold_max_abs(bk: KernelBackend, reads: &[i32], exps: &[u32], tile: &[i32]) -> i32 {
    check_reads(reads, exps, tile.len());
    match bk {
        KernelBackend::Scalar => scalar::fold_max_abs(reads, exps, tile),
        #[cfg(target_arch = "x86_64")]
        // SAFETY: SSE2 is part of the x86-64 baseline — always present.
        KernelBackend::Sse2 => unsafe { x86::sse2_fold_max_abs(reads, exps, tile) },
        #[cfg(target_arch = "x86_64")]
        // SAFETY: as in `fold_requantize`.
        KernelBackend::Avx2 => unsafe { x86::avx2_fold_max_abs(reads, exps, tile) },
        #[cfg(not(target_arch = "x86_64"))]
        _ => unreachable!("x86 backends are rejected at engine construction"),
    }
}

/// Fold epilogue: `out[j] = clamp_i32(codes[j] · 2^exp)` — dequantizes
/// the final codes into the output tile `To`.
///
/// # Panics
///
/// Panics if the slices differ in length or `exp > 30`.
pub fn fold_dequantize(bk: KernelBackend, codes: &[i32], exp: u32, out: &mut [i32]) {
    assert_eq!(codes.len(), out.len(), "code/output length mismatch");
    assert!(exp <= 30, "power-of-two exponent {exp} out of range 0..=30");
    match bk {
        KernelBackend::Scalar => scalar::fold_dequantize(codes, exp, out),
        #[cfg(target_arch = "x86_64")]
        // SAFETY: SSE2 is part of the x86-64 baseline — always present.
        KernelBackend::Sse2 => unsafe { x86::sse2_fold_dequantize(codes, exp, out) },
        #[cfg(target_arch = "x86_64")]
        // SAFETY: as in `fold_requantize`.
        KernelBackend::Avx2 => unsafe { x86::avx2_fold_dequantize(codes, exp, out) },
        #[cfg(not(target_arch = "x86_64"))]
        _ => unreachable!("x86 backends are rejected at engine construction"),
    }
}

// ------------------------------------------------------- shared helpers

/// Reduces the [`LANES`] f32 partial sums in ascending index order —
/// the one and only lane-reduction every backend is allowed to use.
#[inline]
pub(super) fn reduce_lanes_f32(lanes: &[f32; LANES]) -> f32 {
    let mut s = 0.0f32;
    for &v in lanes {
        s += v;
    }
    s
}

/// The pinned-order f32 dot product over `[k0, k1)` slices: [`LANES`]
/// strided partial sums (lane `c` takes chunk offset `c`; the short tail
/// folds into lanes `0..rem`), reduced by [`reduce_lanes_f32`]. This is the
/// scalar definition the SIMD `gemm_bt_f32` variants replicate bit-for-bit.
#[inline]
pub(super) fn dot_f32_lanes(x: &[f32], y: &[f32]) -> f32 {
    debug_assert_eq!(x.len(), y.len());
    let mut lanes = [0.0f32; LANES];
    let full = x.len() - x.len() % LANES;
    let mut t = 0;
    while t < full {
        for (c, lane) in lanes.iter_mut().enumerate() {
            *lane += x[t + c] * y[t + c];
        }
        t += LANES;
    }
    for (c, i) in (full..x.len()).enumerate() {
        lanes[c] += x[i] * y[i];
    }
    reduce_lanes_f32(&lanes)
}

/// Ragged-edge f32 tile: rows `[i0, i1)` × cols `[j0, j1)` over the K panel
/// `[kp, kq)`, in ≤[`NR`]-wide column blocks with lane-array accumulation in
/// `l` order — the per-element reduction order of the full-size register
/// tile. The single tail path shared by the scalar kernel's partial-NR,
/// partial-MR, and remainder cases **and** by every SIMD variant's edges,
/// so edge handling is written (and audited) once.
#[inline]
pub(super) fn tail_f32(
    a: &[f32],
    lda: usize,
    b: &[f32],
    ldb: usize,
    out: &mut [f32],
    ldo: usize,
    i0: usize,
    i1: usize,
    j0: usize,
    j1: usize,
    kp: usize,
    kq: usize,
) {
    for i in i0..i1 {
        let mut j = j0;
        while j < j1 {
            let jn = usize::min(j + NR, j1);
            let mut acc = [0.0f32; NR];
            for l in kp..kq {
                let av = a[i * lda + l];
                for (c, accv) in acc[..jn - j].iter_mut().enumerate() {
                    *accv += av * b[l * ldb + j + c];
                }
            }
            let orow = &mut out[i * ldo + j..i * ldo + jn];
            for (o, &v) in orow.iter_mut().zip(acc.iter()) {
                *o += v;
            }
            j = jn;
        }
    }
}

/// Ragged-edge i8→i32 tile, the integer twin of [`tail_f32`]: one tail
/// helper for every partial-NR / partial-MR / remainder case of the scalar
/// kernel and every SIMD variant's edges.
#[inline]
pub(super) fn tail_i8(
    a: &[i8],
    lda: usize,
    b: &[i8],
    ldb: usize,
    out: &mut [i32],
    ldo: usize,
    i0: usize,
    i1: usize,
    j0: usize,
    j1: usize,
    kp: usize,
    kq: usize,
) {
    for i in i0..i1 {
        let mut j = j0;
        while j < j1 {
            let jn = usize::min(j + NR, j1);
            let mut acc = [0i32; NR];
            for l in kp..kq {
                let av = a[i * lda + l] as i32;
                for (c, accv) in acc[..jn - j].iter_mut().enumerate() {
                    *accv += av * b[l * ldb + j + c] as i32;
                }
            }
            let orow = &mut out[i * ldo + j..i * ldo + jn];
            for (o, &v) in orow.iter_mut().zip(acc.iter()) {
                *o += v;
            }
            j = jn;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn naive_f32(a: &[f32], b: &[f32], m: usize, k: usize, n: usize) -> Vec<f32> {
        let mut out = vec![0.0f32; m * n];
        for i in 0..m {
            for j in 0..n {
                let mut acc = 0.0f64;
                for l in 0..k {
                    acc += (a[i * k + l] as f64) * (b[l * n + j] as f64);
                }
                out[i * n + j] = acc as f32;
            }
        }
        out
    }

    #[test]
    fn blocked_matches_naive_at_awkward_sizes() {
        for bk in KernelBackend::supported() {
            for (m, k, n) in [(1, 1, 1), (5, 7, 9), (13, 300, 17), (MR, KC + 3, NR)] {
                let a: Vec<f32> = (0..m * k)
                    .map(|x| ((x % 23) as f32) * 0.125 - 1.0)
                    .collect();
                let b: Vec<f32> = (0..k * n).map(|x| ((x % 19) as f32) * 0.25 - 2.0).collect();
                let mut out = vec![0.0f32; m * n];
                gemm_f32(bk, &a, k, &b, n, &mut out, n, m, n, 0, k);
                let want = naive_f32(&a, &b, m, k, n);
                for (x, y) in out.iter().zip(want.iter()) {
                    assert!((x - y).abs() <= 1e-3 * (1.0 + y.abs()), "{bk} {m}x{k}x{n}");
                }
            }
        }
    }

    #[test]
    fn k_ranges_partition_the_reduction_exactly_i8() {
        for bk in KernelBackend::supported() {
            let (m, k, n) = (6, 40, 10);
            let a: Vec<i8> = (0..m * k).map(|x| ((x * 37 + 5) % 255) as i8).collect();
            let b: Vec<i8> = (0..k * n).map(|x| ((x * 53 + 7) % 251) as i8).collect();
            let mut full = vec![0i32; m * n];
            gemm_i8(bk, &a, k, &b, n, &mut full, n, m, n, 0, k);
            let mut tiled = vec![0i32; m * n];
            for (k0, k1) in [(0, 13), (13, 14), (14, 40)] {
                gemm_i8(bk, &a, k, &b, n, &mut tiled, n, m, n, k0, k1);
            }
            assert_eq!(full, tiled, "{bk}");
        }
    }

    #[test]
    fn leading_dimensions_address_sub_blocks() {
        for bk in KernelBackend::supported() {
            // Compute into the top-left 2×3 corner of a 4×5 out buffer,
            // reading a 2-column slice of b.
            let (m, k, n) = (2usize, 3usize, 3usize);
            let a: Vec<f32> = vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]; // [2,3]
            let b: Vec<f32> = (0..k * 5).map(|x| x as f32).collect(); // [3,5], ldb=5
            let mut out = vec![0.0f32; 4 * 5];
            gemm_f32(bk, &a, k, &b, 5, &mut out, 5, m, n, 0, k);
            for i in 0..m {
                for j in 0..n {
                    let want: f32 = (0..k).map(|l| a[i * k + l] * b[l * 5 + j]).sum();
                    assert_eq!(out[i * 5 + j], want, "{bk}");
                }
            }
            // Untouched region stays zero.
            assert!(out[5 * 3..].iter().all(|&v| v == 0.0), "{bk}");
        }
    }

    #[test]
    fn bt_and_at_match_plain() {
        for bk in KernelBackend::supported() {
            let (m, k, n) = (5, 11, 4);
            let a: Vec<f32> = (0..m * k).map(|x| (x % 13) as f32 - 6.0).collect();
            let b: Vec<f32> = (0..k * n).map(|x| (x % 7) as f32 - 3.0).collect();
            let mut plain = vec![0.0f32; m * n];
            gemm_f32(bk, &a, k, &b, n, &mut plain, n, m, n, 0, k);

            // bᵀ stored [N, K]. The bt kernel reduces K in the pinned
            // lane order, so compare within rounding, not bitwise.
            let mut bt = vec![0.0f32; n * k];
            for l in 0..k {
                for j in 0..n {
                    bt[j * k + l] = b[l * n + j];
                }
            }
            let mut out = vec![0.0f32; m * n];
            gemm_bt_f32(bk, &a, k, &bt, k, &mut out, n, m, n, 0, k);
            for (x, y) in out.iter().zip(plain.iter()) {
                assert!((x - y).abs() <= 1e-4 * (1.0 + y.abs()), "{bk}");
            }

            // aᵀ stored [K, M].
            let mut at = vec![0.0f32; k * m];
            for i in 0..m {
                for l in 0..k {
                    at[l * m + i] = a[i * k + l];
                }
            }
            let mut out = vec![0.0f32; m * n];
            gemm_at_f32(bk, &at, m, &b, n, &mut out, n, 0, m, n, 0, k);
            for (x, y) in out.iter().zip(plain.iter()) {
                assert!((x - y).abs() <= 1e-4 * (1.0 + y.abs()), "{bk}");
            }
        }
    }

    #[test]
    fn bt_i8_matches_plain_i8_and_partitions_k() {
        for bk in KernelBackend::supported() {
            let (m, k, n) = (5, 23, 7);
            let a: Vec<i8> = (0..m * k).map(|x| ((x * 37 + 5) % 255) as i8).collect();
            let b: Vec<i8> = (0..k * n).map(|x| ((x * 53 + 7) % 251) as i8).collect();
            let mut plain = vec![0i32; m * n];
            gemm_i8(bk, &a, k, &b, n, &mut plain, n, m, n, 0, k);

            // bᵀ stored [N, K].
            let mut bt = vec![0i8; n * k];
            for l in 0..k {
                for j in 0..n {
                    bt[j * k + l] = b[l * n + j];
                }
            }
            let mut out = vec![0i32; m * n];
            gemm_bt_i8(bk, &a, k, &bt, k, &mut out, n, m, n, 0, k);
            assert_eq!(out, plain, "{bk}");

            // K ranges partition the reduction exactly (integer addition).
            let mut tiled = vec![0i32; m * n];
            for (k0, k1) in [(0, 9), (9, 10), (10, 23)] {
                gemm_bt_i8(bk, &a, k, &bt, k, &mut tiled, n, m, n, k0, k1);
            }
            assert_eq!(tiled, plain, "{bk}");
        }
    }

    /// Every supported SIMD backend must agree with the scalar reference
    /// bit-for-bit, across ragged shapes and k-ranges — the unit-level
    /// smoke for the contract the backend proptests sweep at scale.
    #[test]
    fn simd_backends_bit_identical_to_scalar() {
        let shapes = [
            (1usize, 1usize, 1usize),
            (3, 5, 2),
            (MR, 16, NR),
            (MR + 1, 17, NR + 3),
            (2 * MR + 3, KC + 9, 3 * NR + 5),
            (7, LANES * 4 + 3, 9),
        ];
        for bk in KernelBackend::supported() {
            for &(m, k, n) in &shapes {
                let af: Vec<f32> = (0..m * k)
                    .map(|x| ((x * 31 + 7) % 101) as f32 * 0.03 - 1.5)
                    .collect();
                let bf: Vec<f32> = (0..k * n)
                    .map(|x| ((x * 17 + 3) % 97) as f32 * 0.05 - 2.4)
                    .collect();
                let ai: Vec<i8> = (0..m * k).map(|x| ((x * 37 + 11) % 255) as i8).collect();
                let bi: Vec<i8> = (0..k * n).map(|x| ((x * 73 + 5) % 251) as i8).collect();
                let btf: Vec<f32> = (0..n * k)
                    .map(|x| ((x * 13 + 1) % 89) as f32 * 0.04 - 1.8)
                    .collect();
                let bti: Vec<i8> = (0..n * k).map(|x| ((x * 29 + 3) % 253) as i8).collect();
                let atf: Vec<f32> = (0..k * m)
                    .map(|x| ((x * 11 + 5) % 83) as f32 * 0.06 - 2.5)
                    .collect();
                for (k0, k1) in [(0, k), (k / 3, k), (0, k - k / 4), (k / 3, 2 * k / 3 + 1)] {
                    let run_pair =
                        |want: &mut Vec<f32>,
                         got: &mut Vec<f32>,
                         f: &dyn Fn(KernelBackend, &mut [f32])| {
                            f(KernelBackend::Scalar, want);
                            f(bk, got);
                        };
                    let mut want = vec![0.0f32; m * n];
                    let mut got = vec![0.0f32; m * n];
                    run_pair(&mut want, &mut got, &|bk, out| {
                        gemm_f32(bk, &af, k, &bf, n, out, n, m, n, k0, k1)
                    });
                    assert_eq!(want, got, "gemm_f32 {bk} {m}x{k}x{n} [{k0},{k1})");
                    let mut want = vec![0.0f32; m * n];
                    let mut got = vec![0.0f32; m * n];
                    run_pair(&mut want, &mut got, &|bk, out| {
                        gemm_bt_f32(bk, &af, k, &btf, k, out, n, m, n, k0, k1)
                    });
                    assert_eq!(want, got, "gemm_bt_f32 {bk} {m}x{k}x{n} [{k0},{k1})");
                    let mut want = vec![0.0f32; m * n];
                    let mut got = vec![0.0f32; m * n];
                    run_pair(&mut want, &mut got, &|bk, out| {
                        gemm_at_f32(bk, &atf, m, &bf, n, out, n, 0, m, n, k0, k1)
                    });
                    assert_eq!(want, got, "gemm_at_f32 {bk} {m}x{k}x{n} [{k0},{k1})");

                    let mut want = vec![0i32; m * n];
                    let mut got = vec![0i32; m * n];
                    gemm_i8(
                        KernelBackend::Scalar,
                        &ai,
                        k,
                        &bi,
                        n,
                        &mut want,
                        n,
                        m,
                        n,
                        k0,
                        k1,
                    );
                    gemm_i8(bk, &ai, k, &bi, n, &mut got, n, m, n, k0, k1);
                    assert_eq!(want, got, "gemm_i8 {bk} {m}x{k}x{n} [{k0},{k1})");
                    let mut want = vec![0i32; m * n];
                    let mut got = vec![0i32; m * n];
                    gemm_bt_i8(
                        KernelBackend::Scalar,
                        &ai,
                        k,
                        &bti,
                        k,
                        &mut want,
                        n,
                        m,
                        n,
                        k0,
                        k1,
                    );
                    gemm_bt_i8(bk, &ai, k, &bti, k, &mut got, n, m, n, k0, k1);
                    assert_eq!(want, got, "gemm_bt_i8 {bk} {m}x{k}x{n} [{k0},{k1})");
                }
            }
        }
    }

    /// Awkward i32 values for the fold-epilogue sweeps: zeros, small
    /// values of both signs, rounding-boundary magnitudes, the extremes.
    fn awkward_i32() -> Vec<i32> {
        let mut v = vec![0, 1, -1, 7, -8, 100, -100, 4095, -4096, 123456, -123457];
        v.extend([i32::MAX, i32::MIN, i32::MAX - 1, i32::MIN + 1, -128, 127]);
        v.extend((0..40).map(|i| (i * 2654435761u32 as i64 % 400_003) as i32 - 200_000));
        v
    }

    /// Round-half-away-from-zero `x / 2^sh` in plain branchy i64 — the
    /// textbook definition the branch-free kernels must reproduce.
    fn round_shift(x: i64, sh: u32) -> i64 {
        if sh == 0 {
            return x;
        }
        let add = 1i64 << (sh - 1);
        if x >= 0 {
            (x + add) >> sh
        } else {
            -((-x + add) >> sh)
        }
    }

    #[test]
    fn fold_epilogues_match_definition_on_every_backend() {
        let (lo, hi) = (i32::MIN as i64, i32::MAX as i64);
        let tile = awkward_i32();
        let numel = tile.len();
        // Up to three read steps: codes in the INT8 range, the extremes,
        // and a mix — enough to saturate both the shifter and the i32
        // clamp at high exponents.
        let read_tiles: [Vec<i32>; 3] = [
            (0..numel).map(|j| (j as i32 % 256) - 128).collect(),
            (0..numel)
                .map(|j| if j % 2 == 0 { i32::MAX } else { i32::MIN })
                .collect(),
            tile.iter().rev().copied().collect(),
        ];
        for bk in KernelBackend::supported() {
            for nreads in 0..=3 {
                for read_exps in [[0u32, 0, 0], [4, 9, 1], [30, 23, 30]] {
                    let exps = &read_exps[..nreads];
                    let reads: Vec<i32> = read_tiles[..nreads].concat();
                    let input = |j: usize| {
                        let mut x = tile[j] as i64;
                        for (l, &e) in exps.iter().enumerate() {
                            x += ((reads[l * numel + j] as i64) << e).clamp(lo, hi);
                        }
                        x
                    };
                    let want_max = (0..numel).map(|j| input(j).unsigned_abs()).max().unwrap();
                    assert_eq!(
                        fold_max_abs(bk, &reads, exps, &tile) as u64,
                        want_max.min(hi as u64),
                        "{bk} max_abs reads={nreads} {exps:?}"
                    );
                    for (qn, qp) in [(-128, 127), (-8, 7), (i32::MIN, i32::MAX)] {
                        for exp in [0u32, 1, 4, 15, 23, 29, 30] {
                            let mut slot = tile.clone();
                            fold_requantize(bk, &reads, exps, &mut slot, exp, qn, qp);
                            let want: Vec<i32> = (0..numel)
                                .map(|j| {
                                    let r = round_shift(input(j).clamp(lo, hi), exp);
                                    r.clamp(qn as i64, qp as i64) as i32
                                })
                                .collect();
                            assert_eq!(slot, want, "{bk} reads={nreads} {exps:?} exp={exp}");
                        }
                    }
                }
            }
            for exp in [0u32, 1, 4, 15, 23, 29, 30] {
                let mut out = vec![0i32; numel];
                fold_dequantize(bk, &tile, exp, &mut out);
                let want: Vec<i32> = tile
                    .iter()
                    .map(|&c| ((c as i64) << exp).clamp(lo, hi) as i32)
                    .collect();
                assert_eq!(out, want, "{bk} dequantize exp={exp}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "one 2-word code tile per exponent")]
    fn fold_epilogue_rejects_short_reads() {
        let mut slot = vec![0i32; 2];
        fold_requantize(
            KernelBackend::Scalar,
            &[1, 2, 3],
            &[0, 0],
            &mut slot,
            0,
            -128,
            127,
        );
    }

    #[test]
    fn psums_kernel_matches_per_step_gemm_on_every_backend() {
        for bk in KernelBackend::supported() {
            for (m, k, n, k_tile) in [
                (1usize, 1usize, 1usize, 1usize),
                (3, 37, 9, 16),
                (5, 64, 4, 16),
                (2, 50, 7, 64),
            ] {
                let a: Vec<i8> = (0..m * k).map(|x| ((x * 37 + 11) % 255) as i8).collect();
                let b: Vec<i8> = (0..n * k).map(|x| ((x * 29 + 3) % 253) as i8).collect();
                let np = k.div_ceil(k_tile);
                let mut psums = vec![i32::MIN; np * m * n];
                gemm_bt_i8_psums(bk, &a, k, &b, k, &mut psums, m, n, 0, k, k_tile);
                // The same operand stored [K, N] (with a padded row stride)
                // through the KN kernel.
                let ldb = n + 3;
                let mut b_kn = vec![0i8; k * ldb];
                for j in 0..n {
                    for l in 0..k {
                        b_kn[l * ldb + j] = b[j * k + l];
                    }
                }
                let mut kn = vec![i32::MIN; np * m * n];
                gemm_i8_psums(bk, &a, k, &b_kn, ldb, &mut kn, m, n, 0, k, k_tile);
                assert_eq!(kn, psums, "{bk} KN layout");
                for s in 0..np {
                    let (k0, k1) = (s * k_tile, usize::min((s + 1) * k_tile, k));
                    let mut want = vec![0i32; m * n];
                    gemm_bt_i8(
                        KernelBackend::Scalar,
                        &a,
                        k,
                        &b,
                        k,
                        &mut want,
                        n,
                        m,
                        n,
                        k0,
                        k1,
                    );
                    assert_eq!(
                        &psums[s * m * n..(s + 1) * m * n],
                        &want[..],
                        "{bk} step {s}"
                    );
                }
            }
        }
    }

    #[test]
    fn backend_names_round_trip() {
        for bk in KernelBackend::all() {
            assert_eq!(KernelBackend::from_name(bk.name()), Some(bk));
            assert_eq!(format!("{bk}"), bk.name());
        }
        assert_eq!(KernelBackend::from_name("AVX2"), Some(KernelBackend::Avx2));
        assert_eq!(KernelBackend::from_name("neon"), None);
    }

    #[test]
    fn detection_returns_a_supported_backend() {
        let bk = KernelBackend::detect();
        assert!(bk.is_supported());
        // Scalar is supported everywhere; x86-64 always has at least SSE2.
        assert!(KernelBackend::supported().contains(&KernelBackend::Scalar));
        #[cfg(target_arch = "x86_64")]
        assert!(KernelBackend::Sse2.is_supported());
    }
}
