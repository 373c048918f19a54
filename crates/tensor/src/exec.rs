//! The parallel tiled execution engine behind every GEMM, conv, and PSUM
//! stream in the workspace.
//!
//! [`ExecEngine`] owns one knob — a worker count — and dispatches the
//! cache-blocked micro-kernels in [`crate::kernels`] over a scoped thread
//! pool ([`std::thread::scope`]; no extra dependencies, no global state).
//! Consumers hold an engine as *context* and route every hot kernel through
//! it: QAT forward/backward in `apsq-nn`, the workload runners in
//! `apsq-models`, the PE-array simulator in `apsq-accel`, and the
//! paper-figure binaries in `apsq-bench`.
//!
//! # Determinism
//!
//! Work is partitioned over **rows of the output**, aligned to the register
//! tile height, and each output element is reduced by exactly one worker in
//! a fixed K order. Results are therefore **bit-identical for every thread
//! count** — integer paths trivially (integer addition is exact), float
//! paths because the reduction order per element depends only on the
//! kernel, never on the partition. The same contract extends across
//! **kernel backends**: every [`crate::KernelBackend`] (scalar reference,
//! SSE2, AVX2) implements the identical per-element reduction order, so an
//! engine produces the same bits whichever backend it dispatches (see the
//! `kernels` module docs for the lane-reduction-order rule). The
//! golden-model tests that pin the integer APSQ path keep passing
//! unchanged no matter how the engine is configured.
//!
//! # Thread-scaling example
//!
//! ```
//! use apsq_tensor::{ExecEngine, Tensor};
//!
//! let a = Tensor::ones([96, 128]);
//! let b = Tensor::ones([128, 64]);
//!
//! let serial = ExecEngine::serial();
//! let quad = ExecEngine::with_threads(4);
//! // Same bits out regardless of parallelism:
//! assert_eq!(serial.matmul(&a, &b), quad.matmul(&a, &b));
//! ```
//!
//! # Streaming K tiles
//!
//! [`ExecEngine::for_each_k_tile`] feeds partial-sum tiles to a fold
//! without materializing a `Vec<Tensor>` — the APSQ integration point:
//!
//! ```
//! use apsq_tensor::{ExecEngine, Tensor};
//!
//! let eng = ExecEngine::serial();
//! let a = Tensor::ones([4, 32]);
//! let b = Tensor::ones([32, 8]);
//! let mut running = Tensor::zeros([4, 8]);
//! eng.for_each_k_tile(&a, &b, 8, |_step, tile| {
//!     running = &running + tile; // a requantizing fold would go here
//! });
//! assert_eq!(running, eng.matmul(&a, &b));
//! ```

use crate::int_tensor::{Int32Tensor, Int8Tensor};
use crate::kernels;
use crate::tensor::Tensor;

/// Below this many multiply-accumulates a dispatch runs inline on the
/// calling thread. Spawning scoped workers costs tens of microseconds per
/// call, which only amortizes once a GEMM takes a few hundred — about 2M
/// MACs on a commodity core.
const PARALLEL_THRESHOLD_MACS: usize = 1 << 21;

/// A parallel tiled execution engine: a worker count plus the dispatch
/// logic that partitions output rows over a scoped thread pool.
///
/// The engine is `Copy` and trivially cheap to pass by reference; hold one
/// per training/inference context and thread it through call chains instead
/// of configuring per-call globals. See the module docs above for the
/// determinism contract.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ExecEngine {
    threads: usize,
    spawn_threshold: usize,
    backend: kernels::KernelBackend,
}

impl Default for ExecEngine {
    /// An engine sized to the machine ([`ExecEngine::auto`]).
    fn default() -> Self {
        ExecEngine::auto()
    }
}

impl ExecEngine {
    /// A single-threaded engine: every kernel runs on the calling thread.
    pub fn serial() -> Self {
        Self::with_threads(1)
    }

    /// An engine with exactly `threads` workers.
    ///
    /// # Panics
    ///
    /// Panics if `threads == 0`.
    pub fn with_threads(threads: usize) -> Self {
        assert!(threads > 0, "ExecEngine needs at least one thread");
        ExecEngine {
            threads,
            spawn_threshold: PARALLEL_THRESHOLD_MACS,
            backend: kernels::KernelBackend::detect(),
        }
    }

    /// An engine sized to [`std::thread::available_parallelism`] (falls
    /// back to 1 when the parallelism cannot be determined).
    pub fn auto() -> Self {
        let threads = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        Self::with_threads(threads)
    }

    /// The configured worker count.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Overrides the inline-dispatch threshold: calls whose estimated
    /// multiply-accumulate count is below it skip the thread pool. The
    /// default (~2M MACs) amortizes the per-call cost of spawning scoped
    /// workers; set `0` to force the parallel path on every dispatch
    /// (useful for tests that must exercise the partitioning on small
    /// inputs).
    pub fn with_spawn_threshold(mut self, macs: usize) -> Self {
        self.spawn_threshold = macs;
        self
    }

    /// Overrides the micro-kernel backend. Every backend produces
    /// bit-identical results (the kernels pin the per-element reduction
    /// order); forcing one is for perf attribution and for tests that must
    /// exercise the scalar fallback on SIMD hosts. Process-wide forcing is
    /// also available via the `APSQ_KERNEL_BACKEND` env var
    /// ([`crate::kernels::BACKEND_ENV`]).
    ///
    /// # Panics
    ///
    /// Panics if `backend` is not supported on this CPU.
    pub fn with_backend(mut self, backend: kernels::KernelBackend) -> Self {
        assert!(
            backend.is_supported(),
            "kernel backend {backend} is not supported on this CPU"
        );
        self.backend = backend;
        self
    }

    /// The micro-kernel backend this engine dispatches
    /// ([`crate::KernelBackend::detect`] unless overridden).
    pub fn backend(&self) -> kernels::KernelBackend {
        self.backend
    }

    /// Partitions `out` (rows of `ld` elements, `m` rows total) into
    /// register-tile-aligned contiguous row chunks and runs `body` on each,
    /// in parallel when the estimated `macs` justify spawning.
    ///
    /// `body(r0, r1, chunk)` must write only into `chunk`, which aliases
    /// `out[r0*ld .. r1*ld]`.
    fn partition_rows<T: Send>(
        &self,
        out: &mut [T],
        ld: usize,
        m: usize,
        macs: usize,
        body: &(impl Fn(usize, usize, &mut [T]) + Sync),
    ) {
        let max_chunks = m.div_ceil(kernels::MR).max(1);
        let chunks = self.threads.min(max_chunks);
        if chunks <= 1 || macs < self.spawn_threshold {
            body(0, m, &mut out[..m * ld]);
            return;
        }
        // Rows per chunk, rounded up to the register-tile height so the
        // blocking phase (and hence the float reduction order) matches the
        // serial schedule exactly.
        let rows = m.div_ceil(chunks).div_ceil(kernels::MR) * kernels::MR;
        std::thread::scope(|s| {
            let mut rest = &mut out[..m * ld];
            let mut r0 = 0usize;
            while r0 < m {
                let r1 = usize::min(r0 + rows, m);
                let (head, tail) = rest.split_at_mut((r1 - r0) * ld);
                rest = tail;
                s.spawn(move || body(r0, r1, head));
                r0 = r1;
            }
        });
    }

    // ---------------------------------------------------------------- f32

    /// `a` (`[M, K]`) × `b` (`[K, N]`) → `[M, N]`.
    ///
    /// # Panics
    ///
    /// Panics if either operand is not rank-2 or inner dims disagree.
    pub fn matmul(&self, a: &Tensor, b: &Tensor) -> Tensor {
        let (m, _, n) = dims_mm(a, b);
        let mut out = Tensor::zeros([m, n]);
        self.matmul_into(a, b, &mut out);
        out
    }

    /// [`ExecEngine::matmul`] into a caller-owned output buffer
    /// (overwritten), avoiding the allocation.
    ///
    /// # Panics
    ///
    /// Panics on rank/shape mismatches, including `out`.
    pub fn matmul_into(&self, a: &Tensor, b: &Tensor, out: &mut Tensor) {
        let (m, k, n) = dims_mm(a, b);
        assert_eq!(out.dims(), &[m, n], "matmul_into: out must be [{m}, {n}]");
        out.data_mut().fill(0.0);
        self.gemm_f32_rows(a.data(), b.data(), out.data_mut(), m, k, n, 0, k);
    }

    /// `a` (`[M, K]`) × `bᵀ` (`b` stored `[N, K]`) → `[M, N]`, the
    /// backward-pass `dX = dY · Wᵀ` primitive.
    ///
    /// # Panics
    ///
    /// Panics if either operand is not rank-2 or the K dims disagree.
    pub fn matmul_bt(&self, a: &Tensor, b: &Tensor) -> Tensor {
        let (m, _, n) = dims_bt(a, b);
        let mut out = Tensor::zeros([m, n]);
        self.matmul_bt_into(a, b, &mut out);
        out
    }

    /// [`ExecEngine::matmul_bt`] into a caller-owned buffer (overwritten).
    ///
    /// # Panics
    ///
    /// Panics on rank/shape mismatches, including `out`.
    pub fn matmul_bt_into(&self, a: &Tensor, b: &Tensor, out: &mut Tensor) {
        let (m, k, n) = dims_bt(a, b);
        assert_eq!(
            out.dims(),
            &[m, n],
            "matmul_bt_into: out must be [{m}, {n}]"
        );
        out.data_mut().fill(0.0);
        let (ad, bd) = (a.data(), b.data());
        self.partition_rows(out.data_mut(), n, m, m * n * k, &|r0, r1, chunk| {
            kernels::gemm_bt_f32(
                self.backend,
                &ad[r0 * k..],
                k,
                bd,
                k,
                chunk,
                n,
                r1 - r0,
                n,
                0,
                k,
            );
        });
    }

    /// `aᵀ` (`a` stored `[K, M]`) × `b` (`[K, N]`) → `[M, N]`, the
    /// weight-gradient `dW = Xᵀ · dY` primitive.
    ///
    /// # Panics
    ///
    /// Panics if either operand is not rank-2 or the K dims disagree.
    pub fn matmul_at(&self, a: &Tensor, b: &Tensor) -> Tensor {
        let (m, _, n) = dims_at(a, b);
        let mut out = Tensor::zeros([m, n]);
        self.matmul_at_acc(a, b, &mut out);
        out
    }

    /// [`ExecEngine::matmul_at`] into a caller-owned buffer (overwritten).
    ///
    /// # Panics
    ///
    /// Panics on rank/shape mismatches, including `out`.
    pub fn matmul_at_into(&self, a: &Tensor, b: &Tensor, out: &mut Tensor) {
        let (m, _, n) = dims_at(a, b);
        assert_eq!(
            out.dims(),
            &[m, n],
            "matmul_at_into: out must be [{m}, {n}]"
        );
        out.data_mut().fill(0.0);
        self.matmul_at_acc(a, b, out);
    }

    /// **Accumulates** `aᵀ · b` into `acc` (`acc += aᵀ·b`) — the gradient
    /// hot path: backward passes add weight gradients straight into the
    /// parameter's gradient buffer instead of allocating a fresh tensor
    /// per step.
    ///
    /// # Panics
    ///
    /// Panics on rank/shape mismatches, including `acc`.
    pub fn matmul_at_acc(&self, a: &Tensor, b: &Tensor, acc: &mut Tensor) {
        let (m, k, n) = dims_at(a, b);
        assert_eq!(acc.dims(), &[m, n], "matmul_at_acc: acc must be [{m}, {n}]");
        let (ad, bd) = (a.data(), b.data());
        self.partition_rows(acc.data_mut(), n, m, m * n * k, &|r0, r1, chunk| {
            kernels::gemm_at_f32(self.backend, ad, m, bd, n, chunk, n, r0, r1, n, 0, k);
        });
    }

    /// Batched matmul: `[B, M, K] × [B, K, N] → [B, M, N]`.
    ///
    /// # Panics
    ///
    /// Panics if operands are not rank-3 or batch/inner dims disagree.
    pub fn batched_matmul(&self, a: &Tensor, b: &Tensor) -> Tensor {
        assert_eq!(a.rank(), 3, "batched_matmul: `a` must be rank-3");
        assert_eq!(b.rank(), 3, "batched_matmul: `b` must be rank-3");
        let (ba, m, k) = (a.dims()[0], a.dims()[1], a.dims()[2]);
        let (bb, kb, n) = (b.dims()[0], b.dims()[1], b.dims()[2]);
        assert_eq!(ba, bb, "batched_matmul: batch sizes {ba} vs {bb} disagree");
        assert_eq!(k, kb, "batched_matmul: inner dims {k} vs {kb} disagree");
        let mut out = vec![0.0f32; ba * m * n];
        for batch in 0..ba {
            self.gemm_f32_rows(
                &a.data()[batch * m * k..(batch + 1) * m * k],
                &b.data()[batch * k * n..(batch + 1) * k * n],
                &mut out[batch * m * n..(batch + 1) * m * n],
                m,
                k,
                n,
                0,
                k,
            );
        }
        Tensor::from_vec(out, [ba, m, n])
    }

    /// Streams the K-tiled partial-sum (PSUM) tiles of `a · b` to `f`
    /// without materializing them: one reusable `[M, N]` buffer holds the
    /// current tile, computed in parallel, and `f(step, tile)` is called
    /// once per tile in accumulation order. `Σ_step tile_step = a·b`
    /// exactly (paper eq 8).
    ///
    /// # Panics
    ///
    /// Panics if operands are not rank-2, inner dims disagree, or
    /// `k_tile == 0`.
    pub fn for_each_k_tile(
        &self,
        a: &Tensor,
        b: &Tensor,
        k_tile: usize,
        mut f: impl FnMut(usize, &Tensor),
    ) {
        assert!(k_tile > 0, "k_tile must be positive");
        let (m, k, n) = dims_mm(a, b);
        let np = k.div_ceil(k_tile);
        let mut tile = Tensor::zeros([m, n]);
        for t in 0..np {
            let k0 = t * k_tile;
            let k1 = usize::min(k0 + k_tile, k);
            tile.data_mut().fill(0.0);
            self.gemm_f32_rows(a.data(), b.data(), tile.data_mut(), m, k, n, k0, k1);
            f(t, &tile);
        }
    }

    /// Computes `a · b` by folding the K-tiled PSUM stream through `fold`
    /// — without collecting the tiles. `fold(step, running, tile)` receives
    /// the running accumulation (initially zero); the default fold
    /// `running += tile` reproduces plain matmul, a requantizing fold
    /// implements APSQ in the fake-quant domain.
    ///
    /// # Panics
    ///
    /// Panics if operands are not rank-2, inner dims disagree, or
    /// `k_tile == 0`.
    pub fn matmul_tiled_fold(
        &self,
        a: &Tensor,
        b: &Tensor,
        k_tile: usize,
        mut fold: impl FnMut(usize, &mut Tensor, &Tensor),
    ) -> Tensor {
        let (m, _, n) = dims_mm(a, b);
        let mut running = Tensor::zeros([m, n]);
        self.for_each_k_tile(a, b, k_tile, |step, tile| fold(step, &mut running, tile));
        running
    }

    /// Collects the K-tiled PSUM stream into a `Vec` (each tile `[M, N]`).
    /// Prefer [`ExecEngine::for_each_k_tile`] unless a later pass genuinely
    /// needs every tile at once (e.g. scale calibration).
    ///
    /// # Panics
    ///
    /// Panics if operands are not rank-2, inner dims disagree, or
    /// `k_tile == 0`.
    pub fn matmul_psum_tiles(&self, a: &Tensor, b: &Tensor, k_tile: usize) -> Vec<Tensor> {
        let mut tiles = Vec::new();
        self.for_each_k_tile(a, b, k_tile, |_, tile| tiles.push(tile.clone()));
        tiles
    }

    #[allow(clippy::too_many_arguments)]
    fn gemm_f32_rows(
        &self,
        a: &[f32],
        b: &[f32],
        out: &mut [f32],
        m: usize,
        k: usize,
        n: usize,
        k0: usize,
        k1: usize,
    ) {
        self.partition_rows(out, n, m, m * n * (k1 - k0), &|r0, r1, chunk| {
            kernels::gemm_f32(
                self.backend,
                &a[r0 * k..],
                k,
                b,
                n,
                chunk,
                n,
                r1 - r0,
                n,
                k0,
                k1,
            );
        });
    }

    // ------------------------------------------------------------- integer

    /// Exact integer matmul: `[M, K]` i8 × `[K, N]` i8 → `[M, N]` i32.
    /// Bit-identical to the serial reference for every thread count.
    ///
    /// # Panics
    ///
    /// Panics if operands are not rank-2 or inner dims disagree.
    pub fn int8_matmul(&self, a: &Int8Tensor, b: &Int8Tensor) -> Int32Tensor {
        let (m, _, n) = dims_i8(a, b);
        let mut out = Int32Tensor::zeros([m, n]);
        self.int8_matmul_into(a, b, &mut out);
        out
    }

    /// [`ExecEngine::int8_matmul`] into a caller-owned buffer
    /// (overwritten).
    ///
    /// # Panics
    ///
    /// Panics on rank/shape mismatches, including `out`.
    pub fn int8_matmul_into(&self, a: &Int8Tensor, b: &Int8Tensor, out: &mut Int32Tensor) {
        let (m, k, n) = dims_i8(a, b);
        assert_eq!(
            out.dims(),
            &[m, n],
            "int8_matmul_into: out must be [{m}, {n}]"
        );
        out.data_mut().fill(0);
        self.gemm_i8_rows(a.data(), b.data(), out.data_mut(), m, k, n, 0, k);
    }

    /// **Accumulates** `a · b` into `acc` (`acc += a·b`) — the integer
    /// twin of [`ExecEngine::matmul_at_acc`]: residual/requantizing
    /// epilogues add fresh partial products straight into a caller-owned
    /// i32 accumulator instead of allocating per step. Addition is exact,
    /// so results stay bit-identical for every thread count.
    ///
    /// # Panics
    ///
    /// Panics on rank/shape mismatches, including `acc`.
    pub fn int8_matmul_acc(&self, a: &Int8Tensor, b: &Int8Tensor, acc: &mut Int32Tensor) {
        let (m, k, n) = dims_i8(a, b);
        assert_eq!(
            acc.dims(),
            &[m, n],
            "int8_matmul_acc: acc must be [{m}, {n}]"
        );
        self.gemm_i8_rows(a.data(), b.data(), acc.data_mut(), m, k, n, 0, k);
    }

    /// Exact integer transposed-B matmul: `a` (`[M, K]` i8) × `bᵀ` (`b`
    /// stored `[N, K]` i8) → `[M, N]` i32 — the weight layout a
    /// weight-stationary datapath keeps resident, and the decode-path
    /// `[B, d] × Wᵀ` primitive.
    ///
    /// # Panics
    ///
    /// Panics if operands are not rank-2 or the K dims disagree.
    pub fn int8_matmul_bt(&self, a: &Int8Tensor, b: &Int8Tensor) -> Int32Tensor {
        let (m, _, n) = dims_bt_i8(a, b);
        let mut out = Int32Tensor::zeros([m, n]);
        self.int8_matmul_bt_into(a, b, &mut out);
        out
    }

    /// [`ExecEngine::int8_matmul_bt`] into a caller-owned buffer
    /// (overwritten).
    ///
    /// # Panics
    ///
    /// Panics on rank/shape mismatches, including `out`.
    pub fn int8_matmul_bt_into(&self, a: &Int8Tensor, b: &Int8Tensor, out: &mut Int32Tensor) {
        let (m, k, n) = dims_bt_i8(a, b);
        assert_eq!(
            out.dims(),
            &[m, n],
            "int8_matmul_bt_into: out must be [{m}, {n}]"
        );
        out.data_mut().fill(0);
        let (ad, bd) = (a.data(), b.data());
        self.partition_rows(out.data_mut(), n, m, m * n * k, &|r0, r1, chunk| {
            kernels::gemm_bt_i8(
                self.backend,
                &ad[r0 * k..],
                k,
                bd,
                k,
                chunk,
                n,
                r1 - r0,
                n,
                0,
                k,
            );
        });
    }

    /// Every `k_tile`-deep exact i32 PSUM tile of `a · bᵀ` (`a` row-major
    /// `[M, K]` i8, `b` row-major `[N, K]` i8 — the weight-stationary
    /// layout) written **step-major** into a caller-owned buffer in one
    /// sweep over K: tile `s` (input channels `[s·k_tile, (s+1)·k_tile)`,
    /// the last one ragged) lands in `out[s·M·N..(s+1)·M·N]` as `[M, N]`.
    /// This is the PE array's PSUM stream, produced without one kernel
    /// re-entry or one allocation per tile; `apsq_core::ApsqFold` folds
    /// it. Steps are partitioned over the worker pool, so the buffer is
    /// bit-identical for every thread count.
    ///
    /// # Panics
    ///
    /// Panics if `k == 0`, `k_tile == 0`, either operand's length is not
    /// a multiple of `k`, or `out.len() != ⌈k/k_tile⌉·M·N`.
    pub fn int8_bt_psums_into(&self, a: &[i8], b: &[i8], k: usize, k_tile: usize, out: &mut [i32]) {
        assert!(k > 0 && k_tile > 0, "k and k_tile must be positive");
        assert!(
            a.len().is_multiple_of(k) && b.len().is_multiple_of(k),
            "operand lengths {} and {} are not multiples of K = {k}",
            a.len(),
            b.len()
        );
        let (m, n) = (a.len() / k, b.len() / k);
        let np = k.div_ceil(k_tile);
        let plane = m * n;
        assert_eq!(
            out.len(),
            np * plane,
            "int8_bt_psums_into: out must hold {np} steps of [{m}, {n}]"
        );
        self.partition_steps(out, plane, k, k_tile, &|chunk, k0, k1| {
            kernels::gemm_bt_i8_psums(self.backend, a, k, b, k, chunk, m, n, k0, k1, k_tile)
        });
    }

    /// [`ExecEngine::int8_bt_psums_into`] for `b` stored `[K, N]` with row
    /// stride `ldb`: row `l` of `b` is `b[l·ldb..l·ldb + n]`, so `b` can be
    /// a column block of a wider matrix — one head's slice of a KV
    /// cache's value rows, whose reduction axis is the context. `a` is
    /// row-major `[M, K]`. Step-major output, bit-identical to the
    /// transposed-layout buffer of the same product.
    ///
    /// # Panics
    ///
    /// Panics if `k == 0`, `k_tile == 0`, `a.len()` is not a multiple of
    /// `k`, `ldb < n`, `b` is too short for `k` rows, or `out.len() !=
    /// ⌈k/k_tile⌉·M·N`.
    #[allow(clippy::too_many_arguments)]
    pub fn int8_psums_into(
        &self,
        a: &[i8],
        b: &[i8],
        ldb: usize,
        n: usize,
        k: usize,
        k_tile: usize,
        out: &mut [i32],
    ) {
        assert!(k > 0 && k_tile > 0, "k and k_tile must be positive");
        assert!(
            a.len().is_multiple_of(k),
            "operand length {} is not a multiple of K = {k}",
            a.len()
        );
        assert!(ldb >= n, "row stride {ldb} is shorter than a row of {n}");
        assert!(
            n == 0 || b.len() >= (k - 1) * ldb + n,
            "b holds {} codes, short of {k} rows of stride {ldb}",
            b.len()
        );
        let m = a.len() / k;
        let plane = m * n;
        assert_eq!(
            out.len(),
            k.div_ceil(k_tile) * plane,
            "int8_psums_into: out must hold {} steps of [{m}, {n}]",
            k.div_ceil(k_tile)
        );
        self.partition_steps(out, plane, k, k_tile, &|chunk, k0, k1| {
            kernels::gemm_i8_psums(self.backend, a, k, b, ldb, chunk, m, n, k0, k1, k_tile)
        });
    }

    /// Splits a step-major PSUM buffer (`plane` words per step) into
    /// contiguous runs of whole steps and runs `body(chunk, k0, k1)` on
    /// each — the K range `[k0, k1)` those steps cover — in parallel when
    /// the product (`plane · k` MACs) justifies spawning.
    fn partition_steps(
        &self,
        out: &mut [i32],
        plane: usize,
        k: usize,
        k_tile: usize,
        body: &(impl Fn(&mut [i32], usize, usize) + Sync),
    ) {
        if plane == 0 {
            return;
        }
        let np = k.div_ceil(k_tile);
        let chunks = self.threads.min(np);
        if chunks <= 1 || plane * k < self.spawn_threshold {
            body(out, 0, k);
            return;
        }
        let steps = np.div_ceil(chunks);
        std::thread::scope(|s| {
            for (c, chunk) in out.chunks_mut(steps * plane).enumerate() {
                let k0 = c * steps * k_tile;
                let k1 = usize::min(k0 + steps * k_tile, k);
                s.spawn(move || body(chunk, k0, k1));
            }
        });
    }

    /// Collects the exact i32 PSUM tile stream of `a · b` (`b` stored
    /// `[K, N]`) into one tensor per `k_tile`-deep step — for callers
    /// that need every tile as its own tensor (golden-model tests,
    /// simulators). The serving paths fold the step-major buffer of
    /// [`ExecEngine::int8_psums_into`] / [`ExecEngine::int8_bt_psums_into`]
    /// directly.
    ///
    /// # Panics
    ///
    /// Panics if operands are not rank-2, inner dims disagree, or
    /// `k_tile == 0`.
    pub fn int8_matmul_psum_tiles(
        &self,
        a: &Int8Tensor,
        b: &Int8Tensor,
        k_tile: usize,
    ) -> Vec<Int32Tensor> {
        assert!(k_tile > 0, "k_tile must be positive");
        let (m, k, n) = dims_i8(a, b);
        if k == 0 {
            return Vec::new();
        }
        let np = k.div_ceil(k_tile);
        let mut psums = vec![0i32; np * m * n];
        self.int8_psums_into(a.data(), b.data(), n, n, k, k_tile, &mut psums);
        (0..np)
            .map(|s| Int32Tensor::from_vec(psums[s * m * n..(s + 1) * m * n].to_vec(), [m, n]))
            .collect()
    }

    /// Low-level ranged integer GEMM over sub-blocks of larger matrices:
    /// accumulates `out[i, j] += Σ_{l ∈ [k0, k1)} a[i, l] · b[l, j]` for
    /// `i < m`, `j < n` with explicit leading dimensions. This is the entry
    /// point the accelerator simulators use to compute one PE-array output
    /// tile in place (slicing `a` by row/K range and `b` by column range),
    /// parallelized over the tile's rows.
    ///
    /// # Panics
    ///
    /// Panics if any row of the addressed region escapes a slice.
    #[allow(clippy::too_many_arguments)]
    pub fn int8_gemm_block(
        &self,
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
        self.partition_rows(out, ldo, m, m * n * (k1 - k0), &|r0, r1, chunk| {
            kernels::gemm_i8(
                self.backend,
                &a[r0 * lda..],
                lda,
                b,
                ldb,
                chunk,
                ldo,
                r1 - r0,
                n,
                k0,
                k1,
            );
        });
    }

    #[allow(clippy::too_many_arguments)]
    fn gemm_i8_rows(
        &self,
        a: &[i8],
        b: &[i8],
        out: &mut [i32],
        m: usize,
        k: usize,
        n: usize,
        k0: usize,
        k1: usize,
    ) {
        self.partition_rows(out, n, m, m * n * (k1 - k0), &|r0, r1, chunk| {
            kernels::gemm_i8(
                self.backend,
                &a[r0 * k..],
                k,
                b,
                n,
                chunk,
                n,
                r1 - r0,
                n,
                k0,
                k1,
            );
        });
    }

    // ------------------------------------------------------------ conv/im2col

    /// im2col lowering of an `[C, H, W]` input (see [`crate::im2col`]),
    /// parallelized over output rows.
    ///
    /// # Panics
    ///
    /// Same conditions as [`crate::im2col`].
    pub fn im2col(&self, input: &Tensor, ksize: usize, stride: usize) -> Tensor {
        assert_eq!(input.rank(), 3, "im2col expects [C, H, W]");
        let dims = [input.dims()[0], input.dims()[1], input.dims()[2]];
        let (out, rows, cols) = self.im2col_buffer(input.data(), dims, ksize, stride);
        Tensor::from_vec(out, [rows, cols])
    }

    /// Integer im2col for the bit-accurate path, parallelized over output
    /// rows.
    ///
    /// # Panics
    ///
    /// Same conditions as [`crate::im2col`].
    pub fn im2col_i8(&self, input: &Int8Tensor, ksize: usize, stride: usize) -> Int8Tensor {
        assert_eq!(input.shape().rank(), 3, "im2col expects [C, H, W]");
        let dims = [input.dims()[0], input.dims()[1], input.dims()[2]];
        let (out, rows, cols) = self.im2col_buffer(input.data(), dims, ksize, stride);
        Int8Tensor::from_vec(out, [rows, cols])
    }

    /// Shared im2col geometry + parallel fill for both element types:
    /// returns the `[rows, cols]` patch matrix as a flat buffer.
    fn im2col_buffer<T: Copy + Default + Send + Sync>(
        &self,
        data: &[T],
        [c, h, w]: [usize; 3],
        ksize: usize,
        stride: usize,
    ) -> (Vec<T>, usize, usize) {
        assert!(ksize > 0 && stride > 0, "degenerate kernel/stride");
        assert!(
            h >= ksize && w >= ksize,
            "kernel {ksize} does not fit {h}x{w}"
        );
        let ho = (h - ksize) / stride + 1;
        let wo = (w - ksize) / stride + 1;
        let cols = c * ksize * ksize;
        let mut out = vec![T::default(); ho * wo * cols];
        self.partition_rows(&mut out, cols, ho * wo, ho * wo * cols, &|r0, r1, chunk| {
            im2col_rows(data, chunk, r0, r1, c, h, w, ksize, stride, wo, cols);
        });
        (out, ho * wo, cols)
    }

    /// Convolution via im2col + GEMM: `[C, H, W] ⊛ [Co, C, K, K]` →
    /// `[Ho·Wo, Co]` (the GEMM layout the accelerator produces), both
    /// stages running through the engine.
    ///
    /// # Panics
    ///
    /// Panics on rank/shape mismatches.
    pub fn conv2d_i8_gemm(
        &self,
        input: &Int8Tensor,
        weight: &Int8Tensor,
        stride: usize,
    ) -> Int32Tensor {
        assert_eq!(weight.shape().rank(), 4, "weight must be [Co, C, K, K]");
        let (co, c, k) = (weight.dims()[0], weight.dims()[1], weight.dims()[2]);
        let lowered = self.im2col_i8(input, k, stride);
        // Reshape weights to [C·K·K, Co].
        let cols = c * k * k;
        let mut wmat = vec![0i8; cols * co];
        for oc in 0..co {
            let mut idx = 0;
            for ch in 0..c {
                for ky in 0..k {
                    for kx in 0..k {
                        wmat[idx * co + oc] = weight.at(&[oc, ch, ky, kx]);
                        idx += 1;
                    }
                }
            }
        }
        let wmat = Int8Tensor::from_vec(wmat, [cols, co]);
        self.int8_matmul(&lowered, &wmat)
    }
}

/// Copies im2col patch rows `[r0, r1)` into `chunk` (local row 0 = global
/// row `r0`); generic over the element type so f32 and i8 share the loop.
#[allow(clippy::too_many_arguments)]
fn im2col_rows<T: Copy>(
    data: &[T],
    chunk: &mut [T],
    r0: usize,
    r1: usize,
    c: usize,
    h: usize,
    w: usize,
    ksize: usize,
    stride: usize,
    wo: usize,
    cols: usize,
) {
    for row in r0..r1 {
        let (oy, ox) = (row / wo, row % wo);
        let dst = &mut chunk[(row - r0) * cols..(row - r0 + 1) * cols];
        let mut col = 0;
        for ch in 0..c {
            for ky in 0..ksize {
                let src = ch * h * w + (oy * stride + ky) * w + ox * stride;
                for kx in 0..ksize {
                    dst[col] = data[src + kx];
                    col += 1;
                }
            }
        }
    }
}

fn dims_mm(a: &Tensor, b: &Tensor) -> (usize, usize, usize) {
    assert_eq!(a.rank(), 2, "matmul: `a` must be rank-2, got {}", a.shape());
    assert_eq!(b.rank(), 2, "matmul: `b` must be rank-2, got {}", b.shape());
    let (m, k) = (a.dims()[0], a.dims()[1]);
    let (kb, n) = (b.dims()[0], b.dims()[1]);
    assert_eq!(k, kb, "matmul: inner dimensions {k} vs {kb} disagree");
    (m, k, n)
}

fn dims_bt(a: &Tensor, b: &Tensor) -> (usize, usize, usize) {
    assert_eq!(a.rank(), 2, "matmul_bt: `a` must be rank-2");
    assert_eq!(b.rank(), 2, "matmul_bt: `b` must be rank-2");
    let (m, k) = (a.dims()[0], a.dims()[1]);
    let (n, kb) = (b.dims()[0], b.dims()[1]);
    assert_eq!(k, kb, "matmul_bt: inner dimensions {k} vs {kb} disagree");
    (m, k, n)
}

fn dims_at(a: &Tensor, b: &Tensor) -> (usize, usize, usize) {
    assert_eq!(a.rank(), 2, "matmul_at: `a` must be rank-2");
    assert_eq!(b.rank(), 2, "matmul_at: `b` must be rank-2");
    let (k, m) = (a.dims()[0], a.dims()[1]);
    let (kb, n) = (b.dims()[0], b.dims()[1]);
    assert_eq!(k, kb, "matmul_at: inner dimensions {k} vs {kb} disagree");
    (m, k, n)
}

fn dims_i8(a: &Int8Tensor, b: &Int8Tensor) -> (usize, usize, usize) {
    assert_eq!(a.shape().rank(), 2, "int8_matmul: `a` must be rank-2");
    assert_eq!(b.shape().rank(), 2, "int8_matmul: `b` must be rank-2");
    let (m, k) = (a.dims()[0], a.dims()[1]);
    let (kb, n) = (b.dims()[0], b.dims()[1]);
    assert_eq!(k, kb, "int8_matmul: inner dimensions {k} vs {kb} disagree");
    (m, k, n)
}

fn dims_bt_i8(a: &Int8Tensor, b: &Int8Tensor) -> (usize, usize, usize) {
    assert_eq!(a.shape().rank(), 2, "int8_matmul_bt: `a` must be rank-2");
    assert_eq!(b.shape().rank(), 2, "int8_matmul_bt: `b` must be rank-2");
    let (m, k) = (a.dims()[0], a.dims()[1]);
    let (n, kb) = (b.dims()[0], b.dims()[1]);
    assert_eq!(
        k, kb,
        "int8_matmul_bt: inner dimensions {k} vs {kb} disagree"
    );
    (m, k, n)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn f32_pair(m: usize, k: usize, n: usize) -> (Tensor, Tensor) {
        let a = Tensor::from_vec(
            (0..m * k)
                .map(|x| ((x * 31 + 7) % 101) as f32 * 0.03 - 1.5)
                .collect(),
            [m, k],
        );
        let b = Tensor::from_vec(
            (0..k * n)
                .map(|x| ((x * 17 + 3) % 97) as f32 * 0.05 - 2.4)
                .collect(),
            [k, n],
        );
        (a, b)
    }

    fn i8_pair(m: usize, k: usize, n: usize) -> (Int8Tensor, Int8Tensor) {
        let a = Int8Tensor::from_vec(
            (0..m * k).map(|x| ((x * 37 + 11) % 255) as i8).collect(),
            [m, k],
        );
        let b = Int8Tensor::from_vec(
            (0..k * n).map(|x| ((x * 73 + 5) % 251) as i8).collect(),
            [k, n],
        );
        (a, b)
    }

    #[test]
    fn f32_bit_identical_across_thread_counts() {
        // Sizes chosen to exceed the inline threshold so threads really run.
        for (m, k, n) in [(37, 64, 41), (64, 129, 33)] {
            let (a, b) = f32_pair(m, k, n);
            let want = ExecEngine::serial().matmul(&a, &b);
            for threads in [2, 3, 4, 8] {
                let eng = ExecEngine::with_threads(threads).with_spawn_threshold(0);
                assert_eq!(eng.matmul(&a, &b), want, "threads={threads} {m}x{k}x{n}");
            }
        }
    }

    #[test]
    fn int8_bit_identical_across_thread_counts_and_matches_reference() {
        for (m, k, n) in [(29, 70, 31), (64, 128, 32)] {
            let (a, b) = i8_pair(m, k, n);
            let reference = crate::int_tensor::int8_matmul(&a, &b);
            for threads in [1, 2, 3, 8] {
                let eng = ExecEngine::with_threads(threads).with_spawn_threshold(0);
                assert_eq!(
                    eng.int8_matmul(&a, &b),
                    reference,
                    "threads={threads} {m}x{k}x{n}"
                );
            }
        }
    }

    #[test]
    fn small_dispatch_runs_inline_and_still_matches() {
        let (a, b) = f32_pair(3, 4, 5);
        assert_eq!(
            ExecEngine::with_threads(8).matmul(&a, &b),
            ExecEngine::serial().matmul(&a, &b)
        );
    }

    #[test]
    fn into_variants_overwrite_stale_contents() {
        let (a, b) = f32_pair(6, 10, 7);
        let eng = ExecEngine::serial();
        let mut out = Tensor::full([6, 7], 123.0);
        eng.matmul_into(&a, &b, &mut out);
        assert_eq!(out, eng.matmul(&a, &b));

        let bt = b.transpose();
        let mut out = Tensor::full([6, 10], -9.0);
        eng.matmul_bt_into(&eng.matmul(&a, &b), &bt.transpose(), &mut out);
        // (a·b)·bᵀᵀᵀ sanity is covered elsewhere; here: buffer equality.
        assert_eq!(out, eng.matmul_bt(&eng.matmul(&a, &b), &bt.transpose()));

        let at = a.transpose();
        let mut out = Tensor::full([6, 7], 7.0);
        eng.matmul_at_into(&at, &b, &mut out);
        assert_eq!(out, eng.matmul_at(&at, &b));
    }

    #[test]
    fn at_acc_accumulates() {
        let (a, b) = f32_pair(5, 9, 4);
        let at = a.transpose();
        let eng = ExecEngine::serial();
        let grad1 = eng.matmul_at(&at, &b);
        let mut acc = grad1.clone();
        eng.matmul_at_acc(&at, &b, &mut acc);
        for (x, y) in acc.data().iter().zip(grad1.data()) {
            assert!((x - 2.0 * y).abs() <= 1e-4 * (1.0 + y.abs()));
        }
    }

    #[test]
    fn k_tiles_stream_matches_collected_tiles() {
        let (a, b) = f32_pair(5, 23, 6);
        let eng = ExecEngine::with_threads(2).with_spawn_threshold(0);
        let collected = eng.matmul_psum_tiles(&a, &b, 7);
        let mut steps = 0;
        eng.for_each_k_tile(&a, &b, 7, |step, tile| {
            assert_eq!(tile, &collected[step]);
            steps += 1;
        });
        assert_eq!(steps, 23usize.div_ceil(7));
    }

    fn transpose_i8(b: &Int8Tensor) -> Int8Tensor {
        let (k, n) = (b.dims()[0], b.dims()[1]);
        let mut bt = vec![0i8; n * k];
        for l in 0..k {
            for j in 0..n {
                bt[j * k + l] = b.data()[l * n + j];
            }
        }
        Int8Tensor::from_vec(bt, [n, k])
    }

    #[test]
    fn int8_bt_matches_plain_across_thread_counts() {
        for (m, k, n) in [(1, 70, 31), (13, 128, 32)] {
            let (a, b) = i8_pair(m, k, n);
            let bt = transpose_i8(&b);
            let want = ExecEngine::serial().int8_matmul(&a, &b);
            for threads in [1, 3, 8] {
                let eng = ExecEngine::with_threads(threads).with_spawn_threshold(0);
                assert_eq!(eng.int8_matmul_bt(&a, &bt), want, "threads={threads}");
            }
        }
    }

    #[test]
    fn int8_bt_psums_match_kn_layout_tiles_across_thread_counts() {
        for (m, k, n, k_tile) in [(6, 33, 5, 8), (8, 128, 9, 16), (3, 7, 4, 7), (2, 5, 3, 9)] {
            let (a, b) = i8_pair(m, k, n);
            let bt = transpose_i8(&b);
            let legacy = crate::int_tensor::int8_matmul_psum_tiles(&a, &b, k_tile);
            for threads in [1, 3] {
                let eng = ExecEngine::with_threads(threads).with_spawn_threshold(0);
                let mut psums = vec![-1i32; legacy.len() * m * n];
                eng.int8_bt_psums_into(a.data(), bt.data(), k, k_tile, &mut psums);
                for (step, tile) in legacy.iter().enumerate() {
                    assert_eq!(
                        &psums[step * m * n..(step + 1) * m * n],
                        tile.data(),
                        "{m}x{k}x{n} k_tile={k_tile} step {step} threads={threads}"
                    );
                }
            }
        }
    }

    #[test]
    fn int8_acc_accumulates_exactly() {
        let (a, b) = i8_pair(5, 40, 6);
        let eng = ExecEngine::with_threads(2).with_spawn_threshold(0);
        let once = eng.int8_matmul(&a, &b);
        let mut acc = once.clone();
        eng.int8_matmul_acc(&a, &b, &mut acc);
        for (x, y) in acc.data().iter().zip(once.data()) {
            assert_eq!(*x, 2 * y);
        }
    }

    #[test]
    fn tiled_fold_without_collecting_is_matmul() {
        let (a, b) = f32_pair(4, 30, 5);
        let eng = ExecEngine::serial();
        let folded = eng.matmul_tiled_fold(&a, &b, 9, |_, run, tile| {
            *run = &*run + tile;
        });
        // Tile-by-tile summation reassociates the float reduction, so
        // compare within rounding rather than bitwise.
        for (x, y) in folded.data().iter().zip(eng.matmul(&a, &b).data()) {
            assert!((x - y).abs() <= 1e-4 * (1.0 + y.abs()));
        }
    }

    #[test]
    fn engine_conv_matches_legacy_conv() {
        let x = Int8Tensor::from_vec(
            (0..3 * 9 * 9).map(|v| ((v * 29 + 3) % 251) as i8).collect(),
            [3, 9, 9],
        );
        let w = Int8Tensor::from_vec(
            (0..4 * 3 * 3 * 3)
                .map(|v| ((v * 53 + 1) % 241) as i8)
                .collect(),
            [4, 3, 3, 3],
        );
        let legacy = crate::conv::conv2d_i8_gemm(&x, &w, 2);
        for threads in [1, 4] {
            let eng = ExecEngine::with_threads(threads).with_spawn_threshold(0);
            assert_eq!(eng.conv2d_i8_gemm(&x, &w, 2), legacy, "threads={threads}");
        }
    }

    #[test]
    fn batched_matches_per_batch() {
        let a = Tensor::from_vec((0..2 * 3 * 4).map(|x| x as f32 * 0.1).collect(), [2, 3, 4]);
        let b = Tensor::from_vec((0..2 * 4 * 5).map(|x| x as f32 * 0.2).collect(), [2, 4, 5]);
        let eng = ExecEngine::serial();
        let out = eng.batched_matmul(&a, &b);
        assert_eq!(out.dims(), &[2, 3, 5]);
        let legacy = crate::matmul::batched_matmul(&a, &b);
        for (x, y) in out.data().iter().zip(legacy.data()) {
            assert!((x - y).abs() <= 1e-4 * (1.0 + y.abs()));
        }
    }

    #[test]
    #[should_panic(expected = "at least one thread")]
    fn zero_threads_rejected() {
        ExecEngine::with_threads(0);
    }

    #[test]
    fn degenerate_extents_produce_empty_tensors() {
        // Zero-row/column operands must yield empty results, not panic
        // (regression: matmul_bt_into once divided by n == 0).
        let eng = ExecEngine::with_threads(2).with_spawn_threshold(0);
        assert_eq!(
            eng.matmul_bt(&Tensor::zeros([3, 4]), &Tensor::zeros([0, 4])),
            Tensor::zeros([3, 0])
        );
        assert_eq!(
            eng.matmul(&Tensor::zeros([0, 4]), &Tensor::zeros([4, 5])),
            Tensor::zeros([0, 5])
        );
        assert_eq!(
            eng.matmul_at(&Tensor::zeros([4, 0]), &Tensor::zeros([4, 3])),
            Tensor::zeros([0, 3])
        );
    }
}
