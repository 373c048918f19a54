//! Incremental (push-based) grouped APSQ, for simulators and engines that
//! hand over PSUM tiles one accumulation step at a time, and the GEMM
//! entry point that folds a whole PSUM stream in one pass.

use crate::config::ApsqConfig;
use crate::fold::{ApsqFold, FoldScales};
use crate::grouped::ApsqRun;
use crate::schedule::ScaleSchedule;
use apsq_tensor::{ExecEngine, Int32Tensor, Int8Tensor, KernelBackend};

/// Push-based grouped APSQ (Algorithm 1): each [`StreamingApsq::push`]
/// runs one step of the [`ApsqFold`] immediately, appending the tile to a
/// step-major buffer whose slots are overwritten by the stored codes as
/// soon as the step is done — the code bank the hardware keeps.
///
/// [`crate::grouped_apsq`] drives this type, so the push-based, batch and
/// one-pass entry points share one implementation.
///
/// # Examples
///
/// ```
/// use apsq_core::{ApsqConfig, ScaleSchedule, StreamingApsq};
/// use apsq_quant::Bitwidth;
/// use apsq_tensor::Int32Tensor;
///
/// let sched = ScaleSchedule::uniform(2, 0, Bitwidth::INT8);
/// let mut s = StreamingApsq::new(sched, ApsqConfig::int8(1));
/// s.push(Int32Tensor::from_vec(vec![10], [1]));
/// s.push(Int32Tensor::from_vec(vec![5], [1]));
/// let run = s.finish();
/// assert_eq!(run.output.data(), &[15]);
/// ```
#[derive(Clone, Debug)]
pub struct StreamingApsq {
    schedule: ScaleSchedule,
    config: ApsqConfig,
    backend: KernelBackend,
    step: usize,
    shape: Option<apsq_tensor::Shape>,
    /// Stored codes of the steps taken so far, step-major.
    codes: Vec<i32>,
    fold: ApsqFold,
    output: Vec<i32>,
}

impl StreamingApsq {
    /// Creates a stream expecting `schedule.len()` tiles, folding on the
    /// detected kernel backend.
    pub fn new(schedule: ScaleSchedule, config: ApsqConfig) -> Self {
        StreamingApsq {
            schedule,
            config,
            backend: KernelBackend::detect(),
            step: 0,
            shape: None,
            codes: Vec::new(),
            fold: ApsqFold::new(),
            output: Vec::new(),
        }
    }

    /// Number of tiles pushed so far.
    pub fn steps_taken(&self) -> usize {
        self.step
    }

    /// Number of tiles expected in total.
    pub fn steps_expected(&self) -> usize {
        self.schedule.len()
    }

    /// Pushes the next PSUM tile.
    ///
    /// # Panics
    ///
    /// Panics if more tiles are pushed than the schedule covers, or if the
    /// tile shape differs from the first tile's.
    pub fn push(&mut self, tile: Int32Tensor) {
        self.push_ref(&tile);
    }

    /// Pushes the next PSUM tile by reference.
    ///
    /// # Panics
    ///
    /// Same conditions as [`StreamingApsq::push`].
    pub fn push_ref(&mut self, tile: &Int32Tensor) {
        let np = self.schedule.len();
        assert!(self.step < np, "stream already received all {} tiles", np);
        match &self.shape {
            Some(shape) => assert_eq!(shape, tile.shape(), "all PSUM tiles must share one shape"),
            None => {
                self.shape = Some(tile.shape().clone());
                self.codes.reserve(np * tile.numel());
                self.output = vec![0; tile.numel()];
                self.fold.begin(tile.numel(), np, self.config.group_size);
            }
        }
        self.codes.extend_from_slice(tile.data());
        let scale = self.schedule.scale(self.step);
        self.fold
            .step(self.backend, &mut self.codes, scale, Some(&mut self.output));
        self.step += 1;
    }

    /// Completes the stream and returns the APSQ result.
    ///
    /// # Panics
    ///
    /// Panics if fewer tiles were pushed than the schedule covers.
    pub fn finish(self) -> ApsqRun {
        assert_eq!(
            self.step,
            self.schedule.len(),
            "stream received {} of {} tiles",
            self.step,
            self.schedule.len()
        );
        let shape = self.shape.expect("a finished stream received tiles");
        let numel = self.output.len();
        ApsqRun {
            output: Int32Tensor::from_vec(self.output, shape),
            stored_codes: split_steps(&self.codes, numel, self.step),
            traffic: self.fold.traffic(),
        }
    }
}

/// Splits a step-major code buffer into one `Vec` per step.
fn split_steps(codes: &[i32], numel: usize, np: usize) -> Vec<Vec<i32>> {
    (0..np)
        .map(|i| codes[i * numel..(i + 1) * numel].to_vec())
        .collect()
}

/// Grouped APSQ over the PSUM stream of an INT8 GEMM `a · b` (`b` stored
/// `[K, N]`): the engine writes every `k_tile`-deep tile of the product
/// into one step-major buffer in a single sweep over K
/// ([`ExecEngine::int8_psums_into`]), and one [`ApsqFold`] pass folds
/// it — no `Vec<Int32Tensor>` is ever materialized. This is the software
/// shape of the RAE sitting next to the PE array.
///
/// Produces exactly the same [`ApsqRun`] as running [`crate::grouped_apsq`]
/// over [`apsq_tensor::int8_matmul_psum_tiles`] (verified by property
/// tests), for every group size and engine thread count.
///
/// # Panics
///
/// Panics if operands are not rank-2, inner dims disagree, `k_tile == 0`,
/// or `schedule.len() != ceil(K / k_tile)`.
///
/// # Examples
///
/// ```
/// use apsq_core::{grouped_apsq, grouped_apsq_streamed, ApsqConfig, GroupSize, ScaleSchedule};
/// use apsq_quant::Bitwidth;
/// use apsq_tensor::{int8_matmul_psum_tiles, ExecEngine, Int8Tensor};
///
/// let a = Int8Tensor::from_vec((0..4 * 16).map(|x| (x % 17) as i8 - 8).collect(), [4, 16]);
/// let b = Int8Tensor::from_vec((0..16 * 3).map(|x| (x % 11) as i8 - 5).collect(), [16, 3]);
/// let tiles = int8_matmul_psum_tiles(&a, &b, 4);
/// let sched = ScaleSchedule::calibrate(
///     std::slice::from_ref(&tiles),
///     Bitwidth::INT8,
///     GroupSize::new(2),
/// );
/// let batch = grouped_apsq(&tiles, &sched, &ApsqConfig::int8(2));
/// let streamed = grouped_apsq_streamed(
///     &ExecEngine::serial(), &a, &b, 4, &sched, &ApsqConfig::int8(2),
/// );
/// assert_eq!(streamed.output, batch.output);
/// ```
pub fn grouped_apsq_streamed(
    engine: &ExecEngine,
    a: &Int8Tensor,
    b: &Int8Tensor,
    k_tile: usize,
    schedule: &ScaleSchedule,
    config: &ApsqConfig,
) -> ApsqRun {
    assert!(k_tile > 0, "k_tile must be positive");
    assert!(
        a.shape().rank() == 2 && b.shape().rank() == 2,
        "grouped_apsq_streamed expects rank-2 operands"
    );
    let (m, k, n) = (a.dims()[0], a.dims()[1], b.dims()[1]);
    assert_eq!(
        b.dims()[0],
        k,
        "inner dimensions {k} vs {} disagree",
        b.dims()[0]
    );
    let np = k.div_ceil(k_tile);
    assert_eq!(
        schedule.len(),
        np,
        "schedule covers {} steps but the GEMM produces {} PSUM tiles",
        schedule.len(),
        np
    );
    let numel = m * n;
    let mut psums = vec![0i32; np * numel];
    engine.int8_psums_into(a.data(), b.data(), n, n, k, k_tile, &mut psums);
    let mut output = vec![0i32; numel];
    let traffic = ApsqFold::new().run(
        engine.backend(),
        &mut psums,
        numel,
        config.group_size,
        FoldScales::Frozen(schedule),
        &mut output,
    );
    ApsqRun {
        output: Int32Tensor::from_vec(output, [m, n]),
        stored_codes: split_steps(&psums, numel, np),
        traffic,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grouped::grouped_apsq;
    use apsq_quant::Bitwidth;

    #[test]
    fn matches_batch_api() {
        let tiles: Vec<Int32Tensor> = (0..6)
            .map(|i| Int32Tensor::from_vec(vec![i * 100 - 250, 37 * i], [2]))
            .collect();
        let sched = ScaleSchedule::calibrate(
            std::slice::from_ref(&tiles),
            Bitwidth::INT8,
            crate::GroupSize::new(2),
        );
        let batch = grouped_apsq(&tiles, &sched, &ApsqConfig::int8(2));
        let mut s = StreamingApsq::new(sched, ApsqConfig::int8(2));
        for t in &tiles {
            s.push(t.clone());
        }
        let run = s.finish();
        assert_eq!(run.output, batch.output);
        assert_eq!(run.traffic, batch.traffic);
    }

    #[test]
    fn streamed_gemm_matches_batch_over_collected_tiles() {
        let a = Int8Tensor::from_vec(
            (0..8 * 48).map(|x| ((x * 37) % 255) as i8).collect(),
            [8, 48],
        );
        let b = Int8Tensor::from_vec(
            (0..48 * 6).map(|x| ((x * 73) % 251) as i8).collect(),
            [48, 6],
        );
        for (k_tile, gs) in [(8usize, 1usize), (8, 2), (8, 4), (8, 6), (7, 3), (48, 1)] {
            let tiles = apsq_tensor::int8_matmul_psum_tiles(&a, &b, k_tile);
            let sched = ScaleSchedule::calibrate(
                std::slice::from_ref(&tiles),
                Bitwidth::INT8,
                crate::GroupSize::new(gs),
            );
            let cfg = ApsqConfig::int8(gs);
            let batch = grouped_apsq(&tiles, &sched, &cfg);
            for threads in [1usize, 4] {
                let eng = ExecEngine::with_threads(threads).with_spawn_threshold(0);
                let run = grouped_apsq_streamed(&eng, &a, &b, k_tile, &sched, &cfg);
                assert_eq!(run.output, batch.output, "k_tile={k_tile} gs={gs}");
                assert_eq!(run.stored_codes, batch.stored_codes);
                assert_eq!(run.traffic, batch.traffic);
            }
        }
    }

    #[test]
    #[should_panic(expected = "already received")]
    fn too_many_pushes() {
        let sched = ScaleSchedule::uniform(1, 0, Bitwidth::INT8);
        let mut s = StreamingApsq::new(sched, ApsqConfig::int8(1));
        s.push(Int32Tensor::zeros([1]));
        s.push(Int32Tensor::zeros([1]));
    }

    #[test]
    #[should_panic(expected = "received 1 of 2")]
    fn too_few_pushes() {
        let sched = ScaleSchedule::uniform(2, 0, Bitwidth::INT8);
        let mut s = StreamingApsq::new(sched, ApsqConfig::int8(1));
        s.push(Int32Tensor::zeros([1]));
        s.finish();
    }

    #[test]
    #[should_panic(expected = "share one shape")]
    fn shape_drift_rejected() {
        let sched = ScaleSchedule::uniform(2, 0, Bitwidth::INT8);
        let mut s = StreamingApsq::new(sched, ApsqConfig::int8(1));
        s.push(Int32Tensor::zeros([2]));
        s.push(Int32Tensor::zeros([3]));
    }

    #[test]
    #[should_panic(expected = "schedule covers")]
    fn streamed_schedule_mismatch_rejected() {
        let a = Int8Tensor::zeros([2, 8]);
        let b = Int8Tensor::zeros([8, 2]);
        grouped_apsq_streamed(
            &ExecEngine::serial(),
            &a,
            &b,
            4,
            &ScaleSchedule::uniform(3, 0, Bitwidth::INT8),
            &ApsqConfig::int8(1),
        );
    }
}
