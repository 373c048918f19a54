//! `qat_apsq`: W8A8 quantization-aware training with the APSQ PSUM path
//! on one GLUE stand-in task, on a serial engine.
//!
//! The benchmark runs the same loop as [`apsq_nn::train_glue`] (no
//! teacher) so that it can time every step and split it into forward,
//! backward and optimizer spans; one run per measurement is replayed
//! through `train_glue` itself and must end with bit-identical weights.

// lint: allow-file(float-reduction-outside-kernels) -- benchmark timing and loss sums; reported figures only, on no fingerprint or response path

use crate::host::{HostLoad, HostMark};
use crate::outcome::{Outcome, Window};
use crate::serving::push_timing;
use crate::trace::Tracer;
use apsq_nn::{
    cross_entropy, mse_loss, train_glue, EncoderClassifier, GlueTask, HasParams, Label,
    ModelConfig, PsumMode, SeqExample, TrainConfig,
};
use apsq_quant::Bitwidth;
use apsq_tensor::{ExecEngine, Tensor};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::{Duration, Instant};

/// The GLUE stand-in task trained (the paper's Fig. 5 task).
pub const TASK: GlueTask = GlueTask::Mrpc;
/// Optimizer steps per training run.
pub const STEPS: usize = 40;
/// Sequences per step.
pub const BATCH: usize = 8;

/// The accuracy experiments' QAT model with grouped APSQ at `gs = 2`
/// and the transformer accelerator's 8-channel PSUM tile.
pub fn model_config() -> ModelConfig {
    ModelConfig {
        vocab: 16,
        max_len: 32,
        d_model: 48,
        heads: 4,
        d_ff: 192,
        layers: 2,
        bits: Bitwidth::INT8,
        psum_mode: PsumMode::Apsq {
            bits: Bitwidth::INT8,
            gs: 2,
            k_tile: 8,
        },
    }
}

/// The training hyper-parameters for one run.
pub fn train_config(seed: u64, threads: usize) -> TrainConfig {
    TrainConfig {
        steps: STEPS,
        batch: BATCH,
        seed,
        threads,
        ..TrainConfig::standard()
    }
}

/// Every parameter's bit pattern, in visit order.
pub fn param_bits(model: &mut EncoderClassifier) -> Vec<u32> {
    let mut bits = Vec::new();
    model.visit_params(&mut |p| bits.extend(p.value.data().iter().map(|v| v.to_bits())));
    bits
}

/// One training run's measurements.
struct RunResult {
    setup_s: f64,
    t0: Instant,
    step_ms: Vec<f64>,
    train_s: f64,
    losses: Vec<f32>,
    /// The trained model (kept for the first run only, for the check).
    model: Option<EncoderClassifier>,
    seed: u64,
}

/// Set-up (model init and data generation, drawing from the RNG in the
/// same order as `train_glue`) followed by `tc.steps` timed steps.
fn train_run(tc: &TrainConfig, eng: &ExecEngine, tracer: &mut Tracer) -> RunResult {
    let cfg = model_config();
    let t_setup = Instant::now();
    let mut rng = StdRng::seed_from_u64(tc.seed);
    let mut model = EncoderClassifier::new(&cfg, TASK.num_outputs(), &mut rng);
    let data: Vec<SeqExample> = (0..tc.steps * tc.batch)
        .map(|_| TASK.sample(&mut rng))
        .collect();
    let setup_s = t_setup.elapsed().as_secs_f64();

    let t0 = Instant::now();
    let run_span = tracer.open("train_run", None, tc.seed, t0);
    let mut step_ms = Vec::with_capacity(tc.steps);
    let mut losses = Vec::with_capacity(tc.steps);
    for (step, batch) in data.chunks(tc.batch).enumerate() {
        let t_step = Instant::now();
        let step_span = tracer.open("train_step", Some(run_span), step as u64, t_step);
        let mut loss_sum = 0.0f32;
        for ex in batch {
            let a = Instant::now();
            let logits = model.forward_with(&ex.tokens, eng);
            let b = Instant::now();
            let (loss, grad) = loss_and_grad(&logits, ex);
            let c = Instant::now();
            model.backward_with(&grad, eng);
            let d = Instant::now();
            tracer.record("nn.qat_forward", Some(step_span), step as u64, a, b);
            tracer.record("nn.qat_backward", Some(step_span), step as u64, c, d);
            loss_sum += loss;
        }
        let a = Instant::now();
        model.visit_params(&mut |p| p.adam_step(tc.lr, step as u64 + 1));
        model.apply_quantizer_grads(tc.lr_quant);
        model.zero_grads();
        let end = Instant::now();
        tracer.record("nn.qat_optimizer", Some(step_span), step as u64, a, end);
        tracer.close(step_span, end);
        step_ms.push((end - t_step).as_secs_f64() * 1e3);
        losses.push(loss_sum / batch.len() as f32);
    }
    let train_s = t0.elapsed().as_secs_f64();
    tracer.close(run_span, Instant::now());
    RunResult {
        setup_s,
        t0,
        step_ms,
        train_s,
        losses,
        model: Some(model),
        seed: tc.seed,
    }
}

/// The loss and its gradient, as `train_glue` computes them without a
/// teacher.
pub fn loss_and_grad(logits: &Tensor, ex: &SeqExample) -> (f32, Tensor) {
    match ex.label {
        Label::Class(c) => cross_entropy(logits, &[c]),
        Label::Value(v) => mse_loss(logits, &Tensor::from_vec(vec![v], [1, 1])),
    }
}

/// Trains runs of [`STEPS`] steps until `seconds` of training have
/// passed (at least two runs), then checks the loss and replays the first
/// run through `train_glue`.
pub fn run(seed: u64, seconds: f64, tracer: &mut Tracer) -> Outcome {
    let cpu0 = crate::host::cpu_time();
    let mut runs: Vec<RunResult> = Vec::new();
    let mut loads = Vec::new();
    let mut trained = 0.0;
    while runs.len() < 2 || trained < seconds {
        // Every run repeats the same seeded training on a fresh model.
        let tc = train_config(seed, 1);
        let mark = HostMark::take();
        let mut r = train_run(&tc, &tc.engine(), tracer);
        loads.push(HostLoad::between(&mark, &HostMark::take()));
        trained += r.train_s + r.setup_s;
        if !runs.is_empty() {
            r.model = None;
        }
        runs.push(r);
    }
    let cpu_s = (crate::host::cpu_time() - cpu0).as_secs_f64();

    let samples = (runs.len() * STEPS * BATCH) as u64;
    let mut o = Outcome {
        tail_q: 90.0,
        attempted: samples,
        succeeded: samples,
        cpu_s,
        ..Outcome::default()
    };
    o.setup_s = runs.iter().map(|r| r.setup_s).collect();
    o.windows = runs
        .iter()
        .zip(&loads)
        .map(|(r, &host)| Window {
            units: (STEPS * BATCH) as f64,
            start: r.t0,
            end: r.t0 + Duration::from_secs_f64(r.train_s),
            step_ms: r.step_ms.clone(),
            host,
        })
        .collect();
    let same = runs.iter().all(|r| r.losses == runs[0].losses);
    o.check(same, || "repeated training runs diverged".to_string());
    let all_finite = runs.iter().all(|r| r.losses.iter().all(|l| l.is_finite()));
    o.check(all_finite, || "a training loss is not finite".to_string());
    let final_loss: Vec<f64> = runs
        .iter()
        .map(|r| *r.losses.last().expect("at least one step") as f64)
        .collect();

    // The benchmark's loop is the library's: same seed, same weights.
    let first = &mut runs[0];
    let mut reference = train_glue(TASK, &model_config(), &train_config(first.seed, 1), None);
    let trained = first.model.as_mut().expect("first run keeps its model");
    o.check(param_bits(trained) == param_bits(&mut reference), || {
        "benchmark training loop diverged from train_glue".to_string()
    });

    o.line(format!(
        "training runs = {} (n; {STEPS} steps x {BATCH} samples, task {})",
        runs.len(),
        TASK.name()
    ));
    o.line(format!(
        "operations: attempted {samples}, succeeded {samples}, failed 0 (training samples)"
    ));
    o.line(format!("failed_frac = 0 frac (n={samples})"));
    o.line(format!(
        "train_samples_s = {:.2} 1/s (n={samples} samples)",
        o.work_units() / o.work_s()
    ));
    let step_ms = o.all_steps();
    push_timing(&mut o, "train_step", &step_ms);
    o.line(format!(
        "final_loss_median = {:.4} (n={} runs; all losses finite: {all_finite})",
        crate::stats::median(&final_loss),
        runs.len()
    ));
    o.line("output check: first run bit-identical to train_glue".to_string());
    // No server runs here: its counters read zero.
    crate::serving::fold_snapshots(&mut o, &[]);
    o.counter("serve.submit_us_p50", 0.0);
    o.counter("serve.gen_lag_ms_p99", 0.0);
    o
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn training_is_bit_identical_at_one_and_two_engine_threads() {
        let mut tc = train_config(23, 1);
        tc.steps = 3;
        let mut off = Tracer::new(false);
        let mut serial = train_run(&tc, &ExecEngine::serial(), &mut off);
        // A zero spawn threshold makes every GEMM split across both
        // threads, however small.
        let two = ExecEngine::with_threads(2).with_spawn_threshold(0);
        let mut threaded = train_run(&tc, &two, &mut off);
        let serial_bits = param_bits(serial.model.as_mut().unwrap());
        assert_eq!(serial_bits, param_bits(threaded.model.as_mut().unwrap()));
        assert_eq!(serial.losses, threaded.losses);
        tc.threads = 2;
        let mut library = train_glue(TASK, &model_config(), &tc, None);
        assert_eq!(serial_bits, param_bits(&mut library));
    }

    #[test]
    fn benchmark_loop_matches_train_glue() {
        let mut tc = train_config(5, 1);
        tc.steps = 2;
        let mut r = train_run(&tc, &tc.engine(), &mut Tracer::new(true));
        let mut reference = train_glue(TASK, &model_config(), &tc, None);
        assert_eq!(
            param_bits(r.model.as_mut().unwrap()),
            param_bits(&mut reference)
        );
        assert!(r.losses.iter().all(|l| l.is_finite()));
    }
}
