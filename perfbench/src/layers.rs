//! Per-layer replays: timed calls into each crate's public functions at
//! the shapes a traced run recorded (median served batch size and context
//! position, the workload's prefill budget), each wrapped in a span.
//!
//! Every replay runs on every workload, so a layer metric that should not
//! move on a workload is measured there too.

use crate::outcome::Outcome;
use crate::qat;
use crate::serving::{base_config, Models};
use crate::stats::median;
use crate::trace::{SpanId, Tracer};
use apsq_core::{grouped_apsq, ApsqConfig, GroupSize, ScaleSchedule, StreamingApsq};
use apsq_dataflow::PsumFormat;
use apsq_models::{bert_base_128, execute_workload, Precision};
use apsq_nn::{
    BlockAllocator, BlockPool, EncoderClassifier, HasParams, Int8Linear, Int8MultiHeadAttention,
    MultiHeadAttention, PagedKvState, PsumMode, QuantLinear,
};
use apsq_quant::Bitwidth;
use apsq_tensor::{ExecEngine, Int8Tensor, Tensor};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// Minimum timed repetitions per replay.
const MIN_REPS: usize = 5;
/// Repetitions stop once this much time was spent (after `MIN_REPS`).
const BUDGET: Duration = Duration::from_millis(40);
/// Hard cap on repetitions per replay.
const MAX_REPS: usize = 400;
/// Sessions held in each replay pool (the largest replayed batch).
const POOL_SESSIONS: usize = 16;
/// Prefill MAC budget replayed when the workload runs no prefill (the
/// smoke config's).
const DEFAULT_PREFILL_MACS: u64 = 30_000;
/// Decode shape replayed when the workload serves no decode steps.
const DEFAULT_BATCH: usize = 8;
const DEFAULT_POSITION: usize = 32;

/// Times replays and records a span around every timed call.
struct Timer<'a> {
    tracer: &'a mut Tracer,
    root: SpanId,
}

impl Timer<'_> {
    /// Median microseconds of the timed region `f` reports (its own start
    /// and end), after two warm-up calls.
    fn region_us(&mut self, name: &'static str, mut f: impl FnMut() -> (Instant, Instant)) -> f64 {
        f();
        f();
        let mut v = Vec::new();
        let start = Instant::now();
        while v.len() < MIN_REPS || (start.elapsed() < BUDGET && v.len() < MAX_REPS) {
            let (a, b) = f();
            self.tracer
                .record(name, Some(self.root), v.len() as u64, a, b);
            v.push((b - a).as_secs_f64() * 1e6);
        }
        median(&v)
    }

    /// Median microseconds of a whole call.
    fn call_us(&mut self, name: &'static str, mut f: impl FnMut()) -> f64 {
        self.region_us(name, || {
            let a = Instant::now();
            f();
            (a, Instant::now())
        })
    }
}

fn rand_f32(rng: &mut StdRng, rows: usize, cols: usize) -> Tensor {
    Tensor::from_vec(
        (0..rows * cols)
            .map(|_| rng.gen_range(-1.0f32..1.0))
            .collect(),
        [rows, cols],
    )
}

fn rand_i8(rng: &mut StdRng, rows: usize, cols: usize) -> Int8Tensor {
    Int8Tensor::from_vec(
        (0..rows * cols)
            .map(|_| rng.gen_range(-127i8..=127))
            .collect(),
        [rows, cols],
    )
}

/// A block pool at one precision, with `block_tokens`-token blocks, sized
/// for the replays.
fn pool(precision: Precision, d: usize, heads: usize, block_tokens: usize) -> BlockPool {
    let blocks = 4 * POOL_SESSIONS * 64 / block_tokens;
    BlockPool::new(match precision {
        Precision::F32 => BlockAllocator::f32(
            blocks * BlockAllocator::f32_bytes_per_block(block_tokens, d),
            block_tokens,
            d,
        ),
        Precision::Int8Apsq => BlockAllocator::int8(
            blocks * BlockAllocator::int8_bytes_per_block(block_tokens, d, heads),
            block_tokens,
            d,
            heads,
        ),
    })
}

/// [`POOL_SESSIONS`] decode sessions of the served model, each grown to
/// `position` tokens, at one precision.
struct Sessions {
    pool: BlockPool,
    states: Vec<PagedKvState>,
    precision: Precision,
}

impl Sessions {
    fn grow(
        models: &Models,
        precision: Precision,
        position: usize,
        block_tokens: usize,
        rng: &mut StdRng,
    ) -> Self {
        let (d, heads) = (models.int8.width(), models.int8.heads());
        let pool = pool(precision, d, heads, block_tokens);
        let mut states: Vec<PagedKvState> = (0..POOL_SESSIONS)
            .map(|_| PagedKvState::for_layers(models.int8.num_layers()))
            .collect();
        let eng = ExecEngine::serial();
        let vocab = models.int8.vocab();
        for _ in 0..position {
            let tokens: Vec<usize> = (0..POOL_SESSIONS)
                .map(|_| rng.gen_range(0..vocab))
                .collect();
            let mut refs: Vec<&mut PagedKvState> = states.iter_mut().collect();
            decode(models, precision, &tokens, &mut refs, &pool, &eng);
        }
        Sessions {
            pool,
            states,
            precision,
        }
    }

    /// Median µs of one decode step of the first `b` sessions, each rep on
    /// copy-on-write forks that are released afterwards.
    fn step_us(&self, t: &mut Timer, name: &'static str, models: &Models, b: usize) -> f64 {
        let eng = ExecEngine::serial();
        let tokens: Vec<usize> = (0..b).map(|i| i % models.int8.vocab()).collect();
        t.region_us(name, || {
            let mut forks: Vec<PagedKvState> = {
                let mut alloc = self.pool.lock();
                self.states[..b]
                    .iter()
                    .map(|s| s.fork(&mut alloc))
                    .collect()
            };
            let mut refs: Vec<&mut PagedKvState> = forks.iter_mut().collect();
            let a = Instant::now();
            std::hint::black_box(decode(
                models,
                self.precision,
                &tokens,
                &mut refs,
                &self.pool,
                &eng,
            ));
            let end = Instant::now();
            let mut alloc = self.pool.lock();
            for f in &mut forks {
                f.release(&mut alloc);
            }
            (a, end)
        })
    }
}

fn decode(
    models: &Models,
    precision: Precision,
    tokens: &[usize],
    states: &mut [&mut PagedKvState],
    pool: &BlockPool,
    eng: &ExecEngine,
) -> Tensor {
    match precision {
        Precision::F32 => models
            .f32
            .decode_batch_paged_with(tokens, states, pool, eng),
        Precision::Int8Apsq => models
            .int8
            .decode_batch_paged_with(tokens, states, pool, eng),
    }
}

/// The replayed decode shape of a run: its median served batch size and
/// context position (defaults when it served no decode steps).
pub fn decode_shape(o: &Outcome) -> (usize, usize) {
    let med = |v: &[usize], default: usize| {
        if v.is_empty() {
            default
        } else {
            let f: Vec<f64> = v.iter().map(|&x| x as f64).collect();
            median(&f) as usize
        }
    };
    (
        med(&o.shapes.batch_sizes, DEFAULT_BATCH).max(1),
        med(&o.shapes.positions, DEFAULT_POSITION).min(62),
    )
}

/// Runs every replay and returns the per-layer metrics they produce.
pub fn replay(o: &Outcome, served: Precision, tracer: &mut Tracer) -> BTreeMap<&'static str, f64> {
    let mut m: BTreeMap<&'static str, f64> = BTreeMap::new();
    let root = tracer.open("replay", None, 0, Instant::now());
    let mut t = Timer { tracer, root };
    let mut rng = StdRng::seed_from_u64(0x5EED_1A7E);
    let eng = ExecEngine::serial();
    let cfg = base_config(served);
    let spec = cfg.model;
    let (d, heads, dff, vocab) = (spec.d_model, spec.heads, spec.d_ff, spec.vocab);
    let (batch, position) = decode_shape(o);
    // The served pool's block size; the config's when no decode was served.
    let block_tokens = match o.shapes.kv_block_tokens {
        0 => cfg.kv_block_tokens,
        served => served,
    };
    let models = Models::build(&cfg);

    // nn: whole decode steps at both precisions.
    let int8 = Sessions::grow(
        &models,
        Precision::Int8Apsq,
        position,
        block_tokens,
        &mut rng,
    );
    let f32 = Sessions::grow(&models, Precision::F32, position, block_tokens, &mut rng);
    for (s, names) in [
        (
            &int8,
            [
                "nn.decode_step_int8_b1_us",
                "nn.decode_step_int8_b8_us",
                "nn.decode_step_int8_b16_us",
            ],
        ),
        (
            &f32,
            [
                "nn.decode_step_f32_b1_us",
                "nn.decode_step_f32_b8_us",
                "nn.decode_step_f32_b16_us",
            ],
        ),
    ] {
        for (b, name) in [1, 8, 16].into_iter().zip(names) {
            let us = s.step_us(&mut t, "nn.decode_step", &models, b);
            m.insert(name, us);
        }
    }

    // serve: step latency minus the replayed decode step at the batch
    // size that served it.
    let served_sessions = match served {
        Precision::F32 => &f32,
        Precision::Int8Apsq => &int8,
    };
    let mut step_at: BTreeMap<usize, f64> = BTreeMap::new();
    let mut overhead_ms = Vec::new();
    for &(latency_us, b) in &o.shapes.step_latency {
        let b = b.clamp(1, POOL_SESSIONS);
        let us = *step_at
            .entry(b)
            .or_insert_with(|| served_sessions.step_us(&mut t, "nn.decode_step", &models, b));
        overhead_ms.push((latency_us - us) / 1e3);
    }
    m.insert(
        "serve.overhead_ms_p50",
        crate::stats::median_or_zero(&overhead_ms),
    );

    // nn: lock-free gathers of one session's layer-0 blocks, and the
    // locked append (a copy-on-write append into a forked tail).
    let mut k8 = Vec::new();
    let mut v8 = Vec::new();
    let mut ke = Vec::new();
    let mut ve = Vec::new();
    let blocks8 = int8.states[0].layer_blocks(0).to_vec();
    let us = t.call_us("nn.pool_gather", || {
        int8.pool
            .gather_int8(&blocks8, position, &mut k8, &mut v8, &mut ke, &mut ve)
    });
    m.insert("nn.pool_gather_int8_us", us);
    let (mut kf, mut vf) = (Vec::new(), Vec::new());
    let blocksf = f32.states[0].layer_blocks(0).to_vec();
    let us = t.call_us("nn.pool_gather", || {
        f32.pool.gather_f32(&blocksf, position, &mut kf, &mut vf)
    });
    m.insert("nn.pool_gather_f32_us", us);
    let row: Vec<f32> = (0..d).map(|_| rng.gen_range(-1.0f32..1.0)).collect();
    let us = t.region_us("nn.pool_append", || {
        let mut fork = f32.states[0].fork(&mut f32.pool.lock());
        let a = Instant::now();
        fork.append_row(0, &mut f32.pool.lock(), &row, &row);
        let end = Instant::now();
        fork.release(&mut f32.pool.lock());
        (a, end)
    });
    m.insert("nn.pool_append_us", us);

    // nn: one attention block and one projection on their own, at the
    // served shape.
    let psum = spec.psum_mode;
    let mut attn = MultiHeadAttention::new(d, heads, Bitwidth::INT8, psum, true, &mut rng);
    let calib = rand_f32(&mut rng, spec.max_len, d);
    let _ = attn.forward_with(&calib, &eng);
    let attn8 = Int8MultiHeadAttention::from_float(&attn, &calib, &eng);
    for precision in [Precision::Int8Apsq, Precision::F32] {
        let p = pool(precision, d, heads, block_tokens);
        let mut states: Vec<PagedKvState> =
            (0..batch).map(|_| PagedKvState::for_layers(1)).collect();
        let run = |x: &Tensor, states: &mut [&mut PagedKvState]| match precision {
            Precision::F32 => attn.forward_decode_batch_paged_with(x, 0, &p, states, &eng),
            Precision::Int8Apsq => attn8.forward_decode_batch_paged_with(x, 0, &p, states, &eng),
        };
        for _ in 0..position {
            let x = rand_f32(&mut rng, batch, d);
            let mut refs: Vec<&mut PagedKvState> = states.iter_mut().collect();
            let _ = run(&x, &mut refs);
            for s in &mut states {
                s.advance();
            }
        }
        let x = rand_f32(&mut rng, batch, d);
        let us = t.region_us("nn.attn_decode", || {
            let mut forks: Vec<PagedKvState> = {
                let mut alloc = p.lock();
                states.iter().map(|s| s.fork(&mut alloc)).collect()
            };
            let mut refs: Vec<&mut PagedKvState> = forks.iter_mut().collect();
            let a = Instant::now();
            std::hint::black_box(run(&x, &mut refs));
            let end = Instant::now();
            let mut alloc = p.lock();
            for f in &mut forks {
                f.release(&mut alloc);
            }
            (a, end)
        });
        let name = match precision {
            Precision::F32 => "nn.attn_decode_f32_us",
            Precision::Int8Apsq => "nn.attn_decode_int8_us",
        };
        m.insert(name, us);
    }
    let mut ql = QuantLinear::new(d, dff, Bitwidth::INT8, psum, &mut rng);
    let _ = ql.forward_with(&calib, &eng);
    let lin8 = Int8Linear::from_quant_linear(&ql);
    let x = rand_f32(&mut rng, batch, d);
    let us = t.call_us("nn.linear", || {
        std::hint::black_box(lin8.forward_inference_with(&x, &eng));
    });
    m.insert("nn.linear_int8_us", us);
    let us = t.call_us("nn.linear", || {
        std::hint::black_box(ql.forward_inference_with(&x, &eng));
    });
    m.insert("nn.linear_f32_us", us);

    // tensor: the widest decode GEMM ([batch, d] x [d, d_ff]) per precision.
    let a8 = rand_i8(&mut rng, batch, d);
    let w8 = rand_i8(&mut rng, dff, d);
    let ops = (2 * batch * d * dff) as f64;
    let us = t.call_us("tensor.gemm_i8", || {
        std::hint::black_box(eng.int8_matmul_bt(&a8, &w8));
    });
    m.insert("tensor.gemm_i8_decode_us", us);
    m.insert("tensor.gemm_i8_decode_gops", ops / us / 1e3);
    let af = rand_f32(&mut rng, batch, d);
    let wf = rand_f32(&mut rng, d, dff);
    let us = t.call_us("tensor.gemm_f32", || {
        std::hint::black_box(eng.matmul(&af, &wf));
    });
    m.insert("tensor.gemm_f32_decode_us", us);
    m.insert("tensor.gemm_f32_decode_gflops", ops / us / 1e3);

    // core: the APSQ fold over one decode GEMM's K tiles.
    let b8 = rand_i8(&mut rng, d, dff);
    let (k_tile, gs) = match psum {
        PsumMode::Apsq { k_tile, gs, .. } => (k_tile, gs),
        PsumMode::Exact => (16, 3),
    };
    let tiles = eng.int8_matmul_psum_tiles(&a8, &b8, k_tile);
    let sched = ScaleSchedule::calibrate(
        std::slice::from_ref(&tiles),
        Bitwidth::INT8,
        GroupSize::new(gs),
    );
    let us = t.region_us("core.apsq_fold", || {
        let mut stream = StreamingApsq::new(sched.clone(), ApsqConfig::int8(gs));
        let a = Instant::now();
        for tile in &tiles {
            stream.push_ref(tile);
        }
        std::hint::black_box(stream.finish());
        (a, Instant::now())
    });
    m.insert("core.apsq_fold_us", us);

    // tensor + core + models: the int8 prefill path at the workload's
    // budget (BERT's first GEMM layer, scaled as execute_layer scales it).
    let budget = if o.shapes.prefill_budget > 0 {
        o.shapes.prefill_budget
    } else {
        DEFAULT_PREFILL_MACS
    };
    let bert = bert_base_128();
    let layer = bert
        .layers
        .iter()
        .find(|l| l.kh == 1 && l.kw == 1 && l.stride == 1)
        .expect("BERT has GEMM layers");
    let (mut tokens, mut co, ci) = (layer.ho * layer.wo, layer.co, layer.ci);
    while (tokens * ci * co) as u64 > budget && (tokens > 1 || co > 1) {
        if tokens >= co {
            tokens = (tokens / 2).max(1);
        } else {
            co = (co / 2).max(1);
        }
    }
    let pa = rand_i8(&mut rng, tokens, ci);
    let pb = rand_i8(&mut rng, ci, co);
    let mut ptiles = Vec::new();
    let us = t.call_us("tensor.gemm_i8_prefill", || {
        ptiles = eng.int8_matmul_psum_tiles(&pa, &pb, ci.min(64));
    });
    m.insert("tensor.gemm_i8_prefill_us", us);
    let us = t.call_us("core.apsq_calibrate_fold", || {
        let sched = ScaleSchedule::calibrate(
            std::slice::from_ref(&ptiles),
            Bitwidth::INT8,
            GroupSize::new(2),
        );
        std::hint::black_box(grouped_apsq(&ptiles, &sched, &ApsqConfig::int8(2)));
    });
    m.insert("core.apsq_calibrate_fold_us", us);
    let mut macs = 0;
    let us = t.call_us("models.prefill_bert", || {
        macs = execute_workload(&eng, &bert, budget, Precision::Int8Apsq).total_macs_executed();
    });
    m.insert("models.prefill_bert_int8_us", us);
    m.insert("models.prefill_macs", macs as f64);

    // tensor: the training GEMMs (weight and input gradients) of the QAT
    // model's widest projection.
    let qcfg = qat::model_config();
    let seq = qat::TASK.sample(&mut rng).tokens.len();
    let x = rand_f32(&mut rng, seq, qcfg.d_model);
    let dy = rand_f32(&mut rng, seq, qcfg.d_ff);
    let w = rand_f32(&mut rng, qcfg.d_model, qcfg.d_ff);
    let us = t.call_us("tensor.gemm_f32_train", || {
        std::hint::black_box(eng.matmul_at(&x, &dy));
        std::hint::black_box(eng.matmul_bt(&dy, &w));
    });
    m.insert("tensor.gemm_f32_train_us", us);

    // nn: QAT forward, backward and optimizer on one sample.
    let mut model = EncoderClassifier::new(&qcfg, qat::TASK.num_outputs(), &mut rng);
    let ex = qat::TASK.sample(&mut rng);
    let us = t.region_us("nn.qat_forward", || {
        let a = Instant::now();
        let logits = model.forward_with(&ex.tokens, &eng);
        let end = Instant::now();
        // Backward consumes the forward's caches before the next rep.
        model.backward_with(&qat::loss_and_grad(&logits, &ex).1, &eng);
        model.zero_grads();
        (a, end)
    });
    m.insert("nn.qat_forward_us", us);
    let us = t.region_us("nn.qat_backward", || {
        let logits = model.forward_with(&ex.tokens, &eng);
        let g = qat::loss_and_grad(&logits, &ex).1;
        let a = Instant::now();
        model.backward_with(&g, &eng);
        let end = Instant::now();
        model.zero_grads();
        (a, end)
    });
    m.insert("nn.qat_backward_us", us);
    let mut step = 0u64;
    let tc = qat::train_config(0, 1);
    let us = t.call_us("nn.qat_optimizer", || {
        step += 1;
        model.visit_params(&mut |p| p.adam_step(tc.lr, step));
        model.apply_quantizer_grads(tc.lr_quant);
        model.zero_grads();
    });
    m.insert("nn.qat_optimizer_us", us);

    // Counts computed from shapes.
    let words = models.int8.psum_words_per_token();
    let words = (words.reads + words.writes) as f64;
    m.insert("core.psum_words_per_token", words);
    m.insert(
        "dataflow.psum_bytes_per_token_int32",
        words * PsumFormat::int32_baseline().beta(),
    );
    m.insert(
        "dataflow.psum_bytes_per_token_apsq",
        words * PsumFormat::apsq_int8(gs).beta(),
    );
    let layers = spec.layers;
    let macs_per_token = layers * (4 * d * d + 2 * d * dff + 2 * position * d) + d * vocab;
    m.insert("tensor.decode_ops_per_token", (2 * macs_per_token) as f64);
    let weight_bytes = match served {
        Precision::F32 => 4,
        Precision::Int8Apsq => 1,
    } * (layers * (4 * d * d + 2 * d * dff) + d * vocab);
    let kv_bytes = layers * position * served.kv_bytes_per_token(d, heads);
    m.insert(
        "tensor.decode_bytes_per_token",
        (weight_bytes / batch + kv_bytes) as f64,
    );
    let end = Instant::now();
    t.tracer.close(root, end);
    m
}
