//! The two wall-clock serving workloads, `chat_int8` (open loop) and
//! `shared_prefix_f32` (closed loop), and what they share: the single
//! client thread that drives sessions step by step, the recompute check
//! of every served token, and the folding of server counters.

// lint: allow-file(float-reduction-outside-kernels) -- benchmark timing and loss sums; reported figures only, on no fingerprint or response path

use crate::host::{HostLoad, HostMark};
use crate::outcome::{Outcome, Window};
use crate::stats::{self, Summary};
use crate::trace::{SpanId, Tracer};
use apsq_nn::{DecoderLm, Int8DecoderLm};
use apsq_serve::{
    BatchPolicy, MetricsSnapshot, Payload, Precision, Request, ServeConfig, Server, SessionId,
};
use apsq_tensor::{argmax_axis1, ExecEngine, Tensor};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;
use std::sync::mpsc::RecvTimeoutError;
use std::time::{Duration, Instant};

/// Largest decode batch the wall-clock servers coalesce.
pub const MAX_BATCH: usize = 16;

/// `chat_int8` session arrival rate, sessions per second. Set once at
/// about half the int8 server's closed-loop capacity on a 2-CPU x86-64
/// host (AVX2 kernels, 2 workers), so the run sits below the knee.
pub const CHAT_SESSIONS_PER_S: f64 = 40.0;
/// Prompt lengths of `chat_int8` sessions: each segment draws every
/// length of this range equally often, in seeded random order.
pub const CHAT_PROMPT_LENS: std::ops::RangeInclusive<usize> = 8..=23;
/// Generated-token counts of `chat_int8` sessions, drawn like prompts.
pub const CHAT_GEN_LENS: std::ops::RangeInclusive<usize> = 16..=31;
/// `chat_int8` limit on time to first token, for `slo_attain`.
pub const CHAT_TTFT_LIMIT_MS: f64 = 100.0;
/// `chat_int8` limit on every inter-token gap, for `slo_attain`.
pub const CHAT_ITL_LIMIT_MS: f64 = 10.0;
/// A `chat_int8` run is invalid when the generator submitted arrivals
/// later than this (p99) behind their schedule.
pub const GEN_LAG_LIMIT_MS: f64 = 25.0;

/// `shared_prefix_f32` concurrent closed-loop clients.
pub const SHARED_CLIENTS: usize = 16;
/// `shared_prefix_f32` batch cap: the clients split evenly over the two
/// workers.
pub const SHARED_MAX_BATCH: usize = SHARED_CLIENTS / 2;
/// Tokens of the prompt every `shared_prefix_f32` session opens with.
pub const SHARED_PREFIX_LEN: usize = 32;
/// Tokens each `shared_prefix_f32` session generates.
pub const SHARED_GEN_LEN: usize = 16;
/// KV block size of `shared_prefix_f32` (small blocks share finely).
pub const SHARED_BLOCK_TOKENS: usize = 4;
/// KV byte budget of `shared_prefix_f32`, in fully grown f32 sessions:
/// half of the clients' worst case, so prefix sharing and eviction of
/// finished sessions are what keep every request admitted.
pub const SHARED_BUDGET_SESSIONS: usize = SHARED_CLIENTS / 2;

/// Wall-clock length of one server lifetime within a run.
pub const SEGMENT_S: f64 = 1.25;

/// The f32 reference decoder and its PTQ int8 twin, built exactly as a
/// server built from the same config builds its decode model.
pub struct Models {
    /// Fake-quant f32 decoder.
    pub f32: DecoderLm,
    /// Integer decoder.
    pub int8: Int8DecoderLm,
}

impl Models {
    /// Builds both precisions from the config's model spec.
    pub fn build(cfg: &ServeConfig) -> Models {
        let f32 = cfg.model.build();
        let prime: Vec<usize> = (0..cfg.model.max_len)
            .map(|i| i % cfg.model.vocab)
            .collect();
        let int8 = Int8DecoderLm::from_decoder(&f32, &prime, &ExecEngine::serial());
        Models { f32, int8 }
    }

    /// Full-sequence logits `[len, vocab]` at a precision.
    pub fn logits(&self, precision: Precision, ids: &[usize], eng: &ExecEngine) -> Tensor {
        match precision {
            Precision::F32 => self.f32.forward_inference_with(ids, eng),
            Precision::Int8Apsq => self.int8.forward_inference_with(ids, eng),
        }
    }
}

/// FNV-1a offset basis, the start of every fold the server fingerprints.
pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// One FNV-1a step over a word's little-endian bytes, as the server folds.
pub fn fnv1a(hash: u64, word: u64) -> u64 {
    word.to_le_bytes().iter().fold(hash, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// FNV-1a over the bit patterns of one logits row: the digest a server
/// puts in [`Payload::Decode::logits_digest`].
pub fn logits_digest(row: &[f32]) -> u64 {
    row.iter()
        .fold(FNV_OFFSET, |h, v| fnv1a(h, u64::from(v.to_bits())))
}

/// The server shape every wall-clock workload uses: the smoke config's
/// 2 workers with a serial engine each, continuous batching.
pub fn base_config(precision: Precision) -> ServeConfig {
    let mut cfg = ServeConfig::smoke()
        .with_precision(precision)
        .with_batch(BatchPolicy::continuous(MAX_BATCH));
    cfg.workers = 2;
    cfg.engine_threads = 1;
    cfg
}

/// One session's inputs.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Plan {
    /// Prompt tokens, fed one decode step each.
    pub prompt: Vec<usize>,
    /// Tokens to generate greedily after the prompt.
    pub gen: usize,
}

/// Uniform seeded shuffle (Fisher-Yates).
pub fn shuffle<T>(v: &mut [T], rng: &mut StdRng) {
    for i in (1..v.len()).rev() {
        let j = rng.gen_range(0..=i);
        v.swap(i, j);
    }
}

/// The open-loop arrival schedule of one `chat_int8` segment: a Poisson
/// process conditioned on its count (sorted uniform arrival times), each
/// session with its own random prompt. The count is rounded to a
/// multiple of the prompt-length range so every segment holds the same
/// multiset of prompt and generation lengths.
pub fn chat_schedule(seed: u64, seconds: f64, vocab: usize) -> Vec<(Duration, Plan)> {
    let lens = CHAT_PROMPT_LENS.count();
    let n = (((CHAT_SESSIONS_PER_S * seconds) / lens as f64).round() as usize).max(1) * lens;
    let mut rng = StdRng::seed_from_u64(seed);
    let mut times: Vec<f64> = (0..n).map(|_| rng.gen_range(0.0..seconds)).collect();
    times.sort_by(f64::total_cmp);
    let mut prompt_lens: Vec<usize> = CHAT_PROMPT_LENS.cycle().take(n).collect();
    let mut gen_lens: Vec<usize> = CHAT_GEN_LENS.cycle().take(n).collect();
    shuffle(&mut prompt_lens, &mut rng);
    shuffle(&mut gen_lens, &mut rng);
    times
        .into_iter()
        .zip(prompt_lens.into_iter().zip(gen_lens))
        .map(|(t, (p, g))| {
            let prompt = (0..p).map(|_| rng.gen_range(0..vocab)).collect();
            (Duration::from_secs_f64(t), Plan { prompt, gen: g })
        })
        .collect()
}

/// The closed-loop plans of one `shared_prefix_f32` segment: session `k`
/// opens with the segment's common prompt plus one token of its own.
pub struct SharedPlans {
    prefix: Vec<usize>,
    rng: StdRng,
    vocab: usize,
}

impl SharedPlans {
    /// Plans for one segment.
    pub fn new(seed: u64, vocab: usize) -> SharedPlans {
        let mut rng = StdRng::seed_from_u64(seed);
        let prefix = (0..SHARED_PREFIX_LEN)
            .map(|_| rng.gen_range(0..vocab))
            .collect();
        SharedPlans { prefix, rng, vocab }
    }

    /// The next session's plan.
    pub fn next_plan(&mut self) -> Plan {
        let mut prompt = self.prefix.clone();
        prompt.push(self.rng.gen_range(0..self.vocab));
        Plan {
            prompt,
            gen: SHARED_GEN_LEN,
        }
    }
}

/// How sessions arrive.
enum Load {
    /// Due at fixed offsets from the segment start.
    Open(Vec<(Duration, Plan)>),
    /// `clients` sessions in flight; each starts the next when its last
    /// finishes, until `stop` after the segment start.
    Closed {
        clients: usize,
        plans: SharedPlans,
        stop: Duration,
    },
}

/// One session as the client drives it.
struct Live {
    plan: Plan,
    /// Tokens fed so far (prompt, then generated).
    fed: Vec<usize>,
    /// Served `(next_token, logits_digest)` per completed step.
    served: Vec<(usize, u64)>,
    /// When the session was due to start.
    due_start: Instant,
    /// When the in-flight step was due (the previous completion).
    due: Instant,
    /// When the in-flight step was submitted.
    submitted: Instant,
    ttft_ms: Option<f64>,
    itl_ms: Vec<f64>,
    failed: bool,
    done: bool,
    span: SpanId,
}

/// Measurements from driving one server lifetime.
struct SegmentResult {
    /// The sessions as driven; emptied by [`SegmentResult::compact`].
    sessions: Vec<Live>,
    sessions_n: u64,
    sessions_met: u64,
    ttft_ms: Vec<f64>,
    itl_ms: Vec<f64>,
    submitted: u64,
    client_shed: u64,
    ok: u64,
    errors: u64,
    arrival_lag_ms: Vec<f64>,
    step_lag_ms: Vec<f64>,
    submit_us: Vec<f64>,
    batch_sizes: Vec<usize>,
    positions: Vec<usize>,
    step_latency: Vec<(f64, usize)>,
    /// When the segment's load started.
    t0: Instant,
    /// Segment start to the last response.
    busy_s: f64,
    snapshot: Option<MetricsSnapshot>,
    setup_s: f64,
}

impl SegmentResult {
    /// Keeps the per-session timings and drops the sessions' tokens; the
    /// replay shapes are kept only when `keep_shapes`.
    fn compact(&mut self, keep_shapes: bool) {
        let sessions = std::mem::take(&mut self.sessions);
        self.sessions_n = sessions.len() as u64;
        self.sessions_met = sessions.iter().filter(|s| s.met_slo()).count() as u64;
        self.ttft_ms = sessions.iter().filter_map(|s| s.ttft_ms).collect();
        self.itl_ms = sessions.into_iter().flat_map(|s| s.itl_ms).collect();
        if !keep_shapes {
            self.batch_sizes = Vec::new();
            self.positions = Vec::new();
            self.step_latency = Vec::new();
        }
    }
}

impl Live {
    /// A session that finished without error, with its first token and
    /// every gap inside the limits.
    fn met_slo(&self) -> bool {
        !self.failed
            && self.done
            && self.ttft_ms.is_some_and(|t| t <= CHAT_TTFT_LIMIT_MS)
            && self.itl_ms.iter().all(|&g| g <= CHAT_ITL_LIMIT_MS)
    }
}

/// Starts a server, drives one segment of load through it on this
/// thread, and shuts it down.
fn run_segment(cfg: &ServeConfig, load: Load, tracer: &mut Tracer, key: u64) -> SegmentResult {
    let t_setup = Instant::now();
    let (server, rx) = Server::start(cfg);
    let setup_s = t_setup.elapsed().as_secs_f64();
    let handle = server.handle();
    let t0 = Instant::now();
    let seg_span = tracer.open("segment", None, key, t0);
    let mut r = SegmentResult {
        setup_s,
        t0,
        sessions: Vec::new(),
        sessions_n: 0,
        sessions_met: 0,
        ttft_ms: Vec::new(),
        itl_ms: Vec::new(),
        submitted: 0,
        client_shed: 0,
        ok: 0,
        errors: 0,
        arrival_lag_ms: Vec::new(),
        step_lag_ms: Vec::new(),
        submit_us: Vec::new(),
        batch_sizes: Vec::new(),
        positions: Vec::new(),
        step_latency: Vec::new(),
        busy_s: 0.0,
        snapshot: None,
    };
    let mut sessions: Vec<Live> = Vec::new();
    let mut inflight = 0usize;
    let mut last_done = t0;
    let (mut open_plans, closed) = match load {
        Load::Open(v) => (v, None),
        Load::Closed {
            clients,
            plans,
            stop,
        } => (Vec::new(), Some((clients, plans, stop))),
    };
    open_plans.reverse(); // pop from the back in arrival order
    let mut closed = closed;

    // Submits step `s` of session `idx`, due at `due`.
    let submit = |sessions: &mut Vec<Live>,
                  idx: usize,
                  due: Instant,
                  r: &mut SegmentResult,
                  inflight: &mut usize,
                  tracer: &mut Tracer| {
        let s = &mut sessions[idx];
        let step = s.fed.len() - 1;
        let id = ((idx as u64 + 1) << 8) | step as u64;
        let req = Request::decode(id, idx as SessionId + 1, s.fed[step]);
        let before = Instant::now();
        let res = handle.submit(req);
        let after = Instant::now();
        r.submit_us.push((after - before).as_secs_f64() * 1e6);
        r.submitted += 1;
        s.due = due;
        s.submitted = before;
        let lag = before.saturating_duration_since(due).as_secs_f64() * 1e3;
        if step == 0 {
            r.arrival_lag_ms.push(lag);
        } else {
            r.step_lag_ms.push(lag);
        }
        match res {
            Ok(()) => *inflight += 1,
            Err(_) => {
                r.client_shed += 1;
                s.failed = true;
                s.done = true;
                tracer.close(s.span, after);
            }
        }
    };
    let start_session =
        |sessions: &mut Vec<Live>, plan: Plan, due: Instant, tracer: &mut Tracer| {
            let span = tracer.open("session", Some(seg_span), sessions.len() as u64 + 1, due);
            sessions.push(Live {
                fed: vec![plan.prompt[0]],
                plan,
                served: Vec::new(),
                due_start: due,
                due,
                submitted: due,
                ttft_ms: None,
                itl_ms: Vec::new(),
                failed: false,
                done: false,
                span,
            });
            sessions.len() - 1
        };

    if let Some((clients, plans, _)) = closed.as_mut() {
        for _ in 0..*clients {
            let idx = start_session(&mut sessions, plans.next_plan(), t0, tracer);
            submit(&mut sessions, idx, t0, &mut r, &mut inflight, tracer);
        }
    }
    loop {
        let now = Instant::now();
        while let Some((at, _)) = open_plans.last() {
            let due = t0 + *at;
            if due > now {
                break;
            }
            let (_, plan) = open_plans.pop().expect("checked non-empty");
            let idx = start_session(&mut sessions, plan, due, tracer);
            submit(&mut sessions, idx, due, &mut r, &mut inflight, tracer);
        }
        if inflight == 0 && open_plans.is_empty() {
            break;
        }
        let resp = match open_plans.last() {
            Some((at, _)) => {
                let wait = (t0 + *at).saturating_duration_since(Instant::now());
                match rx.recv_timeout(wait) {
                    Ok(resp) => resp,
                    Err(RecvTimeoutError::Timeout) => continue,
                    Err(RecvTimeoutError::Disconnected) => panic!("server hung up mid-run"),
                }
            }
            None => rx
                .recv_timeout(Duration::from_secs(60))
                .expect("a response within 60 s of the last one"),
        };
        let received = Instant::now();
        inflight -= 1;
        let idx = ((resp.id >> 8) - 1) as usize;
        let step = (resp.id & 0xff) as usize;
        let s = &mut sessions[idx];
        let completed = s.submitted + Duration::from_micros(resp.latency_us);
        last_done = last_done.max(completed);
        tracer.record("request", Some(s.span), resp.id, s.submitted, received);
        match resp.result {
            Ok(Payload::Decode {
                position,
                next_token,
                logits_digest,
                ..
            }) => {
                r.ok += 1;
                r.batch_sizes.push(resp.batch_size);
                r.positions.push(position);
                r.step_latency
                    .push((resp.latency_us as f64, resp.batch_size));
                if position != step {
                    s.failed = true;
                }
                s.served.push((next_token, logits_digest));
                let p = s.plan.prompt.len();
                if step + 1 == p {
                    s.ttft_ms = Some((completed - s.due_start).as_secs_f64() * 1e3);
                } else if step + 1 > p {
                    s.itl_ms.push((completed - s.due).as_secs_f64() * 1e3);
                }
                let generated = (step + 2).saturating_sub(p);
                if generated < s.plan.gen {
                    let next = if step + 1 < p {
                        s.plan.prompt[step + 1]
                    } else {
                        next_token
                    };
                    s.fed.push(next);
                    submit(&mut sessions, idx, completed, &mut r, &mut inflight, tracer);
                    continue;
                }
                s.done = true;
                tracer.close(s.span, received);
            }
            // A typed error (a decode request never returns a prefill).
            _ => {
                r.errors += 1;
                s.failed = true;
                s.done = true;
                tracer.close(s.span, received);
            }
        }
        // A finished closed-loop client starts its next session at once.
        if let Some((_, plans, stop)) = closed.as_mut() {
            if completed.saturating_duration_since(t0) < *stop {
                let idx = start_session(&mut sessions, plans.next_plan(), completed, tracer);
                submit(&mut sessions, idx, completed, &mut r, &mut inflight, tracer);
            }
        }
    }
    r.busy_s = (last_done - t0).as_secs_f64();
    tracer.close(seg_span, Instant::now());
    r.snapshot = Some(server.shutdown());
    r.sessions = sessions;
    r
}

/// Threads the recompute check runs on.
const CHECK_THREADS: usize = 2;

/// Counts from checking a share of the sessions.
#[derive(Default)]
struct Tally {
    checked: u64,
    mismatched: u64,
    agree: u64,
    gen_total: u64,
    first_bad: Option<String>,
}

/// A full recompute of one fed-token stream: per step, the argmax and
/// the logits digest at the served precision, and the argmax at the
/// precision agreement is scored against.
struct Recompute {
    argmax: Vec<usize>,
    digests: Vec<u64>,
    reference: Option<Vec<usize>>,
}

/// Recomputes of every distinct stream seen so far in a run. Segments
/// replay one seeded load, so later segments mostly hit the cache.
type RecomputeCache = BTreeMap<Vec<usize>, Recompute>;

fn recompute(
    models: &Models,
    precision: Precision,
    agree_with: Option<Precision>,
    ids: &[usize],
) -> Recompute {
    let eng = ExecEngine::serial();
    let logits = models.logits(precision, ids, &eng);
    let vocab = logits.dims()[1];
    Recompute {
        argmax: argmax_axis1(&logits),
        digests: logits
            .data()
            .chunks_exact(vocab)
            .map(logits_digest)
            .collect(),
        reference: agree_with.map(|other| argmax_axis1(&models.logits(other, ids, &eng))),
    }
}

/// Checks every served step of a segment's sessions against a full
/// recompute at the served precision (computing streams the cache lacks
/// on [`CHECK_THREADS`] threads), and scores generated tokens against the
/// reference precision.
fn check_segment(
    sessions: &[Live],
    models: &Models,
    precision: Precision,
    agree_with: Option<Precision>,
    cache: &mut RecomputeCache,
    t: &mut Tally,
) {
    let missing: std::collections::BTreeSet<&[usize]> = sessions
        .iter()
        .map(|s| &s.fed[..s.served.len()])
        .filter(|ids| !ids.is_empty() && !cache.contains_key(*ids))
        .collect();
    let missing: Vec<&[usize]> = missing.into_iter().collect();
    let computed: Vec<Vec<(Vec<usize>, Recompute)>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CHECK_THREADS)
            .map(|k| {
                let part: Vec<&[usize]> = missing
                    .iter()
                    .skip(k)
                    .step_by(CHECK_THREADS)
                    .copied()
                    .collect();
                scope.spawn(move || {
                    part.into_iter()
                        .map(|ids| (ids.to_vec(), recompute(models, precision, agree_with, ids)))
                        .collect()
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("check thread panicked"))
            .collect()
    });
    cache.extend(computed.into_iter().flatten());
    for s in sessions {
        let n = s.served.len();
        if n == 0 {
            continue;
        }
        let r = &cache[&s.fed[..n]];
        for (step, &(tok, digest)) in s.served.iter().enumerate() {
            t.checked += 1;
            if r.argmax[step] != tok || r.digests[step] != digest {
                t.mismatched += 1;
                t.first_bad.get_or_insert_with(|| {
                    format!(
                        "served token {tok} at step {step} != recompute argmax {}",
                        r.argmax[step]
                    )
                });
            }
        }
        let p = s.plan.prompt.len();
        if let (Some(reference), true) = (&r.reference, n >= p) {
            let generated = reference[p - 1..n].iter().zip(&s.served[p - 1..]);
            for (want, &(tok, _)) in generated {
                t.gen_total += 1;
                t.agree += u64::from(*want == tok);
            }
        }
    }
}

/// Parameters of a wall-clock serving workload.
pub struct WallWorkload {
    /// Decode precision served.
    pub precision: Precision,
    /// Open loop (`chat_int8`) or closed loop (`shared_prefix_f32`).
    pub open_loop: bool,
}

/// Runs a wall-clock workload for `seconds`, in server lifetimes of
/// [`SEGMENT_S`], then checks every served token.
pub fn run_wall(w: &WallWorkload, seed: u64, seconds: f64, tracer: &mut Tracer) -> Outcome {
    let mut cfg = base_config(w.precision);
    if !w.open_loop {
        let budget = SHARED_BUDGET_SESSIONS * cfg.model.kv_bytes_per_session(w.precision);
        cfg = cfg
            .with_kv_block_tokens(SHARED_BLOCK_TOKENS)
            .with_kv_budget(budget)
            .with_batch(BatchPolicy::continuous(SHARED_MAX_BATCH));
    }
    let segments = ((seconds / SEGMENT_S).round() as usize).max(1);
    let seg_s = seconds / segments as f64;
    let vocab = cfg.model.vocab;
    let models = Models::build(&cfg);
    let agree_with = w.open_loop.then_some(Precision::F32);
    let mut cache = RecomputeCache::new();
    let mut tally = Tally::default();
    let mut cpu_s = 0.0;
    let mut results = Vec::with_capacity(segments);
    let mut loads = Vec::with_capacity(segments);
    // Every segment replays the same seeded load on a fresh server.
    let schedule = chat_schedule(seed, seg_s, vocab);
    for i in 0..segments {
        let load = if w.open_loop {
            Load::Open(schedule.clone())
        } else {
            Load::Closed {
                clients: SHARED_CLIENTS,
                plans: SharedPlans::new(seed, vocab),
                stop: Duration::from_secs_f64(seg_s),
            }
        };
        let mark = HostMark::take();
        let cpu0 = crate::host::cpu_time();
        let mut r = run_segment(&cfg, load, tracer, i as u64);
        cpu_s += (crate::host::cpu_time() - cpu0).as_secs_f64();
        loads.push(HostLoad::between(&mark, &HostMark::take()));
        // Output check between segments, outside the timed work; then only
        // the per-session timings are kept.
        check_segment(
            &r.sessions,
            &models,
            w.precision,
            agree_with,
            &mut cache,
            &mut tally,
        );
        r.compact(i == 0);
        results.push(r);
    }
    let mut o = summarize(w, results, &loads, tally, cpu_s);
    o.shapes.kv_block_tokens = cfg.kv_block_tokens;
    o
}

fn summarize(
    w: &WallWorkload,
    results: Vec<SegmentResult>,
    loads: &[HostLoad],
    tally: Tally,
    cpu_s: f64,
) -> Outcome {
    let mut o = Outcome {
        tail_q: 99.0,
        ..Outcome::default()
    };
    let snaps: Vec<MetricsSnapshot> = results
        .iter()
        .map(|r| r.snapshot.clone().expect("segment shut down"))
        .collect();
    let sum = |f: &dyn Fn(&SegmentResult) -> u64| results.iter().map(f).sum::<u64>();
    let (submitted, client_shed) = (sum(&|r| r.submitted), sum(&|r| r.client_shed));
    let (ok, errors) = (sum(&|r| r.ok), sum(&|r| r.errors));
    o.attempted = submitted;
    o.succeeded = ok;
    o.failed = errors + client_shed;
    // Every admitted request got exactly one response.
    o.check(submitted == ok + errors + client_shed, || {
        format!("accounting: {submitted} submitted != {ok} ok + {errors} errors + {client_shed} client sheds")
    });
    let served_tokens: u64 = snaps.iter().map(|s| s.decode_tokens).sum();
    o.check(served_tokens == ok, || {
        format!("accounting: server decoded {served_tokens} tokens, client saw {ok} responses")
    });
    o.setup_s = results.iter().map(|r| r.setup_s).collect();
    o.windows = results
        .iter()
        .zip(loads)
        .map(|(r, &host)| Window {
            units: r.ok as f64,
            start: r.t0,
            end: r.t0 + Duration::from_secs_f64(r.busy_s),
            step_ms: r.itl_ms.clone(),
            host,
        })
        .collect();
    o.cpu_s = cpu_s;
    let Tally {
        checked,
        mismatched,
        agree,
        gen_total,
        first_bad,
    } = tally;
    o.check(mismatched == 0, || {
        format!(
            "output check: {mismatched} of {checked} served tokens differ from recompute ({})",
            first_bad.unwrap_or_default()
        )
    });
    o.check(checked == ok, || {
        format!("output check covered {checked} tokens of {ok} served")
    });

    let ttft: Vec<f64> = results.iter().flat_map(|r| r.ttft_ms.clone()).collect();
    let itl: Vec<f64> = results.iter().flat_map(|r| r.itl_ms.clone()).collect();
    let sessions = sum(&|r| r.sessions_n);
    let met = sum(&|r| r.sessions_met);
    let arrival_lag: Vec<f64> = results
        .iter()
        .flat_map(|r| r.arrival_lag_ms.iter().copied())
        .collect();
    let all_lag: Vec<f64> = results
        .iter()
        .flat_map(|r| r.arrival_lag_ms.iter().chain(&r.step_lag_ms).copied())
        .collect();
    let submit_us: Vec<f64> = results
        .iter()
        .flat_map(|r| r.submit_us.iter().copied())
        .collect();

    let tok_s = o.work_units() / o.work_s();
    o.line(format!(
        "sessions = {sessions} (n; {} segments replaying one seeded load)",
        results.len()
    ));
    o.line(format!(
        "operations: attempted {submitted}, succeeded {ok}, failed {} (errors {errors} + client sheds {client_shed})",
        errors + client_shed
    ));
    o.line(format!(
        "failed_frac = {} frac (n={submitted})",
        (errors + client_shed) as f64 / submitted.max(1) as f64
    ));
    o.line(format!(
        "decode_tok_s = {tok_s:.1} 1/s (n={ok} tokens, {})",
        if w.open_loop {
            "achieved"
        } else {
            "saturation"
        }
    ));
    push_timing(&mut o, "ttft", &ttft);
    push_timing(&mut o, "itl", &itl);
    o.line(format!(
        "slo_attain = {:.4} frac (n={} sessions; ttft <= {CHAT_TTFT_LIMIT_MS} ms, itl <= {CHAT_ITL_LIMIT_MS} ms)",
        met as f64 / sessions.max(1) as f64,
        sessions
    ));
    if w.open_loop {
        o.line(format!(
            "int8_top1_agree = {:.4} frac (n={gen_total} generated tokens vs the f32 argmax)",
            agree as f64 / gen_total.max(1) as f64
        ));
    }
    o.line(format!(
        "output check: {checked} served tokens recomputed, {mismatched} mismatched"
    ));
    let lag_p99 = Summary::fixed(&all_lag, 99.0)
        .unwrap_or_else(|| all_lag.iter().copied().fold(0.0, f64::max));
    if w.open_loop {
        let arr = Summary::fixed(&arrival_lag, 99.0)
            .unwrap_or_else(|| arrival_lag.iter().copied().fold(0.0, f64::max));
        o.line(format!(
            "generator arrival lag p99 = {arr:.3} ms (n={}, limit {GEN_LAG_LIMIT_MS} ms)",
            arrival_lag.len()
        ));
        o.check(arr <= GEN_LAG_LIMIT_MS, || {
            format!("invalid run: the generator fell behind its schedule (arrival lag p99 {arr:.3} ms > {GEN_LAG_LIMIT_MS} ms)")
        });
    }

    // Per-layer counters from the program.
    o.counter("serve.gen_lag_ms_p99", lag_p99);
    o.counter("serve.submit_us_p50", stats::median_or_zero(&submit_us));
    fold_snapshots(&mut o, &snaps);
    let first = &results[0];
    o.shapes.batch_sizes = first.batch_sizes.clone();
    o.shapes.positions = first.positions.clone();
    o.shapes.step_latency = first.step_latency.clone();
    o
}

/// Adds `<name>_p50_ms` and the highest supported tail of a timing
/// population to the report.
pub fn push_timing(o: &mut Outcome, name: &str, ms: &[f64]) {
    let s = Summary::of(ms);
    let tail = s.tail.map_or("no supported tail".to_string(), |(q, v)| {
        format!("p{q} {v:.3} ms")
    });
    o.line(format!(
        "{name}_p50_ms = {:.3} ms (n={}; {tail})",
        s.p50, s.n
    ));
    for q in [90.0, 99.0] {
        if let Some(v) = Summary::fixed(ms, q) {
            o.line(format!("{name}_p{q}_ms = {v:.3} ms (n={})", s.n));
        }
    }
}

/// Folds the servers' end-of-run snapshots into per-layer counters.
pub fn fold_snapshots(o: &mut Outcome, snaps: &[MetricsSnapshot]) {
    let sum = |f: &dyn Fn(&MetricsSnapshot) -> u64| snaps.iter().map(f).sum::<u64>() as f64;
    let max = |f: &dyn Fn(&MetricsSnapshot) -> f64| snaps.iter().map(f).fold(0.0, f64::max);
    let mean = |f: &dyn Fn(&MetricsSnapshot) -> f64| {
        snaps.iter().map(f).sum::<f64>() / snaps.len().max(1) as f64
    };
    let batches = sum(&|s| s.batches);
    let occupancy = snaps
        .iter()
        .map(|s| s.batch_occupancy_mean * s.batches as f64)
        .sum::<f64>()
        / batches.max(1.0);
    let tokens = sum(&|s| s.decode_tokens);
    o.counter("serve.batches", batches);
    o.counter("serve.batch_occupancy_mean", occupancy);
    o.counter("serve.queue_depth_mean", mean(&|s| s.queue_depth_mean));
    o.counter("serve.shed_queue", sum(&|s| s.shed_queue));
    o.counter("serve.shed_deadline", sum(&|s| s.shed_deadline));
    o.counter("serve.shed_degraded", sum(&|s| s.shed_degraded));
    o.counter("serve.shed_capacity", sum(&|s| s.shed_session_capacity));
    o.counter("serve.degrade_escalations", sum(&|s| s.degrade_escalations));
    o.counter("serve.ticks_at_level2", sum(&|s| s.ticks_at_level[2]));
    o.counter("nn.blocks_peak", max(&|s| s.blocks_peak as f64));
    o.counter("nn.block_util_mean", mean(&|s| s.block_utilization_mean));
    o.counter("nn.prefix_hits", sum(&|s| s.shared_prefix_hits));
    o.counter(
        "nn.sessions_resident_ratio",
        max(&|s| s.sessions_peak as f64 / s.sessions_capacity.max(1) as f64),
    );
    o.counter("nn.evictions", sum(&|s| s.evictions));
    o.counter(
        "nn.pool_lock_acquisitions",
        sum(&|s| s.alloc_lock_acquisitions),
    );
    o.counter("nn.pool_lock_wait_us", sum(&|s| s.alloc_lock_wait_us));
    o.counter(
        "nn.pool_lock_hold_max_us",
        max(&|s| s.alloc_lock_hold_max_us as f64),
    );
    o.counter(
        "nn.gathered_bytes_per_token",
        sum(&|s| s.gathered_bytes) / tokens.max(1.0),
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chat_schedule_is_a_pure_function_of_the_seed() {
        let a = chat_schedule(11, 2.5, 64);
        assert_eq!(a, chat_schedule(11, 2.5, 64));
        assert_ne!(a, chat_schedule(12, 2.5, 64));
        assert!(a.windows(2).all(|w| w[0].0 <= w[1].0), "sorted arrivals");
        assert!(a.iter().all(|(t, _)| t.as_secs_f64() < 2.5));
        // Every segment holds the same multiset of lengths.
        let total = |s: &[(Duration, Plan)]| -> (usize, usize) {
            (
                s.iter().map(|(_, p)| p.prompt.len()).sum(),
                s.iter().map(|(_, p)| p.gen).sum(),
            )
        };
        assert_eq!(total(&a), total(&chat_schedule(99, 2.5, 64)));
        assert_eq!(a.len() % CHAT_PROMPT_LENS.count(), 0);
        let max_len = CHAT_PROMPT_LENS.end() + CHAT_GEN_LENS.end();
        assert!(max_len <= 64, "sessions stay inside the context window");
    }

    #[test]
    fn shared_plans_share_the_prefix_per_seed() {
        let mut a = SharedPlans::new(5, 64);
        let mut b = SharedPlans::new(5, 64);
        let (p1, p2) = (a.next_plan(), a.next_plan());
        assert_eq!(p1, b.next_plan());
        assert_eq!(
            p1.prompt[..SHARED_PREFIX_LEN],
            p2.prompt[..SHARED_PREFIX_LEN]
        );
        const { assert!(SHARED_PREFIX_LEN + 1 + SHARED_GEN_LEN <= 64) };
        assert_ne!(SharedPlans::new(6, 64).next_plan(), p1);
    }
}
