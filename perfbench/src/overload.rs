//! `overload_int8`: a virtual-time lockstep server driven past capacity
//! by the seeded `mixed_slo` open-loop mix.
//!
//! The benchmark drives the lockstep protocol itself, in the same order as
//! [`OpenLoopGenerator::run`], so that it can time every
//! [`ServerHandle::tick`](apsq_serve::ServerHandle::tick) and every submit.
//! Batch composition is a pure function of the seed, so the wall time of
//! a tick measures compute only. Every episode of a run replays the same
//! seeded schedule and must end with the same completion fingerprint;
//! after the timed run, `OpenLoopGenerator::run` must reproduce it.

// lint: allow-file(float-reduction-outside-kernels) -- benchmark timing and loss sums; reported figures only, on no fingerprint or response path

use crate::host::{HostLoad, HostMark};
use crate::outcome::{Outcome, Window};
use crate::serving::{fnv1a, fold_snapshots, FNV_OFFSET};
use crate::stats::Summary;
use crate::trace::Tracer;
use apsq_serve::{
    ArrivalProcess, ClassKind, MetricsSnapshot, OpenLoopGenerator, OverloadScenario, Payload,
    Precision, Request, RequestId, Response, ServeConfig, ServeError, Server, SessionId, Slo,
    SloPolicy,
};
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// Offered load as a multiple of the server's decode capacity.
pub const LOAD_MULTIPLIER: f64 = 2.0;
/// Ticks of fresh arrivals per episode (one server lifetime).
pub const HORIZON_TICKS: u64 = 600;
/// Prefill MAC budget per layer: large enough that BERT prefill is a
/// large share of a tick.
pub const PREFILL_MAX_MACS: u64 = 200_000;
/// Decode steps and prefills dispatched per tick.
pub const DECODE_UNITS: usize = 8;
/// Prefill requests dispatched per tick.
pub const PREFILL_UNITS: usize = 2;
/// Admission queue capacity.
pub const QUEUE_CAPACITY: usize = 32;

/// Session ids and request ids exactly as `OpenLoopGenerator` mints them,
/// so the two drivers' fingerprints are comparable.
const SESSION_BASE: SessionId = 500_000;
const ARRIVAL_STRIDE: RequestId = 1 << 20;

/// The `overload_int8` server config.
pub fn config() -> ServeConfig {
    let mut cfg = ServeConfig::smoke().with_precision(Precision::Int8Apsq);
    cfg.workers = 2;
    cfg.engine_threads = 1;
    cfg.prefill_max_macs = PREFILL_MAX_MACS;
    cfg.queue_capacity = QUEUE_CAPACITY;
    cfg.slo = SloPolicy::virtual_time(DECODE_UNITS, PREFILL_UNITS, QUEUE_CAPACITY);
    cfg
}

/// The `mixed_slo` scenario at [`LOAD_MULTIPLIER`]× decode capacity.
pub fn scenario() -> OverloadScenario {
    let probe = OverloadScenario::mixed_slo(ArrivalProcess::Poisson { lambda: 1.0 }, 1);
    let lambda = LOAD_MULTIPLIER * DECODE_UNITS as f64 / probe.mean_units_per_arrival();
    OverloadScenario::mixed_slo(ArrivalProcess::Poisson { lambda }, HORIZON_TICKS)
}

struct LiveSession {
    session: SessionId,
    arrival: usize,
    class: usize,
    steps_total: usize,
    steps_done: usize,
    next_token: usize,
    ready: bool,
    aborted: bool,
}

/// Measurements of one episode.
struct Episode {
    seed: u64,
    t0: Instant,
    setup_s: f64,
    ticks: u64,
    failed_ticks: u64,
    tick_ms: Vec<f64>,
    submit_us: Vec<f64>,
    wall_s: f64,
    submitted: u64,
    client_shed: u64,
    ok: u64,
    errors: u64,
    fingerprint: u64,
    snapshot: MetricsSnapshot,
    batch_sizes: Vec<usize>,
    positions: Vec<usize>,
    step_latency: Vec<(f64, usize)>,
}

fn shed_digest(id: RequestId, e: &ServeError) -> u64 {
    Response {
        id,
        result: Err(e.clone()),
        latency_us: 0,
        batch_size: 0,
    }
    .digest()
}

/// Drives one episode through the lockstep protocol.
fn run_episode(
    cfg: &ServeConfig,
    scenario: &OverloadScenario,
    seed: u64,
    tracer: &mut Tracer,
) -> Episode {
    let arrivals = OpenLoopGenerator::new(seed, scenario.clone()).arrivals();
    let t_setup = Instant::now();
    let (server, resp_rx) = Server::start(cfg);
    let setup_s = t_setup.elapsed().as_secs_f64();
    let handle = server.handle();
    let t0 = Instant::now();
    let ep_span = tracer.open("episode", None, seed, t0);

    let classes = &scenario.classes;
    let mut sessions: Vec<LiveSession> = Vec::new();
    let mut by_request: BTreeMap<RequestId, usize> = BTreeMap::new();
    let mut digests: Vec<(RequestId, u64)> = Vec::new();
    let (mut submitted, mut client_shed, mut ok, mut errors) = (0u64, 0u64, 0u64, 0u64);
    let mut outstanding = 0u64;
    let mut tick_ms = Vec::new();
    let mut submit_us = Vec::new();
    let mut batch_sizes = Vec::new();
    let mut positions = Vec::new();
    let mut step_latency = Vec::new();
    let mut next_arrival = 0usize;
    let mut tick = 0u64;
    let mut failed_ticks = 0u64;
    let max_ticks = scenario.horizon_ticks * 8 + 4 * cfg.queue_capacity as u64 + 64;

    // Submits one request, timing the call; returns whether it was admitted.
    let mut submit =
        |req: Request, digests: &mut Vec<(RequestId, u64)>, tracer: &mut Tracer| -> bool {
            let id = req.id;
            let before = Instant::now();
            let res = handle.submit(req);
            let after = Instant::now();
            submit_us.push((after - before).as_secs_f64() * 1e6);
            tracer.record("submit", Some(ep_span), id, before, after);
            match res {
                Ok(()) => true,
                Err(e) => {
                    digests.push((id, shed_digest(id, &e)));
                    false
                }
            }
        };

    loop {
        let fresh = next_arrival < arrivals.len();
        for (idx, s) in sessions.iter_mut().enumerate() {
            if !s.ready || s.aborted {
                continue;
            }
            s.ready = false;
            let class = &classes[s.class];
            let id = s.arrival as RequestId * ARRIVAL_STRIDE + s.steps_done as RequestId;
            let mut req =
                Request::decode(id, s.session, s.next_token).with_priority(class.priority);
            if let Some(d) = class.deadline_ticks {
                req = req.with_slo(Slo::new(class.priority, tick + d));
            }
            submitted += 1;
            if submit(req, &mut digests, tracer) {
                by_request.insert(id, idx);
                outstanding += 1;
            } else {
                client_shed += 1;
                s.aborted = true;
            }
        }
        while next_arrival < arrivals.len() && arrivals[next_arrival].tick == tick {
            let a = arrivals[next_arrival];
            let class = &classes[a.class];
            let slo = Slo {
                priority: class.priority,
                deadline: class.deadline_ticks.map(|d| tick + d),
            };
            submitted += 1;
            let id = next_arrival as RequestId * ARRIVAL_STRIDE;
            match class.kind {
                ClassKind::Decode { steps } => {
                    let session = SESSION_BASE + next_arrival as SessionId;
                    let idx = sessions.len();
                    sessions.push(LiveSession {
                        session,
                        arrival: next_arrival,
                        class: a.class,
                        steps_total: steps,
                        steps_done: 0,
                        next_token: 0,
                        ready: false,
                        aborted: false,
                    });
                    let req = Request::decode(id, session, 0).with_slo(slo);
                    if submit(req, &mut digests, tracer) {
                        by_request.insert(id, idx);
                        outstanding += 1;
                    } else {
                        client_shed += 1;
                        sessions[idx].aborted = true;
                    }
                }
                ClassKind::Prefill { model } => {
                    let req = Request::prefill(id, model).with_slo(slo);
                    if submit(req, &mut digests, tracer) {
                        outstanding += 1;
                    } else {
                        client_shed += 1;
                    }
                }
            }
            next_arrival += 1;
        }
        let before = Instant::now();
        let done = handle.tick(tick);
        let after = Instant::now();
        if done.is_err() {
            // The server stopped: the episode ends here, and its
            // fingerprint will not match.
            failed_ticks += 1;
            tick += 1;
            break;
        }
        tick_ms.push((after - before).as_secs_f64() * 1e3);
        tracer.record("tick", Some(ep_span), tick, before, after);
        while let Ok(resp) = resp_rx.try_recv() {
            outstanding -= 1;
            digests.push((resp.id, resp.digest()));
            let sess_idx = by_request.remove(&resp.id);
            match &resp.result {
                Ok(payload) => {
                    ok += 1;
                    if let Payload::Decode {
                        next_token,
                        position,
                        ..
                    } = payload
                    {
                        batch_sizes.push(resp.batch_size);
                        positions.push(*position);
                        step_latency.push((resp.latency_us as f64, resp.batch_size));
                        if let Some(idx) = sess_idx {
                            let s = &mut sessions[idx];
                            s.steps_done += 1;
                            s.next_token = *next_token;
                            s.ready = s.steps_done < s.steps_total;
                        }
                    }
                }
                Err(_) => {
                    errors += 1;
                    if let Some(idx) = sess_idx {
                        sessions[idx].aborted = true;
                    }
                }
            }
        }
        tick += 1;
        let continuations = sessions.iter().any(|s| s.ready && !s.aborted);
        if tick >= scenario.horizon_ticks && !fresh && outstanding == 0 && !continuations {
            break;
        }
        assert!(tick < max_ticks, "episode failed to drain by tick {tick}");
    }
    let wall_s = t0.elapsed().as_secs_f64();
    tracer.close(ep_span, Instant::now());
    let snapshot = server.shutdown();
    digests.sort_unstable();
    let fingerprint = digests
        .iter()
        .fold(FNV_OFFSET, |h, &(id, d)| fnv1a(fnv1a(h, id), d));
    Episode {
        seed,
        t0,
        setup_s,
        ticks: tick,
        failed_ticks,
        tick_ms,
        submit_us,
        wall_s,
        submitted,
        client_shed,
        ok,
        errors,
        fingerprint,
        snapshot,
        batch_sizes,
        positions,
        step_latency,
    }
}

/// Runs episodes of one seeded schedule until `seconds` of driving have
/// passed (at least two), then checks every episode's accounting, that
/// all episodes end alike, and that the library's own driver reproduces
/// them.
pub fn run(seed: u64, seconds: f64, tracer: &mut Tracer) -> Outcome {
    let cfg = config();
    let scenario = scenario();
    let cpu0 = crate::host::cpu_time();
    let mut episodes = Vec::new();
    let mut loads = Vec::new();
    let mut driven = 0.0;
    while episodes.len() < 2 || driven < seconds {
        // Every episode replays the same seeded schedule on a fresh server.
        let mark = HostMark::take();
        let mut ep = run_episode(&cfg, &scenario, seed, tracer);
        loads.push(HostLoad::between(&mark, &HostMark::take()));
        driven += ep.wall_s + ep.setup_s;
        if !episodes.is_empty() {
            // Replay shapes and submit timings come from the first
            // episode, so memory does not grow with the episode count.
            ep.batch_sizes = Vec::new();
            ep.positions = Vec::new();
            ep.step_latency = Vec::new();
            ep.submit_us = Vec::new();
        }
        episodes.push(ep);
    }
    let cpu_s = (crate::host::cpu_time() - cpu0).as_secs_f64();

    let mut o = Outcome {
        tail_q: 95.0,
        cpu_s,
        ..Outcome::default()
    };
    for ep in &episodes {
        let s = &ep.snapshot;
        let typed = s.shed_session_capacity
            + s.shed_context_overflow
            + s.shed_session_evicted
            + s.shed_deadline
            + s.shed_degraded;
        o.check(typed == ep.errors, || {
            format!(
                "episode {:#x}: per-cause sheds sum to {typed}, errors {}",
                ep.seed, ep.errors
            )
        });
        o.check(ep.failed_ticks == 0, || {
            format!(
                "episode {:#x}: the server stopped before the episode drained",
                ep.seed
            )
        });
        o.check(ep.client_shed == s.shed_queue, || {
            format!(
                "episode {:#x}: {} client sheds, server counted {}",
                ep.seed, ep.client_shed, s.shed_queue
            )
        });
        o.check(ep.submitted == ep.ok + ep.errors + ep.client_shed, || {
            format!(
                "episode {:#x}: {} submitted != {} ok + {} errors + {} client sheds",
                ep.seed, ep.submitted, ep.ok, ep.errors, ep.client_shed
            )
        });
        // Every episode replays one schedule: the outcome must repeat.
        let first = &episodes[0];
        o.check(
            (ep.fingerprint, ep.ok, ep.errors, ep.client_shed, ep.ticks)
                == (
                    first.fingerprint,
                    first.ok,
                    first.errors,
                    first.client_shed,
                    first.ticks,
                ),
            || {
                format!(
                    "episode fingerprint {:#x} differs from the first episode's {:#x}",
                    ep.fingerprint, first.fingerprint
                )
            },
        );
    }
    // The benchmark's driver reproduces the library's own driver.
    let ep = &episodes[0];
    let reference = OpenLoopGenerator::new(seed, scenario.clone()).run(&cfg);
    o.check(
        reference.fingerprint == ep.fingerprint
            && reference.ok == ep.ok
            && reference.errors == ep.errors
            && reference.client_shed == ep.client_shed
            && reference.ticks == ep.ticks,
        || {
            format!(
                "fingerprint {:#x} ({} ok, {} err, {} shed, {} ticks) does not reproduce the reference driver's {:#x} ({} ok, {} err, {} shed, {} ticks)",
                ep.fingerprint, ep.ok, ep.errors, ep.client_shed, ep.ticks,
                reference.fingerprint, reference.ok, reference.errors, reference.client_shed, reference.ticks
            )
        },
    );

    let sum = |f: &dyn Fn(&Episode) -> u64| episodes.iter().map(f).sum::<u64>();
    let (submitted, client_shed) = (sum(&|e| e.submitted), sum(&|e| e.client_shed));
    let (ok, errors) = (sum(&|e| e.ok), sum(&|e| e.errors));
    let ticks = sum(&|e| e.ticks);
    let failed_ticks = sum(&|e| e.failed_ticks);
    let decode_tokens = sum(&|e| e.snapshot.decode_tokens);
    let hi_goodput = sum(&|e| e.snapshot.priority[0].goodput);
    o.attempted = submitted;
    o.succeeded = ok;
    o.failed = errors + client_shed;
    o.ticks = Some((ticks, failed_ticks));
    o.setup_s = episodes.iter().map(|e| e.setup_s).collect();
    o.windows = episodes
        .iter()
        .zip(&loads)
        .map(|(e, &host)| Window {
            units: e.snapshot.decode_tokens as f64,
            start: e.t0,
            end: e.t0 + Duration::from_secs_f64(e.wall_s),
            step_ms: e.tick_ms.clone(),
            host,
        })
        .collect();

    o.line(format!(
        "episodes = {} (n; {HORIZON_TICKS}-tick horizon, {LOAD_MULTIPLIER}x decode capacity)",
        episodes.len()
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
        "ticks: attempted {ticks}, failed {failed_ticks} (the operations of the result line)"
    ));
    o.line(format!(
        "decode_tok_s = {:.1} 1/s (n={decode_tokens} tokens)",
        o.work_units() / o.work_s()
    ));
    let ticks_ms = o.all_steps();
    let tick = Summary::of(&ticks_ms);
    o.line(format!("tick_ms_p50 = {:.3} ms (n={ticks})", tick.p50));
    if let Some(p95) = Summary::fixed(&ticks_ms, 95.0) {
        o.line(format!("tick_ms_p95 = {p95:.3} ms (n={ticks})"));
    }
    o.line(format!(
        "hi_goodput_per_tick = {} 1/tick (n={ticks} ticks, {hi_goodput} completions)",
        hi_goodput as f64 / ticks.max(1) as f64
    ));
    o.line(format!(
        "fingerprint {:#x}: equal across {} episodes and reproduced by OpenLoopGenerator::run",
        episodes[0].fingerprint,
        episodes.len()
    ));

    let snaps: Vec<MetricsSnapshot> = episodes.iter().map(|e| e.snapshot.clone()).collect();
    fold_snapshots(&mut o, &snaps);
    let submit_us: Vec<f64> = episodes.iter().flat_map(|e| e.submit_us.clone()).collect();
    o.counter(
        "serve.submit_us_p50",
        crate::stats::median_or_zero(&submit_us),
    );
    // Submissions happen between ticks on the virtual clock: never late.
    o.counter("serve.gen_lag_ms_p99", 0.0);
    o.shapes.batch_sizes = episodes
        .iter()
        .flat_map(|e| e.batch_sizes.clone())
        .collect();
    o.shapes.positions = episodes.iter().flat_map(|e| e.positions.clone()).collect();
    o.shapes.step_latency = episodes
        .iter()
        .flat_map(|e| e.step_latency.clone())
        .collect();
    o.shapes.prefill_budget = PREFILL_MAX_MACS;
    o.shapes.kv_block_tokens = cfg.kv_block_tokens;
    o
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arrival_schedule_is_a_pure_function_of_the_seed() {
        let s = scenario();
        let a = OpenLoopGenerator::new(3, s.clone()).arrivals();
        assert_eq!(a, OpenLoopGenerator::new(3, s.clone()).arrivals());
        assert_ne!(a, OpenLoopGenerator::new(4, s).arrivals());
    }

    #[test]
    fn benchmark_driver_reproduces_the_reference_fingerprint() {
        let mut cfg = config();
        cfg.prefill_max_macs = 5_000;
        let scenario = OverloadScenario::mixed_slo(scenario().process, 40);
        let ep = run_episode(&cfg, &scenario, 9, &mut Tracer::new(false));
        let reference = OpenLoopGenerator::new(9, scenario).run(&cfg);
        assert_eq!(ep.fingerprint, reference.fingerprint);
        assert_eq!((ep.ok, ep.errors), (reference.ok, reference.errors));
        assert!(ep.client_shed + ep.errors > 0, "2x capacity sheds");
    }
}
