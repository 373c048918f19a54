//! Overload behavior, end to end: every shed path must surface as a
//! *typed* error on the response channel AND count into the matching
//! per-cause metrics counter — under the virtual-time lockstep scheduler
//! these outcomes are deterministic, so the tests assert exact counts.

use apsq_serve::{
    ArrivalProcess, DegradationPolicy, OpenLoopGenerator, OverloadScenario, Payload, Precision,
    PrefillModel, Priority, Request, Response, ServeConfig, ServeError, Slo, SloPolicy,
};

fn tiny_cfg() -> ServeConfig {
    let mut cfg = ServeConfig::smoke();
    cfg.model.d_model = 32;
    cfg.model.d_ff = 64;
    cfg.model.heads = 2;
    cfg.model.vocab = 16;
    cfg.model.max_len = 16;
    cfg.prefill_max_macs = 5_000;
    cfg
}

fn virtual_cfg(decode_units: usize, prefill_units: usize, queue_capacity: usize) -> ServeConfig {
    let mut cfg = tiny_cfg();
    cfg.queue_capacity = queue_capacity;
    cfg.slo = SloPolicy::virtual_time(decode_units, prefill_units, queue_capacity);
    cfg
}

/// A request whose deadline passed while it queued sheds at the next
/// tick with [`ServeError::DeadlineExceeded`] — and the shed lands in
/// `shed_deadline`, not in any other bucket.
#[test]
fn deadline_shed_is_typed_and_counted() {
    let cfg = virtual_cfg(4, 1, 16);
    let (server, rx) = apsq_serve::Server::start(&cfg);
    let h = server.handle();
    h.submit(Request::decode(1, 50, 0).with_slo(Slo::new(Priority::Normal, 1)))
        .unwrap();
    // The virtual clock jumps straight past the deadline.
    let td = h.tick(3).unwrap();
    assert_eq!(td.shed, 1);
    assert_eq!(td.dispatched_decode, 0);
    let r = rx.recv().unwrap();
    assert!(
        matches!(
            r.result,
            Err(ServeError::DeadlineExceeded {
                deadline: 1,
                now: 3
            })
        ),
        "{:?}",
        r.result
    );
    let snap = server.shutdown();
    assert_eq!(snap.shed_deadline, 1);
    assert_eq!(snap.deadline_misses, 1);
    assert_eq!(snap.goodput, 0);
    assert_eq!(snap.shed_degraded + snap.shed_context_overflow, 0);
}

/// Tiered admission: the queue refuses Low traffic at half capacity and
/// Normal at three quarters, while High still admits — each refusal is a
/// typed [`ServeError::QueueFull`] counted in `shed_queue`.
#[test]
fn admission_sheds_low_priority_first() {
    // queue_capacity 4 ⇒ admit_depth [4, 3, 2].
    let cfg = virtual_cfg(4, 1, 4);
    let (server, rx) = apsq_serve::Server::start(&cfg);
    let h = server.handle();
    let low = |id, s| Request::decode(id, s, 0).with_priority(Priority::Low);
    h.submit(low(1, 1)).unwrap();
    h.submit(low(2, 2)).unwrap();
    // Depth 2 = the Low threshold: best-effort sheds first…
    let err = h.submit(low(3, 3)).unwrap_err();
    assert!(
        matches!(
            err,
            ServeError::QueueFull {
                depth: 2,
                capacity: 2
            }
        ),
        "{err:?}"
    );
    // …while Normal and High still fit.
    h.submit(Request::decode(4, 4, 0).with_priority(Priority::Normal))
        .unwrap();
    let err = h
        .submit(Request::decode(5, 5, 0).with_priority(Priority::Normal))
        .unwrap_err();
    assert!(
        matches!(
            err,
            ServeError::QueueFull {
                depth: 3,
                capacity: 3
            }
        ),
        "{err:?}"
    );
    h.submit(Request::decode(6, 6, 0)).unwrap(); // High, depth 3 < 4
    let err = h.submit(Request::decode(7, 7, 0)).unwrap_err();
    assert!(
        matches!(
            err,
            ServeError::QueueFull {
                depth: 4,
                capacity: 4
            }
        ),
        "{err:?}"
    );
    drop(rx);
    let snap = server.shutdown();
    assert_eq!(snap.shed_queue, 3);
}

/// Context overflow under virtual time: a session decoding past the
/// window sheds with [`ServeError::ContextOverflow`] at dispatch.
#[test]
fn context_overflow_sheds_typed_in_virtual_time() {
    let mut cfg = virtual_cfg(1, 1, 16);
    cfg.model.max_len = 4;
    cfg.kv_block_tokens = 2;
    let (server, rx) = apsq_serve::Server::start(&cfg);
    let h = server.handle();
    // One past the window; per-session serialization feeds one per tick.
    for i in 0..5 {
        h.submit(Request::decode(i, 9, 1)).unwrap();
    }
    let mut got: Vec<Response> = Vec::new();
    for t in 0..10 {
        h.tick(t).unwrap();
        while let Ok(r) = rx.try_recv() {
            got.push(r);
        }
        if got.len() == 5 {
            break;
        }
    }
    got.sort_by_key(|r| r.id);
    assert_eq!(got.len(), 5);
    assert!(got[..4].iter().all(|r| r.result.is_ok()));
    assert!(
        matches!(
            got[4].result,
            Err(ServeError::ContextOverflow {
                session: 9,
                position: 4,
                max_len: 4
            })
        ),
        "{:?}",
        got[4].result
    );
    let snap = server.shutdown();
    assert_eq!(snap.shed_context_overflow, 1);
    assert_eq!(snap.decode_tokens, 4);
}

/// KV exhaustion under virtual time: when the block pool is promised
/// away within one planned batch and nothing is evictable, the loser
/// sheds with [`ServeError::SessionCapacity`].
#[test]
fn session_capacity_sheds_typed_in_virtual_time() {
    let mut cfg = virtual_cfg(4, 1, 16);
    cfg.kv_budget_bytes = cfg.model.kv_bytes_per_session(cfg.precision);
    let (server, rx) = apsq_serve::Server::start(&cfg);
    let h = server.handle();
    h.submit(Request::decode(1, 1, 0)).unwrap();
    h.submit(Request::decode(2, 2, 0)).unwrap();
    h.tick(0).unwrap();
    let mut got: Vec<Response> = (0..2).map(|_| rx.recv().unwrap()).collect();
    got.sort_by_key(|r| r.id);
    assert!(got[0].result.is_ok());
    assert!(
        matches!(
            got[1].result,
            Err(ServeError::SessionCapacity {
                active: 2,
                capacity: 1
            })
        ),
        "{:?}",
        got[1].result
    );
    let snap = server.shutdown();
    assert_eq!(snap.shed_session_capacity, 1);
}

/// The degradation ladder escalates under sustained backlog and applies
/// its rungs in order: sub-High prefill sheds (`"prefill-shed"`) and
/// best-effort decode is length-capped (`"decode-length-cap"`), each as
/// a typed [`ServeError::Degraded`] counted in `shed_degraded`.
#[test]
fn degradation_ladder_sheds_prefill_and_caps_low_decode() {
    let mut cfg = virtual_cfg(1, 1, 32);
    cfg.slo.admit_depth = [32; 3]; // isolate the ladder from admission
    cfg.slo.degrade = DegradationPolicy {
        elevate_depth: 1,
        severe_depth: 2,
        sustain_ticks: 1,
        low_decode_cap: 0,
        shed_prefill_first: true,
        kv_guard_free_blocks: 0,
    };
    let (server, rx) = apsq_serve::Server::start(&cfg);
    let h = server.handle();
    for i in 0..4 {
        h.submit(Request::decode(i, 100 + i, 0).with_priority(Priority::Low))
            .unwrap();
    }
    h.submit(Request::prefill(9, PrefillModel::BertBase128).with_priority(Priority::Low))
        .unwrap();
    // Depth 5 ≥ severe_depth 2, sustained for 1 tick ⇒ level 2: the
    // prefill sheds, and every Low decode trips the position-0 cap.
    let td = h.tick(0).unwrap();
    assert_eq!(td.level, 2);
    assert_eq!(td.shed, 5);
    assert_eq!(td.dispatched_decode, 0);
    let mut reasons = Vec::new();
    for _ in 0..5 {
        let r = rx.recv().unwrap();
        match r.result {
            Err(ServeError::Degraded { level, reason }) => {
                assert!(level >= 1);
                reasons.push(reason);
            }
            other => panic!("expected Degraded, got {other:?}"),
        }
    }
    reasons.sort_unstable();
    assert_eq!(
        reasons,
        vec![
            "decode-length-cap",
            "decode-length-cap",
            "decode-length-cap",
            "decode-length-cap",
            "prefill-shed"
        ]
    );
    let snap = server.shutdown();
    assert_eq!(snap.shed_degraded, 5);
    assert!(snap.degrade_escalations >= 1);
    assert!(snap.ticks_at_level[2] >= 1);
}

/// Priority classes discriminate under overload: with capacity for two
/// decode steps per tick, High traffic dispatches first (despite
/// arriving last) and meets its deadline; the Low tail sheds
/// [`ServeError::DeadlineExceeded`] once its deadline lapses.
#[test]
fn high_priority_goodput_survives_while_low_sheds() {
    let cfg = virtual_cfg(2, 1, 16);
    let (server, rx) = apsq_serve::Server::start(&cfg);
    let h = server.handle();
    // Low arrives first — priority must beat arrival order.
    for i in 0..4 {
        h.submit(Request::decode(10 + i, 200 + i, 0).with_slo(Slo::new(Priority::Low, 1)))
            .unwrap();
    }
    for i in 0..2 {
        h.submit(Request::decode(i, 100 + i, 0).with_slo(Slo::new(Priority::High, 1)))
            .unwrap();
    }
    let td0 = h.tick(0).unwrap();
    assert_eq!(td0.dispatched_decode, 2);
    let td1 = h.tick(1).unwrap();
    assert_eq!(td1.dispatched_decode, 2);
    let td2 = h.tick(2).unwrap();
    assert_eq!((td2.dispatched_decode, td2.shed), (0, 2));
    let mut ok_ids = Vec::new();
    let mut shed_ids = Vec::new();
    for _ in 0..6 {
        let r = rx.recv().unwrap();
        match r.result {
            Ok(Payload::Decode { .. }) => ok_ids.push(r.id),
            Err(ServeError::DeadlineExceeded { .. }) => shed_ids.push(r.id),
            other => panic!("unexpected {other:?}"),
        }
    }
    ok_ids.sort_unstable();
    shed_ids.sort_unstable();
    assert_eq!(ok_ids, vec![0, 1, 10, 11], "High pair + first Low pair");
    assert_eq!(shed_ids, vec![12, 13], "Low tail shed on deadline");
    let snap = server.shutdown();
    assert_eq!(snap.shed_deadline, 2);
    // High dispatched at tick 0 ≤ deadline 1: full goodput, no misses.
    assert_eq!(snap.priority[0].ok, 2);
    assert_eq!(snap.priority[0].deadline_misses, 0);
    assert_eq!(snap.priority[0].goodput, 2);
    // Low: two made the deadline at tick 1, two shed.
    assert_eq!(snap.priority[2].ok, 2);
    assert_eq!(snap.priority[2].deadline_misses, 2);
    assert_eq!(snap.goodput, 4);
}

/// The KV admission guard (level ≥ 1) refuses *new* best-effort sessions
/// when free blocks run low, with the `"kv-guard"` rung named.
#[test]
fn kv_guard_refuses_new_low_sessions_under_pressure() {
    let mut cfg = virtual_cfg(4, 1, 32);
    // 2 worst-case sessions = 4 blocks at 16-token blocks × 2 layers.
    cfg.kv_budget_bytes = 2 * cfg.model.kv_bytes_per_session(cfg.precision);
    cfg.slo.admit_depth = [32; 3];
    cfg.slo.degrade = DegradationPolicy {
        elevate_depth: 1,
        severe_depth: usize::MAX,
        sustain_ticks: 1,
        low_decode_cap: usize::MAX,
        shed_prefill_first: false,
        kv_guard_free_blocks: 4,
    };
    let (server, rx) = apsq_serve::Server::start(&cfg);
    let h = server.handle();
    // One High session takes blocks; the new Low session would leave the
    // free pool under the 4-block guard floor.
    h.submit(Request::decode(1, 1, 0)).unwrap();
    h.submit(Request::decode(2, 2, 0).with_priority(Priority::Low))
        .unwrap();
    let td = h.tick(0).unwrap();
    assert_eq!(td.level, 1);
    assert_eq!(td.shed, 1);
    let mut got: Vec<Response> = (0..2).map(|_| rx.recv().unwrap()).collect();
    got.sort_by_key(|r| r.id);
    assert!(got[0].result.is_ok());
    assert!(
        matches!(
            got[1].result,
            Err(ServeError::Degraded {
                level: 1,
                reason: "kv-guard"
            })
        ),
        "{:?}",
        got[1].result
    );
    let snap = server.shutdown();
    assert_eq!(snap.shed_degraded, 1);
}

/// Open-loop overload, full accounting: every submitted request is
/// accounted exactly once (ok, server error, or client-side shed), every
/// server-side shed sums into a typed cause counter, and client sheds
/// equal the server's admission-shed counter.
#[test]
fn open_loop_overload_accounts_every_shed_to_a_typed_cause() {
    let cfg = virtual_cfg(4, 1, 12);
    let scenario = OverloadScenario::mixed_slo(
        ArrivalProcess::Bursty {
            on_ticks: 8,
            off_ticks: 8,
            lambda_on: 3.0,
            lambda_off: 0.25,
        },
        48,
    );
    let report = OpenLoopGenerator::new(11, scenario).run(&cfg);
    assert!(report.arrivals > 0);
    // Conservation: nothing vanishes, nothing is double-counted.
    assert_eq!(
        report.submitted,
        report.ok + report.errors + report.client_shed,
        "request accounting leak"
    );
    let snap = &report.snapshot;
    assert_eq!(report.client_shed, snap.shed_queue);
    let typed = snap.shed_session_capacity
        + snap.shed_context_overflow
        + snap.shed_session_evicted
        + snap.shed_deadline
        + snap.shed_degraded;
    assert_eq!(
        typed, report.errors,
        "server-side errors not all attributed to a typed shed cause"
    );
    // Per-priority counters tile the totals.
    let by_class: u64 = report.per_priority.iter().map(|c| c.submitted).sum();
    assert_eq!(by_class, report.submitted);
    let ok_by_class: u64 = report.per_priority.iter().map(|c| c.ok).sum();
    assert_eq!(ok_by_class, report.ok);
    // Overload actually happened and goodput is a subset of ok.
    assert!(
        report.errors + report.client_shed > 0,
        "no overload provoked"
    );
    assert!(snap.goodput <= report.ok);
    assert!(report.fingerprint != 0);
}

/// The repository benchmark's `overload_int8` server: int8, 8 decode
/// steps and 2 prefills per tick, a 32-deep queue, 200k-MAC prefills.
fn overload_int8_cfg(workers: usize) -> ServeConfig {
    let mut cfg = ServeConfig::smoke().with_precision(Precision::Int8Apsq);
    cfg.workers = workers;
    cfg.engine_threads = 1;
    cfg.prefill_max_macs = 200_000;
    cfg.queue_capacity = 32;
    cfg.slo = SloPolicy::virtual_time(8, 2, 32);
    cfg
}

/// Completion fingerprint of [`overload_int8_cfg`] under the `mixed_slo`
/// mix at 2× decode capacity, 60 ticks of arrivals, seed 1.
const OVERLOAD_INT8_FINGERPRINT: u64 = 0x55a9_c39b_7454_09b3;

/// The overload fingerprint is a constant: not only equal across worker
/// counts, but equal to the value recorded before the tick was split
/// across workers — a scheduling change that moves any decision or bit
/// fails here, not only in the benchmark.
#[test]
fn overload_int8_fingerprint_is_pinned_at_every_worker_count() {
    let probe = OverloadScenario::mixed_slo(ArrivalProcess::Poisson { lambda: 1.0 }, 1);
    let lambda = 2.0 * 8.0 / probe.mean_units_per_arrival();
    let scenario = OverloadScenario::mixed_slo(ArrivalProcess::Poisson { lambda }, 60);
    for workers in 1..=3 {
        let report = OpenLoopGenerator::new(1, scenario.clone()).run(&overload_int8_cfg(workers));
        assert!(
            report.errors + report.client_shed > 0,
            "no overload provoked"
        );
        assert_eq!(
            report.fingerprint, OVERLOAD_INT8_FINGERPRINT,
            "{workers} workers: {:#018x}",
            report.fingerprint
        );
    }
}

/// A saturated tick spreads over the whole worker pool: the decode budget
/// is cut into work items of at most ⌈budget / workers⌉ rows, and each
/// prefill request is its own item. The cut shows in every response's
/// `batch_size` and in the snapshot's batch counts, so a regression to
/// one decode batch per tick fails here.
#[test]
fn saturated_tick_splits_decode_across_workers() {
    // (workers, rows per decode item, batch-occupancy histogram with the
    // two single-request prefill items).
    let shapes = [
        (1, vec![8], vec![(1, 2), (8, 1)]),
        (2, vec![4, 4], vec![(1, 2), (4, 2)]),
        (3, vec![3, 3, 2], vec![(1, 2), (2, 1), (3, 2)]),
    ];
    for (workers, decode_items, hist) in shapes {
        let mut cfg = virtual_cfg(8, 2, 32);
        cfg.workers = workers;
        let (server, rx) = apsq_serve::Server::start(&cfg);
        let h = server.handle();
        for s in 0..8 {
            h.submit(Request::decode(s, s, 0)).unwrap();
        }
        h.submit(Request::prefill(100, PrefillModel::BertBase128))
            .unwrap();
        h.submit(Request::prefill(101, PrefillModel::BertBase128))
            .unwrap();
        let td = h.tick(0).unwrap();
        assert_eq!((td.dispatched_decode, td.dispatched_prefill), (8, 2));
        let responses: Vec<Response> = rx.try_iter().collect();
        assert_eq!(responses.len(), 10, "{workers} workers");
        let mut decode_sizes: Vec<usize> = responses
            .iter()
            .filter(|r| matches!(r.result, Ok(Payload::Decode { .. })))
            .map(|r| r.batch_size)
            .collect();
        decode_sizes.sort_unstable();
        let mut expected: Vec<usize> = decode_items
            .iter()
            .flat_map(|&rows| std::iter::repeat_n(rows, rows))
            .collect();
        expected.sort_unstable();
        assert_eq!(decode_sizes, expected, "{workers} workers");
        assert!(responses
            .iter()
            .filter(|r| matches!(r.result, Ok(Payload::Prefill { .. })))
            .all(|r| r.batch_size == 1));
        let snap = server.shutdown();
        assert_eq!(snap.batches, decode_items.len() as u64 + 2);
        assert_eq!(snap.batch_occupancy_max, decode_items[0]);
        assert_eq!(snap.batch_occupancy_hist, hist, "{workers} workers");
    }
}

/// A tick's work items finish in whatever order the workers do, but their
/// bookkeeping runs in dispatch order. Promoting a session's held
/// successor draws the batcher sequence number that breaks EDF ties at
/// the next tick, so booking completions as they land would make which
/// request meets its deadline depend on worker timing.
#[test]
fn tick_bookkeeping_follows_dispatch_order() {
    let cfg = virtual_cfg(2, 1, 16);
    assert_eq!(cfg.workers, 2);
    for _ in 0..8 {
        let (server, rx) = apsq_serve::Server::start(&cfg);
        let h = server.handle();
        let late = Slo::new(Priority::Normal, 1);
        // Tick 0 serves A1 and B1 on one worker each; C1 waits.
        h.submit(Request::decode(1, 10, 0)).unwrap();
        h.submit(Request::decode(2, 20, 0)).unwrap();
        h.submit(Request::decode(3, 30, 0).with_slo(late)).unwrap();
        // Held behind A1 and B1; promoted as those complete.
        h.submit(Request::decode(4, 10, 0).with_slo(late)).unwrap();
        h.submit(Request::decode(5, 20, 0).with_slo(late)).unwrap();
        for now in 0..3 {
            h.tick(now).unwrap();
        }
        let mut results: Vec<(u64, bool)> =
            rx.try_iter().map(|r| (r.id, r.result.is_ok())).collect();
        results.sort_unstable();
        // Tick 1 serves C1 and A2 (promoted first); B2 ties with A2 on
        // priority and deadline, loses on sequence, and expires at tick 2.
        assert_eq!(
            results,
            [(1, true), (2, true), (3, true), (4, true), (5, false)]
        );
        server.shutdown();
    }
}
