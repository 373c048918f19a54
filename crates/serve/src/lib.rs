//! `apsq-serve` — a dynamic-batching inference server over the
//! [`ExecEngine`](apsq_tensor::ExecEngine).
//!
//! The serving stack turns the workspace's kernels, model inventories, and
//! quantized decode path into an end-to-end traffic-bearing system:
//!
//! ```text
//!  clients ── submit ──▶ RequestQueue ──▶ scheduler thread
//!                         (admission:      │  Batcher: prefill / decode
//!                          shed typed      │  lanes; barrier (max-batch +
//!                          errors over     │  max-wait) or continuous
//!                          budget)         │  dispatch
//!                                          ▼
//!                                    worker pool (ExecEngine each)
//!                                     │          │
//!                decode lane: decode_batch_paged_with over the sessions'
//!                KV block tables      │          │
//!                prefill lane: execute_workloads on bert / segformer /
//!                llama inventories    ▼          ▼
//!                                SessionManager checkin ── responses ──▶
//!                                (block tables ──▶ shared BlockAllocator)
//! ```
//!
//! Std-only: threads are [`std::thread`], channels are [`std::sync::mpsc`],
//! and the only RNG is the workspace's vendored deterministic `rand`.
//!
//! # Determinism
//!
//! A response's payload is **bit-identical for every worker count, batch
//! size limit, and batching decision**: the engine reduces each output
//! element in a fixed order independent of the batch partition, so row `b`
//! of a coalesced decode GEMM equals the batch-size-1 result exactly (see
//! `DecoderLm::decode_batch_paged_with`), and prefill requests execute
//! independently inside a coalesced task. Scheduling changes *when* a
//! request runs and *with whom* — never what it returns. Paged attention
//! gathers a session's blocks back into flat token order before reducing,
//! so the KV block size (and whether blocks are shared) is equally
//! payload-invisible. The end-to-end property is pinned by
//! `tests/determinism.rs`: one seed, many server shapes and block sizes,
//! one response fingerprint.
//!
//! Load-dependent shedding ([`ServeError::QueueFull`],
//! [`ServeError::SessionCapacity`], and LRU eviction surfacing as
//! [`ServeError::SessionEvicted`]) is the one timing-coupled outcome —
//! and it is always a *typed error*, never a silently different payload
//! (an evicted session's id is tombstoned, so its context can never
//! silently restart from scratch). A decode step whose KV reservation is
//! refused while other work is in flight is not shed: it waits in the
//! batcher, in place, until that work completes and returns or
//! de-duplicates its blocks, so a capacity shed is decided against a pool
//! with nothing in flight. Closed-loop workloads sized within the
//! configured budgets (as the [`LoadGenerator`] is) never shed at all.
//!
//! # Overload: SLOs, virtual time, and graceful degradation
//!
//! Under a **virtual-time** [`SloPolicy`], the server stops racing the
//! wall clock: the driver advances a tick counter via
//! [`ServerHandle::tick`], and the scheduler dispatches within fixed
//! per-tick decode/prefill unit budgets, sheds requests whose absolute
//! tick [`Slo::deadline`] already passed (typed
//! [`ServeError::DeadlineExceeded`]), and orders each lane
//! earliest-deadline-first within [`Priority`] class. Admission applies
//! per-priority queue-depth thresholds so best-effort work sheds first,
//! and a [`DegradationPolicy`] ladder — armed by sustained backlog —
//! caps low-priority decode lengths, guards KV headroom against new
//! best-effort sessions, and sheds sub-high prefill before touching
//! decode (typed [`ServeError::Degraded`] with the rung named).
//! Because ticks only run on a quiesced system, every shed and dispatch
//! decision is a pure function of the seed: the [`OpenLoopGenerator`]
//! drives seeded Poisson/bursty arrival schedules *past* capacity and
//! still fingerprints identically across worker counts and batch
//! policies — see `tests/overload.rs` and `tests/determinism.rs`.
//!
//! # Paged KV cache
//!
//! Session KV state lives in **fixed-size blocks** of
//! [`ServeConfig::kv_block_tokens`] tokens, carved out of the
//! [`ServeConfig::kv_budget_bytes`] byte budget by one shared
//! [`apsq_nn::BlockAllocator`] (free list + refcounts). A session holds
//! only the blocks its current length needs, so short sessions pack well
//! past the nominal worst-case [`ServeConfig::session_capacity`]. The
//! f32 cache stores `8·d` bytes per cached token;
//! [`Precision::Int8Apsq`] stores i8 codes plus per-(token, head)
//! power-of-two scale exponents — `2·(d + heads)` bytes — so the same
//! budget holds ~4× the tokens, and decode attention runs `Q·Kᵀ`/`P·V`
//! in the integer domain with grouped APSQ folded over the context
//! dimension.
//!
//! Filled blocks are **hash-consed on the session's token-id prefix**:
//! when two sessions have decoded the same leading tokens, their filled
//! blocks are byte-identical (same inputs, same deterministic kernels),
//! and the later session's copy is swapped for a refcounted reference to
//! the first (after an exact byte-equality check, so a hash collision
//! degrades to a missed dedup, never a wrong read). Appending past a
//! shared block allocates fresh — copy-on-write, so sharing is invisible
//! to payloads. Under block pressure the scheduler reclaims unshared
//! prefix blocks, then LRU-evicts idle sessions, and only then sheds
//! with [`ServeError::SessionCapacity`].
//!
//! Eviction tombstones are **bounded**: the set of dead session ids is
//! interval-compacted (exact membership, ranges merge), so a long-lived
//! server's memory tracks the number of id *runs*, not the number of
//! evictions — see `SessionManager::tombstone_spans`.
//!
//! # Quick start
//!
//! ```
//! use apsq_serve::{LoadGenerator, Scenario, ServeConfig};
//!
//! let cfg = ServeConfig::smoke();
//! let gen = LoadGenerator::new(7, Scenario::llama_decode(4, 4));
//! let report = gen.run(&cfg);
//! assert_eq!(report.ok, 16);
//! assert!(report.tokens_per_s > 0.0);
//! ```

#![deny(unsafe_code)]
#![warn(missing_docs)]

mod batcher;
mod config;
mod error;
mod loadgen;
mod metrics;
mod request;
mod server;
mod session;
mod trafficgen;

pub use apsq_models::Precision;
pub use batcher::{Batcher, Lane, Pending};
pub use config::{BatchPolicy, DegradationPolicy, ModelSpec, ServeConfig, SloPolicy};
pub use error::ServeError;
pub use loadgen::{ClientKind, LoadGenerator, LoadReport, Scenario};
pub use metrics::{
    LatencyStats, Metrics, MetricsSnapshot, PoolReport, PriorityClassStats, ShedCause,
};
pub use request::{Payload, PrefillModel, Priority, Request, RequestId, Response, SessionId, Slo};
pub use server::{Server, ServerHandle, TickDone};
pub use session::{SessionKv, SessionManager};
pub use trafficgen::{
    Arrival, ArrivalProcess, ClassCounts, ClassKind, OpenLoopGenerator, OverloadReport,
    OverloadScenario, TrafficClass,
};
