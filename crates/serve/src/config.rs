//! Server configuration: model spec, batching policy, session budget, and
//! the knobs tying them together.

use apsq_models::Precision;
use apsq_nn::{DecoderLm, ModelConfig, PsumMode};
use apsq_quant::Bitwidth;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Duration;

/// The decoder model a server instance serves, built deterministically
/// from a seed. Weights are random-initialized and the quantizers are
/// primed by one training-mode forward over a fixed sequence, after which
/// the model is frozen — every server built from the same spec computes
/// bit-identical logits.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ModelSpec {
    /// Vocabulary size.
    pub vocab: usize,
    /// Context window (KV-cache capacity per session).
    pub max_len: usize,
    /// Hidden width.
    pub d_model: usize,
    /// Attention heads.
    pub heads: usize,
    /// FFN width.
    pub d_ff: usize,
    /// Decoder blocks.
    pub layers: usize,
    /// PSUM path for every quantized matmul (the APSQ integration point).
    pub psum_mode: PsumMode,
    /// Weight-init / priming seed.
    pub seed: u64,
}

impl ModelSpec {
    /// A llama-style tiny decoder with the APSQ grouped PSUM path active —
    /// large enough that batched GEMMs dominate per-request overhead,
    /// small enough to decode thousands of tokens per second on a CPU.
    pub fn tiny_llama() -> Self {
        ModelSpec {
            vocab: 64,
            max_len: 64,
            d_model: 128,
            heads: 4,
            d_ff: 256,
            layers: 2,
            psum_mode: PsumMode::Apsq {
                bits: Bitwidth::INT8,
                gs: 3,
                k_tile: 16,
            },
            seed: 0xA95C,
        }
    }

    /// The equivalent `apsq-nn` model config.
    pub fn model_config(&self) -> ModelConfig {
        ModelConfig {
            vocab: self.vocab,
            max_len: self.max_len,
            d_model: self.d_model,
            heads: self.heads,
            d_ff: self.d_ff,
            layers: self.layers,
            bits: Bitwidth::INT8,
            psum_mode: self.psum_mode,
        }
    }

    /// Builds and primes the decoder: one training-mode forward over the
    /// fixed sequence `i % vocab` initializes activation quantizers and
    /// PSUM observers; the model is immutable afterwards.
    pub fn build(&self) -> DecoderLm {
        let mut rng = StdRng::seed_from_u64(self.seed);
        let mut model = DecoderLm::new(&self.model_config(), &mut rng);
        let prime: Vec<usize> = (0..self.max_len).map(|i| i % self.vocab).collect();
        let _ = model.forward(&prime);
        model
    }

    /// Bytes one fully grown session (KV caches preallocated for the
    /// whole context window, across all layers) occupies at the given
    /// decode precision — the unit [`ServeConfig::kv_budget_bytes`] is
    /// divided by.
    pub fn kv_bytes_per_session(&self, precision: Precision) -> usize {
        self.layers * self.max_len * precision.kv_bytes_per_token(self.d_model, self.heads)
    }
}

/// Dynamic batching policy, applied per lane.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BatchPolicy {
    /// Hard cap on requests coalesced into one executor dispatch.
    pub max_batch: usize,
    /// How long the oldest pending request may wait for co-batchable
    /// traffic before a partial batch is dispatched to an idle worker.
    /// `ZERO` disables coalescing-by-waiting (dispatch immediately).
    /// Ignored in [`continuous`](Self::continuous) mode.
    pub max_wait: Duration,
    /// Continuous batching: a lane dispatches to an idle worker the
    /// moment anything is pending — there is no coalescing barrier, so a
    /// new session joins the running decode stream at the very next step
    /// and prefill chunks interleave with decode instead of waiting out
    /// `max_wait`. Occupancy still grows up to `max_batch` whenever
    /// requests are already queued.
    pub continuous: bool,
}

impl BatchPolicy {
    /// No batching: every request dispatches alone, immediately.
    pub fn single() -> Self {
        BatchPolicy {
            max_batch: 1,
            max_wait: Duration::ZERO,
            continuous: false,
        }
    }

    /// Batch up to `max_batch`, holding partial batches up to 2 ms (a
    /// barrier-style coalescing window).
    pub fn batched(max_batch: usize) -> Self {
        BatchPolicy {
            max_batch,
            max_wait: Duration::from_millis(2),
            continuous: false,
        }
    }

    /// Continuous batching up to `max_batch`: dispatch whenever a worker
    /// is idle and work is pending, never waiting for co-batchable
    /// traffic. Batches still coalesce opportunistically from whatever is
    /// queued at dispatch time.
    pub fn continuous(max_batch: usize) -> Self {
        BatchPolicy {
            max_batch,
            max_wait: Duration::ZERO,
            continuous: true,
        }
    }
}

/// Graceful-degradation ladder: what the scheduler gives up, and in what
/// order, under **sustained** overload. Overload level is derived from the
/// batcher depth each virtual tick: depth ≥ `severe_depth` for
/// `sustain_ticks` consecutive ticks ⇒ level 2, depth ≥ `elevate_depth`
/// sustained ⇒ level 1, otherwise the level decays one rung per sustained
/// calm streak. Rungs (all count into [`crate::MetricsSnapshot`]):
///
/// 1. **Level ≥ 1 — cap best-effort decode lengths.** Low-priority decode
///    steps past `low_decode_cap` tokens shed with
///    [`crate::ServeError::Degraded`] (`"decode-length-cap"`).
/// 2. **Level ≥ 1 — KV admission guard.** When free KV blocks fall below
///    `kv_guard_free_blocks`, *new* low-priority sessions are refused
///    (`"kv-guard"`) so interactive sessions keep headroom to grow. Int8
///    sessions need ~4× fewer blocks, so an int8 server holds this rung
///    off far longer at an equal byte budget.
/// 3. **Level ≥ 2 — shed prefill before decode.** Queued sub-interactive
///    prefill is dropped (`"prefill-shed"`) when `shed_prefill_first` is
///    set: batch encoder traffic is retryable, decode sessions hold state.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DegradationPolicy {
    /// Batcher depth that (sustained) raises the level to 1.
    pub elevate_depth: usize,
    /// Batcher depth that (sustained) raises the level to 2.
    pub severe_depth: usize,
    /// Consecutive ticks a depth must hold before the level moves (both
    /// directions — hysteresis against burst flapping).
    pub sustain_ticks: u64,
    /// Max decode position for low-priority sessions at level ≥ 1.
    pub low_decode_cap: usize,
    /// Shed queued sub-High prefill at level ≥ 2.
    pub shed_prefill_first: bool,
    /// Free-block floor under which new low-priority sessions are refused
    /// at level ≥ 1 (0 disables the rung).
    pub kv_guard_free_blocks: usize,
}

impl DegradationPolicy {
    /// Ladder disabled: thresholds no queue can reach.
    pub fn disabled() -> Self {
        DegradationPolicy {
            elevate_depth: usize::MAX,
            severe_depth: usize::MAX,
            sustain_ticks: 1,
            low_decode_cap: usize::MAX,
            shed_prefill_first: false,
            kv_guard_free_blocks: 0,
        }
    }
}

/// SLO scheduling policy: virtual-time lockstep mode, per-tick dispatch
/// budgets, priority-tiered admission, and the degradation ladder.
///
/// With `virtual_time` set, the server stops self-dispatching and instead
/// advances only when [`crate::ServerHandle::tick`] is called: each tick
/// sheds expired deadlines, applies the degradation ladder, dispatches at
/// most `decode_units_per_tick` decode steps and `prefill_units_per_tick`
/// prefills, and returns once every dispatched batch has completed. The
/// decode steps are cut into batches of at most
/// ⌈`decode_units_per_tick` / `workers`⌉ rows and each prefill runs
/// alone, so the tick spreads over the whole worker pool. That
/// lockstep barrier is what makes overload scheduling deterministic: every
/// shed/dispatch decision happens on a quiesced system, so it is a pure
/// function of the submitted traffic — independent of worker count and
/// batch policy.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SloPolicy {
    /// Drive the server by explicit virtual-time ticks instead of
    /// wall-clock self-dispatch.
    pub virtual_time: bool,
    /// Decode steps dispatched per tick (the server's modeled decode
    /// capacity; must be ≥ 1 in virtual-time mode).
    pub decode_units_per_tick: usize,
    /// Prefill requests dispatched per tick.
    pub prefill_units_per_tick: usize,
    /// Admission-queue thresholds per priority rank (High, Normal, Low):
    /// a submit at rank `r` is refused with [`crate::ServeError::QueueFull`]
    /// once the pending depth reaches `min(admit_depth[r],
    /// queue_capacity)`. Descending values make best-effort work shed
    /// first as the queue fills.
    pub admit_depth: [usize; 3],
    /// The graceful-degradation ladder.
    pub degrade: DegradationPolicy,
}

impl SloPolicy {
    /// Wall-clock serving with no SLO machinery: the pre-SLO scheduler,
    /// bit-for-bit (uniform admission at `queue_capacity`, no deadlines,
    /// ladder disabled).
    pub fn wall_clock() -> Self {
        SloPolicy {
            virtual_time: false,
            decode_units_per_tick: 0,
            prefill_units_per_tick: 0,
            admit_depth: [usize::MAX; 3],
            degrade: DegradationPolicy::disabled(),
        }
    }

    /// Virtual-time lockstep serving with capacity `decode_units` decode
    /// steps and `prefill_units` prefills per tick, tiered admission
    /// derived from `queue_capacity` (High gets the full queue, Normal
    /// 3/4, Low 1/2), and a ladder that elevates at half queue depth and
    /// turns severe at 3/4, sustained for 3 ticks.
    pub fn virtual_time(decode_units: usize, prefill_units: usize, queue_capacity: usize) -> Self {
        SloPolicy {
            virtual_time: true,
            decode_units_per_tick: decode_units,
            prefill_units_per_tick: prefill_units,
            admit_depth: [
                queue_capacity,
                (queue_capacity * 3).div_ceil(4),
                queue_capacity.div_ceil(2),
            ],
            degrade: DegradationPolicy {
                elevate_depth: queue_capacity.div_ceil(2),
                severe_depth: (queue_capacity * 3).div_ceil(4),
                sustain_ticks: 3,
                low_decode_cap: 8,
                shed_prefill_first: true,
                kv_guard_free_blocks: 4,
            },
        }
    }
}

/// Full server configuration.
///
/// # Example
///
/// ```
/// use apsq_serve::{BatchPolicy, Precision, ServeConfig};
///
/// let cfg = ServeConfig::smoke()                 // 64 f32 sessions' bytes
///     .with_precision(Precision::Int8Apsq)       // i8 codes + pow2 scales
///     .with_batch(BatchPolicy::continuous(8))    // no coalescing barrier
///     .with_kv_block_tokens(8);                  // KV paging granularity
/// cfg.validate();
/// // The same byte budget admits ~4x the worst-case sessions at int8,
/// // and block-granular accounting packs short sessions denser still.
/// assert!(cfg.session_capacity() >= 3 * 64);
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ServeConfig {
    /// The decode model served.
    pub model: ModelSpec,
    /// Executor threads (each runs its own `ExecEngine`).
    pub workers: usize,
    /// `ExecEngine` worker threads per executor (1 = serial engine; the
    /// engine itself only spawns above its MAC threshold).
    pub engine_threads: usize,
    /// Numeric datapath for decode and prefill execution:
    /// [`Precision::F32`] runs the fake-quant f32 models,
    /// [`Precision::Int8Apsq`] PTQ-converts the decode model to the true
    /// integer datapath (`Int8DecoderLm`) at server start and runs
    /// prefill inventories as int8+APSQ GEMMs. Responses are
    /// deterministic within each precision; the two precisions produce
    /// different (but individually reproducible) fingerprints.
    pub precision: Precision,
    /// Dynamic batching policy for both lanes.
    pub batch: BatchPolicy,
    /// Admission-queue capacity; submits beyond it shed with
    /// [`crate::ServeError::QueueFull`].
    pub queue_capacity: usize,
    /// KV-cache **byte** budget across all resident sessions. The budget
    /// is carved into fixed-size KV blocks of
    /// [`kv_block_tokens`](Self::kv_block_tokens) tokens each, handed out
    /// on demand by a shared block allocator — a session holds only the
    /// blocks its current length needs, so short sessions overcommit well
    /// past the nominal [`session_capacity`](Self::session_capacity)
    /// (which still assumes worst-case, fully grown sessions), and the
    /// same budget holds ~4× the tokens at [`Precision::Int8Apsq`] (i8
    /// codes + per-row scale exponents instead of f32 rows). Under block
    /// pressure the scheduler reclaims shared-prefix blocks, then
    /// LRU-evicts idle sessions, and only then sheds with
    /// [`crate::ServeError::SessionCapacity`].
    pub kv_budget_bytes: usize,
    /// Tokens per KV block — the granularity the byte budget is carved
    /// at. Smaller blocks waste fewer bytes on partially filled tails but
    /// grow the per-session block tables; decode output is bit-identical
    /// across every block size.
    pub kv_block_tokens: usize,
    /// Per-layer MAC budget for prefill inventories (0 = unlimited —
    /// do not use 0 with paper-scale inventories).
    pub prefill_max_macs: u64,
    /// SLO scheduling policy (virtual time, priorities, deadlines,
    /// degradation). [`SloPolicy::wall_clock`] reproduces pre-SLO
    /// behavior exactly.
    pub slo: SloPolicy,
}

impl ServeConfig {
    /// A small config for tests and smoke runs: 2 workers, batching on,
    /// and a KV byte budget sized to 64 resident f32 sessions of the
    /// tiny-llama spec (so the int8 cache admits ~4× that).
    pub fn smoke() -> Self {
        let model = ModelSpec::tiny_llama();
        ServeConfig {
            model,
            workers: 2,
            engine_threads: 1,
            precision: Precision::F32,
            batch: BatchPolicy::batched(8),
            queue_capacity: 256,
            kv_budget_bytes: 64 * model.kv_bytes_per_session(Precision::F32),
            kv_block_tokens: 16,
            prefill_max_macs: 30_000,
            slo: SloPolicy::wall_clock(),
        }
    }

    /// Resident sessions the KV byte budget admits at this config's
    /// model shape and precision (the derived session capacity).
    pub fn session_capacity(&self) -> usize {
        self.kv_budget_bytes / self.model.kv_bytes_per_session(self.precision)
    }

    /// Sets the worker count.
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.workers = workers;
        self
    }

    /// Sets the KV byte budget.
    pub fn with_kv_budget(mut self, bytes: usize) -> Self {
        self.kv_budget_bytes = bytes;
        self
    }

    /// Sets the numeric datapath.
    pub fn with_precision(mut self, precision: Precision) -> Self {
        self.precision = precision;
        self
    }

    /// Sets the batching policy.
    pub fn with_batch(mut self, batch: BatchPolicy) -> Self {
        self.batch = batch;
        self
    }

    /// Sets the KV block size in tokens.
    pub fn with_kv_block_tokens(mut self, tokens: usize) -> Self {
        self.kv_block_tokens = tokens;
        self
    }

    /// Sets the SLO scheduling policy.
    pub fn with_slo(mut self, slo: SloPolicy) -> Self {
        self.slo = slo;
        self
    }

    /// Validates invariants (non-zero workers, batch, queue, and a KV
    /// budget that admits at least one session).
    ///
    /// # Panics
    ///
    /// Panics on a zero-sized resource.
    pub fn validate(&self) {
        assert!(self.workers > 0, "need at least one worker");
        assert!(self.engine_threads > 0, "need at least one engine thread");
        assert!(self.batch.max_batch > 0, "max_batch must be positive");
        assert!(self.queue_capacity > 0, "queue_capacity must be positive");
        assert!(self.kv_block_tokens > 0, "kv_block_tokens must be positive");
        assert!(
            self.kv_block_tokens <= self.model.max_len,
            "kv_block_tokens {} exceeds the context window {}",
            self.kv_block_tokens,
            self.model.max_len
        );
        assert!(
            self.session_capacity() > 0,
            "kv_budget_bytes {} below one session's KV bytes {}",
            self.kv_budget_bytes,
            self.model.kv_bytes_per_session(self.precision)
        );
        if self.slo.virtual_time {
            assert!(
                self.slo.decode_units_per_tick > 0,
                "virtual-time serving needs decode_units_per_tick >= 1"
            );
            assert!(
                self.slo.degrade.sustain_ticks > 0,
                "degradation sustain_ticks must be positive"
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn model_spec_builds_deterministically() {
        let spec = ModelSpec {
            vocab: 16,
            max_len: 16,
            d_model: 32,
            heads: 2,
            d_ff: 64,
            layers: 1,
            psum_mode: PsumMode::Exact,
            seed: 3,
        };
        let a = spec.build();
        let b = spec.build();
        let eng = apsq_tensor::ExecEngine::serial();
        let ids = [1usize, 2, 3];
        assert_eq!(
            a.forward_inference_with(&ids, &eng),
            b.forward_inference_with(&ids, &eng)
        );
        assert_eq!(a.max_len(), 16);
        assert_eq!(a.vocab(), 16);
    }

    #[test]
    #[should_panic(expected = "at least one worker")]
    fn zero_workers_rejected() {
        let mut c = ServeConfig::smoke();
        c.workers = 0;
        c.validate();
    }

    #[test]
    #[should_panic(expected = "below one session's KV bytes")]
    fn starved_kv_budget_rejected() {
        let mut c = ServeConfig::smoke();
        c.kv_budget_bytes = c.model.kv_bytes_per_session(c.precision) - 1;
        c.validate();
    }

    #[test]
    fn virtual_time_policy_tiers_and_validates() {
        let slo = SloPolicy::virtual_time(4, 1, 16);
        assert_eq!(slo.admit_depth, [16, 12, 8], "descending by priority");
        assert_eq!(slo.degrade.elevate_depth, 8);
        assert_eq!(slo.degrade.severe_depth, 12);
        let cfg = ServeConfig::smoke().with_slo(slo);
        cfg.validate();
        // Wall-clock default leaves every threshold inert.
        let wall = SloPolicy::wall_clock();
        assert!(!wall.virtual_time);
        assert_eq!(wall.admit_depth, [usize::MAX; 3]);
        assert_eq!(wall.degrade, DegradationPolicy::disabled());
    }

    #[test]
    #[should_panic(expected = "decode_units_per_tick")]
    fn virtual_time_without_decode_budget_rejected() {
        let mut slo = SloPolicy::virtual_time(4, 1, 16);
        slo.decode_units_per_tick = 0;
        ServeConfig::smoke().with_slo(slo).validate();
    }

    #[test]
    fn byte_budget_admits_4x_sessions_at_int8() {
        let cfg = ServeConfig::smoke();
        let f32_cap = cfg.session_capacity();
        let int8_cap = cfg
            .clone()
            .with_precision(Precision::Int8Apsq)
            .session_capacity();
        assert_eq!(f32_cap, 64);
        // tiny_llama: 1024 B/token f32 vs 264 B/token int8 ⇒ 3.87×.
        assert!(
            int8_cap >= 3 * f32_cap,
            "int8 capacity {int8_cap} below 3× the f32 capacity {f32_cap}"
        );
    }
}
