//! What one workload run hands back to the reporter: operation counts,
//! failed checks, timing samples, the counters read from the program,
//! and the shapes the layer replays should use.

use crate::host::HostLoad;
use std::collections::BTreeMap;
use std::time::Instant;

/// Shapes and populations observed in a run, replayed per layer.
#[derive(Clone, Debug, Default)]
pub struct Shapes {
    /// Served decode batch sizes, one entry per decode response.
    pub batch_sizes: Vec<usize>,
    /// Context positions of the served decode steps.
    pub positions: Vec<usize>,
    /// Per decode response: server-measured latency (µs) and batch size.
    pub step_latency: Vec<(f64, usize)>,
    /// Prefill MAC budget per layer, when the workload runs prefill.
    pub prefill_budget: u64,
    /// Tokens per KV block of the served pool, when the workload serves
    /// decode steps.
    pub kv_block_tokens: usize,
}

/// One repetition of a run's seeded input: a server lifetime, an
/// episode, or a training run. Every repetition of a run does the same
/// work.
#[derive(Clone, Debug)]
pub struct Window {
    /// Units of work completed.
    pub units: f64,
    /// When the measured work started.
    pub start: Instant,
    /// When it ended.
    pub end: Instant,
    /// Per-unit step times, milliseconds.
    pub step_ms: Vec<f64>,
    /// How disturbed the host was from just before to just after the
    /// repetition.
    pub host: HostLoad,
}

impl Window {
    /// Wall seconds the window spans.
    pub fn dur_s(&self) -> f64 {
        (self.end - self.start).as_secs_f64()
    }

    /// Wall seconds the window spans in which no virtual CPU was stolen
    /// by the hypervisor, at the rates measured around the repetition
    /// ([`HostLoad::unstolen_share`]).
    pub fn unstolen_s(&self) -> f64 {
        self.dur_s() * self.host.unstolen_share
    }
}

/// Result of running one workload.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted (requests submitted, or training samples).
    pub attempted: u64,
    /// Operations that succeeded.
    pub succeeded: u64,
    /// Operations that failed (typed errors plus client-side sheds).
    pub failed: u64,
    /// Ticks driven and ticks that failed, for a workload whose result
    /// line counts ticks instead of requests (see [`Outcome::operations`]).
    pub ticks: Option<(u64, u64)>,
    /// Failed output checks or accounting identities.
    pub check_failures: Vec<String>,
    /// Set-up durations, seconds, one per set-up performed.
    pub setup_s: Vec<f64>,
    /// CPU seconds the whole process used during the work.
    pub cpu_s: f64,
    /// The run's repetitions.
    pub windows: Vec<Window>,
    /// The fixed tail percentile this workload reports for `step_ms`.
    pub tail_q: f64,
    /// Human-readable report lines (workload-specific metrics).
    pub lines: Vec<String>,
    /// Counters read from the program, keyed by per-layer metric name.
    pub counters: BTreeMap<&'static str, f64>,
    /// Shapes for the layer replays.
    pub shapes: Shapes,
}

impl Outcome {
    /// Units of work completed over the whole run (decode tokens or
    /// training samples).
    pub fn work_units(&self) -> f64 {
        self.windows.iter().map(|w| w.units).sum()
    }

    /// Wall seconds the run's work took (excluding set-up and checks).
    pub fn work_s(&self) -> f64 {
        self.windows.iter().map(Window::dur_s).sum()
    }

    /// Every step time of the run, milliseconds.
    pub fn all_steps(&self) -> Vec<f64> {
        self.windows
            .iter()
            .flat_map(|w| w.step_ms.iter().copied())
            .collect()
    }

    /// The operations the result line counts, attempted and failed.
    ///
    /// These are the requests (or training samples), except on a workload
    /// that offers load past capacity on purpose. There a typed shed is
    /// the answer the server is specified to give, and every shed is
    /// checked against the reference driver, so the operations are the
    /// ticks driven, and a tick fails when the server does not complete
    /// it. The request-level shed share is still reported as `ok_frac`.
    pub fn operations(&self) -> (u64, u64) {
        self.ticks.unwrap_or((self.attempted, self.failed))
    }

    /// Records a failed check.
    pub fn fail(&mut self, msg: impl Into<String>) {
        self.check_failures.push(msg.into());
    }

    /// Asserts a check, recording `msg` when it does not hold.
    pub fn check(&mut self, ok: bool, msg: impl FnOnce() -> String) {
        if !ok {
            self.fail(msg());
        }
    }

    /// Adds a human-readable line to the report.
    pub fn line(&mut self, s: impl Into<String>) {
        self.lines.push(s.into());
    }

    /// Sets a per-layer counter.
    pub fn counter(&mut self, name: &'static str, value: f64) {
        self.counters.insert(name, value);
    }
}
