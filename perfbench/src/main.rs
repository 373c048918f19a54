//! The repository benchmark: one command, four workloads, end-to-end
//! metrics from an untraced run and per-layer metrics from a traced one.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <chat_int8|shared_prefix_f32|overload_int8|qat_apsq> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`. Lines before it report
//! every workload-specific metric by name and unit with its sample count.
//! The process exits non-zero when an output check or an accounting
//! identity fails. See `perfbench/README.md` for the workloads, the
//! metrics and which layer should move which metric on which workload.

// The repository's clippy.toml bans wall-clock reads on scheduling paths;
// timing with the wall clock is what this program is for.
#![allow(clippy::disallowed_methods)]

// lint: allow-file(float-reduction-outside-kernels) -- benchmark timing and loss sums; reported figures only, on no fingerprint or response path

mod host;
mod layers;
mod metrics;
mod outcome;
mod overload;
mod qat;
mod serving;
mod stats;
mod trace;

use apsq_serve::Precision;
use outcome::{Outcome, Window};
use std::collections::BTreeMap;
use std::time::Instant;
use trace::Tracer;

/// Parsed command line.
#[derive(Debug, PartialEq)]
struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds {s} outside (0, 600]"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace {other}: expected 0 or 1")),
                })
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let workload = workload.ok_or("missing --workload")?;
    if !metrics::WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload}; expected one of {:?}",
            metrics::WORKLOADS
        ));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("missing --seed")?,
        seconds: seconds.ok_or("missing --seconds")?,
        trace: trace.unwrap_or(false),
    })
}

/// The decode precision a workload serves (the QAT workload's models are
/// fake-quant f32).
fn served_precision(workload: &str) -> Precision {
    match workload {
        "chat_int8" | "overload_int8" => Precision::Int8Apsq,
        _ => Precision::F32,
    }
}

fn run_workload(workload: &str, seed: u64, seconds: f64, tracer: &mut Tracer) -> Outcome {
    match workload {
        "chat_int8" | "shared_prefix_f32" => serving::run_wall(
            &serving::WallWorkload {
                precision: served_precision(workload),
                open_loop: workload == "chat_int8",
            },
            seed,
            seconds,
            tracer,
        ),
        "overload_int8" => overload::run(seed, seconds, tracer),
        "qat_apsq" => qat::run(seed, seconds, tracer),
        other => unreachable!("workload {other} validated at parse time"),
    }
}

/// End-to-end metrics of an untraced run.
fn end_to_end(o: &mut Outcome) -> BTreeMap<&'static str, f64> {
    let mut m = BTreeMap::new();
    m.insert("setup_s", stats::median(&o.setup_s));
    m.insert("peak_rss_mb", host::peak_rss_mb());
    m.insert("ok_frac", o.succeeded as f64 / o.attempted.max(1) as f64);
    // Rates and step times come from the run's quiet windows (see
    // `stats::quiet_windows`), and rates count only the time the
    // hypervisor did not steal; the whole-run and wall-clock values are
    // reported beside.
    let keys: Vec<Option<f64>> = o
        .windows
        .iter()
        .map(|w| (w.step_ms.len() >= stats::MIN_WINDOW_STEPS).then(|| w.host.key()))
        .collect();
    let quiet = stats::quiet_windows(&keys);
    let steps: Vec<f64> = quiet
        .iter()
        .flat_map(|&i| o.windows[i].step_ms.clone())
        .collect();
    let units: f64 = quiet.iter().map(|&i| o.windows[i].units).sum();
    let dur: f64 = quiet.iter().map(|&i| o.windows[i].dur_s()).sum();
    let unstolen: f64 = quiet.iter().map(|&i| o.windows[i].unstolen_s()).sum();
    m.insert("throughput_s", units / unstolen);
    m.insert("step_ms_p50", stats::median_or_zero(&steps));
    let q = o.tail_q;
    let tail = |v: &[f64]| {
        stats::Summary::fixed(v, q).map_or("unsupported".to_string(), |t| format!("{t:.4} ms"))
    };
    o.line(format!(
        "setup_s = {:.4} s (median of n={} set-ups)",
        m["setup_s"],
        o.setup_s.len()
    ));
    o.line(format!("peak_rss_mb = {:.1} MB (VmHWM)", m["peak_rss_mb"]));
    let host_medians = |idx: &mut dyn Iterator<Item = usize>| {
        let (probe, steal): (Vec<f64>, Vec<f64>) = idx
            .map(|i| (o.windows[i].host.probe_ms, o.windows[i].host.steal_share))
            .unzip();
        (stats::median_or_zero(&probe), stats::median_or_zero(&steal))
    };
    let (kept_probe, kept_steal) = host_medians(&mut quiet.iter().copied());
    let (all_probe, all_steal) = host_medians(&mut (0..o.windows.len()));
    o.line(format!(
        "host: probe median {kept_probe:.4} ms, steal share median {kept_steal:.4} over the quiet windows; {all_probe:.4} ms, {all_steal:.4} over all (n={})",
        o.windows.len()
    ));
    o.line(format!(
        "quiet windows: {} of {} repetitions, {dur:.2} s ({unstolen:.2} s unstolen): throughput {:.2} 1/s ({:.2} 1/s by wall clock), step p50 {:.4} ms, p{} {} (n={})",
        quiet.len(),
        o.windows.len(),
        m["throughput_s"],
        units / dur,
        m["step_ms_p50"],
        q,
        tail(&steps),
        steps.len()
    ));
    let all = o.all_steps();
    o.line(format!(
        "whole run: throughput {:.2} 1/s ({:.2} 1/s by wall clock), step p50 {:.4} ms, p{} {} (n={})",
        o.work_units() / o.windows.iter().map(Window::unstolen_s).sum::<f64>(),
        o.work_units() / o.work_s(),
        stats::median_or_zero(&all),
        q,
        tail(&all),
        all.len()
    ));
    m
}

/// Host counters of a run.
fn host_counters(o: &Outcome) -> [(&'static str, f64); 2] {
    let wall = o.work_s() + o.setup_s.iter().sum::<f64>();
    [
        ("host.cpu_util", o.cpu_s / wall),
        (
            "host.cpu_ms_per_token",
            o.cpu_s * 1e3 / o.work_units().max(1.0),
        ),
    ]
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let started = Instant::now();
    let mut out: BTreeMap<&'static str, f64>;
    let mut o;
    if !args.trace {
        o = run_workload(
            &args.workload,
            args.seed,
            args.seconds,
            &mut Tracer::new(false),
        );
        out = end_to_end(&mut o);
    } else {
        // Half the time untraced, half traced: the difference between the
        // two halves is the tracing overhead. Layer replays follow.
        let half = args.seconds / 2.0;
        let mut plain = run_workload(&args.workload, args.seed, half, &mut Tracer::new(false));
        let mut tracer = Tracer::new(true);
        o = run_workload(&args.workload, args.seed, half, &mut tracer);
        let p50 = |x: &Outcome| stats::median_or_zero(&x.all_steps());
        // Self-time shares of the workload's own span tree, taken before
        // the replays add theirs.
        let workload_spans = tracer.spans().to_vec();
        out = layers::replay(&o, served_precision(&args.workload), &mut tracer);
        out.extend(o.counters.iter().map(|(k, v)| (*k, *v)));
        out.extend(host_counters(&o));
        out.insert("trace.overhead_frac", p50(&o) / p50(&plain) - 1.0);
        out.insert("trace.spans", tracer.spans().len() as f64);
        for (depth, name) in [(0, "trace.run_self_frac"), (1, "trace.unit_self_frac")] {
            out.insert(name, trace::self_share_at_depth(&workload_spans, depth));
        }
        for f in plain.check_failures.drain(..) {
            o.fail(format!("untraced half: {f}"));
        }
        o.attempted += plain.attempted;
        o.failed += plain.failed;
        if let (Some((a, f)), Some((pa, pf))) = (o.ticks, plain.ticks) {
            o.ticks = Some((a + pa, f + pf));
        }
        let dir = std::path::Path::new("perfbench").join("out");
        let path = dir.join(format!("trace-{}-{}.json", args.workload, args.seed));
        let written = std::fs::create_dir_all(&dir).and_then(|()| {
            std::fs::write(
                &path,
                trace::to_json(&args.workload, args.seed, tracer.spans()),
            )
        });
        match written {
            Ok(()) => o.line(format!("spans written to {}", path.display())),
            Err(e) => o.fail(format!("writing {}: {e}", path.display())),
        }
        for t in trace::totals_by_name(tracer.spans()) {
            o.line(format!(
                "span {}: n={} total {:.3} ms self {:.3} ms",
                t.name,
                t.count,
                t.total_ns as f64 / 1e6,
                t.self_ns as f64 / 1e6
            ));
        }
    }
    let registry = if args.trace {
        metrics::PER_LAYER
    } else {
        metrics::END_TO_END
    };
    let mut json_metrics = Vec::new();
    for &(name, unit) in registry {
        let value = match out.get(name) {
            Some(v) if v.is_finite() => *v,
            Some(v) => {
                o.fail(format!("metric {name} is not finite ({v})"));
                0.0
            }
            None => {
                o.fail(format!("metric {name} was not measured"));
                0.0
            }
        };
        json_metrics.push(format!(
            "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        ));
    }
    println!(
        "== perfbench {} seed {} ({} s, trace {}) ==",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    for l in &o.lines {
        println!("{l}");
    }
    for f in &o.check_failures {
        println!("CHECK FAILED: {f}");
    }
    println!("wall = {:.2} s", started.elapsed().as_secs_f64());
    let correct = o.check_failures.is_empty();
    let (attempted, failed) = o.operations();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        attempted.max(1),
        json_metrics.join(", ")
    );
    if !correct {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_the_command_line() {
        let a = parse_args(&argv("--workload qat_apsq --seed 7 --seconds 10 --trace 1")).unwrap();
        assert_eq!(
            a,
            Args {
                workload: "qat_apsq".into(),
                seed: 7,
                seconds: 10.0,
                trace: true
            }
        );
        assert!(parse_args(&argv("--workload nope --seed 1 --seconds 1")).is_err());
        assert!(parse_args(&argv("--workload qat_apsq --seed x --seconds 1")).is_err());
        assert!(parse_args(&argv("--workload qat_apsq --seed 1 --seconds 0")).is_err());
        assert!(parse_args(&argv("--workload qat_apsq --seed 1 --seconds 1 --trace 2")).is_err());
        assert!(parse_args(&argv("--workload qat_apsq --seed 1")).is_err());
    }
}
