//! The metric registry: every workload prints every end-to-end metric in
//! an untraced run and every per-layer metric in a traced run, by these
//! names and units (the same lists `BENCHMARK.json` registers).

/// Workload names accepted by `--workload`.
pub const WORKLOADS: [&str; 4] = [
    "chat_int8",
    "shared_prefix_f32",
    "overload_int8",
    "qat_apsq",
];

/// End-to-end metrics: `(name, unit)`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("ok_frac", "frac"),
    ("throughput_s", "1/s"),
    ("step_ms_p50", "ms"),
];

/// Per-layer metrics: `(name, unit)`.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("tensor.gemm_i8_decode_us", "us"),
    ("tensor.gemm_i8_decode_gops", "GOP/s"),
    ("tensor.gemm_f32_decode_us", "us"),
    ("tensor.gemm_f32_decode_gflops", "GFLOP/s"),
    ("tensor.gemm_i8_prefill_us", "us"),
    ("tensor.gemm_f32_train_us", "us"),
    ("tensor.decode_ops_per_token", "count"),
    ("tensor.decode_bytes_per_token", "B"),
    ("core.apsq_fold_us", "us"),
    ("core.apsq_calibrate_fold_us", "us"),
    ("core.psum_words_per_token", "count"),
    ("dataflow.psum_bytes_per_token_int32", "B"),
    ("dataflow.psum_bytes_per_token_apsq", "B"),
    ("nn.decode_step_int8_b1_us", "us"),
    ("nn.decode_step_int8_b8_us", "us"),
    ("nn.decode_step_int8_b16_us", "us"),
    ("nn.decode_step_f32_b1_us", "us"),
    ("nn.decode_step_f32_b8_us", "us"),
    ("nn.decode_step_f32_b16_us", "us"),
    ("nn.attn_decode_int8_us", "us"),
    ("nn.linear_int8_us", "us"),
    ("nn.attn_decode_f32_us", "us"),
    ("nn.linear_f32_us", "us"),
    ("nn.pool_gather_int8_us", "us"),
    ("nn.pool_gather_f32_us", "us"),
    ("nn.gathered_bytes_per_token", "B"),
    ("nn.pool_append_us", "us"),
    ("nn.pool_lock_acquisitions", "count"),
    ("nn.pool_lock_wait_us", "us"),
    ("nn.pool_lock_hold_max_us", "us"),
    ("nn.blocks_peak", "count"),
    ("nn.block_util_mean", "frac"),
    ("nn.prefix_hits", "count"),
    ("nn.sessions_resident_ratio", "ratio"),
    ("nn.evictions", "count"),
    ("nn.qat_forward_us", "us"),
    ("nn.qat_backward_us", "us"),
    ("nn.qat_optimizer_us", "us"),
    ("models.prefill_bert_int8_us", "us"),
    ("models.prefill_macs", "count"),
    ("serve.submit_us_p50", "us"),
    ("serve.overhead_ms_p50", "ms"),
    ("serve.batch_occupancy_mean", "count"),
    ("serve.batches", "count"),
    ("serve.queue_depth_mean", "count"),
    ("serve.shed_queue", "count"),
    ("serve.shed_deadline", "count"),
    ("serve.shed_degraded", "count"),
    ("serve.shed_capacity", "count"),
    ("serve.degrade_escalations", "count"),
    ("serve.ticks_at_level2", "count"),
    ("serve.gen_lag_ms_p99", "ms"),
    ("host.cpu_util", "frac"),
    ("host.cpu_ms_per_token", "ms"),
    ("trace.overhead_frac", "frac"),
    ("trace.spans", "count"),
    ("trace.run_self_frac", "frac"),
    ("trace.unit_self_frac", "frac"),
];

#[cfg(test)]
mod tests {
    use super::*;

    /// The workloads `BENCHMARK.json` registers. `chat_int8` and
    /// `qat_apsq` run by hand only: their step times follow the shared
    /// host's speed, which moved by up to 2x for minutes at a time while
    /// this was tuned (see README.md).
    const REGISTERED: [&str; 2] = ["shared_prefix_f32", "overload_int8"];

    /// The quoted `"name": "..."` values of one top-level array of
    /// `BENCHMARK.json`, in order.
    fn names_in(json: &str, key: &str) -> Vec<String> {
        let start = json.find(&format!("\"{key}\"")).expect("key present");
        let open = start + json[start..].find('[').expect("array");
        let close = open + json[open..].find(']').expect("array end");
        json[open..close]
            .split("\"name\"")
            .skip(1)
            .map(|s| {
                let s = &s[s.find('"').expect("value") + 1..];
                s[..s.find('"').expect("value end")].to_string()
            })
            .collect()
    }

    #[test]
    fn registry_matches_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json beside perfbench/");
        let e2e: Vec<&str> = END_TO_END.iter().map(|m| m.0).collect();
        let layer: Vec<&str> = PER_LAYER.iter().map(|m| m.0).collect();
        assert_eq!(names_in(&json, "end_to_end"), e2e);
        assert_eq!(names_in(&json, "per_layer"), layer);
        assert_eq!(names_in(&json, "workloads"), REGISTERED);
        assert!(REGISTERED.iter().all(|w| WORKLOADS.contains(w)));
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            assert!(
                json.contains(&format!("\"name\": \"{name}\", \"unit\": \"{unit}\"")),
                "{name} registered with unit {unit}"
            );
        }
    }
}
