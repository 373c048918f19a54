//! Pinned prefill checksums: the exact output of [`execute_workload`]
//! for the three inventories the serving layer prefills, at the MAC
//! budgets the tests, examples and benchmarks use, at both precisions.
//! Any change to the synthetic operands, the budget scaling, the packed
//! PSUM sweep, the APSQ fold or the checksum fold moves one of these.

use apsq_models::{
    bert_base_128, execute_workload, llama_prefill, segformer_b0_512, LlamaConfig, Precision,
};
use apsq_tensor::ExecEngine;

/// `(inventory, budget, precision, checksum, executed MACs)`.
#[rustfmt::skip]
const PINNED: &[(&str, u64, Precision, i64, u64)] = &[
    ("bert", 5_000, Precision::F32, 374895105142401056, 25088),
    ("bert", 5_000, Precision::Int8Apsq, 4936173595648, 25088),
    ("bert", 30_000, Precision::F32, 2291139741044182176, 106496),
    ("bert", 30_000, Precision::Int8Apsq, -25958496438272, 106496),
    ("bert", 200_000, Precision::F32, -2073010526135392768, 851968),
    ("bert", 200_000, Precision::Int8Apsq, -28319708604416, 851968),
    ("segformer", 5_000, Precision::F32, -7829371409570484352, 175584),
    ("segformer", 5_000, Precision::Int8Apsq, -1063701385422276726, 175584),
    ("segformer", 30_000, Precision::F32, 6263388522480195008, 784064),
    ("segformer", 30_000, Precision::Int8Apsq, -480660211522563525, 784064),
    ("segformer", 200_000, Precision::F32, -925921862476172544, 5621248),
    ("segformer", 200_000, Precision::Int8Apsq, -5244934495475863098, 5621248),
    ("llama", 5_000, Precision::F32, 96176119042273856, 31488),
    ("llama", 5_000, Precision::Int8Apsq, 15389178220544, 31488),
    ("llama", 30_000, Precision::F32, 592462620415201504, 112128),
    ("llama", 30_000, Precision::Int8Apsq, -8525140312064, 112128),
    ("llama", 200_000, Precision::F32, 4263961815960343896, 847872),
    ("llama", 200_000, Precision::Int8Apsq, 19612543508480, 847872),
];

#[test]
fn prefill_checksums_are_pinned() {
    // Two engine threads with no spawn threshold: the pinned values
    // also hold across the engine's parallel split.
    let eng = ExecEngine::with_threads(2).with_spawn_threshold(0);
    let inventories = [
        ("bert", bert_base_128()),
        ("segformer", segformer_b0_512()),
        ("llama", llama_prefill(&LlamaConfig::llama2_7b(), 128)),
    ];
    let mut actual = Vec::new();
    for (name, w) in &inventories {
        for budget in [5_000, 30_000, 200_000] {
            for precision in [Precision::F32, Precision::Int8Apsq] {
                let run = execute_workload(&eng, w, budget, precision);
                actual.push((
                    *name,
                    budget,
                    precision,
                    run.checksum(),
                    run.total_macs_executed(),
                ));
            }
        }
    }
    assert_eq!(actual, PINNED);
}
