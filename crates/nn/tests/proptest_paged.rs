//! Property tests for the paged KV datapath: decoding through
//! [`BlockAllocator`] block tables must be **bit-identical** to
//! full-sequence recompute (`forward_inference_with`) — for random
//! shapes, block sizes, engine thread counts, and both precisions — and a
//! copy-on-write fork must be bit-identical to full recompute of the
//! token stream it replays.
//!
//! The invariant: a block-table gather reconstructs byte-for-byte the
//! flat `[t, d]` K/V rows the full forward computes for the same prefix,
//! and the int8 paged store quantizes appends through the same
//! per-(token, head) covering-scale recipe the int8 full forward uses. A
//! gather that reordered tokens, a block boundary that split a reduction,
//! or a CoW copy that dropped filled rows would all break these
//! assertions.

use apsq_nn::{BlockAllocator, BlockPool, DecoderLm, Int8DecoderLm, ModelConfig, PsumMode};
use apsq_quant::Bitwidth;
use apsq_tensor::{ExecEngine, Tensor};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Builds a primed tiny decoder: one training-mode forward initializes the
/// activation quantizers and PSUM observers, after which the model is
/// frozen and every inference path must agree bitwise.
fn primed_model(
    seed: u64,
    heads: usize,
    layers: usize,
    psum: PsumMode,
) -> (DecoderLm, ModelConfig) {
    let cfg = ModelConfig {
        vocab: 16,
        max_len: 24,
        d_model: 8 * heads,
        heads,
        d_ff: 16 * heads,
        layers,
        bits: Bitwidth::INT8,
        psum_mode: psum,
    };
    let mut rng = StdRng::seed_from_u64(seed);
    let mut m = DecoderLm::new(&cfg, &mut rng);
    let prime: Vec<usize> = (0..cfg.max_len).map(|i| i % cfg.vocab).collect();
    let _ = m.forward(&prime);
    (m, cfg)
}

fn random_ids(seed: u64, len: usize, vocab: usize) -> Vec<usize> {
    use rand::Rng;
    let mut rng = StdRng::seed_from_u64(seed ^ 0x9a6ed);
    (0..len).map(|_| rng.gen_range(0..vocab)).collect()
}

fn psum_mode(apsq: bool, gs: usize, k_tile: usize) -> PsumMode {
    if apsq {
        PsumMode::Apsq {
            bits: Bitwidth::INT8,
            gs,
            k_tile,
        }
    } else {
        PsumMode::Exact
    }
}

/// Asserts `step` (`[1, vocab]`) equals row `t` of `full` bit for bit.
fn assert_row_bits(step: &Tensor, full: &Tensor, t: usize) {
    let vocab = full.dims()[1];
    assert_eq!(step.dims(), &[1, vocab]);
    for j in 0..vocab {
        let (f, d) = (full.at(&[t, j]), step.at(&[0, j]));
        assert!(
            f.to_bits() == d.to_bits(),
            "step {t} logit {j}: full {f:?} != paged {d:?}"
        );
    }
}

/// An f32 block pool with room for `sessions` sequences of `len` tokens.
fn f32_pool(m: &DecoderLm, block_tokens: usize, len: usize, sessions: usize) -> BlockPool {
    let blocks = sessions * m.num_layers() * len.div_ceil(block_tokens);
    BlockPool::new(BlockAllocator::f32(
        blocks * BlockAllocator::f32_bytes_per_block(block_tokens, m.width()),
        block_tokens,
        m.width(),
    ))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Decoding through f32 block tables yields, at every step, exactly
    /// the bits full-sequence recompute produces for that position — for
    /// every block size and thread count.
    #[test]
    fn f32_paged_decode_is_bit_identical_to_full_recompute(
        seed in any::<u64>(),
        heads in 1usize..4,
        layers in 1usize..3,
        len in 2usize..10,
        block_tokens in 1usize..9,
        apsq in any::<bool>(),
        gs in 1usize..5,
        threads in 1usize..5,
    ) {
        let (m, cfg) = primed_model(seed, heads, layers, psum_mode(apsq, gs, 8));
        let ids = random_ids(seed, len, cfg.vocab);
        let full = m.forward_inference_with(&ids, &ExecEngine::serial());
        let eng = ExecEngine::with_threads(threads).with_spawn_threshold(0);

        let pool = f32_pool(&m, block_tokens, len, 1);
        let mut paged = m.new_paged_state();
        for (t, &tok) in ids.iter().enumerate() {
            let got = m.decode_batch_paged_with(&[tok], &mut [&mut paged], &pool, &eng);
            assert_row_bits(&got, &full, t);
        }
        prop_assert_eq!(paged.position(), ids.len());
        let mut alloc = pool.lock();
        prop_assert_eq!(alloc.tokens_stored(), m.num_layers() * ids.len());
        paged.release(&mut alloc);
        prop_assert_eq!(alloc.blocks_in_use(), 0);
    }

    /// The int8 paged datapath reproduces the int8 full-sequence forward
    /// bit for bit at every step: block storage quantizes appends through
    /// the full forward's covering-scale recipe, so the gathered codes and
    /// exponents are the ones full recompute attends over.
    #[test]
    fn int8_paged_decode_is_bit_identical_to_full_recompute(
        seed in any::<u64>(),
        heads in 1usize..4,
        len in 2usize..8,
        block_tokens in 1usize..9,
        apsq in any::<bool>(),
        gs in 1usize..5,
        threads in 1usize..5,
    ) {
        let (m, cfg) = primed_model(seed, heads, 2, psum_mode(apsq, gs, 8));
        let ids = random_ids(seed, len, cfg.vocab);
        let eng = ExecEngine::serial();
        let im = Int8DecoderLm::from_decoder(&m, &random_ids(seed, 12, cfg.vocab), &eng);
        let full = im.forward_inference_with(&ids, &eng);
        let eng = ExecEngine::with_threads(threads).with_spawn_threshold(0);

        let blocks = im.num_layers() * len.div_ceil(block_tokens);
        let pool = BlockPool::new(BlockAllocator::int8(
            blocks * BlockAllocator::int8_bytes_per_block(block_tokens, im.width(), im.heads()),
            block_tokens,
            im.width(),
            im.heads(),
        ));
        let mut paged = im.new_paged_state();
        for (t, &tok) in ids.iter().enumerate() {
            let got = im.decode_batch_paged_with(&[tok], &mut [&mut paged], &pool, &eng);
            assert_row_bits(&got, &full, t);
        }
        let mut alloc = pool.lock();
        paged.release(&mut alloc);
        prop_assert_eq!(alloc.blocks_in_use(), 0);
    }

    /// Forking a session after a shared prefix (zero-copy, refcounted
    /// blocks) and decoding divergent suffixes through copy-on-write is
    /// bit-identical to full-sequence recompute of each prefix + suffix
    /// token stream.
    #[test]
    fn cow_fork_is_bit_identical_to_independent_session(
        seed in any::<u64>(),
        heads in 1usize..4,
        prefix_len in 1usize..7,
        suffix_len in 1usize..5,
        block_tokens in 1usize..6,
        threads in 1usize..4,
    ) {
        let (m, cfg) = primed_model(seed, heads, 2, psum_mode(true, 2, 8));
        let prefix = random_ids(seed, prefix_len, cfg.vocab);
        let sfx_a = random_ids(seed ^ 1, suffix_len, cfg.vocab);
        let sfx_b = random_ids(seed ^ 2, suffix_len, cfg.vocab);
        let eng = ExecEngine::with_threads(threads).with_spawn_threshold(0);
        let total = prefix_len + suffix_len;

        // Full recompute of each prefix + suffix stream, last position.
        let mut refs = Vec::new();
        for sfx in [&sfx_a, &sfx_b] {
            let ids: Vec<usize> = prefix.iter().chain(sfx.iter()).copied().collect();
            refs.push(m.forward_inference_with(&ids, &ExecEngine::serial()));
        }

        // Paged: decode the prefix once, fork, decode both suffixes.
        let pool = f32_pool(&m, block_tokens, total, 2);
        let capacity = pool.lock().blocks_capacity();
        let mut sess_a = m.new_paged_state();
        for &tok in &prefix {
            let _ = m.decode_batch_paged_with(&[tok], &mut [&mut sess_a], &pool, &eng);
        }
        let before_fork = pool.lock().blocks_in_use();
        let mut sess_b = sess_a.fork(&mut pool.lock());
        // The fork itself allocates nothing: every block is shared.
        prop_assert_eq!(pool.lock().blocks_in_use(), before_fork);
        let mut last_a = Tensor::zeros([1, 1]);
        let mut last_b = Tensor::zeros([1, 1]);
        for i in 0..suffix_len {
            last_a = m.decode_batch_paged_with(&[sfx_a[i]], &mut [&mut sess_a], &pool, &eng);
            last_b = m.decode_batch_paged_with(&[sfx_b[i]], &mut [&mut sess_b], &pool, &eng);
        }
        assert_row_bits(&last_a, &refs[0], total - 1);
        assert_row_bits(&last_b, &refs[1], total - 1);

        // Two independent sessions would hold 2·⌈total/bt⌉ blocks per
        // layer; the forked pair still shares every full prefix block.
        let per_layer_indep = 2 * total.div_ceil(block_tokens);
        let shared_full = prefix_len / block_tokens;
        let mut alloc = pool.lock();
        prop_assert_eq!(
            alloc.blocks_in_use(),
            m.num_layers() * (per_layer_indep - shared_full),
            "prefix blocks not shared"
        );
        prop_assert!(alloc.blocks_in_use() <= capacity);
        sess_a.release(&mut alloc);
        sess_b.release(&mut alloc);
        prop_assert_eq!(alloc.blocks_in_use(), 0);
    }
}
