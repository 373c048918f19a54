//! KV-cache incremental decoding — the autoregressive regime (one token
//! at a time against a growing key/value cache) that motivates the paper's
//! `Po = 1` LLM accelerator configuration.

use apsq_tensor::Tensor;

/// Quantizes one `d`-length KV row per head at the tightest covering
/// power-of-two scale ([`apsq_quant::covering_pow2_exponent`]), writing i8
/// codes into `codes` (`d` long) and one exponent per head into `exps`
/// (`heads` long).
///
/// This is the **single** KV quantization recipe in the crate: the
/// contiguous [`Int8AttentionKvCache`] and the paged
/// [`crate::BlockAllocator`] both call it, so block-granular storage is
/// byte-identical to the flat cache by construction — the root of the
/// paged ⇔ contiguous bit-identity guarantee.
///
/// # Panics
///
/// Panics if a value is not finite.
pub(crate) fn quantize_int8_kv_row(row: &[f32], heads: usize, codes: &mut [i8], exps: &mut [i8]) {
    debug_assert_eq!(codes.len(), row.len());
    debug_assert_eq!(exps.len(), heads);
    let dh = row.len() / heads;
    for h in 0..heads {
        let slice = &row[h * dh..(h + 1) * dh];
        let max_abs = slice.iter().fold(0.0f32, |m, &x| {
            assert!(x.is_finite(), "non-finite KV value {x}");
            m.max(x.abs())
        });
        let e = apsq_quant::covering_pow2_exponent(max_abs, 127.0);
        let scale = apsq_quant::pow2_f32(e);
        exps[h] = e as i8;
        for (c, &x) in codes[h * dh..(h + 1) * dh].iter_mut().zip(slice) {
            *c = apsq_tensor::Int8Tensor::quantize_one(x, scale);
        }
    }
}

/// Growing key/value cache for one attention layer.
///
/// Rows are time steps; columns are the model width (heads are sliced at
/// attention time, exactly as in the full forward pass). Both K and V live
/// in single flat buffers that grow by capacity doubling, so a decode of
/// `T` tokens costs `O(T·d)` appended floats total — not the `O(T²·d)` a
/// per-step re-concatenation would. The hot read path is the zero-copy
/// [`Self::keys_data`]/[`Self::values_data`] slices; [`Self::keys`] and
/// [`Self::values`] still materialize owned tensors for callers that want
/// them.
#[derive(Clone, Debug, Default)]
pub struct AttentionKvCache {
    k_rows: Vec<f32>,
    v_rows: Vec<f32>,
    width: usize,
    len: usize,
}

impl AttentionKvCache {
    /// An empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty cache with room for `rows` time steps of width `width`
    /// preallocated — no growth reallocations up to that sequence length.
    pub fn with_capacity(width: usize, rows: usize) -> Self {
        AttentionKvCache {
            k_rows: Vec::with_capacity(width * rows),
            v_rows: Vec::with_capacity(width * rows),
            width,
            len: 0,
        }
    }

    /// Number of cached time steps.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Model width `d` of the cached rows (0 before the first append of an
    /// unsized cache).
    pub fn width(&self) -> usize {
        self.width
    }

    /// Time steps the buffers can hold before the next reallocation.
    pub fn capacity_rows(&self) -> usize {
        self.k_rows.capacity().checked_div(self.width).unwrap_or(0)
    }

    /// Appends one `[1, d]` key row and value row.
    ///
    /// # Panics
    ///
    /// Panics if widths are inconsistent with earlier appends.
    pub fn append(&mut self, k: &Tensor, v: &Tensor) {
        assert_eq!(k.dims(), v.dims(), "k/v row shape mismatch");
        assert_eq!(k.dims()[0], 1, "append exactly one time step");
        self.append_row(k.data(), v.data());
    }

    /// Appends one key row and value row given as raw `d`-length slices —
    /// the allocation-free twin of [`Self::append`] used by the decode hot
    /// path.
    ///
    /// # Panics
    ///
    /// Panics if slice lengths are inconsistent with earlier appends.
    pub fn append_row(&mut self, k: &[f32], v: &[f32]) {
        assert_eq!(k.len(), v.len(), "k/v row length mismatch");
        let d = k.len();
        if self.len == 0 && self.width == 0 {
            self.width = d;
        }
        assert_eq!(self.width, d, "cache width changed");
        // Grow by doubling so T appends reallocate O(log T) times.
        if self.k_rows.len() + d > self.k_rows.capacity() {
            let grow = (self.k_rows.capacity().max(d)).max(1);
            self.k_rows.reserve(grow);
            self.v_rows.reserve(grow);
        }
        self.k_rows.extend_from_slice(k);
        self.v_rows.extend_from_slice(v);
        self.len += 1;
    }

    /// All cached keys as one `[len · d]` row-major slice — zero-copy.
    pub fn keys_data(&self) -> &[f32] {
        &self.k_rows
    }

    /// All cached values as one `[len · d]` row-major slice — zero-copy.
    pub fn values_data(&self) -> &[f32] {
        &self.v_rows
    }

    /// All cached keys as `[len, d]`.
    ///
    /// # Panics
    ///
    /// Panics if the cache is empty.
    pub fn keys(&self) -> Tensor {
        assert!(self.len > 0, "empty cache");
        Tensor::from_vec(self.k_rows.clone(), [self.len, self.width])
    }

    /// All cached values as `[len, d]`.
    ///
    /// # Panics
    ///
    /// Panics if the cache is empty.
    pub fn values(&self) -> Tensor {
        assert!(self.len > 0, "empty cache");
        Tensor::from_vec(self.v_rows.clone(), [self.len, self.width])
    }
}

/// Growing **int8** key/value cache for one attention layer: i8 K/V codes
/// in the same capacity-doubling `[t, d]` flat-buffer layout as
/// [`AttentionKvCache`], plus one power-of-two scale exponent per (token,
/// head) for each of K and V.
///
/// Appending a row quantizes each head's `dh`-wide slice at the tightest
/// covering power of two ([`apsq_quant::covering_pow2_exponent`]), so a
/// cached token costs `2·d + 2·heads` bytes instead of the f32 cache's
/// `8·d` — the ~4× per-session memory reduction the serve layer's KV byte
/// budget converts into resident sessions. Quantization is deterministic
/// (pure f32 arithmetic per row), so cached codes never depend on batch
/// shape or engine threads.
#[derive(Clone, Debug, Default)]
pub struct Int8AttentionKvCache {
    k_codes: Vec<i8>,
    v_codes: Vec<i8>,
    /// Per (token, head) scale exponents, `[t, heads]` row-major: the K
    /// row's head-`h` slice dequantizes as `code · 2^{k_exps[t·H + h]}`.
    k_exps: Vec<i8>,
    v_exps: Vec<i8>,
    width: usize,
    heads: usize,
    len: usize,
}

impl Int8AttentionKvCache {
    /// An empty cache for `heads` heads over rows of width `width`.
    ///
    /// # Panics
    ///
    /// Panics if `width` is not divisible by `heads`.
    pub fn new(width: usize, heads: usize) -> Self {
        Self::with_capacity(width, heads, 0)
    }

    /// An empty cache with room for `rows` time steps preallocated.
    ///
    /// # Panics
    ///
    /// Panics if `width` is not divisible by `heads`.
    pub fn with_capacity(width: usize, heads: usize, rows: usize) -> Self {
        assert!(heads > 0, "need at least one head");
        assert!(
            width.is_multiple_of(heads),
            "width {width} not divisible by heads {heads}"
        );
        Int8AttentionKvCache {
            k_codes: Vec::with_capacity(width * rows),
            v_codes: Vec::with_capacity(width * rows),
            k_exps: Vec::with_capacity(heads * rows),
            v_exps: Vec::with_capacity(heads * rows),
            width,
            heads,
            len: 0,
        }
    }

    /// Number of cached time steps.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Model width `d` of the cached rows.
    pub fn width(&self) -> usize {
        self.width
    }

    /// Attention heads the per-row scales are resolved at.
    pub fn heads(&self) -> usize {
        self.heads
    }

    /// Time steps the code buffers can hold before the next reallocation.
    pub fn capacity_rows(&self) -> usize {
        self.k_codes.capacity().checked_div(self.width).unwrap_or(0)
    }

    /// Bytes a cached token occupies across codes and scale exponents.
    pub fn bytes_per_token(width: usize, heads: usize) -> usize {
        2 * (width + heads)
    }

    /// Bytes currently held (len-proportional, excluding growth slack).
    pub fn bytes(&self) -> usize {
        self.k_codes.len() + self.v_codes.len() + self.k_exps.len() + self.v_exps.len()
    }

    /// Quantizes and appends one key row and value row given as raw
    /// `d`-length f32 slices: each head's slice gets the tightest covering
    /// power-of-two scale and i8 codes.
    ///
    /// # Panics
    ///
    /// Panics if slice lengths differ from the cache width, or a value is
    /// not finite.
    pub fn append_row(&mut self, k: &[f32], v: &[f32]) {
        assert_eq!(k.len(), v.len(), "k/v row length mismatch");
        assert_eq!(self.width, k.len(), "cache width changed");
        // Grow by doubling so T appends reallocate O(log T) times.
        if self.k_codes.len() + self.width > self.k_codes.capacity() {
            let grow = self.k_codes.capacity().max(self.width).max(1);
            self.k_codes.reserve(grow);
            self.v_codes.reserve(grow);
            let rows = grow / self.width;
            self.k_exps.reserve(rows * self.heads);
            self.v_exps.reserve(rows * self.heads);
        }
        for (codes, exps, row) in [
            (&mut self.k_codes, &mut self.k_exps, k),
            (&mut self.v_codes, &mut self.v_exps, v),
        ] {
            let cs = codes.len();
            let es = exps.len();
            codes.resize(cs + self.width, 0);
            exps.resize(es + self.heads, 0);
            quantize_int8_kv_row(row, self.heads, &mut codes[cs..], &mut exps[es..]);
        }
        self.len += 1;
    }

    /// All cached key codes as one `[len · d]` row-major slice — zero-copy.
    pub fn keys_codes(&self) -> &[i8] {
        &self.k_codes
    }

    /// All cached value codes as one `[len · d]` row-major slice.
    pub fn values_codes(&self) -> &[i8] {
        &self.v_codes
    }

    /// Per (token, head) key-scale exponents, `[len · heads]` row-major.
    pub fn keys_exponents(&self) -> &[i8] {
        &self.k_exps
    }

    /// Per (token, head) value-scale exponents, `[len · heads]` row-major.
    pub fn values_exponents(&self) -> &[i8] {
        &self.v_exps
    }

    /// Dequantizes all cached keys to `[len, d]` — the f32 view tests
    /// compare against [`AttentionKvCache::keys_data`].
    ///
    /// # Panics
    ///
    /// Panics if the cache is empty.
    pub fn dequant_keys(&self) -> Tensor {
        self.dequant(&self.k_codes, &self.k_exps)
    }

    /// Dequantizes all cached values to `[len, d]`.
    ///
    /// # Panics
    ///
    /// Panics if the cache is empty.
    pub fn dequant_values(&self) -> Tensor {
        self.dequant(&self.v_codes, &self.v_exps)
    }

    fn dequant(&self, codes: &[i8], exps: &[i8]) -> Tensor {
        assert!(self.len > 0, "empty cache");
        let dh = self.width / self.heads;
        let mut out = vec![0.0f32; self.len * self.width];
        for t in 0..self.len {
            for h in 0..self.heads {
                let scale = apsq_quant::pow2_f32(exps[t * self.heads + h] as i32);
                for j in 0..dh {
                    let idx = t * self.width + h * dh + j;
                    out[idx] = codes[idx] as f32 * scale;
                }
            }
        }
        Tensor::from_vec(out, [self.len, self.width])
    }
}

/// Per-layer cache bundle for a whole decoder stack.
#[derive(Clone, Debug, Default)]
pub struct DecoderKvState {
    /// One cache per transformer block, in layer order.
    pub layers: Vec<AttentionKvCache>,
    /// Next position index (= tokens consumed so far).
    pub position: usize,
}

impl DecoderKvState {
    /// Creates state for a stack of `layers` blocks.
    pub fn for_layers(layers: usize) -> Self {
        DecoderKvState {
            layers: (0..layers).map(|_| AttentionKvCache::new()).collect(),
            position: 0,
        }
    }

    /// Creates state with every layer cache preallocated for `rows` steps
    /// of width `width` (no growth reallocations during decode).
    pub fn for_layers_with_capacity(layers: usize, width: usize, rows: usize) -> Self {
        DecoderKvState {
            layers: (0..layers)
                .map(|_| AttentionKvCache::with_capacity(width, rows))
                .collect(),
            position: 0,
        }
    }

    /// Total floats held across all layer K and V buffers.
    pub fn kv_floats(&self) -> usize {
        self.layers
            .iter()
            .map(|c| c.keys_data().len() + c.values_data().len())
            .sum()
    }

    /// Total KV bytes held across all layer K and V buffers.
    pub fn kv_bytes(&self) -> usize {
        self.kv_floats() * std::mem::size_of::<f32>()
    }
}

/// Per-layer **int8** cache bundle for a whole decoder stack — the
/// serving-path state of [`crate::Int8DecoderLm`].
#[derive(Clone, Debug, Default)]
pub struct Int8DecoderKvState {
    /// One int8 cache per transformer block, in layer order.
    pub layers: Vec<Int8AttentionKvCache>,
    /// Next position index (= tokens consumed so far).
    pub position: usize,
}

impl Int8DecoderKvState {
    /// Creates state with every layer cache preallocated for `rows` steps
    /// of width `width` and `heads` heads.
    ///
    /// # Panics
    ///
    /// Panics if `width` is not divisible by `heads`.
    pub fn for_layers_with_capacity(
        layers: usize,
        width: usize,
        heads: usize,
        rows: usize,
    ) -> Self {
        Int8DecoderKvState {
            layers: (0..layers)
                .map(|_| Int8AttentionKvCache::with_capacity(width, heads, rows))
                .collect(),
            position: 0,
        }
    }

    /// Total KV bytes held across all layer code and exponent buffers.
    pub fn kv_bytes(&self) -> usize {
        self.layers.iter().map(|c| c.bytes()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn append_and_read_back() {
        let mut c = AttentionKvCache::new();
        assert!(c.is_empty());
        c.append(
            &Tensor::from_vec(vec![1.0, 2.0], [1, 2]),
            &Tensor::from_vec(vec![3.0, 4.0], [1, 2]),
        );
        c.append(
            &Tensor::from_vec(vec![5.0, 6.0], [1, 2]),
            &Tensor::from_vec(vec![7.0, 8.0], [1, 2]),
        );
        assert_eq!(c.len(), 2);
        assert_eq!(c.keys().dims(), &[2, 2]);
        assert_eq!(c.values().data(), &[3.0, 4.0, 7.0, 8.0]);
        assert_eq!(c.keys_data(), c.keys().data());
        assert_eq!(c.width(), 2);
    }

    #[test]
    #[should_panic(expected = "one time step")]
    fn multi_row_append_rejected() {
        let mut c = AttentionKvCache::new();
        c.append(&Tensor::zeros([2, 4]), &Tensor::zeros([2, 4]));
    }

    #[test]
    #[should_panic(expected = "cache width changed")]
    fn width_change_rejected() {
        let mut c = AttentionKvCache::with_capacity(4, 8);
        c.append_row(&[0.0; 3], &[0.0; 3]);
    }

    #[test]
    fn with_capacity_never_reallocates_within_bound() {
        let mut c = AttentionKvCache::with_capacity(8, 16);
        let base = c.capacity_rows();
        assert!(base >= 16);
        for i in 0..16 {
            let row = [i as f32; 8];
            c.append_row(&row, &row);
        }
        assert_eq!(c.capacity_rows(), base, "preallocated cache reallocated");
        assert_eq!(c.len(), 16);
    }

    #[test]
    fn growth_is_amortized_doubling() {
        let mut c = AttentionKvCache::new();
        let mut reallocs = 0;
        let mut last_cap = 0;
        for i in 0..1024 {
            let row = [i as f32; 4];
            c.append_row(&row, &row);
            if c.k_rows.capacity() != last_cap {
                reallocs += 1;
                last_cap = c.k_rows.capacity();
            }
        }
        assert!(reallocs <= 16, "{reallocs} reallocations for 1024 appends");
    }

    #[test]
    fn int8_cache_quantizes_per_row_per_head() {
        let mut c = Int8AttentionKvCache::new(4, 2);
        // Head 0 small magnitudes, head 1 large: distinct per-head scales.
        c.append_row(&[0.5, -1.0, 100.0, -200.0], &[0.25, 0.0, 8.0, -16.0]);
        assert_eq!(c.len(), 1);
        assert_eq!(c.width(), 4);
        assert_eq!(c.heads(), 2);
        let ke = c.keys_exponents();
        assert!(ke[0] < ke[1], "head scales should differ: {ke:?}");
        // Dequantized keys are within half a step of the source per head.
        let back = c.dequant_keys();
        for (got, want) in back.data().iter().zip([0.5f32, -1.0, 100.0, -200.0]) {
            let scale = (want.abs() / 127.0).max(f32::MIN_POSITIVE);
            assert!((got - want).abs() <= scale * 2.0, "dequant {got} vs {want}");
        }
        // Covering scales never clip: max-magnitude codes stay in range.
        assert!(c
            .keys_codes()
            .iter()
            .all(|&q| (-128..=127).contains(&(q as i32))));
    }

    #[test]
    fn int8_cache_bytes_accounting() {
        let (width, heads) = (8, 2);
        let mut c = Int8AttentionKvCache::new(width, heads);
        assert_eq!(c.bytes(), 0);
        c.append_row(&[1.0; 8], &[2.0; 8]);
        c.append_row(&[3.0; 8], &[4.0; 8]);
        assert_eq!(
            c.bytes(),
            2 * Int8AttentionKvCache::bytes_per_token(width, heads)
        );
        // The serving-scale shape (head_dim 64) compresses ≥ 3.9× vs f32.
        let f32_bytes = 2 * 256 * 4;
        let int8_bytes = Int8AttentionKvCache::bytes_per_token(256, 4);
        assert!(f32_bytes as f64 / int8_bytes as f64 >= 3.9);
    }

    #[test]
    #[should_panic(expected = "cache width changed")]
    fn int8_cache_width_change_rejected() {
        let mut c = Int8AttentionKvCache::with_capacity(4, 2, 8);
        c.append_row(&[0.0; 3], &[0.0; 3]);
    }

    #[test]
    fn int8_cache_growth_is_amortized_doubling() {
        let mut c = Int8AttentionKvCache::new(4, 2);
        let mut reallocs = 0;
        let mut last_cap = 0;
        for i in 0..1024 {
            let row = [i as f32; 4];
            c.append_row(&row, &row);
            if c.k_codes.capacity() != last_cap {
                reallocs += 1;
                last_cap = c.k_codes.capacity();
            }
        }
        assert!(reallocs <= 16, "{reallocs} reallocations for 1024 appends");
        assert_eq!(c.len(), 1024);
        assert_eq!(c.keys_exponents().len(), 1024 * 2);
    }

    #[test]
    fn int8_state_bundle() {
        let s = Int8DecoderKvState::for_layers_with_capacity(3, 8, 2, 16);
        assert_eq!(s.layers.len(), 3);
        assert_eq!(s.position, 0);
        assert_eq!(s.kv_bytes(), 0);
        assert!(s.layers.iter().all(|c| c.capacity_rows() >= 16));
    }

    #[test]
    fn state_bundle() {
        let s = DecoderKvState::for_layers(3);
        assert_eq!(s.layers.len(), 3);
        assert_eq!(s.position, 0);
        let s = DecoderKvState::for_layers_with_capacity(2, 8, 32);
        assert!(s.layers.iter().all(|c| c.capacity_rows() >= 32));
        assert_eq!(s.kv_floats(), 0);
    }
}
