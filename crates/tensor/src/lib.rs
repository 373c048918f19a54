//! Dense tensor substrate for the APSQ reproduction.
//!
//! This crate provides the numeric foundation used by every other crate in
//! the workspace:
//!
//! - [`Tensor`] — a dense, row-major `f32` tensor with eager elementwise ops,
//!   reductions, and random initialization;
//! - [`matmul`] and friends — matrix multiplication kernels, including
//!   [`matmul_psum_tiles`], which splits the reduction axis into tiles and
//!   exposes the partial-sum (PSUM) stream that the APSQ algorithm quantizes;
//! - [`Int8Tensor`] / [`Int32Tensor`] and [`int8_matmul_psum_tiles`] — the
//!   exact integer path used by the bit-accurate hardware simulators;
//! - [`ExecEngine`] — the parallel tiled execution engine behind every
//!   GEMM/conv entry point: cache-blocked micro-kernels dispatched over a
//!   scoped thread pool, bit-identical results for any thread count, plus
//!   the buffer-reusing `*_into` variants and the `for_each_k_tile`
//!   PSUM-streaming API;
//! - [`KernelBackend`] — the explicit-width SIMD micro-kernel tiers
//!   (scalar reference, SSE2, AVX2) behind the engine, runtime-detected
//!   and bit-identical to each other by construction.
//!
//! # Example
//!
//! ```
//! use apsq_tensor::{matmul, matmul_psum_tiles, Tensor};
//!
//! let a = Tensor::ones([4, 8]);
//! let b = Tensor::ones([8, 3]);
//! let full = matmul(&a, &b);
//!
//! // The PSUM tiles along K sum back to the full product (paper eq. 8).
//! let tiles = matmul_psum_tiles(&a, &b, 2);
//! let mut acc = Tensor::zeros([4, 3]);
//! for t in &tiles {
//!     acc = &acc + t;
//! }
//! assert_eq!(acc, full);
//! ```

#![warn(missing_docs)]

mod activation;
mod conv;
mod exec;
mod init;
mod int_tensor;
mod kernels;
mod matmul;
mod reduce;
mod shape;
mod tensor;

pub use activation::{
    gelu, gelu_grad, gelu_scalar, relu, relu_grad, sigmoid, silu, silu_grad, softmax_rows,
    softmax_rows_grad,
};
pub use conv::{conv2d_i8_gemm, conv2d_i8_reference, im2col, im2col_i8};
pub use exec::ExecEngine;
pub use init::{kaiming_normal, rand_uniform, randn, xavier_uniform};
pub use int_tensor::{int8_matmul, int8_matmul_psum_tiles, Int32Tensor, Int8Tensor};
pub use kernels::{fold_dequantize, fold_max_abs, fold_requantize, KernelBackend, BACKEND_ENV};
pub use matmul::{
    batched_matmul, matmul, matmul_at, matmul_at_into, matmul_bt, matmul_bt_into, matmul_into,
    matmul_psum_tiles, matmul_tiled_fold,
};
pub use reduce::{argmax_axis1, mean_axis1, sum_axis0, sum_axis1, var_axis1};
pub use shape::Shape;
pub use tensor::Tensor;
