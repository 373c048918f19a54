//! GEMM/conv workload inventories for the networks evaluated in the APSQ
//! paper: BERT-Base/Large, Segformer-B0, EfficientViT-B1, and LLaMA2-7B.
//!
//! Each builder returns an [`apsq_dataflow::Workload`] — a list of layer
//! geometries with multiplicities — that feeds the analytical energy
//! framework. [`execute_workload`] additionally *runs* an inventory as
//! real INT8 GEMMs/convs through an [`apsq_tensor::ExecEngine`], so the
//! same shapes double as a determinism and throughput harness for the
//! parallel execution stack; a [`PreparedWorkload`] builds those operands
//! once and reruns only the compute, as the serving layer's prefill lane
//! does. Inventories are reconstructed from the architectures'
//! published hyper-parameters; parameter- and MAC-count sanity tests pin
//! them to the published model scales.
//!
//! # Example
//!
//! ```
//! use apsq_models::bert_base_128;
//!
//! let w = bert_base_128();
//! assert!(w.total_macs() > 1e10); // ~11 GMACs at 128 tokens
//! ```

#![deny(unsafe_code)]
#![warn(missing_docs)]

mod bert;
mod efficientvit;
mod exec;
mod llama;
mod segformer;

pub use bert::{bert_base_128, bert_workload, BertConfig};
pub use efficientvit::{efficientvit_b1, efficientvit_b1_512};
pub use exec::{
    execute_layer, execute_workload, LayerRun, Precision, PreparedWorkload, WorkloadRun,
};
pub use llama::{llama2_7b_prefill_decode, llama_decode_step, llama_prefill, LlamaConfig};
pub use segformer::{segformer_b0, segformer_b0_512};
