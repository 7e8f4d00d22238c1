//! GNN model definitions and the reference (functional) executor for the
//! Dynasparse reproduction.
//!
//! The paper evaluates four representative GNN models — GCN, GraphSAGE, GIN
//! and SGC — each expressed in its IR as a sequence of **Aggregate** and
//! **Update** kernels per layer (Fig. 10).  This crate defines those models
//! from scratch:
//!
//! * [`kernel`] — the kernel-level description of a layer (which matches the
//!   kernel metadata the compiler later lowers into the IR of Table II);
//! * [`models`] — builders for the paper's four models with the paper's
//!   2-layer configuration (hidden dimension 16 for the citation graphs and
//!   128 for Flickr/NELL/Reddit);
//! * [`pruning`] — magnitude pruning of the weight matrices, producing the
//!   weight-sparsity sweep of Figs. 11/12;
//! * [`activation`] — the element-wise activations of the IR (ReLU / PReLU);
//! * [`reference`](mod@reference) — a functional full-graph executor that computes every
//!   intermediate feature matrix.  It is both the correctness oracle for the
//!   accelerator simulator and the source of the *runtime-only-known*
//!   feature-matrix densities (Fig. 2) that drive dynamic kernel-to-primitive
//!   mapping.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod activation;
pub mod arena;
pub mod error;
pub mod kernel;
pub mod models;
pub mod pruning;
pub mod reference;

pub use activation::Activation;
pub use arena::{price_update_widths, KernelArena, KernelDispatcher};
pub use error::{LayerError, ModelError};
pub use kernel::{KernelInput, KernelOp, KernelSpec, LayerSpec};
pub use models::{GnnModel, GnnModelKind};
pub use pruning::{prune_magnitude, prune_model};
pub use reference::{prepare_adjacencies, DensityTrace, ReferenceExecutor, StageDensity, StageOp};
