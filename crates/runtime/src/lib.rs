//! The Dynasparse runtime system (Section VI of the paper).
//!
//! The runtime system runs on the soft processor, tightly coupled with the
//! accelerator.  It consists of
//!
//! * the **Analyzer** ([`analyzer`]) — for every block product of every task
//!   it fetches the densities of the two operand partitions and selects the
//!   optimal computation primitive with the analytical performance model
//!   (dynamic kernel-to-primitive mapping, Algorithm 7);
//! * the **Scheduler** ([`scheduler`]) — it dispatches the independent tasks
//!   of each kernel onto idle Computation Cores (dynamic task scheduling,
//!   Algorithm 8);
//! * the **static baseline strategies** ([`strategy`]) — Static-1 (HyGCN /
//!   BoostGCN style: Aggregate→SpDMM, Update→GEMM) and Static-2 (AWB-GCN
//!   style: everything→SpDMM), which the paper compares against in
//!   Section VIII-B;
//! * the **overhead accounting** ([`overhead`]) — the soft-processor time
//!   spent on mapping and scheduling decisions (Fig. 13).

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod analyzer;
pub mod overhead;
pub mod pricing;
pub mod scheduler;
pub mod strategy;

pub use analyzer::{Analyzer, KernelAnalysis, OperandProfiles, PrimitiveMix};
pub use overhead::RuntimeOverhead;
pub use pricing::{PricingCache, PricingCacheMode, PricingCounters, PricingKey, PricingStage};
pub use scheduler::{KernelSchedule, Scheduler};
pub use strategy::{MappingStrategy, PairDecision};
