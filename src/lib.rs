//! # Heron
//!
//! A from-scratch Rust reproduction of **"Heron: Automatically Constrained
//! High-Performance Library Generation for Deep Learning Accelerators"**
//! (Bi et al., ASPLOS 2023).
//!
//! Heron generates high-performance tensor programs for deep learning
//! accelerators by (1) *automatically* deriving hundreds of accurate
//! architectural constraints from static analysis of the tensor compute —
//! yielding a constrained search space formulated as a constraint
//! satisfaction problem — and (2) exploring that space with a
//! **constraint-based genetic algorithm** whose crossover and mutation act
//! on CSPs rather than concrete chromosomes, so every candidate is valid by
//! construction.
//!
//! This facade crate re-exports the whole workspace:
//!
//! | module | crate | contents |
//! |---|---|---|
//! | [`tensor`] | `heron-tensor` | tensor expressions, operators, stage DAG |
//! | [`sched`] | `heron-sched` | schedule primitives, templates, lowering |
//! | [`csp`] | `heron-csp` | finite-domain CSP + RandSAT solver |
//! | [`dla`] | `heron-dla` | DLA specs + analytic measurer (simulator) |
//! | [`cost`] | `heron-cost` | gradient-boosted-trees cost model |
//! | [`core`] | `heron-core` | space generator (Rules S1–S3, C1–C6), CGA, tuner |
//! | [`baselines`] | `heron-baselines` | AutoTVM/Ansor/AMOS-like tuners, vendor models |
//! | [`graph`] | `heron-graph` | network IR, operator fusion, compile/tuning cache |
//! | [`workloads`] | `heron-workloads` | paper benchmark suites and networks |
//! | [`trace`] | `heron-trace` | span tracing, metrics registry, profile reports |
//! | [`insight`] | `heron-insight` | search-health analytics and regression gates |
//! | [`serve`] | `heron-serve` | supervised, crash-recoverable tuning service |
//! | [`pulse`] | `heron-pulse` | service schedule, SLIs/SLOs, dashboard and timeline |
//! | [`audit`] | `heron-audit` | differential constraint-space auditor + mutation gate |
//!
//! # Quickstart
//!
//! ```
//! use heron::prelude::*;
//!
//! // 1. Describe the computation (a small GEMM).
//! let dag = heron::tensor::ops::gemm(256, 256, 256);
//!
//! // 2. Generate the constrained space for a TensorCore GPU.
//! let space = SpaceGenerator::new(heron::dla::v100())
//!     .generate(&dag, &SpaceOptions::heron())
//!     .expect("gemm is tensorizable");
//!
//! // 3. Explore it with CGA (tiny budget for the doctest).
//! let mut tuner = Tuner::new(
//!     space,
//!     Measurer::new(heron::dla::v100()),
//!     TuneConfig::quick(16),
//!     42,
//! );
//! let result = tuner.run();
//! assert!(result.best_gflops > 0.0);
//! ```

pub mod paper_map;

pub use heron_audit as audit;
pub use heron_baselines as baselines;
pub use heron_core as core;
pub use heron_cost as cost;
pub use heron_csp as csp;
pub use heron_dla as dla;
pub use heron_graph as graph;
pub use heron_insight as insight;
pub use heron_pulse as pulse;
pub use heron_sched as sched;
pub use heron_serve as serve;
pub use heron_tensor as tensor;
pub use heron_trace as trace;
pub use heron_workloads as workloads;

/// Convenient single-import surface for the common workflow.
pub mod prelude {
    pub use heron_baselines::{tune, vendor_outcome, Approach};
    pub use heron_core::generate::{GeneratedSpace, SpaceGenerator, SpaceOptions};
    pub use heron_core::tuner::{TuneConfig, TuneResult, Tuner};
    pub use heron_csp::{Csp, Domain, Solution, VarCategory};
    pub use heron_dla::{Measurement, Measurer};
    pub use heron_tensor::{DType, Dag};
    pub use heron_workloads::{operator_suite, Workload};
}
