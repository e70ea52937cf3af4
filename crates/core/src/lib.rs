//! Spade — automatic discovery of the k most interesting aggregates in an
//! RDF graph (the paper's end-to-end system, Figure 2).
//!
//! The pipeline has an **offline** phase — summary construction, offline
//! attribute analysis, derived-property enumeration, pre-aggregation — and
//! an **online** phase with five steps:
//!
//! 1. Candidate Fact Set Selection ([`cfs`]): type-based, property-based,
//!    and summary-based strategies;
//! 2. Online Attribute Analysis ([`analysis`]): per-CFS statistics over
//!    direct and derived attributes, materialized as dimension/measure
//!    columns;
//! 3. Aggregate Enumeration ([`enumeration`] + [`mfs`]): maximal frequent
//!    attribute sets become lattice roots; rule-based pruning removes
//!    meaningless candidates;
//! 4. Aggregate Evaluation ([`evaluate`]): MVDCube with optional early-stop
//!    pruning, results shared across overlapping lattices;
//! 5. Top-k Computation ([`pipeline`]): every evaluated aggregate is scored
//!    by [`spade_cube::arm::score`] in one pass over its groups, all scores
//!    are ranked once, and only the `k` winners get labels and group
//!    samples.
//!
//! [`Spade`] ties everything together; see `examples/quickstart.rs` for the
//! three-line entry point.

pub mod analysis;
pub mod attr;
pub mod cfs;
pub mod config;
pub mod enumeration;
pub mod evaluate;
pub mod json;
pub mod mfs;
pub mod offline;
pub mod pipeline;
pub mod sparql;
pub mod text;
pub mod viz;

pub use analysis::{AnalyzedAttribute, CfsAnalysis};
pub use attr::{AttrKind, AttributeDef};
pub use cfs::{CandidateFactSet, CfsStrategy};
pub use config::{RequestConfig, SpadeConfig};
pub use enumeration::LatticeSpec;
pub use offline::{OfflineStats, PropertyStats};
pub use pipeline::{
    work_counters, DatasetProfile, OfflineState, SnapshotPipelineError, Spade, SpadeReport,
    StepTimings, TopAggregate,
};

/// Request budgets (deadline + cancellation) taken by
/// [`Spade::run_on_traced`], and the per-stage execution context ([`Exec`]:
/// threads, budget, span) every stage entry point takes — re-exported so
/// servers need not depend on `spade-parallel` directly.
pub use spade_parallel::{Budget, CancelReason, Cancelled, Exec};

/// Per-request tracing (span trees recorded by
/// [`Spade::run_on_traced`](pipeline::Spade::run_on_traced)) — re-exported
/// so servers need not depend on `spade-telemetry` directly.
pub use spade_telemetry::{Span, SpanCtx, Trace};

/// The snapshot store serving this pipeline's offline state (re-exported so
/// downstream users need not depend on `spade-store` directly).
pub use spade_store as store;
