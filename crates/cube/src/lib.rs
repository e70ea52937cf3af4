//! Lattice-based multidimensional aggregate (MDA) computation.
//!
//! This crate contains the algorithmic heart of the paper:
//!
//! * [`lattice`] — the `2^N`-node dimension lattice and the Minimum Memory
//!   Spanning Tree (MMST) of ArrayCube \[49\], with the classical memory
//!   formula (Section 4.1);
//! * [`translate`] — Data Translation: laying the CFS out as a partitioned
//!   array of cells, each holding the set of facts (Section 4.3), with the
//!   stratified reservoir sampling of early-stop piggybacked on the same
//!   pass (Section 5.3);
//! * [`mvdcube`] — **MVDCube** (Algorithm 1): the correct one-pass
//!   evaluation in the presence of multi-valued dimensions, propagating
//!   Roaring bitmaps down the MMST and computing measures from per-fact
//!   pre-aggregates at flush time;
//! * [`arraycube`] — the classical ArrayCube baseline, which computes each
//!   lattice node from a parent's *aggregated values* and is therefore
//!   subject to the errors characterized by Lemma 1 / Theorem 1;
//! * [`pgcube`] — a PostgreSQL-12-style one-pass `GROUP BY CUBE`
//!   (grouping-sets via symmetric rollup-chain decomposition over the
//!   flattened join result), in its `count(*)` (PGCube\*) and
//!   `count(distinct)` (PGCube^d) variants (Section 6, baselines);
//! * [`arm`] — the Aggregate Result Manager: scores every MDA of a result
//!   by interestingness in one key-ordered pass over each node's groups
//!   (Section 3, Steps 4–5);
//! * [`earlystop`] — the early-stop pruning loop over the stratified samples
//!   (Section 5), wired into MVDCube;
//! * [`compare`] — error measurement between a correct and a baseline result
//!   (Experiments 2–3: #wrong aggregates, error-ratio distributions).

pub mod arm;
pub mod arraycube;
pub mod compare;
pub mod earlystop;
mod engine;
pub mod engine_baseline;
pub mod lattice;
pub mod mvdcube;
pub mod pgcube;
pub mod result;
pub mod spec;
pub mod translate;

pub use arm::{score, AggregateId, Score};
pub use arraycube::array_cube;
pub use compare::{compare_results, ComparisonReport};
pub use earlystop::{EarlyStopConfig, EarlyStopOutcome};
pub use engine::{CellStorePolicy, DENSE_CAPACITY_LIMIT};
pub use engine_baseline::mvd_cube_baseline;
pub use lattice::{Lattice, Mmst};
pub use mvdcube::{mvd_cube, mvd_cube_with_earlystop, MvdCubeOptions};
pub use pgcube::{pg_cube, PgCubeVariant};
pub use result::{CubeResult, NodeResult, NULL_CODE_SENTINEL};
pub use spade_parallel::{Budget, CancelReason, Cancelled, Exec};
pub use spec::{CubeSpec, Mda, MdaKind, MeasureSpec};
