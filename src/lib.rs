//! # Spade — Efficient Exploration of Interesting Aggregates in RDF Graphs
//!
//! A Rust implementation of the SIGMOD 2021 paper by Diao, Guzewicz,
//! Manolescu and Mazuran: given an RDF graph `G`, an integer `k`, and an
//! interestingness function `h`, Spade automatically identifies, enumerates,
//! and efficiently evaluates the multidimensional aggregate queries (MDAs)
//! whose results score highest under `h`.
//!
//! ```
//! use spade::prelude::*;
//!
//! // Load a graph (here: the paper's Figure 1 running example).
//! let mut graph = spade::datagen::ceos_figure1();
//!
//! // Ask for the 5 most interesting aggregates by variance.
//! let config = SpadeConfig {
//!     k: 5,
//!     min_cfs_size: 2,          // the example graph has 2 CEOs
//!     max_distinct_ratio: 5.0,  // tiny graph: allow high-cardinality dims
//!     ..SpadeConfig::default()
//! };
//! let report = Spade::new(config).run(&mut graph);
//!
//! assert_eq!(report.top.len(), 5);
//! for aggregate in &report.top {
//!     println!("{:10.2}  {}", aggregate.score, aggregate.description());
//! }
//! ```
//!
//! ## Crate map
//!
//! | module | contents |
//! |---|---|
//! | [`rdf`] | triple store, dictionary, N-Triples I/O, RDFS saturation |
//! | [`summary`] | RDFQuotient-style structural summaries |
//! | [`storage`] | CFS tables, attribute columns, pre-aggregated measures |
//! | [`bitmap`] | Roaring-style bitmaps (cube cells, tidsets, samples) |
//! | [`stats`] | interestingness functions, Delta-Method CIs, sampling |
//! | [`cube`] | MVDCube, ArrayCube and PGCube baselines, lattices/MMST, one-pass ARM scoring |
//! | [`core`] | the Spade pipeline: derivations, CFS selection, enumeration, evaluation, top-k |
//! | [`store`] | zero-copy single-file snapshots of the offline state |
//! | [`datagen`] | synthetic benchmark and simulated real-world graphs |

pub use spade_bitmap as bitmap;
pub use spade_core as core;
pub use spade_cube as cube;
pub use spade_datagen as datagen;
pub use spade_rdf as rdf;
pub use spade_stats as stats;
pub use spade_storage as storage;
pub use spade_store as store;
pub use spade_summary as summary;

/// The most common imports, re-exported flat.
pub mod prelude {
    pub use spade_core::{Spade, SpadeConfig, SpadeReport, TopAggregate};
    pub use spade_cube::{mvd_cube, CubeSpec, MeasureSpec, MvdCubeOptions};
    pub use spade_rdf::{parse_ntriples, Graph, Term};
    pub use spade_stats::Interestingness;
    pub use spade_storage::AggFn;
}
