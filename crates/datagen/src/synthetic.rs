//! The Section 6.5 synthetic benchmark.
//!
//! "we designed a synthetic benchmark (a set of graphs) with fixed numbers
//! of facts |CFS|, N dimensions and M measures. All property values are
//! numeric. We ensure that a single CFS is found and that each dimension
//! D_i takes at most 100 values … We denote each graph by
//! |D₁|:|D₂|:…:|D_N|, the maximum number of distinct values along each
//! dimension. To obtain realistic distributions of the facts in this
//! multidimensional space, we randomly assign dimension values as in \[1\],
//! controlled by a sparsity parameter s ∈ [0, 1]. To ensure PGCube
//! correctness, each fact has only one value for each dimension."
//!
//! Sparsity semantics (after Agarwal et al. \[1\] / Zhao et al. \[49\]): `s` is
//! the target fraction of the full dimension cross-product that is occupied;
//! facts are placed uniformly over a sub-grid spanning `⌈|D_i|·s^{1/N}⌉`
//! values per dimension, so the occupied cell space is ≈ `s · Π|D_i|`.
//!
//! The generator emits both a raw RDF [`Graph`] (for full-pipeline
//! experiments) and pre-built [`ColumnSet`] storage (for cube-only
//! experiments that bypass the offline phase).

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use spade_rdf::{Graph, Term};
use spade_storage::{
    CategoricalColumn, CategoricalColumnBuilder, FactId, NumericColumn, NumericColumnBuilder,
    PreAggregated,
};

/// Parameters of one synthetic graph.
#[derive(Clone, Debug)]
pub struct SyntheticConfig {
    /// `|CFS|` — number of facts.
    pub n_facts: usize,
    /// Distinct values per dimension (`|D₁|:…:|D_N|`), each ≤ 100 in the
    /// paper's runs so the attribute passes the good-dimension rule.
    pub dim_values: Vec<u32>,
    /// Number of numeric measures `M`.
    pub n_measures: usize,
    /// Sparsity coefficient `s ∈ [0, 1]`.
    pub sparsity: f64,
    /// Probability that a fact receives a *second* value on a dimension
    /// (0.0 = the paper's single-valued setting).
    pub multi_valued_prob: f64,
    /// RNG seed (experiments are reproducible).
    pub seed: u64,
}

impl Default for SyntheticConfig {
    fn default() -> Self {
        SyntheticConfig {
            n_facts: 10_000,
            dim_values: vec![100, 100, 100],
            n_measures: 3,
            sparsity: 0.1,
            multi_valued_prob: 0.0,
            seed: 1,
        }
    }
}

impl SyntheticConfig {
    /// The paper's graph label, e.g. `100:5:2`.
    pub fn label(&self) -> String {
        self.dim_values.iter().map(|d| d.to_string()).collect::<Vec<_>>().join(":")
    }
}

/// Ready-to-cube storage for one synthetic CFS.
pub struct ColumnSet {
    /// Dimension columns `d0..dN−1`.
    pub dims: Vec<CategoricalColumn>,
    /// Pre-aggregated measures `m0..mM−1`.
    pub measures: Vec<PreAggregated>,
    /// Raw measure columns (before pre-aggregation).
    pub raw_measures: Vec<NumericColumn>,
    /// `|CFS|`.
    pub n_facts: usize,
}

/// Per-dimension effective domain width under the sparsity model.
fn effective_widths(cfg: &SyntheticConfig) -> Vec<u32> {
    let n = cfg.dim_values.len() as f64;
    let shrink = cfg.sparsity.clamp(0.0001, 1.0).powf(1.0 / n);
    cfg.dim_values.iter().map(|&d| ((d as f64 * shrink).ceil() as u32).clamp(1, d)).collect()
}

/// Generates the column representation directly (no RDF round-trip).
pub fn generate_columns(cfg: &SyntheticConfig) -> ColumnSet {
    let mut rng = SmallRng::seed_from_u64(cfg.seed);
    let widths = effective_widths(cfg);

    let mut dim_builders: Vec<CategoricalColumnBuilder> = (0..cfg.dim_values.len())
        .map(|i| CategoricalColumnBuilder::new(format!("d{i}")))
        .collect();
    let mut measure_builders: Vec<NumericColumnBuilder> =
        (0..cfg.n_measures).map(|i| NumericColumnBuilder::new(format!("m{i}"))).collect();

    for fact in 0..cfg.n_facts as u32 {
        for (di, b) in dim_builders.iter_mut().enumerate() {
            let v = rng.gen_range(0..widths[di]);
            b.add(FactId(fact), dim_label(v));
            if cfg.multi_valued_prob > 0.0 && rng.gen_bool(cfg.multi_valued_prob) {
                let extra = rng.gen_range(0..widths[di]);
                if extra != v {
                    b.add(FactId(fact), dim_label(extra));
                }
            }
        }
        for (mi, b) in measure_builders.iter_mut().enumerate() {
            b.add(FactId(fact), measure_value(&mut rng, mi));
        }
    }

    let dims: Vec<CategoricalColumn> =
        dim_builders.into_iter().map(|b| b.build(cfg.n_facts)).collect();
    let raw_measures: Vec<NumericColumn> =
        measure_builders.into_iter().map(|b| b.build(cfg.n_facts)).collect();
    let measures = raw_measures.iter().map(NumericColumn::preaggregate).collect();
    ColumnSet { dims, measures, raw_measures, n_facts: cfg.n_facts }
}

/// Zero-padded label so lexicographic code order equals numeric order.
fn dim_label(v: u32) -> String {
    format!("v{v:05}")
}

/// Measure values: mostly well-behaved with a small heavy tail, so top-k
/// interestingness has signal to find.
fn measure_value<R: Rng>(rng: &mut R, measure_idx: usize) -> f64 {
    let base = (measure_idx as f64 + 1.0) * 10.0;
    let noise: f64 = rng.gen::<f64>() * 5.0;
    if rng.gen_bool(0.01) {
        base * 50.0 + noise // outlier tail
    } else {
        base + noise
    }
}

/// Generates the RDF graph form: one node per fact, typed `bench:Fact`,
/// with numeric-valued dimension and measure properties.
pub fn generate_graph(cfg: &SyntheticConfig) -> Graph {
    let mut rng = SmallRng::seed_from_u64(cfg.seed);
    let widths = effective_widths(cfg);
    let mut g = Graph::new();
    let type_prop = Term::iri(spade_rdf::vocab::RDF_TYPE);
    let fact_type = Term::iri("http://bench/Fact");
    for fact in 0..cfg.n_facts {
        let node = Term::iri(format!("http://bench/f{fact}"));
        g.insert(node.clone(), type_prop.clone(), fact_type.clone());
        for (di, &w) in widths.iter().enumerate() {
            let v = rng.gen_range(0..w);
            g.insert(
                node.clone(),
                Term::iri(format!("http://bench/d{di}")),
                Term::int(v as i64),
            );
            if cfg.multi_valued_prob > 0.0 && rng.gen_bool(cfg.multi_valued_prob) {
                let extra = rng.gen_range(0..w);
                if extra != v {
                    g.insert(
                        node.clone(),
                        Term::iri(format!("http://bench/d{di}")),
                        Term::int(extra as i64),
                    );
                }
            }
        }
        for mi in 0..cfg.n_measures {
            g.insert(
                node.clone(),
                Term::iri(format!("http://bench/m{mi}")),
                Term::num(measure_value(&mut rng, mi)),
            );
        }
    }
    g
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn respects_shape_parameters() {
        let cfg = SyntheticConfig {
            n_facts: 500,
            dim_values: vec![100, 5, 2],
            n_measures: 4,
            sparsity: 1.0,
            ..Default::default()
        };
        let cols = generate_columns(&cfg);
        assert_eq!(cols.dims.len(), 3);
        assert_eq!(cols.measures.len(), 4);
        assert_eq!(cols.n_facts, 500);
        assert!(cols.dims[0].distinct_values() <= 100);
        assert!(cols.dims[1].distinct_values() <= 5);
        assert!(cols.dims[2].distinct_values() <= 2);
        for d in &cols.dims {
            assert_eq!(d.support(), 500, "single-valued: every fact has a value");
            assert!(!d.is_multi_valued());
        }
        for m in &cols.measures {
            assert_eq!(m.support(), 500);
            assert!(m.is_single_valued());
        }
        assert_eq!(cfg.label(), "100:5:2");
    }

    #[test]
    fn sparsity_shrinks_occupied_space() {
        let dense = generate_columns(&SyntheticConfig {
            n_facts: 5_000,
            dim_values: vec![100, 100],
            sparsity: 1.0,
            ..Default::default()
        });
        let sparse = generate_columns(&SyntheticConfig {
            n_facts: 5_000,
            dim_values: vec![100, 100],
            sparsity: 0.1,
            ..Default::default()
        });
        // s = 0.1 over 2 dims → ≈ 100·√0.1 ≈ 32 values per dim.
        assert!(sparse.dims[0].distinct_values() < dense.dims[0].distinct_values());
        assert!(sparse.dims[0].distinct_values() <= 34);
        assert!(sparse.dims[0].distinct_values() >= 25);
    }

    #[test]
    fn multi_valued_mode_creates_mvd_dimensions() {
        let cols = generate_columns(&SyntheticConfig {
            n_facts: 2_000,
            dim_values: vec![50, 50],
            multi_valued_prob: 0.3,
            ..Default::default()
        });
        for d in &cols.dims {
            assert!(d.is_multi_valued());
            let mv = d.multi_valued_facts() as f64 / 2_000.0;
            assert!(mv > 0.15 && mv < 0.45, "multi-valued share {mv}");
        }
    }

    #[test]
    fn deterministic_under_seed() {
        let cfg = SyntheticConfig { n_facts: 300, seed: 42, ..Default::default() };
        let a = generate_columns(&cfg);
        let b = generate_columns(&cfg);
        for (x, y) in a.dims.iter().zip(&b.dims) {
            for f in 0..300u32 {
                assert_eq!(x.codes_of(FactId(f)), y.codes_of(FactId(f)));
            }
        }
        let other = generate_columns(&SyntheticConfig { seed: 43, ..cfg });
        let same = (0..300u32)
            .all(|f| a.dims[0].codes_of(FactId(f)) == other.dims[0].codes_of(FactId(f)));
        assert!(!same, "different seeds must differ");
    }

    #[test]
    fn graph_form_matches_column_form_in_size() {
        let cfg = SyntheticConfig {
            n_facts: 100,
            dim_values: vec![10, 10],
            n_measures: 2,
            multi_valued_prob: 0.0,
            ..Default::default()
        };
        let g = generate_graph(&cfg);
        // Each fact: 1 type + 2 dims + 2 measures = 5 triples.
        assert_eq!(g.len(), 500);
        assert_eq!(g.subject_count(), 100);
    }

    #[test]
    fn measures_contain_outliers() {
        let cols = generate_columns(&SyntheticConfig {
            n_facts: 10_000,
            n_measures: 1,
            ..Default::default()
        });
        let (lo, hi) = cols.measures[0].global_bounds().unwrap();
        assert!(hi / lo > 10.0, "heavy tail expected: {lo}..{hi}");
    }
}
