//! The Aggregate Result Manager (ARM): scoring evaluated MDAs.
//!
//! Section 3, Steps 4–5: "The ARM stores them and incrementally updates
//! statistics such as minimum and maximum values … used to determine the
//! interestingness of the computed MDAs (by applying h) in one pass over
//! their results."
//!
//! [`score`] is that pass over one finished [`CubeResult`]. For each lattice
//! node, in mask order, it folds the value for MDA `i` of every *visible*
//! group (per Section 2, CFs missing a dimension do not contribute to the
//! result) into the `i`-th [`RunningMoments`] of a per-node vector, reading
//! the groups in the order the node stores them. Each MDA that received at
//! least one value yields a [`Score`]. Ranking the scores, and attaching
//! labels to the winners, is the caller's job.
//!
//! A node stores its groups in key order (see [`crate::result`]), and that
//! is the canonical fold order: floating-point addition is not associative,
//! so folding in a fixed order makes every score, and hence every tie-break
//! in a top-k built on it, bit-reproducible.

use crate::result::CubeResult;
use spade_stats::{Interestingness, RunningMoments};

/// Identifies one MDA inside one lattice: a lattice node plus an index into
/// the cube spec's MDA list.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct AggregateId {
    /// Lattice node (dimension mask).
    pub node_mask: u32,
    /// Index into [`crate::CubeSpec::mdas`].
    pub mda: usize,
}

/// The interestingness of one aggregate.
#[derive(Clone, Copy, Debug)]
pub struct Score {
    /// Which aggregate.
    pub id: AggregateId,
    /// Interestingness score `h({t₁.v … t_W.v})`.
    pub score: f64,
    /// Number of groups `W` with a value for this MDA.
    pub groups: usize,
}

/// Scores every aggregate of `result` with `h` in one pass over its groups.
///
/// Returns one [`Score`] per (node, MDA) with at least one visible value,
/// ordered by [`AggregateId`].
pub fn score(result: &CubeResult, h: Interestingness) -> Vec<Score> {
    let mut moments = vec![RunningMoments::new(); result.mda_labels.len()];
    let mut out = Vec::new();
    for (&node_mask, node) in &result.nodes {
        moments.fill(RunningMoments::new());
        for (_, values) in node.visible_groups() {
            for (m, v) in moments.iter_mut().zip(values) {
                if let Some(v) = v {
                    m.push(*v);
                }
            }
        }
        out.extend(moments.iter().enumerate().filter(|(_, m)| m.count() > 0).map(
            |(mda, m)| Score {
                id: AggregateId { node_mask, mda },
                score: h.score_from_moments(m),
                groups: m.count() as usize,
            },
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::result::NULL_CODE;

    fn result_with_two_aggregates() -> CubeResult {
        // count: uniform (uninteresting); sum: one outlier (interesting).
        CubeResult::from_groups(
            vec!["count(*)".into(), "sum(x)".into()],
            0b1,
            vec![
                (vec![0], vec![Some(1.0), Some(10.0)]),
                (vec![1], vec![Some(1.0), Some(11.0)]),
                (vec![2], vec![Some(1.0), Some(500.0)]),
            ],
        )
    }

    #[test]
    fn outlier_aggregate_outscores_uniform_one() {
        let scores = score(&result_with_two_aggregates(), Interestingness::Variance);
        assert_eq!(scores.len(), 2);
        let (count, sum) = (&scores[0], &scores[1]);
        assert_eq!(count.id, AggregateId { node_mask: 0b1, mda: 0 });
        assert_eq!(sum.id, AggregateId { node_mask: 0b1, mda: 1 });
        assert!(sum.score > count.score);
        assert_eq!(count.score, 0.0); // uniform counts
        assert_eq!((count.groups, sum.groups), (3, 3));
    }

    #[test]
    fn mda_without_values_yields_no_score() {
        let r = CubeResult::from_groups(
            vec!["count(*)".into(), "sum(x)".into()],
            0b1,
            vec![(vec![0], vec![Some(1.0), None]), (vec![1], vec![Some(2.0), None])],
        );
        let scores = score(&r, Interestingness::Variance);
        assert_eq!(scores.len(), 1);
        assert_eq!(scores[0].id, AggregateId { node_mask: 0b1, mda: 0 });
    }

    #[test]
    fn groups_count_only_visible_valued_groups() {
        let r = CubeResult::from_groups(
            vec!["sum(x)".into()],
            0b11,
            vec![
                (vec![0, 0], vec![Some(1.0)]),
                (vec![0, 1], vec![Some(2.0)]),
                (vec![1, 1], vec![None]),
                (vec![NULL_CODE, 1], vec![Some(900.0)]),
                (vec![1, NULL_CODE], vec![Some(-900.0)]),
            ],
        );
        let scores = score(&r, Interestingness::Variance);
        assert_eq!(scores.len(), 1);
        assert_eq!(scores[0].groups, 2);
        assert_eq!(scores[0].score, Interestingness::Variance.score(&[1.0, 2.0]));
    }

    #[test]
    fn fold_order_is_key_order_not_insertion_order() {
        // Values whose f64 sums depend on the order they are added in.
        let groups: Vec<(Vec<u32>, Vec<Option<f64>>)> = (0..64u32)
            .map(|i| (vec![i], vec![Some(1e16 / f64::from(i + 1) + 0.1 * f64::from(i))]))
            .collect();
        let build = |reversed: bool| {
            let mut order = groups.clone();
            if reversed {
                order.reverse();
            }
            CubeResult::from_groups(vec!["sum(x)".into()], 0b1, order)
        };
        let in_key_order: Vec<f64> = groups.iter().map(|(_, v)| v[0].unwrap()).collect();
        for h in Interestingness::ALL {
            let (a, b) = (score(&build(false), h), score(&build(true), h));
            assert_eq!(a.len(), 1);
            assert_eq!(a[0].score.to_bits(), b[0].score.to_bits(), "{h:?}");
            assert_eq!(a[0].score.to_bits(), h.score(&in_key_order).to_bits(), "{h:?}");
            let node = &build(true).nodes[&0b1];
            assert_eq!(h.score(&node.mda_values(0)).to_bits(), a[0].score.to_bits(), "{h:?}");
        }
    }
}
