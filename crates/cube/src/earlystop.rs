//! Early-stop aggregate pruning (Section 5).
//!
//! "We could reduce the effort to compute some aggregates if we can
//! determine (with high probability) that they will not be among the k most
//! interesting ones. … To prune some aggregates, if we find that the
//! upper-bound on the estimate of A's interestingness is lower than the
//! current lower-bound of the k-th best aggregate, we can give up evaluating
//! A. … This procedure terminates once the sample is exhausted or no
//! aggregates have been pruned in a given number of batches."
//!
//! The stratified per-root-group reservoirs collected during Data
//! Translation (see [`crate::translate`]) are projected down the lattice —
//! each node's group sample is the (deduplicated) union of the root-group
//! samples mapping to it, mirroring MVDCube's bitmap propagation — and the
//! per-MDA confidence intervals of Theorem 2 / Appendices B–C drive the
//! pruning loop.

use crate::lattice::Lattice;
use crate::spec::{CubeSpec, MdaKind};
use crate::translate::SampleSet;
use spade_parallel::{Cancelled, Exec};
use spade_stats::ci::EstimatorKind;
use spade_stats::{GroupSample, Interestingness, InterestingnessCi};
use spade_storage::{AggFn, FactId};
use std::collections::HashMap;

/// Early-stop tuning parameters.
#[derive(Clone, Copy, Debug)]
pub struct EarlyStopConfig {
    /// How many aggregates the user wants (`k`).
    pub k: usize,
    /// The interestingness function the run optimizes.
    pub h: Interestingness,
    /// Confidence level `1 − α` of the pruning intervals.
    pub confidence: f64,
    /// Per-group reservoir capacity (the paper's empirically good value: 60).
    pub sample_size: usize,
    /// Number of batches the sample is consumed in (paper: 2).
    pub batches: usize,
}

impl Default for EarlyStopConfig {
    fn default() -> Self {
        EarlyStopConfig {
            k: 10,
            h: Interestingness::Variance,
            confidence: 0.95,
            sample_size: 60,
            batches: 2,
        }
    }
}

/// What early-stop decided.
#[derive(Clone, Debug)]
pub struct EarlyStopOutcome {
    /// Per lattice node: per-MDA liveness (false = pruned).
    pub alive: HashMap<u32, Vec<bool>>,
    /// Number of pruned `(node, MDA)` aggregates.
    pub pruned: usize,
    /// Total number of `(node, MDA)` aggregates considered.
    pub total: usize,
    /// Batches actually executed.
    pub batches_run: usize,
}

impl EarlyStopOutcome {
    /// Fraction of aggregates pruned (Table 4's `pruned%`).
    pub fn pruned_fraction(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.pruned as f64 / self.total as f64
        }
    }
}

/// Per-node sample: group → (sampled facts, estimated group size), in
/// group-key order.
#[derive(Debug, PartialEq)]
struct NodeSamples {
    groups: Vec<(Vec<u32>, u64)>,
}

/// Estimation for a node only pays off when it has far fewer groups than
/// the CFS has facts: the batch update and interval computation are both
/// `O(#groups)`, which approaches the cost of simply evaluating the node.
/// Nodes above this cap skip estimation and stay alive (never pruned).
fn estimation_group_cap(n_facts: usize) -> usize {
    (n_facts / 8).clamp(16, 4_096)
}

/// Projects the root-group samples onto every lattice node with at most
/// `group_cap` groups (others skip estimation entirely). Each merged child
/// sample is re-capped at the reservoir capacity so per-node estimation
/// work stays `O(#groups · sample_size)` — the sampling analogue of "each
/// node in the MMST receives its own sample" (Section 5.3). Nodes are
/// independent, so the projection fans out over `exec.threads` and merges
/// in node order.
fn project_samples(
    lattice: &Lattice,
    samples: &SampleSet,
    group_cap: usize,
    exec: &Exec,
) -> Result<HashMap<u32, NodeSamples>, Cancelled> {
    let strides = crate::translate::strides_for(&lattice.domains);
    let projected = spade_parallel::try_map(lattice.nodes(), exec.threads, |mask| {
        exec.check()?;
        Ok(project_node(lattice, samples, group_cap, &strides, mask).map(|ns| (mask, ns)))
    })?;
    Ok(projected.into_iter().flatten().collect())
}

/// One node's projected sample, or `None` when estimating it would cost
/// more than evaluating it (it then stays alive, never pruned). `strides`
/// are the root cell strides, hoisted out of the per-node fan-out.
fn project_node(
    lattice: &Lattice,
    samples: &SampleSet,
    group_cap: usize,
    strides: &[u64],
    mask: u32,
) -> Option<NodeSamples> {
    let dims = lattice.dims_of(mask);
    // Packed mixed-radix strides over the node's own dims, so projected
    // group keys fit in a u64 (no per-cell allocation).
    let node_domains: Vec<u32> = dims.iter().map(|&d| lattice.domains[d]).collect();
    let node_strides = crate::translate::strides_for(&node_domains);
    // child group key ← root cell index. Groups with a null coordinate
    // along the node's dims are not part of its visible result and are
    // excluded from score estimation.
    let mut grouped: HashMap<u64, (Vec<u32>, u64)> = HashMap::new();
    for (&cell, (facts, seen)) in &samples.groups {
        let mut has_null = false;
        let mut key = 0u64;
        for (i, &d) in dims.iter().enumerate() {
            let code = (cell / strides[d]) % lattice.domains[d] as u64;
            if code == lattice.domains[d] as u64 - 1 {
                has_null = true;
                break;
            }
            key += code * node_strides[i];
        }
        if has_null {
            continue;
        }
        let entry = grouped.entry(key).or_default();
        entry.0.extend_from_slice(facts);
        entry.1 += seen;
        if grouped.len() > group_cap {
            return None; // estimation would cost more than it saves
        }
    }
    // Singleton-ish groups make the per-group variance (and hence the
    // CI) meaningless, and such nodes are as expensive to estimate as
    // to evaluate — skip them (they stay alive).
    let total_sampled: usize = grouped.values().map(|(f, _)| f.len()).sum();
    if grouped.len() < 2 || total_sampled < 2 * grouped.len() {
        return None;
    }
    // Groups in key order: the interval arithmetic sums over them, so a
    // hash-map order would make borderline pruning decisions vary run to
    // run.
    let mut grouped: Vec<(u64, (Vec<u32>, u64))> = grouped.into_iter().collect();
    grouped.sort_unstable_by_key(|&(key, _)| key);
    let groups = grouped
        .into_iter()
        .map(|(_, (mut facts, seen))| {
            // A multi-valued fact sampled in several root groups must
            // count once in the consolidated child group (the sampling
            // analogue of the bitmap union). Reservoir contents are
            // uniform, so truncating the merged pool keeps a valid
            // (if slightly clustered) sample.
            facts.sort_unstable();
            facts.dedup();
            facts.truncate(samples.capacity);
            (facts, seen)
        })
        .collect();
    Some(NodeSamples { groups })
}

/// The per-fact sampled value and estimator kind for an MDA.
fn estimator_for(spec: &CubeSpec<'_>, kind: &MdaKind) -> (EstimatorKind, Option<usize>) {
    match kind {
        MdaKind::FactCount => (EstimatorKind::Count, None),
        MdaKind::Measure { measure, agg } => {
            let e = match agg {
                AggFn::Avg => EstimatorKind::Avg,
                AggFn::Sum => EstimatorKind::Sum,
                // count(M) = Σ per-fact value counts → a sum estimator over
                // the per-fact counts.
                AggFn::Count => EstimatorKind::Sum,
                AggFn::Min => EstimatorKind::Min,
                AggFn::Max => EstimatorKind::Max,
            };
            let _ = spec;
            (e, Some(*measure))
        }
    }
}

fn fact_value(spec: &CubeSpec<'_>, measure: usize, agg: AggFn, fact: u32) -> Option<f64> {
    let pre = spec.measures[measure].preagg;
    let f = FactId(fact);
    if pre.count(f) == 0 {
        return None;
    }
    Some(match agg {
        AggFn::Avg => pre.avg(f).unwrap(),
        AggFn::Sum => pre.sum(f),
        AggFn::Count => pre.count(f) as f64,
        AggFn::Min => pre.min(f).unwrap(),
        AggFn::Max => pre.max(f).unwrap(),
    })
}

/// Runs the early-stop pruning loop over the stratified samples.
///
/// Each batch fans the per-node moment updates and interval computations
/// out over `exec.threads` and aggregates the node-local results **in node
/// order**, so every pruning decision — and therefore the returned
/// liveness map — is bit-identical at any thread count. The budget is
/// polled per node projection and per node-batch shard; checks never alter
/// any pruning decision. Records an `earlystop` span with batch/pruned
/// counts.
pub fn prune(
    spec: &CubeSpec<'_>,
    lattice: &Lattice,
    samples: &SampleSet,
    config: &EarlyStopConfig,
    exec: &Exec,
) -> Result<EarlyStopOutcome, Cancelled> {
    let span = exec.span.span("earlystop");
    let mdas = spec.mdas();
    let cap = estimation_group_cap(spec.n_facts);
    let node_samples = project_samples(lattice, samples, cap, exec)?;
    let masks = lattice.nodes();
    let total = masks.len() * mdas.len();

    let mut alive: HashMap<u32, Vec<bool>> =
        masks.iter().map(|&m| (m, vec![true; mdas.len()])).collect();

    // With k ≥ total aggregates nothing can ever be pruned.
    if config.k >= total || config.batches == 0 || config.sample_size == 0 {
        return Ok(EarlyStopOutcome { alive, pruned: 0, total, batches_run: 0 });
    }

    let ci = InterestingnessCi::new(config.h, config.confidence);
    let batch_len = samples.capacity.div_ceil(config.batches).max(1);
    let mut pruned = 0usize;
    let mut batches_run = 0usize;

    // Nodes worth estimating (see `estimation_group_cap`).
    let estimable: Vec<u32> =
        masks.iter().copied().filter(|m| node_samples.contains_key(m)).collect();

    // Per estimable node, per MDA: running per-group moments, extended
    // batch by batch — the incremental estimate update of Section 5.1
    // ("After scanning a batch, we update the estimate"). Groups are
    // aligned with the node's sample-group list; a group with zero observed
    // measure values is skipped at interval time. The vector is aligned
    // with `estimable` so states can round-trip through the ordered
    // fan-out below.
    let mut states: Vec<Vec<Vec<GroupSample>>> = estimable
        .iter()
        .map(|mask| {
            let ns = &node_samples[mask];
            mdas.iter()
                .map(|_| {
                    ns.groups
                        .iter()
                        .map(|(_, seen)| GroupSample {
                            group_size: *seen,
                            ..Default::default()
                        })
                        .collect()
                })
                .collect()
        })
        .collect();

    for batch in 0..config.batches {
        exec.check()?;
        let from = (batch * batch_len).min(samples.capacity);
        let cut = ((batch + 1) * batch_len).min(samples.capacity);
        batches_run += 1;

        // —— per-node shards (parallel, single-owner state) ——
        // Each node extends its per-group moments with this batch's slice
        // of sampled facts and computes the intervals of its alive
        // aggregates. `map` returns shards in node order, so the interval
        // list below is identical at every thread count.
        let work: Vec<(u32, Vec<Vec<GroupSample>>)> =
            estimable.iter().copied().zip(std::mem::take(&mut states)).collect();
        let alive_ref = &alive;
        let shards = spade_parallel::try_map(work, exec.threads, |(mask, mut node_states)| {
            exec.check()?;
            let ns = &node_samples[&mask];
            let alive_flags = &alive_ref[&mask];
            let alive_mdas: Vec<usize> = (0..mdas.len())
                .filter(|&mi| {
                    alive_flags[mi] && matches!(mdas[mi].kind, MdaKind::Measure { .. })
                })
                .collect();
            if !alive_mdas.is_empty() {
                for (gi, (facts, _)) in ns.groups.iter().enumerate() {
                    let lo = from.min(facts.len());
                    let hi = cut.min(facts.len());
                    for &fact in &facts[lo..hi] {
                        for &mi in &alive_mdas {
                            let MdaKind::Measure { measure, agg } = mdas[mi].kind else {
                                unreachable!()
                            };
                            if let Some(v) = fact_value(spec, measure, agg, fact) {
                                node_states[mi][gi].moments.push(v);
                            }
                        }
                    }
                }
            }

            // Interval per alive aggregate from the accumulated moments.
            let mut intervals: Vec<(usize, spade_stats::ScoreInterval)> = Vec::new();
            let mut filtered: Vec<GroupSample> = Vec::new();
            for (mi, mda) in mdas.iter().enumerate() {
                if !alive_flags[mi] {
                    continue;
                }
                let (estimator, measure) = estimator_for(spec, &mda.kind);
                let state = &node_states[mi];
                filtered.clear();
                match measure {
                    None => filtered.extend(state.iter().copied()),
                    Some(_) => {
                        filtered.extend(state.iter().filter(|g| g.moments.count() > 0).copied())
                    }
                }
                let bounds = measure.and_then(|m| spec.measures[m].preagg.global_bounds());
                intervals.push((mi, ci.interval(estimator, &filtered, bounds)));
            }
            Ok((node_states, intervals))
        })?;

        // —— deterministic aggregation of the shard-local results ——
        let mut intervals: Vec<(u32, usize, spade_stats::ScoreInterval)> = Vec::new();
        for (&mask, (node_states, node_intervals)) in estimable.iter().zip(shards) {
            states.push(node_states);
            intervals.extend(node_intervals.into_iter().map(|(mi, iv)| (mask, mi, iv)));
        }

        // k-th best lower bound among alive aggregates.
        let mut lowers: Vec<f64> = intervals.iter().map(|(_, _, iv)| iv.lower).collect();
        lowers.sort_by(|a, b| b.total_cmp(a));
        let Some(&kth_lower) = lowers.get(config.k - 1) else { break };

        // Prune: U_A < L_kth ⇒ A cannot (w.h.p.) reach the top-k.
        let mut pruned_this_batch = 0usize;
        for (mask, mi, iv) in &intervals {
            if iv.upper < kth_lower {
                alive.get_mut(mask).unwrap()[*mi] = false;
                pruned_this_batch += 1;
            }
        }
        pruned += pruned_this_batch;
        // "terminates once … no aggregates have been pruned in a given
        // number of batches" (we use: one idle batch ends the loop).
        if pruned_this_batch == 0 {
            break;
        }
    }

    span.attr("batches", batches_run as u64);
    span.attr("pruned", pruned as u64);
    span.attr("aggregates", total as u64);
    Ok(EarlyStopOutcome { alive, pruned, total, batches_run })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mvdcube::{mvd_cube, mvd_cube_with_earlystop, MvdCubeOptions};
    use crate::spec::MeasureSpec;
    use spade_storage::{CategoricalColumn, NumericColumn};

    /// 400 facts, two dimensions; measure `hot` has a huge-variance result
    /// on dim a, measure `flat` is uniform everywhere (prunable).
    fn build() -> (CategoricalColumn, CategoricalColumn, NumericColumn, NumericColumn) {
        let n = 400usize;
        let a = CategoricalColumn::from_rows(
            "a",
            &(0..n).map(|i| vec![["p", "q", "r", "s"][i % 4]]).collect::<Vec<_>>(),
        );
        let b = CategoricalColumn::from_rows(
            "b",
            &(0..n).map(|i| vec![["x", "y"][i % 2]]).collect::<Vec<_>>(),
        );
        let hot = NumericColumn::from_rows(
            "hot",
            &(0..n)
                .map(|i| vec![if i % 4 == 0 { 1000.0 } else { 1.0 } + (i % 7) as f64 * 0.01])
                .collect::<Vec<_>>(),
        );
        let flat = NumericColumn::from_rows(
            "flat",
            &(0..n).map(|i| vec![5.0 + (i % 3) as f64 * 1e-6]).collect::<Vec<_>>(),
        );
        (a, b, hot, flat)
    }

    #[test]
    fn prunes_flat_aggregates_and_keeps_hot_ones() {
        let (a, b, hot, flat) = build();
        let hot_pre = hot.preaggregate();
        let flat_pre = flat.preaggregate();
        let spec = CubeSpec::new(
            vec![&a, &b],
            vec![
                MeasureSpec { preagg: &hot_pre, fns: vec![spade_storage::AggFn::Avg] },
                MeasureSpec { preagg: &flat_pre, fns: vec![spade_storage::AggFn::Avg] },
            ],
            400,
        );
        let config = EarlyStopConfig { k: 2, sample_size: 60, ..Default::default() };
        let (result, outcome) =
            mvd_cube_with_earlystop(&spec, &MvdCubeOptions::default(), &config);
        assert!(outcome.pruned > 0, "expected some pruning");
        assert!(outcome.pruned_fraction() > 0.0);
        // avg(hot) by dim a (mask 0b01) must survive: it is the clear winner.
        let hot_idx = 1; // mdas: count(*), avg(hot), avg(flat)
        assert!(outcome.alive[&0b01][hot_idx], "hot aggregate wrongly pruned");
        let node = result.node(0b01).unwrap();
        assert!(node.groups.values().any(|v| v[hot_idx].is_some()));
    }

    #[test]
    fn earlystop_topk_matches_full_evaluation_here() {
        let (a, b, hot, flat) = build();
        let hot_pre = hot.preaggregate();
        let flat_pre = flat.preaggregate();
        let spec = CubeSpec::new(
            vec![&a, &b],
            vec![
                MeasureSpec { preagg: &hot_pre, fns: vec![spade_storage::AggFn::Avg] },
                MeasureSpec { preagg: &flat_pre, fns: vec![spade_storage::AggFn::Avg] },
            ],
            400,
        );
        let opts = MvdCubeOptions::default();
        let full = mvd_cube(&spec, &opts);
        let top3 = |result: &crate::CubeResult| {
            let mut scores = crate::arm::score(result, Interestingness::Variance);
            scores.sort_by(|a, b| b.score.total_cmp(&a.score).then_with(|| a.id.cmp(&b.id)));
            scores.truncate(3);
            scores
        };
        let top_full = top3(&full);

        let config = EarlyStopConfig { k: 3, ..Default::default() };
        let (pruned_result, _) = mvd_cube_with_earlystop(&spec, &opts, &config);
        let top_es = top3(&pruned_result);

        // Accuracy metric |T ∩ T_es| / |T| (Section 6.4) — here the signal
        // is so strong that accuracy must be 100%.
        let set: std::collections::HashSet<_> = top_full.iter().map(|s| s.id).collect();
        let hits = top_es.iter().filter(|s| set.contains(&s.id)).count();
        assert_eq!(hits, top_full.len());
    }

    #[test]
    fn no_pruning_when_k_covers_everything() {
        let (a, _, hot, _) = build();
        let hot_pre = hot.preaggregate();
        let spec = CubeSpec::new(
            vec![&a],
            vec![MeasureSpec { preagg: &hot_pre, fns: vec![spade_storage::AggFn::Avg] }],
            400,
        );
        let config = EarlyStopConfig { k: 100, ..Default::default() };
        let (_, outcome) = mvd_cube_with_earlystop(&spec, &MvdCubeOptions::default(), &config);
        assert_eq!(outcome.pruned, 0);
        assert_eq!(outcome.batches_run, 0);
    }

    #[test]
    fn pruned_aggregates_are_not_computed() {
        let (a, b, hot, flat) = build();
        let hot_pre = hot.preaggregate();
        let flat_pre = flat.preaggregate();
        let spec = CubeSpec::new(
            vec![&a, &b],
            vec![
                MeasureSpec { preagg: &hot_pre, fns: vec![spade_storage::AggFn::Avg] },
                MeasureSpec { preagg: &flat_pre, fns: vec![spade_storage::AggFn::Avg] },
            ],
            400,
        );
        let config = EarlyStopConfig { k: 1, ..Default::default() };
        let (result, outcome) =
            mvd_cube_with_earlystop(&spec, &MvdCubeOptions::default(), &config);
        for (mask, flags) in &outcome.alive {
            if let Some(node) = result.node(*mask) {
                for values in node.groups.values() {
                    for (mi, v) in values.iter().enumerate() {
                        if !flags[mi] {
                            assert!(v.is_none(), "pruned MDA {mi} of node {mask:b} computed");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn projected_samples_do_not_depend_on_hash_order() {
        let (a, b, _, _) = build();
        let spec = CubeSpec::new(vec![&a, &b], vec![], 400);
        let lattice = Lattice::new(spec.domain_sizes(), vec![8, 8]);
        let translation =
            crate::translate::translate(&spec, &lattice, Some(16), 7, &Exec::new(1)).unwrap();
        let samples = translation.samples.unwrap();
        let strides = crate::translate::strides_for(&lattice.domains);
        // Every call hashes into a fresh, randomly seeded map.
        let project = || project_node(&lattice, &samples, usize::MAX, &strides, 0b01);
        let first = project().expect("node 0b01 has several groups");
        assert!(first.groups.len() > 2);
        for _ in 0..8 {
            assert_eq!(project().as_ref(), Some(&first));
        }
    }
}
