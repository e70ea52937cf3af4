//! Cube evaluation results.
//!
//! Every evaluation algorithm (MVDCube, ArrayCube, PGCube) produces a
//! [`CubeResult`] of identical shape so Experiments 2–3 can compare them
//! group by group: one [`NodeResult`] per lattice node, holding each
//! group's key (the dimension value codes, with nulls) and per-MDA
//! aggregated values in two flat columns, in **key order**. The order is
//! set once, when a producer finishes its result, and every reader sees
//! that one order: the ARM's scoring fold, the display groups,
//! [`NodeResult::get`], and the derived `PartialEq`.

use std::collections::BTreeMap;

/// The group-key code marking a null dimension value.
///
/// Internally the cube gives null the last slot of each dimension's domain
/// ("We add the special value null in the domain of each dimension",
/// Section 4.3); emitted group keys remap it to this sentinel so consumers
/// can recognize nulls without knowing domain sizes.
///
/// Null groups are kept in [`NodeResult::groups`] — they are required to
/// compute descendant nodes correctly (Figure 4: "Since n₂ lacks gender
/// information, the tuples t₄ to t₁₁ have gender=null. We need to keep them
/// to compute the rest of the lattice correctly") — but they are *not* part
/// of the user-facing aggregate result: per Section 2, a CF missing a
/// dimension "does not contribute to the result". [`NodeResult::mda_values`]
/// therefore skips them when scoring interestingness.
pub const NULL_CODE: u32 = u32::MAX;

/// Display form of [`NULL_CODE`].
pub const NULL_CODE_SENTINEL: &str = "null";

/// The result of one lattice node: its groups in key order, each a key of
/// `dims.len()` codes and one value per MDA (`None`: no fact in the group
/// carried that MDA's measure).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct NodeResult {
    /// Bitmask over the lattice's dimensions (bit `i` = dim `i` grouped on).
    pub mask: u32,
    /// The dimension indexes, ascending (redundant with `mask`, convenient).
    pub dims: Vec<usize>,
    n_mdas: usize,
    len: usize,
    /// `dims.len()` codes per group.
    keys: Vec<u32>,
    /// Row-major, `n_mdas` values per group.
    values: Vec<Option<f64>>,
}

impl NodeResult {
    pub(crate) fn new(mask: u32, n_mdas: usize) -> Self {
        let dims = (0..32).filter(|i| mask & (1 << i) != 0).collect();
        NodeResult { mask, dims, n_mdas, ..Default::default() }
    }

    /// Appends one group: `write` pushes its key codes, then its values, onto
    /// the two columns. [`CubeResult::finish`] puts the groups in key order.
    pub(crate) fn push_group(
        &mut self,
        write: impl FnOnce(&mut Vec<u32>, &mut Vec<Option<f64>>),
    ) {
        write(&mut self.keys, &mut self.values);
        self.len += 1;
    }

    /// Appends the groups of `other`, another part of this node.
    pub(crate) fn append(&mut self, other: NodeResult) {
        self.keys.extend(other.keys);
        self.values.extend(other.values);
        self.len += other.len;
    }

    /// Sorts the groups by key: the one place their order is set. Groups
    /// already in strictly ascending key order (every single-region node)
    /// are left as they are.
    fn sort_by_key(&mut self) {
        if (1..self.len).all(|g| self.key(g - 1) < self.key(g)) {
            return;
        }
        let mut order: Vec<usize> = (0..self.len).collect();
        order.sort_unstable_by(|&a, &b| self.key(a).cmp(self.key(b)));
        self.keys = order.iter().flat_map(|&g| self.key(g)).copied().collect();
        self.values = order.iter().flat_map(|&g| self.values_of(g)).copied().collect();
    }

    fn key(&self, g: usize) -> &[u32] {
        &self.keys[g * self.dims.len()..(g + 1) * self.dims.len()]
    }

    fn values_of(&self, g: usize) -> &[Option<f64>] {
        &self.values[g * self.n_mdas..(g + 1) * self.n_mdas]
    }

    /// Every stored group as `(key, values)`, internal null groups included,
    /// in key order.
    pub fn groups(&self) -> impl Iterator<Item = (&[u32], &[Option<f64>])> {
        (0..self.len).map(|g| (self.key(g), self.values_of(g)))
    }

    /// The values of the group with this key, found by binary search.
    pub fn get(&self, key: &[u32]) -> Option<&[Option<f64>]> {
        let (mut lo, mut hi) = (0, self.len);
        while lo < hi {
            let mid = (lo + hi) / 2;
            (lo, hi) = if self.key(mid) < key { (mid + 1, hi) } else { (lo, mid) };
        }
        (lo < self.len && self.key(lo) == key).then(|| self.values_of(lo))
    }

    /// Number of stored groups, including internal null groups.
    pub fn group_count(&self) -> usize {
        self.len
    }

    /// The user-facing groups: those where every dimension has a value
    /// (`W`, the tuple count the interestingness function ranges over).
    pub fn visible_groups(&self) -> impl Iterator<Item = (&[u32], &[Option<f64>])> {
        self.groups().filter(|(k, _)| !k.contains(&NULL_CODE))
    }

    /// The values of MDA `mda` across *visible* groups, skipping missing
    /// ones — the vector `{t₁.v, …, t_W.v}` handed to `h`, in the key order
    /// [`crate::arm::score`] folds it in.
    pub fn mda_values(&self, mda: usize) -> Vec<f64> {
        self.visible_groups().filter_map(|(_, v)| v[mda]).collect()
    }
}

/// The full lattice result.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct CubeResult {
    /// MDA labels, indexing the per-group value vectors.
    pub mda_labels: Vec<String>,
    /// Results per lattice node, keyed by dimension mask.
    pub nodes: BTreeMap<u32, NodeResult>,
}

impl CubeResult {
    /// Creates an empty result carrying the MDA labels.
    pub fn new(mda_labels: Vec<String>) -> Self {
        CubeResult { mda_labels, nodes: BTreeMap::new() }
    }

    /// The node result for a dimension mask.
    pub fn node(&self, mask: u32) -> Option<&NodeResult> {
        self.nodes.get(&mask)
    }

    /// The node for a dimension mask, created empty on first use.
    pub(crate) fn node_mut(&mut self, mask: u32) -> &mut NodeResult {
        let n_mdas = self.mda_labels.len();
        self.nodes.entry(mask).or_insert_with(|| NodeResult::new(mask, n_mdas))
    }

    /// Puts every node's groups in key order: a producer's last step.
    pub(crate) fn finish(mut self) -> Self {
        self.nodes.values_mut().for_each(NodeResult::sort_by_key);
        self
    }

    /// Total number of `(node, mda)` aggregates represented.
    pub fn aggregate_count(&self) -> usize {
        self.nodes.len() * self.mda_labels.len()
    }

    /// Total number of groups across all nodes.
    pub fn total_groups(&self) -> usize {
        self.nodes.values().map(|n| n.group_count()).sum()
    }

    /// A finished result holding one node, `mask`, with these groups.
    #[cfg(test)]
    pub(crate) fn from_groups(
        mda_labels: Vec<String>,
        mask: u32,
        groups: Vec<(Vec<u32>, Vec<Option<f64>>)>,
    ) -> Self {
        let mut r = CubeResult::new(mda_labels);
        let node = r.node_mut(mask);
        for (key, values) in groups {
            node.push_group(|k, v| {
                k.extend(key);
                v.extend(values);
            });
        }
        r.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn node_dims_follow_mask() {
        assert_eq!(NodeResult::new(0b101, 1).dims, vec![0, 2]);
        assert_eq!(NodeResult::new(0, 1).dims, Vec::<usize>::new());
    }

    #[test]
    fn groups_are_key_ordered_and_found_by_key() {
        let labels = vec!["a".to_owned(), "b".to_owned()];
        let r = CubeResult::from_groups(
            labels,
            0b1,
            vec![
                (vec![NULL_CODE], vec![Some(5.0), Some(5.0)]),
                (vec![1], vec![Some(1.0), Some(9.0)]),
                (vec![0], vec![Some(3.0), None]),
            ],
        );
        let n = &r.nodes[&0b1];
        assert_eq!(n.groups().map(|(k, _)| k[0]).collect::<Vec<_>>(), [0, 1, NULL_CODE]);
        assert_eq!((n.get(&[1]), n.get(&[2])), (Some(&[Some(1.0), Some(9.0)][..]), None));
        assert_eq!((n.mda_values(0), n.mda_values(1)), (vec![3.0, 1.0], vec![9.0]));
        // The grand total's keys have stride 0.
        let total =
            CubeResult::from_groups(vec!["a".into()], 0, vec![(vec![], vec![Some(7.0)])]);
        assert_eq!(total.nodes[&0].get(&[]), Some(&[Some(7.0)][..]));
    }

    #[test]
    fn aggregate_count_multiplies() {
        let mut r = CubeResult::new(vec!["count(*)".into(), "sum(x)".into()]);
        r.node_mut(0b1);
        r.node_mut(0b0);
        assert_eq!(r.aggregate_count(), 4);
    }
}
