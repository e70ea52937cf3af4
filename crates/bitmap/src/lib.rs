//! Roaring-style compressed bitmaps.
//!
//! MVDCube (the paper's Section 4.3) stores, in every cube cell, the *set of
//! candidate facts* that fall into that cell, encoded as a Roaring Bitmap
//! [Lemire et al., 2016]. Bitmaps are unioned (`OR`) as dimensions are
//! projected away down the MMST, which is exactly what consolidates a fact
//! that occupies several parent cells into a single child-cell membership —
//! the correctness core of the algorithm.
//!
//! This crate is a from-scratch implementation of the three Roaring
//! container kinds, keyed by the high 16 bits of the 32-bit value:
//!
//! * an **array container** (sorted `Vec<u16>`, `2·card` bytes) for sparse
//!   scattered chunks,
//! * a **run container** (sorted inclusive intervals, `4·runs` bytes) for
//!   clustered chunks, and
//! * a **bitset container** (`[u64; 1024]`, fixed 8 KiB) for dense
//!   scattered chunks.
//!
//! After every mutating op a chunk is stored in whichever representation
//! is *cheapest in bytes* for its contents (ties: Array ≻ Run ≻ Bitset).
//! Because that choice depends only on the set — never on the op sequence
//! that produced it — equal bitmaps always have identical representations,
//! so derived equality is exact set equality and the engine's
//! plan-invariance guarantee survives any mix of container kinds.
//!
//! Binary ops run container-at-a-time; the kernel that fires depends on
//! the operand-representation pair:
//!
//! | self \ other | Array                            | Run                        | Bitset                         |
//! |--------------|----------------------------------|----------------------------|--------------------------------|
//! | **Array**    | two-pointer merge, or *galloping* (exponential search) when sizes are skewed ≥16× | one forward walk, intervals as bounds | per-element bit probe          |
//! | **Run**      | (symmetric)                      | interval merge, `O(runs)`  | range-masked word ops          |
//! | **Bitset**   | bit scatter / probe              | range fill / range popcount | word-at-a-time `u64` loops with fused cardinality+run counting |
//!
//! The word-at-a-time loops (`crate::kernels` internally) are plain
//! fixed-length `u64` passes with no per-bit branches, shaped for
//! autovectorization; bulk bitset ops recompute cardinality *and* run
//! count in the same pass so the canonical-representation decision is
//! free. In-place variants ([`Bitmap::union_with`],
//! [`Bitmap::intersect_with`], [`Bitmap::union_with_all`] k-way fan-in)
//! recycle allocations across the engine's merge cascade.
//!
//! The public type [`Bitmap`] offers the operations Spade needs: insert,
//! contains, union, intersection, difference, iteration in increasing
//! order, cardinality, rank/select, and the worst-case size bound used in
//! the paper's memory analysis.

mod container;
mod kernels;
mod run;

pub use container::Container;
pub use run::RunContainer;

use container::ARRAY_TO_BITSET_THRESHOLD;

/// A compressed bitmap over `u32` values.
///
/// Chunks (keyed by the high 16 bits) are kept sorted, each holding a
/// [`Container`] for the low 16 bits.
///
/// ```
/// use spade_bitmap::Bitmap;
/// let mut bm = Bitmap::new();
/// bm.insert(3);
/// bm.insert(100_000);
/// assert!(bm.contains(3));
/// assert_eq!(bm.cardinality(), 2);
/// assert_eq!(bm.iter().collect::<Vec<_>>(), vec![3, 100_000]);
/// ```
#[derive(Clone, Default, PartialEq, Eq)]
pub struct Bitmap {
    /// Sorted high-16-bit keys, parallel to `containers`.
    keys: Vec<u16>,
    containers: Vec<Container>,
}

#[inline]
fn split(value: u32) -> (u16, u16) {
    ((value >> 16) as u16, (value & 0xFFFF) as u16)
}

#[inline]
fn join(key: u16, low: u16) -> u32 {
    ((key as u32) << 16) | low as u32
}

impl Bitmap {
    /// Creates an empty bitmap.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a bitmap holding `0..n`, the common "all facts" set —
    /// `O(chunks)`: every chunk is a single run container.
    pub fn full(n: u32) -> Self {
        let mut bm = Self::new();
        if n == 0 {
            return bm;
        }
        let full_chunks = (n >> 16) as usize;
        for key in 0..full_chunks {
            bm.keys.push(key as u16);
            bm.containers.push(Container::from_range(0, u16::MAX));
        }
        let rem = n & 0xFFFF;
        if rem > 0 {
            bm.keys.push(full_chunks as u16);
            bm.containers.push(Container::from_range(0, (rem - 1) as u16));
        }
        bm
    }

    /// Builds a bitmap from an iterator of values (any order, duplicates ok).
    /// Also available through the `FromIterator` trait; the inherent method
    /// keeps call sites short (`Bitmap::from_iter(..)`).
    #[allow(clippy::should_implement_trait)]
    pub fn from_iter<I: IntoIterator<Item = u32>>(values: I) -> Self {
        let mut bm = Self::new();
        for v in values {
            bm.insert(v);
        }
        bm
    }

    /// Builds from a sorted, deduplicated slice. Faster than repeated insert.
    pub fn from_sorted(values: &[u32]) -> Self {
        let mut scratch = Vec::new();
        Self::from_sorted_iter_in(values.iter().copied(), &mut scratch)
    }

    /// Builds from a strictly ascending iterator of values without
    /// collecting them first.
    pub fn from_sorted_iter<I: IntoIterator<Item = u32>>(values: I) -> Self {
        let mut scratch = Vec::new();
        Self::from_sorted_iter_in(values, &mut scratch)
    }

    /// Hot-path variant of [`Bitmap::from_sorted_iter`] that reuses a
    /// caller-owned low-bits scratch buffer, so a loop constructing many
    /// bitmaps (e.g. one per cube cell) allocates the buffer once.
    pub fn from_sorted_iter_in<I: IntoIterator<Item = u32>>(
        values: I,
        scratch: &mut Vec<u16>,
    ) -> Self {
        let mut bm = Self::new();
        scratch.clear();
        let mut cur_key: Option<u16> = None;
        let mut last: Option<u32> = None;
        for v in values {
            debug_assert!(last.is_none_or(|p| p < v), "input must be strictly sorted");
            last = Some(v);
            let (key, low) = split(v);
            if cur_key != Some(key) {
                if let Some(k) = cur_key {
                    bm.keys.push(k);
                    bm.containers.push(Container::from_sorted_lows(scratch));
                }
                scratch.clear();
                cur_key = Some(key);
            }
            scratch.push(low);
        }
        if let Some(k) = cur_key {
            bm.keys.push(k);
            bm.containers.push(Container::from_sorted_lows(scratch));
        }
        bm
    }

    /// Inserts `value`; returns `true` if it was not already present.
    pub fn insert(&mut self, value: u32) -> bool {
        let (key, low) = split(value);
        match self.keys.binary_search(&key) {
            Ok(pos) => self.containers[pos].insert(low),
            Err(pos) => {
                self.keys.insert(pos, key);
                self.containers.insert(pos, Container::singleton(low));
                true
            }
        }
    }

    /// Removes `value`; returns `true` if it was present.
    pub fn remove(&mut self, value: u32) -> bool {
        let (key, low) = split(value);
        match self.keys.binary_search(&key) {
            Ok(pos) => {
                let removed = self.containers[pos].remove(low);
                if removed && self.containers[pos].is_empty() {
                    self.keys.remove(pos);
                    self.containers.remove(pos);
                }
                removed
            }
            Err(_) => false,
        }
    }

    /// Membership test.
    pub fn contains(&self, value: u32) -> bool {
        let (key, low) = split(value);
        match self.keys.binary_search(&key) {
            Ok(pos) => self.containers[pos].contains(low),
            Err(_) => false,
        }
    }

    /// Number of set values.
    pub fn cardinality(&self) -> u64 {
        self.containers.iter().map(|c| c.cardinality() as u64).sum()
    }

    /// `true` when no value is set.
    pub fn is_empty(&self) -> bool {
        self.keys.is_empty()
    }

    /// Removes all values, keeping allocations in the chunk index.
    pub fn clear(&mut self) {
        self.keys.clear();
        self.containers.clear();
    }

    /// Smallest set value, if any.
    pub fn min(&self) -> Option<u32> {
        let key = *self.keys.first()?;
        Some(join(key, self.containers.first()?.min()?))
    }

    /// Largest set value, if any.
    pub fn max(&self) -> Option<u32> {
        let key = *self.keys.last()?;
        Some(join(key, self.containers.last()?.max()?))
    }

    /// In-place union: `self |= other`. This is the hot operation of
    /// MVDCube's bitmap propagation (Algorithm 1, line 9).
    pub fn union_with(&mut self, other: &Bitmap) {
        let mut out_keys = Vec::with_capacity(self.keys.len() + other.keys.len());
        let mut out_containers = Vec::with_capacity(out_keys.capacity());
        let (mut i, mut j) = (0, 0);
        while i < self.keys.len() && j < other.keys.len() {
            match self.keys[i].cmp(&other.keys[j]) {
                std::cmp::Ordering::Less => {
                    out_keys.push(self.keys[i]);
                    out_containers.push(std::mem::take(&mut self.containers[i]));
                    i += 1;
                }
                std::cmp::Ordering::Greater => {
                    out_keys.push(other.keys[j]);
                    out_containers.push(other.containers[j].clone());
                    j += 1;
                }
                std::cmp::Ordering::Equal => {
                    let mut c = std::mem::take(&mut self.containers[i]);
                    c.union_with(&other.containers[j]);
                    out_keys.push(self.keys[i]);
                    out_containers.push(c);
                    i += 1;
                    j += 1;
                }
            }
        }
        while i < self.keys.len() {
            out_keys.push(self.keys[i]);
            out_containers.push(std::mem::take(&mut self.containers[i]));
            i += 1;
        }
        while j < other.keys.len() {
            out_keys.push(other.keys[j]);
            out_containers.push(other.containers[j].clone());
            j += 1;
        }
        self.keys = out_keys;
        self.containers = out_containers;
    }

    /// Unions several bitmaps into `self` in one k-way pass. Equivalent to
    /// calling [`Bitmap::union_with`] for each, but each chunk is merged
    /// once instead of re-merged (and re-allocated) per source — the
    /// cube engine's fan-in path, where one child cell absorbs every
    /// parent cell projecting onto it.
    pub fn union_with_all(&mut self, others: &[&Bitmap]) {
        match others {
            [] => return,
            [one] => return self.union_with(one),
            _ => {}
        }
        /// Where a chunk comes from: `self` (owned, movable) or a source
        /// bitmap (borrowed).
        enum Src<'a> {
            Own(usize),
            Other(&'a Container),
        }
        let own_keys = std::mem::take(&mut self.keys);
        let mut own_slots: Vec<Option<Container>> =
            std::mem::take(&mut self.containers).into_iter().map(Some).collect();
        let mut refs: Vec<(u16, Src<'_>)> =
            own_keys.iter().enumerate().map(|(i, &k)| (k, Src::Own(i))).collect();
        for other in others {
            refs.extend(
                other.keys.iter().copied().zip(other.containers.iter().map(Src::Other)),
            );
        }
        refs.sort_by_key(|(k, _)| *k);
        let mut i = 0;
        while i < refs.len() {
            let key = refs[i].0;
            let run_len = refs[i..].iter().take_while(|(k, _)| *k == key).count();
            let container = if run_len == 1 {
                // A chunk no one else shares: move our own, clone a source's.
                match &refs[i].1 {
                    Src::Own(idx) => own_slots[*idx].take().expect("own chunk taken once"),
                    Src::Other(c) => (*c).clone(),
                }
            } else {
                let group: Vec<&Container> = refs[i..i + run_len]
                    .iter()
                    .map(|(_, s)| match s {
                        Src::Own(idx) => own_slots[*idx].as_ref().expect("own chunk present"),
                        Src::Other(c) => *c,
                    })
                    .collect();
                Container::union_many(&group)
            };
            self.keys.push(key);
            self.containers.push(container);
            i += run_len;
        }
    }

    /// Owned union.
    pub fn union(&self, other: &Bitmap) -> Bitmap {
        let mut out = self.clone();
        out.union_with(other);
        out
    }

    /// Owned intersection.
    pub fn intersect(&self, other: &Bitmap) -> Bitmap {
        let mut out = Bitmap::new();
        let (mut i, mut j) = (0, 0);
        while i < self.keys.len() && j < other.keys.len() {
            match self.keys[i].cmp(&other.keys[j]) {
                std::cmp::Ordering::Less => i += 1,
                std::cmp::Ordering::Greater => j += 1,
                std::cmp::Ordering::Equal => {
                    let c = self.containers[i].intersect(&other.containers[j]);
                    if !c.is_empty() {
                        out.keys.push(self.keys[i]);
                        out.containers.push(c);
                    }
                    i += 1;
                    j += 1;
                }
            }
        }
        out
    }

    /// In-place intersection: `self &= other`, recycling this bitmap's
    /// chunk index and container allocations where the representation
    /// pair allows.
    pub fn intersect_with(&mut self, other: &Bitmap) {
        let mut w = 0usize;
        let mut j = 0usize;
        for i in 0..self.keys.len() {
            let key = self.keys[i];
            while j < other.keys.len() && other.keys[j] < key {
                j += 1;
            }
            if j < other.keys.len() && other.keys[j] == key {
                let mut c = std::mem::take(&mut self.containers[i]);
                c.intersect_with(&other.containers[j]);
                if !c.is_empty() {
                    self.keys[w] = key;
                    self.containers[w] = c;
                    w += 1;
                }
            }
        }
        self.keys.truncate(w);
        self.containers.truncate(w);
    }

    /// Cardinality of the intersection without materializing it. Used by the
    /// maximal-frequent-itemset miner for support counting.
    pub fn intersect_len(&self, other: &Bitmap) -> u64 {
        let mut total = 0u64;
        let (mut i, mut j) = (0, 0);
        while i < self.keys.len() && j < other.keys.len() {
            match self.keys[i].cmp(&other.keys[j]) {
                std::cmp::Ordering::Less => i += 1,
                std::cmp::Ordering::Greater => j += 1,
                std::cmp::Ordering::Equal => {
                    total += self.containers[i].intersect_len(&other.containers[j]) as u64;
                    i += 1;
                    j += 1;
                }
            }
        }
        total
    }

    /// Owned difference `self \ other`.
    pub fn and_not(&self, other: &Bitmap) -> Bitmap {
        let mut out = Bitmap::new();
        let mut j = 0;
        for (i, &key) in self.keys.iter().enumerate() {
            while j < other.keys.len() && other.keys[j] < key {
                j += 1;
            }
            if j < other.keys.len() && other.keys[j] == key {
                let c = self.containers[i].and_not(&other.containers[j]);
                if !c.is_empty() {
                    out.keys.push(key);
                    out.containers.push(c);
                }
            } else {
                out.keys.push(key);
                out.containers.push(self.containers[i].clone());
            }
        }
        out
    }

    /// `true` if the two bitmaps share no value.
    pub fn is_disjoint(&self, other: &Bitmap) -> bool {
        self.intersect_len(other) == 0
    }

    /// `true` if every value of `self` is in `other`.
    pub fn is_subset(&self, other: &Bitmap) -> bool {
        self.intersect_len(other) == self.cardinality()
    }

    /// Iterates the set values in increasing order.
    pub fn iter(&self) -> BitmapIter<'_> {
        BitmapIter { bm: self, chunk: 0, inner: None }
    }

    /// Number of values strictly smaller than `value`.
    pub fn rank(&self, value: u32) -> u64 {
        let (key, low) = split(value);
        let mut total = 0u64;
        for (i, &k) in self.keys.iter().enumerate() {
            if k < key {
                total += self.containers[i].cardinality() as u64;
            } else if k == key {
                total += self.containers[i].rank(low) as u64;
                break;
            } else {
                break;
            }
        }
        total
    }

    /// The `n`-th smallest value (0-based), if cardinality > n.
    pub fn select(&self, mut n: u64) -> Option<u32> {
        for (i, c) in self.containers.iter().enumerate() {
            let card = c.cardinality() as u64;
            if n < card {
                return Some(join(self.keys[i], c.select(n as u16)?));
            }
            n -= card;
        }
        None
    }

    /// Worst-case byte size bound from the paper's memory analysis (Sec. 4.3):
    /// `M_RB = 2·Z + 9·(u/65535 + 1) + 8` for `Z` integers in `[0, u)`.
    pub fn size_bound_bytes(cardinality: u64, universe: u64) -> u64 {
        2 * cardinality + 9 * (universe / 65535 + 1) + 8
    }

    /// Actual heap bytes used by container payloads (diagnostic).
    pub fn heap_bytes(&self) -> usize {
        self.keys.len() * 2 + self.containers.iter().map(|c| c.heap_bytes()).sum::<usize>()
    }

    /// Number of chunks currently using the dense bitset representation.
    pub fn bitset_containers(&self) -> usize {
        self.containers.iter().filter(|c| matches!(c, Container::Bitset(_))).count()
    }

    /// Number of chunks currently using the run (interval) representation.
    pub fn run_containers(&self) -> usize {
        self.containers.iter().filter(|c| matches!(c, Container::Run(_))).count()
    }

    /// The maximum cardinality of a (canonical) array container (4096).
    pub const fn dense_threshold() -> usize {
        ARRAY_TO_BITSET_THRESHOLD
    }

    /// Structural-invariant check (used by the property-test suite):
    /// keys strictly sorted, no empty chunks, and every container in its
    /// canonical (cheapest) representation with consistent cached stats.
    pub fn is_canonical(&self) -> bool {
        self.keys.len() == self.containers.len()
            && self.keys.windows(2).all(|w| w[0] < w[1])
            && self.containers.iter().all(|c| !c.is_empty() && c.is_canonical())
    }

    /// Collects the values into a `Vec` (ascending).
    pub fn to_vec(&self) -> Vec<u32> {
        let mut out = Vec::new();
        self.decode_into(&mut out);
        out
    }

    /// Appends all values (ascending) to `out` without clearing it —
    /// container-at-a-time, much faster than the value-at-a-time iterator
    /// on hot paths that can reuse one scratch buffer.
    pub fn decode_into(&self, out: &mut Vec<u32>) {
        out.reserve(self.cardinality() as usize);
        for (&key, container) in self.keys.iter().zip(&self.containers) {
            let high = (key as u32) << 16;
            match container {
                Container::Array(values) => {
                    out.extend(values.iter().map(|&low| high | low as u32));
                }
                Container::Run(rc) => {
                    for &(s, e) in rc.runs() {
                        out.extend((s as u32..=e as u32).map(|low| high | low));
                    }
                }
                Container::Bitset(bs) => {
                    for (w, &word) in bs.words().iter().enumerate() {
                        let mut bits = word;
                        while bits != 0 {
                            let b = bits.trailing_zeros();
                            out.push(high | ((w as u32) << 6) | b);
                            bits &= bits - 1;
                        }
                    }
                }
            }
        }
    }
}

impl std::fmt::Debug for Bitmap {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let card = self.cardinality();
        if card <= 16 {
            write!(f, "Bitmap{:?}", self.to_vec())
        } else {
            write!(f, "Bitmap{{card={}, min={:?}, max={:?}}}", card, self.min(), self.max())
        }
    }
}

impl FromIterator<u32> for Bitmap {
    fn from_iter<I: IntoIterator<Item = u32>>(iter: I) -> Self {
        Bitmap::from_iter(iter)
    }
}

impl<'a> IntoIterator for &'a Bitmap {
    type Item = u32;
    type IntoIter = BitmapIter<'a>;
    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

/// Ascending iterator over a [`Bitmap`].
pub struct BitmapIter<'a> {
    bm: &'a Bitmap,
    chunk: usize,
    inner: Option<container::ContainerIter<'a>>,
}

impl<'a> Iterator for BitmapIter<'a> {
    type Item = u32;

    fn next(&mut self) -> Option<u32> {
        loop {
            if let Some(inner) = &mut self.inner {
                if let Some(low) = inner.next() {
                    return Some(join(self.bm.keys[self.chunk - 1], low));
                }
                self.inner = None;
            }
            if self.chunk >= self.bm.containers.len() {
                return None;
            }
            self.inner = Some(self.bm.containers[self.chunk].iter());
            self.chunk += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_contains_remove() {
        let mut bm = Bitmap::new();
        assert!(bm.insert(42));
        assert!(!bm.insert(42));
        assert!(bm.contains(42));
        assert!(!bm.contains(41));
        assert!(bm.remove(42));
        assert!(!bm.remove(42));
        assert!(bm.is_empty());
    }

    #[test]
    fn cross_chunk_values() {
        let mut bm = Bitmap::new();
        for v in [0u32, 65_535, 65_536, 1 << 20, u32::MAX] {
            bm.insert(v);
        }
        assert_eq!(bm.cardinality(), 5);
        assert_eq!(bm.to_vec(), vec![0, 65_535, 65_536, 1 << 20, u32::MAX]);
        assert_eq!(bm.min(), Some(0));
        assert_eq!(bm.max(), Some(u32::MAX));
    }

    #[test]
    fn dense_conversion_roundtrip() {
        // Scattered (stride-2) values: run-hostile, so density alone
        // drives the representation.
        let mut bm = Bitmap::new();
        for v in (0..20_000u32).step_by(2) {
            bm.insert(v);
        }
        assert_eq!(bm.bitset_containers(), 1);
        assert_eq!(bm.cardinality(), 10_000);
        for v in (0..20_000).step_by(14) {
            assert!(bm.contains(v));
        }
        // Shrink below threshold again: representation converts back.
        for v in (200..20_000u32).step_by(2) {
            bm.remove(v);
        }
        assert_eq!(bm.cardinality(), 100);
        assert_eq!(bm.bitset_containers(), 0);
        assert!(bm.is_canonical());
    }

    #[test]
    fn contiguous_values_use_run_containers() {
        // The same cardinality clustered into one interval is a run
        // container — 4 bytes instead of 8 KiB.
        let bm = Bitmap::from_sorted_iter(0..10_000u32);
        assert_eq!(bm.run_containers(), 1);
        assert_eq!(bm.bitset_containers(), 0);
        assert_eq!(bm.cardinality(), 10_000);
        assert!(bm.heap_bytes() < 64);
        assert_eq!(bm.to_vec(), (0..10_000u32).collect::<Vec<_>>());
        assert!(bm.is_canonical());
    }

    #[test]
    fn union_models_fact_consolidation() {
        // The Lemma-1 scenario: one fact (id 7) sits in two parent cells;
        // OR-ing the parent bitmaps into the child keeps it a single member.
        let a = Bitmap::from_iter([7u32]);
        let b = Bitmap::from_iter([7u32]);
        let child = a.union(&b);
        assert_eq!(child.cardinality(), 1);
    }

    #[test]
    fn union_disjoint_and_overlapping() {
        let a = Bitmap::from_iter([1u32, 5, 100_000]);
        let b = Bitmap::from_iter([2u32, 5, 200_000]);
        let u = a.union(&b);
        assert_eq!(u.to_vec(), vec![1, 2, 5, 100_000, 200_000]);
    }

    #[test]
    fn intersect_and_difference() {
        let a = Bitmap::from_iter(0..100u32);
        let b = Bitmap::from_iter(50..150u32);
        assert_eq!(a.intersect(&b).cardinality(), 50);
        assert_eq!(a.intersect_len(&b), 50);
        assert_eq!(a.and_not(&b).to_vec(), (0..50).collect::<Vec<_>>());
        assert!(a.intersect(&b).is_subset(&a));
    }

    #[test]
    fn rank_select_are_inverse() {
        let values = [3u32, 17, 65_536, 65_540, 1_000_000];
        let bm = Bitmap::from_sorted(&values);
        for (i, &v) in values.iter().enumerate() {
            assert_eq!(bm.rank(v), i as u64);
            assert_eq!(bm.select(i as u64), Some(v));
        }
        assert_eq!(bm.select(5), None);
        assert_eq!(bm.rank(u32::MAX), 5);
    }

    #[test]
    fn from_sorted_matches_inserts() {
        let values: Vec<u32> = (0..5000).map(|i| i * 13).collect();
        let a = Bitmap::from_sorted(&values);
        let b = Bitmap::from_iter(values.iter().copied());
        assert_eq!(a, b);
    }

    #[test]
    fn paper_size_bound_formula() {
        // Beyond a fixed overhead for the universe size, RBs never use more
        // than 2 bytes per integer (Sec. 4.3).
        assert_eq!(Bitmap::size_bound_bytes(0, 65_534), 17);
        assert_eq!(Bitmap::size_bound_bytes(1000, 65_534), 2017);
        let b = Bitmap::size_bound_bytes(1_000_000, 1 << 30);
        assert!(b < 2 * 1_000_000 + 9 * ((1u64 << 30) / 65_535 + 2) + 8);
    }

    #[test]
    fn full_covers_range() {
        let bm = Bitmap::full(70_000);
        assert_eq!(bm.cardinality(), 70_000);
        assert!(bm.contains(0) && bm.contains(69_999) && !bm.contains(70_000));
    }

    #[test]
    fn iterator_is_sorted_across_chunks() {
        let mut bm = Bitmap::new();
        let mut values = vec![];
        for i in 0..2000u32 {
            let v = i.wrapping_mul(2_654_435_761) % 500_000;
            bm.insert(v);
            values.push(v);
        }
        values.sort_unstable();
        values.dedup();
        assert_eq!(bm.to_vec(), values);
    }
}

#[cfg(test)]
mod kway_tests {
    use super::*;

    /// Reference: fold pairwise `union_with` over the same inputs.
    fn pairwise(base: &Bitmap, others: &[&Bitmap]) -> Bitmap {
        let mut out = base.clone();
        for o in others {
            out.union_with(o);
        }
        out
    }

    fn bm(values: &[u32]) -> Bitmap {
        Bitmap::from_iter(values.iter().copied())
    }

    #[test]
    fn union_with_all_matches_pairwise_folds() {
        let cases: Vec<(Bitmap, Vec<Bitmap>)> = vec![
            // Overlapping single-chunk arrays.
            (bm(&[1, 5, 9]), vec![bm(&[2, 5]), bm(&[9, 10, 11]), bm(&[0])]),
            // Chunks unique to self, to one source, and shared.
            (bm(&[3, 70_000]), vec![bm(&[200_000, 200_001]), bm(&[70_001, 3])]),
            // Empty self, empty source.
            (Bitmap::new(), vec![bm(&[8, 9]), Bitmap::new(), bm(&[8])]),
            // Dense: cross the array→bitset threshold during the union.
            (
                Bitmap::from_iter(0..3000u32),
                vec![Bitmap::from_iter(2000..5000u32), Bitmap::from_iter(4000..4096u32)],
            ),
            // A source that is already a bitset container.
            (bm(&[1]), vec![Bitmap::from_iter(0..6000u32)]),
        ];
        for (i, (base, sources)) in cases.iter().enumerate() {
            let refs: Vec<&Bitmap> = sources.iter().collect();
            let mut kway = base.clone();
            kway.union_with_all(&refs);
            let folded = pairwise(base, &refs);
            assert_eq!(kway.to_vec(), folded.to_vec(), "case {i}: values");
            assert_eq!(kway.cardinality(), folded.cardinality(), "case {i}: cardinality");
            // Same representation choice as the pairwise path, so
            // downstream memory accounting and equality agree.
            assert_eq!(
                kway.bitset_containers(),
                folded.bitset_containers(),
                "case {i}: representation"
            );
            assert_eq!(kway, folded, "case {i}: full equality");
        }
    }

    #[test]
    fn union_with_all_trivial_arities() {
        let mut a = bm(&[1, 2]);
        a.union_with_all(&[]);
        assert_eq!(a.to_vec(), vec![1, 2]);
        let b = bm(&[2, 3]);
        a.union_with_all(&[&b]);
        assert_eq!(a.to_vec(), vec![1, 2, 3]);
    }

    #[test]
    fn union_many_representation_thresholds() {
        // All-array, small, scattered: stays an array container.
        let small_a = Container::from_sorted_lows(&[1, 3, 5]);
        let small_b = Container::from_sorted_lows(&[5, 8]);
        let merged = Container::union_many(&[&small_a, &small_b]);
        assert!(matches!(merged, Container::Array(_)));
        assert_eq!(merged.cardinality(), 4);

        // All-array but summed length above the threshold with actual
        // cardinality below it: converts back to an array.
        let lows: Vec<u16> = (0..8000u16).step_by(2).collect();
        let dup = Container::from_sorted_lows(&lows);
        let dup2 = Container::from_sorted_lows(&lows);
        let merged = Container::union_many(&[&dup, &dup2]);
        assert!(matches!(merged, Container::Array(_)), "dedup below threshold");
        assert_eq!(merged.cardinality(), 4000);

        // Scattered above the threshold for real: becomes a bitset.
        let lo: Vec<u16> = (0..6000u16).step_by(2).collect();
        let hi: Vec<u16> = (5000..11_000u16).step_by(2).collect();
        let merged = Container::union_many(&[
            &Container::from_sorted_lows(&lo),
            &Container::from_sorted_lows(&hi),
        ]);
        assert!(matches!(merged, Container::Bitset(_)));
        assert_eq!(merged.cardinality(), 5500);

        // Clustered above the threshold: the run representation wins.
        let lo: Vec<u16> = (0..3000u16).collect();
        let hi: Vec<u16> = (2500..6000u16).collect();
        let merged = Container::union_many(&[
            &Container::from_sorted_lows(&lo),
            &Container::from_sorted_lows(&hi),
        ]);
        assert!(matches!(merged, Container::Run(_)));
        assert_eq!(merged.cardinality(), 6000);
        assert!(merged.is_canonical());
    }

    #[test]
    fn decode_into_appends_and_matches_iter() {
        // Mixed array + bitset chunks.
        let mut bm = Bitmap::from_iter((0..5000u32).chain([70_000, 200_123]));
        bm.remove(1234);
        let via_iter: Vec<u32> = bm.iter().collect();
        let mut out = vec![999u32]; // must append, not clear
        bm.decode_into(&mut out);
        assert_eq!(out[0], 999);
        assert_eq!(&out[1..], &via_iter[..]);
        assert_eq!(bm.to_vec(), via_iter);
    }
}
