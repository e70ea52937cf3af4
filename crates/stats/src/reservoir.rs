//! Reservoir sampling (Vitter's Algorithm R).
//!
//! Section 5.3: "We allocate empty reservoirs R₁, …, R_G, one per aggregate
//! group, each with a capacity equal to the sample size: this way we ensure
//! stratification. While reading each tuple, we determine its group, hence
//! also the reservoir, and either put the fact in or not with some
//! probability. If the reservoir is full, we discard one of the previously
//! inserted facts. This strategy is known as reservoir sampling and
//! guarantees a choice of a simple random sample \[44\]."

use rand::Rng;

/// A fixed-capacity uniform sample of a stream.
#[derive(Clone, Debug)]
pub struct Reservoir<T> {
    items: Vec<T>,
    capacity: usize,
    seen: u64,
}

impl<T> Reservoir<T> {
    /// Creates an empty reservoir with room for `capacity` items.
    pub fn new(capacity: usize) -> Self {
        // Most reservoirs see far fewer items than their capacity (sparse
        // groups), so grow lazily instead of preallocating `capacity` slots.
        Reservoir { items: Vec::new(), capacity, seen: 0 }
    }

    /// Offers one stream element; it is retained with probability
    /// `capacity / seen` (Algorithm R).
    pub fn offer<R: Rng>(&mut self, item: T, rng: &mut R) {
        self.seen += 1;
        if self.items.len() < self.capacity {
            self.items.push(item);
        } else if self.capacity > 0 {
            let j = rng.gen_range(0..self.seen);
            if (j as usize) < self.capacity {
                self.items[j as usize] = item;
            }
        }
    }

    /// The sampled items (unordered).
    pub fn items(&self) -> &[T] {
        &self.items
    }

    /// Consumes the reservoir, returning the sample.
    pub fn into_items(self) -> Vec<T> {
        self.items
    }

    /// Total number of elements offered so far — the (exact) stream size,
    /// used as the group-size estimate `c_i` of Appendix B.
    pub fn seen(&self) -> u64 {
        self.seen
    }

    /// Number of items currently held.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// `true` when no item has been retained.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Configured capacity (the paper's per-group sample size).
    pub fn capacity(&self) -> usize {
        self.capacity
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn holds_entire_small_stream() {
        let mut rng = SmallRng::seed_from_u64(1);
        let mut r = Reservoir::new(10);
        for i in 0..5 {
            r.offer(i, &mut rng);
        }
        let mut items = r.items().to_vec();
        items.sort_unstable();
        assert_eq!(items, vec![0, 1, 2, 3, 4]);
        assert_eq!(r.seen(), 5);
    }

    #[test]
    fn caps_at_capacity() {
        let mut rng = SmallRng::seed_from_u64(2);
        let mut r = Reservoir::new(16);
        for i in 0..10_000 {
            r.offer(i, &mut rng);
        }
        assert_eq!(r.len(), 16);
        assert_eq!(r.seen(), 10_000);
    }

    #[test]
    fn zero_capacity_is_safe() {
        let mut rng = SmallRng::seed_from_u64(3);
        let mut r = Reservoir::new(0);
        for i in 0..100 {
            r.offer(i, &mut rng);
        }
        assert!(r.is_empty());
        assert_eq!(r.seen(), 100);
    }

    #[test]
    fn sample_is_approximately_uniform() {
        // Each of 100 stream elements should land in a 10-slot reservoir with
        // probability 1/10; over many trials the per-element inclusion
        // frequency must concentrate around 0.1.
        let mut rng = SmallRng::seed_from_u64(4);
        let trials = 20_000;
        let mut hits = [0u32; 100];
        for _ in 0..trials {
            let mut r = Reservoir::new(10);
            for i in 0..100usize {
                r.offer(i, &mut rng);
            }
            for &i in r.items() {
                hits[i] += 1;
            }
        }
        for (i, &h) in hits.iter().enumerate() {
            let freq = h as f64 / trials as f64;
            // 5-sigma band for a Binomial(20000, 0.1) proportion ≈ ±0.0106.
            assert!((freq - 0.1).abs() < 0.011, "element {i} sampled with frequency {freq}");
        }
    }

    #[test]
    fn mean_of_sample_estimates_stream_mean() {
        let mut rng = SmallRng::seed_from_u64(5);
        let stream: Vec<f64> = (0..5000).map(|i| (i % 97) as f64).collect();
        let true_mean = stream.iter().sum::<f64>() / stream.len() as f64;
        let mut estimates = Vec::new();
        for _ in 0..300 {
            let mut r = Reservoir::new(60);
            for &x in &stream {
                r.offer(x, &mut rng);
            }
            estimates.push(r.items().iter().sum::<f64>() / r.len() as f64);
        }
        let avg = estimates.iter().sum::<f64>() / estimates.len() as f64;
        assert!((avg - true_mean).abs() < 1.5, "avg estimate {avg} vs {true_mean}");
    }
}
