//! The benchmark's one percentile rule.
//!
//! Every percentile is **nearest rank**: the `p`-th percentile of `n`
//! ascending samples is the sample at 1-based rank `ceil(p/100 × n)`.
//! Percentiles are given in per-mille (`500` = p50, `999` = p99.9) so the
//! rank is exact integer arithmetic, never a float that lands a hair above
//! a whole number.
//!
//! A **tail** percentile is reported only when at least
//! [`MIN_BEYOND`] samples lie strictly beyond its rank; the reported tail
//! is the highest of [`TAIL_PERMILLE`] that qualifies. With fewer than
//! `10 / (1 − p)` samples a "p99" is just the maximum of a few samples,
//! which is noise, not a tail.

/// Samples that must lie beyond a tail percentile's rank.
pub const MIN_BEYOND: usize = 10;

/// Candidate tail percentiles in per-mille, highest first.
pub const TAIL_PERMILLE: [u32; 3] = [999, 990, 900];

/// 1-based nearest rank of the `permille` percentile among `n` samples
/// (`n ≥ 1`, `permille ≤ 1000`).
pub fn rank(n: usize, permille: u32) -> usize {
    let rank = (n * permille as usize).div_ceil(1000);
    rank.clamp(1, n)
}

/// The `permille` percentile of ascending `sorted` samples, or `None`
/// when there are none.
pub fn percentile(sorted: &[f64], permille: u32) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    Some(sorted[rank(sorted.len(), permille) - 1])
}

/// A reported tail: which percentile, its value, and how many samples
/// lie beyond it.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Tail {
    pub permille: u32,
    pub value: f64,
    pub beyond: usize,
}

impl Tail {
    /// The percentile label, e.g. `p99.9`.
    pub fn label(&self) -> String {
        if self.permille.is_multiple_of(10) {
            format!("p{}", self.permille / 10)
        } else {
            format!("p{}.{}", self.permille / 10, self.permille % 10)
        }
    }
}

/// The highest tail percentile with at least [`MIN_BEYOND`] samples
/// beyond it, or `None` when even p90 lacks them (fewer than 100 samples).
pub fn tail(sorted: &[f64]) -> Option<Tail> {
    let n = sorted.len();
    TAIL_PERMILLE.iter().find_map(|&permille| {
        let r = rank(n.max(1), permille);
        let beyond = n.saturating_sub(r);
        (n > 0 && beyond >= MIN_BEYOND).then(|| Tail { permille, value: sorted[r - 1], beyond })
    })
}

/// Sorts a copy ascending and returns its p50, or `None` when empty.
pub fn median(values: &[f64]) -> Option<f64> {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    percentile(&sorted, 500)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rank_is_nearest_rank() {
        // p50 of 4 samples is the 2nd; of 5 the 3rd.
        assert_eq!(rank(4, 500), 2);
        assert_eq!(rank(5, 500), 3);
        // p99 of 100 samples is the 99th, of 101 the 100th.
        assert_eq!(rank(100, 990), 99);
        assert_eq!(rank(101, 990), 100);
        // p99.9 of 1000 samples is the 999th: exact integer arithmetic.
        assert_eq!(rank(1000, 999), 999);
        assert_eq!(rank(1001, 999), 1000);
        // Tiny samples clamp to the first and last ranks.
        assert_eq!(rank(1, 10), 1);
        assert_eq!(rank(8, 990), 8);
        assert_eq!(rank(3, 1000), 3);
    }

    #[test]
    fn percentile_picks_a_sample() {
        let sorted: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&sorted, 500), Some(5.0));
        assert_eq!(percentile(&sorted, 900), Some(9.0));
        assert_eq!(percentile(&sorted, 910), Some(10.0));
        assert_eq!(percentile(&[], 500), None);
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
    }

    #[test]
    fn eight_samples_have_no_tail() {
        // The old serving bench called the maximum of 8 samples "p99".
        let sorted: Vec<f64> = (1..=8).map(f64::from).collect();
        assert_eq!(tail(&sorted), None);
        assert_eq!(tail(&[]), None);
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        let sorted = |n: usize| (1..=n).map(|i| i as f64).collect::<Vec<f64>>();
        // 99 samples: p90 rank 90 leaves 9 beyond — not reportable.
        assert_eq!(tail(&sorted(99)), None);
        // 100 samples: p90 rank 90 leaves exactly 10 beyond.
        assert_eq!(tail(&sorted(100)), Some(Tail { permille: 900, value: 90.0, beyond: 10 }));
        // 999 samples: p99 rank 990 leaves 9 beyond, so still p90.
        assert_eq!(tail(&sorted(999)).map(|t| t.permille), Some(900));
        // 1000 samples: p99 qualifies.
        assert_eq!(tail(&sorted(1000)), Some(Tail { permille: 990, value: 990.0, beyond: 10 }));
        // 10_000 samples: p99.9 qualifies.
        let t = tail(&sorted(10_000)).expect("tail");
        assert_eq!((t.permille, t.beyond, t.label()), (999, 10, "p99.9".to_owned()));
        assert_eq!(Tail { permille: 990, value: 0.0, beyond: 0 }.label(), "p99");
    }
}
