//! Property tests: the maximal-frequent-set miner against a brute-force
//! enumeration of all attribute subsets.

use proptest::prelude::*;
use spade_bitmap::Bitmap;
use spade_core::mfs::{maximal_frequent_sets, Item};
use spade_core::Exec;

#[allow(clippy::needless_range_loop)]
fn brute_force_maximal(
    tidsets: &[Vec<u32>],
    min_count: u64,
    max_size: usize,
) -> Vec<Vec<usize>> {
    let n = tidsets.len();
    let frequent: Vec<(u32, u64)> = (0u32..(1 << n))
        .filter(|&mask| mask != 0 && mask.count_ones() as usize <= max_size)
        .filter_map(|mask| {
            let mut inter: Option<Vec<u32>> = None;
            for i in 0..n {
                if mask & (1 << i) != 0 {
                    inter = Some(match inter {
                        None => tidsets[i].clone(),
                        Some(prev) => {
                            prev.iter().copied().filter(|v| tidsets[i].contains(v)).collect()
                        }
                    });
                }
            }
            let support = inter.map(|v| v.len() as u64).unwrap_or(0);
            (support >= min_count).then_some((mask, support))
        })
        .collect();
    let masks: Vec<u32> = frequent.iter().map(|(m, _)| *m).collect();
    let mut maximal: Vec<Vec<usize>> = masks
        .iter()
        .filter(|&&m| {
            !masks.iter().any(|&other| {
                other != m && other & m == m && (other.count_ones() as usize) <= max_size
            })
        })
        .map(|&m| (0..n).filter(|i| m & (1 << i) != 0).collect())
        .collect();
    maximal.sort();
    maximal
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn miner_matches_bruteforce(
        tidsets in prop::collection::vec(
            prop::collection::btree_set(0u32..30, 0..20)
                .prop_map(|s| s.into_iter().collect::<Vec<u32>>()),
            1..7,
        ),
        min_count in 1u64..6,
        max_size in 1usize..5,
    ) {
        let items: Vec<Item> = tidsets
            .iter()
            .enumerate()
            .map(|(attr, tids)| Item { attr, tidset: Bitmap::from_sorted(tids) })
            .collect();
        let got = maximal_frequent_sets(&items, min_count, max_size, |_, _| true, &Exec::new(1)).unwrap();
        let expected = brute_force_maximal(&tidsets, min_count, max_size);
        prop_assert_eq!(got, expected);
    }
}
