//! Host calibration: a fixed in-process kernel whose time tells a host
//! shift from a code change. It is reported, never applied to a metric.

use std::hint::black_box;

use swiper::core::knapsack::{max_profit_dp, Item};
use swiper::crypto::hash::digest;

/// Bytes hashed per calibration run.
const HASH_BYTES: usize = 8 << 20;
/// Items of the fixed knapsack instance.
const DP_ITEMS: u64 = 2_000;

/// Median time of five runs of the fixed kernel, in milliseconds.
pub fn host_calib_ms() -> f64 {
    let data: Vec<u8> =
        (0..HASH_BYTES).map(|i| (i as u64).wrapping_mul(2_654_435_761) as u8).collect();
    let items: Vec<Item> = (0..DP_ITEMS)
        .map(|i| Item {
            profit: 1 + i % 4,
            weight: 1 + (i.wrapping_mul(6_364_136_223_846_793_005) >> 44),
        })
        .collect();
    let capacity: u128 = items.iter().map(|it| u128::from(it.weight)).sum::<u128>() / 3;
    let mut times: Vec<f64> = (0..5)
        .map(|_| {
            crate::harness::timed(|| {
                black_box(digest(black_box(&data)));
                black_box(max_profit_dp(black_box(&items), capacity, 2_500));
            })
            .1
        })
        .collect();
    times.sort_by(f64::total_cmp);
    times[2]
}
