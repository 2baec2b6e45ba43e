//! Figure 3: scalability of thread-based vs warp-based selection scans as
//! the number of RRR sets N grows (k = 100).

use eim_core::select::{select_on_device, ScanStrategy};
use eim_gpusim::{Device, DeviceSpec};
use eim_imm::{RrrSets, RrrStore, RrrStoreBuilder};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

use crate::Table;

/// Builds the Figure 3 series: simulated scan time for both strategies over
/// a doubling range of set counts.
pub fn fig3_scan_scaling(k: usize, max_log2_sets: u32, seed: u64) -> Table {
    let n = 1 << 16;
    let device = Device::new(DeviceSpec::rtx_a6000());
    let mut t = Table::new([
        "N (sets)",
        "thread-based (ms)",
        "warp-based (ms)",
        "warp/thread",
    ]);
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut store = RrrStore::new(n, false);
    let mut target = 1usize << 12;
    while store.num_sets() < (1usize << max_log2_sets) {
        // Grow the store to the next point.
        while store.num_sets() < target {
            let len = rng.gen_range(2..16);
            let mut set: Vec<u32> = (0..len).map(|_| rng.gen_range(0..n as u32)).collect();
            set.sort_unstable();
            set.dedup();
            store.append_set(&set);
        }
        let thread = select_on_device(&device, &store, k, ScanStrategy::ThreadPerSet);
        let warp = select_on_device(&device, &store, k, ScanStrategy::WarpPerSet);
        t.row([
            store.num_sets().to_string(),
            format!("{:.3}", thread.elapsed_us / 1000.0),
            format!("{:.3}", warp.elapsed_us / 1000.0),
            format!("{:.2}", warp.elapsed_us / thread.elapsed_us),
        ]);
        target *= 2;
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn thread_strategy_wins_at_the_top_of_the_range() {
        let t = fig3_scan_scaling(20, 17, 3);
        let csv = t.to_csv();
        let last = csv.lines().last().unwrap();
        let ratio: f64 = last.split(',').nth(3).unwrap().parse().unwrap();
        assert!(ratio > 1.0, "warp/thread ratio at max N: {ratio} ({last})");
        // And the ratio grows monotonically-ish from the first to the last
        // point (crossover behaviour).
        let first = csv.lines().nth(1).unwrap();
        let first_ratio: f64 = first.split(',').nth(3).unwrap().parse().unwrap();
        assert!(ratio > first_ratio);
    }
}
