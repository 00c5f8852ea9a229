//! Quick SIMD-vs-scalar kernel probe: one timed sweep of the Fig. 8 pair
//! set per mode, on the widest lane tier the CPU supports (`SV_NO_SIMD=1`
//! forces the scalar kernel).
//! For tuning iterations only — the gated numbers come from
//! `bench/benches/ted_kernel.rs`.

use silvervale::index_app;
use std::time::Instant;
use svcorpus::App;
use svdist::ted::{dp_cell_estimate, ted_with_mode, KernelMode};
use svdist::{active_kernel_name, CostModel, DistanceMatrix, Strategy};
use svtree::Tree;

fn main() {
    let db = index_app(App::CloverLeaf, false).expect("index cloverleaf");
    let n = db.labels().len();
    let pairs = DistanceMatrix::upper_pairs(n);
    let trees: Vec<Tree> = db.entries.iter().map(|e| e.artifacts.t_sem.tree().clone()).collect();
    let cells: u64 =
        pairs.iter().map(|&(i, j)| dp_cell_estimate(&trees[i], &trees[j], Strategy::Auto)).sum();
    println!("total DP cells: {cells}");

    let sweep = |mode: KernelMode| {
        let t = Instant::now();
        let d: Vec<u64> = pairs
            .iter()
            .map(|&(i, j)| {
                ted_with_mode(&trees[i], &trees[j], CostModel::UNIT, Strategy::Auto, mode)
            })
            .collect();
        (t.elapsed().as_secs_f64() * 1e3, d)
    };

    // Warm up arenas and page cache, then measure.
    let (_, reference) = sweep(KernelMode::Full);
    let iters: usize = std::env::args().nth(1).and_then(|s| s.parse().ok()).unwrap_or(3);
    for _ in 0..iters {
        let (full_ms, _) = sweep(KernelMode::Full);
        let (simd_ms, d) = sweep(KernelMode::Simd);
        assert_eq!(d, reference, "SIMD changed a distance");
        println!(
            "kernel={:<14} full={full_ms:7.1} ms  simd={simd_ms:7.1} ms  speedup={:.3}x",
            active_kernel_name(),
            full_ms / simd_ms
        );
    }
}
