//! TED kernel gate: the SIMD kernel timed against the scalar kernel it
//! falls back to (`KernelMode::Full`), on a fixed subset of the Fig. 8
//! pairs — CloverLeaf's `T_sem` row from Serial, nine pairs — best of 3
//! each, modes interleaved, in one process.  Dividing one kernel's time by
//! the other's cancels most of the host's speed, so the ratio can gate CI
//! on any runner.  Every distance must be identical across the two modes.
//! Exits non-zero when simd/scalar reaches [`MAX_RATIO`] on a host whose
//! dispatch picked a vector tier; on a scalar-only host (or under
//! `SV_NO_SIMD=1`) both modes run the same kernel and the ratio is only
//! printed.
//!
//! ```sh
//! cargo run --release --example ted_ratio -p bench
//! ```

use std::time::Instant;
use svcorpus::{unit, App, Model};
use svdist::ted::{ted_with_mode, KernelMode};
use svdist::{active_kernel_name, CostModel, Strategy};
use svtree::Tree;

/// Upper bound on simd/scalar.  On a 2-core AVX-512 host the ratio read
/// 0.497–0.733 over 24 runs.  With `SV_NO_SIMD=1` both modes run the
/// scalar kernel and it read 0.888–1.213 over 10 runs, which is what a
/// vector kernel that silently fell back to scalar would read: every one
/// of them is above the bound (EXPERIMENTS.md).  The AVX2 and SSE4.1
/// tiers were not measured.
const MAX_RATIO: f64 = 0.85;

const REPEATS: usize = 3;

/// Distances of `base` against every tree in `others` under `mode`.
fn row(base: &Tree, others: &[Tree], mode: KernelMode) -> Vec<u64> {
    others.iter().map(|t| ted_with_mode(base, t, CostModel::UNIT, Strategy::Auto, mode)).collect()
}

fn main() {
    let trees: Vec<Tree> = Model::ALL
        .iter()
        .map(|&m| {
            let u = unit(App::CloverLeaf, m).unwrap_or_else(|e| panic!("CloverLeaf/{m:?}: {e}"));
            u.t_sem
        })
        .collect();
    let (base, others) = trees.split_first().expect("Serial comes first");

    let mut best = [f64::INFINITY; 2];
    let mut reference: Option<Vec<u64>> = None;
    for _ in 0..REPEATS {
        for (k, mode) in [KernelMode::Full, KernelMode::Simd].into_iter().enumerate() {
            let t = Instant::now();
            let dists = row(base, others, mode);
            best[k] = best[k].min(t.elapsed().as_secs_f64() * 1e3);
            match &reference {
                None => reference = Some(dists),
                Some(r) => assert_eq!(&dists, r, "{} changed a distance", mode.name()),
            }
        }
    }

    let [scalar_ms, simd_ms] = best;
    let ratio = simd_ms / scalar_ms;
    let kernel = active_kernel_name();
    println!(
        "kernel={kernel} pairs={} scalar_ms={scalar_ms:.1} simd_ms={simd_ms:.1} simd/scalar={ratio:.3} (bound {MAX_RATIO})",
        others.len()
    );
    let lanes_live = kernel != "scalar" && !kernel.contains("SV_NO_SIMD");
    if lanes_live && ratio >= MAX_RATIO {
        eprintln!("ted_ratio: simd/scalar {ratio:.3} reached the {MAX_RATIO} bound on {kernel}");
        std::process::exit(1);
    }
}
