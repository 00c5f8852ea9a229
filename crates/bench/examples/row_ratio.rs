//! Fan-out overhead gate: one sub-millisecond divergence row — miniBUDE's
//! `Source` row from Serial, ten pairs of O(NP) line distances — timed
//! through `svmetrics::divergence_row` (pairs fanned out over the svpar
//! pool) against the per-pair `divergence()` loop on the calling thread,
//! best of [`REPEATS`] each, interleaved, in one process.  A row this small
//! is where handing work to other threads costs most relative to the work,
//! so the ratio measures what a `par_*` call costs; dividing by the loop's
//! time cancels most of the host's speed, so it can gate CI on any runner.
//! Both must give bit-identical divergences.  Exits non-zero when
//! row/loop reaches [`MAX_RATIO`].
//!
//! ```sh
//! cargo run --release --example row_ratio -p bench
//! ```

use silvervale::index_app;
use std::time::Instant;
use svcorpus::App;
use svmetrics::{divergence, divergence_row, Divergence, Measured, Metric, Variant};

/// Upper bound on row/loop.  On a 2-core AVX-512 host a row that spawned
/// fresh threads for every call read 1.041–1.222 over 18 runs, and the
/// row on the persistent pool reads 0.830–0.949 over 18 runs, so the bound
/// fails the former every time and passes the latter (EXPERIMENTS.md).
const MAX_RATIO: f64 = 1.0;

const REPEATS: usize = 300;

fn bits(row: &[Divergence]) -> Vec<(u64, u64)> {
    row.iter().map(|d| (d.distance, d.dmax)).collect()
}

fn main() {
    let db = index_app(App::MiniBude, false).expect("index miniBUDE");
    let units: Vec<Measured<'_>> = db.entries.iter().map(|e| Measured::of(&e.artifacts)).collect();
    let base = &units[0];
    let (metric, v) = (Metric::Source, Variant::PLAIN);

    let reference = bits(&units.iter().map(|u| divergence(metric, v, base, u)).collect::<Vec<_>>());
    let mut best = [f64::INFINITY; 2];
    for _ in 0..REPEATS {
        let t = Instant::now();
        let looped: Vec<Divergence> =
            units.iter().map(|u| divergence(metric, v, base, u)).collect();
        best[0] = best[0].min(t.elapsed().as_secs_f64() * 1e3);
        assert_eq!(bits(&looped), reference, "the loop changed a divergence");

        let t = Instant::now();
        let row = divergence_row(metric, v, base, &units, None);
        best[1] = best[1].min(t.elapsed().as_secs_f64() * 1e3);
        assert_eq!(bits(&row), reference, "divergence_row differs from the per-pair loop");
    }

    let [loop_ms, row_ms] = best;
    let ratio = row_ms / loop_ms;
    println!(
        "pairs={} threads={} loop_ms={loop_ms:.4} row_ms={row_ms:.4} row/loop={ratio:.3} (bound {MAX_RATIO})",
        units.len(),
        svpar::num_threads()
    );
    if ratio >= MAX_RATIO {
        eprintln!("row_ratio: row/loop {ratio:.3} reached the {MAX_RATIO} bound");
        std::process::exit(1);
    }
}
