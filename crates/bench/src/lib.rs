//! # bench — figure/table regeneration harness
//!
//! Every bench target regenerates one table or figure of the paper: it
//! prints the figure to stdout, writes a CSV/text artefact under
//! `target/figures/`, and then Criterion-benchmarks the computation that
//! produces it.  Run everything with `cargo bench` and find the artefacts
//! in `target/figures/`.

pub mod approx;

use std::fs;
use std::path::PathBuf;

/// Directory where regenerated figures/tables are written.
pub fn figures_dir() -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../target/figures");
    fs::create_dir_all(&dir).expect("create figures dir");
    dir
}

/// Save a regenerated figure artefact and echo it to stdout.
pub fn save_figure(name: &str, content: &str) {
    let path = figures_dir().join(name);
    fs::write(&path, content).expect("write figure");
    println!("── {name} ──");
    // Keep terminal output bounded for very large artefacts.
    let mut lines = 0;
    for line in content.lines() {
        println!("{line}");
        lines += 1;
        if lines > 80 {
            println!("… ({} more lines in {})", content.lines().count() - lines, path.display());
            break;
        }
    }
    println!();
}

/// Small Criterion config used by all figure benches: the figures
/// themselves are deterministic, so a handful of samples suffices.
pub fn criterion() -> criterion::Criterion {
    criterion::Criterion::default()
        .sample_size(10)
        .warm_up_time(std::time::Duration::from_millis(300))
        .measurement_time(std::time::Duration::from_millis(800))
}
