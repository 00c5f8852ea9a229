//! Port-candidate ranking: generate a seeded population of parallel-port
//! variants of a mini-app, gate each one for correctness against the
//! serial baseline, score the survivors by Φ × TBMD-resemblance, and
//! print the ranked leaderboard with its navigation-chart placement.
//!
//! ```sh
//! cargo run --release --example port_ranking
//! ```

use silvervale::evaluate_ports;
use svcorpus::App;
use svport::GateClass;

fn main() {
    let app = App::BabelStream;
    let (n, seed) = (32, 42);
    let board = evaluate_ports(app, n, seed).expect("evaluation failed");

    println!("{}", board.render());
    println!("{}", board.nav_chart().render());

    let counts = board.class_counts();
    println!("gate summary for {} ({n} candidates, seed {seed}):", app.name());
    for (class, k) in &counts {
        println!("  {:<13} {k:>3}", class.name());
    }

    // The headline: the best correct candidate per model family.
    println!("\nbest correct port per model:");
    let mut seen = Vec::new();
    for row in &board.rows {
        if row.class != GateClass::Correct || seen.contains(&row.model) {
            continue;
        }
        seen.push(row.model);
        println!(
            "  {:<14} {} score {:.3} (Φ {:.3}, TBMD {:.3})",
            row.model.name(),
            row.label,
            row.score,
            row.phi,
            row.tbmd_sem.unwrap_or(f64::NAN),
        );
    }
}
