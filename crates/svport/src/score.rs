//! Scoring pipeline: correctness × TBMD × Φ → ranked leaderboard.
//!
//! Every gated candidate that built gets a TBMD against the serial
//! baseline: one [`svmetrics::divergence_row`] per metric (`T_sem`,
//! `T_src`) over the *deduplicated* candidate set, which fans the TED
//! pairs out over the LPT scheduler like the model-set matrices and
//! normalises each by the candidate's tree size (Eq. 7), as the served
//! `evaluate` does.  Φ comes from the `svperf` fleet simulator for the
//! candidate's programming model.  The rank score follows the navigation
//! chart's convention ([`NavigationChart::ranked`]):
//!
//! ```text
//! score = Φ · 1/(1 + TBMD_sem)    for correct candidates, else 0
//! ```

use std::collections::HashMap;

use crate::gate::{baseline_run, gate, BaselineRun, GateClass, Gated, PortError};
use crate::gen::{generate, source_fingerprint, Candidate};
use svcorpus::{unit, App, Model};
use svmetrics::{divergence_row, Measured, Metric, Variant};
use svperf::{phi_all, NavPoint, NavigationChart};

/// One candidate after gating and scoring.
#[derive(Debug, Clone)]
pub struct ScoredCandidate {
    pub id: usize,
    pub label: String,
    pub model: Model,
    pub class: GateClass,
    pub detail: String,
    /// FNV-1a fingerprint of the candidate source (duplicate detector).
    pub fingerprint: u64,
    pub edits: Vec<String>,
    /// Normalised semantic-tree divergence vs the serial baseline
    /// (`None` when the candidate did not build).
    pub tbmd_sem: Option<f64>,
    /// Normalised source-tree divergence vs the serial baseline.
    pub tbmd_src: Option<f64>,
    /// Φ over the full simulated fleet for the candidate's model.
    pub phi: f64,
    /// `Φ/(1+TBMD_sem)` for correct candidates, 0 otherwise.
    pub score: f64,
}

/// The rank score: Φ discounted by semantic divergence, zeroed for any
/// candidate that failed the gate.
pub fn score_value(class: GateClass, phi: f64, tbmd_sem: Option<f64>) -> f64 {
    match (class, tbmd_sem) {
        (GateClass::Correct, Some(d)) => phi * (1.0 / (1.0 + d)),
        _ => 0.0,
    }
}

/// Ranked candidate population for one app.
#[derive(Debug, Clone)]
pub struct Leaderboard {
    pub app: App,
    pub seed: u64,
    /// Rows sorted best-first (score descending, candidate id ascending).
    pub rows: Vec<ScoredCandidate>,
}

impl Leaderboard {
    /// How many candidates landed in each gate class.
    pub fn class_counts(&self) -> [(GateClass, usize); 4] {
        let mut out = GateClass::ALL.map(|c| (c, 0usize));
        for r in &self.rows {
            out[r.class as usize].1 += 1;
        }
        out
    }

    /// Fixed-width text leaderboard.
    pub fn render(&self) -> String {
        let counts = self
            .class_counts()
            .iter()
            .map(|(c, n)| format!("{n} {}", c.name()))
            .collect::<Vec<_>>()
            .join(", ");
        let mut s = format!(
            "Port-candidate leaderboard — {} (seed {}, {} candidates: {})\n",
            self.app.name(),
            self.seed,
            self.rows.len(),
            counts
        );
        s.push_str(&format!(
            "{:>4}  {:<14} {:<10} {:<12} {:>6} {:>6} {:>9} {:>9}  {}\n",
            "rank", "candidate", "model", "class", "score", "phi", "tbmd_sem", "tbmd_src", "edits"
        ));
        fn opt(v: Option<f64>) -> String {
            v.map(|d| format!("{d:.4}")).unwrap_or_else(|| "-".to_string())
        }
        for (rank, r) in self.rows.iter().enumerate() {
            s.push_str(&format!(
                "{:>4}  {:<14} {:<10} {:<12} {:>6.3} {:>6.3} {:>9} {:>9}  {}\n",
                rank + 1,
                r.label,
                r.model.name(),
                r.class.name(),
                r.score,
                r.phi,
                opt(r.tbmd_sem),
                opt(r.tbmd_src),
                r.edits.join("; ")
            ));
        }
        s
    }

    /// CSV leaderboard (one row per candidate, best first).
    pub fn to_csv(&self) -> String {
        let mut s = String::from(
            "rank,candidate,model,class,score,phi,tbmd_sem,tbmd_src,fingerprint,edits\n",
        );
        fn opt(v: Option<f64>) -> String {
            v.map(|d| format!("{d:.6}")).unwrap_or_default()
        }
        for (rank, r) in self.rows.iter().enumerate() {
            s.push_str(&format!(
                "{},{},{},{},{:.6},{:.6},{},{},{:016x},{}\n",
                rank + 1,
                r.label,
                r.model.name(),
                r.class.name(),
                r.score,
                r.phi,
                opt(r.tbmd_sem),
                opt(r.tbmd_src),
                r.fingerprint,
                r.edits.join("; ")
            ));
        }
        s
    }

    /// Place the *correct* candidates on the existing navigation chart
    /// (Φ against divergence-from-serial, Figs. 13–15 shape).
    pub fn nav_chart(&self) -> NavigationChart {
        let points = self
            .rows
            .iter()
            .filter(|r| r.class == GateClass::Correct)
            .map(|r| NavPoint {
                model: r.model,
                phi: r.phi,
                div_t_src: r.tbmd_src.unwrap_or(0.0),
                div_t_sem: r.tbmd_sem.unwrap_or(0.0),
            })
            .collect();
        NavigationChart { app: self.app, points }
    }
}

/// Gate and score a pre-generated candidate population.
///
/// Identical sources (the generator emits deliberate duplicates) are
/// gated and measured once; TBMD_sem and TBMD_src for the unique set are
/// two divergence rows from the serial baseline.
pub fn score_population(
    app: App,
    seed: u64,
    cands: &[Candidate],
) -> Result<Leaderboard, PortError> {
    let baseline = baseline_run(app)?;
    let base_unit = unit(app, Model::Serial)?;
    score_population_with(app, seed, cands, &base_unit, &baseline)
}

/// [`score_population`] against an already-established baseline.
pub fn score_population_with(
    app: App,
    seed: u64,
    cands: &[Candidate],
    base_unit: &svlang::unit::Unit,
    baseline: &BaselineRun,
) -> Result<Leaderboard, PortError> {
    let _s = svtrace::span!("port.score", app = app.name());
    // Gate each unique source once.
    let mut gated: HashMap<u64, Gated> = HashMap::new();
    let mut order: Vec<u64> = Vec::new();
    for c in cands {
        let fp = source_fingerprint(&c.source);
        if let std::collections::hash_map::Entry::Vacant(e) = gated.entry(fp) {
            e.insert(gate(app, c, baseline));
            order.push(fp);
        }
    }

    // TBMD_sem and TBMD_src of every unique built candidate: two
    // divergence rows from the baseline, normalised by the candidate's
    // tree size (Eq. 7) exactly as the served `evaluate` scores them.
    let base_m = Measured::new(base_unit);
    let mut built: Vec<u64> = Vec::new();
    let mut units: Vec<Measured<'_>> = Vec::new();
    for fp in &order {
        if let Some(u) = gated[fp].unit.as_ref() {
            units.push(Measured::new(u));
            built.push(*fp);
        }
    }
    let sem = divergence_row(Metric::TSem, Variant::PLAIN, &base_m, &units);
    let src = divergence_row(Metric::TSrc, Variant::PLAIN, &base_m, &units);
    let tbmd: HashMap<u64, (f64, f64)> = built
        .iter()
        .zip(sem.iter().zip(&src))
        .map(|(fp, (sem, src))| (*fp, (sem.normalized(), src.normalized())))
        .collect();

    let mut rows: Vec<ScoredCandidate> = cands
        .iter()
        .map(|c| {
            let fp = source_fingerprint(&c.source);
            let g = &gated[&fp];
            let tbmd_sem = tbmd.get(&fp).map(|t| t.0);
            let tbmd_src = tbmd.get(&fp).map(|t| t.1);
            let phi = phi_all(app, c.model);
            ScoredCandidate {
                id: c.id,
                label: c.label.clone(),
                model: c.model,
                class: g.class,
                detail: g.detail.clone(),
                fingerprint: fp,
                edits: c.edits.clone(),
                tbmd_sem,
                tbmd_src,
                phi,
                score: score_value(g.class, phi, tbmd_sem),
            }
        })
        .collect();
    rows.sort_by(|a, b| b.score.total_cmp(&a.score).then(a.id.cmp(&b.id)));
    Ok(Leaderboard { app, seed, rows })
}

/// End-to-end offline evaluation: generate `n` seeded candidates of
/// `app`'s parallel ports, gate them, score them, rank them.
pub fn evaluate(app: App, n: usize, seed: u64) -> Result<Leaderboard, PortError> {
    let cands = generate(app, n, seed);
    score_population(app, seed, &cands)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_board() -> Leaderboard {
        evaluate(App::BabelStream, 24, 7).expect("evaluate")
    }

    #[test]
    fn leaderboard_is_ranked_and_deterministic() {
        let a = small_board();
        let b = small_board();
        assert_eq!(a.rows.len(), 24);
        for w in a.rows.windows(2) {
            assert!(w[0].score >= w[1].score);
        }
        let ids: Vec<_> = a.rows.iter().map(|r| (r.id, r.score)).collect();
        let ids2: Vec<_> = b.rows.iter().map(|r| (r.id, r.score)).collect();
        assert_eq!(ids, ids2, "same seed must rank identically");
    }

    #[test]
    fn failed_candidates_score_zero_and_portable_correct_score_positive() {
        let board = small_board();
        let mut saw_portable_correct = false;
        for r in &board.rows {
            match r.class {
                GateClass::Correct => {
                    assert!(r.tbmd_sem.is_some() && r.tbmd_src.is_some());
                    // Φ follows the paper: 0 when the model is unsupported
                    // anywhere in the fleet, so only fleet-wide-portable
                    // correct candidates can rank above zero.
                    if r.phi > 0.0 {
                        saw_portable_correct = true;
                        assert!(r.score > 0.0, "{}: {}", r.label, r.detail);
                    } else {
                        assert_eq!(r.score, 0.0);
                    }
                }
                GateClass::BuildFail => {
                    assert_eq!(r.score, 0.0);
                    assert!(r.tbmd_sem.is_none());
                }
                _ => assert_eq!(r.score, 0.0, "{}: {}", r.label, r.detail),
            }
        }
        assert!(saw_portable_correct, "no portable correct candidate in population");
    }

    #[test]
    fn csv_and_text_agree_on_row_count() {
        let board = small_board();
        assert_eq!(board.to_csv().lines().count(), board.rows.len() + 1);
        // header + column line + rows
        assert_eq!(board.render().lines().count(), board.rows.len() + 2);
    }

    #[test]
    fn nav_chart_holds_only_correct_candidates() {
        let board = small_board();
        let chart = board.nav_chart();
        let correct = board.rows.iter().filter(|r| r.class == GateClass::Correct).count();
        assert_eq!(chart.points.len(), correct);
        assert!(!chart.to_csv().is_empty());
    }

    #[test]
    fn duplicate_sources_share_fingerprint_and_scores() {
        let board = evaluate(App::BabelStream, 40, 3).expect("evaluate");
        let mut by_fp: HashMap<u64, Vec<&ScoredCandidate>> = HashMap::new();
        for r in &board.rows {
            by_fp.entry(r.fingerprint).or_default().push(r);
        }
        let dup = by_fp.values().find(|v| v.len() > 1).expect("generator emits duplicates");
        for r in dup {
            assert_eq!(r.class, dup[0].class);
            assert_eq!(r.tbmd_sem, dup[0].tbmd_sem);
        }
    }
}
