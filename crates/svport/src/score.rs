//! The ranked leaderboard: correctness × TBMD × Φ.
//!
//! Every gated candidate that built carries a TBMD against the serial
//! baseline for `T_sem` and `T_src`, normalised by the candidate's tree
//! size (Eq. 7).  Φ comes from the `svperf` fleet simulator for the
//! candidate's programming model.  The scorer that fills these rows is
//! `silvervale::score_ports`, which fans the candidates out over `svpar`
//! (this crate does not depend on it).  The rank score follows the
//! navigation chart's convention ([`NavigationChart::ranked`]):
//!
//! ```text
//! score = Φ · 1/(1 + TBMD_sem)    for correct candidates, else 0
//! ```

use crate::gate::GateClass;
use svcorpus::{App, Model};
use svperf::{NavPoint, NavigationChart};

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

#[cfg(test)]
mod tests {
    use super::*;
    use svcorpus::Model;

    /// A hand-built board with one row per gate class, best first.
    fn small_board() -> Leaderboard {
        let row = |id: usize, class: GateClass, tbmd: Option<f64>, phi: f64| ScoredCandidate {
            id,
            label: format!("cand-{id:03}"),
            model: Model::OpenMp,
            class,
            detail: String::new(),
            fingerprint: id as u64,
            edits: vec![format!("edit {id}")],
            tbmd_sem: tbmd,
            tbmd_src: tbmd,
            phi,
            score: score_value(class, phi, tbmd),
        };
        let rows = vec![
            row(0, GateClass::Correct, Some(0.25), 0.8),
            row(1, GateClass::WrongAnswer, Some(0.5), 0.8),
            row(2, GateClass::RuntimeFail, Some(0.5), 0.8),
            row(3, GateClass::BuildFail, None, 0.8),
        ];
        Leaderboard { app: App::BabelStream, seed: 7, rows }
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
}
