//! End-to-end analysis pipeline: the Fig. 2 workflow.
//!
//! `Compilation DB → (compile each unit) → Codebase DB → divergence
//! matrices → dendrograms / heatmaps / navigation charts`, with optional
//! coverage data collected by actually running each unit under the
//! interpreter (the grey boxes of Fig. 2).

use crate::compdb::CompileCommand;
use crate::db::CodebaseDb;
use crate::Error;
use std::collections::{HashMap, HashSet};
use std::sync::Arc;
use svcluster::{cluster_rows, Dendrogram};
use svcorpus::{App, Model};
use svdist::DistanceMatrix;
use svlang::source::SourceSet;
use svlang::unit::{compile_unit, UnitOptions};
use svmetrics::{
    divergence_matrix, divergence_matrix_approx, divergence_row, pair_divergence, ApproxStats,
    Artifacts, Measured, Metric, PairArt, PairMemo, Variant,
};
use svperf::{phi_all, NavPoint, NavigationChart};
use svport::{Candidate, GateClass, Gated, Leaderboard, ScoredCandidate};

/// Index one corpus app: compile every model, optionally run each under
/// the interpreter to collect coverage, and store the artefacts.
///
/// Units are independent, so compilation (and coverage runs) fan out over
/// all cores via `svpar::par_tasks`; results are collected in model order,
/// so the produced DB is identical to [`index_app_seq`].
pub fn index_app(app: App, with_coverage: bool) -> Result<CodebaseDb, Error> {
    let _s = svtrace::span!("pipeline.index_app", app = app.name());
    let results =
        svpar::par_tasks(&Model::ALL, |&model| index_one_model(app, model, with_coverage));
    let mut db = CodebaseDb::new(app.name());
    for r in results {
        let (label, artifacts, coverage) = r?;
        db.push(label, artifacts, coverage);
    }
    Ok(db)
}

/// Sequential reference for [`index_app`]: same per-model work, no fan-out.
/// Kept as the equivalence oracle for tests.
pub fn index_app_seq(app: App, with_coverage: bool) -> Result<CodebaseDb, Error> {
    let mut db = CodebaseDb::new(app.name());
    for model in Model::ALL {
        let (label, artifacts, coverage) = index_one_model(app, model, with_coverage)?;
        db.push(label, artifacts, coverage);
    }
    Ok(db)
}

/// Compile (and optionally run) one model of `app` — the per-item task both
/// the parallel and sequential indexers share.
fn index_one_model(
    app: App,
    model: Model,
    with_coverage: bool,
) -> Result<(&'static str, Artifacts, Option<svtree::mask::CoverageMask>), Error> {
    let unit = svcorpus::unit(app, model)?;
    let coverage = if with_coverage {
        let run = svexec::run_unit(&unit)?;
        if run.exit_code != 0 {
            return Err(Error::Verification {
                what: format!("{}/{}", app.name(), model.name()),
                output: run.output,
            });
        }
        Some(run.coverage)
    } else {
        None
    };
    Ok((model.name(), Artifacts::from_unit(&unit), coverage))
}

/// Index the Fortran BabelStream variants (no interpreter: the paper's
/// GCC/Fortran path is static-analysis only).
pub fn index_fortran() -> Result<CodebaseDb, Error> {
    let mut db = CodebaseDb::new("babelstream-fortran");
    for model in svcorpus::FortranModel::ALL {
        let unit = svcorpus::fortran_unit(model)?;
        db.push(model.name(), Artifacts::from_unit(&unit), None);
    }
    Ok(db)
}

/// Index an arbitrary codebase from a compilation database — the general
/// entry point mirroring the paper's CLI workflow.
///
/// Compiler invocations are independent, so they fan out over all cores
/// via `svpar::par_tasks`; entries land in command order, identical to
/// [`index_compilation_db_seq`].
pub fn index_compilation_db(
    name: &str,
    sources: &SourceSet,
    commands: &[CompileCommand],
) -> Result<CodebaseDb, Error> {
    let _s = svtrace::span!("pipeline.index_compdb", name = name);
    let results = svpar::par_tasks(commands, |cmd| index_one_command(sources, cmd));
    let mut db = CodebaseDb::new(name);
    for r in results {
        let (label, artifacts) = r?;
        db.push(label, artifacts, None);
    }
    Ok(db)
}

/// Sequential reference for [`index_compilation_db`] — the equivalence
/// oracle for tests.
pub fn index_compilation_db_seq(
    name: &str,
    sources: &SourceSet,
    commands: &[CompileCommand],
) -> Result<CodebaseDb, Error> {
    let mut db = CodebaseDb::new(name);
    for cmd in commands {
        let (label, artifacts) = index_one_command(sources, cmd)?;
        db.push(label, artifacts, None);
    }
    Ok(db)
}

/// Compile one compilation-database command into stored artefacts.
fn index_one_command(
    sources: &SourceSet,
    cmd: &CompileCommand,
) -> Result<(String, Artifacts), Error> {
    let main = sources.lookup(&cmd.file).ok_or_else(|| Error::MissingFile(cmd.file.clone()))?;
    let opts = UnitOptions { defines: cmd.defines(), inline_depth: None };
    let unit = compile_unit(sources, main, &opts)?;
    Ok((cmd.file.clone(), Artifacts::from_unit(&unit)))
}

pub(crate) fn measured_entries<'a>(db: &'a CodebaseDb, v: Variant) -> Vec<Measured<'a>> {
    db.entries
        .iter()
        .map(|e| match (&e.coverage, v.coverage) {
            (Some(c), true) => Measured::of_with_coverage(&e.artifacts, c),
            _ => Measured::of(&e.artifacts),
        })
        .collect()
}

/// Pairwise divergence matrix over all models in the DB.
///
/// Pairs are scheduled largest-DP-first (LPT) across the worker pool and
/// hash-equal tree pairs short-circuit to 0 without any DP — see
/// `svmetrics::divergence_matrix`.
pub fn model_matrix(db: &CodebaseDb, metric: Metric, v: Variant) -> DistanceMatrix {
    let measured = measured_entries(db, v);
    divergence_matrix(metric, v, &db.labels(), &measured, None)
}

/// Approximate-first variant of [`model_matrix`] for large corpora: tree
/// metrics go through the lower-bound prefilter + threshold kernel of
/// `svmetrics::divergence_matrix_approx` (cells beyond the frontier are
/// admissible lower bounds, never over-estimates); non-tree metrics fall
/// back to the exact matrix with default stats.  Opt-in only — the exact
/// path stays the default everywhere.
pub fn model_matrix_approx(
    db: &CodebaseDb,
    metric: Metric,
    v: Variant,
) -> (DistanceMatrix, ApproxStats) {
    let measured = measured_entries(db, v);
    divergence_matrix_approx(metric, v, &db.labels(), &measured)
}

/// The paper's clustering recipe applied to the model matrix.
pub fn model_dendrogram(db: &CodebaseDb, metric: Metric, v: Variant) -> Dendrogram {
    cluster_rows(&model_matrix(db, metric, v))
}

/// Normalised divergence of every model from `base` (Figs. 7–10): the
/// heatmap columns "divergence from serial … from 0 to 1".  One
/// `svmetrics::divergence_row`: artefacts extracted once, tree and source
/// pairs fanned out over all cores largest-first.
pub fn divergence_from(
    db: &CodebaseDb,
    metric: Metric,
    v: Variant,
    base: &str,
) -> Result<Vec<(String, f64)>, Error> {
    let base_idx = db
        .entries
        .iter()
        .position(|e| e.label == base)
        .ok_or_else(|| Error::MissingFile(base.to_string()))?;
    let measured = measured_entries(db, v);
    let row = divergence_row(metric, v, &measured[base_idx], &measured, None);
    Ok(db.entries.iter().zip(row).map(|(e, d)| (e.label.clone(), d.normalized())).collect())
}

/// Build the Fig. 13/14 navigation chart: Φ against `T_sem`/`T_src`
/// divergence-from-serial for every portable model of `app`.
pub fn navigation_chart(app: App, db: &CodebaseDb) -> Result<NavigationChart, Error> {
    let base_label = Model::Serial.name();
    let sem = divergence_from(db, Metric::TSem, Variant::PLAIN, base_label)?;
    let src = divergence_from(db, Metric::TSrc, Variant::PLAIN, base_label)?;
    let mut points = Vec::new();
    for model in Model::ALL {
        if model == Model::Serial {
            continue;
        }
        let find = |v: &[(String, f64)]| {
            v.iter().find(|(l, _)| l == model.name()).map(|(_, d)| *d).unwrap_or(0.0)
        };
        points.push(NavPoint {
            model,
            phi: phi_all(app, model),
            div_t_sem: find(&sem),
            div_t_src: find(&src),
        });
    }
    Ok(NavigationChart { app, points })
}

/// One gated port candidate as [`score_ports`] consumes it: the gate's
/// class and detail and, when the candidate built, its `T_sem` and `T_src`
/// comparison artefacts.  The compiled `Unit` is not kept.
pub struct GatedPort {
    pub class: GateClass,
    pub detail: String,
    /// `(T_sem, T_src)` artefacts (`None` on build-fail).
    pub arts: Option<(PairArt, PairArt)>,
}

impl GatedPort {
    /// Keep a gate outcome's class and detail and extract the built
    /// candidate's artefacts, fingerprinted when `memo` is given.
    pub fn new(g: Gated, memo: Option<&dyn PairMemo>) -> GatedPort {
        let arts = g.unit.as_ref().map(|u| {
            let m = Measured::new(u);
            let art = |metric| PairArt::of(&m, metric, Variant::PLAIN, memo);
            (art(Metric::TSem), art(Metric::TSrc))
        });
        GatedPort { class: g.class, detail: g.detail, arts }
    }
}

/// Gate and score a port-candidate population against the `base` unit:
/// correctness × TBMD × Φ → ranked leaderboard.
///
/// Identical sources (the generator emits deliberate duplicates) are
/// gated and scored once.  Each unique candidate is one `svpar::par_tasks`
/// task: `gate(candidate, source fingerprint)`, then TBMD from the base
/// for `T_sem` and `T_src` (Eq. 7 normalises by the candidate's tree),
/// served from `memo` when one is given.  A memo never changes the
/// leaderboard: TBMD is bit-equal with or without one.
pub fn score_ports(
    app: App,
    seed: u64,
    cands: &[Candidate],
    base: &Measured<'_>,
    gate: impl Fn(&Candidate, u64) -> Arc<GatedPort> + Sync,
    memo: Option<&dyn PairMemo>,
) -> Leaderboard {
    let _s = svtrace::span!("port.score", app = app.name());
    let fps: Vec<u64> = cands.iter().map(|c| svport::source_fingerprint(&c.source)).collect();
    let mut seen = HashSet::new();
    let unique: Vec<usize> = (0..cands.len()).filter(|&i| seen.insert(fps[i])).collect();

    let art = |metric| PairArt::of(base, metric, Variant::PLAIN, memo);
    let (base_sem, base_src) = (art(Metric::TSem), art(Metric::TSrc));
    let div = |metric, base: &PairArt, cand: &PairArt| {
        pair_divergence(metric, Variant::PLAIN, base, cand, memo).normalized()
    };
    let trace = svtrace::ctx::capture();
    let scored = svpar::par_tasks(&unique, |&i| {
        let _t = svtrace::ctx::install(trace.clone());
        let port = gate(&cands[i], fps[i]);
        let tbmd = port.arts.as_ref().map(|(sem, src)| {
            (div(Metric::TSem, &base_sem, sem), div(Metric::TSrc, &base_src, src))
        });
        (port, tbmd)
    });
    let by_fp: HashMap<u64, _> = unique.iter().map(|&i| fps[i]).zip(scored).collect();

    let mut rows: Vec<ScoredCandidate> = cands
        .iter()
        .zip(fps)
        .map(|(c, fp)| {
            let (port, tbmd) = &by_fp[&fp];
            let phi = phi_all(app, c.model);
            let tbmd_sem = tbmd.map(|t| t.0);
            ScoredCandidate {
                id: c.id,
                label: c.label.clone(),
                model: c.model,
                class: port.class,
                detail: port.detail.clone(),
                fingerprint: fp,
                edits: c.edits.clone(),
                tbmd_sem,
                tbmd_src: tbmd.map(|t| t.1),
                phi,
                score: svport::score_value(port.class, phi, tbmd_sem),
            }
        })
        .collect();
    rows.sort_by(|a, b| b.score.total_cmp(&a.score).then(a.id.cmp(&b.id)));
    Leaderboard { app, seed, rows }
}

/// Offline port evaluation: generate `n` seeded candidates of `app`'s
/// parallel ports and [`score_ports`] them against the recompiled serial
/// baseline with the plain gate and no memo.
pub fn evaluate_ports(app: App, n: usize, seed: u64) -> Result<Leaderboard, Error> {
    let baseline = svport::baseline_run(app)?;
    let base = svcorpus::unit(app, Model::Serial)?;
    let gate = |c: &Candidate, _| Arc::new(GatedPort::new(svport::gate(app, c, &baseline), None));
    let cands = svport::generate(app, n, seed);
    Ok(score_ports(app, seed, &cands, &Measured::new(&base), gate, None))
}

/// Table II-style inventory of what the DB holds.
pub fn inventory(db: &CodebaseDb) -> String {
    let mut s = format!("Codebase DB '{}' — {} units\n", db.name, db.entries.len());
    s.push_str(&format!(
        "{:<16} {:>8} {:>8} {:>9} {:>9} {:>9} {:>9} {:>4}\n",
        "model", "SLOC", "LLOC", "|T_src|", "|T_sem|", "|T_sem+i|", "|T_ir|", "cov"
    ));
    for e in &db.entries {
        let a = &e.artifacts;
        s.push_str(&format!(
            "{:<16} {:>8} {:>8} {:>9} {:>9} {:>9} {:>9} {:>4}\n",
            e.label,
            a.sloc_pre,
            a.lloc_pre,
            a.t_src.size(),
            a.t_sem.size(),
            a.t_sem_inl.size(),
            a.t_ir.size(),
            if e.coverage.is_some() { "yes" } else { "no" }
        ));
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn index_and_matrix_end_to_end() {
        let db = index_app(App::BabelStream, false).unwrap();
        assert_eq!(db.entries.len(), 10);
        let m = model_matrix(&db, Metric::TSem, Variant::PLAIN);
        assert_eq!(m.len(), 10);
        assert!(m.get_by_label("CUDA", "HIP").unwrap() > 0.0);
        // CUDA should be closer to HIP than to Kokkos.
        assert!(m.get_by_label("CUDA", "HIP").unwrap() < m.get_by_label("CUDA", "Kokkos").unwrap());
    }

    #[test]
    fn parallel_indexing_identical_to_sequential() {
        // The indexer fans compilation out over worker threads; the DB it
        // produces must match the sequential oracle exactly — same entry
        // order, same artefacts, same trees — at every thread count.
        let seq = index_app_seq(App::BabelStream, false).unwrap();
        for threads in [1usize, 2, 4] {
            svpar::set_threads(threads);
            let par = index_app(App::BabelStream, false).unwrap();
            assert_eq!(par, seq, "threads={threads}");
        }
        svpar::set_threads(0);
    }

    #[test]
    fn parallel_compilation_db_identical_to_sequential() {
        use crate::compdb::parse_compile_commands;
        let mut ss = SourceSet::new();
        ss.add("a.cpp", "int main() { return 0; }");
        ss.add("b.cpp", "void f(int* a, int n) { for (int i = 0; i < n; i++) a[i] = i; }");
        let cmds = parse_compile_commands(
            r#"[
              {"directory":".","file":"a.cpp","arguments":["c++","a.cpp"]},
              {"directory":".","file":"b.cpp","arguments":["c++","b.cpp"]},
              {"directory":".","file":"a.cpp","arguments":["c++","-DX","a.cpp"]}
            ]"#,
        )
        .unwrap();
        let seq = index_compilation_db_seq("demo", &ss, &cmds).unwrap();
        let par = index_compilation_db("demo", &ss, &cmds).unwrap();
        assert_eq!(par, seq);
    }

    #[test]
    fn db_roundtrip_preserves_analysis() {
        let db = index_app(App::MiniBude, false).unwrap();
        let bytes = db.to_bytes();
        let back = CodebaseDb::from_bytes(&bytes).unwrap();
        let m1 = model_matrix(&db, Metric::TSrc, Variant::PLAIN);
        let m2 = model_matrix(&back, Metric::TSrc, Variant::PLAIN);
        assert_eq!(m1, m2);
    }

    #[test]
    fn divergence_from_serial_shape() {
        let db = index_app(App::MiniBude, false).unwrap();
        let divs = divergence_from(&db, Metric::TSem, Variant::PLAIN, "Serial").unwrap();
        assert_eq!(divs.len(), 10);
        let serial = divs.iter().find(|(l, _)| l == "Serial").unwrap();
        assert_eq!(serial.1, 0.0);
        assert!(divs.iter().filter(|(l, _)| l != "Serial").all(|(_, d)| *d > 0.0));
    }

    #[test]
    fn compilation_db_workflow() {
        use crate::compdb::parse_compile_commands;
        let mut ss = SourceSet::new();
        ss.add(
            "a.cpp",
            "#ifdef FAST\nint fast_path() { return 1; }\n#endif\nint main() { return 0; }",
        );
        let cmds = parse_compile_commands(
            r#"[
              {"directory":".","file":"a.cpp","arguments":["c++","-DFAST","a.cpp"]},
              {"directory":".","file":"a.cpp","arguments":["c++","a.cpp"]}
            ]"#,
        )
        .unwrap();
        let db = index_compilation_db("demo", &ss, &cmds).unwrap();
        assert_eq!(db.entries.len(), 2);
        // The -DFAST variant has one more function.
        assert!(db.entries[0].artifacts.t_sem.size() > db.entries[1].artifacts.t_sem.size());
    }

    fn small_board() -> Leaderboard {
        evaluate_ports(App::BabelStream, 24, 7).expect("evaluate")
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
    fn duplicate_sources_share_fingerprint_and_scores() {
        let board = evaluate_ports(App::BabelStream, 40, 3).expect("evaluate");
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

    #[test]
    fn inventory_renders() {
        let db = index_fortran().unwrap();
        let inv = inventory(&db);
        assert!(inv.contains("babelstream-fortran"));
        assert!(inv.contains("DoConcurrent"));
        assert_eq!(inv.lines().count(), 2 + 7);
    }
}
