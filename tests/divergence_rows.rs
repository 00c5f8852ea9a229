//! Divergence-from-base rows (Figs. 7–10): `svmetrics::divergence_row`
//! fans tree and source pairs out over the cores, and must equal the
//! per-pair `divergence()` loop bit for bit on every metric and variant of
//! the corpus.

use silvervale::{divergence_from, index_app, index_fortran, CodebaseDb, Error};
use svcorpus::App;
use svmetrics::{divergence, divergence_row, Measured, Metric, Variant};

const VARIANTS: [Variant; 4] = [Variant::PLAIN, Variant::PP, Variant::INLINED, Variant::COVERAGE];

fn measured(db: &CodebaseDb, v: Variant) -> Vec<Measured<'_>> {
    db.entries
        .iter()
        .map(|e| match (&e.coverage, v.coverage) {
            (Some(c), true) => Measured::of_with_coverage(&e.artifacts, c),
            _ => Measured::of(&e.artifacts),
        })
        .collect()
}

/// Every metric × variant row from each base equals the per-pair loop.
fn assert_rows_match_pair_loop(db: &CodebaseDb, bases: [&str; 2]) {
    for v in VARIANTS {
        let units = measured(db, v);
        for base in bases {
            let b = db.entries.iter().position(|e| e.label == base).expect("base in db");
            for metric in Metric::ALL {
                let oracle: Vec<_> =
                    units.iter().map(|u| divergence(metric, v, &units[b], u)).collect();
                assert_eq!(
                    divergence_row(metric, v, &units[b], &units, None),
                    oracle,
                    "{} {metric:?}{} from {base}",
                    db.name,
                    v.label()
                );
            }
        }
    }
}

#[test]
fn rows_equal_the_pair_loop_on_the_four_apps() {
    for app in App::ALL {
        let db = index_app(app, true).unwrap();
        assert_rows_match_pair_loop(&db, ["Serial", "CUDA"]);
    }
}

/// The Fortran ports have no CUDA model; OpenACC is their offload port.
#[test]
fn rows_equal_the_pair_loop_on_the_fortran_ports() {
    let db = index_fortran().unwrap();
    assert_rows_match_pair_loop(&db, ["Sequential", "OpenACC"]);
}

/// `divergence_from` is the row, normalised and labelled in entry order;
/// an unknown base is a typed error.
#[test]
fn divergence_from_labels_the_row_and_rejects_an_unknown_base() {
    let db = index_fortran().unwrap();
    let units = measured(&db, Variant::PLAIN);
    for metric in [Metric::TSem, Metric::Source, Metric::Sloc] {
        let row = divergence_row(metric, Variant::PLAIN, &units[0], &units, None);
        let labelled = divergence_from(&db, metric, Variant::PLAIN, "Sequential").unwrap();
        assert_eq!(labelled.len(), row.len());
        for ((e, (label, d)), r) in db.entries.iter().zip(&labelled).zip(&row) {
            assert_eq!(label, &e.label);
            assert_eq!(d.to_bits(), r.normalized().to_bits(), "{metric:?} {label}");
        }
        match divergence_from(&db, metric, Variant::PLAIN, "NoSuchModel") {
            Err(Error::MissingFile(name)) => assert_eq!(name, "NoSuchModel"),
            other => panic!("expected MissingFile, got {other:?}"),
        }
    }
}
