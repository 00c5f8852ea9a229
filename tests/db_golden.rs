//! Byte-identity pins for the Codebase DB container.
//!
//! `CodebaseDb::to_bytes` is an on-disk format: a DB written by one build
//! must load in the next, and the svz match finder must keep making the
//! same greedy parse.  Each row is the length and FNV-1a digest of
//! `to_bytes` for one codebase, recorded before the svz match finder was
//! rewritten around a precomputed hash chain.  Any drift in the record
//! layout, the entry order or the compressor's choice of matches fails
//! here with the full recomputed table.

use silvervale::{index_app, index_compilation_db, CodebaseDb, CompileCommand};
use std::collections::HashSet;
use svcorpus::App;

/// `(codebase, to_bytes length, fnv1a64(to_bytes))`.
const GOLDEN: &[(&str, usize, u64)] = &[
    ("babelstream", 89450, 0x6efb9f621f371ba9),
    ("minibude", 79360, 0xd1b0e258573e1be5),
    ("tealeaf", 105836, 0xac2555af122856ce),
    ("cloverleaf", 106086, 0x99d61fc1f75ad72f),
    ("synth-tealeaf", 201686, 0xb2097bcee529e2a9),
];

/// FNV-1a over raw bytes.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Units in the synthetic codebase, as many as one `index` benchmark op.
const SYNTH_UNITS: usize = 40;

/// A 40-unit codebase of `svport::generate` mutants of TeaLeaf's ports:
/// mutants that cannot build (brace edits), unmutated copies and repeated
/// texts are skipped.
fn synthetic_db() -> CodebaseDb {
    let app = App::TeaLeaf;
    let mut sources = svcorpus::source_set(app);
    let mut commands = Vec::new();
    let mut seen = HashSet::new();
    for c in svport::generate(app, 3 * SYNTH_UNITS, 3) {
        if commands.len() == SYNTH_UNITS {
            break;
        }
        let build_breaking = c.edits.iter().any(|e| e.contains("brace"));
        if c.edits.is_empty()
            || build_breaking
            || !seen.insert(svport::source_fingerprint(&c.source))
        {
            continue;
        }
        let file = format!("synth/{:02}_{}.cpp", commands.len(), c.model.stem());
        sources.add(file.clone(), c.source);
        commands.push(CompileCommand {
            directory: ".".into(),
            arguments: vec!["c++".into(), "-c".into(), file.clone()],
            file,
        });
    }
    assert_eq!(commands.len(), SYNTH_UNITS, "generator yields enough distinct mutants");
    index_compilation_db("synth-tealeaf", &sources, &commands).expect("synthetic codebase indexes")
}

#[test]
fn codebase_db_bytes_are_pinned() {
    let mut dbs: Vec<(String, CodebaseDb)> = App::ALL
        .into_iter()
        .map(|app| {
            let db = index_app(app, true).unwrap_or_else(|e| panic!("{}: {e}", app.name()));
            (app.name().to_string(), db)
        })
        .collect();
    dbs.push(("synth-tealeaf".into(), synthetic_db()));

    let mut table = String::new();
    let mut mismatches = Vec::new();
    for (name, db) in &dbs {
        let bytes = db.to_bytes();
        let back = CodebaseDb::from_bytes(&bytes).unwrap_or_else(|e| panic!("{name}: {e}"));
        assert!(&back == db, "{name}: from_bytes(to_bytes(db)) != db");
        assert_eq!(back.to_bytes(), bytes, "{name}: re-encoding a loaded DB changes its bytes");
        let row = (name.as_str(), bytes.len(), fnv1a(&bytes));
        table.push_str(&format!("    (\"{}\", {}, 0x{:016x}),\n", row.0, row.1, row.2));
        if !GOLDEN.contains(&row) {
            mismatches.push(name.clone());
        }
    }
    assert!(mismatches.is_empty(), "drifted: {mismatches:?}\nrecomputed table:\n{table}");
    assert_eq!(GOLDEN.len(), dbs.len(), "one golden row per codebase");
}
