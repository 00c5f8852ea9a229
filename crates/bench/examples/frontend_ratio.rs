//! Frontend normalisation cost gate: the `unit.normalise` work of the 40
//! corpus units (normalised lines, LLOC and `T_src`, each before and after
//! preprocessing) timed against compiling the same 40 units with
//! `compile_unit`, best of 3 each, in one process.  Dividing by the compile
//! time cancels most of the host's speed, so the ratio can gate CI on any
//! runner.  Exits non-zero when normalise/compile reaches [`MAX_RATIO`].
//!
//! ```sh
//! cargo run --release --example frontend_ratio -p bench
//! ```

use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;
use svcorpus::{unit, App, Model};
use svlang::lex::Token;
use svlang::pp::{preprocess, PpOptions};
use svlang::{cst, measure};
use svtree::Interner;

/// Upper bound on normalise/compile.  On a 2-core AVX-512 host the
/// frontend that built `T_src` as a filtered raw CST and rendered a
/// `String` per token read 0.344–0.436 (25 runs), and the one-pass `T_src`
/// with lines rendered into one buffer reads 0.168–0.189 (11 runs), so the
/// bound fails the former every time and passes the latter (EXPERIMENTS.md).
const MAX_RATIO: f64 = 0.28;

const REPEATS: usize = 3;

/// Best-of-`REPEATS` wall time of `f`, in milliseconds.
fn best_ms(mut f: impl FnMut()) -> f64 {
    (0..REPEATS)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_secs_f64() * 1e3
        })
        .fold(f64::INFINITY, f64::min)
}

/// What `compile_unit` does between `unit.normalise` span boundaries, for
/// one unit: both views' lines, LLOC and `T_src` on one shared table.
fn normalise(pre: &[Token], post: &[Token]) {
    let table = Arc::new(Interner::new());
    for toks in [pre, post] {
        black_box(measure::normalized_lines_with_locs(toks));
        black_box(measure::lloc(toks));
        black_box(cst::t_src_in(Arc::clone(&table), toks));
    }
}

fn main() {
    let pairs: Vec<(App, Model)> =
        App::ALL.iter().flat_map(|&a| Model::ALL.iter().map(move |&m| (a, m))).collect();
    let streams: Vec<(Vec<Token>, Vec<Token>)> = pairs
        .iter()
        .map(|&(a, m)| {
            let u = unit(a, m).unwrap_or_else(|e| panic!("{a:?}/{m:?}: {e}"));
            let sources = svcorpus::source_set(a);
            let main = sources.lookup(&svcorpus::main_path(a, m)).expect("main registered");
            let pre = svlang::unit::user_view_tokens(&sources, main, &u.dep_files).unwrap();
            let post = preprocess(&sources, main, &PpOptions::default()).unwrap().tokens;
            // The streams are the ones compile_unit normalises.
            let table = Arc::new(Interner::new());
            assert!(cst::t_src_in(Arc::clone(&table), &pre) == u.t_src, "{}", u.name);
            assert!(cst::t_src_in(table, &post) == u.t_src_pp, "{}", u.name);
            (pre, post)
        })
        .collect();
    let tokens: usize = streams.iter().map(|(pre, post)| pre.len() + post.len()).sum();

    let compile_ms = best_ms(|| {
        for &(a, m) in &pairs {
            black_box(unit(a, m).unwrap());
        }
    });
    let normalise_ms = best_ms(|| {
        for (pre, post) in &streams {
            normalise(pre, post);
        }
    });

    let ratio = normalise_ms / compile_ms;
    println!(
        "units={} tokens={tokens} compile_ms={compile_ms:.1} normalise_ms={normalise_ms:.1} \
         normalise/compile={ratio:.3} (bound {MAX_RATIO})",
        streams.len()
    );
    if ratio >= MAX_RATIO {
        eprintln!("frontend_ratio: normalise/compile {ratio:.3} reached the {MAX_RATIO} bound");
        std::process::exit(1);
    }
}
