//! Interpreter cost gate: the 40 coverage runs `index --cov` performs
//! (4 apps × 10 C/C++ models under `svexec`) timed against compiling the
//! same 40 units, best of 3 each, in one process.  Dividing by the compile
//! time cancels most of the host's speed, so the ratio can gate CI on any
//! runner.  Exits non-zero when run/compile reaches [`MAX_RATIO`].
//!
//! ```sh
//! cargo run --release --example interp_ratio -p bench
//! ```

use std::hint::black_box;
use std::time::Instant;
use svcorpus::{unit, App, Model};

/// Upper bound on run/compile.  On a 2-core AVX-512 host the interpreter
/// that deep-copied function and kernel bodies on every call read 7.6–15.0
/// (22 runs) and the shared-AST interpreter reads 3.2–6.0 (10 runs), so the
/// bound fails the former every time and passes the latter (EXPERIMENTS.md).
const MAX_RATIO: f64 = 7.0;

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

fn main() {
    let pairs: Vec<(App, Model)> =
        App::ALL.iter().flat_map(|&a| Model::ALL.iter().map(move |&m| (a, m))).collect();
    let units: Vec<_> = pairs
        .iter()
        .map(|&(a, m)| unit(a, m).unwrap_or_else(|e| panic!("{a:?}/{m:?}: {e}")))
        .collect();

    let compile_ms = best_ms(|| {
        for &(a, m) in &pairs {
            black_box(unit(a, m).unwrap());
        }
    });
    let run_ms = best_ms(|| {
        for u in &units {
            let r = svexec::run_unit(u).expect("coverage run");
            assert_eq!(r.exit_code, 0, "{}: self-verification failed", u.name);
            black_box(r);
        }
    });

    let ratio = run_ms / compile_ms;
    println!(
        "units={} compile_ms={compile_ms:.1} run_ms={run_ms:.1} run/compile={ratio:.2} (bound {MAX_RATIO})",
        units.len()
    );
    if ratio >= MAX_RATIO {
        eprintln!("interp_ratio: run/compile {ratio:.2} reached the {MAX_RATIO} bound");
        std::process::exit(1);
    }
}
