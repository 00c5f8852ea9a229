//! Golden equivalence pins for the `svexec` interpreter.
//!
//! Every C/C++ corpus unit (4 apps × 10 models) is run once and compared
//! against values recorded from the interpreter before it stopped cloning
//! AST on its call paths: exit code, a digest of the captured output, a
//! digest of the coverage mask (file → covered lines) and the number of
//! executed steps.  Any drift in semantics, coverage or tick accounting —
//! the last decides where the step budget turns a candidate into a
//! `runtime-fail` — fails here with the full recomputed table.

use svcorpus::{unit, App, Model};
use svexec::Interp;
use svtree::intern::fnv64;
use svtree::mask::CoverageMask;

/// `(app, model, exit code, fnv64(output), fnv64(coverage), steps)`.
const GOLDEN: &[(&str, &str, i64, u64, u64, u64)] = &[
    ("babelstream", "Serial", 0, 0x1c4d2752b248a0ed, 0x397cdf5915885a69, 7600),
    ("babelstream", "OpenMP", 0, 0x2d9c2db324bacaef, 0xcd091adba0d9a5b3, 7626),
    ("babelstream", "OpenMP target", 0, 0x15a8c1ac50ef9737, 0xce90b8efb2473b92, 7627),
    ("babelstream", "CUDA", 0, 0x286d1ef2fff3cc44, 0x04b075e876550942, 15494),
    ("babelstream", "HIP", 0, 0x2589404f1241bf44, 0x5941e9f336a8f73c, 15497),
    ("babelstream", "SYCL (USM)", 0, 0x632bbb2e00137936, 0x674446a271454726, 5514),
    ("babelstream", "SYCL (acc)", 0, 0xb44a8a6f31693b04, 0xca621b7004cf4cc7, 5592),
    ("babelstream", "Kokkos", 0, 0x16b9d8fd4498497b, 0x796054a72a0bfe62, 4195),
    ("babelstream", "StdPar", 0, 0xd1c77c0b14469c81, 0x4c9e181e1da4b128, 4185),
    ("babelstream", "TBB", 0, 0x1801b64b528ef92f, 0x7a602692783030ed, 4185),
    ("minibude", "Serial", 0, 0x38d95fe6c538c5d7, 0xf6a2d38874e9665b, 65502),
    ("minibude", "OpenMP", 0, 0xdb47b249b445f9ab, 0x39ab472645ddfa4d, 65503),
    ("minibude", "OpenMP target", 0, 0x5c543e9b387b1361, 0x4d81bda94be1f95c, 65503),
    ("minibude", "CUDA", 0, 0x3b316f11643a1c6c, 0x982df60159bd33d3, 65537),
    ("minibude", "HIP", 0, 0x656908194d210736, 0xa23e70e666d736f7, 65540),
    ("minibude", "SYCL (USM)", 0, 0x18d7d8b033d7c65e, 0xb95cfd57b53d342a, 65485),
    ("minibude", "SYCL (acc)", 0, 0x79cd4be9a67ac61c, 0x041aff21b1f843ff, 65488),
    ("minibude", "Kokkos", 0, 0x6c3040030eb5f5d1, 0xa19dff71b6a81be9, 65485),
    ("minibude", "StdPar", 0, 0xf7e94ac079729a07, 0xb28f181bf57e22f6, 65483),
    ("minibude", "TBB", 0, 0x5bf38db60dd1fc1b, 0xde19910c78ddc308, 65483),
    ("tealeaf", "Serial", 0, 0x12aae21e1fcf0be4, 0xf6eecddebb8535a8, 156249),
    ("tealeaf", "OpenMP", 0, 0x62acdc7dd2995e3e, 0x8fe854cf46555c80, 156433),
    ("tealeaf", "OpenMP target", 0, 0xc91760d5ace5c25a, 0x836ff1e1348319ce, 156435),
    ("tealeaf", "CUDA", 0, 0x87d497859df86957, 0x852bb19354d78567, 486227),
    ("tealeaf", "HIP", 0, 0x241173d71833582f, 0x909f71e3ec36e21e, 486230),
    ("tealeaf", "SYCL (USM)", 0, 0x722ad713aed1caf1, 0xfb706228fb66a1ce, 255691),
    ("tealeaf", "SYCL (acc)", 0, 0x9c22545044b4febb, 0xc04b7939f3167298, 256185),
    ("tealeaf", "Kokkos", 0, 0xd3c077ea5b163782, 0x2a14d09f0b30186a, 197642),
    ("tealeaf", "StdPar", 0, 0x37aa4863d25d4718, 0x53eda5be4a2e6503, 237081),
    ("tealeaf", "TBB", 0, 0x6394827e3d2b0422, 0x096da37dfbfaa530, 217317),
    ("cloverleaf", "Serial", 0, 0xeb911980ed81cb1d, 0x2c821f689ba933a2, 15096),
    ("cloverleaf", "OpenMP", 0, 0xde1e4d6fb7d57bf9, 0x008826f7d4b594c2, 15117),
    ("cloverleaf", "OpenMP target", 0, 0xb77d5a4cd743fe1b, 0xba020ddc53aa7335, 15119),
    ("cloverleaf", "CUDA", 0, 0x7c6f8232dc2af15c, 0xf1cc3bfda885c5a8, 33092),
    ("cloverleaf", "HIP", 0, 0x52fed56cfbf31da2, 0x37125c56325144f2, 33095),
    ("cloverleaf", "SYCL (USM)", 0, 0x868fa9a0b76e1552, 0x613070cd3e2357dc, 20737),
    ("cloverleaf", "SYCL (acc)", 0, 0x790d088cde3ef2ec, 0xea2d1b11c3d2ccb5, 20802),
    ("cloverleaf", "Kokkos", 0, 0xbb443ad2dac03183, 0xb5278aca6719ddc0, 18351),
    ("cloverleaf", "StdPar", 0, 0xba6538e70c00600d, 0x3e05f8738d93d201, 19913),
    ("cloverleaf", "TBB", 0, 0x82d00ea0f7aa5d51, 0xb0aa3e8c5862d2c2, 19129),
];

/// What one run produced, in the shape of a [`GOLDEN`] row.
#[derive(Debug, PartialEq)]
struct Observed {
    exit: i64,
    output: u64,
    coverage: u64,
    steps: u64,
}

/// Canonical text of a coverage mask: `file:line,line,…;` in file order.
fn coverage_digest(c: &CoverageMask) -> u64 {
    let mut s = String::new();
    for (file, mask) in c.iter_files() {
        s.push_str(&format!("{file}:"));
        for line in mask.iter() {
            s.push_str(&format!("{line},"));
        }
        s.push(';');
    }
    fnv64(&s)
}

fn observe(app: App, model: Model) -> Observed {
    let u = unit(app, model).unwrap_or_else(|e| panic!("{app:?}/{model:?}: {e}"));
    let mut it = Interp::new(u.program.as_ref().unwrap()).unwrap();
    let exit = it.run_main().unwrap_or_else(|e| panic!("{app:?}/{model:?}: {e}"));
    Observed {
        exit,
        output: fnv64(&it.output),
        coverage: coverage_digest(&it.coverage()),
        steps: it.steps(),
    }
}

fn golden(app: App, model: Model) -> Option<Observed> {
    GOLDEN.iter().find(|r| r.0 == app.name() && r.1 == model.name()).map(|r| Observed {
        exit: r.2,
        output: r.3,
        coverage: r.4,
        steps: r.5,
    })
}

#[test]
fn every_corpus_unit_runs_bit_identically() {
    let mut table = String::new();
    let mut mismatches = Vec::new();
    for app in App::ALL {
        for model in Model::ALL {
            let o = observe(app, model);
            table.push_str(&format!(
                "    (\"{}\", \"{}\", {}, 0x{:016x}, 0x{:016x}, {}),\n",
                app.name(),
                model.name(),
                o.exit,
                o.output,
                o.coverage,
                o.steps
            ));
            if golden(app, model).as_ref() != Some(&o) {
                mismatches.push(format!("{}/{}", app.name(), model.name()));
            }
        }
    }
    assert!(mismatches.is_empty(), "drifted: {mismatches:?}\nrecomputed table:\n{table}");
    assert_eq!(GOLDEN.len(), 40, "one golden row per C/C++ corpus unit");
}

/// The recorded step count is exactly the budget a run needs: one tick
/// fewer must trap with the step-limit error.
#[test]
fn step_budget_is_exact_for_pinned_units() {
    for (app, model) in [(App::BabelStream, Model::Serial), (App::TeaLeaf, Model::Cuda)] {
        let steps = golden(app, model).expect("pinned unit").steps;
        let u = unit(app, model).unwrap();
        let prog = u.program.as_ref().unwrap();

        let mut it = Interp::new(prog).unwrap();
        it.set_step_limit(steps);
        assert_eq!(it.run_main().unwrap(), 0, "{app:?}/{model:?} within {steps} steps");

        let mut it = Interp::new(prog).unwrap();
        it.set_step_limit(steps - 1);
        let e = it.run_main().unwrap_err();
        assert!(e.message.contains("step limit"), "{app:?}/{model:?}: {e}");
    }
}
