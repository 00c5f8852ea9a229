//! Scale test: a synthetic multi-unit "production application" in two
//! models (the paper's §VII GROMACS scenario), exercising the `match()`
//! pairing, codebase-level sums, the memory-bounded TED path, and the
//! compressed DB at a size beyond the mini-apps.

use svlang::source::SourceSet;
use svlang::unit::{compile_unit, Unit, UnitOptions};
use svmetrics::{
    codebase_divergence, divergence, match_units, try_divergence, Measured, Metric, Variant,
};

/// Generate one synthetic kernel unit: `nkernels` loop nests over a few
/// arrays, optionally OpenMP-annotated.
fn kernel_unit_src(module: usize, nkernels: usize, omp: bool) -> String {
    let mut s = String::new();
    for k in 0..nkernels {
        s.push_str(&format!(
            "void kernel_{module}_{k}(double* a, const double* b, const double* c, int n) {{\n"
        ));
        if omp {
            s.push_str("#pragma omp parallel for schedule(static)\n");
        }
        s.push_str("  for (int i = 0; i < n; i++) {\n");
        match k % 4 {
            0 => s.push_str(&format!("    a[i] = b[i] + {}.5 * c[i];\n", k + 1)),
            1 => s.push_str("    a[i] = b[i] * c[i] + a[i];\n"),
            2 => {
                s.push_str("    double t = b[i] - c[i];\n");
                s.push_str("    a[i] = t * t;\n");
            }
            _ => {
                s.push_str("    if (b[i] > 0.0) {\n      a[i] = sqrt(b[i]);\n    } else {\n      a[i] = 0.0;\n    }\n");
            }
        }
        s.push_str("  }\n}\n\n");
    }
    s
}

/// Build an N-module codebase in one model.
fn build_codebase(modules: usize, kernels_per_module: usize, omp: bool) -> Vec<Unit> {
    let mut ss = SourceSet::new();
    let tag = if omp { "omp" } else { "serial" };
    let mut paths = Vec::new();
    for m in 0..modules {
        let mut src = String::from("#include <cmath>\n");
        if omp {
            src.push_str("#include <omp.h>\n");
        }
        src.push_str(&kernel_unit_src(m, kernels_per_module, omp));
        let path = format!("{tag}/module_{m}.cpp");
        ss.add(path.clone(), src);
        paths.push(path);
    }
    ss.add_system("cmath", "double sqrt(double x);\n");
    ss.add_system("omp.h", "int omp_get_max_threads();\n");
    let mut units = Vec::new();
    for p in &paths {
        units.push(compile_unit(&ss, ss.lookup(p).unwrap(), &UnitOptions::default()).unwrap());
    }
    units
}

#[test]
fn large_multi_unit_codebase_divergence() {
    const MODULES: usize = 24;
    const KERNELS: usize = 12;
    let serial = build_codebase(MODULES, KERNELS, false);
    let omp = build_codebase(MODULES, KERNELS, true);
    let sm: Vec<Measured<'_>> = serial.iter().map(Measured::new).collect();
    let om: Vec<Measured<'_>> = omp.iter().map(Measured::new).collect();

    // Every module pairs with its counterpart.
    let pairs = match_units(&sm, &om);
    assert_eq!(pairs.len(), MODULES);

    // Eq. 6 over 24 matched pairs.
    let d = codebase_divergence(Metric::TSem, Variant::PLAIN, &sm, &om);
    assert!(d.distance > 0);
    let norm = d.normalized();
    assert!(norm > 0.0 && norm < 0.6, "whole-codebase OpenMP divergence {norm}");

    // The codebase sum equals the per-pair sums.
    let per_pair: u64 = pairs
        .iter()
        .map(|&(i, j)| divergence(Metric::TSem, Variant::PLAIN, &sm[i], &om[j]).distance)
        .sum();
    assert_eq!(d.distance, per_pair);
}

#[test]
fn whole_codebase_single_tree_is_memory_hostile() {
    // §III-C: treating "the entire codebase … as a single large tree"
    // blows up TED memory — the reason match() exists.  The bounded API
    // quantifies it: per-unit pairs fit a small budget, the fused tree
    // does not.
    const MODULES: usize = 24;
    const KERNELS: usize = 12;
    let serial = build_codebase(MODULES, KERNELS, false);
    let omp = build_codebase(MODULES, KERNELS, true);

    let budget: u64 = 64 << 20; // 64 MiB of DP tables
    for (a, b) in serial.iter().zip(&omp) {
        let ma = Measured::new(a);
        let mb = Measured::new(b);
        try_divergence(Metric::TSem, Variant::PLAIN, &ma, &mb, budget)
            .expect("per-unit pair must fit the budget");
    }

    // Fuse everything into one tree per codebase.
    let fuse = |units: &[Unit]| {
        let mut t = svtree::Tree::leaf("Codebase");
        let root = t.root().unwrap();
        for u in units {
            t.graft(root, &u.t_sem);
        }
        t
    };
    let big_a = svdist::SharedTree::new(fuse(&serial));
    let big_b = svdist::SharedTree::new(fuse(&omp));
    let est = svdist::memory_estimate(&big_a, &big_b);
    assert!(
        est > budget,
        "fused trees ({} and {} nodes) must exceed the per-pair budget: {est}",
        big_a.size(),
        big_b.size()
    );
    let err = svdist::ted_bounded(&big_a, &big_b, svdist::CostModel::UNIT, budget).unwrap_err();
    let svdist::TedError::BudgetExceeded { needed_bytes, .. } = err;
    assert_eq!(needed_bytes, est);
}

#[test]
fn large_codebase_db_roundtrip() {
    use silvervale::CodebaseDb;
    use svmetrics::Artifacts;
    let omp = build_codebase(16, 10, true);
    let mut db = CodebaseDb::new("synthetic-app");
    for u in &omp {
        db.push(u.name.clone(), Artifacts::from_unit(u), None);
    }
    let bytes = db.to_bytes();
    let back = CodebaseDb::from_bytes(&bytes).unwrap();
    assert_eq!(back, db);
    // 16 structurally similar modules must compress hard.
    let total_nodes: usize = db
        .entries
        .iter()
        .map(|e| e.artifacts.t_sem.size() + e.artifacts.t_src.size() + e.artifacts.t_ir.size())
        .sum();
    // The DB also stores t_src_pp, t_sem+i, and all normalised line text;
    // ~5.5 bytes per counted node overall is a hard-compression result.
    assert!(bytes.len() < total_nodes * 8, "{} bytes for {} nodes", bytes.len(), total_nodes);
}
