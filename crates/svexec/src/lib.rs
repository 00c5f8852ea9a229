//! # svexec — dialect interpreter with line-coverage recording
//!
//! The paper's `+coverage` metric variants require running each mini-app
//! "with a reduced problem set" under coverage instrumentation and using
//! the line profile as a mask over the semantic trees.  This crate plays
//! the role of the instrumented binary: a tree-walking interpreter for the
//! `svlang` C/C++ dialect that
//!
//! * executes every programming model's code path through built-in model
//!   runtimes ([`intrinsics`]: CUDA/HIP, SYCL buffers + USM, Kokkos, TBB,
//!   C++17 parallel algorithms, OpenMP runtime calls),
//! * records per-line [`svtree::mask::CoverageMask`] data,
//! * captures `printf` output so the mini-apps' built-in verification can
//!   be checked by the test harness.
//!
//! Parallel constructs run with sequential semantics; the corpus kernels
//! are deterministic, so results equal what the real runtimes produce.

pub mod interp;
pub mod intrinsics;
pub mod value;

pub use interp::{ExecError, ExecResult, Interp};
pub use value::{Env, Native, Value};

use svlang::unit::Unit;
use svtree::mask::CoverageMask;

/// Outcome of running a unit's `main()`.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// `main`'s return value (0 = the mini-app's self-verification passed).
    pub exit_code: i64,
    /// Captured `printf` output.
    pub output: String,
    /// Line coverage collected during the run.
    pub coverage: CoverageMask,
}

/// Run a compiled C/C++ unit end to end.
pub fn run_unit(unit: &Unit) -> ExecResult<RunResult> {
    let prog = unit
        .program
        .as_ref()
        .ok_or_else(|| ExecError::new("unit has no C/C++ program (Fortran?)", 0))?;
    let mut it = Interp::new(prog)?;
    let exit_code = it.run_main()?;
    Ok(RunResult { exit_code, output: it.output.clone(), coverage: it.coverage() })
}

#[cfg(test)]
mod tests {
    use super::*;
    use svlang::source::SourceSet;
    use svlang::unit::{compile_unit, UnitOptions};

    fn run(src: &str) -> RunResult {
        run_files(&[("m.cpp", src, false)])
    }

    fn run_files(files: &[(&str, &str, bool)]) -> RunResult {
        let mut ss = SourceSet::new();
        for (p, t, sys) in files {
            if *sys {
                ss.add_system(*p, *t);
            } else {
                ss.add(*p, *t);
            }
        }
        let main = ss.lookup(files[0].0).unwrap();
        let unit = compile_unit(&ss, main, &UnitOptions::default()).unwrap();
        run_unit(&unit).unwrap()
    }

    #[test]
    fn arithmetic_and_return() {
        let r = run("int main() { int x = 6; int y = 7; return x * y - 42; }");
        assert_eq!(r.exit_code, 0);
    }

    #[test]
    fn float_math() {
        let r = run(
            "int main() { double x = 2.0; double y = sqrt(x); if (fabs(y * y - 2.0) < 1e-12) { return 0; } return 1; }",
        );
        assert_eq!(r.exit_code, 0);
    }

    #[test]
    fn loops_and_arrays() {
        let r = run(
            "int main() {\n  double* a = (double*)malloc(100 * sizeof(double));\n  for (int i = 0; i < 100; i++) { a[i] = i * 1.0; }\n  double sum = 0.0;\n  for (int i = 0; i < 100; i++) { sum += a[i]; }\n  if (sum == 4950.0) { return 0; }\n  return 1;\n}",
        );
        assert_eq!(r.exit_code, 0);
    }

    #[test]
    fn printf_output() {
        let r = run("int main() { printf(\"n=%d v=%.2f s=%s\\n\", 5, 1.5, \"ok\"); return 0; }");
        assert_eq!(r.output, "n=5 v=1.50 s=ok\n");
    }

    #[test]
    fn while_break_continue() {
        let r = run(
            "int main() { int i = 0; int hits = 0; while (true) { i++; if (i > 10) break; if (i % 2 == 0) continue; hits++; } return hits - 5; }",
        );
        assert_eq!(r.exit_code, 0);
    }

    #[test]
    fn functions_and_recursion() {
        let r = run(
            "int fib(int n) { if (n < 2) { return n; } return fib(n - 1) + fib(n - 2); }\nint main() { return fib(10) - 55; }",
        );
        assert_eq!(r.exit_code, 0);
    }

    #[test]
    fn lambdas_capture_by_reference_semantics() {
        let r = run(
            "int main() { double sum = 0.0; auto add = [&](double v) { sum += v; return 0; }; add(1.5); add(2.5); if (sum == 4.0) { return 0; } return 1; }",
        );
        assert_eq!(r.exit_code, 0);
    }

    #[test]
    fn structs_fields() {
        let r = run(
            "struct P { double x; double y; };\nint main() { P p = P(3.0, 4.0); double d = sqrt(p.x * p.x + p.y * p.y); if (d == 5.0) { return 0; } return 1; }",
        );
        assert_eq!(r.exit_code, 0);
    }

    #[test]
    fn cuda_kernel_launch() {
        let r = run(
            "__global__ void fill(double* a, double v, int n) {\n  int i = threadIdx.x + blockIdx.x * blockDim.x;\n  if (i < n) { a[i] = v; }\n}\nint main() {\n  int n = 100;\n  double* d_a;\n  cudaMalloc((void*)&d_a, n * sizeof(double));\n  fill<<<4, 32>>>(d_a, 7.0, n);\n  cudaDeviceSynchronize();\n  double sum = 0.0;\n  for (int i = 0; i < n; i++) { sum += d_a[i]; }\n  if (sum == 700.0) { return 0; }\n  return 1;\n}",
        );
        assert_eq!(r.exit_code, 0);
    }

    #[test]
    fn sycl_buffers_and_queue() {
        let r = run(
            "int main() {\n  int n = 64;\n  double* h = (double*)malloc(n * sizeof(double));\n  sycl::queue q;\n  sycl::buffer<double> buf(h, n);\n  q.submit([&](sycl::handler& cgh) {\n    sycl::accessor acc(buf, cgh);\n    cgh.parallel_for(sycl::range(n), [=](int i) { acc[i] = 2.0; });\n  });\n  q.wait();\n  double s = 0.0;\n  for (int i = 0; i < n; i++) { s += h[i]; }\n  if (s == 128.0) { return 0; }\n  return 1;\n}",
        );
        assert_eq!(r.exit_code, 0);
    }

    #[test]
    fn sycl_usm() {
        let r = run(
            "int main() {\n  int n = 32;\n  sycl::queue q;\n  double* a = sycl::malloc_shared<double>(n, q);\n  q.parallel_for(sycl::range(n), [=](int i) { a[i] = i * 1.0; });\n  q.wait();\n  double s = 0.0;\n  for (int i = 0; i < n; i++) { s += a[i]; }\n  sycl::free(a, q);\n  if (s == 496.0) { return 0; }\n  return 1;\n}",
        );
        assert_eq!(r.exit_code, 0);
    }

    #[test]
    fn kokkos_view_and_reduce() {
        let r = run(
            "int main() {\n  Kokkos::initialize();\n  int n = 50;\n  Kokkos::View<double> a(\"a\", n);\n  Kokkos::parallel_for(n, [=](int i) { a(i) = 2.0; });\n  double sum = 0.0;\n  Kokkos::parallel_reduce(n, [=](int i, double& acc) { acc += a(i); }, sum);\n  Kokkos::finalize();\n  if (sum == 100.0) { return 0; }\n  return 1;\n}",
        );
        assert_eq!(r.exit_code, 0);
    }

    #[test]
    fn tbb_loops() {
        let r = run(
            "int main() {\n  int n = 40;\n  double* a = (double*)malloc(n * sizeof(double));\n  tbb::parallel_for(0, n, [=](int i) { a[i] = 3.0; });\n  double s = tbb::parallel_reduce(0, n, 0.0, [=](int i, double acc) { return acc + a[i]; });\n  if (s == 120.0) { return 0; }\n  return 1;\n}",
        );
        assert_eq!(r.exit_code, 0);
    }

    #[test]
    fn stdpar_algorithms() {
        let r = run(
            "int main() {\n  int n = 25;\n  double* a = (double*)malloc(n * sizeof(double));\n  std::for_each_n(std::execution::par_unseq, 0, n, [=](int i) { a[i] = i * 2.0; });\n  double s = std::transform_reduce(std::execution::par_unseq, 0, n, 0.0, std::plus<double>(), [=](int i) { return a[i]; });\n  if (s == 600.0) { return 0; }\n  return 1;\n}",
        );
        assert_eq!(r.exit_code, 0);
    }

    #[test]
    fn omp_pragmas_execute_sequentially() {
        let r = run(
            "int main() {\n  int n = 30;\n  double* a = (double*)malloc(n * sizeof(double));\n  double sum = 0.0;\n#pragma omp parallel for\n  for (int i = 0; i < n; i++) { a[i] = 1.0; }\n#pragma omp parallel for reduction(+:sum)\n  for (int i = 0; i < n; i++) { sum += a[i]; }\n  if (sum == 30.0) { return 0; }\n  return 1;\n}",
        );
        assert_eq!(r.exit_code, 0);
    }

    #[test]
    fn coverage_records_executed_lines_only() {
        let r = run(
            "int main() {\n  int x = 1;\n  if (x > 0) {\n    x = 2;\n  } else {\n    x = 3;\n  }\n  return x - 2;\n}",
        );
        assert_eq!(r.exit_code, 0);
        // line 4 (then) covered, line 6 (else) not.
        assert!(r.coverage.covers(Some(svtree::Span::line(0, 4))));
        assert!(!r.coverage.covers(Some(svtree::Span::line(0, 6))));
    }

    #[test]
    fn coverage_masks_semantic_tree() {
        let mut ss = SourceSet::new();
        let src = "int main() {\n  int x = 1;\n  if (x > 0) {\n    x = 2;\n  } else {\n    x = 3;\n  }\n  return x - 2;\n}\nvoid never_called() {\n  int dead = 1;\n}";
        let m = ss.add("m.cpp", src);
        let unit = compile_unit(&ss, m, &UnitOptions::default()).unwrap();
        let r = run_unit(&unit).unwrap();
        let masked = r.coverage.apply(&unit.t_sem);
        assert!(masked.size() < unit.t_sem.size());
        // never_called() must be pruned entirely: only one FunctionDecl left.
        assert_eq!(masked.count_labels(|l| l == "FunctionDecl"), 1);
    }

    #[test]
    fn step_limit_stops_runaway() {
        let mut ss = SourceSet::new();
        let m = ss.add("m.cpp", "int main() { while (true) { int x = 1; } return 0; }");
        let unit = compile_unit(&ss, m, &UnitOptions::default()).unwrap();
        let mut it = Interp::new(unit.program.as_ref().unwrap()).unwrap();
        it.set_step_limit(10_000);
        let e = it.run_main().unwrap_err();
        assert!(e.message.contains("step limit"));
    }

    /// Run `src` on a thread with the default 2 MiB spawned-thread stack,
    /// the smallest the interpreter runs on (pool and server workers).
    fn run_on_small_stack(src: &'static str) -> ExecResult<RunResult> {
        std::thread::Builder::new()
            .stack_size(2 << 20)
            .spawn(move || {
                let mut ss = SourceSet::new();
                let m = ss.add("m.cpp", src);
                let unit = compile_unit(&ss, m, &UnitOptions::default()).unwrap();
                run_unit(&unit)
            })
            .unwrap()
            .join()
            .unwrap()
    }

    #[test]
    fn unbounded_recursion_is_a_typed_error() {
        for src in [
            "int f(int x) { return f(x + 1); }\nint main() { return f(0); }",
            // Six nested operators per level: the deepest frames per call.
            "int f(int x) { return 1 + (2 * (3 + (4 * (5 + (6 * f(x + 1)))))); }\nint main() { return f(0); }",
            // Through a closure called by a model runtime.
            "int f(int x) { int r = 0; tbb::parallel_for(0, 1, [&](int i) { r = f(x + 1); }); return r; }\nint main() { return f(0); }",
            // A kernel that launches itself.
            "__global__ void k(int d) { k<<<1, 1>>>(d + 1); }\nint main() { k<<<1, 1>>>(0); return 0; }",
        ] {
            let e = run_on_small_stack(src).unwrap_err();
            assert!(e.message.contains("call depth exceeded"), "{src}: {e}");
        }
    }

    #[test]
    fn recursion_within_the_depth_limit_runs() {
        let r = run_on_small_stack(
            "int depth(int n) { if (n == 0) { return 0; } return 1 + depth(n - 1); }\nint main() { return depth(120) - 120; }",
        )
        .unwrap();
        assert_eq!(r.exit_code, 0);
    }

    #[test]
    fn runtime_errors_have_lines() {
        let mut ss = SourceSet::new();
        let m = ss.add("m.cpp", "int main() {\n  int x = 1 / 0;\n  return 0;\n}");
        let unit = compile_unit(&ss, m, &UnitOptions::default()).unwrap();
        let e = run_unit(&unit).unwrap_err();
        assert_eq!(e.line, 2);
        assert!(e.message.contains("division by zero"));
    }

    #[test]
    fn out_of_bounds_is_an_error() {
        let mut ss = SourceSet::new();
        let m =
            ss.add("m.cpp", "int main() { double* a = (double*)malloc(8); a[5] = 1.0; return 0; }");
        let unit = compile_unit(&ss, m, &UnitOptions::default()).unwrap();
        assert!(run_unit(&unit).is_err());
    }

    #[test]
    fn globals_initialised_before_main() {
        let r =
            run("double scalar = 0.4;\nint main() { if (scalar == 0.4) { return 0; } return 1; }");
        assert_eq!(r.exit_code, 0);
    }

    #[test]
    fn switch_matching_and_fallthrough() {
        let r = run(
            "int classify(int x) {\n  int kind = 0;\n  switch (x) {\n    case 0:\n      kind = 10;\n      break;\n    case 1:\n    case 2:\n      kind = 20;\n      break;\n    default:\n      kind = 99;\n  }\n  return kind;\n}\nint main() {\n  if (classify(0) != 10) { return 1; }\n  if (classify(1) != 20) { return 2; }\n  if (classify(2) != 20) { return 3; }\n  if (classify(7) != 99) { return 4; }\n  return 0;\n}",
        );
        assert_eq!(r.exit_code, 0, "{}", r.output);
    }

    #[test]
    fn switch_without_default_falls_through_silently() {
        let r = run("int main() { int x = 5; switch (x) { case 1: return 1; } return 0; }");
        assert_eq!(r.exit_code, 0);
    }

    #[test]
    fn ternary_and_compound_assign() {
        let r =
            run("int main() { int a = 5; a *= 3; a -= 5; int b = a > 9 ? 1 : 2; return b - 1; }");
        assert_eq!(r.exit_code, 0);
    }
}
