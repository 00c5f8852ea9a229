//! The correctness gate: build, run and verify one candidate.
//!
//! A candidate earns a TBMD/Φ score only if it survives the same pipeline
//! a real port would: recompile the mutated source against the app's
//! source set, interpret it under `svexec` with a step budget, and check
//! the mini-app's built-in verification plus bitwise agreement of the
//! reported checksum with the baseline (the corpus guarantees every model
//! produces the same `sum=` under sequential interpretation).  Anything
//! else lands in one of the paper-shaped failure classes:
//! build-fail → runtime-fail → wrong-answer → correct.

use crate::gen::Candidate;
use svcorpus::{main_path, source_set, unit, App, Model};
use svexec::{ExecError, Interp, RunResult};
use svlang::source::LangError;
use svlang::unit::{compile_unit, Unit, UnitOptions};

/// Interpreter step budget per candidate run: comfortably above the
/// largest corpus app (CloverLeaf runs in well under half of this) while
/// still turning a mutated non-terminating loop into a clean runtime
/// failure instead of a hang.
pub const STEP_LIMIT: u64 = 20_000_000;

/// Gate outcome classes, ordered from worst to best.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum GateClass {
    /// The mutated source no longer parses/lowers.
    BuildFail,
    /// The interpreter trapped (out-of-bounds, step limit, …).
    RuntimeFail,
    /// Ran to completion but failed verification or diverged from the
    /// baseline checksum.
    WrongAnswer,
    /// Verified and checksum-identical to the baseline.
    Correct,
}

impl GateClass {
    pub const ALL: [GateClass; 4] =
        [GateClass::BuildFail, GateClass::RuntimeFail, GateClass::WrongAnswer, GateClass::Correct];

    pub fn name(&self) -> &'static str {
        match self {
            GateClass::BuildFail => "build-fail",
            GateClass::RuntimeFail => "runtime-fail",
            GateClass::WrongAnswer => "wrong-answer",
            GateClass::Correct => "correct",
        }
    }

    pub fn parse(name: &str) -> Option<GateClass> {
        GateClass::ALL.iter().copied().find(|c| c.name() == name)
    }
}

/// Everything the gate learned about one candidate.
#[derive(Debug)]
pub struct Gated {
    pub class: GateClass,
    /// One-line diagnosis (compile error, trap message, mismatch note).
    pub detail: String,
    /// The compiled unit, when the candidate built — the scoring pipeline
    /// extracts its tree artefacts from here.
    pub unit: Option<Unit>,
}

/// What the baseline run established, for output comparison.
#[derive(Debug, Clone)]
pub struct BaselineRun {
    /// The `sum=` token of the baseline output (bit-exact across models
    /// under sequential interpretation).
    pub sum: Option<String>,
}

/// The `sum=<value>` token of a mini-app's report line.
pub fn sum_token(output: &str) -> Option<String> {
    output.split("sum=").nth(1).and_then(|s| s.split_whitespace().next()).map(str::to_string)
}

/// Compile and run the app's serial baseline once, recording its checksum.
pub fn baseline_run(app: App) -> Result<BaselineRun, PortError> {
    let _s = svtrace::span!("port.baseline", app = app.name());
    let u = unit(app, Model::Serial)?;
    let r = run_limited(&u, STEP_LIMIT)?;
    Ok(BaselineRun { sum: sum_token(&r.output) })
}

/// Recompile one candidate's mutated main file against the app's full
/// source set (system headers + shared app header included).
pub fn compile_candidate(app: App, cand: &Candidate) -> Result<Unit, LangError> {
    let mut ss = source_set(app);
    let main = ss.add(main_path(app, cand.model), cand.source.clone());
    compile_unit(&ss, main, &UnitOptions::default())
}

/// `svexec::run_unit` with an explicit step budget, so mutated loops
/// cannot hang the gate.
pub fn run_limited(u: &Unit, step_limit: u64) -> Result<RunResult, ExecError> {
    let prog = u.program.as_ref().ok_or_else(|| ExecError::new("unit has no C/C++ program", 0))?;
    let mut it = Interp::new(prog)?;
    it.set_step_limit(step_limit);
    let exit_code = it.run_main()?;
    Ok(RunResult { exit_code, output: it.output.clone(), coverage: it.coverage() })
}

/// Gate one candidate against the baseline checksum.
pub fn gate(app: App, cand: &Candidate, baseline: &BaselineRun) -> Gated {
    let _s = svtrace::span!("port.gate", model = cand.model.name());
    let u = match compile_candidate(app, cand) {
        Ok(u) => u,
        Err(e) => {
            return Gated {
                class: GateClass::BuildFail,
                detail: format!("compile: {e}"),
                unit: None,
            }
        }
    };
    let r = match run_limited(&u, STEP_LIMIT) {
        Ok(r) => r,
        Err(e) => {
            return Gated {
                class: GateClass::RuntimeFail,
                detail: format!("run: {e}"),
                unit: Some(u),
            }
        }
    };
    let (class, detail) = classify_run(&r, baseline);
    Gated { class, detail, unit: Some(u) }
}

fn classify_run(r: &RunResult, baseline: &BaselineRun) -> (GateClass, String) {
    if r.exit_code != 0 {
        return (
            GateClass::WrongAnswer,
            format!("self-verification failed (exit {})", r.exit_code),
        );
    }
    if !r.output.contains("failures=0") {
        return (GateClass::WrongAnswer, "no failures=0 in report".to_string());
    }
    let sum = sum_token(&r.output);
    if baseline.sum.is_some() && sum != baseline.sum {
        return (
            GateClass::WrongAnswer,
            format!(
                "checksum diverged from baseline ({} vs {})",
                sum.as_deref().unwrap_or("-"),
                baseline.sum.as_deref().unwrap_or("-")
            ),
        );
    }
    (GateClass::Correct, "verified".to_string())
}

/// Errors the evaluation pipeline can surface (compile or interpreter
/// failures of the *baseline* — candidate failures are gate classes, not
/// errors).
#[derive(Debug)]
pub enum PortError {
    Lang(LangError),
    Exec(ExecError),
}

impl std::fmt::Display for PortError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PortError::Lang(e) => write!(f, "{e}"),
            PortError::Exec(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for PortError {}

impl From<LangError> for PortError {
    fn from(e: LangError) -> PortError {
        PortError::Lang(e)
    }
}

impl From<ExecError> for PortError {
    fn from(e: ExecError) -> PortError {
        PortError::Exec(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{generate, Candidate};

    fn candidate_with(app: App, model: Model, source: String) -> Candidate {
        Candidate { id: 0, model, label: "test".into(), source, edits: vec!["handmade".into()] }
    }

    fn base_source(app: App, model: Model) -> String {
        let ss = source_set(app);
        let id = ss.lookup(&main_path(app, model)).unwrap();
        ss.file(id).text.clone()
    }

    #[test]
    fn unmutated_port_gates_correct() {
        let baseline = baseline_run(App::BabelStream).unwrap();
        assert!(baseline.sum.is_some());
        let src = base_source(App::BabelStream, Model::OpenMp);
        let g = gate(
            App::BabelStream,
            &candidate_with(App::BabelStream, Model::OpenMp, src),
            &baseline,
        );
        assert_eq!(g.class, GateClass::Correct, "{}", g.detail);
        assert!(g.unit.is_some());
    }

    #[test]
    fn broken_brace_is_build_fail() {
        let baseline = baseline_run(App::BabelStream).unwrap();
        let mut src = base_source(App::BabelStream, Model::OpenMp);
        let cut = src.rfind('}').unwrap();
        src.replace_range(cut..cut + 1, "");
        let g = gate(
            App::BabelStream,
            &candidate_with(App::BabelStream, Model::OpenMp, src),
            &baseline,
        );
        assert_eq!(g.class, GateClass::BuildFail, "{}", g.detail);
        assert!(g.unit.is_none());
    }

    #[test]
    fn flipped_arithmetic_is_wrong_answer() {
        let baseline = baseline_run(App::BabelStream).unwrap();
        let src =
            base_source(App::BabelStream, Model::OpenMp).replacen("a[i] + b[i]", "a[i] - b[i]", 1);
        let g = gate(
            App::BabelStream,
            &candidate_with(App::BabelStream, Model::OpenMp, src),
            &baseline,
        );
        assert_eq!(g.class, GateClass::WrongAnswer, "{}", g.detail);
    }

    #[test]
    fn widened_bound_is_runtime_fail() {
        let baseline = baseline_run(App::BabelStream).unwrap();
        let src = base_source(App::BabelStream, Model::OpenMp).replacen(
            "for (int i = 0; i < N; i++) {\n    c[i] = a[i];",
            "for (int i = 0; i <= N; i++) {\n    c[i] = a[i];",
            1,
        );
        let g = gate(
            App::BabelStream,
            &candidate_with(App::BabelStream, Model::OpenMp, src),
            &baseline,
        );
        assert_eq!(g.class, GateClass::RuntimeFail, "{}", g.detail);
    }

    #[test]
    fn unbounded_recursion_is_runtime_fail() {
        let baseline = baseline_run(App::BabelStream).unwrap();
        let src = base_source(App::BabelStream, Model::OpenMp).replacen(
            "int main() {",
            "int spin(int x) { return spin(x + 1); }\nint main() {\n  spin(0);",
            1,
        );
        let g = gate(
            App::BabelStream,
            &candidate_with(App::BabelStream, Model::OpenMp, src),
            &baseline,
        );
        assert_eq!(g.class, GateClass::RuntimeFail, "{}", g.detail);
        assert!(g.detail.contains("call depth exceeded"), "{}", g.detail);
    }

    #[test]
    fn generated_population_covers_multiple_classes() {
        let baseline = baseline_run(App::BabelStream).unwrap();
        let cands = generate(App::BabelStream, 48, 11);
        let mut seen = std::collections::HashSet::new();
        for c in &cands {
            seen.insert(gate(App::BabelStream, c, &baseline).class);
        }
        assert!(seen.contains(&GateClass::Correct), "{seen:?}");
        assert!(seen.len() >= 3, "population too tame: {seen:?}");
    }
}
