//! # silvervale — the end-to-end productivity analysis framework
//!
//! Rust reproduction of the paper's SilverVale tool: "an open source
//! unified software framework that provides an end-to-end workflow to
//! collect and analyse semantic-bearing trees."  The Fig. 2 workflow maps
//! onto this crate:
//!
//! 1. **Compilation DB** ([`compdb`]) — ingest `compile_commands.json`
//!    (parsed with the from-scratch [`svjson`]),
//! 2. **Index** ([`pipeline::index_compilation_db`] /
//!    [`pipeline::index_app`]) — compile every unit through the `svlang`
//!    frontends, lower `T_ir` through `svir`, optionally run under the
//!    `svexec` interpreter for coverage,
//! 3. **Codebase DB** ([`db`]) — persist the artefacts in the compressed
//!    `svpack`/`svz` container,
//! 4. **Analyse** ([`pipeline`]) — divergence matrices, dendrograms and
//!    navigation charts over any metric/variant of Table I, and the
//!    ranked leaderboard of generated port candidates
//!    ([`pipeline::score_ports`]).

pub mod compdb;
pub mod db;
pub mod pipeline;
pub mod serve;

/// The from-scratch JSON support now lives in `svserve` (it is the serve
/// protocol's wire format); re-exported here so `silvervale::svjson`
/// keeps working.
pub use svserve::svjson;

pub use compdb::{parse_compile_commands, write_compile_commands, CompileCommand};
pub use db::{CodebaseDb, DbEntry};
pub use pipeline::{
    divergence_from, evaluate_ports, index_app, index_app_seq, index_compilation_db,
    index_compilation_db_seq, index_fortran, inventory, model_dendrogram, model_matrix,
    model_matrix_approx, navigation_chart, score_ports, GatedPort,
};
pub use serve::AnalysisService;

/// Framework-level error type.
#[derive(Debug)]
pub enum Error {
    /// Frontend (lex/parse/sema) failure.
    Lang(svlang::source::LangError),
    /// Interpreter failure while collecting coverage.
    Exec(svexec::ExecError),
    /// Codebase DB (de)serialisation failure.
    Pack(svtree::pack::PackError),
    /// A unit's built-in verification failed.
    Verification { what: String, output: String },
    /// A referenced file was not in the source set.
    MissingFile(String),
}

impl std::fmt::Display for Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Error::Lang(e) => write!(f, "frontend: {e}"),
            Error::Exec(e) => write!(f, "runtime: {e}"),
            Error::Pack(e) => write!(f, "codebase db: {e}"),
            Error::Verification { what, output } => {
                write!(f, "verification failed for {what}: {output}")
            }
            Error::MissingFile(p) => write!(f, "file not in source set: {p}"),
        }
    }
}

impl std::error::Error for Error {}

impl From<svlang::source::LangError> for Error {
    fn from(e: svlang::source::LangError) -> Self {
        Error::Lang(e)
    }
}

impl From<svexec::ExecError> for Error {
    fn from(e: svexec::ExecError) -> Self {
        Error::Exec(e)
    }
}

impl From<svport::PortError> for Error {
    fn from(e: svport::PortError) -> Self {
        match e {
            svport::PortError::Lang(e) => Error::Lang(e),
            svport::PortError::Exec(e) => Error::Exec(e),
        }
    }
}

impl From<svtree::pack::PackError> for Error {
    fn from(e: svtree::pack::PackError) -> Self {
        Error::Pack(e)
    }
}
