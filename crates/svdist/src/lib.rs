//! # svdist — tree and sequence distances for divergence metrics
//!
//! The TBMD metric compares semantic-bearing trees with **Tree Edit
//! Distance** (TED): the minimal number of node deletions, insertions and
//! relabellings required to transform one ordered labelled tree into
//! another.  The paper uses the APTED implementation of Pawlik & Augsten;
//! this crate provides the from-scratch equivalent:
//!
//! * [`mod@ted`] — the classic Zhang–Shasha `O(n² · min(depth, leaves)²)`
//!   algorithm behind four entries over [`SharedTree`]s (exact, threshold,
//!   memory-bounded, edit-op split).  Each pair solves over whichever of
//!   the left-path and right-path decompositions has fewer relevant
//!   subproblems, in the spirit of APTED's path strategies.  A scalar
//!   kernel, a SIMD kernel and two oracles (the allocating PR 4 kernel
//!   and a brute-force recursion) are pinned against each other by the
//!   property-test suite.
//! * [`seq`] — sequence distances for the `Source` metric: the
//!   Wu–Manber–Myers `O(NP)` comparison algorithm (the one inside `diff`,
//!   used by the paper through the `dtl` library), classic LCS, Levenshtein,
//!   and Jaccard set divergence (the Pennycook et al. code divergence
//!   baseline).
//! * [`matrix`] — labelled symmetric distance matrices feeding the
//!   clustering layer.
//! * [`lowerbound`] — cheap admissible lower bounds on TED (label
//!   histogram + binary-branch grams) backing the approximate-first
//!   corpus engine; paired with the threshold kernel
//!   [`ted_within`], which solves a pair exactly only
//!   when its distance can still be ≤ a caller-supplied threshold.
//!
//! All distances are exact (lower bounds are admissible, never
//! over-estimates); the variants are cross-validated against each other
//! in tests.

pub mod lowerbound;
pub mod matrix;
pub mod seq;
pub mod shared;
pub(crate) mod simd;
pub mod ted;

pub use lowerbound::{label_histogram_lb, pqgram_lb, TreeProfile};
pub use matrix::DistanceMatrix;
pub use seq::{edit_distance_onp, jaccard_divergence, lcs_len, levenshtein};
pub use shared::SharedTree;
pub use ted::{
    active_kernel_name, cell_width, decompose_count, edit_stats, memory_estimate,
    memory_estimate_with, ted, ted_bounded, ted_within, CellWidth, CostModel, EditStats, PostTree,
    Strategy, TedError,
};
