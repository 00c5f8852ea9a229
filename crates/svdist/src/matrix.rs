//! Labelled symmetric distance matrices.
//!
//! The evaluation workflow runs "the comparison step over the cartesian
//! product of all models to yield a correlation matrix" which then feeds
//! dendrogram clustering and heatmaps.  [`DistanceMatrix`] is that product:
//! a dense symmetric matrix with string labels on both axes.

use std::fmt;

/// A dense symmetric distance matrix with item labels.
///
/// The diagonal is fixed at zero (an item is at distance 0 from itself —
/// the paper uses self-comparison as a built-in correctness check: "non-zero
/// results will indicate an error in the implementation").
#[derive(Debug, Clone, PartialEq)]
pub struct DistanceMatrix {
    labels: Vec<String>,
    data: Vec<f64>, // row-major n×n, kept symmetric by set()
}

impl DistanceMatrix {
    /// Create an all-zero matrix over the given item labels.
    pub fn new(labels: Vec<String>) -> Self {
        let n = labels.len();
        DistanceMatrix { labels, data: vec![0.0; n * n] }
    }

    /// Number of items.
    pub fn len(&self) -> usize {
        self.labels.len()
    }

    /// True when the matrix has no items.
    pub fn is_empty(&self) -> bool {
        self.labels.is_empty()
    }

    /// Item labels in index order.
    pub fn labels(&self) -> &[String] {
        &self.labels
    }

    /// Index of a label, if present.
    pub fn index_of(&self, label: &str) -> Option<usize> {
        self.labels.iter().position(|l| l == label)
    }

    /// Distance between items `i` and `j`.
    pub fn get(&self, i: usize, j: usize) -> f64 {
        self.data[i * self.len() + j]
    }

    /// Distance looked up by label pair.
    pub fn get_by_label(&self, a: &str, b: &str) -> Option<f64> {
        Some(self.get(self.index_of(a)?, self.index_of(b)?))
    }

    /// Set the symmetric distance between `i` and `j`.
    ///
    /// # Panics
    /// Panics if `i == j` and `v != 0` (the diagonal is definitionally 0),
    /// or if `v` is negative or non-finite.
    pub fn set(&mut self, i: usize, j: usize, v: f64) {
        assert!(v.is_finite() && v >= 0.0, "distances must be finite and non-negative");
        if i == j {
            assert!(v == 0.0, "diagonal must stay zero");
            return;
        }
        let n = self.len();
        self.data[i * n + j] = v;
        self.data[j * n + i] = v;
    }

    /// Largest off-diagonal distance (0.0 for matrices with < 2 items).
    pub fn max(&self) -> f64 {
        self.data.iter().copied().fold(0.0, f64::max)
    }

    /// Return a copy rescaled so the largest distance is 1 (no-op when the
    /// matrix is all zero).  Used to make divergences comparable across
    /// metrics before clustering.
    pub fn normalized(&self) -> DistanceMatrix {
        let m = self.max();
        if m == 0.0 {
            return self.clone();
        }
        let mut out = self.clone();
        for v in &mut out.data {
            *v /= m;
        }
        out
    }

    /// Row `i` as a slice — the "feature vector" of item `i` used when
    /// clustering with Euclidean distance between matrix rows.
    pub fn row(&self, i: usize) -> &[f64] {
        let n = self.len();
        &self.data[i * n..(i + 1) * n]
    }

    /// Euclidean distance between the rows of items `i` and `j`.
    pub fn row_euclidean(&self, i: usize, j: usize) -> f64 {
        self.row(i).iter().zip(self.row(j)).map(|(a, b)| (a - b) * (a - b)).sum::<f64>().sqrt()
    }

    /// All upper-triangle index pairs `(i, j)` with `i < j` of an `n`-item
    /// matrix, in row-major order — the unit of work the parallel builders
    /// fan out over.
    pub fn upper_pairs(n: usize) -> Vec<(usize, usize)> {
        (0..n).flat_map(|i| ((i + 1)..n).map(move |j| (i, j))).collect()
    }

    /// Build a matrix by evaluating `f(i, j)` for every `i < j` pair,
    /// sequentially.  The reference implementation the parallel builder is
    /// validated against (and the ablation bench's baseline).
    pub fn from_fn(labels: Vec<String>, f: impl Fn(usize, usize) -> f64) -> DistanceMatrix {
        let n = labels.len();
        let mut m = DistanceMatrix::new(labels);
        for (i, j) in Self::upper_pairs(n) {
            m.set(i, j, f(i, j));
        }
        m
    }

    /// Build a matrix by evaluating `f(i, j)` for every `i < j` pair, fanned
    /// out over all cores with longest-processing-time-first scheduling
    /// through `svpar::par_tasks_lpt`: pairs are claimed in descending
    /// `cost(i, j)` order, so the most expensive DPs start first and the
    /// cheap tail backfills the stragglers (pair costs are wildly uneven
    /// when `f` is a TED).  Each pair's value is computed by the same
    /// closure in isolation and written to its own slot.
    ///
    /// `cost` only shapes the schedule, never the values: the matrix is
    /// bit-identical to [`DistanceMatrix::from_fn`] for any cost function.
    /// Callers pass a cheap estimate — e.g. `|T1|·|T2|` for TED pairs, with
    /// 0 for pairs a short-circuit will answer (hash-equal trees,
    /// fingerprint-equal cache hits).
    pub fn from_fn_par_lpt(
        labels: Vec<String>,
        cost: impl Fn(usize, usize) -> u64,
        f: impl Fn(usize, usize) -> f64 + Sync,
    ) -> DistanceMatrix {
        let pairs = Self::upper_pairs(labels.len());
        // Per-pair spans make `svpar` utilisation visible in a trace: each
        // worker thread's lane shows which (i, j) cells it claimed and how
        // unevenly the TED costs spread.  Every task runs under the
        // caller's trace context, so a served request's trace holds the
        // pairs its helper threads computed too.
        let trace = svtrace::ctx::capture();
        let dists = svpar::par_tasks_lpt(
            &pairs,
            |&(i, j)| cost(i, j),
            |&(i, j)| {
                let _t = svtrace::ctx::install(trace.clone());
                let _s = svtrace::span!("matrix.pair", i = i, j = j);
                f(i, j)
            },
        );
        let mut m = DistanceMatrix::new(labels);
        for (&(i, j), d) in pairs.iter().zip(dists) {
            m.set(i, j, d);
        }
        m
    }

    /// Condensed upper-triangle entries `(i, j, d)` with `i < j`.
    pub fn condensed(&self) -> Vec<(usize, usize, f64)> {
        let n = self.len();
        let mut out = Vec::with_capacity(n * (n - 1) / 2);
        for i in 0..n {
            for j in (i + 1)..n {
                out.push((i, j, self.get(i, j)));
            }
        }
        out
    }

    /// Render as CSV with a label header row and column.
    pub fn to_csv(&self) -> String {
        let mut s = String::new();
        s.push_str("item");
        for l in &self.labels {
            s.push(',');
            s.push_str(l);
        }
        s.push('\n');
        for i in 0..self.len() {
            s.push_str(&self.labels[i]);
            for j in 0..self.len() {
                s.push(',');
                s.push_str(&format!("{:.6}", self.get(i, j)));
            }
            s.push('\n');
        }
        s
    }
}

impl fmt::Display for DistanceMatrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let w = self.labels.iter().map(|l| l.len()).max().unwrap_or(4).max(6);
        write!(f, "{:w$}", "")?;
        for l in &self.labels {
            write!(f, " {l:>w$}")?;
        }
        writeln!(f)?;
        for i in 0..self.len() {
            write!(f, "{:>w$}", self.labels[i])?;
            for j in 0..self.len() {
                write!(f, " {:>w$.3}", self.get(i, j))?;
            }
            writeln!(f)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn m3() -> DistanceMatrix {
        let mut m = DistanceMatrix::new(vec!["a".into(), "b".into(), "c".into()]);
        m.set(0, 1, 1.0);
        m.set(0, 2, 4.0);
        m.set(1, 2, 2.0);
        m
    }

    #[test]
    fn symmetric_storage() {
        let m = m3();
        assert_eq!(m.get(0, 1), m.get(1, 0));
        assert_eq!(m.get(2, 0), 4.0);
        assert_eq!(m.get(1, 1), 0.0);
    }

    #[test]
    fn label_lookup() {
        let m = m3();
        assert_eq!(m.get_by_label("a", "c"), Some(4.0));
        assert_eq!(m.get_by_label("a", "zz"), None);
        assert_eq!(m.index_of("b"), Some(1));
    }

    #[test]
    fn normalization() {
        let n = m3().normalized();
        assert_eq!(n.max(), 1.0);
        assert_eq!(n.get(0, 1), 0.25);
    }

    #[test]
    fn normalize_zero_matrix_is_identity() {
        let m = DistanceMatrix::new(vec!["x".into(), "y".into()]);
        assert_eq!(m.normalized(), m);
    }

    #[test]
    fn condensed_enumerates_upper_triangle() {
        let m = m3();
        let c = m.condensed();
        assert_eq!(c, vec![(0, 1, 1.0), (0, 2, 4.0), (1, 2, 2.0)]);
    }

    #[test]
    fn row_euclidean() {
        let m = m3();
        // row(a) = [0,1,4], row(b) = [1,0,2] -> sqrt(1+1+4) = sqrt 6
        assert!((m.row_euclidean(0, 1) - 6.0f64.sqrt()).abs() < 1e-12);
        assert_eq!(m.row_euclidean(2, 2), 0.0);
    }

    #[test]
    #[should_panic(expected = "diagonal")]
    fn diagonal_set_rejected() {
        let mut m = m3();
        m.set(1, 1, 3.0);
    }

    #[test]
    #[should_panic(expected = "finite")]
    fn negative_distance_rejected() {
        let mut m = m3();
        m.set(0, 1, -1.0);
    }

    #[test]
    fn upper_pairs_enumeration() {
        assert!(DistanceMatrix::upper_pairs(0).is_empty());
        assert!(DistanceMatrix::upper_pairs(1).is_empty());
        assert_eq!(DistanceMatrix::upper_pairs(3), vec![(0, 1), (0, 2), (1, 2)]);
        assert_eq!(DistanceMatrix::upper_pairs(10).len(), 45);
    }

    #[test]
    fn from_fn_matches_manual_sets() {
        let labels: Vec<String> = ["a", "b", "c"].iter().map(|s| s.to_string()).collect();
        let m = DistanceMatrix::from_fn(labels, |i, j| (i + j) as f64);
        assert_eq!(m.get(0, 1), 1.0);
        assert_eq!(m.get(2, 0), 2.0);
        assert_eq!(m.get(1, 2), 3.0);
        assert_eq!(m.get(1, 1), 0.0);
    }

    #[test]
    fn from_fn_par_identical_to_sequential() {
        // Uneven per-pair work under a uniform schedule (row-major claim
        // order); compare bitwise across thread counts.
        let labels: Vec<String> = (0..12).map(|i| format!("m{i}")).collect();
        let cost = |i: usize, j: usize| {
            let mut acc = 0.0f64;
            for k in 0..(i * j * 50 + 1) {
                acc += ((k % 17) as f64).sqrt();
            }
            acc / 1e4 + (i * 31 + j) as f64
        };
        let seq = DistanceMatrix::from_fn(labels.clone(), cost);
        for threads in [1, 2, 4, 8] {
            svpar::set_threads(threads);
            let par = DistanceMatrix::from_fn_par_lpt(labels.clone(), |_, _| 0, cost);
            assert_eq!(par, seq, "threads={threads}");
        }
        svpar::set_threads(0);
    }

    #[test]
    fn lpt_schedule_is_bit_identical_and_covers_all_pairs() {
        let labels: Vec<String> = (0..10).map(|i| format!("m{i}")).collect();
        let cost = |i: usize, j: usize| {
            let mut acc = 0.0f64;
            for k in 0..((10 - i) * j * 40 + 1) {
                acc += ((k % 13) as f64).sqrt();
            }
            acc / 1e4 + (i * 7 + j) as f64
        };
        let seq = DistanceMatrix::from_fn(labels.clone(), cost);
        // Largest-first, smallest-first, constant: the schedule must never
        // change a value, only the claim order.
        let estimators: [&dyn Fn(usize, usize) -> u64; 3] = [
            &|i, j| (((10 - i) * j) as u64) + 1,
            &|i, j| 1_000 - (((10 - i) * j) as u64),
            &|_, _| 0,
        ];
        for (k, est) in estimators.iter().enumerate() {
            for threads in [1, 3, 8] {
                svpar::set_threads(threads);
                let par = DistanceMatrix::from_fn_par_lpt(labels.clone(), est, cost);
                assert_eq!(par, seq, "estimator={k} threads={threads}");
            }
        }
        svpar::set_threads(0);
    }

    #[test]
    fn csv_shape() {
        let csv = m3().to_csv();
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].starts_with("item,a,b,c"));
        assert!(lines[1].starts_with("a,0.000000,1.000000,4.000000"));
    }
}
