//! Classification metrics: confusion matrices and the per-class accuracy
//! / misclassification rates reported in Tables 1 and 2 of the paper.

use std::fmt;

/// A confusion matrix: `counts[actual][predicted]`.
///
/// # Examples
///
/// ```
/// use iustitia_ml::ConfusionMatrix;
///
/// let mut cm = ConfusionMatrix::new(2);
/// cm.record(0, 0);
/// cm.record(0, 1);
/// cm.record(1, 1);
/// assert_eq!(cm.total(), 3);
/// assert!((cm.accuracy() - 2.0 / 3.0).abs() < 1e-12);
/// assert!((cm.class_accuracy(0) - 0.5).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct ConfusionMatrix {
    n_classes: usize,
    counts: Vec<Vec<u64>>,
}

impl ConfusionMatrix {
    /// Creates an all-zero confusion matrix for `n_classes` classes.
    ///
    /// # Panics
    ///
    /// Panics if `n_classes == 0`.
    pub fn new(n_classes: usize) -> Self {
        assert!(n_classes > 0, "need at least one class");
        ConfusionMatrix { n_classes, counts: vec![vec![0; n_classes]; n_classes] }
    }

    /// Records one prediction.
    ///
    /// # Panics
    ///
    /// Panics if either index is out of range.
    pub fn record(&mut self, actual: usize, predicted: usize) {
        // lint: allow(L008) — evaluation-time API with a documented panic contract; chain is .record() name fan-out
        assert!(actual < self.n_classes && predicted < self.n_classes, "class index out of range");
        // lint: allow(L008) — both indices checked by the assert above; chain is .record() name fan-out
        self.counts[actual][predicted] += 1;
    }

    /// Number of classes.
    pub fn n_classes(&self) -> usize {
        self.n_classes
    }

    /// The raw count for `(actual, predicted)`.
    pub fn count(&self, actual: usize, predicted: usize) -> u64 {
        self.counts[actual][predicted]
    }

    /// Total number of recorded predictions.
    pub fn total(&self) -> u64 {
        self.counts.iter().flatten().sum()
    }

    /// Overall accuracy (0 when empty).
    pub fn accuracy(&self) -> f64 {
        let total = self.total();
        if total == 0 {
            return 0.0;
        }
        let correct: u64 = (0..self.n_classes).map(|i| self.counts[i][i]).sum();
        correct as f64 / total as f64
    }

    /// Accuracy restricted to samples whose true class is `class`
    /// (recall). Returns 0 when the class never occurred.
    pub fn class_accuracy(&self, class: usize) -> f64 {
        let row: u64 = self.counts[class].iter().sum();
        if row == 0 {
            return 0.0;
        }
        self.counts[class][class] as f64 / row as f64
    }

    /// The misclassification rate of true class `from` into predicted
    /// class `to` — the off-diagonal percentages of Table 1.
    pub fn misclassification_rate(&self, from: usize, to: usize) -> f64 {
        let row: u64 = self.counts[from].iter().sum();
        if row == 0 {
            return 0.0;
        }
        self.counts[from][to] as f64 / row as f64
    }

    /// Adds another matrix of the same shape into this one (used to sum
    /// over cross-validation folds).
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    pub fn merge(&mut self, other: &ConfusionMatrix) {
        assert_eq!(self.n_classes, other.n_classes, "class count mismatch");
        for i in 0..self.n_classes {
            for j in 0..self.n_classes {
                self.counts[i][j] += other.counts[i][j];
            }
        }
    }
}

impl fmt::Display for ConfusionMatrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "confusion matrix ({} classes, {} samples):", self.n_classes, self.total())?;
        for i in 0..self.n_classes {
            write!(f, "  actual {i}:")?;
            for j in 0..self.n_classes {
                write!(f, " {:8}", self.counts[i][j])?;
            }
            writeln!(f)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> ConfusionMatrix {
        let mut cm = ConfusionMatrix::new(3);
        // class 0: 8 right, 1 -> 1, 1 -> 2
        for _ in 0..8 {
            cm.record(0, 0);
        }
        cm.record(0, 1);
        cm.record(0, 2);
        // class 1: 9 right, 1 -> 2
        for _ in 0..9 {
            cm.record(1, 1);
        }
        cm.record(1, 2);
        // class 2: 10 right
        for _ in 0..10 {
            cm.record(2, 2);
        }
        cm
    }

    #[test]
    fn totals_and_accuracy() {
        let cm = sample();
        assert_eq!(cm.total(), 30);
        assert!((cm.accuracy() - 27.0 / 30.0).abs() < 1e-12);
    }

    #[test]
    fn per_class_rates() {
        let cm = sample();
        assert!((cm.class_accuracy(0) - 0.8).abs() < 1e-12);
        assert!((cm.class_accuracy(1) - 0.9).abs() < 1e-12);
        assert!((cm.class_accuracy(2) - 1.0).abs() < 1e-12);
        assert!((cm.misclassification_rate(0, 1) - 0.1).abs() < 1e-12);
        assert!((cm.misclassification_rate(0, 2) - 0.1).abs() < 1e-12);
        assert_eq!(cm.misclassification_rate(2, 0), 0.0);
    }

    #[test]
    fn empty_matrix_rates_are_zero() {
        let cm = ConfusionMatrix::new(2);
        assert_eq!(cm.accuracy(), 0.0);
        assert_eq!(cm.class_accuracy(0), 0.0);
        assert_eq!(cm.misclassification_rate(0, 1), 0.0);
    }

    #[test]
    fn merge_sums_counts() {
        let mut a = sample();
        let b = sample();
        a.merge(&b);
        assert_eq!(a.total(), 60);
        assert_eq!(a.count(0, 0), 16);
    }

    #[test]
    fn display_is_nonempty() {
        let s = sample().to_string();
        assert!(s.contains("confusion matrix"));
        assert!(s.contains("actual 2"));
    }

    #[test]
    #[should_panic(expected = "class count mismatch")]
    fn merge_shape_mismatch_panics() {
        let mut a = ConfusionMatrix::new(2);
        let b = ConfusionMatrix::new(3);
        a.merge(&b);
    }

    #[test]
    fn single_class_matrix_is_all_or_nothing() {
        let mut cm = ConfusionMatrix::new(1);
        cm.record(0, 0);
        assert_eq!(cm.accuracy(), 1.0);
        assert_eq!(cm.class_accuracy(0), 1.0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn record_out_of_range_panics() {
        ConfusionMatrix::new(2).record(0, 5);
    }
}
