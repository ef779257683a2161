//! Evaluation metrics.
//!
//! §6.1.1: "We adopt the metric used by prior work to measure precision,
//! recall, and F1 score over case insensitive sub-tokens" — sub-token
//! order does not matter (`diffCompute` is a perfect prediction of
//! `computeDiff`); `compute` alone has full precision but low recall;
//! `computeFileDiff` has full recall but low precision. Scores are
//! micro-averaged over the dataset, as in code2seq's evaluation.

use std::collections::{BTreeMap, HashMap};

/// Micro-averaged sub-token precision / recall / F1.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct PrecisionRecallF1 {
    /// True-positive sub-tokens.
    pub tp: usize,
    /// False-positive sub-tokens (predicted but absent).
    pub fp: usize,
    /// False-negative sub-tokens (present but not predicted).
    pub fn_: usize,
}

impl PrecisionRecallF1 {
    /// Adds one (prediction, truth) pair of sub-token lists. Matching is
    /// case-insensitive and order-free (multiset intersection).
    pub fn add(&mut self, predicted: &[String], truth: &[String]) {
        let mut truth_counts: HashMap<String, usize> = HashMap::new();
        for t in truth {
            *truth_counts.entry(t.to_lowercase()).or_insert(0) += 1;
        }
        let mut tp = 0;
        for p in predicted {
            let key = p.to_lowercase();
            match truth_counts.get_mut(&key) {
                Some(c) if *c > 0 => {
                    *c -= 1;
                    tp += 1;
                }
                _ => self.fp += 1,
            }
        }
        self.tp += tp;
        self.fn_ += truth_counts.values().sum::<usize>();
    }

    /// Merges another accumulator into this one.
    pub fn merge(&mut self, other: &PrecisionRecallF1) {
        self.tp += other.tp;
        self.fp += other.fp;
        self.fn_ += other.fn_;
    }

    /// Precision in percent (100 when nothing was predicted at all).
    pub fn precision(&self) -> f64 {
        if self.tp + self.fp == 0 {
            0.0
        } else {
            100.0 * self.tp as f64 / (self.tp + self.fp) as f64
        }
    }

    /// Recall in percent.
    pub fn recall(&self) -> f64 {
        if self.tp + self.fn_ == 0 {
            0.0
        } else {
            100.0 * self.tp as f64 / (self.tp + self.fn_) as f64
        }
    }

    /// F1 in percent.
    pub fn f1(&self) -> f64 {
        let p = self.precision();
        let r = self.recall();
        if p + r == 0.0 {
            0.0
        } else {
            2.0 * p * r / (p + r)
        }
    }
}

/// Plain accuracy for classification tasks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Accuracy {
    /// Correct predictions.
    pub correct: usize,
    /// Total predictions.
    pub total: usize,
}

impl Accuracy {
    /// Records one prediction.
    pub fn add(&mut self, predicted: usize, truth: usize) {
        self.total += 1;
        if predicted == truth {
            self.correct += 1;
        }
    }

    /// Accuracy in percent.
    pub fn percent(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            100.0 * self.correct as f64 / self.total as f64
        }
    }
}

/// Macro-averaged F1 over classes for classification (COSET's Table 3
/// reports both accuracy and an F1 score). Classes are kept in ascending
/// order, so the macro average sums them in a fixed order and is
/// bitwise reproducible.
#[derive(Debug, Clone, Default)]
pub struct ClassF1 {
    per_class: BTreeMap<usize, PrecisionRecallF1>,
}

impl ClassF1 {
    /// Records one prediction.
    pub fn add(&mut self, predicted: usize, truth: usize) {
        let p = self.per_class.entry(predicted).or_default();
        if predicted == truth {
            p.tp += 1;
        } else {
            p.fp += 1;
            self.per_class.entry(truth).or_default().fn_ += 1;
        }
    }

    /// Macro-averaged F1 in [0, 1].
    pub fn macro_f1(&self) -> f64 {
        if self.per_class.is_empty() {
            return 0.0;
        }
        let sum: f64 = self.per_class.values().map(|c| c.f1() / 100.0).sum();
        sum / self.per_class.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toks(ts: &[&str]) -> Vec<String> {
        ts.iter().map(|t| t.to_string()).collect()
    }

    #[test]
    fn perfect_prediction_regardless_of_order() {
        let mut m = PrecisionRecallF1::default();
        m.add(&toks(&["diff", "compute"]), &toks(&["compute", "diff"]));
        assert_eq!(m.precision(), 100.0);
        assert_eq!(m.recall(), 100.0);
        assert_eq!(m.f1(), 100.0);
    }

    #[test]
    fn partial_prediction_full_precision_low_recall() {
        // The paper's own example: predicting `compute` for `computeDiff`.
        let mut m = PrecisionRecallF1::default();
        m.add(&toks(&["compute"]), &toks(&["compute", "diff"]));
        assert_eq!(m.precision(), 100.0);
        assert_eq!(m.recall(), 50.0);
    }

    #[test]
    fn over_prediction_full_recall_low_precision() {
        // Predicting `computeFileDiff` for `computeDiff`.
        let mut m = PrecisionRecallF1::default();
        m.add(&toks(&["compute", "file", "diff"]), &toks(&["compute", "diff"]));
        assert_eq!(m.recall(), 100.0);
        assert!((m.precision() - 200.0 / 3.0).abs() < 1e-9);
    }

    #[test]
    fn case_insensitive_matching() {
        let mut m = PrecisionRecallF1::default();
        m.add(&toks(&["Compute", "DIFF"]), &toks(&["compute", "diff"]));
        assert_eq!(m.f1(), 100.0);
    }

    #[test]
    fn multiset_semantics() {
        // Truth has one `a`; predicting it twice costs precision.
        let mut m = PrecisionRecallF1::default();
        m.add(&toks(&["a", "a"]), &toks(&["a"]));
        assert_eq!(m.tp, 1);
        assert_eq!(m.fp, 1);
        assert_eq!(m.fn_, 0);
    }

    #[test]
    fn micro_average_accumulates() {
        let mut m = PrecisionRecallF1::default();
        m.add(&toks(&["a"]), &toks(&["a"]));
        m.add(&toks(&["b"]), &toks(&["c"]));
        assert_eq!(m.tp, 1);
        assert_eq!(m.fp, 1);
        assert_eq!(m.fn_, 1);
        assert_eq!(m.precision(), 50.0);
        assert_eq!(m.recall(), 50.0);
    }

    #[test]
    fn empty_prediction_scores_zero_precision_denominator() {
        let mut m = PrecisionRecallF1::default();
        m.add(&[], &toks(&["a"]));
        assert_eq!(m.precision(), 0.0);
        assert_eq!(m.recall(), 0.0);
    }

    #[test]
    fn accuracy_counts() {
        let mut a = Accuracy::default();
        a.add(1, 1);
        a.add(2, 0);
        assert_eq!(a.percent(), 50.0);
    }

    #[test]
    fn class_f1_perfect_is_one() {
        let mut c = ClassF1::default();
        c.add(0, 0);
        c.add(1, 1);
        assert!((c.macro_f1() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn class_f1_all_wrong_is_zero() {
        let mut c = ClassF1::default();
        c.add(0, 1);
        c.add(1, 0);
        assert_eq!(c.macro_f1(), 0.0);
    }

    #[test]
    fn class_f1_sums_classes_in_ascending_order() {
        let mut c = ClassF1::default();
        let mut rng = 0x5eed_u64;
        for _ in 0..500 {
            rng = rng.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let truth = (rng >> 33) as usize % 13;
            let predicted = if (rng >> 20) & 3 == 0 { (rng >> 40) as usize % 13 } else { truth };
            c.add(predicted, truth);
        }
        let mut ascending = 0.0;
        for class in 0..13 {
            if let Some(p) = c.per_class.get(&class) {
                ascending += p.f1() / 100.0;
            }
        }
        let expected = ascending / c.per_class.len() as f64;
        assert_eq!(c.macro_f1().to_bits(), expected.to_bits());
    }
}
