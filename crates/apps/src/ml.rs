//! Characterizing DOALL loops with machine learning (§5.1).
//!
//! Dynamic features extracted by the profiler (Table 5.1) feed an
//! AdaBoost.M1 ensemble of depth-1 decision stumps. Feature importance is
//! the weighted error reduction accumulated per feature across the ensemble
//! (Table 5.2); evaluation reports per-class precision/recall/F1 on a
//! held-out split (Table 5.3).

use discovery::LoopInfo;
use interp::Program;
use profiler::{DepSet, DepType};
use serde::Serialize;

/// Number of features.
pub const NUM_FEATURES: usize = 8;

/// Names of the Table 5.1 features, in vector order.
pub const FEATURE_NAMES: [&str; NUM_FEATURES] = [
    "iterations",
    "instrs_per_iter",
    "carried_raw_count",
    "carried_warwaw_count",
    "intra_raw_count",
    "distinct_dep_vars",
    "reduction_lines",
    "dep_line_fraction",
];

/// A feature vector for one loop.
#[derive(Debug, Clone, Copy, Serialize)]
pub struct Features(pub [f64; NUM_FEATURES]);

/// Extract the Table 5.1 dynamic features for a loop.
pub fn extract(program: &Program, deps: &DepSet, info: &LoopInfo) -> Features {
    let key = (info.func, info.region);
    let carried_raw = deps.carried_raws(key).len() as f64;
    let mut carried_ww = 0usize;
    let mut intra_raw = 0usize;
    let mut dep_vars = std::collections::BTreeSet::new();
    let mut dep_lines = std::collections::BTreeSet::new();
    let mut reduction_lines = std::collections::BTreeSet::new();
    for (d, _) in deps.iter() {
        let in_span = d.sink.line >= info.start_line && d.sink.line <= info.end_line;
        if !in_span {
            continue;
        }
        dep_lines.insert(d.sink.line);
        if d.var != u32::MAX {
            dep_vars.insert(d.var);
        }
        match d.ty {
            DepType::War | DepType::Waw if d.carried_by == Some(key) => carried_ww += 1,
            DepType::Raw if d.carried_by.is_none() => intra_raw += 1,
            DepType::Raw
                if d.carried_by == Some(key)
                    && d.sink.line == d.source.line
                    && d.var != u32::MAX =>
            {
                let f = &program.module.functions[info.func as usize];
                let name = program.symbol(d.var);
                if discovery::doall::is_reduction_line(f, d.sink.line, name, program) {
                    reduction_lines.insert(d.sink.line);
                }
            }
            _ => {}
        }
    }
    let body_lines = (info.end_line - info.start_line).max(1) as f64;
    Features([
        info.iters as f64,
        if info.iters > 0 {
            info.dyn_instrs as f64 / info.iters as f64
        } else {
            0.0
        },
        carried_raw,
        carried_ww as f64,
        intra_raw as f64,
        dep_vars.len() as f64,
        reduction_lines.len() as f64,
        dep_lines.len() as f64 / body_lines,
    ])
}

/// One labelled loop.
#[derive(Debug, Clone, Copy, Serialize)]
pub struct Sample {
    /// The features.
    pub x: Features,
    /// True = parallelizable (the Table 5.3 "pragma" ground truth).
    pub y: bool,
}

/// A labelled dataset.
#[derive(Debug, Clone, Default, Serialize)]
pub struct Dataset {
    /// The samples.
    pub samples: Vec<Sample>,
}

impl Dataset {
    /// Deterministic train/test split: every `k`-th sample held out.
    pub fn split(&self, k: usize) -> (Dataset, Dataset) {
        let k = k.max(2);
        let mut train = Dataset::default();
        let mut test = Dataset::default();
        for (i, s) in self.samples.iter().enumerate() {
            if i % k == 0 {
                test.samples.push(*s);
            } else {
                train.samples.push(*s);
            }
        }
        (train, test)
    }
}

/// A decision stump: `x[feature] > threshold` votes `polarity`.
#[derive(Debug, Clone, Copy, Serialize)]
pub struct Stump {
    feature: usize,
    threshold: f64,
    /// Vote for the positive class when above the threshold?
    polarity: bool,
    /// Ensemble weight (alpha).
    alpha: f64,
}

impl Stump {
    fn predict(&self, x: &Features) -> bool {
        (x.0[self.feature] > self.threshold) == self.polarity
    }
}

/// AdaBoost.M1 over decision stumps.
#[derive(Debug, Clone, Serialize)]
pub struct AdaBoost {
    stumps: Vec<Stump>,
}

impl AdaBoost {
    /// Train `rounds` boosting rounds on `data`.
    pub fn train(data: &Dataset, rounds: usize) -> Self {
        let n = data.samples.len();
        assert!(n > 0, "empty training set");
        let mut w = vec![1.0 / n as f64; n];
        let mut stumps = Vec::new();
        for _ in 0..rounds {
            let (stump, err) = best_stump(data, &w);
            let err = err.clamp(1e-10, 0.5 - 1e-10);
            let alpha = 0.5 * ((1.0 - err) / err).ln();
            let stump = Stump { alpha, ..stump };
            // Reweight: misclassified samples gain weight.
            let mut z = 0.0;
            for (i, s) in data.samples.iter().enumerate() {
                let correct = stump.predict(&s.x) == s.y;
                w[i] *= if correct { (-alpha).exp() } else { alpha.exp() };
                z += w[i];
            }
            for wi in &mut w {
                *wi /= z;
            }
            stumps.push(stump);
            if err < 1e-9 {
                break; // perfect stump: further rounds are redundant
            }
        }
        AdaBoost { stumps }
    }

    /// Predict the class of one feature vector.
    pub fn predict(&self, x: &Features) -> bool {
        let score: f64 = self
            .stumps
            .iter()
            .map(|s| if s.predict(x) { s.alpha } else { -s.alpha })
            .sum();
        score > 0.0
    }

    /// Feature importance: per-feature sum of ensemble weights (weighted
    /// error reduction), normalized to 1 (Table 5.2).
    pub fn feature_importance(&self) -> [f64; NUM_FEATURES] {
        let mut imp = [0.0; NUM_FEATURES];
        for s in &self.stumps {
            imp[s.feature] += s.alpha.max(0.0);
        }
        let total: f64 = imp.iter().sum();
        if total > 0.0 {
            for v in &mut imp {
                *v /= total;
            }
        }
        imp
    }

    /// Evaluate on a dataset.
    pub fn evaluate(&self, data: &Dataset) -> Scores {
        let mut tp = 0.0;
        let mut fp = 0.0;
        let mut tn = 0.0;
        let mut fnn = 0.0;
        for s in &data.samples {
            match (self.predict(&s.x), s.y) {
                (true, true) => tp += 1.0,
                (true, false) => fp += 1.0,
                (false, false) => tn += 1.0,
                (false, true) => fnn += 1.0,
            }
        }
        let precision = if tp + fp > 0.0 { tp / (tp + fp) } else { 1.0 };
        let recall = if tp + fnn > 0.0 { tp / (tp + fnn) } else { 1.0 };
        let f1 = if precision + recall > 0.0 {
            2.0 * precision * recall / (precision + recall)
        } else {
            0.0
        };
        Scores {
            accuracy: (tp + tn) / data.samples.len().max(1) as f64,
            precision,
            recall,
            f1,
        }
    }

    /// Number of stumps in the ensemble.
    pub fn len(&self) -> usize {
        self.stumps.len()
    }

    /// True if the ensemble is empty.
    pub fn is_empty(&self) -> bool {
        self.stumps.is_empty()
    }
}

/// Classification scores (Table 5.3 columns).
#[derive(Debug, Clone, Copy, Serialize)]
pub struct Scores {
    pub accuracy: f64,
    pub precision: f64,
    pub recall: f64,
    pub f1: f64,
}

/// Exhaustive stump search: for each feature, candidate thresholds are the
/// midpoints between consecutive distinct values.
fn best_stump(data: &Dataset, w: &[f64]) -> (Stump, f64) {
    let mut best = Stump {
        feature: 0,
        threshold: 0.0,
        polarity: true,
        alpha: 0.0,
    };
    let mut best_err = f64::INFINITY;
    for f in 0..NUM_FEATURES {
        let mut vals: Vec<f64> = data.samples.iter().map(|s| s.x.0[f]).collect();
        vals.sort_by(f64::total_cmp);
        vals.dedup();
        let mut cands = vec![vals[0] - 0.5];
        for win in vals.windows(2) {
            cands.push((win[0] + win[1]) / 2.0);
        }
        for &t in &cands {
            for polarity in [true, false] {
                let err: f64 = data
                    .samples
                    .iter()
                    .zip(w)
                    .filter(|(s, _)| ((s.x.0[f] > t) == polarity) != s.y)
                    .map(|(_, &wi)| wi)
                    .sum();
                if err < best_err {
                    best_err = err;
                    best = Stump {
                        feature: f,
                        threshold: t,
                        polarity,
                        alpha: 0.0,
                    };
                }
            }
        }
    }
    (best, best_err)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn synthetic() -> Dataset {
        // Parallel loops: no carried RAW (feature 2 == 0). Plus noise
        // features so the stump search has work to do.
        let mut d = Dataset::default();
        for i in 0..40 {
            let carried = if i % 2 == 0 {
                0.0
            } else {
                1.0 + (i % 3) as f64
            };
            let x = Features([
                (i * 10) as f64,
                5.0 + (i % 7) as f64,
                carried,
                (i % 2) as f64,
                (i % 5) as f64,
                (i % 4) as f64,
                0.0,
                0.3,
            ]);
            d.samples.push(Sample {
                x,
                y: carried == 0.0,
            });
        }
        d
    }

    #[test]
    fn learns_separable_data() {
        let d = synthetic();
        let model = AdaBoost::train(&d, 10);
        let s = model.evaluate(&d);
        assert!(s.accuracy > 0.99, "{s:?}");
    }

    #[test]
    fn importance_identifies_carried_raw() {
        let d = synthetic();
        let model = AdaBoost::train(&d, 10);
        let imp = model.feature_importance();
        let max_f = (0..NUM_FEATURES)
            .max_by(|&a, &b| imp[a].total_cmp(&imp[b]))
            .unwrap();
        assert_eq!(
            FEATURE_NAMES[max_f], "carried_raw_count",
            "importances: {imp:?}"
        );
        let sum: f64 = imp.iter().sum();
        assert!((sum - 1.0).abs() < 1e-9);
    }

    #[test]
    fn split_is_disjoint_and_complete() {
        let d = synthetic();
        let (train, test) = d.split(4);
        assert_eq!(train.samples.len() + test.samples.len(), d.samples.len());
        assert!(!test.samples.is_empty());
    }

    #[test]
    fn generalizes_to_held_out() {
        let d = synthetic();
        let (train, test) = d.split(4);
        let model = AdaBoost::train(&train, 12);
        let s = model.evaluate(&test);
        assert!(s.f1 > 0.9, "{s:?}");
    }
}
