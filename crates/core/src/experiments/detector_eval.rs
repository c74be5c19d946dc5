//! Extension — the §5.2 detection proposal, evaluated end to end.
//!
//! "Our proposed measurements can provide a ground truth of apps to
//! help train machine learning models in detecting the lockstep
//! behavior of users." Here the monitoring pipeline's observations
//! label the training set (advertised = positive, baseline =
//! negative), features come from Play-internal observables only
//! ([`iiscope_playstore::DetectorSnapshot`]), the model is the
//! from-scratch logistic regression in `iiscope-analysis`, and
//! evaluation is on a held-out split.

use crate::report::{pct, TextTable};
use crate::world::World;
use crate::WildArtifacts;
use iiscope_analysis::detector::{evaluate, AppFeatures, DetectorMetrics, LockstepDetector};

/// The trained-and-evaluated detector experiment.
#[derive(Debug, Clone)]
pub struct DetectorEval {
    /// Training examples used.
    pub train_size: usize,
    /// Held-out examples used.
    pub test_size: usize,
    /// Held-out metrics at threshold 0.5.
    pub metrics: DetectorMetrics,
    /// The trained model.
    pub detector: LockstepDetector,
}

impl DetectorEval {
    /// Builds the labeled dataset, splits it even/odd, trains and
    /// evaluates. Returns `None` when a class is empty (degenerate
    /// worlds).
    pub fn run(world: &World, artifacts: &WildArtifacts) -> Option<DetectorEval> {
        let ds = &artifacts.dataset;
        let advertised = ds.advertised_packages();
        let mut labeled: Vec<(AppFeatures, bool)> = Vec::new();
        // Positives: apps the monitor observed on offer walls.
        for pkg in &advertised {
            if let Some(features) = features_for(world, pkg) {
                labeled.push((features, true));
            }
        }
        // Negatives: the baseline apps (which also have organic install
        // streams, but no campaign-shaped event traffic).
        for b in &world.plan.baseline {
            if let Some(features) = features_for(world, b.package.as_str()) {
                labeled.push((features, false));
            }
        }
        // Deterministic even/odd split.
        let train: Vec<(AppFeatures, bool)> = labeled.iter().step_by(2).copied().collect();
        let test: Vec<(AppFeatures, bool)> = labeled.iter().skip(1).step_by(2).copied().collect();
        let detector = LockstepDetector::train(&train)?;
        let metrics = evaluate(&detector, &test, 0.5);
        Some(DetectorEval {
            train_size: train.len(),
            test_size: test.len(),
            metrics,
            detector,
        })
    }

    /// Rendering.
    pub fn render(&self) -> String {
        let mut t = TextTable::new(["Metric", "Value"]);
        t.row([
            "train / test".to_string(),
            format!("{} / {}", self.train_size, self.test_size),
        ]);
        t.row(["precision@0.5".to_string(), pct(self.metrics.precision())]);
        t.row(["recall@0.5".to_string(), pct(self.metrics.recall())]);
        t.row(["F1@0.5".to_string(), format!("{:.3}", self.metrics.f1())]);
        t.row(["AUC".to_string(), format!("{:.3}", self.metrics.auc)]);
        format!(
            "Extension (§5.2 proposal): incentivized-campaign detector\n{}",
            t.render()
        )
    }
}

/// Play-side features for one package. Baseline apps often have zero
/// event installs (pure organic bulk), which is itself the strongest
/// signal — represent them with an all-organic feature vector instead
/// of dropping them.
fn features_for(world: &World, pkg: &str) -> Option<AppFeatures> {
    let app = world.app_id(pkg)?;
    let snap = world.store.detector_snapshot(app)?;
    Some(AppFeatures::from_snapshot(&snap).unwrap_or(AppFeatures {
        block_concentration: 0.0,
        suspicious_rate: 0.0,
        burstiness: 1.0,
        engagement_per_install: 3.0,
        session_minutes: 4.0,
        attributed_share: 0.0,
    }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::run::shared;

    #[test]
    fn detector_separates_advertised_from_baseline() {
        let shared = shared();
        let eval = DetectorEval::run(shared.world(), &shared.artifacts).expect("both classes");
        assert!(eval.train_size > 20);
        assert!(eval.test_size > 20);
        // Campaign-shaped install streams are very separable from
        // organic ones — the point of the paper's proposal.
        assert!(eval.metrics.auc > 0.9, "auc {}", eval.metrics.auc);
        assert!(eval.metrics.f1() > 0.8, "f1 {}", eval.metrics.f1());
        assert!(eval.render().contains("AUC"));
    }
}
