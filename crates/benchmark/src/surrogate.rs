//! The Table 9 surrogate-model zoo: Random Forest, Gradient Boosting,
//! ε-SVR, ν-SVR, KNN, and Ridge Regression, compared by 10-fold
//! cross-validated RMSE and R², with the winner powering the benchmark.

use dbtune_core::space::ConfigSpace;
use dbtune_core::transfer::SourceTask;
use dbtune_linalg::stats::{r_squared, rmse};
use dbtune_ml::{
    kfold_indices, GradientBoosting, GradientBoostingParams, KnnRegressor, RandomForest,
    RandomForestParams, Regressor, RidgeRegression, SvrKind, SvrParams, SvrRegressor,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// The regression families of Table 9.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum SurrogateModelKind {
    /// Random forest (the paper's final choice).
    RandomForest,
    /// Gradient boosting.
    GradientBoosting,
    /// ε-support-vector regression.
    Svr,
    /// ν-support-vector regression.
    NuSvr,
    /// k-nearest neighbours.
    Knn,
    /// Ridge regression.
    Ridge,
}

impl SurrogateModelKind {
    /// Table 9 column order.
    pub const ALL: [SurrogateModelKind; 6] = [
        SurrogateModelKind::RandomForest,
        SurrogateModelKind::GradientBoosting,
        SurrogateModelKind::Svr,
        SurrogateModelKind::NuSvr,
        SurrogateModelKind::Knn,
        SurrogateModelKind::Ridge,
    ];

    /// Paper-style label.
    pub fn label(self) -> &'static str {
        match self {
            SurrogateModelKind::RandomForest => "RF",
            SurrogateModelKind::GradientBoosting => "GB",
            SurrogateModelKind::Svr => "SVR",
            SurrogateModelKind::NuSvr => "NuSVR",
            SurrogateModelKind::Knn => "KNN",
            SurrogateModelKind::Ridge => "RR",
        }
    }

    /// Builds an unfitted model for `dim`-dimensional unit-encoded inputs.
    pub fn build(self, dim: usize, seed: u64) -> Box<dyn Regressor> {
        match self {
            SurrogateModelKind::RandomForest => Box::new(RandomForest::continuous(
                RandomForestParams { n_trees: 60, seed, ..Default::default() },
                dim,
            )),
            SurrogateModelKind::GradientBoosting => Box::new(GradientBoosting::continuous(
                GradientBoostingParams { n_stages: 150, seed, ..Default::default() },
                dim,
            )),
            SurrogateModelKind::Svr => Box::new(SvrRegressor::new(SvrParams {
                kind: SvrKind::Epsilon { epsilon: 0.05 },
                c: 20.0,
                gamma: None,
                max_sweeps: 40,
            })),
            SurrogateModelKind::NuSvr => Box::new(SvrRegressor::new(SvrParams {
                kind: SvrKind::Nu { nu: 0.5 },
                c: 20.0,
                gamma: None,
                max_sweeps: 40,
            })),
            SurrogateModelKind::Knn => Box::new(KnnRegressor::new(5)),
            SurrogateModelKind::Ridge => Box::new(RidgeRegression::new(1.0)),
        }
    }
}

/// Cross-validation result for one model family.
#[derive(Clone, Debug)]
pub struct ZooResult {
    /// Model family.
    pub kind: SurrogateModelKind,
    /// Cross-validated RMSE (original score scale).
    pub rmse: f64,
    /// Cross-validated R².
    pub r_squared: f64,
}

/// Unit-encodes a dataset's configurations for the zoo (categoricals
/// ordinal-encoded; tree models are indifferent, kernel/linear models need
/// the scaling).
pub fn encode_dataset(space: &ConfigSpace, ds: &SourceTask) -> Vec<Vec<f64>> {
    ds.x.iter().map(|c| space.to_unit(c)).collect()
}

/// Evaluates the full zoo with k-fold cross-validation (Table 9 uses 10).
pub fn evaluate_zoo(space: &ConfigSpace, ds: &SourceTask, k: usize, seed: u64) -> Vec<ZooResult> {
    let x = encode_dataset(space, ds);
    let dim = space.dim();
    let mut rng = StdRng::seed_from_u64(seed);
    let folds = kfold_indices(ds.y.len(), k, &mut rng);

    SurrogateModelKind::ALL
        .iter()
        .map(|&kind| {
            let mut preds = vec![0.0; ds.y.len()];
            for (train, test) in &folds {
                let (xt, yt) = dbtune_ml::dataset::gather(&x, &ds.y, train);
                let mut model = kind.build(dim, seed);
                model.fit(&xt, &yt);
                for &i in test {
                    preds[i] = model.predict(&x[i]);
                }
            }
            ZooResult { kind, rmse: rmse(&preds, &ds.y), r_squared: r_squared(&preds, &ds.y) }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use dbtune_core::space::TuningSpace;
    use dbtune_dbsim::{DbSimulator, Hardware, Workload};

    fn tiny_dataset() -> (ConfigSpace, SourceTask) {
        let sim = DbSimulator::new(Workload::Tpcc, Hardware::B, 30);
        let cat = sim.catalog();
        let selected = vec![
            cat.expect_index("innodb_flush_log_at_trx_commit"),
            cat.expect_index("innodb_log_file_size"),
        ];
        let space = TuningSpace::with_default_base(cat, selected, Hardware::B);
        let mut sim2 = DbSimulator::new(Workload::Tpcc, Hardware::B, 31);
        let ds = crate::collect::collect_samples(&mut sim2, &space, 120, 5);
        (space.space().clone(), ds)
    }

    #[test]
    fn zoo_produces_results_for_all_six_models() {
        let (space, ds) = tiny_dataset();
        let results = evaluate_zoo(&space, &ds, 5, 1);
        assert_eq!(results.len(), 6);
        for r in &results {
            assert!(r.rmse.is_finite() && r.rmse >= 0.0);
            assert!(r.r_squared <= 1.0);
        }
    }

    #[test]
    fn tree_models_beat_ridge_on_nonlinear_surface() {
        let (space, ds) = tiny_dataset();
        let results = evaluate_zoo(&space, &ds, 5, 2);
        let r2 = |k: SurrogateModelKind| {
            results.iter().find(|r| r.kind == k).expect("present").r_squared
        };
        // The response surface has categorical jumps and saturations; the
        // tree families must model it clearly better than a linear model.
        let best_tree =
            r2(SurrogateModelKind::RandomForest).max(r2(SurrogateModelKind::GradientBoosting));
        assert!(
            best_tree > r2(SurrogateModelKind::Ridge),
            "trees {best_tree} should beat ridge {}",
            r2(SurrogateModelKind::Ridge)
        );
        assert!(best_tree > 0.7, "tree surrogate quality too low: {best_tree}");
    }

    #[test]
    fn labels_match_table9() {
        let labels: Vec<&str> = SurrogateModelKind::ALL.iter().map(|k| k.label()).collect();
        assert_eq!(labels, vec!["RF", "GB", "SVR", "NuSVR", "KNN", "RR"]);
    }
}
