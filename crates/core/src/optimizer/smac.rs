//! SMAC (Sequential Model-based Algorithm Configuration, Hutter et al.):
//! random-forest surrogate + Expected Improvement + local search around
//! incumbents, with interleaved random configurations.
//!
//! The forest's across-tree disagreement provides the Gaussian
//! `N(μ̂, σ̂²)` SMAC assumes; trees natively split categorical and numeric
//! knobs, which is why the paper crowns SMAC on both high-dimensional and
//! heterogeneous spaces.

use super::{ObsStore, Optimizer, SurrogateIntrospect};
use crate::acquisition::{expected_improvement, maximize_batched};
use crate::space::ConfigSpace;
use crate::telemetry;
use dbtune_ml::{RandomForest, RandomForestParams, Regressor, UncertainRegressor};
use rand::rngs::StdRng;

/// SMAC hyper-parameters.
#[derive(Clone, Debug)]
pub struct SmacParams {
    /// Interleave one uniformly random configuration every `n` suggestions
    /// (the classic SMAC exploration guarantee); `0` disables interleaving
    /// (ablation switch).
    pub random_interleave_every: usize,
    /// Random candidates per acquisition maximization.
    pub n_candidates: usize,
}

impl Default for SmacParams {
    fn default() -> Self {
        Self { random_interleave_every: 8, n_candidates: 400 }
    }
}

/// The SMAC optimizer.
pub struct Smac {
    space: ConfigSpace,
    params: SmacParams,
    obs: ObsStore,
    /// When set, EI uses this incumbent instead of the best absorbed
    /// score (transfer wrappers pool source observations whose rescaled
    /// scores must not inflate the incumbent).
    pub ei_best_override: Option<f64>,
    seed: u64,
    n_suggest: usize,
    /// Forest's predictive `(mean, variance)` at the most recent
    /// suggestion, captured for the quality recorder only when
    /// diagnostics are on (stateless, RNG-free).
    last_pred: Option<(f64, f64)>,
}

impl Smac {
    /// Creates SMAC over `space` with a deterministic forest seed.
    pub fn new(space: ConfigSpace, params: SmacParams, seed: u64) -> Self {
        Self {
            space,
            params,
            obs: ObsStore::default(),
            ei_best_override: None,
            seed,
            n_suggest: 0,
            last_pred: None,
        }
    }

    /// The observations recorded so far.
    pub fn observations(&self) -> &ObsStore {
        &self.obs
    }

    /// Seeds the optimizer with externally collected observations.
    pub fn absorb(&mut self, x: &[Vec<f64>], y: &[f64]) {
        for (cfg, score) in x.iter().zip(y) {
            self.obs.push(cfg, *score);
        }
    }

    /// Fits the forest surrogate on the current observations.
    fn fit_surrogate(&self) -> RandomForest {
        let params =
            RandomForestParams::surrogate(self.space.dim(), self.seed ^ self.obs.len() as u64);
        let mut rf = RandomForest::new(params, self.space.feature_kinds());
        rf.fit(&self.obs.x, &self.obs.y);
        rf
    }
}

impl Optimizer for Smac {
    fn name(&self) -> &str {
        "SMAC"
    }

    fn suggest(&mut self, rng: &mut StdRng) -> Vec<f64> {
        self.last_pred = None;
        self.n_suggest += 1;
        if self.obs.len() < 2 {
            return self.space.sample(rng);
        }
        let every = self.params.random_interleave_every;
        if every > 0 && self.n_suggest.is_multiple_of(every) {
            return self.space.sample(rng);
        }

        let rf = {
            let _fit = telemetry::span("surrogate_fit");
            self.fit_surrogate()
        };
        let best =
            self.ei_best_override.unwrap_or_else(|| self.obs.best_score().expect("nonempty"));
        let incumbents: Vec<Vec<f64>> =
            self.obs.top_k(10).into_iter().map(|i| self.obs.x[i].clone()).collect();
        let _acq_span = telemetry::span("acquisition");
        let cand = maximize_batched(
            &self.space,
            |raws| {
                rf.predict_with_variance_batch(raws)
                    .into_iter()
                    .map(|(m, v)| expected_improvement(m, v, best, 0.01))
                    .collect()
            },
            |raw| {
                let (m, v) = rf.predict_with_variance(raw);
                expected_improvement(m, v, best, 0.01)
            },
            &incumbents,
            self.params.n_candidates,
            rng,
        );
        // Quality diagnostics: re-score the winner for its predictive
        // moments (SMAC's forest predicts on raw configurations).
        // Stateless and RNG-free; skipped when diagnostics are off so
        // that path stays byte-for-byte the original one.
        if telemetry::global().diag_enabled() {
            self.last_pred =
                rf.predict_with_variance_batch(std::slice::from_ref(&cand)).first().copied();
        }
        cand
    }

    fn observe(&mut self, cfg: &[f64], score: f64, _metrics: &[f64]) {
        self.obs.push(cfg, score);
    }
}

impl SurrogateIntrospect for Smac {
    fn last_prediction(&self) -> Option<(f64, f64)> {
        self.last_pred
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dbtune_dbsim::knob::KnobSpec;
    use rand::SeedableRng;

    fn run_smac(space: ConfigSpace, f: impl Fn(&[f64]) -> f64, iters: usize, seed: u64) -> f64 {
        let mut opt =
            Smac::new(space, SmacParams { n_candidates: 150, ..Default::default() }, seed);
        let mut rng = StdRng::seed_from_u64(seed);
        let mut best = f64::NEG_INFINITY;
        for _ in 0..iters {
            let cfg = opt.suggest(&mut rng);
            let y = f(&cfg);
            best = best.max(y);
            opt.observe(&cfg, y, &[]);
        }
        best
    }

    #[test]
    fn smac_solves_mixed_space() {
        let space = ConfigSpace::new(vec![
            KnobSpec::real("x", 0.0, 1.0, false, 0.5),
            KnobSpec::cat("c", vec!["a", "b", "c", "d"], 0),
            KnobSpec::int("k", 0, 100, false, 50),
        ]);
        let f = |cfg: &[f64]| {
            let cat = if cfg[1] == 3.0 { 1.0 } else { 0.0 };
            cat - (cfg[0] - 0.25).powi(2) - ((cfg[2] - 80.0) / 100.0).powi(2)
        };
        let best = run_smac(space, f, 60, 7);
        assert!(best > 0.8, "SMAC best too low: {best}");
    }

    #[test]
    fn smac_beats_its_own_first_samples_on_high_dim() {
        // 20-dimensional additive objective.
        let specs: Vec<KnobSpec> = (0..20)
            .map(|i| {
                let name: &'static str = Box::leak(format!("d{i}").into_boxed_str());
                KnobSpec::real(name, 0.0, 1.0, false, 0.5)
            })
            .collect();
        let space = ConfigSpace::new(specs);
        let f = |cfg: &[f64]| -cfg.iter().map(|v| (v - 0.9) * (v - 0.9)).sum::<f64>();
        let mut opt = Smac::new(space, SmacParams { n_candidates: 150, ..Default::default() }, 3);
        let mut rng = StdRng::seed_from_u64(3);
        let mut first10 = f64::NEG_INFINITY;
        let mut overall = f64::NEG_INFINITY;
        for i in 0..80 {
            let cfg = opt.suggest(&mut rng);
            let y = f(&cfg);
            if i < 10 {
                first10 = first10.max(y);
            }
            overall = overall.max(y);
            opt.observe(&cfg, y, &[]);
        }
        assert!(overall > first10 + 0.3, "no progress: {first10} -> {overall}");
    }

    #[test]
    fn interleaving_emits_random_configs() {
        // With interleave_every = 1 every model step is replaced by random:
        // suggestions must still be legal.
        let space = ConfigSpace::new(vec![KnobSpec::int("a", 1, 9, false, 5)]);
        let mut opt = Smac::new(
            space.clone(),
            SmacParams { random_interleave_every: 1, n_candidates: 10 },
            1,
        );
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..10 {
            let cfg = opt.suggest(&mut rng);
            assert!((1.0..=9.0).contains(&cfg[0]));
            opt.observe(&cfg, 0.0, &[]);
        }
    }
}
