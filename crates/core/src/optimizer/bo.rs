//! Gaussian-process Bayesian optimization: **vanilla BO** (RBF kernel over
//! the ordinal-encoded unit cube, as OtterTune/iTuned configure it) and
//! **mixed-kernel BO** (Matérn-5/2 × Hamming, as in OpenBox/RoBO).
//!
//! The only difference between the two is the kernel and the categorical
//! encoding — precisely the comparison of the paper's §6.2.2 heterogeneity
//! experiment. Vanilla BO's ordinal encoding imposes a fake ordering on
//! categorical options; the Hamming kernel treats every mismatch equally.

use super::{ObsStore, Optimizer, SurrogateIntrospect};
use crate::acquisition::{
    expected_improvement, maximize_batched, probability_of_improvement, upper_confidence_bound,
};
use crate::gp::{
    select_hyperparams, GaussianProcess, Kernel, MixedKernel, PredictScratch, RbfKernel,
};
use crate::space::ConfigSpace;
use crate::telemetry;
use rand::rngs::StdRng;

/// Acquisition function for the GP optimizers (the paper uses EI
/// everywhere; UCB/PI are ablation options).
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Acquisition {
    /// Expected Improvement (default, as in the paper).
    Ei,
    /// Upper Confidence Bound with exploration weight β.
    Ucb {
        /// Exploration weight.
        beta: f64,
    },
    /// Probability of Improvement.
    Pi,
}

/// Which GP flavour to run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BoKind {
    /// RBF kernel on the unit cube, categoricals ordinal-encoded.
    Vanilla,
    /// Matérn×Hamming kernel, categoricals kept as codes.
    Mixed,
}

/// GP-based Bayesian optimizer with Expected Improvement.
pub struct BoOptimizer {
    space: ConfigSpace,
    kind: BoKind,
    obs: ObsStore,
    /// When set, EI uses this incumbent instead of the best absorbed
    /// score (see transfer wrappers).
    pub ei_best_override: Option<f64>,
    /// Random candidates per acquisition maximization.
    pub n_candidates: usize,
    /// Acquisition function (EI unless ablating).
    pub acquisition: Acquisition,
    /// Cached `(lengthscale, noise)` and the observation count it was
    /// selected at; the grid search reruns every 10 observations.
    hp_cache: Option<(f64, f64, usize)>,
    /// Incrementally maintained GP: reused across suggests via
    /// `GaussianProcess::extend` while the hyper-parameters stay fixed.
    gp: Option<GaussianProcess>,
    /// Hyper-parameters the cached GP was fitted with, as IEEE-754 bit
    /// words — the reuse test is exact identity, not float comparison.
    gp_hp: Option<(u64, u64)>,
    /// Predictive `(mean, variance)` at the most recent suggestion,
    /// captured for the quality recorder only when diagnostics are on
    /// (the capture is an extra stateless predict — no RNG, no model
    /// mutation — so the suggestion stream is unchanged either way).
    last_pred: Option<(f64, f64)>,
}

impl BoOptimizer {
    /// Creates the optimizer over `space`.
    pub fn new(space: ConfigSpace, kind: BoKind) -> Self {
        Self {
            space,
            kind,
            obs: ObsStore::default(),
            ei_best_override: None,
            n_candidates: 512,
            acquisition: Acquisition::Ei,
            hp_cache: None,
            gp: None,
            gp_hp: None,
            last_pred: None,
        }
    }

    /// Encodes a raw configuration for the GP.
    ///
    /// Vanilla: everything to the unit cube (ordinal categoricals).
    /// Mixed: numeric dims unit-encoded, categorical dims left as codes so
    /// the Hamming kernel can compare identities.
    fn encode(&self, raw: &[f64]) -> Vec<f64> {
        raw.iter().enumerate().map(|(d, &v)| self.encode_dim(d, v)).collect()
    }

    /// Encodes coordinate `d` alone: the encoding is per-dimension.
    fn encode_dim(&self, d: usize, v: f64) -> f64 {
        let domain = &self.space.specs()[d].domain;
        match self.kind {
            BoKind::Mixed if domain.is_categorical() => v,
            _ => domain.to_unit(v),
        }
    }

    fn kernel(&self) -> Box<dyn Kernel> {
        match self.kind {
            BoKind::Vanilla => Box::new(RbfKernel { lengthscale: 0.3 }),
            BoKind::Mixed => Box::new(MixedKernel {
                cont_dims: self.space.numeric_dims(),
                cat_dims: self.space.categorical_dims(),
                lengthscale: 0.3,
                hamming_weight: 2.0,
            }),
        }
    }

    /// The observations recorded so far (used by transfer wrappers).
    pub fn observations(&self) -> &ObsStore {
        &self.obs
    }

    /// Seeds the optimizer with externally collected observations
    /// (workload-mapping pools source data this way).
    pub fn absorb(&mut self, x: &[Vec<f64>], y: &[f64]) {
        for (cfg, score) in x.iter().zip(y) {
            self.obs.push(cfg, *score);
        }
    }
}

impl Optimizer for BoOptimizer {
    fn name(&self) -> &str {
        match self.kind {
            BoKind::Vanilla => "Vanilla BO",
            BoKind::Mixed => "Mixed-Kernel BO",
        }
    }

    fn suggest(&mut self, rng: &mut StdRng) -> Vec<f64> {
        self.last_pred = None;
        if self.obs.len() < 2 {
            return self.space.sample(rng);
        }
        {
            let _fit = telemetry::span("surrogate_fit");
            let n = self.obs.len();
            let (ls, noise) = match self.hp_cache {
                Some((ls, noise, at)) if n < at + 10 => (ls, noise),
                _ => {
                    let x_enc: Vec<Vec<f64>> = self.obs.x.iter().map(|c| self.encode(c)).collect();
                    let hp = select_hyperparams(self.kernel().as_ref(), &x_enc, &self.obs.y);
                    self.hp_cache = Some((hp.0, hp.1, n));
                    hp
                }
            };
            let hp_bits = (ls.to_bits(), noise.to_bits());
            // The cached GP is reusable while the selected hyper-parameters
            // are bit-identical to the ones it was fitted with; new
            // observations are absorbed in O(n²) via `extend`, which is
            // bit-identical to refitting from scratch (gp_equivalence).
            let reusable =
                self.gp_hp == Some(hp_bits) && self.gp.as_ref().is_some_and(|gp| gp.n_train() <= n);
            if reusable {
                let fitted = self.gp.as_ref().map_or(0, |gp| gp.n_train());
                let pending: Vec<(Vec<f64>, f64)> =
                    (fitted..n).map(|i| (self.encode(&self.obs.x[i]), self.obs.y[i])).collect();
                let gp = self.gp.as_mut().expect("reusable GP present");
                for (xe, ye) in pending {
                    gp.extend(xe, ye);
                }
            } else {
                let x_enc: Vec<Vec<f64>> = self.obs.x.iter().map(|c| self.encode(c)).collect();
                self.gp = Some(GaussianProcess::fit(
                    self.kernel().with_lengthscale(ls),
                    &x_enc,
                    &self.obs.y,
                    noise,
                ));
                self.gp_hp = Some(hp_bits);
            }
        }
        let gp = self.gp.as_ref().expect("GP fitted above");
        let best =
            self.ei_best_override.unwrap_or_else(|| self.obs.best_score().expect("nonempty"));

        let incumbents: Vec<Vec<f64>> =
            self.obs.top_k(3).into_iter().map(|i| self.obs.x[i].clone()).collect();
        let acq = |(m, v): (f64, f64)| match self.acquisition {
            Acquisition::Ei => expected_improvement(m, v, best, 0.01),
            Acquisition::Ucb { beta } => upper_confidence_bound(m, v, beta),
            Acquisition::Pi => probability_of_improvement(m, v, best, 0.01),
        };
        // Polish probes differ from the previous probe in one coordinate:
        // re-encode only the coordinates whose raw bits changed, and
        // predict against reusable buffers.
        let mut probe_raw: Vec<f64> = Vec::new();
        let mut probe_enc: Vec<f64> = Vec::new();
        let mut scratch = PredictScratch::default();
        let _acq_span = telemetry::span("acquisition");
        let cand = maximize_batched(
            &self.space,
            |raws| {
                let enc: Vec<Vec<f64>> = raws.iter().map(|r| self.encode(r)).collect();
                gp.predict_batch(&enc).into_iter().map(acq).collect()
            },
            |raw| {
                if probe_raw.len() != raw.len() {
                    probe_raw = raw.to_vec();
                    probe_enc = self.encode(raw);
                }
                for (d, (&v, kept)) in raw.iter().zip(probe_raw.iter_mut()).enumerate() {
                    if v.to_bits() != kept.to_bits() {
                        *kept = v;
                        probe_enc[d] = self.encode_dim(d, v);
                    }
                }
                acq(gp.predict_with(&probe_enc, &mut scratch))
            },
            &incumbents,
            self.n_candidates,
            rng,
        );
        // Quality diagnostics: re-score the winner for its predictive
        // moments. Stateless and RNG-free, and skipped entirely when
        // diagnostics are off, so the diag-off path is byte-for-byte the
        // original one.
        let pred = telemetry::global().diag_enabled().then(|| gp.predict(&self.encode(&cand)));
        self.last_pred = pred;
        cand
    }

    fn observe(&mut self, cfg: &[f64], score: f64, _metrics: &[f64]) {
        self.obs.push(cfg, score);
    }
}

impl SurrogateIntrospect for BoOptimizer {
    fn last_prediction(&self) -> Option<(f64, f64)> {
        self.last_pred
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dbtune_dbsim::knob::KnobSpec;
    use rand::SeedableRng;

    fn quadratic_space() -> ConfigSpace {
        ConfigSpace::new(vec![
            KnobSpec::real("x", 0.0, 1.0, false, 0.5),
            KnobSpec::real("y", 0.0, 1.0, false, 0.5),
        ])
    }

    /// Smooth maximization target with optimum at (0.8, 0.2).
    fn objective(c: &[f64]) -> f64 {
        -((c[0] - 0.8).powi(2) + (c[1] - 0.2).powi(2))
    }

    fn run_bo(kind: BoKind, iters: usize) -> f64 {
        let space = quadratic_space();
        let mut opt = BoOptimizer::new(space, kind);
        opt.n_candidates = 128;
        let mut rng = StdRng::seed_from_u64(11);
        let mut best = f64::NEG_INFINITY;
        for _ in 0..iters {
            let cfg = opt.suggest(&mut rng);
            let y = objective(&cfg);
            best = best.max(y);
            opt.observe(&cfg, y, &[]);
        }
        best
    }

    #[test]
    fn vanilla_bo_converges_on_smooth_function() {
        let best = run_bo(BoKind::Vanilla, 25);
        assert!(best > -0.01, "vanilla BO best {best}");
    }

    #[test]
    fn mixed_bo_converges_on_smooth_function() {
        let best = run_bo(BoKind::Mixed, 25);
        assert!(best > -0.01, "mixed BO best {best}");
    }

    #[test]
    fn mixed_bo_handles_categorical_optimum() {
        // Optimum requires picking category 2 of 4; continuous dim minor.
        let space = ConfigSpace::new(vec![
            KnobSpec::cat("c", vec!["a", "b", "c", "d"], 0),
            KnobSpec::real("x", 0.0, 1.0, false, 0.5),
        ]);
        let f = |c: &[f64]| if c[0] == 2.0 { 1.0 - (c[1] - 0.5).abs() } else { 0.0 };
        let mut opt = BoOptimizer::new(space, BoKind::Mixed);
        opt.n_candidates = 128;
        let mut rng = StdRng::seed_from_u64(3);
        let mut best = f64::NEG_INFINITY;
        for _ in 0..20 {
            let cfg = opt.suggest(&mut rng);
            let y = f(&cfg);
            best = best.max(y);
            opt.observe(&cfg, y, &[]);
        }
        assert!(best > 0.8, "mixed BO failed categorical optimum: {best}");
    }

    #[test]
    fn suggest_before_observations_is_random_but_legal() {
        let space = quadratic_space();
        let mut opt = BoOptimizer::new(space.clone(), BoKind::Vanilla);
        let mut rng = StdRng::seed_from_u64(4);
        let cfg = opt.suggest(&mut rng);
        let mut c = cfg.clone();
        space.clamp(&mut c);
        assert_eq!(c, cfg);
    }

    #[test]
    fn ucb_and_pi_acquisitions_also_converge() {
        for acq in [Acquisition::Ucb { beta: 2.0 }, Acquisition::Pi] {
            let space = quadratic_space();
            let mut opt = BoOptimizer::new(space, BoKind::Vanilla);
            opt.acquisition = acq;
            opt.n_candidates = 128;
            let mut rng = StdRng::seed_from_u64(31);
            let mut best = f64::NEG_INFINITY;
            for _ in 0..25 {
                let cfg = opt.suggest(&mut rng);
                let y = objective(&cfg);
                best = best.max(y);
                opt.observe(&cfg, y, &[]);
            }
            assert!(best > -0.02, "{acq:?} failed to converge: {best}");
        }
    }

    #[test]
    fn absorb_pools_external_observations() {
        let space = quadratic_space();
        let mut opt = BoOptimizer::new(space, BoKind::Vanilla);
        opt.absorb(&[vec![0.1, 0.1], vec![0.2, 0.2]], &[1.0, 2.0]);
        assert_eq!(opt.observations().len(), 2);
        assert_eq!(opt.observations().best_score(), Some(2.0));
    }
}
