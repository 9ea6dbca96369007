//! The knowledge-transfer module (§3.3, §7): speeding up a target tuning
//! task with observations from historical (source) tuning tasks.
//!
//! * [`mapping::MappedOptimizer`] — OtterTune's workload mapping: match
//!   the target workload to the most similar source by internal-metric
//!   distance and pool that source's observations into the surrogate.
//! * [`rgpe::RgpeOptimizer`] — ResTune's ranking-weighted ensemble over
//!   per-task base surrogates, with weights from bootstrapped ranking
//!   loss; generalized over both GP and random-forest base surrogates so
//!   RGPE(Mixed-Kernel BO) and RGPE(SMAC) both exist, as in Table 8.
//! * **Fine-tune** — CDBTune's approach — lives on the DDPG optimizer
//!   itself ([`crate::optimizer::Ddpg::export_weights`] /
//!   [`crate::optimizer::Ddpg::import_weights`]); [`fine_tuned_ddpg`]
//!   wires it up.

use crate::optimizer::{Ddpg, DdpgParams, DdpgWeights};
use crate::space::ConfigSpace;
use crate::tuner::SessionResult;
use serde::{Deserialize, Serialize};

pub mod mapping;
pub mod rgpe;

pub use mapping::{BaseKind, MappedOptimizer};
pub use rgpe::{RgpeOptimizer, SurrogateKind};

/// Observations gathered on one task: a transfer source's history, a
/// knob-selection pool, or the surrogate benchmark's training data.
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct SourceTask {
    /// Task label (workload name).
    pub name: String,
    /// Raw subspace configurations.
    pub x: Vec<Vec<f64>>,
    /// Maximize-oriented scores (task-local scale).
    pub y: Vec<f64>,
    /// Internal-metric vectors per observation.
    pub metrics: Vec<Vec<f64>>,
}

impl SourceTask {
    /// The observations of a finished session, labelled `name`.
    pub fn from_session(name: &str, result: &SessionResult) -> Self {
        let obs = &result.observations;
        Self {
            name: name.to_string(),
            x: obs.iter().map(|o| o.config.clone()).collect(),
            y: obs.iter().map(|o| o.score).collect(),
            metrics: obs.iter().map(|o| o.metrics.clone()).collect(),
        }
    }

    /// Mean internal-metric vector of the task (the workload signature
    /// used by workload mapping).
    pub fn mean_metrics(&self) -> Vec<f64> {
        if self.metrics.is_empty() {
            return Vec::new();
        }
        let d = self.metrics[0].len();
        let mut m = vec![0.0; d];
        for row in &self.metrics {
            for (acc, v) in m.iter_mut().zip(row) {
                *acc += v;
            }
        }
        for v in &mut m {
            *v /= self.metrics.len() as f64;
        }
        m
    }

    /// Task-local standardization of the scores (per-task scales differ
    /// across workloads; rank information is what transfers).
    pub fn standardized_y(&self) -> Vec<f64> {
        let mean = dbtune_linalg::stats::mean(&self.y);
        let std = dbtune_linalg::stats::std_dev(&self.y).max(1e-12);
        self.y.iter().map(|v| (v - mean) / std).collect()
    }
}

/// Builds a DDPG agent warm-started from pre-trained weights (the
/// fine-tune transfer framework).
pub fn fine_tuned_ddpg(
    space: ConfigSpace,
    state_dim: usize,
    weights: &DdpgWeights,
    params: DdpgParams,
    seed: u64,
) -> Ddpg {
    let mut agent = Ddpg::new(space, state_dim, params, seed);
    agent.import_weights(weights);
    agent
}

#[cfg(test)]
mod tests {
    use super::*;
    use dbtune_dbsim::knob::KnobSpec;

    #[test]
    fn mean_metrics_averages_rows() {
        let task = SourceTask {
            name: "t".into(),
            x: vec![vec![0.0], vec![1.0]],
            y: vec![1.0, 2.0],
            metrics: vec![vec![0.0, 2.0], vec![2.0, 4.0]],
        };
        assert_eq!(task.mean_metrics(), vec![1.0, 3.0]);
    }

    #[test]
    fn standardized_y_is_zero_mean_unit_std() {
        let task = SourceTask {
            name: "t".into(),
            x: vec![vec![0.0]; 4],
            y: vec![10.0, 20.0, 30.0, 40.0],
            metrics: vec![],
        };
        let z = task.standardized_y();
        assert!(dbtune_linalg::stats::mean(&z).abs() < 1e-12);
        assert!((dbtune_linalg::stats::std_dev(&z) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn fine_tuned_ddpg_reproduces_source_policy() {
        let space = ConfigSpace::new(vec![KnobSpec::real("x", 0.0, 1.0, false, 0.5)]);
        let source = Ddpg::new(space.clone(), 4, DdpgParams::default(), 3);
        let w = source.export_weights();
        let tuned = fine_tuned_ddpg(space, 4, &w, DdpgParams::default(), 99);
        let fresh = Ddpg::new(
            ConfigSpace::new(vec![KnobSpec::real("x", 0.0, 1.0, false, 0.5)]),
            4,
            DdpgParams::default(),
            99,
        );
        // The fine-tuned agent carries source weights, not seed-99 weights.
        let w_tuned = tuned.export_weights();
        assert_eq!(w_tuned.actor, w.actor);
        assert_ne!(w_tuned.actor, fresh.export_weights().actor);
    }
}
