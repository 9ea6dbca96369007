//! Offline training-data collection for the surrogate benchmark.
//!
//! Following Eggensperger et al. (the paper's §8 recipe): run real
//! optimizers to densely sample the *high-performance* regions, and LHS
//! to cover the poorly-performing rest. Failed configurations are kept
//! with the worst-seen score so the surrogate learns where the cliffs
//! are. All data is collected within one simulated instance for a
//! consistent measurement.

use dbtune_core::importance::collect_pool;
use dbtune_core::optimizer::{Optimizer, OptimizerKind};
use dbtune_core::space::TuningSpace;
use dbtune_core::transfer::SourceTask;
use dbtune_core::tuner::{pool_score, SimObjective};
use dbtune_dbsim::METRICS_DIM;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Collects `n_total` samples: 50% LHS coverage, 50% optimizer-driven
/// (SMAC sessions) densification of good regions.
pub fn collect_samples(
    objective: &mut dyn SimObjective,
    space: &TuningSpace,
    n_total: usize,
    seed: u64,
) -> SourceTask {
    let mut rng = StdRng::seed_from_u64(seed);

    // Phase 1: LHS coverage.
    let n_lhs = n_total / 2;
    let mut ds = collect_pool(objective, space, n_lhs.max(1), &mut rng);

    // Phase 2: optimizer-driven densification of good regions. The crash
    // rule carries on from the worst score phase 1 saw.
    let mut worst = ds.y.iter().copied().fold(f64::INFINITY, f64::min);
    let n_opt = n_total - n_lhs;
    let mut opt = OptimizerKind::Smac.build(space.space(), METRICS_DIM, seed ^ 0xc0111ec7);
    // Warm-start from the best LHS half so the optimizer heads uphill.
    for (sub, score) in ds.x.iter().zip(&ds.y) {
        opt.observe(sub, *score, &[]);
    }
    for _ in 0..n_opt {
        let sub = opt.suggest(&mut rng);
        let res = objective.evaluate(&space.full_config(&sub));
        let score = pool_score(&*objective, space.base(), &res, &mut worst);
        opt.observe(&sub, score, &res.metrics);
        ds.x.push(sub);
        ds.y.push(score);
        ds.metrics.push(res.metrics);
    }
    ds
}

#[cfg(test)]
mod tests {
    use super::*;
    use dbtune_dbsim::{DbSimulator, Hardware, Workload};

    fn write_space(sim: &DbSimulator) -> TuningSpace {
        let cat = sim.catalog();
        let selected = vec![
            cat.expect_index("innodb_flush_log_at_trx_commit"),
            cat.expect_index("sync_binlog"),
            cat.expect_index("innodb_log_file_size"),
        ];
        TuningSpace::with_default_base(cat, selected, Hardware::B)
    }

    #[test]
    fn collects_requested_number_of_samples() {
        let mut sim = DbSimulator::new(Workload::Smallbank, Hardware::B, 17);
        let space = write_space(&sim);
        let ds = collect_samples(&mut sim, &space, 60, 1);
        assert_eq!(ds.y.len(), 60);
        assert!(ds.x.iter().all(|c| c.len() == 3));
        assert!(ds.y.iter().all(|y| y.is_finite()));
    }

    #[test]
    fn optimizer_phase_densifies_good_regions() {
        let mut sim = DbSimulator::new(Workload::Tpcc, Hardware::B, 18);
        let space = write_space(&sim);
        let ds = collect_samples(&mut sim, &space, 80, 2);
        // Second half (optimizer-driven) should average better than the
        // LHS half — that's the whole point of densification.
        let half = ds.y.len() / 2;
        let lhs_mean = dbtune_linalg::stats::mean(&ds.y[..half]);
        let opt_mean = dbtune_linalg::stats::mean(&ds.y[half..]);
        assert!(
            opt_mean > lhs_mean,
            "optimizer phase should find better configs: {lhs_mean} vs {opt_mean}"
        );
    }
}
