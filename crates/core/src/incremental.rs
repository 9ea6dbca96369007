//! Incremental knob selection (§5.3, Figure 6): instead of fixing the
//! tuning space up front, grow it (OtterTune) or shrink it (Tuneful) as
//! the session progresses, re-seeding the optimizer with the projected
//! history at every phase boundary.

use crate::optimizer::Optimizer;
use crate::space::{ConfigSpace, TuningSpace};
use crate::tuner::{SessionConfig, SessionCore, SessionResult, SimObjective};
use dbtune_dbsim::KnobCatalog;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// How the number of tuning knobs evolves over the session.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum IncrementalStrategy {
    /// OtterTune: start small, add knobs (in importance order) over time.
    Increase {
        /// Initial number of knobs.
        start: usize,
        /// Knobs added per phase.
        step: usize,
        /// Iterations per phase.
        every: usize,
        /// Ceiling on the knob count.
        cap: usize,
    },
    /// Tuneful: start large, drop the least important knobs over time.
    Decrease {
        /// Initial number of knobs.
        start: usize,
        /// Knobs removed per phase.
        step: usize,
        /// Iterations per phase.
        every: usize,
        /// Floor on the knob count.
        floor: usize,
    },
}

impl IncrementalStrategy {
    /// Number of knobs in use at (0-based) iteration `it`.
    pub fn knobs_at(&self, it: usize) -> usize {
        match *self {
            IncrementalStrategy::Increase { start, step, every, cap } => {
                (start + step * (it / every)).min(cap)
            }
            IncrementalStrategy::Decrease { start, step, every, floor } => {
                start.saturating_sub(step * (it / every)).max(floor)
            }
        }
    }
}

/// Runs a tuning session whose knob set follows `strategy` over a knob
/// ranking (`ranked`, most important first). `make_opt` builds a fresh
/// optimizer for each phase; the evaluated history is replayed into it,
/// projected onto the new subspace. The session's LHS initial design
/// (§4.1) is drawn in the first phase's space; samples that outlast the
/// first phase are projected onto the current one.
pub fn run_incremental_session(
    objective: &mut dyn SimObjective,
    catalog: &KnobCatalog,
    base: &[f64],
    ranked: &[usize],
    strategy: IncrementalStrategy,
    make_opt: &dyn Fn(&ConfigSpace, u64) -> Box<dyn Optimizer>,
    cfg: &SessionConfig,
) -> SessionResult {
    let knobs_at = |it: usize| strategy.knobs_at(it).clamp(1, ranked.len());
    let phase_space = |k: usize| TuningSpace::new(catalog, ranked[..k].to_vec(), base.to_vec());
    let mut k = knobs_at(0);
    let mut space = phase_space(k);
    let mut opt = make_opt(space.space(), cfg.seed);
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    // The LHS initial design is drawn inside the first phase's space.
    let mut core = SessionCore::new(&*objective, &space, opt.as_ref(), cfg, &mut rng);

    // Full-configuration history (projectable onto any phase subspace).
    let mut full_history: Vec<(Vec<f64>, f64)> = Vec::with_capacity(cfg.iterations);
    for it in 0..cfg.iterations {
        if knobs_at(it) != k {
            k = knobs_at(it);
            space = phase_space(k);
            opt = make_opt(space.space(), cfg.seed ^ it as u64);
            // Replay history projected onto the new subspace.
            for (full, score) in &full_history {
                opt.observe(&space.project(full), *score, &[]);
            }
        }
        let obs = core.step(objective, &space, opt.as_mut(), &mut rng, None);
        full_history.push((space.full_config(&obs.config), obs.score));
    }
    core.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::optimizer::{Smac, SmacParams};
    use dbtune_dbsim::{DbSimulator, Hardware, Workload};

    #[test]
    fn strategy_schedules_knob_counts() {
        let inc = IncrementalStrategy::Increase { start: 4, step: 2, every: 10, cap: 10 };
        assert_eq!(inc.knobs_at(0), 4);
        assert_eq!(inc.knobs_at(9), 4);
        assert_eq!(inc.knobs_at(10), 6);
        assert_eq!(inc.knobs_at(100), 10);
        let dec = IncrementalStrategy::Decrease { start: 10, step: 3, every: 5, floor: 4 };
        assert_eq!(dec.knobs_at(0), 10);
        assert_eq!(dec.knobs_at(5), 7);
        assert_eq!(dec.knobs_at(10), 4);
        assert_eq!(dec.knobs_at(50), 4);
    }

    #[test]
    fn incremental_session_runs_and_improves() {
        let mut sim = DbSimulator::new(Workload::Tpcc, Hardware::B, 9);
        let cat = sim.catalog().clone();
        let base = cat.default_config(Hardware::B);
        let ranked: Vec<usize> = [
            "innodb_flush_log_at_trx_commit",
            "sync_binlog",
            "innodb_log_file_size",
            "innodb_io_capacity",
            "innodb_doublewrite",
            "innodb_thread_concurrency",
            "innodb_flush_neighbors",
            "max_dirty_pages_pct_dummy", // replaced below
        ]
        .iter()
        .filter_map(|n| cat.index_of(n))
        .collect();
        let strategy =
            IncrementalStrategy::Increase { start: 3, step: 2, every: 15, cap: ranked.len() };
        let make_opt = |space: &ConfigSpace, seed: u64| -> Box<dyn Optimizer> {
            Box::new(Smac::new(
                space.clone(),
                SmacParams { n_candidates: 100, ..Default::default() },
                seed,
            ))
        };
        let result = run_incremental_session(
            &mut sim,
            &cat,
            &base,
            &ranked,
            strategy,
            &make_opt,
            &SessionConfig { iterations: 45, lhs_init: 5, seed: 11, ..Default::default() },
        );
        assert_eq!(result.observations.len(), 45);
        assert!(result.best_improvement() > 0.2, "improvement {}", result.best_improvement());
        for w in result.best_score_trace.windows(2) {
            assert!(w[1] >= w[0]);
        }
    }
}
