//! Bit fingerprints of session outputs that no other suite pins: the
//! incremental knob-selection session (Figure 6), the knob ranking of
//! `TuningService::select_knobs`, and the full-catalog LHS pool every
//! knob-selection driver ranks from. Each constant was captured from the
//! code as it stood and must only change together with an intended,
//! documented change of the tuning trajectory.

use dbtune_core::exec::{CachedObjective, EvalCache};
use dbtune_core::importance::{collect_pool, MeasureKind};
use dbtune_core::incremental::{run_incremental_session, IncrementalStrategy};
use dbtune_core::optimizer::{BoKind, BoOptimizer, Optimizer};
use dbtune_core::service::TuningService;
use dbtune_core::space::{ConfigSpace, TuningSpace};
use dbtune_core::tuner::{SessionConfig, SessionResult};
use dbtune_dbsim::{DbSimulator, Hardware, Workload};
use rand::rngs::StdRng;
use rand::SeedableRng;

const NOISE_SEED: u64 = 4242;

/// FNV-1a over a stream of 64-bit words.
fn fnv1a(words: impl IntoIterator<Item = u64>) -> u64 {
    let mut h: u64 = 0xcbf29ce484222325;
    for w in words {
        for b in w.to_le_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x100000001b3);
        }
    }
    h
}

/// Everything deterministic about a session, folded into one word:
/// configurations, values, scores, crash flags, metrics, the best-score
/// trace, the default value and the simulated-time ledger. Wall-clock
/// overheads are excluded.
fn session_fingerprint(r: &SessionResult) -> u64 {
    let mut words: Vec<u64> = vec![r.observations.len() as u64];
    for o in &r.observations {
        words.push(o.config.len() as u64);
        words.extend(o.config.iter().map(|v| v.to_bits()));
        words.push(o.value.to_bits());
        words.push(o.score.to_bits());
        words.push(o.failed as u64);
        words.extend(o.metrics.iter().map(|v| v.to_bits()));
    }
    words.extend(r.best_score_trace.iter().map(|v| v.to_bits()));
    words.push(r.default_value.to_bits());
    words.push(r.simulated_secs.to_bits());
    fnv1a(words)
}

/// A Figure 6 cell in miniature: vanilla BO over a SYSBENCH ranking that
/// includes the crash-prone buffer pool, through the cached objective.
/// Also returns the default value of each ranked knob.
fn incremental(strategy: IncrementalStrategy, seed: u64) -> (SessionResult, Vec<f64>) {
    let sim = DbSimulator::new(Workload::Sysbench, Hardware::A, 21);
    let catalog = sim.catalog().clone();
    let base = catalog.default_config(Hardware::A);
    let ranked: Vec<usize> = [
        "innodb_buffer_pool_size",
        "innodb_flush_log_at_trx_commit",
        "sync_binlog",
        "innodb_log_file_size",
        "innodb_io_capacity",
        "innodb_thread_concurrency",
    ]
    .iter()
    .map(|n| catalog.expect_index(n))
    .collect();
    let make_opt = |space: &ConfigSpace, _seed: u64| -> Box<dyn Optimizer> {
        Box::new(BoOptimizer::new(space.clone(), BoKind::Vanilla))
    };
    let defaults = ranked.iter().map(|&i| base[i]).collect();
    let mut obj = CachedObjective::new(sim, Some(EvalCache::shared()), NOISE_SEED);
    let result = run_incremental_session(
        &mut obj,
        &catalog,
        &base,
        &ranked,
        strategy,
        &make_opt,
        &SessionConfig { iterations: 24, lhs_init: 10, seed, ..Default::default() },
    );
    (result, defaults)
}

#[test]
fn incremental_increase_session_is_pinned() {
    let (r, defaults) =
        incremental(IncrementalStrategy::Increase { start: 2, step: 2, every: 8, cap: 6 }, 7);
    assert_eq!(r.observations.len(), 24);
    let dims: Vec<usize> = r.observations.iter().map(|o| o.config.len()).collect();
    assert_eq!(&dims[..9], &[2, 2, 2, 2, 2, 2, 2, 2, 4]);
    // §4.1's 10 LHS samples are drawn in the first phase's 2-knob space,
    // so the last two reach the second phase with its new knobs at their
    // defaults.
    for o in &r.observations[8..10] {
        assert_eq!(o.config[2..], defaults[2..4], "LHS sample projected onto phase 2");
    }
    assert!(r.observations.iter().any(|o| o.failed), "the crash rule must be exercised");
    // Changed when incremental sessions started using the session's
    // full LHS design (previously only iteration 0 was an LHS draw).
    assert_eq!(session_fingerprint(&r), 6817748673431656518, "incremental Increase fingerprint");
}

#[test]
fn incremental_decrease_session_is_pinned() {
    let (r, _) =
        incremental(IncrementalStrategy::Decrease { start: 6, step: 2, every: 8, floor: 2 }, 9);
    assert_eq!(r.observations.len(), 24);
    assert_eq!(r.observations.last().map(|o| o.config.len()), Some(2));
    assert!(r.observations.iter().any(|o| o.failed), "the crash rule must be exercised");
    // Changed with the Increase constant above, for the same reason.
    assert_eq!(session_fingerprint(&r), 14361233546593138868, "incremental Decrease fingerprint");
}

#[test]
fn select_knobs_ranking_is_pinned() {
    // All 197 knobs on the small host: the LHS pool crashes often, so the
    // pool's crash scoring shapes the ranking.
    let mut sim = DbSimulator::new(Workload::Sysbench, Hardware::A, 5);
    let service = TuningService::new(sim.catalog().clone());
    let ranked = service.select_knobs(&mut sim, MeasureKind::Lasso, 80, 10, 3);
    assert_eq!(ranked, [0, 28, 29, 142, 45, 67, 186, 145, 50, 19], "select_knobs ranking");
}

#[test]
fn full_catalog_pool_is_pinned() {
    // `dbtune_bench::full_pool`'s recipe (seed 7, as every driver calls
    // it): all 197 knobs around instance B's defaults. 4 of the 20 draws
    // crash, so the pool's crash scoring is covered.
    let mut sim = DbSimulator::new(Workload::Sysbench, Hardware::B, 7);
    let catalog = sim.catalog().clone();
    let space = TuningSpace::with_default_base(&catalog, (0..catalog.len()).collect(), Hardware::B);
    let pool = collect_pool(&mut sim, &space, 20, &mut StdRng::seed_from_u64(7 ^ 0x9001));
    assert_eq!(pool.x.len(), 20);
    let words = pool
        .x
        .iter()
        .flat_map(|c| c.iter().map(|v| v.to_bits()))
        .chain(pool.y.iter().map(|v| v.to_bits()))
        .chain(pool.metrics.iter().flat_map(|m| m.iter().map(|v| v.to_bits())));
    // Captured from the inline collection loop `full_pool` ran before the
    // collector existed.
    assert_eq!(fnv1a(words), 17518602037831407799, "full-catalog pool fingerprint");
}
