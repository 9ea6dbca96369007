//! The §8 surrogate tuning benchmark as a runnable example: collect
//! offline samples once, train a random-forest stand-in for the DBMS, and
//! evaluate optimizers against it at a tiny fraction of the cost.
//!
//! ```sh
//! cargo run --release --example surrogate_benchmark
//! ```

use dbtune::core::exec::CachedObjective;
use dbtune::prelude::*;
use std::time::Instant;

fn main() {
    let workload = Workload::Smallbank;
    let mut sim = DbSimulator::new(workload, Hardware::B, 33);
    let catalog = sim.catalog().clone();
    let selected: Vec<usize> = [
        "innodb_flush_log_at_trx_commit",
        "sync_binlog",
        "innodb_log_file_size",
        "innodb_io_capacity",
        "innodb_thread_concurrency",
        "innodb_doublewrite",
    ]
    .iter()
    .map(|n| catalog.expect_index(n))
    .collect();
    let space = TuningSpace::with_default_base(&catalog, selected, Hardware::B);

    // --- Offline: expensive one-time collection ------------------------
    println!("collecting 400 offline samples (LHS + optimizer-driven)…");
    let ds = collect_samples(&mut sim, &space, 400, 5);
    println!(
        "  would have cost {:.1} simulated hours of workload replay",
        sim.total_simulated_secs() / 3600.0
    );
    let bench = SurrogateBenchmark::train(space.clone(), Objective::Throughput, &ds, 1);

    // --- Online: cheap optimizer evaluation ----------------------------
    // Sessions are timed end to end, optimizer overhead included.
    let t0 = Instant::now();
    let mut n_evals = 0;
    for kind in [OptimizerKind::Smac, OptimizerKind::MixedKernelBo, OptimizerKind::Ga] {
        let mut opt = kind.build(space.space(), METRICS_DIM, 2);
        let mut obj = CachedObjective::new(&bench, None, 2);
        let r = run_session(
            &mut obj,
            &space,
            &mut opt,
            &SessionConfig { iterations: 100, lhs_init: 10, seed: 2, ..Default::default() },
        );
        n_evals += obj.n_evals();
        println!(
            "  {:<16} best improvement on surrogate: {:+.1}%",
            kind.label(),
            r.best_improvement() * 100.0
        );
    }

    let report = SpeedupReport::new(n_evals, t0.elapsed().as_secs_f64());
    println!(
        "\n{} surrogate evaluations took {:.3}s end to end; workload replay\n\
         would have taken {:.1} hours -> {:.0}x speedup (the paper reports\n\
         150-311x end-to-end including optimizer overhead)",
        report.n_evals,
        report.wall_secs,
        report.replay_secs / 3600.0,
        report.speedup
    );
    assert!(report.speedup > 100.0);
}
