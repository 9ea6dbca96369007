//! Knowledge transfer with RGPE: tune two source workloads, then use
//! their observations to accelerate a target workload, and compare
//! against tuning the target from scratch (§7 as a runnable example).
//!
//! ```sh
//! cargo run --release --example transfer_tuning
//! ```

use dbtune::prelude::*;

fn knob_set(catalog: &KnobCatalog) -> Vec<usize> {
    [
        "innodb_flush_log_at_trx_commit",
        "sync_binlog",
        "innodb_log_file_size",
        "innodb_io_capacity",
        "innodb_thread_concurrency",
        "innodb_doublewrite",
        "innodb_flush_neighbors",
        "max_connections",
    ]
    .iter()
    .map(|n| catalog.expect_index(n))
    .collect()
}

fn tune(workload: Workload, opt: &mut dyn Optimizer, iters: usize, seed: u64) -> SessionResult {
    let mut sim = DbSimulator::new(workload, Hardware::B, seed);
    let catalog = sim.catalog().clone();
    let space = TuningSpace::with_default_base(&catalog, knob_set(&catalog), Hardware::B);
    run_session(
        &mut sim,
        &space,
        opt,
        &SessionConfig { iterations: iters, lhs_init: 10, seed, ..Default::default() },
    )
}

fn main() {
    let catalog = DbSimulator::new(Workload::Tpcc, Hardware::B, 0).catalog().clone();
    let space = TuningSpace::with_default_base(&catalog, knob_set(&catalog), Hardware::B);

    // --- Step 1: gather history from two source workloads -------------
    println!("tuning source workloads (Smallbank, SEATS) to build history…");
    let mut sources = Vec::new();
    for (i, wl) in [Workload::Smallbank, Workload::Seats].into_iter().enumerate() {
        let mut opt = OptimizerKind::Smac.build(space.space(), METRICS_DIM, 40 + i as u64);
        let r = tune(wl, &mut opt, 60, 40 + i as u64);
        println!("  {}: best improvement {:+.1}%", wl.name(), r.best_improvement() * 100.0);
        sources.push(SourceTask::from_session(wl.name(), &r));
    }

    // --- Step 2: target task with and without transfer -----------------
    let target = Workload::Tpcc;
    let iters = 50;

    let mut scratch = OptimizerKind::Smac.build(space.space(), METRICS_DIM, 99);
    let base = tune(target, &mut scratch, iters, 99);

    let mut rgpe =
        RgpeOptimizer::new(space.space().clone(), SurrogateKind::RandomForest, &sources, 99);
    let transfer = tune(target, &mut rgpe, iters, 99);

    println!("\ntarget = {} ({iters} iterations each)", target.name());
    println!(
        "  from scratch : best {:>6.0} tx/s ({:+.1}%), best found at iter {}",
        base.best_value(),
        base.best_improvement() * 100.0,
        base.iterations_to_best()
    );
    println!(
        "  RGPE (SMAC)  : best {:>6.0} tx/s ({:+.1}%), beat the scratch best at iter {}",
        transfer.best_value(),
        transfer.best_improvement() * 100.0,
        transfer
            .iterations_to_beat(base.best_score())
            .map_or("never".to_string(), |i| i.to_string()),
    );
    println!(
        "  final RGPE ensemble weights (sources…, target): {:?}",
        rgpe.last_weights.iter().map(|w| format!("{w:.2}")).collect::<Vec<_>>()
    );
}
