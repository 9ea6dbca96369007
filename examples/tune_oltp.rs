//! End-to-end OLTP tuning pipeline on SYSBENCH, exactly as the paper's
//! recommended "best path" (§9.1): collect an LHS sample pool, rank the
//! 197 knobs with SHAP, tune the top-20 with SMAC.
//!
//! ```sh
//! cargo run --release --example tune_oltp
//! ```

use dbtune::prelude::*;
use rand::SeedableRng;

fn main() {
    let workload = Workload::Sysbench;
    let mut sim = DbSimulator::new(workload, Hardware::B, 11);
    let catalog = sim.catalog().clone();

    // --- Step 1: collect an observation pool over all 197 knobs --------
    let n_pool = 600;
    println!("collecting {n_pool} LHS observations over all 197 knobs…");
    let all: Vec<usize> = (0..catalog.len()).collect();
    let full_space = TuningSpace::with_default_base(&catalog, all, Hardware::B);
    let mut rng = rand::rngs::StdRng::seed_from_u64(5);
    let pool = collect_pool(&mut sim, &full_space, n_pool, &mut rng);

    // --- Step 2: rank knobs by SHAP tunability ------------------------
    println!("ranking knobs with SHAP…");
    let scores = MeasureKind::Shap.scores(&full_space, &pool, 3);
    let selected = top_k(&scores, 20);
    println!("top-20 knobs by SHAP tunability:");
    for (rank, &i) in selected.iter().enumerate() {
        println!("  {:>2}. {:<40} (score {:.1})", rank + 1, catalog.spec(i).name, scores[i]);
    }

    // --- Step 3: tune the pruned space with SMAC ----------------------
    println!("\ntuning top-20 space with SMAC (120 iterations)…");
    let space = TuningSpace::with_default_base(&catalog, selected, Hardware::B);
    let mut opt = OptimizerKind::Smac.build(space.space(), METRICS_DIM, 1);
    let result = run_session(
        &mut sim,
        &space,
        &mut opt,
        &SessionConfig { iterations: 120, lhs_init: 10, seed: 9, ..Default::default() },
    );

    println!("default throughput : {:>8.0} tx/s", result.default_value);
    println!("best throughput    : {:>8.0} tx/s", result.best_value());
    println!("improvement        : {:+.1}%", result.best_improvement() * 100.0);
    println!(
        "simulated tuning time saved by pruning 197 -> 20 knobs: the whole\n\
         session replayed {:.1} simulated hours of workload",
        result.simulated_secs / 3600.0
    );

    assert!(result.best_improvement() > 0.3, "SYSBENCH top-20 tuning should pay off well");
}
