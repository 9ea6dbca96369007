//! Criterion companion to §8's speedup claim: one surrogate-benchmark
//! evaluation should sit in the sub-millisecond range, versus 210
//! simulated seconds of workload replay — the source of the paper's
//! 150–311× end-to-end speedup. Also measures the raw simulator
//! evaluation, which is what the benchmark's offline collection pays,
//! and the GP surrogate's single-probe posterior, layer by layer.

use criterion::{criterion_group, criterion_main, Criterion};
use dbtune_benchmark::collect::collect_samples;
use dbtune_benchmark::objective::SurrogateBenchmark;
use dbtune_core::exec::DeterministicObjective;
use dbtune_core::gp::{select_hyperparams, GaussianProcess, Kernel, PredictScratch, RbfKernel};
use dbtune_core::space::TuningSpace;
use dbtune_dbsim::{DbSimulator, Hardware, Objective, Workload};
use dbtune_linalg::{Cholesky, Matrix};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::hint::black_box;

fn bench_space(sim: &DbSimulator) -> TuningSpace {
    let cat = sim.catalog();
    let selected: Vec<usize> = [
        "innodb_flush_log_at_trx_commit",
        "sync_binlog",
        "innodb_log_file_size",
        "innodb_io_capacity",
        "innodb_thread_concurrency",
    ]
    .iter()
    .map(|n| cat.expect_index(n))
    .collect();
    TuningSpace::with_default_base(cat, selected, Hardware::B)
}

fn evaluations(c: &mut Criterion) {
    let mut sim = DbSimulator::new(Workload::Sysbench, Hardware::B, 5);
    let space = bench_space(&sim);
    let ds = collect_samples(&mut sim, &space, 300, 7);
    let bench = SurrogateBenchmark::train(space.clone(), Objective::Throughput, &ds, 1);
    let cfg = space.full_config(&space.default_sub());

    let mut group = c.benchmark_group("evaluation");
    group.bench_function("surrogate_predict", |b| {
        b.iter(|| black_box(bench.evaluate_pure(black_box(&cfg), 0).value))
    });
    group.bench_function("simulator_evaluate", |b| {
        b.iter(|| black_box(sim.evaluate(black_box(&cfg)).value))
    });
    group.finish();
}

/// One GP posterior at a single query — what each acquisition-polish
/// probe pays — at all 197 SYSBENCH knobs and the history lengths a
/// Vanilla BO session reaches, with its two O(n·d) / O(n²) layers (the
/// kernel row and the forward solve) timed on their own.
fn gp_predict_one(c: &mut Criterion) {
    const D: usize = 197;
    let mut group = c.benchmark_group("gp_predict_one");
    for n in [100usize, 240] {
        let mut rng = StdRng::seed_from_u64(n as u64);
        let x: Vec<Vec<f64>> = (0..n).map(|_| (0..D).map(|_| rng.gen()).collect()).collect();
        let y: Vec<f64> = x.iter().map(|r| r[..10].iter().sum()).collect();
        let q: Vec<f64> = (0..D).map(|_| rng.gen()).collect();
        let (ls, noise) = select_hyperparams(&RbfKernel { lengthscale: 0.3 }, &x, &y);
        let kernel = RbfKernel { lengthscale: ls };
        let gp = GaussianProcess::fit(Box::new(kernel.clone()), &x, &y, noise);
        let k = Matrix::from_fn(n, n, |i, j| {
            kernel.eval(&x[i], &x[j]) + if i == j { noise } else { 0.0 }
        });
        let (chol, _) = Cholesky::decompose_with_jitter(&k, 1e-8, 12).expect("GP covariance is PD");

        let mut scratch = PredictScratch::default();
        group.bench_function(format!("predict_d{D}_n{n}"), |b| {
            b.iter(|| black_box(gp.predict_with(black_box(&q), &mut scratch)))
        });
        let mut row = vec![0.0; n];
        group.bench_function(format!("kernel_row_d{D}_n{n}"), |b| {
            b.iter(|| {
                gp.kernel_row(black_box(&q), &mut row);
                black_box(row[n - 1])
            })
        });
        gp.kernel_row(&q, &mut row);
        let mut v = vec![0.0; n];
        group.bench_function(format!("solve_lower_n{n}"), |b| {
            b.iter(|| {
                chol.solve_lower_into(black_box(&row), &mut v);
                black_box(v[n - 1])
            })
        });
    }
    group.finish();
}

criterion_group!(benches, evaluations, gp_predict_one);
criterion_main!(benches);
