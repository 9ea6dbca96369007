//! Numeric-equivalence suite for the GP/acquisition hot path.
//!
//! The overhaul (incremental Cholesky via `rank1_append`, cached kernel
//! blocks, batched prediction and batched acquisition scoring) is pure
//! optimization: every result must be **bit-identical** to the historical
//! from-scratch / pointwise implementations. This suite pins that down at
//! three levels:
//!
//! 1. model level — `GaussianProcess::extend` vs `fit`, `predict_batch`
//!    vs looped `predict`, over all three kernels;
//!    plus the dim-major kernel row against `Kernel::eval` row by row;
//! 2. search level — `maximize_batched` (pool-first, in-place polish)
//!    vs the pointwise, clone-per-probe `maximize` reference below,
//!    under GP- and forest-backed scoring closures;
//! 3. optimizer level — `BoOptimizer::suggest` (incremental + batched)
//!    vs a from-scratch reference replay of the historical suggest loop,
//!    RNG stream and all.

use dbtune_core::acquisition::{expected_improvement, maximize_batched};
use dbtune_core::gp::{
    select_hyperparams, GaussianProcess, Kernel, Matern52Kernel, MixedKernel, PredictScratch,
    RbfKernel,
};
use dbtune_core::optimizer::{BoKind, BoOptimizer, ObsStore, Optimizer};
use dbtune_core::space::ConfigSpace;
use dbtune_dbsim::knob::KnobSpec;
use dbtune_ml::{RandomForest, RandomForestParams, Regressor, UncertainRegressor};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The historical pointwise maximizer, kept as the reference
/// `maximize_batched` is checked against: every candidate scored on its
/// own as it is drawn, and every polish probe a fresh clone of the
/// current point.
fn maximize<F>(
    space: &ConfigSpace,
    score: F,
    incumbents: &[Vec<f64>],
    n_random: usize,
    rng: &mut impl Rng,
) -> Vec<f64>
where
    F: Fn(&[f64]) -> f64,
{
    let mut best_cfg: Option<Vec<f64>> = None;
    let mut best_val = f64::NEG_INFINITY;
    let mut consider = |cfg: Vec<f64>, val: f64| {
        if val > best_val {
            best_val = val;
            best_cfg = Some(cfg);
        }
    };
    for _ in 0..n_random {
        let cfg = space.sample(rng);
        let v = score(&cfg);
        consider(cfg, v);
    }
    for inc in incumbents {
        for _ in 0..16 {
            let cfg = space.neighbour(inc, 0.1, rng);
            let v = score(&cfg);
            consider(cfg, v);
        }
    }
    let mut cur = best_cfg.expect("no candidates generated");
    let mut cur_val = best_val;
    for _ in 0..4 {
        let mut improved = false;
        for d in 0..space.dim() {
            for &step in &[0.05, 0.2] {
                let mut cand = cur.clone();
                space.mutate_dim(&mut cand, d, step, rng);
                let v = score(&cand);
                if v > cur_val {
                    cur_val = v;
                    cur = cand;
                    improved = true;
                }
            }
        }
        if !improved {
            break;
        }
    }
    cur
}

/// One prototype kernel per family, over 3-dim inputs with dim 2
/// categorical (codes 0..4). The mixed kernel exercises both parts.
fn kernels() -> Vec<(&'static str, Box<dyn Kernel>)> {
    vec![
        ("rbf", Box::new(RbfKernel { lengthscale: 0.25 })),
        ("matern52", Box::new(Matern52Kernel { lengthscale: 0.25 })),
        (
            "mixed",
            Box::new(MixedKernel {
                cont_dims: vec![0, 1],
                cat_dims: vec![2],
                lengthscale: 0.25,
                hamming_weight: 2.0,
            }),
        ),
    ]
}

fn sample_data(n: usize, seed: u64) -> (Vec<Vec<f64>>, Vec<f64>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let x: Vec<Vec<f64>> =
        (0..n).map(|_| vec![rng.gen(), rng.gen(), rng.gen_range(0..4) as f64]).collect();
    let y: Vec<f64> =
        x.iter().map(|v| (v[0] * 5.0).sin() + v[1] * v[1] - 0.2 * v[2] + 40.0).collect();
    (x, y)
}

fn assert_bits_eq(a: (f64, f64), b: (f64, f64), context: &str) {
    assert_eq!(a.0.to_bits(), b.0.to_bits(), "mean bits differ: {context}");
    assert_eq!(a.1.to_bits(), b.1.to_bits(), "variance bits differ: {context}");
}

#[test]
fn incremental_extend_matches_full_fit_all_kernels() {
    let (x, y) = sample_data(24, 11);
    let probes = sample_data(10, 99).0;
    for (name, kernel) in kernels() {
        for noise in [1e-6, 1e-2] {
            let full = GaussianProcess::fit(kernel.with_lengthscale(0.25), &x, &y, noise);
            let mut inc =
                GaussianProcess::fit(kernel.with_lengthscale(0.25), &x[..2], &y[..2], noise);
            for i in 2..x.len() {
                inc.extend(x[i].clone(), y[i]);
            }
            assert_eq!(inc.n_train(), full.n_train());
            assert_eq!(
                inc.jitter().to_bits(),
                full.jitter().to_bits(),
                "jitter state diverged for {name}"
            );
            for q in &probes {
                assert_bits_eq(full.predict(q), inc.predict(q), &format!("{name}, noise {noise}"));
            }
        }
    }
}

#[test]
fn predict_batch_matches_pointwise_all_kernels() {
    let (x, y) = sample_data(20, 5);
    let queries = sample_data(40, 77).0;
    for (name, kernel) in kernels() {
        // fit_auto exercises grid-selected hyper-parameters too.
        let gp = GaussianProcess::fit_auto(kernel.with_lengthscale(0.25), &x, &y);
        let batch = gp.predict_batch(&queries);
        assert_eq!(batch.len(), queries.len());
        for (q, b) in queries.iter().zip(batch) {
            assert_bits_eq(gp.predict(q), b, name);
        }
    }
}

/// The three kernels over `d` dims; the mixed kernel takes every third
/// dim as categorical and folds its continuous dims in descending order,
/// so a fold that ignored `cont_dims` order would show.
fn kernels_for_dim(d: usize) -> Vec<(&'static str, Box<dyn Kernel>)> {
    let ls = 0.3 * (d as f64).sqrt();
    let cat_dims: Vec<usize> = (0..d).filter(|j| d > 1 && j % 3 == 1).collect();
    let cont_dims: Vec<usize> = (0..d).rev().filter(|j| !cat_dims.contains(j)).collect();
    vec![
        ("rbf", Box::new(RbfKernel { lengthscale: ls })),
        ("matern52", Box::new(Matern52Kernel { lengthscale: ls })),
        (
            "mixed",
            Box::new(MixedKernel { cont_dims, cat_dims, lengthscale: ls, hamming_weight: 2.0 }),
        ),
    ]
}

/// A `d`-dim point: unit coordinates, category codes 0..4 on the dims
/// `kernels_for_dim` makes categorical.
fn point(d: usize, rng: &mut StdRng) -> Vec<f64> {
    (0..d)
        .map(|j| if d > 1 && j % 3 == 1 { rng.gen_range(0..4) as f64 } else { rng.gen() })
        .collect()
}

/// The dim-major kernel row must equal `Kernel::eval` on each training
/// row to the bit — an independent reference, since `predict` and
/// `predict_batch` both go through the row. Checked for all three
/// kernels across block-edge sizes and paper-scale dimensions, after the
/// initial fit and after every `extend` of the chain.
#[test]
fn kernel_row_matches_eval_row_by_row() {
    for d in [1usize, 20, 197] {
        for n in [1usize, 7, 8, 9, 100] {
            let mut rng = StdRng::seed_from_u64((d * 1000 + n) as u64);
            let x: Vec<Vec<f64>> = (0..n).map(|_| point(d, &mut rng)).collect();
            let y: Vec<f64> = (0..n).map(|_| rng.gen::<f64>()).collect();
            let mut queries: Vec<Vec<f64>> = (0..3).map(|_| point(d, &mut rng)).collect();
            queries.push(x[n / 2].clone());
            for (name, kernel) in kernels_for_dim(d) {
                let start = n.div_ceil(2);
                let mut gp = GaussianProcess::fit(
                    kernel.with_lengthscale(0.3 * (d as f64).sqrt()),
                    &x[..start],
                    &y[..start],
                    1e-2,
                );
                for m in start..=n {
                    if m > start {
                        gp.extend(x[m - 1].clone(), y[m - 1]);
                    }
                    let mut row = vec![0.0; m];
                    for q in &queries {
                        gp.kernel_row(q, &mut row);
                        for (i, (xi, r)) in x.iter().zip(&row).enumerate() {
                            assert_eq!(
                                kernel.eval(xi, q).to_bits(),
                                r.to_bits(),
                                "{name}, d {d}, n {m}: row {i} differs from Kernel::eval"
                            );
                        }
                    }
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Incremental == from-scratch on arbitrary data, arbitrary split
    /// points, and both smooth kernels, to the bit.
    #[test]
    fn extend_equals_fit_on_random_data(
        raw in proptest::collection::vec((0u32..64, -50i32..50), 4..24),
        start in 1usize..6,
        matern in 0u32..2,
    ) {
        let x: Vec<Vec<f64>> = raw.iter().map(|(v, _)| vec![*v as f64 / 63.0]).collect();
        let y: Vec<f64> = raw.iter().map(|(_, t)| *t as f64 / 10.0).collect();
        let start = start.min(x.len() - 1);
        let kernel: Box<dyn Kernel> = if matern == 1 {
            Box::new(Matern52Kernel { lengthscale: 0.3 })
        } else {
            Box::new(RbfKernel { lengthscale: 0.3 })
        };
        let full = GaussianProcess::fit(kernel.with_lengthscale(0.3), &x, &y, 1e-4);
        let mut inc = GaussianProcess::fit(
            kernel.with_lengthscale(0.3), &x[..start], &y[..start], 1e-4,
        );
        for i in start..x.len() {
            inc.extend(x[i].clone(), y[i]);
        }
        prop_assert_eq!(inc.jitter().to_bits(), full.jitter().to_bits());
        for q in [&[0.1][..], &[0.5], &[0.9], &[2.0]] {
            let (mf, vf) = full.predict(q);
            let (mi, vi) = inc.predict(q);
            prop_assert_eq!(mf.to_bits(), mi.to_bits(), "mean drift at {:?}", q);
            prop_assert_eq!(vf.to_bits(), vi.to_bits(), "variance drift at {:?}", q);
        }
    }
}

fn mixed_space() -> ConfigSpace {
    ConfigSpace::new(vec![
        KnobSpec::real("a", 0.0, 1.0, false, 0.5),
        KnobSpec::int("b", 1, 1000, true, 10),
        KnobSpec::cat("c", vec!["x", "y", "z", "w"], 0),
    ])
}

/// `maximize_batched` must return the exact configuration `maximize`
/// returns for the same scoring function and RNG seed — same candidate
/// stream, same first-strict-max tie-breaks, same polish trajectory.
#[test]
fn maximize_batched_matches_pointwise_maximize_under_gp_scoring() {
    let space = mixed_space();
    let (x, y) = sample_data(16, 21);
    let gp = GaussianProcess::fit(Box::new(RbfKernel { lengthscale: 0.3 }), &x, &y, 1e-4);
    let best = y.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
    let incumbents: Vec<Vec<f64>> = vec![vec![0.4, 12.0, 1.0], vec![0.9, 640.0, 3.0]];
    for seed in [1u64, 7, 42, 1234] {
        let mut rng_a = StdRng::seed_from_u64(seed);
        let mut rng_b = StdRng::seed_from_u64(seed);
        let enc = |space: &ConfigSpace, raw: &[f64]| space.to_unit(raw);
        let mut scratch = PredictScratch::default();
        let a = maximize(
            &space,
            |raw| {
                let (m, v) = gp.predict(&enc(&space, raw));
                expected_improvement(m, v, best, 0.01)
            },
            &incumbents,
            128,
            &mut rng_a,
        );
        let b = maximize_batched(
            &space,
            |raws| {
                let encoded: Vec<Vec<f64>> = raws.iter().map(|r| enc(&space, r)).collect();
                gp.predict_batch(&encoded)
                    .into_iter()
                    .map(|(m, v)| expected_improvement(m, v, best, 0.01))
                    .collect()
            },
            |raw| {
                let (m, v) = gp.predict_with(&enc(&space, raw), &mut scratch);
                expected_improvement(m, v, best, 0.01)
            },
            &incumbents,
            128,
            &mut rng_b,
        );
        assert_eq!(a.len(), b.len());
        for (d, (va, vb)) in a.iter().zip(&b).enumerate() {
            assert_eq!(va.to_bits(), vb.to_bits(), "seed {seed}: dim {d} differs ({va} vs {vb})");
        }
        // The two searches must also leave their RNGs in the same state.
        assert_eq!(rng_a.gen::<u64>(), rng_b.gen::<u64>(), "RNG streams diverged at seed {seed}");
    }
}

/// Same exactness for SMAC-style forest scoring (`predict_with_variance`
/// pointwise vs the batched forest path).
#[test]
fn maximize_batched_matches_pointwise_under_forest_scoring() {
    let space = mixed_space();
    let mut rng = StdRng::seed_from_u64(3);
    let x: Vec<Vec<f64>> = (0..40)
        .map(|_| vec![rng.gen::<f64>(), rng.gen_range(1..=1000) as f64, rng.gen_range(0..4) as f64])
        .collect();
    let y: Vec<f64> = x.iter().map(|v| v[0] * 2.0 - (v[1] / 500.0 - 1.0).abs() + v[2]).collect();
    let mut rf = RandomForest::new(RandomForestParams::surrogate(3, 17), space.feature_kinds());
    rf.fit(&x, &y);
    let best = y.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
    for seed in [2u64, 19, 301] {
        let mut rng_a = StdRng::seed_from_u64(seed);
        let mut rng_b = StdRng::seed_from_u64(seed);
        let a = maximize(
            &space,
            |raw| {
                let (m, v) = rf.predict_with_variance(raw);
                expected_improvement(m, v, best, 0.01)
            },
            &[x[0].clone()],
            96,
            &mut rng_a,
        );
        let b = maximize_batched(
            &space,
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
            &[x[0].clone()],
            96,
            &mut rng_b,
        );
        for (d, (va, vb)) in a.iter().zip(&b).enumerate() {
            assert_eq!(va.to_bits(), vb.to_bits(), "seed {seed}: dim {d} differs");
        }
    }
}

/// Replays the historical BO suggest loop — fresh `GaussianProcess::fit`
/// every iteration, pointwise `maximize` — with its own RNG, and checks
/// `BoOptimizer` (incremental extend + batched scoring) emits the
/// bit-identical suggestion stream across hyper-parameter re-selections
/// (every 10 observations) and both kernel flavours.
#[test]
fn bo_suggest_stream_matches_from_scratch_reference() {
    for kind in [BoKind::Vanilla, BoKind::Mixed] {
        let space = mixed_space();
        let objective = |c: &[f64]| {
            -(c[0] - 0.7).powi(2) - ((c[1] - 300.0) / 1000.0).powi(2)
                + if c[2] == 2.0 { 0.5 } else { 0.0 }
        };

        let encode = |raw: &[f64]| -> Vec<f64> {
            match kind {
                BoKind::Vanilla => space.to_unit(raw),
                BoKind::Mixed => raw
                    .iter()
                    .zip(space.specs())
                    .map(|(v, s)| if s.domain.is_categorical() { *v } else { s.domain.to_unit(*v) })
                    .collect(),
            }
        };
        let kernel = || -> Box<dyn Kernel> {
            match kind {
                BoKind::Vanilla => Box::new(RbfKernel { lengthscale: 0.3 }),
                BoKind::Mixed => Box::new(MixedKernel {
                    cont_dims: space.numeric_dims(),
                    cat_dims: space.categorical_dims(),
                    lengthscale: 0.3,
                    hamming_weight: 2.0,
                }),
            }
        };

        let mut opt = BoOptimizer::new(space.clone(), kind);
        opt.n_candidates = 64;
        let mut rng_opt = StdRng::seed_from_u64(4242);

        let mut obs = ObsStore::default();
        let mut hp_cache: Option<(f64, f64, usize)> = None;
        let mut rng_ref = StdRng::seed_from_u64(4242);

        for iter in 0..26 {
            // Reference replay of the historical suggest.
            let reference = if obs.len() < 2 {
                space.sample(&mut rng_ref)
            } else {
                let x_enc: Vec<Vec<f64>> = obs.x.iter().map(|c| encode(c)).collect();
                let n = obs.len();
                let (ls, noise) = match hp_cache {
                    Some((ls, noise, at)) if n < at + 10 => (ls, noise),
                    _ => {
                        let hp = select_hyperparams(kernel().as_ref(), &x_enc, &obs.y);
                        hp_cache = Some((hp.0, hp.1, n));
                        hp
                    }
                };
                let gp = GaussianProcess::fit(kernel().with_lengthscale(ls), &x_enc, &obs.y, noise);
                let best = obs.best_score().expect("nonempty");
                let incumbents: Vec<Vec<f64>> =
                    obs.top_k(3).into_iter().map(|i| obs.x[i].clone()).collect();
                maximize(
                    &space,
                    |raw| {
                        let (m, v) = gp.predict(&encode(raw));
                        expected_improvement(m, v, best, 0.01)
                    },
                    &incumbents,
                    64,
                    &mut rng_ref,
                )
            };

            let suggested = opt.suggest(&mut rng_opt);
            for (d, (vs, vr)) in suggested.iter().zip(&reference).enumerate() {
                assert_eq!(
                    vs.to_bits(),
                    vr.to_bits(),
                    "{kind:?} iter {iter}: dim {d} diverged ({vs} vs {vr})"
                );
            }

            let score = objective(&suggested);
            opt.observe(&suggested, score, &[]);
            obs.push(&reference, score);
        }
    }
}
