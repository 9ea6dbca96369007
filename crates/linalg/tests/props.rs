//! Property-based tests for the numerics core: Cholesky on arbitrary SPD
//! matrices, rank/quantile invariants, and statistic bounds.

use dbtune_linalg::stats;
use dbtune_linalg::{Cholesky, Matrix};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Strategy: a random matrix B (n×n) from which A = B·Bᵀ + εI is SPD.
fn spd_matrix(n: usize) -> impl Strategy<Value = Matrix> {
    proptest::collection::vec(-5.0f64..5.0, n * n).prop_map(move |data| spd_from(&data, n))
}

/// `B·Bᵀ + 0.1·I` for the `n × n` matrix `B` read row-major from `data`.
fn spd_from(data: &[f64], n: usize) -> Matrix {
    let b = Matrix::from_vec(n, n, data[..n * n].to_vec());
    let mut a = b.matmul(&b.transpose());
    a.add_diagonal(0.1);
    a
}

/// Textbook forward substitution: one loop-carried chain per row,
/// `sum = b[i]; sum -= L[i][k]·x[k]` for k ascending, then `/ L[i][i]`.
/// The reference the row-blocked `solve_lower` must match to the bit.
fn scalar_forward_substitution(l: &Matrix, b: &[f64]) -> Vec<f64> {
    let mut x = vec![0.0; b.len()];
    for i in 0..b.len() {
        let mut sum = b[i];
        for k in 0..i {
            sum -= l[(i, k)] * x[k];
        }
        x[i] = sum / l[(i, i)];
    }
    x
}

fn assert_solve_matches_reference(c: &Cholesky, b: &[f64]) {
    let got = c.solve_lower(b);
    let want = scalar_forward_substitution(c.factor(), b);
    for (i, (g, w)) in got.iter().zip(&want).enumerate() {
        assert_eq!(g.to_bits(), w.to_bits(), "n {}: row {i} differs ({g} vs {w})", b.len());
    }
}

/// `A = B·Bᵀ + 0.1·I` for a seeded uniform `B`, at fixed sizes.
fn seeded_spd(n: usize, seed: u64) -> Matrix {
    let mut rng = StdRng::seed_from_u64(seed);
    let data: Vec<f64> = (0..n * n).map(|_| rng.gen_range(-1.0..1.0)).collect();
    spd_from(&data, n)
}

/// The row-blocked solve against the scalar reference across every
/// block/tail split up to two full blocks plus a tail, and at GP sizes.
#[test]
fn row_blocked_solve_matches_scalar_reference() {
    let sizes: Vec<usize> = (1..=17).chain([100, 240]).collect();
    for n in sizes {
        let c = Cholesky::decompose(&seeded_spd(n, n as u64)).expect("SPD by construction");
        let mut rng = StdRng::seed_from_u64(1000 + n as u64);
        let b: Vec<f64> = (0..n).map(|_| rng.gen_range(-3.0..3.0)).collect();
        assert_solve_matches_reference(&c, &b);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn cholesky_reconstructs_spd_matrices(a in spd_matrix(5)) {
        let c = Cholesky::decompose(&a).expect("SPD by construction");
        let l = c.factor();
        let recon = l.matmul(&l.transpose());
        prop_assert!(recon.max_abs_diff(&a) < 1e-6 * (1.0 + a.max_abs_diff(&Matrix::zeros(5,5))));
    }

    #[test]
    fn cholesky_solve_satisfies_system(a in spd_matrix(4), x in proptest::collection::vec(-3.0f64..3.0, 4)) {
        let b = a.matvec(&x);
        let c = Cholesky::decompose(&a).expect("SPD");
        let solved = c.solve(&b);
        let back = a.matvec(&solved);
        for (bi, vi) in b.iter().zip(back) {
            prop_assert!((bi - vi).abs() < 1e-6 * (1.0 + bi.abs()));
        }
    }

    #[test]
    fn log_determinant_is_finite_for_spd(a in spd_matrix(4)) {
        let c = Cholesky::decompose(&a).expect("SPD");
        prop_assert!(c.log_determinant().is_finite());
    }

    /// `rank1_append` grown row-by-row from the leading block equals
    /// `decompose` of the full matrix, bit for bit — the invariant the GP
    /// incremental fit stands on.
    #[test]
    fn rank1_append_equals_full_decompose(a in spd_matrix(6)) {
        let n = a.rows();
        let lead = Matrix::from_fn(2, 2, |i, j| a[(i, j)]);
        let mut inc = Cholesky::decompose(&lead).expect("leading block SPD");
        for m in 2..n {
            let row: Vec<f64> = (0..=m).map(|j| a[(m, j)]).collect();
            inc.rank1_append(&row).expect("SPD extension");
        }
        let full = Cholesky::decompose(&a).expect("SPD by construction");
        let (li, lf) = (inc.factor(), full.factor());
        prop_assert_eq!(li.rows(), lf.rows());
        for i in 0..n {
            for j in 0..n {
                prop_assert_eq!(
                    li[(i, j)].to_bits(), lf[(i, j)].to_bits(),
                    "factor bits differ at ({}, {})", i, j
                );
            }
        }
    }

    /// Appending a row that duplicates an existing one makes the bordered
    /// matrix singular. Whatever the final pivot rounds to, `rank1_append`
    /// must agree *exactly* with a from-scratch `decompose` of the
    /// extended matrix: same success/failure verdict, bit-identical factor
    /// on success, untouched factor plus a working jitter fallback on
    /// failure — the GP extend/fallback contract.
    #[test]
    fn rank1_append_agrees_with_decompose_on_singular_extension(
        a in spd_matrix(4), dup in 0usize..4,
    ) {
        let n = a.rows();
        let c0 = Cholesky::decompose(&a).expect("SPD by construction");
        let mut inc = c0.clone();
        // New row = copy of row `dup`, bordered diagonal = a[dup][dup].
        let mut row: Vec<f64> = (0..n).map(|j| a[(dup, j)]).collect();
        row.push(a[(dup, dup)]);
        let mut ext = a.clone();
        ext.grow_square(&row, &row[..n]);
        match (inc.rank1_append(&row), Cholesky::decompose(&ext)) {
            (Ok(()), Ok(full)) => {
                for i in 0..=n {
                    for j in 0..=n {
                        prop_assert_eq!(
                            inc.factor()[(i, j)].to_bits(), full.factor()[(i, j)].to_bits(),
                            "factor bits differ at ({}, {})", i, j
                        );
                    }
                }
            }
            (Err(_), Err(_)) => {
                // Failed append leaves the factor exactly as it was...
                for i in 0..n {
                    for j in 0..n {
                        prop_assert_eq!(
                            inc.factor()[(i, j)].to_bits(), c0.factor()[(i, j)].to_bits()
                        );
                    }
                }
                // ...and the caller-side jitter ladder rescues the refit.
                let (c, jitter) = Cholesky::decompose_with_jitter(&ext, 1e-8, 12)
                    .expect("jitter ladder rescues the singular extension");
                prop_assert!(jitter > 0.0);
                prop_assert_eq!(c.factor().rows(), n + 1);
            }
            (append, full) => {
                prop_assert!(
                    false,
                    "verdict mismatch: append {:?} vs decompose {:?}", append, full.map(|_| ())
                );
            }
        }
    }

    /// Row-blocked solve == scalar reference on arbitrary SPD factors of
    /// every size through the first block/tail boundaries.
    #[test]
    fn row_blocked_solve_matches_scalar_on_random_factors(
        n in 1usize..=17,
        data in proptest::collection::vec(-5.0f64..5.0, 17 * 17),
        b in proptest::collection::vec(-3.0f64..3.0, 17),
    ) {
        let c = Cholesky::decompose(&spd_from(&data, n)).expect("SPD by construction");
        assert_solve_matches_reference(&c, &b[..n]);
    }

    /// The same on near-singular factors: a duplicated row makes the
    /// bordered matrix singular, so its factor carries a pivot at
    /// rounding scale (or the jitter that rescued it) — the regime where
    /// any reassociation would show first.
    #[test]
    fn row_blocked_solve_matches_scalar_on_near_singular_factors(
        n in 7usize..=16,
        data in proptest::collection::vec(-5.0f64..5.0, 16 * 16),
        dup in 0usize..7,
        b in proptest::collection::vec(-3.0f64..3.0, 17),
    ) {
        let a = spd_from(&data, n);
        let mut row: Vec<f64> = (0..n).map(|j| a[(dup, j)]).collect();
        row.push(a[(dup, dup)]);
        let mut ext = a.clone();
        ext.grow_square(&row, &row[..n]);
        let (c, _) = Cholesky::decompose_with_jitter(&ext, 1e-8, 12)
            .expect("jitter ladder rescues the singular extension");
        assert_solve_matches_reference(&c, &b[..=n]);
    }

    #[test]
    fn ranks_are_a_permutation_average(xs in proptest::collection::vec(-100.0f64..100.0, 2..40)) {
        let r = stats::ranks(&xs);
        let n = xs.len() as f64;
        // Ranks always sum to n(n+1)/2 regardless of ties.
        let total: f64 = r.iter().sum();
        prop_assert!((total - n * (n + 1.0) / 2.0).abs() < 1e-9);
        for v in &r {
            prop_assert!(*v >= 1.0 && *v <= n);
        }
    }

    #[test]
    fn quantiles_are_monotone_and_bounded(xs in proptest::collection::vec(-100.0f64..100.0, 1..50)) {
        let q25 = stats::quantile(&xs, 0.25);
        let q50 = stats::quantile(&xs, 0.5);
        let q75 = stats::quantile(&xs, 0.75);
        prop_assert!(q25 <= q50 && q50 <= q75);
        let min = xs.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = xs.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        prop_assert!(q25 >= min && q75 <= max);
    }

    #[test]
    fn r_squared_never_exceeds_one(truth in proptest::collection::vec(-10.0f64..10.0, 3..30),
                                   noise in proptest::collection::vec(-1.0f64..1.0, 3..30)) {
        let n = truth.len().min(noise.len());
        let pred: Vec<f64> = truth[..n].iter().zip(&noise[..n]).map(|(t, e)| t + e).collect();
        prop_assert!(stats::r_squared(&pred, &truth[..n]) <= 1.0 + 1e-12);
    }

    #[test]
    fn iou_is_symmetric_and_bounded(a in proptest::collection::vec(0usize..20, 0..10),
                                    b in proptest::collection::vec(0usize..20, 0..10)) {
        let ab = stats::intersection_over_union(&a, &b);
        let ba = stats::intersection_over_union(&b, &a);
        prop_assert!((ab - ba).abs() < 1e-12);
        prop_assert!((0.0..=1.0).contains(&ab));
    }

    #[test]
    fn standardizer_output_is_zero_mean(rows in proptest::collection::vec(
        proptest::collection::vec(-50.0f64..50.0, 3), 2..30)) {
        let st = stats::Standardizer::fit(&rows);
        let tr = st.transform_all(&rows);
        for d in 0..3 {
            let col: Vec<f64> = tr.iter().map(|r| r[d]).collect();
            prop_assert!(stats::mean(&col).abs() < 1e-9);
        }
    }
}
