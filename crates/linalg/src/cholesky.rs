//! Cholesky factorization and solves for symmetric positive-definite
//! systems.
//!
//! Gaussian-process covariance matrices are frequently near-singular (two
//! nearly identical configurations produce nearly identical kernel rows), so
//! [`Cholesky::decompose_with_jitter`] retries with geometrically increasing
//! diagonal jitter — the standard trick used by every production GP library.

use crate::matrix::Matrix;

/// Lower-triangular Cholesky factor `L` with `A = L Lᵀ`.
#[derive(Clone, Debug)]
pub struct Cholesky {
    l: Matrix,
}

/// Error returned when a matrix is not positive definite (even after
/// jitter, for the jittered variant).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NotPositiveDefinite;

impl std::fmt::Display for NotPositiveDefinite {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "matrix is not positive definite")
    }
}

impl std::error::Error for NotPositiveDefinite {}

impl Cholesky {
    /// Factorizes a symmetric positive-definite matrix.
    pub fn decompose(a: &Matrix) -> Result<Self, NotPositiveDefinite> {
        assert_eq!(a.rows(), a.cols(), "Cholesky requires a square matrix");
        let n = a.rows();
        let mut l = Matrix::zeros(n, n);
        for i in 0..n {
            for j in 0..=i {
                let mut sum = a[(i, j)];
                for k in 0..j {
                    sum -= l[(i, k)] * l[(j, k)];
                }
                if i == j {
                    if sum <= 0.0 || !sum.is_finite() {
                        return Err(NotPositiveDefinite);
                    }
                    l[(i, j)] = sum.sqrt();
                } else {
                    l[(i, j)] = sum / l[(j, j)];
                }
            }
        }
        Ok(Self { l })
    }

    /// Factorizes `a`, adding increasing diagonal jitter on failure.
    ///
    /// Starts at `initial_jitter` and multiplies by 10 up to `max_tries`
    /// times. Returns the factorization together with the jitter that was
    /// finally applied (0.0 when none was needed).
    pub fn decompose_with_jitter(
        a: &Matrix,
        initial_jitter: f64,
        max_tries: usize,
    ) -> Result<(Self, f64), NotPositiveDefinite> {
        if let Ok(c) = Self::decompose(a) {
            return Ok((c, 0.0));
        }
        let mut jitter = initial_jitter;
        for _ in 0..max_tries {
            let mut aj = a.clone();
            aj.add_diagonal(jitter);
            if let Ok(c) = Self::decompose(&aj) {
                return Ok((c, jitter));
            }
            jitter *= 10.0;
        }
        Err(NotPositiveDefinite)
    }

    /// The lower-triangular factor `L`.
    pub fn factor(&self) -> &Matrix {
        &self.l
    }

    /// Grows the factor by one row for the bordered matrix
    /// `[[A, k], [kᵀ, d]]`, where `row = [k₀ … kₙ₋₁, d]` is the new last
    /// row of the extended matrix.
    ///
    /// This is the O(n²) incremental update behind the GP hot path: the
    /// leading `n × n` block of the extended factor *is* the current
    /// factor (Cholesky processes rows top-down, so earlier rows never
    /// see later ones), and the new row is one forward substitution plus
    /// a square root. The arithmetic below replays
    /// [`Cholesky::decompose`]'s last-row recurrence operation for
    /// operation, so the updated factor is **bit-identical** to
    /// refactorizing the extended matrix from scratch — the invariant the
    /// `gp_equivalence` suite pins down.
    ///
    /// On loss of positive-definiteness (the new pivot is non-positive or
    /// non-finite) the factor is left untouched and an error is returned;
    /// callers fall back to [`Cholesky::decompose_with_jitter`] on the
    /// full extended matrix, which matches what a from-scratch fit would
    /// have done.
    pub fn rank1_append(&mut self, row: &[f64]) -> Result<(), NotPositiveDefinite> {
        let n = self.l.rows();
        assert_eq!(row.len(), n + 1, "rank1_append row must have length n + 1");
        // The new row's off-diagonal part solves `L · new = k`: the same
        // `sum = k[j]; sum -= L[j][k]·new[k]` (k ascending); `/ L[j][j]`
        // recurrence `decompose` runs for the last row.
        let mut new_row = vec![0.0; n + 1];
        self.solve_lower_into(&row[..n], &mut new_row[..n]);
        let mut sum = row[n];
        for nv in new_row.iter().take(n) {
            sum -= nv * nv;
        }
        if sum <= 0.0 || !sum.is_finite() {
            return Err(NotPositiveDefinite);
        }
        new_row[n] = sum.sqrt();
        let zeros = vec![0.0; n];
        self.l.grow_square(&new_row, &zeros);
        Ok(())
    }

    /// Solves `L x = b` (forward substitution).
    pub fn solve_lower(&self, b: &[f64]) -> Vec<f64> {
        let mut x = vec![0.0; self.l.rows()];
        self.solve_lower_into(b, &mut x);
        x
    }

    /// [`Cholesky::solve_lower`] into a caller-provided buffer — the
    /// allocation-free variant single-query GP prediction and
    /// [`Cholesky::rank1_append`] call.
    ///
    /// Row-blocked for instruction-level parallelism: rows are taken
    /// eight at a time, and each block first folds the
    /// shared prefix `k < i0` (every `x[k]` there is final) as that many
    /// independent chains, then finishes its own triangle in order. Each
    /// row still performs exactly `sum = b[i]`, `sum -= L[i][k] · x[k]`
    /// for `k` ascending, then `sum / L[i][i]` — the textbook scalar
    /// recurrence, one loop-carried chain per row — so the result is
    /// bit-identical to it; only the interleaving of rows changes.
    pub fn solve_lower_into(&self, b: &[f64], x: &mut [f64]) {
        // Eight chains hide the subtract latency while the accumulators
        // stay in registers.
        const R: usize = 8;
        let n = self.l.rows();
        assert_eq!(b.len(), n);
        assert_eq!(x.len(), n);
        let mut i0 = 0;
        while i0 < n {
            let m = R.min(n - i0);
            let mut sum = [0.0f64; R];
            sum[..m].copy_from_slice(&b[i0..i0 + m]);
            let (done, rest) = x.split_at_mut(i0);
            // A short last block repeats its last row in the unused
            // chains; their sums are never read.
            let rows: [&[f64]; R] = std::array::from_fn(|r| &self.l.row(i0 + r.min(m - 1))[..i0]);
            for (k, &xk) in done.iter().enumerate() {
                for r in 0..R {
                    sum[r] -= rows[r][k] * xk;
                }
            }
            for (r, s) in sum[..m].iter_mut().enumerate() {
                let row = &self.l.row(i0 + r)[i0..];
                for (lk, xk) in row[..r].iter().zip(rest.iter()) {
                    *s -= lk * xk;
                }
                rest[r] = *s / row[r];
            }
            i0 += m;
        }
    }

    /// Forward substitution for `L` lane-interleaved right-hand sides at
    /// once: `b` and `x` hold lane-major data (`b[i * L + lane]` is row
    /// `i` of right-hand side `lane`).
    ///
    /// Each lane performs **exactly** the operation sequence of
    /// [`Cholesky::solve_lower_into`] — `sum = b[i]`, then
    /// `sum -= row[k] * x[k]` in ascending `k`, then `sum / row[i]` — so
    /// per-lane results are bit-identical to the scalar solve. The point
    /// of interleaving is instruction-level parallelism: each row's
    /// `sum` update waits on the previous one, while `L` independent
    /// right-hand sides keep the FP units busy on every row. This is
    /// what makes batched GP prediction faster than the pointwise loop
    /// without changing a single output bit.
    pub fn solve_lower_interleaved<const L: usize>(&self, b: &[f64], x: &mut [f64]) {
        let n = self.l.rows();
        assert_eq!(b.len(), n * L);
        assert_eq!(x.len(), n * L);
        for i in 0..n {
            let row = self.l.row(i);
            let mut sum = [0.0f64; L];
            sum.copy_from_slice(&b[i * L..(i + 1) * L]);
            for (k, xk) in x.chunks_exact(L).enumerate().take(i) {
                let lk = row[k];
                for l in 0..L {
                    sum[l] -= lk * xk[l];
                }
            }
            let di = row[i];
            for (l, s) in sum.iter().enumerate() {
                x[i * L + l] = s / di;
            }
        }
    }

    /// Solves `Lᵀ x = b` (backward substitution).
    // Index loops keep the triangular-solve recurrence readable.
    #[allow(clippy::needless_range_loop)]
    pub fn solve_upper(&self, b: &[f64]) -> Vec<f64> {
        let n = self.l.rows();
        assert_eq!(b.len(), n);
        let mut x = vec![0.0; n];
        for i in (0..n).rev() {
            let mut sum = b[i];
            for k in i + 1..n {
                sum -= self.l[(k, i)] * x[k];
            }
            x[i] = sum / self.l[(i, i)];
        }
        x
    }

    /// Solves `A x = b` where `A = L Lᵀ`.
    pub fn solve(&self, b: &[f64]) -> Vec<f64> {
        self.solve_upper(&self.solve_lower(b))
    }

    /// `log |A| = 2 Σ log L_ii` — needed by GP marginal likelihood.
    pub fn log_determinant(&self) -> f64 {
        (0..self.l.rows()).map(|i| self.l[(i, i)].ln()).sum::<f64>() * 2.0
    }
}

/// Solves the SPD system `A x = b` via Cholesky with jitter fallback.
///
/// Convenience wrapper used by ridge regression and GP ensembles.
pub fn solve_spd(a: &Matrix, b: &[f64]) -> Result<Vec<f64>, NotPositiveDefinite> {
    let (chol, _) = Cholesky::decompose_with_jitter(a, 1e-10, 12)?;
    Ok(chol.solve(b))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spd3() -> Matrix {
        // A = B Bᵀ + I for B = [[1,2],[3,4],[5,6]] — guaranteed SPD.
        Matrix::from_rows(&[vec![6.0, 11.0, 17.0], vec![11.0, 26.0, 39.0], vec![17.0, 39.0, 62.0]])
    }

    #[test]
    fn decompose_reconstructs_input() {
        let a = spd3();
        let c = Cholesky::decompose(&a).expect("SPD decomposition succeeds");
        let l = c.factor();
        let recon = l.matmul(&l.transpose());
        assert!(recon.max_abs_diff(&a) < 1e-9, "got {recon:?}");
    }

    #[test]
    fn solve_recovers_known_solution() {
        let a = spd3();
        let x_true = vec![1.0, -2.0, 0.5];
        let b = a.matvec(&x_true);
        let c = Cholesky::decompose(&a).expect("SPD decomposition succeeds");
        let x = c.solve(&b);
        for (xi, ti) in x.iter().zip(&x_true) {
            assert!((xi - ti).abs() < 1e-9, "x = {x:?}");
        }
    }

    #[test]
    fn non_spd_is_rejected() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0], vec![2.0, 1.0]]); // eigenvalues 3, -1
        assert!(Cholesky::decompose(&a).is_err());
    }

    #[test]
    fn jitter_rescues_singular_matrix() {
        // Rank-1 matrix: singular, but SPD after any positive jitter.
        let a = Matrix::from_rows(&[vec![1.0, 1.0], vec![1.0, 1.0]]);
        let (c, jitter) =
            Cholesky::decompose_with_jitter(&a, 1e-10, 12).expect("SPD decomposition succeeds");
        assert!(jitter > 0.0);
        assert_eq!(c.factor().rows(), 2);
    }

    #[test]
    fn log_determinant_matches_known_value() {
        let a = Matrix::from_rows(&[vec![4.0, 0.0], vec![0.0, 9.0]]);
        let c = Cholesky::decompose(&a).expect("SPD decomposition succeeds");
        assert!((c.log_determinant() - (36.0f64).ln()).abs() < 1e-12);
    }

    #[test]
    fn solve_spd_wrapper_works() {
        let a = spd3();
        let b = a.matvec(&[2.0, 2.0, 2.0]);
        let x = solve_spd(&a, &b).expect("SPD decomposition succeeds");
        for xi in x {
            assert!((xi - 2.0).abs() < 1e-8);
        }
    }

    #[test]
    fn interleaved_solve_is_bitwise_equal_to_scalar_solve() {
        let a = spd3();
        let c = Cholesky::decompose(&a).expect("SPD decomposition succeeds");
        const L: usize = 4;
        let rhs: Vec<Vec<f64>> = (0..L)
            .map(|l| (0..3).map(|i| (i as f64 + 1.0) * 0.37 - l as f64 * 1.21).collect())
            .collect();
        let mut b_il = vec![0.0; 3 * L];
        for (l, b) in rhs.iter().enumerate() {
            for (i, v) in b.iter().enumerate() {
                b_il[i * L + l] = *v;
            }
        }
        let mut x_il = vec![0.0; 3 * L];
        c.solve_lower_interleaved::<L>(&b_il, &mut x_il);
        for (l, b) in rhs.iter().enumerate() {
            let x = c.solve_lower(b);
            for (i, xv) in x.iter().enumerate() {
                assert_eq!(
                    xv.to_bits(),
                    x_il[i * L + l].to_bits(),
                    "lane {l} row {i} drifted from the scalar solve"
                );
            }
        }
    }

    #[test]
    fn lower_and_upper_solves_are_consistent() {
        let a = spd3();
        let c = Cholesky::decompose(&a).expect("SPD decomposition succeeds");
        let b = vec![1.0, 2.0, 3.0];
        let y = c.solve_lower(&b);
        // L y should reproduce b.
        let l = c.factor();
        let back = l.matvec(&y);
        for (bi, vi) in b.iter().zip(back) {
            assert!((bi - vi).abs() < 1e-10);
        }
    }
}
