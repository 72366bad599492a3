//! Sparse matrix-matrix multiplication (CSR SpGEMM) — the substrate for
//! Galerkin coarse operators `A_c = R·A·P` in geometric multigrid.
//!
//! [`spgemm`] is the classic Gustavson row merge with a dense accumulator.
//! [`Rap`] splits the triple product the way PETSc's `MatPtAP` does: a
//! symbolic phase that fixes the pattern from the patterns of `R`, `A`
//! and `P` alone, and a numeric phase that refills the values of a new
//! `A` with that pattern — the multigrid refresh across Newton iterations.

use sellkit_core::{Csr, MatShape};

/// Computes `C = A · B` in CSR.
///
/// Entries of `A` that are exactly zero are skipped, so `C` stores only
/// the positions some nonzero `a_ij` reaches (products that cancel stay
/// as explicit zeros, as in PETSc).
pub fn spgemm(a: &Csr, b: &Csr) -> Csr {
    assert_eq!(a.ncols(), b.nrows(), "inner dimensions must agree");
    let m = a.nrows();
    let n = b.ncols();

    let mut rowptr = vec![0usize; m + 1];
    let mut colidx: Vec<u32> = Vec::new();
    let mut values: Vec<f64> = Vec::new();

    // Dense accumulator, plus a marker holding the last row that touched
    // each column and the list of columns this row touched (Gustavson).
    let mut acc = vec![0.0f64; n];
    let mut mark = vec![usize::MAX; n];
    let mut touched: Vec<u32> = Vec::with_capacity(64);

    for i in 0..m {
        touched.clear();
        for (&j, &aij) in a.row_cols(i).iter().zip(a.row_vals(i)) {
            if aij == 0.0 {
                continue;
            }
            let j = j as usize;
            for (&c, &v) in b.row_cols(j).iter().zip(b.row_vals(j)) {
                let c = c as usize;
                if mark[c] != i {
                    mark[c] = i;
                    touched.push(c as u32);
                }
                acc[c] += aij * v;
            }
        }
        touched.sort_unstable();
        for &c in &touched {
            colidx.push(c);
            values.push(std::mem::take(&mut acc[c as usize]));
        }
        rowptr[i + 1] = colidx.len();
    }

    Csr::from_parts(m, n, rowptr, colidx, values)
}

/// The structural pattern of an `m × n` product whose row `i` is the union
/// of the `b_row` patterns over the columns of `a_row(i)`: sorted rows,
/// built with a marker array in time proportional to the flops.
fn pattern_product<'a, 'b>(
    m: usize,
    n: usize,
    a_row: impl Fn(usize) -> &'a [u32],
    b_row: impl Fn(usize) -> &'b [u32],
) -> (Vec<usize>, Vec<u32>) {
    let mut rowptr = Vec::with_capacity(m + 1);
    rowptr.push(0);
    let mut colidx: Vec<u32> = Vec::new();
    // mark[c] = 1 + the last row that reached column c (u32 halves the
    // marker's cache footprint; row counts fit since indices are u32).
    let mut mark = vec![0u32; n];
    for i in 0..m {
        let start = colidx.len();
        let tag = u32::try_from(i + 1).expect("row index fits in u32");
        for &j in a_row(i) {
            for &c in b_row(j as usize) {
                if mark[c as usize] != tag {
                    mark[c as usize] = tag;
                    colidx.push(c);
                }
            }
        }
        colidx[start..].sort_unstable();
        rowptr.push(colidx.len());
    }
    (rowptr, colidx)
}

/// The Galerkin triple product `R·A·P` split into a symbolic phase
/// ([`Rap::new`]) and a numeric phase (run by [`Rap::product`] and by the
/// multigrid refresh).
///
/// The pattern is structural: it holds every position some entry of the
/// three patterns reaches, whatever the values.  The numeric phase sums
/// in exactly the order of `spgemm(&spgemm(r, a), p)`, so every entry that
/// two-stage product stores is bitwise equal, and the positions it leaves
/// out hold `0.0`.
#[derive(Clone, Debug)]
pub struct Rap {
    /// Structural pattern of the intermediate `R·A`.
    ra_rowptr: Vec<usize>,
    ra_colidx: Vec<u32>,
    /// Structural pattern of `R·A·P`.
    rowptr: Vec<usize>,
    colidx: Vec<u32>,
    ncols: usize,
}

impl Rap {
    /// The symbolic phase: the patterns of `R·A` and `R·A·P`.
    pub fn new(r: &Csr, a: &Csr, p: &Csr) -> Self {
        assert_eq!(r.ncols(), a.nrows(), "R and A inner dimensions must agree");
        assert_eq!(a.ncols(), p.nrows(), "A and P inner dimensions must agree");
        let m = r.nrows();
        let (ra_rowptr, ra_colidx) =
            pattern_product(m, a.ncols(), |i| r.row_cols(i), |k| a.row_cols(k));
        let (rowptr, colidx) = pattern_product(
            m,
            p.ncols(),
            |i| &ra_colidx[ra_rowptr[i]..ra_rowptr[i + 1]],
            |j| p.row_cols(j),
        );
        Self {
            ra_rowptr,
            ra_colidx,
            rowptr,
            colidx,
            ncols: p.ncols(),
        }
    }

    /// Stored entries of the product.
    fn nnz(&self) -> usize {
        self.colidx.len()
    }

    /// The numeric phase: writes the values of `R·A·P`, in the symbolic
    /// pattern's order, into `out`.  `R`, `A` and `P` must have the
    /// patterns [`Rap::new`] saw; only their values may differ.
    pub(crate) fn numeric(&self, r: &Csr, a: &Csr, p: &Csr, out: &mut [f64]) {
        assert_eq!(out.len(), self.nnz(), "output length must equal nnz");
        assert_eq!(r.nrows() + 1, self.rowptr.len(), "R rows changed");
        let mut ra = vec![0.0f64; a.ncols()];
        let mut rap = vec![0.0f64; self.ncols];
        for i in 0..r.nrows() {
            // Row i of R·A, summed as `spgemm(r, a)` sums it.
            for (&k, &rik) in r.row_cols(i).iter().zip(r.row_vals(i)) {
                if rik == 0.0 {
                    continue;
                }
                let k = k as usize;
                for (&j, &akj) in a.row_cols(k).iter().zip(a.row_vals(k)) {
                    ra[j as usize] += rik * akj;
                }
            }
            // Times P, walking R·A's row in column order as
            // `spgemm(ra, p)` walks its stored row.  Zero entries — cancelled
            // sums and positions only the structural pattern holds — are
            // skipped there too.
            for &j in &self.ra_colidx[self.ra_rowptr[i]..self.ra_rowptr[i + 1]] {
                let v = std::mem::take(&mut ra[j as usize]);
                if v == 0.0 {
                    continue;
                }
                let j = j as usize;
                for (&c, &pjc) in p.row_cols(j).iter().zip(p.row_vals(j)) {
                    rap[c as usize] += v * pjc;
                }
            }
            let (lo, hi) = (self.rowptr[i], self.rowptr[i + 1]);
            for (o, &c) in out[lo..hi].iter_mut().zip(&self.colidx[lo..hi]) {
                *o = std::mem::take(&mut rap[c as usize]);
            }
        }
    }

    /// Both phases' result as a CSR matrix.
    pub fn product(&self, r: &Csr, a: &Csr, p: &Csr) -> Csr {
        let mut values = vec![0.0; self.nnz()];
        self.numeric(r, a, p, &mut values);
        Csr::from_parts(
            self.rowptr.len() - 1,
            self.ncols,
            self.rowptr.clone(),
            self.colidx.clone(),
            values,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dense_mul(a: &[f64], b: &[f64], m: usize, k: usize, n: usize) -> Vec<f64> {
        let mut c = vec![0.0; m * n];
        for i in 0..m {
            for l in 0..k {
                for j in 0..n {
                    c[i * n + j] += a[i * k + l] * b[l * n + j];
                }
            }
        }
        c
    }

    #[test]
    fn matches_dense_multiply() {
        let ad = vec![1.0, 0.0, 2.0, 0.0, 3.0, 0.0];
        let bd = vec![0.0, 4.0, 5.0, 0.0, 0.0, 6.0];
        let a = Csr::from_dense(2, 3, &ad);
        let b = Csr::from_dense(3, 2, &bd);
        let c = spgemm(&a, &b);
        assert_eq!(c.to_dense(), dense_mul(&ad, &bd, 2, 3, 2));
    }

    #[test]
    fn identity_is_neutral() {
        let a = Csr::from_dense(3, 3, &[1.0, 2.0, 0.0, 0.0, 3.0, 4.0, 5.0, 0.0, 6.0]);
        let eye = Csr::from_dense(3, 3, &[1.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 1.0]);
        assert_eq!(spgemm(&a, &eye).to_dense(), a.to_dense());
        assert_eq!(spgemm(&eye, &a).to_dense(), a.to_dense());
    }

    #[test]
    fn rap_triple_product() {
        // R (1x2), A (2x2), P (2x1).
        let r = Csr::from_dense(1, 2, &[1.0, 1.0]);
        let a = Csr::from_dense(2, 2, &[2.0, -1.0, -1.0, 2.0]);
        let p = Csr::from_dense(2, 1, &[1.0, 1.0]);
        let c = Rap::new(&r, &a, &p).product(&r, &a, &p);
        assert_eq!(c.to_dense(), vec![2.0]); // sum of all entries of A
    }

    #[test]
    fn cancellation_keeps_explicit_zero() {
        // (1)(1) + (1)(-1) = 0 — the entry is numerically zero but in the
        // product pattern; Gustavson keeps it (PETSc does too).
        let a = Csr::from_dense(1, 2, &[1.0, 1.0]);
        let b = Csr::from_dense(2, 1, &[1.0, -1.0]);
        let c = spgemm(&a, &b);
        assert_eq!(c.nnz(), 1);
        assert_eq!(c.to_dense(), vec![0.0]);
    }

    #[test]
    fn random_shapes_agree_with_dense() {
        // Deterministic pseudo-random pattern.
        let mut st = 12345u64;
        let mut next = move || {
            st = st.wrapping_mul(6364136223846793005).wrapping_add(1);
            (st >> 33) as usize
        };
        let (m, k, n) = (17, 11, 13);
        let mut ad = vec![0.0; m * k];
        let mut bd = vec![0.0; k * n];
        for v in &mut ad {
            if next() % 3 == 0 {
                *v = (next() % 9) as f64 - 4.0;
            }
        }
        for v in &mut bd {
            if next() % 3 == 0 {
                *v = (next() % 9) as f64 - 4.0;
            }
        }
        let a = Csr::from_dense(m, k, &ad);
        let b = Csr::from_dense(k, n, &bd);
        let c = spgemm(&a, &b);
        let want = dense_mul(&ad, &bd, m, k, n);
        let got = c.to_dense();
        for i in 0..m * n {
            assert!((got[i] - want[i]).abs() < 1e-12, "entry {i}");
        }
    }
}
