//! Dense GF(2) matrices stored as rows of [`BitVec`].

use crate::BitVec;
use std::fmt;

/// A dense matrix over GF(2).
///
/// Rows are [`BitVec`]s; the matrix supports the row operations needed for
/// Gaussian elimination plus transpose and multiplication. Parity-check
/// matrices, stabilizer generator sets and logical-operator bases are all
/// `BitMatrix` values.
///
/// # Example
///
/// ```
/// use qec_math::BitMatrix;
///
/// let m = BitMatrix::from_rows_of_ones(2, 4, &[vec![0, 1], vec![1, 2]]);
/// assert_eq!(m.rows(), 2);
/// assert!(m.get(0, 1));
/// assert!(!m.get(0, 2));
/// ```
#[derive(Clone, PartialEq, Eq, Default)]
pub struct BitMatrix {
    rows: Vec<BitVec>,
    cols: usize,
}

impl BitMatrix {
    /// Creates an all-zero matrix of shape `rows x cols`.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        BitMatrix {
            rows: vec![BitVec::zeros(cols); rows],
            cols,
        }
    }

    /// Creates the `n x n` identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = Self::zeros(n, n);
        for i in 0..n {
            m.set(i, i, true);
        }
        m
    }

    /// Creates a matrix from per-row lists of set-column indices.
    ///
    /// # Panics
    ///
    /// Panics if `ones.len() != rows` or any column index is `>= cols`.
    pub fn from_rows_of_ones(rows: usize, cols: usize, ones: &[Vec<usize>]) -> Self {
        assert_eq!(ones.len(), rows, "row count mismatch");
        BitMatrix {
            rows: ones
                .iter()
                .map(|r| BitVec::from_ones(cols, r.iter().copied()))
                .collect(),
            cols,
        }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows.len()
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Returns the entry at `(r, c)`.
    ///
    /// # Panics
    ///
    /// Panics if out of range.
    pub fn get(&self, r: usize, c: usize) -> bool {
        self.rows[r].get(c)
    }

    /// Sets the entry at `(r, c)`.
    ///
    /// # Panics
    ///
    /// Panics if out of range.
    pub fn set(&mut self, r: usize, c: usize, value: bool) {
        self.rows[r].set(c, value);
    }

    /// Borrows row `r`.
    ///
    /// # Panics
    ///
    /// Panics if `r` is out of range.
    pub fn row(&self, r: usize) -> &BitVec {
        &self.rows[r]
    }

    /// Iterates over the rows.
    pub fn iter_rows(&self) -> std::slice::Iter<'_, BitVec> {
        self.rows.iter()
    }

    /// Appends a row.
    ///
    /// # Panics
    ///
    /// Panics if the row length differs from `cols`.
    pub fn push_row(&mut self, row: BitVec) {
        assert_eq!(row.len(), self.cols, "row length mismatch");
        self.rows.push(row);
    }

    /// Swaps rows `a` and `b`.
    pub fn swap_rows(&mut self, a: usize, b: usize) {
        self.rows.swap(a, b);
    }

    /// XORs row `src` into row `dst` (`dst += src` over GF(2)).
    ///
    /// # Panics
    ///
    /// Panics if `src == dst` or either index is out of range.
    pub fn xor_row_into(&mut self, src: usize, dst: usize) {
        assert_ne!(src, dst, "cannot xor a row into itself");
        let (lo, hi) = if src < dst { (src, dst) } else { (dst, src) };
        let (head, tail) = self.rows.split_at_mut(hi);
        if src < dst {
            tail[0].xor_assign(&head[lo]);
        } else {
            head[lo].xor_assign(&tail[0]);
        }
    }

    /// Returns the transpose.
    pub fn transposed(&self) -> BitMatrix {
        let mut t = BitMatrix::zeros(self.cols, self.rows());
        for (r, row) in self.rows.iter().enumerate() {
            for c in row.iter_ones() {
                t.set(c, r, true);
            }
        }
        t
    }

    /// Matrix product over GF(2).
    ///
    /// # Panics
    ///
    /// Panics if `self.cols() != other.rows()`.
    pub fn mul(&self, other: &BitMatrix) -> BitMatrix {
        assert_eq!(self.cols, other.rows(), "dimension mismatch in mul");
        let mut out = BitMatrix::zeros(self.rows(), other.cols());
        for (r, row) in self.rows.iter().enumerate() {
            for c in row.iter_ones() {
                out.rows[r].xor_assign(&other.rows[c]);
            }
        }
        out
    }

    /// Matrix–vector product `self * v` over GF(2).
    ///
    /// # Panics
    ///
    /// Panics if `v.len() != self.cols()`.
    pub fn mul_vec(&self, v: &BitVec) -> BitVec {
        assert_eq!(v.len(), self.cols, "dimension mismatch in mul_vec");
        let mut out = BitVec::zeros(self.rows());
        for (r, row) in self.rows.iter().enumerate() {
            if row.dot(v) {
                out.set(r, true);
            }
        }
        out
    }

    /// Returns `true` if every entry is zero.
    pub fn is_zero(&self) -> bool {
        self.rows.iter().all(BitVec::is_zero)
    }
}

impl fmt::Debug for BitMatrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "BitMatrix {}x{} [", self.rows(), self.cols)?;
        for row in &self.rows {
            writeln!(f, "  {row}")?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identity_times_anything_is_identity_map() {
        let m = BitMatrix::from_rows_of_ones(2, 3, &[vec![0, 2], vec![1]]);
        let i2 = BitMatrix::identity(2);
        assert_eq!(i2.mul(&m), m);
    }

    #[test]
    fn transpose_involution() {
        let m = BitMatrix::from_rows_of_ones(3, 5, &[vec![0, 4], vec![2], vec![1, 3]]);
        assert_eq!(m.transposed().transposed(), m);
    }

    #[test]
    fn mul_vec_matches_mul() {
        let m = BitMatrix::from_rows_of_ones(2, 3, &[vec![0, 1], vec![1, 2]]);
        let v = BitVec::from_ones(3, [1]);
        let mv = m.mul_vec(&v);
        assert_eq!(mv.iter_ones().collect::<Vec<_>>(), vec![0, 1]);
    }

    #[test]
    fn xor_row_into_both_directions() {
        let mut m = BitMatrix::from_rows_of_ones(2, 3, &[vec![0], vec![0, 1]]);
        m.xor_row_into(0, 1);
        assert_eq!(m.row(1).iter_ones().collect::<Vec<_>>(), vec![1]);
        m.xor_row_into(1, 0);
        assert_eq!(m.row(0).iter_ones().collect::<Vec<_>>(), vec![0, 1]);
    }

    #[test]
    #[should_panic(expected = "row length mismatch")]
    fn push_row_validates_length() {
        let mut m = BitMatrix::zeros(1, 3);
        m.push_row(BitVec::zeros(4));
    }
}
