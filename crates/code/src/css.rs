//! The central CSS code type.

use crate::logicals::{compute_logicals, Logicals};
use qec_group::PlaqColor;
use qec_math::{gf2, BitMatrix, BitVec};
use std::fmt;
use std::sync::OnceLock;

/// Error produced when constructing or deriving from a CSS code.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodeError {
    /// `H_X · H_Zᵀ ≠ 0`: some X check anticommutes with some Z check.
    NonCommutingChecks {
        /// Index of the offending X check.
        x_check: usize,
        /// Index of the offending Z check.
        z_check: usize,
    },
    /// The two parity-check matrices have different column counts.
    ColumnMismatch,
    /// Color metadata length does not match the number of plaquettes.
    BadColorMetadata,
    /// The underlying group/tiling construction failed.
    Construction(String),
}

impl fmt::Display for CodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodeError::NonCommutingChecks { x_check, z_check } => {
                write!(f, "X check {x_check} anticommutes with Z check {z_check}")
            }
            CodeError::ColumnMismatch => write!(f, "H_X and H_Z have different qubit counts"),
            CodeError::BadColorMetadata => {
                write!(f, "color metadata does not match plaquette count")
            }
            CodeError::Construction(msg) => write!(f, "construction failed: {msg}"),
        }
    }
}

impl std::error::Error for CodeError {}

/// Which code family a [`CssCode`] belongs to; used to select layouts,
/// schedules and decoders.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodeFamily {
    /// Rotated planar surface code of odd distance `d`.
    PlanarSurface {
        /// Code distance.
        d: usize,
    },
    /// Toric surface code of distance `d` (no boundaries).
    ToricSurface {
        /// Code distance.
        d: usize,
    },
    /// Hyperbolic surface code from an `{r,s}` tiling.
    HyperbolicSurface {
        /// Face size.
        r: usize,
        /// Vertex degree.
        s: usize,
    },
    /// Hyperbolic color code with red `2r`-gons and green/blue `s`-gons.
    HyperbolicColor {
        /// Red plaquettes have `2r` corners.
        r: usize,
        /// Green/blue plaquettes have `s` corners.
        s: usize,
    },
    /// Toric 6.6.6 color code (flat geometry, no boundaries).
    ToricColor {
        /// Linear scale: `n = 6m²`.
        m: usize,
    },
    /// Anything else.
    Custom,
}

impl fmt::Display for CodeFamily {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodeFamily::PlanarSurface { d } => write!(f, "planar surface d={d}"),
            CodeFamily::ToricSurface { d } => write!(f, "toric surface d={d}"),
            CodeFamily::HyperbolicSurface { r, s } => write!(f, "hyperbolic surface {{{r},{s}}}"),
            CodeFamily::HyperbolicColor { r, s } => write!(f, "hyperbolic color {{{r},{s}}}"),
            CodeFamily::ToricColor { m } => write!(f, "toric color m={m}"),
            CodeFamily::Custom => write!(f, "custom"),
        }
    }
}

/// A CSS quantum error-correcting code.
///
/// Rows of `hx` are X-type stabilizer generators (X on their support;
/// they detect Z errors) and rows of `hz` are Z-type generators.
/// Construction validates the CSS commutation condition
/// `H_X · H_Zᵀ = 0`. Code parameters and logical operators are derived
/// lazily and cached.
///
/// # Example
///
/// ```
/// use qec_code::{CssCode, CodeFamily};
/// use qec_math::BitMatrix;
///
/// // The `[[4,2,2]]` code: one X check and one Z check on 4 qubits.
/// let hx = BitMatrix::from_rows_of_ones(1, 4, &[vec![0, 1, 2, 3]]);
/// let hz = hx.clone();
/// let code = CssCode::new("`[[4,2,2]]`", CodeFamily::Custom, hx, hz).unwrap();
/// assert_eq!(code.k(), 2);
/// ```
#[derive(Debug)]
pub struct CssCode {
    name: String,
    family: CodeFamily,
    hx: BitMatrix,
    hz: BitMatrix,
    check_colors: Option<Vec<PlaqColor>>,
    schedule_hints: Option<ScheduleHints>,
    k: usize,
    logicals: OnceLock<Logicals>,
}

/// Pre-computed CNOT orderings for codes with known fault-tolerant
/// schedules (the rotated planar surface code).
///
/// `x_orders[i]` / `z_orders[i]` list the data qubits of the i-th X/Z
/// check in the time order their CNOTs should execute; `usize::MAX`
/// entries are idle slots (boundary checks skip timesteps to stay
/// aligned with the bulk pattern).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScheduleHints {
    /// Per-X-check ordered supports.
    pub x_orders: Vec<Vec<usize>>,
    /// Per-Z-check ordered supports.
    pub z_orders: Vec<Vec<usize>>,
}

impl CssCode {
    /// Creates a CSS code from its two parity-check matrices.
    ///
    /// # Errors
    ///
    /// Returns [`CodeError::ColumnMismatch`] if the matrices act on a
    /// different number of qubits, or
    /// [`CodeError::NonCommutingChecks`] if any X and Z check share an
    /// odd number of qubits.
    pub fn new(
        name: impl Into<String>,
        family: CodeFamily,
        hx: BitMatrix,
        hz: BitMatrix,
    ) -> Result<Self, CodeError> {
        if hx.cols() != hz.cols() {
            return Err(CodeError::ColumnMismatch);
        }
        for (i, x) in hx.iter_rows().enumerate() {
            for (j, z) in hz.iter_rows().enumerate() {
                if x.dot(z) {
                    return Err(CodeError::NonCommutingChecks {
                        x_check: i,
                        z_check: j,
                    });
                }
            }
        }
        let k = hx.cols() - gf2::rank(&hx) - gf2::rank(&hz);
        Ok(CssCode {
            name: name.into(),
            family,
            hx,
            hz,
            check_colors: None,
            schedule_hints: None,
            k,
            logicals: OnceLock::new(),
        })
    }

    /// Attaches plaquette colors (color codes only). The i-th color
    /// applies to both the i-th X check and the i-th Z check, which
    /// must have identical supports.
    ///
    /// # Errors
    ///
    /// Returns [`CodeError::BadColorMetadata`] if the length differs
    /// from the check count or X/Z supports are not aligned.
    pub fn with_check_colors(mut self, colors: Vec<PlaqColor>) -> Result<Self, CodeError> {
        if colors.len() != self.hx.rows() || self.hx.rows() != self.hz.rows() {
            return Err(CodeError::BadColorMetadata);
        }
        for i in 0..self.hx.rows() {
            if self.hx.row(i) != self.hz.row(i) {
                return Err(CodeError::BadColorMetadata);
            }
        }
        self.check_colors = Some(colors);
        Ok(self)
    }

    /// Attaches fault-tolerant CNOT-order hints (planar codes).
    pub fn with_schedule_hints(mut self, hints: ScheduleHints) -> Self {
        self.schedule_hints = Some(hints);
        self
    }

    /// Human-readable code name, e.g. `[[30,8,3,3]] {5,5}` (as text).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The code family.
    pub fn family(&self) -> &CodeFamily {
        &self.family
    }

    /// Number of data qubits.
    pub fn n(&self) -> usize {
        self.hx.cols()
    }

    /// Number of logical qubits `n - rank(H_X) - rank(H_Z)`.
    pub fn k(&self) -> usize {
        self.k
    }

    /// The X-type parity-check matrix.
    pub fn hx(&self) -> &BitMatrix {
        &self.hx
    }

    /// The Z-type parity-check matrix.
    pub fn hz(&self) -> &BitMatrix {
        &self.hz
    }

    /// Number of X checks (rows of `hx`, including dependent ones).
    pub fn num_x_checks(&self) -> usize {
        self.hx.rows()
    }

    /// Number of Z checks.
    pub fn num_z_checks(&self) -> usize {
        self.hz.rows()
    }

    /// Support of the i-th X check as qubit indices.
    pub fn x_support(&self, i: usize) -> Vec<usize> {
        self.hx.row(i).iter_ones().collect()
    }

    /// Support of the i-th Z check as qubit indices.
    pub fn z_support(&self, i: usize) -> Vec<usize> {
        self.hz.row(i).iter_ones().collect()
    }

    /// Plaquette colors, for color codes.
    pub fn check_colors(&self) -> Option<&[PlaqColor]> {
        self.check_colors.as_deref()
    }

    /// Fault-tolerant CNOT-order hints, if the family has them.
    pub fn schedule_hints(&self) -> Option<&ScheduleHints> {
        self.schedule_hints.as_ref()
    }

    /// Maximum check weight `δ_max` over both check types.
    pub fn max_check_weight(&self) -> usize {
        self.hx
            .iter_rows()
            .chain(self.hz.iter_rows())
            .map(BitVec::weight)
            .max()
            .unwrap_or(0)
    }

    /// Maximum X-check weight `δ_X`.
    pub fn max_x_weight(&self) -> usize {
        self.hx.iter_rows().map(BitVec::weight).max().unwrap_or(0)
    }

    /// Maximum Z-check weight `δ_Z`.
    pub fn max_z_weight(&self) -> usize {
        self.hz.iter_rows().map(BitVec::weight).max().unwrap_or(0)
    }

    /// A symplectically paired basis of logical operators (computed on
    /// first use and cached).
    pub fn logicals(&self) -> &Logicals {
        self.logicals
            .get_or_init(|| compute_logicals(&self.hx, &self.hz))
    }

    /// The ideal rate `k / n`.
    pub fn ideal_rate(&self) -> f64 {
        self.k as f64 / self.n() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn steane() -> CssCode {
        let rows = vec![vec![0, 1, 2, 3], vec![1, 2, 4, 5], vec![2, 3, 5, 6]];
        let h = BitMatrix::from_rows_of_ones(3, 7, &rows);
        CssCode::new("steane", CodeFamily::Custom, h.clone(), h).unwrap()
    }

    #[test]
    fn steane_parameters() {
        let code = steane();
        assert_eq!(code.n(), 7);
        assert_eq!(code.k(), 1);
        assert_eq!(code.max_check_weight(), 4);
        assert_eq!(code.num_x_checks(), 3);
        assert_eq!(code.x_support(0), vec![0, 1, 2, 3]);
    }

    #[test]
    fn steane_logicals_pair_correctly() {
        let code = steane();
        let logicals = code.logicals();
        assert_eq!(logicals.num_pairs(), 1);
        logicals.verify(&code).unwrap();
    }

    #[test]
    fn non_commuting_rejected() {
        let hx = BitMatrix::from_rows_of_ones(1, 3, &[vec![0, 1]]);
        let hz = BitMatrix::from_rows_of_ones(1, 3, &[vec![1, 2]]);
        let err = CssCode::new("bad", CodeFamily::Custom, hx, hz).unwrap_err();
        assert_eq!(
            err,
            CodeError::NonCommutingChecks {
                x_check: 0,
                z_check: 0
            }
        );
    }

    #[test]
    fn column_mismatch_rejected() {
        let hx = BitMatrix::zeros(1, 3);
        let hz = BitMatrix::zeros(1, 4);
        assert_eq!(
            CssCode::new("bad", CodeFamily::Custom, hx, hz).unwrap_err(),
            CodeError::ColumnMismatch
        );
    }

    #[test]
    fn color_metadata_requires_aligned_supports() {
        let code = steane();
        let colored = CssCode::new(
            "steane",
            CodeFamily::Custom,
            code.hx().clone(),
            code.hz().clone(),
        )
        .unwrap()
        .with_check_colors(vec![PlaqColor::Red, PlaqColor::Green, PlaqColor::Blue])
        .unwrap();
        assert_eq!(colored.check_colors().unwrap().len(), 3);

        let misaligned = CssCode::new(
            "bad",
            CodeFamily::Custom,
            BitMatrix::from_rows_of_ones(1, 4, &[vec![0, 1, 2, 3]]),
            BitMatrix::from_rows_of_ones(1, 4, &[vec![0, 1, 2, 3]]),
        )
        .unwrap()
        .with_check_colors(vec![PlaqColor::Red, PlaqColor::Green]);
        assert!(misaligned.is_err());
    }

    #[test]
    fn shor_code_has_k_one() {
        // Shor's [[9,1,3]]: Z checks pair qubits within triples, X checks
        // are weight-6 across triples.
        let hz = BitMatrix::from_rows_of_ones(
            6,
            9,
            &[
                vec![0, 1],
                vec![1, 2],
                vec![3, 4],
                vec![4, 5],
                vec![6, 7],
                vec![7, 8],
            ],
        );
        let hx =
            BitMatrix::from_rows_of_ones(2, 9, &[vec![0, 1, 2, 3, 4, 5], vec![3, 4, 5, 6, 7, 8]]);
        let code = CssCode::new("shor", CodeFamily::Custom, hx, hz).unwrap();
        assert_eq!(code.k(), 1);
        code.logicals().verify(&code).unwrap();
    }
}
