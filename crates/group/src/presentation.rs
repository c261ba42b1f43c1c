//! Group presentations and words.

/// A word in the generators of a presentation.
///
/// Letters are nonzero integers: `+(i+1)` denotes generator `i`,
/// `-(i+1)` its inverse. The helpers in [`word`] build words without
/// having to remember the encoding.
pub type Word = Vec<i32>;

/// Helpers for building [`Word`]s.
pub mod word {
    use super::Word;

    /// The single-letter word for generator `i`.
    pub fn gen(i: usize) -> Word {
        vec![i as i32 + 1]
    }

    /// The single-letter word for the inverse of generator `i`.
    pub fn inv_gen(i: usize) -> Word {
        vec![-(i as i32 + 1)]
    }

    /// Concatenates words.
    pub fn concat(parts: &[&Word]) -> Word {
        parts.iter().flat_map(|w| w.iter().copied()).collect()
    }

    /// The `k`-th power of a word.
    pub fn pow(w: &Word, k: usize) -> Word {
        let mut out = Word::with_capacity(w.len() * k);
        for _ in 0..k {
            out.extend_from_slice(w);
        }
        out
    }

    /// The inverse of a word.
    pub fn inverse(w: &Word) -> Word {
        w.iter().rev().map(|&l| -l).collect()
    }

    /// The commutator `[a, b] = a⁻¹ b⁻¹ a b`.
    pub fn commutator(a: &Word, b: &Word) -> Word {
        let (ai, bi) = (inverse(a), inverse(b));
        concat(&[&ai, &bi, a, b])
    }

    /// Freely reduces a word by cancelling adjacent `g g⁻¹` pairs.
    pub fn reduce(w: &Word) -> Word {
        let mut out: Word = Vec::with_capacity(w.len());
        for &l in w {
            if out.last() == Some(&-l) {
                out.pop();
            } else {
                out.push(l);
            }
        }
        out
    }
}

/// A finitely presented group `⟨g₀..g_{n-1} | relators⟩`.
///
/// # Example
///
/// ```
/// use qec_group::{Presentation, word};
///
/// // The cyclic group Z/5: ⟨x | x⁵⟩.
/// let pres = Presentation::new(1, vec![word::pow(&word::gen(0), 5)]);
/// assert_eq!(pres.num_generators(), 1);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Presentation {
    num_generators: usize,
    relators: Vec<Word>,
}

impl Presentation {
    /// Creates a presentation with `num_generators` generators and the
    /// given relator words.
    ///
    /// # Panics
    ///
    /// Panics if a relator uses a letter outside
    /// `±1..=±num_generators` or contains a zero letter.
    pub fn new(num_generators: usize, relators: Vec<Word>) -> Self {
        for r in &relators {
            for &l in r {
                assert!(
                    l != 0 && l.unsigned_abs() as usize <= num_generators,
                    "relator letter {l} out of range for {num_generators} generators"
                );
            }
        }
        Presentation {
            num_generators,
            relators,
        }
    }

    /// Number of generators.
    pub fn num_generators(&self) -> usize {
        self.num_generators
    }

    /// The relator words.
    pub fn relators(&self) -> &[Word] {
        &self.relators
    }
}

/// The von Dyck (orientation-preserving triangle) group
/// `Δ⁺(r, s, 2) = ⟨x, y | xʳ, yˢ, (xy)²⟩` with optional extra relators
/// picking out a finite quotient.
///
/// Generator 0 is `x` (face rotation, order `r`), generator 1 is `y`
/// (vertex rotation, order `s`).
///
/// # Panics
///
/// Panics if `r < 2` or `s < 2`.
pub fn von_dyck(r: usize, s: usize, extra_relators: &[Word]) -> Presentation {
    assert!(r >= 2 && s >= 2, "need r, s >= 2");
    let x = word::gen(0);
    let y = word::gen(1);
    let xy = word::concat(&[&x, &y]);
    let mut relators = vec![word::pow(&x, r), word::pow(&y, s), word::pow(&xy, 2)];
    relators.extend_from_slice(extra_relators);
    Presentation::new(2, relators)
}

/// The full triangle group
/// `[p, q] = ⟨a, b, c | a², b², c², (ab)ᵖ, (bc)^q, (ca)²⟩` with optional
/// extra relators picking out a finite quotient.
///
/// In the `{p,q}` tiling interpretation: `a` changes the vertex of a
/// flag, `b` the edge, `c` the face; faces are cosets of `⟨a, b⟩`,
/// vertices of `⟨b, c⟩`, edges of `⟨c, a⟩`.
///
/// # Panics
///
/// Panics if `p < 2` or `q < 2`.
pub fn triangle_group(p: usize, q: usize, extra_relators: &[Word]) -> Presentation {
    assert!(p >= 2 && q >= 2, "need p, q >= 2");
    let a = word::gen(0);
    let b = word::gen(1);
    let c = word::gen(2);
    let ab = word::concat(&[&a, &b]);
    let bc = word::concat(&[&b, &c]);
    let ca = word::concat(&[&c, &a]);
    let mut relators = vec![
        word::pow(&a, 2),
        word::pow(&b, 2),
        word::pow(&c, 2),
        word::pow(&ab, p),
        word::pow(&bc, q),
        word::pow(&ca, 2),
    ];
    relators.extend_from_slice(extra_relators);
    Presentation::new(3, relators)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn word_helpers() {
        let x = word::gen(0);
        let y = word::gen(1);
        assert_eq!(word::pow(&x, 3), vec![1, 1, 1]);
        assert_eq!(word::inverse(&word::concat(&[&x, &y])), vec![-2, -1]);
        assert_eq!(word::commutator(&x, &y), vec![-1, -2, 1, 2]);
        assert_eq!(word::reduce(&vec![1, -1, 2, 2, -2]), vec![2]);
        assert_eq!(word::inv_gen(1), vec![-2]);
    }

    #[test]
    fn von_dyck_relators() {
        let p = von_dyck(4, 5, &[]);
        assert_eq!(p.num_generators(), 2);
        assert_eq!(p.relators().len(), 3);
        assert_eq!(p.relators()[0], vec![1, 1, 1, 1]);
        assert_eq!(p.relators()[2], vec![1, 2, 1, 2]);
    }

    #[test]
    fn triangle_group_relators() {
        let p = triangle_group(3, 8, &[]);
        assert_eq!(p.num_generators(), 3);
        assert_eq!(p.relators().len(), 6);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_letter_rejected() {
        Presentation::new(1, vec![vec![2]]);
    }
}
