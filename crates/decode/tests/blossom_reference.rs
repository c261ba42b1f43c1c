//! Differential unit tests of the pooled blossom solver against the
//! reference exact solver in `qec-math`: on small fixed, random and
//! blossom-nesting instances the two must return the same weight and
//! the same mate for every vertex, and the pooled solver's dual
//! certificate must hold. The large randomized budget lives in
//! `qec-testkit`'s `blossom_fuzz`.

use qec_decode::{pooled_min_weight_perfect_matching_f64, BlossomScratch};
use qec_math::graph::matching::min_weight_perfect_matching_f64;
use qec_math::rng::{Rng, Xoshiro256StarStar};

fn assert_identical(n: usize, edges: &[(usize, usize, f64)], sc: &mut BlossomScratch) {
    let reference = min_weight_perfect_matching_f64(n, edges);
    let pooled = pooled_min_weight_perfect_matching_f64(n, edges, sc);
    match (&reference, &pooled) {
        (None, None) => {}
        (Some(r), Some(p)) => {
            assert_eq!(r.weight, p.weight(), "weight diverged on n={n} {edges:?}");
            for u in 0..n {
                assert_eq!(
                    r.mate[u],
                    p.mate(u),
                    "mate[{u}] diverged on n={n} {edges:?}"
                );
            }
            sc.verify_certificate().expect("dual certificate");
        }
        _ => panic!(
            "Option-ness diverged on n={n} {edges:?}: reference {} vs pooled {}",
            reference.is_some(),
            pooled.is_some()
        ),
    }
}

#[test]
fn identical_on_small_fixed_instances() {
    let mut sc = BlossomScratch::new();
    assert_identical(0, &[], &mut sc);
    assert_identical(3, &[(0, 1, 1.0)], &mut sc);
    assert_identical(
        4,
        &[(0, 1, 10.0), (2, 3, 10.0), (0, 2, 1.0), (1, 3, 1.0)],
        &mut sc,
    );
    // Star: no perfect matching.
    assert_identical(4, &[(0, 1, 1.0), (0, 2, 1.0), (0, 3, 1.0)], &mut sc);
    // Negative weights.
    assert_identical(
        4,
        &[(0, 1, -5.0), (2, 3, -7.0), (0, 2, 1.0), (1, 3, 1.0)],
        &mut sc,
    );
    // Exact ties everywhere (degenerate optima): the decision
    // trajectory, not just the cost, must match.
    assert_identical(
        4,
        &[
            (0, 1, 1.0),
            (1, 2, 1.0),
            (2, 3, 1.0),
            (3, 0, 1.0),
            (0, 2, 1.0),
            (1, 3, 1.0),
        ],
        &mut sc,
    );
}

#[test]
fn identical_on_random_instances_shared_scratch() {
    let mut rng = Xoshiro256StarStar::seed_from_u64(0xb10_550);
    let mut sc = BlossomScratch::new();
    for _ in 0..400 {
        let n = rng.gen_range(2..=14usize);
        let mut edges = Vec::new();
        for u in 0..n {
            for v in (u + 1)..n {
                if rng.gen_bool(0.7) {
                    // Mix smooth weights with deliberate ties.
                    let w = if rng.gen_bool(0.3) {
                        rng.gen_range(0..6) as f64
                    } else {
                        rng.gen_f64() * 20.0 - 4.0
                    };
                    edges.push((u, v, w));
                }
            }
        }
        assert_identical(n, &edges, &mut sc);
    }
    assert!(sc.generations() <= 2, "pool regrew: {}", sc.generations());
}

#[test]
fn blossom_nesting_stays_identical() {
    // Odd cycles joined by bridges force blossom formation and
    // expansion; run many shots through one scratch so stale-state
    // bugs would surface as divergence.
    let mut sc = BlossomScratch::new();
    for k in 0..50 {
        let base = (k % 3) as f64 * 0.25;
        let edges: Vec<(usize, usize, f64)> = vec![
            (0, 1, 6.0 + base),
            (1, 2, 6.0),
            (0, 2, 6.0),
            (2, 3, 10.0),
            (3, 4, 6.0),
            (4, 5, 6.0 + base),
            (3, 5, 6.0),
        ];
        assert_identical(6, &edges, &mut sc);
    }
}
