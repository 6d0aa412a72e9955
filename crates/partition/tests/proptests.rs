//! Property-based tests for recursive spectral bisection.
//!
//! Rectangular grids are used throughout: their Fiedler value λ₂ is
//! simple at every recursion level (square grids have a degenerate
//! Fiedler pair, making the cut direction depend on the random start),
//! so the partition is a permutation-invariant function of the seed —
//! different seeds may label the parts differently but must induce the
//! same set partition of the nodes.

use proptest::prelude::*;
use tracered_graph::gen::{grid2d, WeightProfile};
use tracered_partition::recursive_bisection_threads;

/// Grid shapes whose recursive halves stay rectangular (simple λ₂ at
/// every level for k ∈ {2, 4}), paired with a part count.
fn arb_case() -> impl Strategy<Value = (usize, usize, usize)> {
    (0usize..4, 0usize..2).prop_map(|(shape, ki)| {
        let (rows, cols) = [(12, 10), (10, 8), (14, 6), (12, 5)][shape];
        (rows, cols, [2, 4][ki])
    })
}

/// Shapes for the seed-invariance property: every recursion level must
/// cut across an *even* axis, otherwise the middle row/column of an odd
/// axis has tied Fiedler values at the median and the tie-break genuinely
/// depends on the random start. (12,10) cuts 12→6×10 then 10→6×5;
/// (10,8) cuts 10→5×8 then 8→5×4; (16,6) and (12,5) cut their even axis.
fn arb_unambiguous_case() -> impl Strategy<Value = (usize, usize, usize)> {
    (0usize..6)
        .prop_map(|i| [(12, 10, 2), (12, 10, 4), (10, 8, 2), (10, 8, 4), (16, 6, 2), (12, 5, 4)][i])
}

/// Canonical form of a set partition: each node labelled by the smallest
/// node id sharing its part. Equal canonical forms ⇔ equal partitions up
/// to label permutation.
fn canonical(assignment: &[usize], parts: usize) -> Vec<usize> {
    let mut first = vec![usize::MAX; parts];
    for (v, &p) in assignment.iter().enumerate() {
        if first[p] == usize::MAX {
            first[p] = v;
        }
    }
    assignment.iter().map(|&p| first[p]).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn parts_are_nonempty_and_balanced((case, seed) in (arb_case(), 0u64..10_000)) {
        let (rows, cols, k) = case;
        let g = grid2d(rows, cols, WeightProfile::Unit, 1);
        let n = g.num_nodes();
        let p = recursive_bisection_threads(&g, k, 8, seed, 1).unwrap();
        prop_assert_eq!(p.parts, k);
        let sizes = p.part_sizes();
        prop_assert_eq!(sizes.iter().sum::<usize>(), n);
        let ideal = n as f64 / k as f64;
        for (part, &s) in sizes.iter().enumerate() {
            prop_assert!(s > 0, "part {} of {} is empty (seed {})", part, k, seed);
            prop_assert!(
                (s as f64 - ideal).abs() <= ideal * 0.15 + 1.0,
                "part {} has {} nodes, ideal {} (seed {})", part, s, ideal, seed
            );
        }
        prop_assert!(p.balance_ratio() < 1.2, "balance ratio {}", p.balance_ratio());
        prop_assert!(p.cut_weight > 0.0, "a k >= 2 partition of a grid must cut edges");
    }

    #[test]
    fn labels_are_a_permutation_invariant_function_of_the_seed(
        (case, seed_a, seed_b) in (arb_unambiguous_case(), 0u64..10_000, 0u64..10_000)
    ) {
        let (rows, cols, k) = case;
        let g = grid2d(rows, cols, WeightProfile::Unit, 1);
        // Same seed twice: bit-identical labels (full determinism).
        let p1 = recursive_bisection_threads(&g, k, 16, seed_a, 1).unwrap();
        let p2 = recursive_bisection_threads(&g, k, 16, seed_a, 1).unwrap();
        prop_assert_eq!(&p1.assignment, &p2.assignment);
        // Different seeds: the same set partition up to relabeling —
        // rectangular grids have a simple λ₂ at every recursion level,
        // so every random start converges to the same cut. 16 inverse
        // power steps are needed: at 8 steps a slow λ₂/λ₃ ratio can
        // leave enough λ₃ mixture to flip nodes near the cut.
        let p3 = recursive_bisection_threads(&g, k, 16, seed_b, 1).unwrap();
        let ca = canonical(&p1.assignment, p1.parts);
        let cb = canonical(&p3.assignment, p3.parts);
        let diff = ca.iter().zip(cb.iter()).filter(|(a, b)| a != b).count();
        prop_assert!(
            diff == 0,
            "seeds {} and {} disagree on {}/{} nodes ({}x{} grid, k={})",
            seed_a, seed_b, diff, g.num_nodes(), rows, cols, k
        );
        prop_assert!((p1.cut_weight - p3.cut_weight).abs() < 1e-9);
    }
}
