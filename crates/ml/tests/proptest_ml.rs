//! Property-based tests for the ML crate.

use proptest::prelude::*;
use tuna_ml::acquisition::expected_improvement;
use tuna_ml::forest::{ForestParams, RandomForest};
use tuna_ml::linalg::{Cholesky, Matrix};
use tuna_ml::tree::{RegressionTree, TreeParams};
use tuna_ml::Regressor;
use tuna_stats::rng::Rng;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn cholesky_reconstructs_random_spd(seed in any::<u64>(), n in 1usize..10) {
        let mut rng = Rng::seed_from(seed);
        let b = Matrix::from_fn(n, n, |_, _| rng.next_gaussian());
        let mut a = b.matmul(&b.transpose());
        a.add_diagonal(n as f64 + 1.0);
        let ch = Cholesky::factor(&a).unwrap();
        let rec = ch.l().matmul(&ch.l().transpose());
        for i in 0..n {
            for j in 0..n {
                prop_assert!((rec.get(i, j) - a.get(i, j)).abs() < 1e-6);
            }
        }
    }

    #[test]
    fn cholesky_solve_is_inverse(seed in any::<u64>(), n in 1usize..8) {
        let mut rng = Rng::seed_from(seed);
        let b = Matrix::from_fn(n, n, |_, _| rng.next_gaussian());
        let mut a = b.matmul(&b.transpose());
        a.add_diagonal(n as f64 + 1.0);
        let x_true: Vec<f64> = (0..n).map(|_| rng.next_gaussian()).collect();
        let rhs = a.matvec(&x_true);
        let ch = Cholesky::factor(&a).unwrap();
        let x = ch.solve(&rhs);
        for (got, want) in x.iter().zip(&x_true) {
            prop_assert!((got - want).abs() < 1e-6);
        }
    }

    #[test]
    fn tree_predictions_bounded_by_targets(seed in any::<u64>(), n in 5usize..60) {
        let mut rng = Rng::seed_from(seed);
        let xs: Vec<Vec<f64>> = (0..n).map(|_| vec![rng.next_f64(), rng.next_f64()]).collect();
        let ys: Vec<f64> = (0..n).map(|_| rng.next_gaussian() * 10.0).collect();
        let t = RegressionTree::fit(&xs, &ys, TreeParams::default(), &mut rng).unwrap();
        let lo = ys.iter().copied().fold(f64::INFINITY, f64::min);
        let hi = ys.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        for _ in 0..16 {
            let p = t.predict(&[rng.next_f64(), rng.next_f64()]);
            prop_assert!(p >= lo - 1e-9 && p <= hi + 1e-9);
        }
    }

    #[test]
    fn forest_variance_nonnegative(seed in any::<u64>(), n in 5usize..40) {
        let mut rng = Rng::seed_from(seed);
        let xs: Vec<Vec<f64>> = (0..n).map(|_| vec![rng.next_f64()]).collect();
        let ys: Vec<f64> = (0..n).map(|_| rng.next_gaussian()).collect();
        let mut rf = RandomForest::new(ForestParams { n_trees: 8, ..ForestParams::default() });
        rf.fit(&xs, &ys, &mut rng).unwrap();
        for _ in 0..8 {
            let (_, v) = rf.predict_stats(&[rng.next_f64()]);
            prop_assert!(v >= 0.0);
        }
    }

    #[test]
    fn ei_nonnegative_everywhere(mean in -100.0f64..100.0, std in 0.0f64..50.0, best in -100.0f64..100.0, xi in 0.0f64..5.0) {
        prop_assert!(expected_improvement(mean, std, best, xi) >= 0.0);
    }

    #[test]
    fn ei_monotone_in_mean(std in 0.01f64..50.0, best in -10.0f64..10.0) {
        // Lower predicted cost => higher EI.
        let a = expected_improvement(best - 1.0, std, best, 0.0);
        let b = expected_improvement(best + 1.0, std, best, 0.0);
        prop_assert!(a >= b);
    }

    #[test]
    fn forest_deterministic_given_seed(seed in any::<u64>()) {
        let mut data_rng = Rng::seed_from(seed);
        let xs: Vec<Vec<f64>> = (0..20).map(|_| vec![data_rng.next_f64()]).collect();
        let ys: Vec<f64> = (0..20).map(|_| data_rng.next_gaussian()).collect();
        let mut a = RandomForest::new(ForestParams { n_trees: 4, ..ForestParams::default() });
        let mut b = RandomForest::new(ForestParams { n_trees: 4, ..ForestParams::default() });
        a.fit(&xs, &ys, &mut Rng::seed_from(7)).unwrap();
        b.fit(&xs, &ys, &mut Rng::seed_from(7)).unwrap();
        prop_assert_eq!(a.predict(&[0.5]), b.predict(&[0.5]));
    }
}
