//! Property tests: every registered solver survives hostile cost streams.
//!
//! The NaN-quarantine contract, checked across the whole registry:
//! interleaved finite / NaN / ±inf raw values must never panic any
//! solver, `best()` must be finite exactly when a finite observation
//! exists, and two same-seed runs must produce bit-identical ask/tell
//! streams even with non-finite tells in the middle.

use proptest::prelude::*;
use tuna_optimizer::solver::{SolverId, SolverParams, SolverRegistry};
use tuna_optimizer::Objective;
use tuna_space::ConfigSpace;
use tuna_stats::rng::Rng;

fn space() -> ConfigSpace {
    ConfigSpace::builder()
        .float("x", 0.0, 1.0)
        .int("i", 0, 16)
        .build()
}

/// Tagged raw values: tags 0/1/2 inject NaN / +inf / -inf, the rest keep
/// the finite draw — so roughly a third of every stream is hostile.
fn raw_values() -> impl Strategy<Value = Vec<f64>> {
    prop::collection::vec((0u8..10, -100.0f64..100.0), 4..48).prop_map(|tagged| {
        tagged
            .into_iter()
            .map(|(tag, v)| match tag {
                0 => f64::NAN,
                1 => f64::INFINITY,
                2 => f64::NEG_INFINITY,
                _ => v,
            })
            .collect()
    })
}

/// Drives one solver over the raw stream; returns the ask stream (config
/// id + budget per round), the reported best, and the observation count.
fn drive(
    name: &str,
    objective: Objective,
    values: &[f64],
    seed: u64,
) -> (Vec<(u64, usize)>, Option<f64>, usize) {
    let mut solver = SolverId::new(name).expect("registered name").build(
        space(),
        objective,
        &SolverParams::default(),
    );
    let mut rng = Rng::seed_from(seed);
    let mut stream = Vec::with_capacity(values.len());
    for &raw in values {
        let s = solver.ask(&mut rng);
        stream.push((s.config.id().0, s.budget));
        solver.tell(&s.config, raw, s.budget);
    }
    let best = solver.best().map(|(_, v)| v);
    (stream, best, solver.n_observations())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn registered_solvers_survive_hostile_streams(values in raw_values(), seed in 1u64..1000) {
        let any_finite = values.iter().any(|v| v.is_finite());
        for name in SolverRegistry::builtin().names() {
            for objective in [Objective::Minimize, Objective::Maximize] {
                let (stream, best, n) = drive(name, objective, &values, seed);
                prop_assert_eq!(n, values.len(), "{} miscounted observations", name);
                match best {
                    Some(v) => prop_assert!(
                        v.is_finite() && any_finite,
                        "{} reported non-finite or phantom best {v}",
                        name
                    ),
                    None => prop_assert!(
                        !any_finite,
                        "{} lost its best despite finite observations",
                        name
                    ),
                }
                // Same seed, same stream — quarantining non-finite tells
                // must not desynchronize the RNG.
                let (replay, best2, _) = drive(name, objective, &values, seed);
                prop_assert_eq!(&stream, &replay, "{} ask stream diverged", name);
                prop_assert_eq!(
                    best.map(f64::to_bits),
                    best2.map(f64::to_bits),
                    "{} best diverged",
                    name
                );
            }
        }
    }
}
