//! The [`ConfigSpace`] type: declaration, sampling, encoding, neighborhoods.

use crate::config::Config;
use crate::param::{Domain, ParamSpec, ParamValue};
use tuna_stats::rng::Rng;

/// Error produced when a configuration does not fit a space.
#[derive(Debug, Clone, PartialEq)]
pub enum SpaceError {
    /// Config has a different number of values than the space has params.
    ArityMismatch { expected: usize, got: usize },
    /// Value type does not match the parameter domain.
    TypeMismatch { param: String },
    /// Value is outside the declared bounds.
    OutOfBounds { param: String, value: String },
}

impl std::fmt::Display for SpaceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SpaceError::ArityMismatch { expected, got } => {
                write!(f, "expected {expected} values, got {got}")
            }
            SpaceError::TypeMismatch { param } => write!(f, "type mismatch for '{param}'"),
            SpaceError::OutOfBounds { param, value } => {
                write!(f, "value {value} out of bounds for '{param}'")
            }
        }
    }
}

impl std::error::Error for SpaceError {}

/// An ordered collection of named parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct ConfigSpace {
    params: Vec<ParamSpec>,
}

/// Builder for [`ConfigSpace`].
#[derive(Debug, Default)]
pub struct ConfigSpaceBuilder {
    params: Vec<ParamSpec>,
}

impl ConfigSpaceBuilder {
    /// Adds a linear integer parameter on `[lo, hi]`.
    ///
    /// # Panics
    ///
    /// Panics if `lo > hi`.
    pub fn int(mut self, name: &str, lo: i64, hi: i64) -> Self {
        assert!(lo <= hi, "int '{name}': lo {lo} > hi {hi}");
        self.params
            .push(ParamSpec::new(name, Domain::Int { lo, hi, log: false }));
        self
    }

    /// Adds a log-scaled integer parameter on `[lo, hi]` (`lo >= 1`).
    ///
    /// # Panics
    ///
    /// Panics if `lo < 1` or `lo > hi`.
    pub fn int_log(mut self, name: &str, lo: i64, hi: i64) -> Self {
        assert!(lo >= 1, "int_log '{name}': lo must be >= 1");
        assert!(lo <= hi, "int_log '{name}': lo {lo} > hi {hi}");
        self.params
            .push(ParamSpec::new(name, Domain::Int { lo, hi, log: true }));
        self
    }

    /// Adds a linear float parameter on `[lo, hi]`.
    ///
    /// # Panics
    ///
    /// Panics if the bounds are not finite or inverted.
    pub fn float(mut self, name: &str, lo: f64, hi: f64) -> Self {
        assert!(
            lo.is_finite() && hi.is_finite() && lo <= hi,
            "float '{name}': invalid bounds"
        );
        self.params
            .push(ParamSpec::new(name, Domain::Float { lo, hi, log: false }));
        self
    }

    /// Adds a log-scaled float parameter on `[lo, hi]` (`lo > 0`).
    ///
    /// # Panics
    ///
    /// Panics if `lo <= 0` or the bounds are invalid.
    pub fn float_log(mut self, name: &str, lo: f64, hi: f64) -> Self {
        assert!(
            lo > 0.0 && lo <= hi && hi.is_finite(),
            "float_log '{name}': invalid bounds"
        );
        self.params
            .push(ParamSpec::new(name, Domain::Float { lo, hi, log: true }));
        self
    }

    /// Adds a categorical parameter.
    ///
    /// # Panics
    ///
    /// Panics if `choices` is empty.
    pub fn categorical(mut self, name: &str, choices: &[&str]) -> Self {
        assert!(!choices.is_empty(), "categorical '{name}': no choices");
        self.params.push(ParamSpec::new(
            name,
            Domain::Categorical {
                choices: choices.iter().map(|s| s.to_string()).collect(),
            },
        ));
        self
    }

    /// Adds a boolean parameter.
    pub fn boolean(mut self, name: &str) -> Self {
        self.params.push(ParamSpec::new(name, Domain::Bool));
        self
    }

    /// Finalizes the space.
    ///
    /// # Panics
    ///
    /// Panics if two parameters share a name.
    pub fn build(self) -> ConfigSpace {
        for (i, a) in self.params.iter().enumerate() {
            for b in &self.params[i + 1..] {
                assert!(a.name != b.name, "duplicate parameter name '{}'", a.name);
            }
        }
        ConfigSpace {
            params: self.params,
        }
    }
}

impl ConfigSpace {
    /// Starts building a space.
    pub fn builder() -> ConfigSpaceBuilder {
        ConfigSpaceBuilder::default()
    }

    /// The ordered parameter specs.
    pub fn params(&self) -> &[ParamSpec] {
        &self.params
    }

    /// Number of parameters.
    pub fn len(&self) -> usize {
        self.params.len()
    }

    /// Whether the space is empty.
    pub fn is_empty(&self) -> bool {
        self.params.is_empty()
    }

    /// Index of the parameter named `name`, if present.
    pub fn index_of(&self, name: &str) -> Option<usize> {
        self.params.iter().position(|p| p.name == name)
    }

    /// The value of parameter `name` in `config`.
    ///
    /// # Panics
    ///
    /// Panics if the name is unknown.
    pub fn value_of(&self, config: &Config, name: &str) -> ParamValue {
        let i = self
            .index_of(name)
            .unwrap_or_else(|| panic!("unknown parameter '{name}'"));
        config.get(i)
    }

    /// Samples a uniformly random configuration (log-domains uniform in log
    /// space).
    pub fn sample(&self, rng: &mut Rng) -> Config {
        let values = self
            .params
            .iter()
            .map(|p| match &p.domain {
                Domain::Int { lo, hi, log } => {
                    if *log {
                        let v = rng.range_f64((*lo as f64).ln(), ((*hi as f64) + 1.0).ln());
                        ParamValue::Int((v.exp().floor() as i64).clamp(*lo, *hi))
                    } else {
                        ParamValue::Int(rng.range_i64(*lo, *hi))
                    }
                }
                Domain::Float { lo, hi, log } => {
                    if *log {
                        ParamValue::Float(rng.range_f64(lo.ln(), hi.ln()).exp().clamp(*lo, *hi))
                    } else {
                        ParamValue::Float(rng.range_f64(*lo, *hi))
                    }
                }
                Domain::Categorical { choices } => ParamValue::Cat(rng.below(choices.len())),
                Domain::Bool => ParamValue::Bool(rng.chance(0.5)),
            })
            .collect();
        Config::new(values)
    }

    /// Checks that `config` structurally fits this space.
    pub fn validate(&self, config: &Config) -> Result<(), SpaceError> {
        if config.len() != self.params.len() {
            return Err(SpaceError::ArityMismatch {
                expected: self.params.len(),
                got: config.len(),
            });
        }
        for (p, v) in self.params.iter().zip(config.values()) {
            match (&p.domain, v) {
                (Domain::Int { lo, hi, .. }, ParamValue::Int(x)) => {
                    if x < lo || x > hi {
                        return Err(SpaceError::OutOfBounds {
                            param: p.name.clone(),
                            value: x.to_string(),
                        });
                    }
                }
                (Domain::Float { lo, hi, .. }, ParamValue::Float(x)) => {
                    if !x.is_finite() || x < lo || x > hi {
                        return Err(SpaceError::OutOfBounds {
                            param: p.name.clone(),
                            value: x.to_string(),
                        });
                    }
                }
                (Domain::Categorical { choices }, ParamValue::Cat(x)) => {
                    if *x >= choices.len() {
                        return Err(SpaceError::OutOfBounds {
                            param: p.name.clone(),
                            value: x.to_string(),
                        });
                    }
                }
                (Domain::Bool, ParamValue::Bool(_)) => {}
                _ => {
                    return Err(SpaceError::TypeMismatch {
                        param: p.name.clone(),
                    })
                }
            }
        }
        Ok(())
    }

    /// Encodes a configuration as one `f64` per parameter, each normalized
    /// to `[0, 1]` (categoricals as `index / (k-1)`, suitable for
    /// tree-based surrogates).
    ///
    /// # Panics
    ///
    /// Panics if the config does not fit the space (validate first when the
    /// config comes from outside).
    pub fn encode(&self, config: &Config) -> Vec<f64> {
        assert_eq!(config.len(), self.params.len(), "config/space arity");
        self.params
            .iter()
            .zip(config.values())
            .map(|(p, v)| Self::encode_one(p, v))
            .collect()
    }

    fn encode_one(p: &ParamSpec, v: &ParamValue) -> f64 {
        match (&p.domain, v) {
            (Domain::Int { lo, hi, log }, ParamValue::Int(x)) => {
                if lo == hi {
                    return 0.5;
                }
                if *log {
                    let (l, h, xv) = ((*lo as f64).ln(), (*hi as f64).ln(), (*x as f64).ln());
                    (xv - l) / (h - l)
                } else {
                    (*x - *lo) as f64 / (*hi - *lo) as f64
                }
            }
            (Domain::Float { lo, hi, log }, ParamValue::Float(x)) => {
                if (hi - lo).abs() < f64::EPSILON {
                    return 0.5;
                }
                if *log {
                    (x.ln() - lo.ln()) / (hi.ln() - lo.ln())
                } else {
                    (x - lo) / (hi - lo)
                }
            }
            (Domain::Categorical { choices }, ParamValue::Cat(x)) => {
                if choices.len() <= 1 {
                    0.5
                } else {
                    *x as f64 / (choices.len() - 1) as f64
                }
            }
            (Domain::Bool, ParamValue::Bool(x)) => {
                if *x {
                    1.0
                } else {
                    0.0
                }
            }
            _ => panic!("type mismatch for '{}'", p.name),
        }
    }

    /// One-hot encoding: numeric parameters normalized to `[0,1]`,
    /// categoricals expanded to indicator columns (suitable for GP
    /// surrogates where index distance is meaningless).
    pub fn encode_one_hot(&self, config: &Config) -> Vec<f64> {
        assert_eq!(config.len(), self.params.len(), "config/space arity");
        let mut out = Vec::with_capacity(self.one_hot_width());
        for (p, v) in self.params.iter().zip(config.values()) {
            match (&p.domain, v) {
                (Domain::Categorical { choices }, ParamValue::Cat(x)) => {
                    for i in 0..choices.len() {
                        out.push(if i == *x { 1.0 } else { 0.0 });
                    }
                }
                _ => out.push(Self::encode_one(p, v)),
            }
        }
        out
    }

    /// Width of the one-hot encoding.
    pub fn one_hot_width(&self) -> usize {
        self.params.iter().map(|p| p.domain.one_hot_width()).sum()
    }

    /// Produces a neighbor of `config` by perturbing one random parameter:
    /// numeric values take a Gaussian step (sigma = 20% of the normalized
    /// range), categoricals/booleans switch to a different choice.
    pub fn neighbor(&self, config: &Config, rng: &mut Rng) -> Config {
        assert!(!self.params.is_empty(), "neighbor of empty space");
        let i = rng.below(self.params.len());
        let p = &self.params[i];
        let new_value = match (&p.domain, config.get(i)) {
            (Domain::Int { lo, hi, log }, ParamValue::Int(x)) => {
                if lo == hi {
                    ParamValue::Int(x)
                } else if *log {
                    let (l, h) = ((*lo as f64).ln(), (*hi as f64).ln());
                    let z = ((x as f64).ln() - l) / (h - l);
                    let z2 = (z + 0.2 * rng.next_gaussian()).clamp(0.0, 1.0);
                    ParamValue::Int(((l + z2 * (h - l)).exp().round() as i64).clamp(*lo, *hi))
                } else {
                    let z = (x - lo) as f64 / (hi - lo) as f64;
                    let z2 = (z + 0.2 * rng.next_gaussian()).clamp(0.0, 1.0);
                    ParamValue::Int(lo + (z2 * (hi - lo) as f64).round() as i64)
                }
            }
            (Domain::Float { lo, hi, log }, ParamValue::Float(x)) => {
                if (hi - lo).abs() < f64::EPSILON {
                    ParamValue::Float(x)
                } else if *log {
                    let (l, h) = (lo.ln(), hi.ln());
                    let z = (x.ln() - l) / (h - l);
                    let z2 = (z + 0.2 * rng.next_gaussian()).clamp(0.0, 1.0);
                    ParamValue::Float((l + z2 * (h - l)).exp().clamp(*lo, *hi))
                } else {
                    let z = (x - lo) / (hi - lo);
                    let z2 = (z + 0.2 * rng.next_gaussian()).clamp(0.0, 1.0);
                    ParamValue::Float(lo + z2 * (hi - lo))
                }
            }
            (Domain::Categorical { choices }, ParamValue::Cat(x)) => {
                if choices.len() <= 1 {
                    ParamValue::Cat(x)
                } else {
                    let mut nxt = rng.below(choices.len() - 1);
                    if nxt >= x {
                        nxt += 1;
                    }
                    ParamValue::Cat(nxt)
                }
            }
            (Domain::Bool, ParamValue::Bool(x)) => ParamValue::Bool(!x),
            _ => panic!("type mismatch for '{}'", p.name),
        };
        config.with(i, new_value)
    }

    /// Generates `n` neighbors of `config`.
    pub fn neighbors(&self, config: &Config, n: usize, rng: &mut Rng) -> Vec<Config> {
        (0..n).map(|_| self.neighbor(config, rng)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn demo_space() -> ConfigSpace {
        ConfigSpace::builder()
            .int("workers", 1, 16)
            .int_log("buffer_mb", 8, 16384)
            .float("cost", 0.5, 8.0)
            .float_log("rate", 0.001, 10.0)
            .categorical("policy", &["lru", "lfu", "random"])
            .boolean("enabled")
            .build()
    }

    #[test]
    fn sample_always_validates() {
        let space = demo_space();
        let mut rng = Rng::seed_from(9);
        for _ in 0..500 {
            let cfg = space.sample(&mut rng);
            assert!(space.validate(&cfg).is_ok());
        }
    }

    #[test]
    fn encode_in_unit_interval() {
        let space = demo_space();
        let mut rng = Rng::seed_from(10);
        for _ in 0..200 {
            let cfg = space.sample(&mut rng);
            for (i, z) in space.encode(&cfg).iter().enumerate() {
                assert!(
                    (0.0..=1.0).contains(z),
                    "param {i} encoded to {z} out of [0,1]"
                );
            }
        }
    }

    #[test]
    fn encode_endpoints() {
        let space = ConfigSpace::builder().int("a", 0, 10).build();
        let lo = Config::new(vec![ParamValue::Int(0)]);
        let hi = Config::new(vec![ParamValue::Int(10)]);
        assert_eq!(space.encode(&lo), vec![0.0]);
        assert_eq!(space.encode(&hi), vec![1.0]);
    }

    #[test]
    fn log_sampling_covers_orders_of_magnitude() {
        let space = ConfigSpace::builder().int_log("b", 8, 16384).build();
        let mut rng = Rng::seed_from(11);
        let mut small = 0;
        let mut large = 0;
        for _ in 0..2000 {
            let v = space.sample(&mut rng).get(0).as_int();
            if v < 128 {
                small += 1;
            }
            if v >= 2048 {
                large += 1;
            }
        }
        // Log-uniform: [8,128) covers ~36% of log range, [2048,16384] ~27%.
        assert!(small > 400, "small={small}");
        assert!(large > 300, "large={large}");
    }

    #[test]
    fn one_hot_width_and_values() {
        let space = demo_space();
        assert_eq!(space.one_hot_width(), 5 + 3);
        let mut rng = Rng::seed_from(12);
        let cfg = space.sample(&mut rng);
        let oh = space.encode_one_hot(&cfg);
        assert_eq!(oh.len(), 8);
        let cat_cols = &oh[4..7];
        assert_eq!(cat_cols.iter().filter(|&&x| x == 1.0).count(), 1);
        assert_eq!(cat_cols.iter().filter(|&&x| x == 0.0).count(), 2);
    }

    #[test]
    fn neighbor_changes_exactly_one_param_and_validates() {
        let space = demo_space();
        let mut rng = Rng::seed_from(13);
        let cfg = space.sample(&mut rng);
        for _ in 0..300 {
            let nb = space.neighbor(&cfg, &mut rng);
            assert!(space.validate(&nb).is_ok());
            let diffs = cfg
                .values()
                .iter()
                .zip(nb.values())
                .filter(|(a, b)| a != b)
                .count();
            assert!(diffs <= 1, "{diffs} params changed");
        }
    }

    #[test]
    fn bool_neighbor_flips() {
        let space = ConfigSpace::builder().boolean("flag").build();
        let cfg = Config::new(vec![ParamValue::Bool(false)]);
        let mut rng = Rng::seed_from(14);
        let nb = space.neighbor(&cfg, &mut rng);
        assert!(nb.get(0).as_bool());
    }

    #[test]
    fn categorical_neighbor_never_same() {
        let space = ConfigSpace::builder()
            .categorical("c", &["a", "b", "c", "d"])
            .build();
        let cfg = Config::new(vec![ParamValue::Cat(2)]);
        let mut rng = Rng::seed_from(15);
        for _ in 0..100 {
            let nb = space.neighbor(&cfg, &mut rng);
            assert_ne!(nb.get(0).as_cat(), 2);
            assert!(nb.get(0).as_cat() < 4);
        }
    }

    #[test]
    fn validate_catches_errors() {
        let space = demo_space();
        let mut rng = Rng::seed_from(16);
        let cfg = space.sample(&mut rng);

        let short = Config::new(cfg.values()[..3].to_vec());
        assert!(matches!(
            space.validate(&short),
            Err(SpaceError::ArityMismatch { .. })
        ));

        let wrong_type = cfg.with(0, ParamValue::Float(1.0));
        assert!(matches!(
            space.validate(&wrong_type),
            Err(SpaceError::TypeMismatch { .. })
        ));

        let oob = cfg.with(0, ParamValue::Int(999));
        assert!(matches!(
            space.validate(&oob),
            Err(SpaceError::OutOfBounds { .. })
        ));

        let bad_cat = cfg.with(4, ParamValue::Cat(7));
        assert!(matches!(
            space.validate(&bad_cat),
            Err(SpaceError::OutOfBounds { .. })
        ));
    }

    #[test]
    #[should_panic(expected = "duplicate parameter name")]
    fn duplicate_names_panic() {
        ConfigSpace::builder().int("x", 0, 1).boolean("x").build();
    }

    #[test]
    fn index_and_value_lookup() {
        let space = demo_space();
        assert_eq!(space.index_of("policy"), Some(4));
        assert_eq!(space.index_of("nope"), None);
        let mut rng = Rng::seed_from(17);
        let cfg = space.sample(&mut rng);
        let v = space.value_of(&cfg, "workers");
        assert!(matches!(v, ParamValue::Int(_)));
    }
}
