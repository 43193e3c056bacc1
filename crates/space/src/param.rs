//! Parameter specifications and values.

/// The domain of a single tunable parameter.
#[derive(Debug, Clone, PartialEq)]
pub enum Domain {
    /// Integer range `[lo, hi]` (inclusive). When `log` is set, sampling and
    /// encoding happen in log space, which suits size-like knobs such as
    /// buffer sizes.
    Int { lo: i64, hi: i64, log: bool },
    /// Float range `[lo, hi]`. `log` as for [`Domain::Int`].
    Float { lo: f64, hi: f64, log: bool },
    /// A finite, unordered set of choices, referenced by index.
    Categorical { choices: Vec<String> },
    /// A boolean flag.
    Bool,
}

impl Domain {
    /// Number of one-hot columns this domain occupies.
    pub fn one_hot_width(&self) -> usize {
        match self {
            Domain::Categorical { choices } => choices.len(),
            _ => 1,
        }
    }
}

/// A named parameter.
#[derive(Debug, Clone, PartialEq)]
pub struct ParamSpec {
    /// Knob name, unique within a space.
    pub name: String,
    /// Value domain.
    pub domain: Domain,
}

impl ParamSpec {
    /// Creates a parameter spec.
    pub fn new(name: impl Into<String>, domain: Domain) -> Self {
        ParamSpec {
            name: name.into(),
            domain,
        }
    }
}

/// A concrete value for one parameter.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ParamValue {
    /// Integer value.
    Int(i64),
    /// Float value.
    Float(f64),
    /// Categorical choice index.
    Cat(usize),
    /// Boolean flag.
    Bool(bool),
}

impl ParamValue {
    /// The integer payload.
    ///
    /// # Panics
    ///
    /// Panics if the value is not an `Int`.
    pub fn as_int(&self) -> i64 {
        match self {
            ParamValue::Int(v) => *v,
            other => panic!("expected Int, got {other:?}"),
        }
    }

    /// The float payload.
    ///
    /// # Panics
    ///
    /// Panics if the value is not a `Float`.
    pub fn as_float(&self) -> f64 {
        match self {
            ParamValue::Float(v) => *v,
            other => panic!("expected Float, got {other:?}"),
        }
    }

    /// The categorical index payload.
    ///
    /// # Panics
    ///
    /// Panics if the value is not a `Cat`.
    pub fn as_cat(&self) -> usize {
        match self {
            ParamValue::Cat(v) => *v,
            other => panic!("expected Cat, got {other:?}"),
        }
    }

    /// The boolean payload.
    ///
    /// # Panics
    ///
    /// Panics if the value is not a `Bool`.
    pub fn as_bool(&self) -> bool {
        match self {
            ParamValue::Bool(v) => *v,
            other => panic!("expected Bool, got {other:?}"),
        }
    }
}

impl std::fmt::Display for ParamValue {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ParamValue::Int(v) => write!(f, "{v}"),
            ParamValue::Float(v) => write!(f, "{v:.4}"),
            ParamValue::Cat(v) => write!(f, "#{v}"),
            ParamValue::Bool(v) => write!(f, "{v}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accessors_round_trip() {
        assert_eq!(ParamValue::Int(5).as_int(), 5);
        assert_eq!(ParamValue::Float(2.5).as_float(), 2.5);
        assert_eq!(ParamValue::Cat(2).as_cat(), 2);
        assert!(ParamValue::Bool(true).as_bool());
    }

    #[test]
    #[should_panic(expected = "expected Int")]
    fn wrong_accessor_panics() {
        ParamValue::Float(1.0).as_int();
    }

    #[test]
    fn one_hot_width() {
        assert_eq!(Domain::Bool.one_hot_width(), 1);
        assert_eq!(
            Domain::Categorical {
                choices: vec!["a".into(), "b".into(), "c".into()]
            }
            .one_hot_width(),
            3
        );
    }

    #[test]
    fn display_forms() {
        assert_eq!(ParamValue::Int(7).to_string(), "7");
        assert_eq!(ParamValue::Bool(true).to_string(), "true");
    }
}
