//! A figure's output as data: the lines it renders and the paper claims
//! it measured.
//!
//! Every paper-vs-measured line is a declared [`Claim`]: a unique id, the
//! label and paper text the line prints, the paper's number where the
//! paper states one, and the [`Format`] its numbers print in. A figure
//! body measures a claim into its [`FigureReport`], which keeps the value
//! and renders the line; [`super::run`] writes the report out.

/// A claim's unique id, `<figure id>.<name>` (e.g. `fig13.trad_std_ratio`).
pub type ClaimId = &'static str;

/// How a claim's numbers print.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Format {
    /// A plain number with N decimals.
    Fixed(usize),
    /// A fraction as a percentage with N decimals (`0.422` prints `42.2%`).
    Percent(usize),
    /// A relative change as a signed percentage (`-0.389` prints `-38.9%`).
    Change(usize),
    /// A ratio with N decimals and an `x`.
    Times(usize),
    /// `true` when the value is at least the bound, else `false`.
    AtLeast(f64),
}

impl Format {
    /// `value` as this format prints it.
    pub fn render(self, value: f64) -> String {
        match self {
            Format::Fixed(p) => format!("{value:.p$}"),
            Format::Percent(p) => format!("{:.p$}%", value * 100.0),
            Format::Change(p) => format!("{:+.p$}%", value * 100.0),
            Format::Times(p) => format!("{value:.p$}x"),
            Format::AtLeast(bound) => format!("{}", value >= bound),
        }
    }
}

/// One paper-vs-measured comparison, declared once and rendered as
/// `  <label> paper: <paper> measured: <value>`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Claim {
    /// Unique across every figure.
    pub id: ClaimId,
    /// What the line compares.
    pub label: &'static str,
    /// The paper's reported value, as the line prints it.
    pub paper: &'static str,
    /// The paper's number in the measured value's units, where the paper
    /// states one.
    pub number: Option<f64>,
    /// How the measured value prints.
    pub format: Format,
}

/// Declares a [`Claim`]; claim tables are lists of these.
pub const fn claim(
    id: ClaimId,
    label: &'static str,
    paper: &'static str,
    number: Option<f64>,
    format: Format,
) -> Claim {
    Claim {
        id,
        label,
        paper,
        number,
        format,
    }
}

impl Claim {
    /// The claim's line, with `measured` as its measured text.
    pub fn line(&self, measured: &str) -> String {
        format!(
            "  {:<46} paper: {:<18} measured: {measured}",
            self.label, self.paper
        )
    }
}

/// What a figure produced, in the order it prints.
#[derive(Debug, Default)]
pub struct FigureReport {
    /// The rendered output, each entry printed as one line; a table's
    /// entry spans several.
    pub lines: Vec<String>,
    /// Every claim the figure measured, with its value in the claim's
    /// units.
    pub claims: Vec<(&'static Claim, f64)>,
}

impl FigureReport {
    /// Appends an output line.
    pub fn line(&mut self, line: impl Into<String>) {
        self.lines.push(line.into());
    }

    /// Records `claim`'s measured `value` and renders its line, the
    /// formatted value followed by `note`.
    pub fn claim(&mut self, claim: &'static Claim, value: f64, note: &str) {
        self.claims.push((claim, value));
        self.line(claim.line(&format!("{}{note}", claim.format.render(value))));
    }
}
