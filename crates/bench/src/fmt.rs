//! Plain-text table and series formatting for the experiment binaries.
//!
//! All experiment bins render through [`Report`]: one deterministic
//! in-memory buffer that goes to stdout and, when the bin got an output
//! path argument, byte-identically to that file as well — so CI can
//! diff two runs of any bin without scraping its stdout.

use std::fmt::Write as _;

use socbus_chaos::ctx::write_file;
use socbus_model::{CodePerf, DelayClass, Environment};

/// Formats seconds as picoseconds with no decimals.
#[must_use]
pub fn ps(t: f64) -> String {
    format!("{:.0}", t * 1e12)
}

/// Formats joules as picojoules with two decimals.
#[must_use]
pub fn pj(e: f64) -> String {
    format!("{:.2}", e * 1e12)
}

/// Formats square meters as square micrometers with no decimals.
#[must_use]
pub fn um2(a: f64) -> String {
    format!("{:.0}", a * 1e12)
}

/// Formats an energy coefficient as the paper's `a + bλ` form.
#[must_use]
pub fn coeff(e: socbus_model::EnergyCoeff) -> String {
    format!("{:.2} + {:.2}L", e.self_coeff, e.coupling_coeff)
}

/// Formats a delay class as the paper's `1 + cλ` form.
#[must_use]
pub fn class(c: DelayClass) -> String {
    match c.multiplier() {
        0 => "1".into(),
        1 => "1+L".into(),
        m => format!("1+{m}L"),
    }
}

/// The dominant (worst) wire class of a design, for the table column.
#[must_use]
pub fn bus_class(d: &CodePerf) -> DelayClass {
    d.paths
        .iter()
        .map(|p| p.class)
        .max()
        .unwrap_or(DelayClass::WORST)
}

/// A deterministic plain-text report: experiment bins append lines,
/// tables, and series, then [`Report::emit`] sends the identical bytes
/// to stdout and (optionally) a results file.
#[derive(Debug, Default)]
pub struct Report {
    body: String,
}

impl std::fmt::Write for Report {
    fn write_str(&mut self, s: &str) -> std::fmt::Result {
        self.body.write_str(s)
    }
}

impl Report {
    /// An empty report.
    #[must_use]
    pub fn new() -> Self {
        Report::default()
    }

    /// Appends one line (a newline is added).
    pub fn line(&mut self, text: impl AsRef<str>) {
        self.body.push_str(text.as_ref());
        self.body.push('\n');
    }

    /// Appends a blank line.
    pub fn blank(&mut self) {
        self.body.push('\n');
    }

    /// Appends a labeled sweep series `(x, y)` in a gnuplot-friendly
    /// layout.
    pub fn series(&mut self, title: &str, xlabel: &str, series: &[(String, Vec<(f64, f64)>)]) {
        let _ = writeln!(self.body, "# {title}");
        let _ = write!(self.body, "# {xlabel:>10}");
        for (name, _) in series {
            let _ = write!(self.body, " {name:>12}");
        }
        self.body.push('\n');
        if let Some((_, first)) = series.first() {
            for (i, &(x, _)) in first.iter().enumerate() {
                let _ = write!(self.body, "{x:>12.3}");
                for (_, pts) in series {
                    let _ = write!(self.body, " {:>12.4}", pts[i].1);
                }
                self.body.push('\n');
            }
        }
        self.body.push('\n');
    }

    /// Appends the header matching [`Report::design_row`].
    pub fn design_header(&mut self) {
        let _ = writeln!(
            self.body,
            "{:<10} {:>5} {:>7} {:>15} {:>7} {:>9} {:>9} {:>9} {:>9} {:>8}",
            "Scheme",
            "Wires",
            "Delay",
            "Energy (xCV^2)",
            "Vdd",
            "A(um2)",
            "Tc(ps)",
            "Ec(pJ)",
            "Etot(pJ)",
            "AreaOH"
        );
    }

    /// Appends one row of a Table II / Table III style comparison.
    pub fn design_row(&mut self, d: &CodePerf, env: &Environment, reference: Option<&CodePerf>) {
        let area_oh = reference
            .map(|r| format!("{:>7.1}%", 100.0 * socbus_model::area_overhead(r, d, env)))
            .unwrap_or_else(|| "      -".into());
        let _ = writeln!(
            self.body,
            "{:<10} {:>5} {:>7} {:>15} {:>7} {:>9} {:>9} {:>9} {:>9} {}",
            d.name,
            d.wires,
            class(bus_class(d)),
            coeff(d.bus_energy),
            format!("{:.3}", d.vdd),
            um2(d.codec_area),
            ps(d.paths.iter().map(|p| p.encoder_delay).fold(0.0, f64::max) + d.decoder_delay),
            pj(d.codec_energy),
            pj(d.total_energy(env)),
            area_oh,
        );
    }

    /// The rendered report text.
    #[must_use]
    pub fn render(&self) -> &str {
        &self.body
    }

    /// Prints the report to stdout and, when `out_path` is given, writes
    /// the identical bytes there too (creating parent directories).
    ///
    /// # Panics
    ///
    /// Panics if the output file cannot be written.
    pub fn emit(self, out_path: Option<&str>) {
        print!("{}", self.body);
        if let Some(path) = out_path {
            write_file(path, &self.body);
        }
    }

    /// [`Report::emit`] with the conventional CLI contract shared by the
    /// experiment bins: the first argument, if any, is the output path.
    pub fn emit_with_env_arg(self) {
        let arg = std::env::args().nth(1);
        self.emit(arg.as_deref());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_renders_lines_and_series_deterministically() {
        let build = || {
            let mut r = Report::new();
            r.line("header");
            r.blank();
            r.series("t", "x", &[("a".to_owned(), vec![(1.0, 2.0), (3.0, 4.5)])]);
            r
        };
        let a = build();
        assert_eq!(a.render(), build().render());
        assert!(a.render().starts_with("header\n\n# t\n"));
        assert!(a.render().contains("       1.000       2.0000\n"));
    }
}
