//! Shared harness utilities for the `run_experiments` binary:
//! deterministic micro-timing, percentiles of raw samples, paper-style
//! table rendering and the seeded fixture directory.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::time::Instant;

use bschema_workload::{OrgGenerator, OrgParams};

/// Times `f`, returning the median of `runs` wall-clock measurements in
/// microseconds. The first (warm-up) run is discarded.
pub fn time_median_us<T>(runs: usize, mut f: impl FnMut() -> T) -> f64 {
    assert!(runs >= 1);
    let mut samples = Vec::with_capacity(runs);
    let _warmup = f();
    for _ in 0..runs {
        let start = Instant::now();
        let out = f();
        samples.push(start.elapsed().as_secs_f64() * 1e6);
        std::hint::black_box(out);
    }
    samples.sort_by(f64::total_cmp);
    samples[samples.len() / 2]
}

/// Nearest-rank percentile of ascending `sorted` samples: the smallest
/// sample with at least `p` percent of the samples at or below it — an
/// observed value, not a bucket edge.
pub fn nearest_rank(sorted: &[f64], p: f64) -> f64 {
    let rank = (p / 100.0 * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// A fixed-width text table accumulated row by row.
#[derive(Debug, Default)]
pub struct Table {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// A table with the given column headers.
    pub fn new<S: Into<String>>(header: impl IntoIterator<Item = S>) -> Self {
        Table { header: header.into_iter().map(Into::into).collect(), rows: Vec::new() }
    }

    /// Appends a row (must match the header arity).
    pub fn row<S: Into<String>>(&mut self, cells: impl IntoIterator<Item = S>) {
        let row: Vec<String> = cells.into_iter().map(Into::into).collect();
        assert_eq!(row.len(), self.header.len(), "row arity mismatch");
        self.rows.push(row);
    }

    /// Renders with aligned columns.
    pub fn render(&self) -> String {
        let cols = self.header.len();
        let mut widths: Vec<usize> = self.header.iter().map(String::len).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = String::new();
        let fmt_row = |row: &[String]| -> String {
            let mut line = String::new();
            for i in 0..cols {
                if i > 0 {
                    line.push_str("  ");
                }
                line.push_str(&format!("{:>width$}", row[i], width = widths[i]));
            }
            line
        };
        out.push_str(&fmt_row(&self.header));
        out.push('\n');
        out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (cols - 1)));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row));
            out.push('\n');
        }
        out
    }
}

pub use bschema_obs::fmt_us;

/// Standard instance sizes used across experiments.
pub const SIZES: [usize; 5] = [100, 300, 1_000, 3_000, 10_000];

/// Builds a legal white-pages org directory of roughly `n` entries
/// (seeded, prepared).
pub fn org_of_size(n: usize) -> bschema_workload::org::GeneratedOrg {
    OrgGenerator::new(OrgParams { target_entries: n, seed: 42, ..OrgParams::default() }).generate()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned() {
        let mut t = Table::new(["|D|", "fast", "naive"]);
        t.row(["100", "1.0µs", "10.0µs"]);
        t.row(["10000", "100.0µs", "100.00ms"]);
        let text = t.render();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].contains("|D|"));
        assert!(lines[2].ends_with("10.0µs"));
    }

    #[test]
    fn fmt_us_ranges() {
        assert_eq!(fmt_us(12.34), "12.3µs");
        assert_eq!(fmt_us(12_340.0), "12.34ms");
        assert_eq!(fmt_us(2_500_000.0), "2.50s");
    }

    #[test]
    fn nearest_rank_returns_observed_samples() {
        let samples: Vec<f64> = (1..=200).map(f64::from).collect();
        assert_eq!(nearest_rank(&samples, 50.0), 100.0);
        assert_eq!(nearest_rank(&samples, 99.0), 198.0);
        assert_eq!(nearest_rank(&samples, 100.0), 200.0);
        assert_eq!(nearest_rank(&samples, 0.0), 1.0);
        assert_eq!(nearest_rank(&[7.0], 99.0), 7.0);
    }

    #[test]
    fn timing_returns_positive() {
        let us = time_median_us(3, || (0..1000).sum::<u64>());
        assert!(us >= 0.0);
    }
}
