//! Sample statistics, metric naming and the result line every run prints.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Median of `xs` (mean of the two middle values for an even count).
///
/// # Panics
///
/// Panics on an empty slice: every caller measures at least once.
pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of no samples");
    let s = sorted(xs);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut s = xs.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

/// The nearest-rank `p`-th percentile (`0 < p ≤ 100`) of `xs`.
///
/// # Panics
///
/// Panics on an empty slice.
pub fn percentile(xs: &[f64], p: u32) -> f64 {
    assert!(!xs.is_empty(), "percentile of no samples");
    let s = sorted(xs);
    let rank = (p as usize * s.len()).div_ceil(100).max(1);
    s[rank - 1]
}

/// A latency tail: the highest whole percentile (at most 99) that still
/// has at least [`TAIL_BEYOND`] samples beyond it, with its value and the
/// sample count it was read from. Below `2 × TAIL_BEYOND` samples no
/// percentile above the median qualifies, so the median is reported.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The percentile read.
    pub pct: u32,
    /// Its value.
    pub value: f64,
    /// Number of samples.
    pub n: usize,
}

/// Samples that must lie beyond a reported tail percentile.
pub const TAIL_BEYOND: usize = 10;

/// The highest percentile of `n` samples with [`TAIL_BEYOND`] samples
/// beyond it, never below 50 and never above 99.
pub fn tail_pct(n: usize) -> u32 {
    // Nearest rank r = ceil(p·n/100) leaves n − r samples beyond; the
    // largest p with n − r ≥ TAIL_BEYOND.
    (50..=99)
        .rev()
        .find(|&p| n - (p as usize * n).div_ceil(100) >= TAIL_BEYOND)
        .unwrap_or(50)
}

/// Reads the tail of `xs` by [`tail_pct`].
pub fn tail(xs: &[f64]) -> Tail {
    let pct = tail_pct(xs.len());
    Tail {
        pct,
        value: percentile(xs, pct),
        n: xs.len(),
    }
}

/// Whether `name` is a valid metric name: 1–64 characters from
/// `[A-Za-z0-9_.-]`, starting with a letter or digit.
pub fn valid_metric_name(name: &str) -> bool {
    name.len() <= 64
        && name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// Operations attempted and failed in one run. A call that returns `Err`
/// fails, and so does an output that does not match its recorded digest.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tally {
    /// Operations attempted.
    pub attempted: u64,
    /// Of those, operations that failed.
    pub failed: u64,
}

impl Tally {
    /// Counts one operation, failed when `ok` is false.
    pub fn record(&mut self, ok: bool) {
        self.attempted += 1;
        self.failed += u64::from(!ok);
    }

    /// Counts the outcome of a fallible call and passes its value on.
    pub fn check<T, E: std::fmt::Display>(&mut self, what: &str, r: Result<T, E>) -> Option<T> {
        self.record(r.is_ok());
        r.map_err(|e| eprintln!("{what}: {e}")).ok()
    }

    /// Failed operations over attempted ones (0 when nothing ran).
    pub fn fail_frac(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }
}

/// Named metrics with units, in name order.
#[derive(Debug, Default)]
pub struct Metrics(BTreeMap<String, (f64, &'static str)>);

impl Metrics {
    /// Records `name = value unit`.
    ///
    /// # Panics
    ///
    /// Panics on an invalid name or a non-finite value: both are bugs in
    /// the benchmark, and neither can be printed as a JSON number.
    pub fn set(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        let name = name.into();
        assert!(valid_metric_name(&name), "bad metric name {name:?}");
        assert!(value.is_finite(), "metric {name} is {value}");
        self.0.insert(name, (value, unit));
    }
}

/// The one-line JSON result: `correct`, `attempted`, `failed`, `metrics`.
pub fn result_line(correct: bool, tally: Tally, metrics: &Metrics) -> String {
    let mut out = format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        tally.attempted.max(1),
        tally.failed
    );
    for (i, (name, (value, unit))) in metrics.0.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        // `{}` prints the shortest decimal that round-trips, so every
        // measured digit is kept.
        let _ = write!(
            out,
            "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        );
    }
    out.push_str("}}");
    out
}

/// Escapes `s` as a JSON string literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        assert_eq!(tail_pct(1000), 99);
        assert_eq!(tail_pct(999), 98);
        assert_eq!(tail_pct(600), 98);
        assert_eq!(tail_pct(100), 90);
        assert_eq!(tail_pct(20), 50);
        assert_eq!(tail_pct(19), 50);
        assert_eq!(tail_pct(3), 50);
        for n in 20..3000 {
            let p = tail_pct(n);
            let rank = (p as usize * n).div_ceil(100);
            assert!(n - rank >= TAIL_BEYOND, "n={n} p={p}");
            if p < 99 {
                let next = ((p as usize + 1) * n).div_ceil(100);
                assert!(n - next < TAIL_BEYOND, "n={n}: p{} also qualifies", p + 1);
            }
        }
    }

    #[test]
    fn tail_reads_the_value_with_ten_beyond() {
        let xs: Vec<f64> = (1..=1000).map(f64::from).collect();
        let t = tail(&xs);
        assert_eq!((t.pct, t.value, t.n), (99, 990.0, 1000));
        assert_eq!(xs.iter().filter(|&&x| x > t.value).count(), 10);
    }

    #[test]
    fn metric_names_follow_the_rule() {
        for ok in [
            "setup_s",
            "sta.pass_ms.c7552s.proposed",
            "cells.char_s.NAND4",
            "a-b",
            "9x",
        ] {
            assert!(valid_metric_name(ok), "{ok}");
        }
        let long = "x".repeat(65);
        for bad in ["", ".x", "_x", "a b", "a/b", "p99%", "é", long.as_str()] {
            assert!(!valid_metric_name(bad), "{bad}");
        }
    }

    #[test]
    #[should_panic(expected = "bad metric name")]
    fn metrics_reject_bad_names() {
        Metrics::default().set("bad name", 1.0, "s");
    }

    #[test]
    fn tally_counts_errors_as_failures() {
        let mut t = Tally::default();
        assert_eq!(t.fail_frac(), 0.0);
        assert_eq!(t.check("ok", Ok::<_, String>(1)), Some(1));
        t.record(true);
        assert_eq!(t.check("err", Err::<(), _>("boom")), None);
        t.record(false);
        assert_eq!((t.attempted, t.failed), (4, 2));
        assert_eq!(t.fail_frac(), 0.5);
    }

    #[test]
    fn result_line_has_exactly_the_four_keys() {
        let mut m = Metrics::default();
        m.set("setup_s", 0.8127, "s");
        m.set("job_s", 1.25, "s");
        let line = result_line(
            true,
            Tally {
                attempted: 3,
                failed: 0,
            },
            &m,
        );
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {\
             \"job_s\": {\"value\": 1.25, \"unit\": \"s\"}, \
             \"setup_s\": {\"value\": 0.8127, \"unit\": \"s\"}}}"
        );
    }

    #[test]
    fn json_strings_are_escaped() {
        assert_eq!(json_str("a\"b\\c\n"), "\"a\\\"b\\\\c\\u000a\"");
    }
}
