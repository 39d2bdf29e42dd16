//! Order statistics, metric naming rules, and the result line.

use std::fmt::Write as _;

/// A percentile is reported only when at least this many samples lie
/// beyond it; below that it describes a handful of outliers, not a tail.
pub const MIN_SAMPLES_BEYOND: usize = 10;

/// The `p`-th percentile (0–100) of `samples`, linearly interpolated
/// between the two nearest ranks. `None` for an empty slice.
pub fn percentile(samples: &[f64], p: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = (p / 100.0).clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    Some(v[lo] + (v[hi] - v[lo]) * (pos - lo as f64))
}

/// The median of `samples` (`None` when empty).
pub fn median(samples: &[f64]) -> Option<f64> {
    percentile(samples, 50.0)
}

/// How many of `n` samples lie strictly beyond the `p`-th percentile.
pub fn samples_beyond(n: usize, p: f64) -> usize {
    let at_or_below = ((p / 100.0).clamp(0.0, 1.0) * n as f64).ceil() as usize;
    n - at_or_below.min(n)
}

/// The `p`-th percentile, or `None` when fewer than
/// [`MIN_SAMPLES_BEYOND`] samples lie beyond it.
pub fn tail_percentile(samples: &[f64], p: f64) -> Option<f64> {
    if samples_beyond(samples.len(), p) < MIN_SAMPLES_BEYOND {
        return None;
    }
    percentile(samples, p)
}

/// Whether `name` is a valid metric or workload name: 1–64 characters
/// from letters, digits, `_`, `.` and `-`, starting with a letter or
/// digit.
pub fn valid_name(name: &str) -> bool {
    let first_ok = name
        .chars()
        .next()
        .is_some_and(|c| c.is_ascii_alphanumeric());
    first_ok
        && name.len() <= 64
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// Whether `unit` is a valid unit: 1–16 characters from letters,
/// digits, `_`, `/`, `%`, `.` and `-`.
pub fn valid_unit(unit: &str) -> bool {
    !unit.is_empty()
        && unit.len() <= 16
        && unit
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
}

/// An ordered list of named metrics with units.
#[derive(Debug, Default, Clone)]
pub struct Metrics(Vec<(String, f64, &'static str)>);

impl Metrics {
    /// Adds a metric. Panics on a malformed name or unit, a duplicate
    /// name, or a non-finite value: all three are bugs in this benchmark.
    pub fn push(&mut self, name: &str, value: f64, unit: &'static str) {
        assert!(valid_name(name), "bad metric name {name:?}");
        assert!(valid_unit(unit), "bad unit {unit:?} for {name}");
        assert!(value.is_finite(), "metric {name} is not finite: {value}");
        assert!(
            self.0.iter().all(|(n, _, _)| n != name),
            "metric {name} reported twice"
        );
        self.0.push((name.to_string(), value, unit));
    }

    /// `(name, unit)` pairs in insertion order.
    #[cfg(test)]
    pub fn named_units(&self) -> Vec<(String, String)> {
        self.0
            .iter()
            .map(|(n, _, u)| (n.clone(), u.to_string()))
            .collect()
    }

    /// `{"name":{"value":v,"unit":"u"},…}`
    pub fn to_json(&self) -> String {
        let mut s = String::from("{");
        for (i, (name, value, unit)) in self.0.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            let _ = write!(s, "\"{name}\":{{\"value\":{value},\"unit\":\"{unit}\"}}");
        }
        s.push('}');
        s
    }
}

/// Jobs attempted and failed over a run.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Tally {
    /// Jobs submitted in the measured window.
    pub attempted: u64,
    /// Jobs that errored, timed out, or produced an output that failed
    /// an independent check.
    pub failed: u64,
}

impl Tally {
    /// Share of attempted jobs that failed (0 when nothing ran).
    pub fn failed_share(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }

    /// A run is correct when it attempted something and nothing failed.
    pub fn correct(&self) -> bool {
        self.attempted > 0 && self.failed == 0
    }
}

/// The last line of standard output: the result the benchmark is judged
/// by.
pub fn result_line(tally: Tally, metrics: &Metrics) -> String {
    format!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{}}}",
        tally.correct(),
        tally.attempted.max(1),
        tally.failed,
        metrics.to_json()
    )
}

/// Escapes a string for a JSON string literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
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
    fn metric_names_follow_the_grammar() {
        for ok in ["setup_s", "latency_ms_p50", "cut.enum_ms", "0x", "a-b.c_d"] {
            assert!(valid_name(ok), "{ok}");
        }
        let long = "a".repeat(65);
        for bad in [
            "",
            "_lead",
            ".lead",
            "-lead",
            "sp ace",
            "semi;",
            "é",
            long.as_str(),
        ] {
            assert!(!valid_name(bad), "{bad:?}");
        }
        for ok in ["ms", "s", "1/s", "count", "%", "MB", "MB/s"] {
            assert!(valid_unit(ok), "{ok}");
        }
        for bad in ["", "m s", "seconds_per_request", "ms;"] {
            assert!(!valid_unit(bad), "{bad:?}");
        }
    }

    #[test]
    #[should_panic(expected = "reported twice")]
    fn duplicate_metrics_are_rejected() {
        let mut m = Metrics::default();
        m.push("x", 1.0, "ms");
        m.push("x", 2.0, "ms");
    }

    #[test]
    fn percentiles_interpolate() {
        let v: Vec<f64> = (1..=5).map(f64::from).collect();
        assert_eq!(median(&v), Some(3.0));
        assert_eq!(percentile(&v, 0.0), Some(1.0));
        assert_eq!(percentile(&v, 100.0), Some(5.0));
        assert_eq!(percentile(&v, 25.0), Some(2.0));
        assert_eq!(percentile(&[2.0, 4.0], 50.0), Some(3.0));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn tail_percentiles_need_ten_samples_beyond() {
        assert_eq!(samples_beyond(100, 90.0), 10);
        assert_eq!(samples_beyond(99, 90.0), 9);
        assert_eq!(samples_beyond(20, 50.0), 10);
        let ninety_nine: Vec<f64> = (0..99).map(f64::from).collect();
        assert_eq!(tail_percentile(&ninety_nine, 90.0), None);
        let hundred: Vec<f64> = (0..100).map(f64::from).collect();
        assert!(tail_percentile(&hundred, 90.0).is_some());
        assert_eq!(tail_percentile(&hundred, 99.0), None);
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let mut m = Metrics::default();
        m.push("latency_ms_p50", 1.25, "ms");
        m.push("setup_s", 0.5, "s");
        let line = result_line(
            Tally {
                attempted: 7,
                failed: 0,
            },
            &m,
        );
        assert_eq!(
            line,
            "{\"correct\":true,\"attempted\":7,\"failed\":0,\"metrics\":{\
             \"latency_ms_p50\":{\"value\":1.25,\"unit\":\"ms\"},\
             \"setup_s\":{\"value\":0.5,\"unit\":\"s\"}}}"
        );
    }

    #[test]
    fn failures_make_a_run_incorrect() {
        let t = Tally {
            attempted: 4,
            failed: 1,
        };
        assert!(!t.correct());
        assert_eq!(t.failed_share(), 0.25);
        assert!(!Tally::default().correct());
    }
}
