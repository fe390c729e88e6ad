//! Sample summaries, metric records and the result line.

use std::fmt::Write as _;
use std::time::Duration;

/// Samples that must lie beyond a reported percentile.
pub const BEYOND: usize = 10;

/// Nearest-rank percentile `q` (in `(0, 1)`) of `samples`, with the
/// number of samples beyond it; `None` when fewer than [`BEYOND`] do.
pub fn percentile(samples: &[f64], q: f64) -> Option<(f64, usize)> {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((q * sorted.len() as f64).ceil() as usize).max(1);
    let beyond = sorted.len().checked_sub(rank)?;
    (beyond >= BEYOND).then(|| (sorted[rank - 1], beyond))
}

/// Median of `samples` (mean of the middle pair for even counts).
pub fn median(samples: &[f64]) -> f64 {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    match n {
        0 => 0.0,
        _ if n % 2 == 1 => sorted[n / 2],
        _ => (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0,
    }
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

pub fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// `num / den`, or 0 when there is nothing to divide.
pub fn frac(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Peak resident set (`VmHWM`) of this process, in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}

/// One reported metric.
#[derive(Debug)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
    /// Sample count behind a percentile or median, for the log.
    pub samples: Option<usize>,
}

/// The metrics of one run, in report order.
#[derive(Debug, Default)]
pub struct Metrics(pub Vec<Metric>);

impl Metrics {
    pub fn put(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.0.push(Metric {
            name,
            value,
            unit,
            samples: None,
        });
    }

    /// Puts percentile `q` of `samples` under `name`.
    ///
    /// # Panics
    ///
    /// Panics when the sample does not support the percentile: the
    /// workload is sized so that it always does.
    pub fn put_pct(&mut self, name: &'static str, samples: &[f64], q: f64, unit: &'static str) {
        let (value, _) = percentile(samples, q).unwrap_or_else(|| {
            panic!(
                "{name}: {} samples leave fewer than {BEYOND} beyond p{}",
                samples.len(),
                q * 100.0
            )
        });
        self.0.push(Metric {
            name,
            value,
            unit,
            samples: Some(samples.len()),
        });
    }

    /// Like [`Metrics::put_pct`], but a layer the workload never enters
    /// (no samples at all) reports 0.
    pub fn put_pct_or_zero(
        &mut self,
        name: &'static str,
        samples: &[f64],
        q: f64,
        unit: &'static str,
    ) {
        if samples.is_empty() {
            self.put(name, 0.0, unit);
        } else {
            self.put_pct(name, samples, q, unit);
        }
    }
}

/// The run's verdict and metrics.
#[derive(Debug)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Metrics,
}

impl Outcome {
    /// Human-readable table (with sample counts) for the log.
    pub fn table(&self) -> String {
        let mut out = String::new();
        for m in &self.metrics.0 {
            let n = m.samples.map(|n| format!("  (n={n})")).unwrap_or_default();
            writeln!(out, "{:<28} {:>16.6} {}{n}", m.name, m.value, m.unit).expect("string");
        }
        out
    }

    /// The result line: one flat JSON object.
    pub fn json(&self) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.failed == 0,
            self.attempted,
            self.failed
        );
        for (i, m) in self.metrics.0.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            write!(
                out,
                "{sep}\"{}\": {{\"value\": {value:?}, \"unit\": \"{}\"}}",
                m.name, m.unit
            )
            .expect("string");
        }
        out.push_str("}}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_need_ten_samples_beyond() {
        let samples: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&samples, 0.99), Some((990.0, 10)));
        assert_eq!(percentile(&samples[..999], 0.99), None);
        assert_eq!(percentile(&samples[..100], 0.90), Some((90.0, 10)));
        assert_eq!(median(&[3.0, 1.0, 2.0, 4.0]), 2.5);
    }

    #[test]
    fn result_line_is_one_json_object() {
        let mut metrics = Metrics::default();
        metrics.put("wall_s", 1.5, "s");
        metrics.put("coverage", f64::NAN, "frac");
        let outcome = Outcome {
            attempted: 3,
            failed: 0,
            metrics,
        };
        assert_eq!(
            outcome.json(),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {\
             \"wall_s\": {\"value\": 1.5, \"unit\": \"s\"}, \
             \"coverage\": {\"value\": 0.0, \"unit\": \"frac\"}}}"
        );
    }
}
