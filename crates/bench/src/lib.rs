//! Shared configuration and reporting helpers for the experiment benchmarks.
//!
//! Every bench target (`benches/e01_…` onwards) uses [`quick`] so that
//! `cargo bench --workspace` completes in minutes rather than hours while
//! still producing statistically usable medians. Where an experiment is
//! about *sizes* rather than times (e.g. the quadratic closure growth of
//! Theorem 3.6), the bench prints the measured quantities through
//! [`report_row`] so the numbers land in the bench output next to the
//! timings.

use std::time::Duration;

use criterion::Criterion;

/// A Criterion configuration tuned for the experiment harness: small sample
/// counts, short measurement windows, no plots.
pub fn quick() -> Criterion {
    Criterion::default()
        .sample_size(10)
        .warm_up_time(Duration::from_millis(200))
        .measurement_time(Duration::from_millis(600))
        .without_plots()
}

/// Prints one row of an experiment report. The label identifies the
/// experiment and parameter point, the columns are `name=value` pairs.
pub fn report_row(experiment: &str, label: &str, columns: &[(&str, String)]) {
    let cols: Vec<String> = columns.iter().map(|(k, v)| format!("{k}={v}")).collect();
    println!("[{experiment}] {label}: {}", cols.join(", "));
}

#[cfg(test)]
mod tests {
    #[test]
    fn quick_configuration_constructs() {
        let _ = super::quick();
        super::report_row("E00", "smoke", &[("ok", "true".to_owned())]);
    }
}
