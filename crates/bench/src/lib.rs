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

/// Schema version of the `BENCH_*.json` reports. Every emitter writes it as
/// the first field (via [`json_prologue`]); bump it when the shared shape —
/// not an individual experiment's rows — changes. Version 1 adds
/// `schema_version` itself and the embedded `metrics` snapshot block.
pub const BENCH_SCHEMA_VERSION: u32 = 1;

/// The commit the measured binary was built from, as `git describe` names
/// it (`-dirty` when the work tree differs from it); `unknown` outside a
/// git checkout.
fn commit_id() -> String {
    std::process::Command::new("git")
        .args(["describe", "--always", "--dirty", "--abbrev=12"])
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .map_or_else(|| "unknown".to_owned(), |id| id.trim().to_owned())
}

/// Opens a `BENCH_*.json` report with the shared fields every emitter
/// carries: the opening brace, `schema_version`, the experiment name, and
/// the commit the numbers were recorded at.
pub fn json_prologue(experiment: &str) -> String {
    format!(
        "{{\n  \"schema_version\": {BENCH_SCHEMA_VERSION},\n  \"experiment\": \"{experiment}\",\n  \"commit\": \"{}\",\n",
        commit_id()
    )
}

/// Renders a `"metrics": <snapshot>` member from the JSON of an
/// [`swdb_obs::MetricsSnapshot`], reindented one level so it nests inside
/// the report object. The caller appends its own `,` or newline.
pub fn metrics_block(snapshot_json: &str) -> String {
    let mut out = String::from("  \"metrics\": ");
    for (i, line) in snapshot_json.lines().enumerate() {
        if i > 0 {
            out.push_str("\n  ");
        }
        out.push_str(line);
    }
    out
}

#[cfg(test)]
mod tests {
    #[test]
    fn quick_configuration_constructs() {
        let _ = super::quick();
        super::report_row("E00", "smoke", &[("ok", "true".to_owned())]);
    }

    #[test]
    fn json_prologue_carries_the_schema_version() {
        let p = super::json_prologue("e00_smoke");
        assert!(p.starts_with("{\n  \"schema_version\": "));
        assert!(p.contains("\"experiment\": \"e00_smoke\""));
        assert!(p.contains("\n  \"commit\": \""));
    }

    #[test]
    fn metrics_block_reindents_a_snapshot() {
        let m = swdb_obs::Metrics::new(swdb_obs::MetricsLevel::Counters);
        m.count(swdb_obs::Counter::QueryAnswers, 3);
        let block = super::metrics_block(&m.snapshot().to_json());
        assert!(block.starts_with("  \"metrics\": {"));
        assert!(block.contains("\n    \"counters\": {"));
        assert!(block.ends_with("\n  }"));
    }
}
