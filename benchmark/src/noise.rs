//! `noise <workload> --runs N`: N fresh-process runs of this build, each
//! with its own seed, and what they say about each end-to-end metric — the
//! quartiles, the interquartile spread as a share of the median (the
//! acceptance rule's statistic), and how far the medians of the first and
//! second half of the runs disagree. Bounds are set from this output.

use std::fmt::Write as _;
use std::io;
use std::process::{Command, Stdio};

use crate::host;
use crate::metrics::END_TO_END;
use crate::stats::{median, py_quartiles, relative_spread, worsening};
use crate::workload::Workload;

/// Reads `"name": {"value": X` out of a result line.
pub fn metric_value(line: &str, name: &str) -> Option<f64> {
    let rest = line.split_once(&format!("\"{name}\": {{\"value\": "))?.1;
    rest[..rest.find([',', '}'])?].trim().parse().ok()
}

fn one_run(w: &Workload, seed: u64, seconds: f64, smoke: bool) -> io::Result<String> {
    let mut cmd = Command::new(std::env::current_exe()?);
    cmd.args([
        "run",
        w.name,
        "--seed",
        &seed.to_string(),
        "--seconds",
        &seconds.to_string(),
    ]);
    if smoke {
        cmd.arg("--smoke");
    }
    let out = cmd.stdin(Stdio::null()).stderr(Stdio::null()).output()?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let line = stdout.lines().last().unwrap_or("").to_string();
    if !out.status.success() || !line.contains("\"correct\": true") {
        let why = format!("run with seed {seed} failed ({}): {line}", out.status);
        return Err(io::Error::other(why));
    }
    Ok(line)
}

/// Returns whether every metric's spread stayed within a third of its bound
/// and every half-vs-half disagreement within half of it.
pub fn noise(w: &Workload, runs: usize, seed: u64, seconds: f64, smoke: bool) -> io::Result<bool> {
    if runs < 4 {
        let why = "noise needs --runs of at least 4 (two per half)";
        return Err(io::Error::new(io::ErrorKind::InvalidInput, why));
    }
    let mut lines = Vec::new();
    for i in 0..runs {
        let t = std::time::Instant::now();
        lines.push(one_run(w, seed + i as u64, seconds, smoke)?);
        eprintln!(
            "noise {}: run {}/{runs} took {:.1} s",
            w.name,
            i + 1,
            t.elapsed().as_secs_f64()
        );
    }
    eprintln!(
        "\n{:<24} {:>12} {:>12} {:>12} {:>8} {:>8} {:>7}",
        "metric", "q1", "median", "q3", "spread", "halves", "bound"
    );
    let mut steady = true;
    let mut rows = String::new();
    for m in END_TO_END {
        let values: Vec<f64> = lines
            .iter()
            .map(|l| metric_value(l, m.name).expect("a correct run reports every metric"))
            .collect();
        let [q1, q2, q3] = py_quartiles(&values);
        let spread = relative_spread(&values);
        let (first, second) = values.split_at(runs / 2);
        let halves = worsening(median(first), median(second), m.better);
        // setup_s is only held to the second rule by the driver.
        let ok = (m.name == "setup_s" || spread <= m.bound / 3.0) && halves.abs() <= m.bound / 2.0;
        steady &= ok;
        eprintln!(
            "{:<24} {q1:>12.4} {q2:>12.4} {q3:>12.4} {:>7.2}% {:>+7.2}% {:>6.1}%{}",
            m.name,
            spread * 100.0,
            halves * 100.0,
            m.bound * 100.0,
            if ok {
                ""
            } else {
                "  <-- too noisy for this bound"
            }
        );
        let _ = write!(
            rows,
            "{}    \"{}\": {{\"values\": {values:?}, \"q1\": {q1}, \"median\": {q2}, \"q3\": {q3}, \
             \"relative_spread\": {spread}, \"second_half_worse_by\": {halves}, \"bound\": {}}}",
            if rows.is_empty() { "" } else { ",\n" },
            m.name,
            m.bound
        );
    }
    let doc = format!(
        "{{\n  \"workload\": \"{}\",\n  \"runs\": {runs},\n  \"first_seed\": {seed},\n  \
         \"seconds\": {seconds},\n  \"steady\": {steady},\n  \"metrics\": {{\n{rows}\n  }}\n}}\n",
        w.name
    );
    std::fs::write(host::out_dir()?.join(format!("noise-{}.json", w.name)), doc)?;
    Ok(steady)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reads_values_out_of_a_result_line() {
        let line = crate::run::result_line(
            true,
            5,
            0,
            [("setup_s", 1.25, "s"), ("point_ops_per_s", 31234.5, "1/s")].into_iter(),
        );
        assert_eq!(metric_value(&line, "setup_s"), Some(1.25));
        assert_eq!(metric_value(&line, "point_ops_per_s"), Some(31234.5));
        assert_eq!(metric_value(&line, "recovery_s"), None);
    }
}
