//! The untraced run: a few children one after the other (see
//! [`crate::lifecycle`]), aggregated by the best-round rule, reported three
//! ways — the driver's result line on stdout, a table on stderr, and every
//! detail in `benchmark/out/run-<workload>.json`.

use std::fmt::Write as _;
use std::io;
use std::process::{Command, Stdio};

use crate::host;
use crate::lifecycle::ChildReport;
use crate::metrics::{self, END_TO_END};
use crate::stats::{median, summarize, Better, Summary};
use crate::workload::{Op, Workload, OPS};

pub const SMOKE_ROUNDS: usize = 5;

pub struct RunOptions {
    pub workload: Workload,
    pub seed: u64,
    /// Seconds the children together may spend before their rounds end.
    pub seconds: f64,
    pub smoke: bool,
}

/// One reported end-to-end metric: the gated value and, for per-round
/// metrics, the across-round statistics printed beside it.
pub struct Value {
    pub name: &'static str,
    pub value: f64,
    pub rounds: Option<Summary>,
}

pub struct RunResult {
    pub workload: Workload,
    pub seed: u64,
    pub values: Vec<Value>,
    /// Acknowledged `/ingest` + `/remove` per second of time spent in
    /// writes, per round. Reported, not gated: `publish()` makes a write so
    /// memory-bound that the host's hour-to-hour changes move it by more
    /// than any bound the driver allows (see the README).
    pub write_ops_per_s: Summary,
    pub attempted: u64,
    pub failed: u64,
    pub reports: Vec<ChildReport>,
}

impl RunResult {
    pub fn correct(&self) -> bool {
        self.failed == 0
    }

    pub fn value(&self, name: &str) -> f64 {
        self.values
            .iter()
            .find(|v| v.name == name)
            .unwrap_or_else(|| panic!("no value for {name}"))
            .value
    }
}

fn spawn_child(o: &RunOptions, until_s: f64, min_rounds: usize) -> io::Result<ChildReport> {
    let mut cmd = Command::new(std::env::current_exe()?);
    cmd.args(["child", o.workload.name])
        .args(["--seed", &o.seed.to_string()])
        .args(["--until-s", &until_s.to_string()])
        .args(["--min-rounds", &min_rounds.to_string()]);
    if o.smoke {
        cmd.arg("--smoke");
    }
    // `output()` waits for the child to end: one child at a time.
    let out = cmd.stdin(Stdio::null()).stderr(Stdio::inherit()).output()?;
    let fail = |why: String| io::Error::other(why);
    if !out.status.success() {
        return Err(fail(format!(
            "child of {} ended with {}",
            o.workload.name, out.status
        )));
    }
    ChildReport::parse(&String::from_utf8_lossy(&out.stdout)).map_err(fail)
}

/// Ops (or triples, for scans) per second of one round's op type.
fn round_rate(round: &crate::workload::RoundSample, op: Op) -> f64 {
    let s = &round[op as usize];
    let work = if op == Op::Scan { s.triples } else { s.ops };
    work as f64 / (s.nanos as f64 / 1e9)
}

pub fn aggregate(workload: Workload, seed: u64, reports: Vec<ChildReport>) -> RunResult {
    let each = |f: &dyn Fn(&ChildReport) -> f64| -> Vec<f64> { reports.iter().map(f).collect() };
    let best = |values: &[f64], better| summarize(values, better).best;
    let rounds: Vec<_> = reports.iter().flat_map(|r| &r.rounds).collect();
    let rate = |op: Op| {
        let per_round: Vec<f64> = rounds.iter().map(|r| round_rate(r, op)).collect();
        summarize(&per_round, Better::Higher)
    };
    let total = |f: &dyn Fn(&ChildReport) -> u64| reports.iter().map(f).sum::<u64>() as f64;
    let all = |f: &dyn Fn(&ChildReport) -> &Vec<f64>| -> Vec<f64> {
        reports.iter().flat_map(|r| f(r).clone()).collect()
    };
    // Load batch i costs more than batch i − 1 (the store has grown), so
    // batches compare across children, not with each other: the best load
    // is the sum over positions of the best child's time at that position.
    let batches = reports
        .iter()
        .map(|r| r.load_batch_s.len())
        .min()
        .unwrap_or(0);
    let best_load_s: f64 = (0..batches)
        .map(|i| best(&each(&|r| r.load_batch_s[i]), Better::Lower))
        .sum();

    let best_round = |s: Summary| (s.best, Some(s));

    let values = END_TO_END
        .iter()
        .map(|m| {
            let (value, rounds) = match m.name {
                "setup_s" => (best(&each(&|r| r.setup_s), Better::Lower), None),
                "point_ops_per_s" => best_round(rate(Op::Point)),
                "premise_ops_per_s" => best_round(rate(Op::Premise)),
                "scan_triples_per_s" => best_round(rate(Op::Scan)),
                "wal_bytes_per_write" => (total(&|r| r.wal_bytes) / total(&|r| r.writes), None),
                "ingest_triples_per_s" => (reports[0].asserted as f64 / best_load_s, None),
                "checkpoint_s" => best_round(summarize(&all(&|r| &r.checkpoint_s), Better::Lower)),
                "recovery_s" => best_round(summarize(&all(&|r| &r.recovery_s), Better::Lower)),
                "disk_bytes_per_triple" => (
                    median(&each(&|r| r.disk_bytes as f64 / r.asserted as f64)),
                    None,
                ),
                "peak_rss_mb" => (median(&each(&|r| r.peak_rss_mib)), None),
                other => unreachable!("end-to-end metric {other} has no definition"),
            };
            Value {
                name: m.name,
                value,
                rounds,
            }
        })
        .collect();
    RunResult {
        workload,
        seed,
        values,
        write_ops_per_s: rate(Op::Write),
        attempted: reports.iter().map(|r| r.attempted).sum(),
        failed: reports.iter().map(|r| r.failed).sum(),
        reports,
    }
}

pub fn run(o: &RunOptions) -> io::Result<RunResult> {
    let (children, rounds) = if o.smoke {
        (1, SMOKE_ROUNDS)
    } else {
        (o.workload.children, o.workload.rounds)
    };
    let mut reports = Vec::new();
    for _ in 0..children {
        let report = spawn_child(o, o.seconds / children as f64, rounds.div_ceil(children))?;
        for complaint in &report.complaints {
            eprintln!("FAILED CHECK: {complaint}");
        }
        reports.push(report);
    }
    Ok(aggregate(o.workload, o.seed, reports))
}

/// The driver's result line.
pub fn result_line<'a>(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: impl Iterator<Item = (&'a str, f64, &'a str)>,
) -> String {
    let metrics: Vec<String> = metrics
        .map(|(name, value, unit)| {
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \
         \"metrics\": {{{}}}}}",
        metrics.join(", ")
    )
}

pub fn json_string(s: &str) -> String {
    format!("\"{}\"", s.replace('\\', "\\\\").replace('"', "\\\""))
}

/// Host facts every output carries: what the numbers depend on besides
/// the code.
pub fn host_json(seed: u64, threads: u64, scrubbed: &[String]) -> String {
    let text = |v: Option<String>| v.map_or("null".to_string(), |s| json_string(&s));
    let scrubbed: Vec<String> = scrubbed.iter().map(|s| json_string(s)).collect();
    format!(
        "{{\"seed\": {seed}, \"nproc\": {}, \"swdb_threads\": {threads}, \"commit\": {}, \
         \"data_dir_filesystem\": {}, \"flush_policy\": \"one fsync per facade mutation\", \
         \"metrics_level\": \"off\", \"server_workers\": 1, \"client_connections\": 1, \
         \"scrubbed_env\": [{}]}}",
        host::nproc(),
        text(host::commit_id()),
        text(host::out_dir().ok().and_then(|d| host::filesystem_of(&d))),
        scrubbed.join(", ")
    )
}

pub fn report(result: &RunResult, scrubbed: &[String]) -> io::Result<()> {
    let w = &result.workload;
    let rounds: usize = result.reports.iter().map(|r| r.rounds.len()).sum();
    eprintln!(
        "\n{} seed {} — {} children, {} rounds, {} asserted / {} evaluation triples",
        w.name,
        result.seed,
        result.reports.len(),
        rounds,
        result.reports[0].asserted,
        result.reports[0].evaluation_triples,
    );
    eprintln!(
        "{:<24} {:>14} {:<5} {:>14} {:>14}",
        "metric", "value", "unit", "round median", "round p90"
    );
    let mut details = String::new();
    for v in &result.values {
        let m = metrics::end_to_end(v.name);
        let (med, p90) = v.rounds.map_or((String::new(), String::new()), |s| {
            (format!("{:.4}", s.median), format!("{:.4}", s.p90))
        });
        eprintln!(
            "{:<24} {:>14.4} {:<5} {:>14} {:>14}",
            v.name, v.value, m.unit, med, p90
        );
        let stats = v.rounds.map_or(String::new(), |s| {
            format!(
                ", \"round_median\": {}, \"round_p90\": {}, \"rounds\": {}",
                s.median, s.p90, s.samples
            )
        });
        let _ = write!(
            details,
            "{}    {}: {{\"value\": {}, \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}{stats}, \
             \"definition\": {}}}",
            if details.is_empty() { "" } else { ",\n" },
            json_string(v.name), v.value, m.unit, m.better.name(), m.bound, json_string(m.what)
        );
    }
    let w_rate = result.write_ops_per_s;
    eprintln!(
        "{:<24} {:>14.4} {:<5} {:>14.4} {:>14.4}   (reported, not gated)",
        "write_ops_per_s", w_rate.best, "1/s", w_rate.median, w_rate.p90
    );
    for op in OPS {
        let per_round: Vec<f64> = result
            .reports
            .iter()
            .flat_map(|r| &r.rounds)
            .map(|r| r[op as usize].nanos as f64 / 1e6)
            .collect();
        let ops = result.reports[0].rounds[0][op as usize].ops;
        eprintln!(
            "  {:<8} {ops:>5} ops/round, {:>9.3} ms/round (median)",
            op.name(),
            median(&per_round)
        );
    }
    eprintln!(
        "ops_attempted {} ops_failed {}",
        result.attempted, result.failed
    );
    let children: Vec<String> = result
        .reports
        .iter()
        .map(|r| {
            format!(
                "{{\"setup_s\": {}, \"load_batch_s\": {:?}, \"checkpoint_s\": {:?}, \
                 \"recovery_s\": {:?}, \"peak_rss_mib\": {}, \"rounds\": {}}}",
                r.setup_s,
                r.load_batch_s,
                r.checkpoint_s,
                r.recovery_s,
                r.peak_rss_mib,
                r.rounds.len()
            )
        })
        .collect();
    let doc = format!(
        "{{\n  \"workload\": {},\n  \"why\": {},\n  \"host\": {},\n  \"ops_attempted\": {},\n  \
         \"ops_failed\": {},\n  \"metrics\": {{\n{details}\n  }},\n  \
         \"not_gated\": {{\"write_ops_per_s\": {{\"value\": {}, \"unit\": \"1/s\", \"round_median\": {}, \
         \"round_p90\": {}}}}},\n  \"children\": [{}]\n}}\n",
        json_string(w.name),
        json_string(w.why),
        host_json(result.seed, result.reports[0].threads, scrubbed),
        result.attempted,
        result.failed,
        w_rate.best,
        w_rate.median,
        w_rate.p90,
        children.join(", ")
    );
    std::fs::write(host::out_dir()?.join(format!("run-{}.json", w.name)), doc)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::{RoundSample, Sample, WORKLOADS};

    fn round(point_ns: u64) -> RoundSample {
        let mut r = RoundSample::default();
        for s in r.iter_mut() {
            *s = Sample {
                ops: 10,
                triples: 100,
                nanos: 1_000_000_000,
                bytes: 0,
            };
        }
        r[Op::Point as usize].nanos = point_ns;
        r
    }

    #[test]
    fn best_round_across_children_and_median_child() {
        let child = |setup_s, load_s: f64, point_ns| ChildReport {
            setup_s,
            load_batch_s: vec![load_s / 4.0, 2.0 - load_s / 4.0],
            asserted: 1000,
            checkpoint_s: vec![load_s / 10.0, 9.0],
            recovery_s: vec![load_s / 5.0, load_s / 4.0],
            disk_bytes: 55_000,
            peak_rss_mib: setup_s * 100.0,
            wal_bytes: 2000,
            writes: 20,
            attempted: 7,
            rounds: vec![round(2_000_000_000), round(point_ns)],
            ..ChildReport::default()
        };
        let r = aggregate(
            WORKLOADS[0],
            42,
            vec![
                child(3.0, 2.0, 500_000_000),
                child(1.0, 1.0, 250_000_000),
                child(2.0, 4.0, 1_000_000_000),
            ],
        );
        assert_eq!(r.value("setup_s"), 1.0);
        assert_eq!(r.value("peak_rss_mb"), 200.0);
        assert_eq!(r.value("point_ops_per_s"), 40.0); // 10 ops in 0.25 s
        assert_eq!(r.value("scan_triples_per_s"), 100.0); // triples, not ops
        assert_eq!(r.write_ops_per_s.best, 10.0);
        // Best first batch 0.25 s (child 2), best second batch 1.0 s (child 3).
        assert_eq!(r.value("ingest_triples_per_s"), 800.0);
        assert_eq!(r.value("checkpoint_s"), 0.1);
        assert_eq!(r.value("recovery_s"), 0.2);
        assert_eq!(r.value("wal_bytes_per_write"), 100.0);
        assert_eq!(r.value("disk_bytes_per_triple"), 55.0);
        assert_eq!((r.attempted, r.failed), (21, 0));
        let rounds = r.values[1].rounds.unwrap();
        assert_eq!(rounds.samples, 6);
        assert_eq!(rounds.median, 7.5); // rates 5,5,5,10,20,40
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let line = result_line(true, 10, 0, [("setup_s", 1.5, "s")].into_iter());
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": \
             {\"setup_s\": {\"value\": 1.5, \"unit\": \"s\"}}}"
        );
    }
}
