//! The benchmark's metric tables — the one place names, units, directions
//! and bounds are written down in code. `BENCHMARK.json` at the repo root
//! repeats them for the driver; a unit test keeps the two in step.

use crate::stats::Better::{self, Higher, Lower};

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen.
    pub bound: f64,
    pub what: &'static str,
}

pub const END_TO_END: &[EndToEnd] = &[
    EndToEnd { name: "setup_s", unit: "s", better: Lower, bound: 0.25,
        what: "process start to first measured round: generate, open, serve, load over HTTP, checkpoint, recover, warm up; best child" },
    EndToEnd { name: "point_ops_per_s", unit: "1/s", better: Higher, bound: 0.25,
        what: "point queries answered per second of time spent in point batches, best round" },
    EndToEnd { name: "premise_ops_per_s", unit: "1/s", better: Higher, bound: 0.25,
        what: "cold-overlay premise queries per second, best round" },
    EndToEnd { name: "scan_triples_per_s", unit: "1/s", better: Higher, bound: 0.25,
        what: "answer triples delivered per second of time spent in scans, best round" },
    EndToEnd { name: "wal_bytes_per_write", unit: "B", better: Lower, bound: 0.01,
        what: "WAL growth over the measured rounds / acknowledged writes" },
    EndToEnd { name: "ingest_triples_per_s", unit: "1/s", better: Higher, bound: 0.25,
        what: "asserted triples / best load: per batch position, the best child's time" },
    EndToEnd { name: "checkpoint_s", unit: "s", better: Lower, bound: 0.25,
        what: "ServerHandle::shutdown() of an idle server incl. the read-back-verified snapshot rotation, best of all restarts" },
    EndToEnd { name: "recovery_s", unit: "s", better: Lower, bound: 0.25,
        what: "SemanticWebDatabase::open on the checkpointed directory, best of all restarts" },
    EndToEnd { name: "disk_bytes_per_triple", unit: "B", better: Lower, bound: 0.01,
        what: "data-directory bytes after the first checkpoint / asserted triples" },
    EndToEnd { name: "peak_rss_mb", unit: "MiB", better: Lower, bound: 0.05,
        what: "VmHWM after load and first checkpoint, before the process reopens anything; median child" },
];

pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// The end-to-end metric (and workload) this layer metric should move.
    pub moves: &'static str,
}

impl PerLayer {
    /// The crate the metric belongs to: the part of its name before the dot.
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().expect("split yields one item")
    }
}

const fn pl(
    name: &'static str,
    unit: &'static str,
    better: Better,
    moves: &'static str,
) -> PerLayer {
    PerLayer {
        name,
        unit,
        better,
        moves,
    }
}

const INGEST: &str = "ingest_triples_per_s on bulk_load_200k; setup_s everywhere";
const PUBLISH: &str =
    "the write rate of mixed_durable_100k (not gated); ingest_triples_per_s on bulk_load_200k";
const WRITE: &str = "the write rate of mixed_durable_100k (reported, not gated: see README)";
const WAL: &str = "wal_bytes_per_write and the write rate (not gated) on mixed_durable_100k";
const POINT: &str = "point_ops_per_s on point_reads_100k";
const SCAN: &str = "scan_triples_per_s on scan_reads_100k";
const PREMISE: &str = "premise_ops_per_s on point_reads_100k";
const CKPT: &str = "checkpoint_s, disk_bytes_per_triple on bulk_load_200k";
const RECOVERY: &str = "recovery_s on bulk_load_200k";
const INFO: &str = "none (context for reading the others)";

pub const PER_LAYER: &[PerLayer] = &[
    pl("store.parse_us_per_triple", "us", Lower, INGEST),
    pl("core.bulk_insert_first_us_per_triple", "us", Lower, INGEST),
    pl("core.bulk_insert_last_us_per_triple", "us", Lower, INGEST),
    pl("reason.bulk_closure_us_per_triple", "us", Lower, INGEST),
    pl("normal.cold_core_us_per_triple", "us", Lower, INGEST),
    pl(
        "reason.closure_triples_per_asserted",
        "ratio",
        Lower,
        INGEST,
    ),
    pl("normal.eval_triples_per_closure", "ratio", Lower, INGEST),
    pl("core.publish_us", "us", Lower, PUBLISH),
    pl("reason.insert_delta_us", "us", Lower, WRITE),
    pl("reason.remove_delta_us", "us", Lower, WRITE),
    pl("normal.refresh_us", "us", Lower, WRITE),
    pl("core.insert_graph_us", "us", Lower, WRITE),
    pl("core.remove_us", "us", Lower, WRITE),
    pl("core.self_write_us", "us", Lower, WRITE),
    pl("durable.wal_append_us", "us", Lower, WAL),
    pl("durable.fsync_us", "us", Lower, WAL),
    pl("durable.wal_tax_us", "us", Lower, WAL),
    pl("durable.wal_bytes_per_record", "B", Lower, WAL),
    pl("server.overhead_write_us", "us", Lower, WRITE),
    pl("server.service_write_us", "us", Lower, WRITE),
    pl("query.parse_us", "us", Lower, POINT),
    pl("core.pin_us", "us", Lower, POINT),
    pl("query.plan_hit_us", "us", Lower, POINT),
    pl(
        "query.plan_miss_us",
        "us",
        Lower,
        "point_ops_per_s on mixed_durable_100k (first read of a shape after each publish)",
    ),
    pl("query.exec_point_us", "us", Lower, POINT),
    pl("store.index_probe_us", "us", Lower, POINT),
    pl("core.answer_point_us", "us", Lower, POINT),
    pl("store.serialize_point_us", "us", Lower, POINT),
    pl("query.probes_per_answer", "ratio", Lower, POINT),
    pl("query.bindings_per_answer", "ratio", Lower, POINT),
    pl("obs.plan_cache_hits", "count", Higher, POINT),
    pl("obs.plan_cache_misses", "count", Lower, POINT),
    pl("server.overhead_point_us", "us", Lower, POINT),
    pl("server.service_point_us", "us", Lower, POINT),
    pl("server.response_bytes_per_op", "B", Lower, POINT),
    pl("query.exec_scan_us_per_triple", "us", Lower, SCAN),
    pl("core.answer_scan_us_per_triple", "us", Lower, SCAN),
    pl("core.assemble_us_per_triple", "us", Lower, SCAN),
    pl("store.serialize_us_per_triple", "us", Lower, SCAN),
    pl("server.overhead_scan_us", "us", Lower, SCAN),
    pl("server.service_scan_us", "us", Lower, SCAN),
    pl("core.premise_cold_us", "us", Lower, PREMISE),
    pl("core.premise_warm_us", "us", Lower, PREMISE),
    pl("normal.overlay_core_us", "us", Lower, PREMISE),
    pl("reason.preview_us", "us", Lower, PREMISE),
    pl("durable.snapshot_write_s", "s", Lower, CKPT),
    pl("durable.snapshot_bytes_per_triple", "B", Lower, CKPT),
    pl("durable.snapshot_load_s", "s", Lower, RECOVERY),
    pl("durable.replay_us_per_record", "us", Lower, RECOVERY),
    pl("server.rtt_depth1_p50_us", "us", Lower, INFO),
    pl("server.rtt_depth1_p99_us", "us", Lower, INFO),
    pl("server.rtt_depth1_samples", "count", Higher, INFO),
    pl("obs.counters_overhead_share", "ratio", Lower, INFO),
];

pub fn end_to_end(name: &str) -> &'static EndToEnd {
    END_TO_END
        .iter()
        .find(|m| m.name == name)
        .unwrap_or_else(|| panic!("unknown end-to-end metric {name}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `"key": "value"` pairs of a flat JSON object literal, good enough
    /// for the hand-written `BENCHMARK.json`.
    fn field<'a>(object: &'a str, key: &str) -> Option<&'a str> {
        let at = object.find(&format!("\"{key}\""))?;
        let rest = object[at..].split_once(':')?.1.trim_start();
        let rest = rest.strip_prefix('"').unwrap_or(rest);
        Some(rest[..rest.find(['"', ',', '}'])?].trim())
    }

    fn objects<'a>(json: &'a str, section: &str) -> Vec<&'a str> {
        let at = json
            .find(&format!("\"{section}\""))
            .expect("section present");
        let body = &json[at..];
        let body = &body[body.find('[').unwrap()..=body.find(']').unwrap()];
        body.split('{').skip(1).collect()
    }

    #[test]
    fn benchmark_json_lists_exactly_these_metrics_and_workloads() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        let e2e = objects(&json, "end_to_end");
        assert_eq!(e2e.len(), END_TO_END.len());
        for (object, m) in e2e.iter().zip(END_TO_END) {
            assert_eq!(field(object, "name"), Some(m.name));
            assert_eq!(field(object, "unit"), Some(m.unit));
            assert_eq!(field(object, "better"), Some(m.better.name()));
            let bound: f64 = field(object, "bound").unwrap().parse().unwrap();
            assert_eq!(bound, m.bound, "{}", m.name);
            assert!(bound <= 0.25);
        }
        let layers = objects(&json, "per_layer");
        assert_eq!(layers.len(), PER_LAYER.len());
        for (object, m) in layers.iter().zip(PER_LAYER) {
            assert_eq!(field(object, "name"), Some(m.name));
            assert_eq!(field(object, "unit"), Some(m.unit));
            assert_eq!(field(object, "better"), Some(m.better.name()));
        }
        let workloads = objects(&json, "workloads");
        let names: Vec<_> = workloads.iter().filter_map(|o| field(o, "name")).collect();
        let ours: Vec<_> = crate::workload::WORKLOADS.iter().map(|w| w.name).collect();
        assert_eq!(names, ours);
    }

    #[test]
    fn names_are_unique_and_well_formed() {
        let mut names: Vec<&str> = END_TO_END.iter().map(|m| m.name).collect();
        names.extend(PER_LAYER.iter().map(|m| m.name));
        assert!(names.iter().all(|n| n.len() <= 64
            && n.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))));
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total);
        assert!(PER_LAYER.len() <= 128);
        assert!(END_TO_END
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s"));
    }
}
