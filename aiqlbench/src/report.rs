//! Metric assembly and JSON output (no serde: the benchmark uses std and
//! the repository's crates only).

use std::collections::BTreeMap;
use std::fmt;

use aiql_storage::EventStore;

use crate::layers::{LoadStats, QueryCounters, LOAD_BATCH};
use crate::stats::{self, median, ratio};

/// A JSON value.
#[derive(Debug, Clone)]
pub enum J {
    Null,
    Bool(bool),
    Int(i64),
    Uint(u64),
    Num(f64),
    Str(String),
    Arr(Vec<J>),
    Obj(Vec<(String, J)>),
}

impl J {
    pub fn obj<const N: usize>(fields: [(&str, J); N]) -> J {
        J::Obj(
            fields
                .into_iter()
                .map(|(k, v)| (k.to_string(), v))
                .collect(),
        )
    }

    pub fn str(s: impl Into<String>) -> J {
        J::Str(s.into())
    }
}

fn escape(s: &str, f: &mut fmt::Formatter<'_>) -> fmt::Result {
    f.write_str("\"")?;
    for c in s.chars() {
        match c {
            '"' => f.write_str("\\\"")?,
            '\\' => f.write_str("\\\\")?,
            '\n' => f.write_str("\\n")?,
            c if (c as u32) < 0x20 => write!(f, "\\u{:04x}", c as u32)?,
            c => write!(f, "{c}")?,
        }
    }
    f.write_str("\"")
}

impl fmt::Display for J {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            J::Null => f.write_str("null"),
            J::Bool(b) => write!(f, "{b}"),
            J::Int(i) => write!(f, "{i}"),
            J::Uint(u) => write!(f, "{u}"),
            // Rust prints the shortest representation that round-trips,
            // i.e. every significant digit.
            J::Num(x) if x.is_finite() => write!(f, "{x:?}"),
            J::Num(_) => f.write_str("null"),
            J::Str(s) => escape(s, f),
            J::Arr(items) => {
                f.write_str("[")?;
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        f.write_str(", ")?;
                    }
                    write!(f, "{v}")?;
                }
                f.write_str("]")
            }
            J::Obj(fields) => {
                f.write_str("{")?;
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        f.write_str(", ")?;
                    }
                    escape(k, f)?;
                    write!(f, ": {v}")?;
                }
                f.write_str("}")
            }
        }
    }
}

/// One named measurement.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

pub fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// `{"name": {"value": v, "unit": u}, ...}`
pub fn metrics_json(metrics: &[Metric]) -> J {
    J::Obj(
        metrics
            .iter()
            .map(|m| {
                (
                    m.name.to_string(),
                    J::obj([("value", J::Num(m.value)), ("unit", J::str(m.unit))]),
                )
            })
            .collect(),
    )
}

/// A latency percentile with the sample count behind it, or the reason it
/// is missing.
pub fn percentile_json(samples_ms: &[f64], q: f64) -> J {
    let sorted = stats::sorted(samples_ms.to_vec());
    let n = sorted.len();
    match stats::supported(&sorted, q) {
        Some(v) => J::obj([
            ("value", J::Num(v)),
            ("unit", J::str("ms")),
            ("samples", J::Int(n as i64)),
            ("beyond", J::Int(stats::beyond(n, q) as i64)),
        ]),
        None => J::obj([
            ("value", J::Null),
            ("samples", J::Int(n as i64)),
            (
                "note",
                J::str(format!(
                    "run too short for p{}: {n} samples leave fewer than {} beyond it",
                    q * 100.0,
                    stats::MIN_BEYOND
                )),
            ),
            (
                "highest_supported",
                stats::highest_supported(&sorted).map_or(J::Null, |(hq, v)| {
                    J::obj([("percentile", J::Num(hq * 100.0)), ("value", J::Num(v))])
                }),
            ),
        ]),
    }
}

/// Write-path counters for the per-layer metrics.
#[derive(Debug, Default, Clone)]
pub struct WriteCounters {
    pub events: u64,
    pub batches: u64,
    /// Streaming cycles or bulk loads the counters cover.
    pub runs: u64,
    pub entity_dedup_hits: u64,
    pub dict_epochs: u64,
    pub segments: u64,
    pub max_partition_segments: u64,
    pub reader_stalls: u64,
    pub wal_bytes: u64,
}

/// Whatever the traced run measured; layers a workload does not load stay
/// zero.
#[derive(Debug, Default, Clone)]
pub struct LayerInputs {
    pub self_ns: BTreeMap<&'static str, u64>,
    pub queries: QueryCounters,
    pub writes: WriteCounters,
    pub alloc_bytes_per_query: f64,
    pub alloc_bytes_per_event: f64,
    pub overhead_ratio: f64,
}

/// The anomaly operator's traced figures. They go to the report line, not
/// the result: `hunt` never runs the operator, so its time would read a
/// constant zero there.
pub fn anomaly_json(x: &LayerInputs) -> J {
    let us = *x.self_ns.get("anomaly").unwrap_or(&0) as f64 / 1e3;
    J::obj([
        ("us_per_query", J::Num(ratio(us, x.queries.queries as f64))),
        ("queries", J::Int(x.queries.anomaly_queries as i64)),
    ])
}

/// Every per-layer metric, in `BENCHMARK.json` order.
pub fn per_layer(x: &LayerInputs) -> Vec<Metric> {
    let q = &x.queries;
    let w = &x.writes;
    let ns = |name: &str| *x.self_ns.get(name).unwrap_or(&0) as f64;
    let per_query_us = |name: &str| ratio(ns(name) / 1e3, q.queries as f64);
    let per_batch_us = |name: &str| ratio(ns(name) / 1e3, w.batches as f64);
    let per_query = |v: u64| ratio(v as f64, q.queries as f64);
    let per_run = |v: u64| ratio(v as f64, w.runs as f64);
    vec![
        metric("lang.parse_us", per_query_us("lang.parse"), "us"),
        metric("lang.queries", q.queries as f64, "count"),
        metric("analyze.us", per_query_us("analyze"), "us"),
        metric(
            "schedule.resolve_us",
            per_query_us("schedule.resolve"),
            "us",
        ),
        metric(
            "schedule.exec_self_us",
            per_query_us("schedule.execute"),
            "us",
        ),
        metric(
            "schedule.plan_cache_hit_ratio",
            ratio(q.cache_hits as f64, (q.cache_hits + q.cache_misses) as f64),
            "ratio",
        ),
        metric("scan.us", per_query_us("scan"), "us"),
        metric("scan.rows_in", per_query(q.scan_rows_in), "count"),
        metric("scan.rows_out", per_query(q.scan_rows_out), "count"),
        metric(
            "scan.keep_ratio",
            ratio(q.scan_rows_out as f64, q.scan_rows_in as f64),
            "ratio",
        ),
        metric("join.build_us", per_query_us("join.build"), "us"),
        metric("join.probe_us", per_query_us("join.probe"), "us"),
        metric("join.drive_us", per_query_us("join"), "us"),
        metric("join.probes", per_query(q.join_probes), "count"),
        metric(
            "join.probe_hit_ratio",
            ratio(q.join_probe_hits as f64, q.join_probes as f64),
            "ratio",
        ),
        metric(
            "join.bucket_skipped",
            per_query(q.join_bucket_skipped),
            "count",
        ),
        metric("join.emitted_tuples", per_query(q.join_emitted), "count"),
        metric(
            "join.useful_ratio",
            ratio(q.join_rows_out as f64, q.join_emitted as f64),
            "ratio",
        ),
        metric("project.us", per_query_us("project"), "us"),
        metric("aggregate.us", per_query_us("aggregate"), "us"),
        metric("project.rows_in", per_query(q.project_rows_in), "count"),
        metric("project.rows_out", per_query(q.project_rows_out), "count"),
        metric(
            "ingest.us_per_event",
            ratio(ns("ingest") / 1e3, w.events as f64),
            "us",
        ),
        metric(
            "ingest.dedup_hit_ratio",
            ratio(w.entity_dedup_hits as f64, 2.0 * w.events as f64),
            "ratio",
        ),
        metric("ingest.dict_epochs", per_run(w.dict_epochs), "count"),
        metric("commit.us", per_batch_us("commit"), "us"),
        metric("store.segments", w.segments as f64, "count"),
        metric(
            "store.max_partition_segments",
            w.max_partition_segments as f64,
            "count",
        ),
        metric("publish.us", per_batch_us("store.write"), "us"),
        metric("publish.reader_stalls", per_run(w.reader_stalls), "count"),
        metric("wal.append_us", per_batch_us("wal.append"), "us"),
        metric("wal.commit_us", per_batch_us("wal.commit"), "us"),
        metric(
            "wal.bytes_per_event",
            ratio(w.wal_bytes as f64, w.events as f64),
            "B",
        ),
        metric("alloc.bytes_per_query", x.alloc_bytes_per_query, "B"),
        metric("alloc.bytes_per_event", x.alloc_bytes_per_event, "B"),
        metric("trace.overhead_ratio", x.overhead_ratio, "ratio"),
    ]
}

/// Load-shape counters of freshly loaded stores.
pub fn loaded_writes(stores: &[&EventStore], load: &LoadStats) -> WriteCounters {
    let mut w = WriteCounters {
        events: load.events,
        batches: load.batch_ms.len() as u64,
        runs: stores.len() as u64,
        wal_bytes: load.wal_bytes,
        ..WriteCounters::default()
    };
    for s in stores {
        let st = s.stats();
        w.entity_dedup_hits += st.entity_dedup_hits;
        w.dict_epochs += s.dict_epoch();
        w.segments += st.segments;
        w.max_partition_segments = w.max_partition_segments.max(st.max_partition_segments);
    }
    w
}

/// Throughput and batch latency of the set-up bulk loads.
pub fn load_json(load: &LoadStats) -> J {
    J::obj([
        (
            "ingest_events_per_s",
            J::Num(ratio(load.events as f64, load.seconds)),
        ),
        ("batch_events", J::Int(LOAD_BATCH as i64)),
        ("commit_p50_ms", percentile_json(&load.batch_ms, 0.5)),
    ])
}

/// `setup_s` with every repetition behind the median.
pub fn setup_json(secs: &[f64]) -> J {
    J::obj([
        ("value", J::Num(median(secs))),
        ("unit", J::str("s")),
        ("reps", J::Arr(secs.iter().map(|&s| J::Num(s)).collect())),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_escapes_and_keeps_digits() {
        let j = J::obj([
            ("a", J::Num(1.2034567891234)),
            ("b", J::str("x\"y\\z\n")),
            ("c", J::Arr(vec![J::Int(1), J::Null, J::Bool(true)])),
            ("d", J::Num(f64::NAN)),
        ]);
        assert_eq!(
            j.to_string(),
            r#"{"a": 1.2034567891234, "b": "x\"y\\z\n", "c": [1, null, true], "d": null}"#
        );
    }

    #[test]
    fn per_layer_divides_by_work_done() {
        let mut x = LayerInputs::default();
        x.self_ns.insert("scan", 4_000);
        x.queries.queries = 2;
        x.queries.cache_hits = 3;
        x.queries.cache_misses = 1;
        let m = per_layer(&x);
        let get = |n: &str| m.iter().find(|m| m.name == n).unwrap().value;
        assert_eq!(get("scan.us"), 2.0);
        assert_eq!(get("schedule.plan_cache_hit_ratio"), 0.75);
        assert_eq!(get("wal.append_us"), 0.0);
    }
}
