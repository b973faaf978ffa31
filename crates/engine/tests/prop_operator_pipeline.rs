//! Differential property tests for the operator pipeline (PR 3).
//!
//! The executor now runs a physical operator tree (`SemiJoinNarrow →
//! PatternScan` per pattern, `TemporalJoin`, `Project`/`Aggregate`) and the
//! multi-way join can partition its tuple frontier across the shared scan
//! executor. Three invariants:
//!
//! * the **parallel join** returns tables byte-identical (rows AND order,
//!   truncation flag included) to the serial join, at any thread count and
//!   partition count — including when `max_intermediate` truncates the
//!   frontier;
//! * the **operator pipeline** returns tables byte-identical to the seed's
//!   materializing pipeline under every flag combination;
//! * the **partition-scoped plan cache** stays correct under concurrent
//!   ingest: results always match a cache-free engine, and ingest into a
//!   partition a cached plan never read does not evict it.

use aiql_engine::{Engine, EngineConfig};
use aiql_lang::parse_query;
use aiql_model::{AgentId, Operation, Timestamp};
use aiql_storage::{EntitySpec, EventStore, RawEvent, StoreConfig};
use proptest::prelude::*;

fn arb_raw() -> impl Strategy<Value = RawEvent> {
    (
        0u32..3,
        prop_oneof![
            Just(Operation::Read),
            Just(Operation::Write),
            Just(Operation::Start),
            Just(Operation::Connect),
        ],
        0u32..4,
        0u32..4,
        0i64..5_000,
        0u64..2_000,
    )
        .prop_map(|(agent, op, subj, obj, secs, amount)| {
            let subject = EntitySpec::process(100 + subj, &format!("exe{subj}.bin"), "user");
            let object = match op {
                Operation::Read | Operation::Write => {
                    // A small file universe makes the joins fan out.
                    EntitySpec::file(&format!("/data/file{obj}"), "user")
                }
                Operation::Start => {
                    EntitySpec::process(200 + obj, &format!("child{obj}.bin"), "user")
                }
                _ => EntitySpec::tcp(
                    aiql_model::IpV4::from_octets(10, 0, 0, 1),
                    40_000,
                    aiql_model::IpV4::from_octets(10, 0, 4, 128 + (obj % 2) as u8),
                    443,
                ),
            };
            RawEvent::instant(
                AgentId(agent),
                op,
                subject,
                object,
                Timestamp::from_secs(secs),
                amount,
            )
        })
}

/// Join-heavy queries: multi-pattern chains over a small entity universe,
/// truncation-sensitive orders, aggregation.
fn query_catalog() -> Vec<&'static str> {
    vec![
        r#"proc p1 write file f as e1
           proc p2 read file f as e2
           with e1 before e2
           return p1, p2, f"#,
        r#"proc p1 write file f as e1
           proc p2 read file f as e2
           proc p2 write file f2 as e3
           proc p3 read file f2 as e4
           with e1 before e2, e2 before e3, e3 before e4
           return p1, p3, f, f2"#,
        r#"proc p1 start proc p2 as e1
           proc p2 write file f as e2
           proc p2 write ip i as e3
           with e1 before e2, e2 before e3
           return p1, p2, f, i"#,
        r#"proc p write file f as e
           return p, count(e.amount) as n, sum(e.amount) as total
           group by p"#,
        r#"proc p1 write file f as e1
           proc p2 read file f as e2
           return distinct p1, p2"#,
    ]
}

fn build_store(raws: &[RawEvent]) -> EventStore {
    let mut store = EventStore::new(StoreConfig {
        time_bucket: aiql_model::Duration::from_mins(10),
        dedup: false,
        ..StoreConfig::default()
    });
    store.ingest_all(raws);
    store
}

/// The serial-join reference engine (operator pipeline, no join fan-out).
fn serial_config() -> EngineConfig {
    EngineConfig {
        parallel_join: false,
        ..EngineConfig::default()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Parallel and serial joins agree byte-for-byte across thread counts
    /// 1/2/8, partition counts, and `max_intermediate` truncation.
    #[test]
    fn parallel_join_matches_serial_exactly(
        raws in proptest::collection::vec(arb_raw(), 1..150),
        threads in prop_oneof![Just(1usize), Just(2), Just(8)],
        partitions in prop_oneof![Just(1usize), Just(2), Just(3), Just(8)],
        max_intermediate in prop_oneof![
            Just(1usize), Just(2), Just(7), Just(100), Just(4_000_000)
        ],
    ) {
        let store = build_store(&raws);
        let serial = Engine::new(EngineConfig {
            max_intermediate,
            ..serial_config()
        });
        let parallel = Engine::new(EngineConfig {
            parallelism: threads,
            parallel_join: true,
            join_partitions: partitions,
            // Private pool of the requested width, so thread counts are
            // what the test says they are.
            shared_scan_pool: false,
            parallel_threshold: 0,
            max_intermediate,
            ..EngineConfig::default()
        });
        for src in query_catalog() {
            let q = parse_query(src).unwrap();
            let want = serial.execute(&store, &q).unwrap();
            let got = parallel.execute(&store, &q).unwrap();
            prop_assert_eq!(
                &want.rows, &got.rows,
                "query {:?} threads {} partitions {} max {}: rows/order differ ({} vs {})",
                src, threads, partitions, max_intermediate,
                want.rows.len(), got.rows.len()
            );
            prop_assert_eq!(
                want.truncated, got.truncated,
                "query {:?} threads {} partitions {} max {}: truncation flag differs",
                src, threads, partitions, max_intermediate
            );
        }
    }

    /// The operator pipeline returns tables byte-identical to the seed's
    /// materializing pipeline under every flag combination of
    /// ⟨late_materialization, parallel_join, scan_pool, shared_scan_pool,
    /// compiled_projection⟩.
    #[test]
    fn operator_pipeline_matches_seed_pipeline(
        raws in proptest::collection::vec(arb_raw(), 0..120),
        flags in 0u32..32,
    ) {
        let late_materialization = flags & 1 != 0;
        let parallel_join = flags & 2 != 0;
        let scan_pool = flags & 4 != 0;
        let shared_scan_pool = flags & 8 != 0;
        let compiled_projection = flags & 16 != 0;

        let store = build_store(&raws);
        let seed = Engine::new(EngineConfig {
            late_materialization: false,
            scan_pool: false,
            parallel_join: false,
            ..EngineConfig::default()
        });
        let variant = Engine::new(EngineConfig {
            late_materialization,
            parallel_join,
            scan_pool,
            shared_scan_pool,
            compiled_projection,
            join_partitions: 3,
            parallelism: 4,
            parallel_threshold: 0,
            ..EngineConfig::default()
        });
        for src in query_catalog() {
            let q = parse_query(src).unwrap();
            let want = seed.execute(&store, &q).unwrap();
            let got = variant.execute(&store, &q).unwrap();
            prop_assert_eq!(
                &want.rows, &got.rows,
                "query {:?} flags {:05b}: rows/order differ ({} vs {})",
                src, flags, want.rows.len(), got.rows.len()
            );
            prop_assert_eq!(want.truncated, got.truncated);
        }
    }

    /// The probe-reduction layers (PR 8) return tables byte-identical to
    /// the layers-off serial join across the whole flag cube: time-bucket
    /// × sideways-filter × serial/parallel drive × truncating
    /// `max_intermediate`. Bounded `before[...]` relations make
    /// the bucket ranges finite on both sides.
    #[test]
    fn probe_layers_match_layers_off_exactly(
        raws in proptest::collection::vec(arb_raw(), 1..150),
        flags in 0u32..8,
        max_intermediate in prop_oneof![
            Just(1usize), Just(2), Just(7), Just(100), Just(4_000_000)
        ],
    ) {
        let time_bucket_join = flags & 1 != 0;
        let sideways_filters = flags & 2 != 0;
        let parallel_join = flags & 4 != 0;
        let store = build_store(&raws);
        let reference = Engine::new(EngineConfig {
            max_intermediate,
            time_bucket_join: false,
            sideways_filters: false,
            ..serial_config()
        });
        let variant = Engine::new(EngineConfig {
            max_intermediate,
            time_bucket_join,
            sideways_filters,
            parallel_join,
            join_partitions: 3,
            parallelism: 4,
            shared_scan_pool: false,
            parallel_threshold: 0,
            ..EngineConfig::default()
        });
        let mut catalog = query_catalog();
        catalog.push(
            r#"proc p1 write file f as e1
               proc p2 read file f as e2
               proc p2 write file f2 as e3
               with e1 before[10 min] e2, e2 before[30 min] e3
               return p1, p2, f, f2"#,
        );
        catalog.push(
            r#"proc p1 write file f as e1
               proc p2 read file f as e2
               with e2 after[20 min] e1
               return p1, p2, f"#,
        );
        for src in catalog {
            let q = parse_query(src).unwrap();
            let want = reference.execute(&store, &q).unwrap();
            let got = variant.execute(&store, &q).unwrap();
            prop_assert_eq!(
                &want.rows, &got.rows,
                "query {:?} flags {:03b} max {}: rows/order differ ({} vs {})",
                src, flags, max_intermediate, want.rows.len(), got.rows.len()
            );
            prop_assert_eq!(
                want.truncated, got.truncated,
                "query {:?} flags {:03b} max {}: truncation flag differs",
                src, flags, max_intermediate
            );
        }
    }

    /// Plan-cached engines stay correct while the store is mutated between
    /// executions (partition-scoped invalidation must never serve stale
    /// estimates or resolutions).
    #[test]
    fn plan_cache_correct_under_ingest(
        rounds in proptest::collection::vec(
            proptest::collection::vec(arb_raw(), 1..40), 2..5
        ),
    ) {
        let mut store = build_store(&rounds[0]);
        let cached = Engine::new(EngineConfig {
            parallel_threshold: 0,
            ..EngineConfig::default()
        });
        let uncached = Engine::new(EngineConfig {
            plan_cache: false,
            ..EngineConfig::default()
        });
        for round in &rounds[1..] {
            for src in query_catalog() {
                let q = parse_query(src).unwrap();
                let want = uncached.execute(&store, &q).unwrap();
                let got = cached.execute(&store, &q).unwrap();
                prop_assert_eq!(&want.rows, &got.rows, "query {:?}", src);
            }
            store.ingest_all(round);
        }
    }
}

/// Deterministic checks: per-operator statistics are populated, and a
/// plan-cache hit survives ingest into a partition the plan never read.
#[test]
fn run_with_stats_reports_per_operator_timings() {
    let raws: Vec<RawEvent> = (0..3_000)
        .map(|i| {
            RawEvent::instant(
                AgentId(i % 4),
                if i % 3 == 0 {
                    Operation::Write
                } else {
                    Operation::Read
                },
                EntitySpec::process(100 + (i % 5), &format!("exe{}.bin", i % 5), "user"),
                EntitySpec::file(&format!("/data/file{}", i % 7), "user"),
                Timestamp::from_secs(i64::from(i) * 3),
                u64::from(i),
            )
        })
        .collect();
    let store = build_store(&raws);
    let engine = Engine::new(EngineConfig {
        parallelism: 4,
        parallel_threshold: 0,
        join_partitions: 4,
        ..EngineConfig::default()
    });
    let q = parse_query(
        r#"proc p1 write file f as e1
           proc p2 read file f as e2
           with e1 before e2
           return p1, p2, f"#,
    )
    .unwrap();
    let aiql_lang::Query::Multievent(m) = q else {
        panic!()
    };
    let (table, stats) = engine.execute_multievent_with_stats(&store, &m).unwrap();
    assert!(!table.rows.is_empty());

    // One operator chain per pattern + join + projection, in execution
    // order: narrow, scan, narrow, scan, join, project.
    let kinds: Vec<&str> = stats.ops.iter().map(|o| o.kind).collect();
    assert_eq!(
        kinds,
        [
            "SemiJoinNarrow",
            "PatternScan",
            "SemiJoinNarrow",
            "PatternScan",
            "TemporalJoin",
            "Project"
        ]
    );
    for op in &stats.ops {
        assert!(op.nanos > 0, "{} must be timed", op.kind);
        assert!(op.fanout >= 1);
    }
    let scans: Vec<_> = stats
        .ops
        .iter()
        .filter(|o| o.kind == "PatternScan")
        .collect();
    assert!(scans.iter().all(|o| o.rows_out > 0), "scans fetched tuples");
    assert_eq!(
        scans.iter().map(|o| o.rows_out).sum::<usize>(),
        stats.fetched.iter().sum::<usize>(),
        "per-operator and per-pattern fetch counts agree"
    );
    let join = stats.ops.iter().find(|o| o.kind == "TemporalJoin").unwrap();
    assert!(join.rows_in > 0);
    assert_eq!(join.rows_out, stats.tuples);
    assert!(join.fanout > 1, "forced join partitions must be used");
    let project = stats.ops.iter().find(|o| o.kind == "Project").unwrap();
    assert_eq!(project.rows_in, stats.tuples);
    assert_eq!(project.rows_out, table.rows.len());
}

#[test]
fn plan_cache_hit_survives_ingest_into_untouched_partition() {
    // Day-0 store; the query reads only day 0.
    let day = 86_400i64;
    let mk = |secs: i64| {
        RawEvent::instant(
            AgentId(1),
            Operation::Write,
            EntitySpec::process(1, "sqlservr.exe", "mssql"),
            EntitySpec::file("/data/f0", "mssql"),
            Timestamp::from_secs(secs),
            100,
        )
    };
    let mut store = EventStore::default();
    store.ingest_all(&(0..50).map(|i| mk(i * 60)).collect::<Vec<_>>());
    let engine = Engine::new(EngineConfig::default());
    let src = r#"(at "01/01/1970") proc p["%sqlservr.exe"] write file f as e return p, f"#;
    let q = parse_query(src).unwrap();

    let first = engine.execute(&store, &q).unwrap();
    let (h0, m0) = engine.plan_cache_counters();
    assert!(m0 > 0, "first execution must populate the cache");
    engine.execute(&store, &q).unwrap();
    let (h1, m1) = engine.plan_cache_counters();
    assert!(h1 > h0, "repeat execution must hit");
    assert_eq!(m1, m0);

    // Ingest two days later with already-interned entities: new partition,
    // unchanged dictionary, day-0 buckets untouched.
    store.ingest_all(&[mk(2 * day)]);
    let after = engine.execute(&store, &q).unwrap();
    let (h2, m2) = engine.plan_cache_counters();
    assert!(
        h2 > h1,
        "cached plan must survive ingest into an untouched partition"
    );
    assert_eq!(m2, m1, "no cache entry may be recomputed");
    assert_eq!(after.rows, first.rows, "day-0 results unchanged");

    // Ingest into day 0: the cached estimate must now be recomputed and
    // the new event must show up.
    store.ingest_all(&[mk(30)]);
    let touched = engine.execute(&store, &q).unwrap();
    let (_, m3) = engine.plan_cache_counters();
    assert!(m3 > m2, "ingest into a read partition must recompute");
    assert_eq!(touched.rows.len(), first.rows.len() + 1);
}

/// Time-bucket pruning is purely an acceleration: on clustered ("bursty")
/// data with bounded temporal relations it must skip whole bucket ranges
/// (visible in the join's operator stats) while never dropping a tuple the
/// exact `temporal_ok_refs` check would admit.
#[test]
fn time_bucket_pruning_drops_no_admissible_tuple() {
    // Six bursts of activity far apart in time on one host and one file;
    // within a burst events are seconds apart, so a `before[10 min]`
    // bound admits only same-burst pairs. Single-host ingest keeps
    // candidate lists in time order, so posting chunks cover disjoint
    // bursts and the bucket grid can skip the other bursts' chunks.
    let raws: Vec<RawEvent> = (0..360)
        .map(|i| {
            let burst = i / 60;
            let base = i64::from(burst) * 100_000;
            RawEvent::instant(
                AgentId(0),
                if i % 2 == 0 {
                    Operation::Write
                } else {
                    Operation::Read
                },
                EntitySpec::process(100 + (i % 5), &format!("exe{}.bin", i % 5), "user"),
                EntitySpec::file("/data/file0", "user"),
                Timestamp::from_secs(base + i64::from(i % 60) * 7),
                u64::from(i),
            )
        })
        .collect();
    let store = build_store(&raws);
    let q = parse_query(
        r#"proc p1 write file f as e1
           proc p2 read file f as e2
           proc p2 write file f2 as e3
           with e1 before[10 min] e2, e2 before[10 min] e3
           return p1, p2, f, f2"#,
    )
    .unwrap();
    let aiql_lang::Query::Multievent(m) = q else {
        panic!()
    };

    let timed = Engine::new(serial_config());
    let untimed = Engine::new(EngineConfig {
        time_bucket_join: false,
        ..serial_config()
    });
    let (rows_timed, stats) = timed.execute_multievent_with_stats(&store, &m).unwrap();
    let (rows_untimed, _) = untimed.execute_multievent_with_stats(&store, &m).unwrap();
    assert!(!rows_timed.rows.is_empty(), "query must match something");
    assert_eq!(
        rows_timed.rows, rows_untimed.rows,
        "bucket pruning must not change results"
    );

    let join = stats.ops.iter().find(|o| o.kind == "TemporalJoin").unwrap();
    assert!(
        join.bucket_skipped > 0,
        "bursty data with bounded relations must skip bucket ranges"
    );
    assert!(
        join.join_steps.iter().any(|s| s.buckets > 1),
        "a bounded step must build a multi-bucket index"
    );
    assert!(join.probe_hits > 0, "joined rows imply probe hits");
}
