//! Property tests for the blocked demand-driven join drive, the only
//! drive of the reference (`EventRef`) join.
//!
//! The drive takes the seed frontier in runs and drives each run
//! depth-first through every remaining step (see `op/join.rs` module
//! docs). Its contract, asserted here against randomized stores and
//! one- to four-pattern queries:
//!
//! * **independent references** — uncapped, the drive returns the
//!   brute-force oracle's rows (as a multiset) and the materializing
//!   join's rows in the same order with the same `truncated` flag, across
//!   the ⟨parallel-join, time-bucket, sideways-filter⟩ cube and block
//!   sizes 1 / 7 / 4096;
//! * **emission-order prefix under truncation** — with `max_intermediate`
//!   truncating, the output is a prefix (in nested-loop emission order)
//!   of the untruncated result, and the serial and parallel drives agree
//!   byte-for-byte;
//! * **governed modes** — under a memory budget, error mode either
//!   reproduces the ungoverned result or fails with the structured
//!   `MemoryBudget` error; partial mode always returns an emission-order
//!   prefix of the ungoverned result.

use aiql_engine::reference;
use aiql_engine::{analyze_multievent, Engine, EngineConfig, EngineError, ExecBudget};
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
        ],
        0u32..4,
        0u32..4,
        0i64..5_000,
        0u64..2_000,
    )
        .prop_map(|(agent, op, subj, obj, secs, amount)| {
            let subject = EntitySpec::process(100 + subj, &format!("exe{subj}.bin"), "user");
            let object = match op {
                Operation::Start => {
                    EntitySpec::process(200 + obj, &format!("child{obj}.bin"), "user")
                }
                // A small file universe makes the joins fan out.
                _ => EntitySpec::file(&format!("/data/file{obj}"), "user"),
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

fn build_store(raws: &[RawEvent]) -> EventStore {
    let mut store = EventStore::new(StoreConfig {
        time_bucket: aiql_model::Duration::from_mins(10),
        dedup: false,
        ..StoreConfig::default()
    });
    store.ingest_all(raws);
    store
}

/// Multievent queries spanning seed shapes the drive cares about:
/// unbounded and bounded chains, a branching 3-pattern, one-pattern
/// lookups (flat, distinct, grouped — the seed step is the final step),
/// and aggregates. The flat and distinct ones observe tuple emission order
/// directly in their row order.
fn query_catalog() -> Vec<&'static str> {
    vec![
        r#"proc p write file f as e
           return p, f"#,
        r#"proc p read file f as e
           return distinct p, f"#,
        r#"proc p write file f as e
           return p, count(e.amount) as n
           group by p"#,
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
        r#"proc p1 write file f as e1
           proc p2 read file f as e2
           proc p2 write file f2 as e3
           with e1 before[10 min] e2, e2 before[30 min] e3
           return p1, p2, f, f2"#,
        r#"proc p1 start proc p2 as e1
           proc p2 write file f as e2
           proc p2 write file f2 as e3
           with e1 before e2, e2 before e3
           return p1, p2, f, f2"#,
        r#"proc p1 write file f as e1
           proc p2 read file f as e2
           with e1 before e2
           return p1, count(e2.amount) as n
           group by p1"#,
    ]
}

/// The non-aggregated subset: prefix assertions need rows that follow
/// the emitted join tuples in order (flat rows map 1:1; distinct keeps
/// each row's first occurrence, so a tuple prefix yields a row prefix).
fn prefix_catalog() -> Vec<&'static str> {
    query_catalog()
        .into_iter()
        .filter(|q| !q.contains("count("))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// With no cap tripping, the drive returns the oracle's rows and the
    /// materializing join's rows in order, at every point of the
    /// configuration cube and every block size. Neither reference shares
    /// probe code with the drive.
    #[test]
    fn blocked_drive_matches_reference_and_materializing_join(
        raws in proptest::collection::vec(arb_raw(), 1..150),
        flags in 0u32..8,
        block in prop_oneof![Just(1usize), Just(7), Just(4096)],
    ) {
        let store = build_store(&raws);
        let blocked = Engine::new(EngineConfig {
            parallel_join: flags & 1 != 0,
            time_bucket_join: flags & 2 != 0,
            sideways_filters: flags & 4 != 0,
            join_block_tuples: block,
            join_partitions: 3,
            parallelism: 4,
            shared_scan_pool: false,
            parallel_threshold: 0,
            parallel_join_min_work: 0,
            ..EngineConfig::default()
        });
        let materializing = Engine::new(EngineConfig {
            late_materialization: false,
            ..EngineConfig::default()
        });
        for src in query_catalog() {
            let q = parse_query(src).unwrap();
            let aiql_lang::Query::Multievent(m) = &q else { panic!() };
            let got = blocked.execute(&store, &q).unwrap();
            let oracle = reference::run_reference(&store, &analyze_multievent(m, &store).unwrap())
                .unwrap()
                .normalized();
            prop_assert_eq!(
                &got.clone().normalized().rows, &oracle.rows,
                "query {:?} flags {:03b} block {}: rows differ from the oracle ({} vs {})",
                src, flags, block, got.rows.len(), oracle.rows.len()
            );
            let want = materializing.execute(&store, &q).unwrap();
            prop_assert_eq!(
                &want.rows, &got.rows,
                "query {:?} flags {:03b} block {}: row order differs from the materializing join",
                src, flags, block
            );
            prop_assert_eq!(
                want.truncated, got.truncated,
                "query {:?} flags {:03b} block {}: truncation flag differs",
                src, flags, block
            );
        }
    }

    /// Under a truncating `max_intermediate`, the blocked drive emits a
    /// prefix — in nested-loop emission order — of the untruncated result,
    /// and the serial and parallel blocked drives agree byte-for-byte.
    #[test]
    fn capped_blocked_drive_emits_an_emission_order_prefix(
        raws in proptest::collection::vec(arb_raw(), 1..150),
        cap in prop_oneof![Just(1usize), Just(2), Just(7), Just(100)],
        block in prop_oneof![Just(1usize), Just(7), Just(4096)],
    ) {
        let store = build_store(&raws);
        let blocked = |max_intermediate: usize, parallel: bool| {
            Engine::new(EngineConfig {
                max_intermediate,
                join_block_tuples: block,
                parallel_join: parallel,
                join_partitions: 3,
                parallelism: if parallel { 4 } else { 1 },
                shared_scan_pool: false,
                parallel_threshold: 0,
                parallel_join_min_work: 0,
                ..EngineConfig::default()
            })
        };
        for src in prefix_catalog() {
            let q = parse_query(src).unwrap();
            let full = blocked(usize::MAX >> 1, false).execute(&store, &q).unwrap();
            prop_assert!(!full.truncated, "reference run must be uncapped");
            let got = blocked(cap, false).execute(&store, &q).unwrap();
            prop_assert!(
                got.rows.len() <= full.rows.len()
                    && got.rows[..] == full.rows[..got.rows.len()],
                "query {:?} cap {} block {}: not an emission-order prefix ({} of {})",
                src, cap, block, got.rows.len(), full.rows.len()
            );
            prop_assert!(
                got.truncated || got.rows.len() == full.rows.len(),
                "query {:?} cap {} block {}: shortened result without the truncated flag",
                src, cap, block
            );
            let par = blocked(cap, true).execute(&store, &q).unwrap();
            prop_assert_eq!(
                (&got.rows, got.truncated),
                (&par.rows, par.truncated),
                "query {:?} cap {} block {}: serial and parallel capped drives diverged",
                src, cap, block
            );
        }
    }

    /// Memory governance: error mode reproduces the ungoverned result or
    /// fails with the structured budget error; partial mode always returns
    /// an emission-order prefix (with the trip surfaced as a warning).
    #[test]
    fn governed_blocked_drive_honours_budget_modes(
        raws in proptest::collection::vec(arb_raw(), 20..150),
        budget_bytes in 1u64..40_000,
        block in prop_oneof![Just(1usize), Just(7), Just(4096)],
    ) {
        let store = build_store(&raws);
        let engine = Engine::new(EngineConfig {
            join_block_tuples: block,
            ..EngineConfig::default()
        });
        for src in prefix_catalog() {
            let q = parse_query(src).unwrap();
            let full = engine.execute(&store, &q).unwrap();

            let strict = ExecBudget::unlimited().with_memory_bytes(budget_bytes);
            match engine.execute_with_budget(&store, &q, &strict) {
                Ok(t) => prop_assert_eq!(
                    &t.rows, &full.rows,
                    "query {:?} budget {}: untripped strict run diverged",
                    src, budget_bytes
                ),
                Err(e) => prop_assert_eq!(e, EngineError::MemoryBudget { budget_bytes }),
            }

            let partial = ExecBudget::unlimited()
                .with_memory_bytes(budget_bytes)
                .with_partial_results(true);
            let p = engine
                .execute_with_budget(&store, &q, &partial)
                .expect("partial mode never errors on a memory trip");
            prop_assert!(
                p.rows.len() <= full.rows.len()
                    && p.rows[..] == full.rows[..p.rows.len()],
                "query {:?} budget {} block {}: partial rows not an emission-order prefix",
                src, budget_bytes, block
            );
            if !p.warnings.is_empty() {
                prop_assert!(p.truncated, "a warned partial result must be flagged");
            }
        }
    }
}

/// Deterministic spot check: an emission-bound chain reports the new
/// demand counters through EXPLAIN ANALYZE stats, and the blocked drive
/// emits no more than the breadth-first bound.
#[test]
fn emission_counters_surface_in_stats() {
    let raws: Vec<RawEvent> = (0..600)
        .map(|i| {
            RawEvent::instant(
                AgentId(i % 4),
                // Pairwise-coprime moduli (3, 4, 5, 7) keep op, agent, proc,
                // and file decorrelated so the chain fans out.
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
    let q = parse_query(
        r#"proc p1 write file f as e1
           proc p2 read file f as e2
           proc p2 write file f2 as e3
           with e1 before e2, e2 before e3
           return p1, p2, f2"#,
    )
    .unwrap();
    let aiql_lang::Query::Multievent(m) = q else {
        panic!()
    };
    let (full, _) = Engine::new(EngineConfig::default())
        .execute_multievent_with_stats(&store, &m)
        .unwrap();
    assert!(
        full.rows.len() > 16,
        "chain must fan out for this check, got {}",
        full.rows.len()
    );
    let engine = Engine::new(EngineConfig {
        // A cap below the full cardinality makes the chain emission-bound:
        // the output arena fills, the drive exits early, and the breadth
        // bound exceeds the demand-driven emission count.
        max_intermediate: full.rows.len() / 2,
        ..EngineConfig::default()
    });
    let (table, stats) = engine.execute_multievent_with_stats(&store, &m).unwrap();
    assert!(table.truncated, "the tight cap must truncate");
    let join = stats.ops.iter().find(|o| o.kind == "TemporalJoin").unwrap();
    assert!(join.runs_driven > 0, "blocked drive must report its runs");
    assert!(join.emitted_tuples > 0);
    assert!(
        join.emitted_tuples < join.breadth_bound_tuples,
        "an early-exiting drive must beat the breadth-first emission bound \
         ({} vs {})",
        join.emitted_tuples,
        join.breadth_bound_tuples
    );
    assert!(
        join.early_exit_depth.is_some(),
        "a truncated drive reports where it stopped"
    );
    let rendered = stats.render();
    assert!(
        rendered.contains("runs ") && rendered.contains("breadth bound"),
        "EXPLAIN ANALYZE must surface the emission counters:\n{rendered}"
    );
}
