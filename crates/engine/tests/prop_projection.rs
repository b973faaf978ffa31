//! Differential projection tests: three independent implementations of
//! the `return` clause must agree.
//!
//! * the slot-compiled projection (`compiled_projection`, the default):
//!   streaming typed-key distinct and group by, column-level event
//!   attribute reads, per-function accumulators;
//! * the dynamic `RowCtx` projection (`compiled_projection = false`);
//! * the reference executor's naive projection (`reference::project_naive`,
//!   string-keyed `BTreeMap` groups, no slots).
//!
//! Compiled and dynamic run over the same joined tuples, so their tables
//! must be byte-identical, order included. The reference matches tuples
//! in its own order, so it is compared as a row multiset; `order by` +
//! `limit` queries order on every column, which makes the kept set
//! independent of tuple order.

use aiql_engine::{analyze_multievent, reference, Engine, EngineConfig, ExecBudget, ResultTable};
use aiql_lang::{parse_query, Query};
use aiql_model::{AgentId, Operation, Timestamp};
use aiql_storage::{EntitySpec, EventStore, RawEvent, StoreConfig};
use proptest::prelude::*;

/// Events with a duration, so that `starttime` and `endtime` read
/// different columns.
fn arb_raw() -> impl Strategy<Value = RawEvent> {
    (
        0u32..3,
        prop_oneof![
            Just(Operation::Read),
            Just(Operation::Write),
            Just(Operation::Start),
            Just(Operation::Connect),
        ],
        0u32..5,
        0u32..6,
        0i64..5_000,
        0i64..30,
        0u64..2_000,
    )
        .prop_map(|(agent, op, subj, obj, secs, dur, amount)| {
            let subject = EntitySpec::process(100 + subj, &format!("exe{subj}.bin"), "user");
            let object = match op {
                Operation::Read | Operation::Write => {
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
            RawEvent {
                end_time: Timestamp::from_secs(secs + dur),
                ..RawEvent::instant(
                    AgentId(agent),
                    op,
                    subject,
                    object,
                    Timestamp::from_secs(secs),
                    amount,
                )
            }
        })
}

/// Dense writes and reads over three files: a few hundred events join
/// into thousands of tuples, more than one governor check interval.
fn arb_write_read() -> impl Strategy<Value = RawEvent> {
    (
        prop_oneof![Just(Operation::Read), Just(Operation::Write)],
        0u32..4,
        0u32..3,
        0i64..5_000,
    )
        .prop_map(|(op, subj, obj, secs)| {
            RawEvent::instant(
                AgentId(1),
                op,
                EntitySpec::process(100 + subj, &format!("exe{subj}.bin"), "user"),
                EntitySpec::file(&format!("/data/file{obj}"), "user"),
                Timestamp::from_secs(secs),
                0,
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

/// Projection shapes: distinct over entity and event attributes, having
/// as a row filter, group by + having over every aggregate function on
/// event and entity attributes, the implicit single group, distinct over
/// aggregated rows, arithmetic over aggregates, and order by + limit.
const QUERIES: &[&str] = &[
    "proc p write file f as e return distinct p, f",
    "proc p1 write file f as e1 proc p2 read file f as e2 with e1 before e2 return distinct p1, p2",
    "proc p read || write file f as e return distinct p, e.agentid, e.optype",
    "proc p write file f as e return e, e.id, e.amount, e.starttime, e.endtime, e.agentid, e.operation",
    "proc p write file f as e return p, f, e.amount, e.starttime having e.amount > 1000",
    "proc p read file f as e return distinct p, f order by p, f limit 3",
    "proc p write file f as e return distinct f order by f desc limit 2",
    "proc p write file f as e return p, count(e.amount) as n, sum(e.amount) as s group by p",
    "proc p read file f as e
     return p, sum(e.starttime) as ts, sum(e.amount / 3) as third, sum(f) as sf, avg(f) as af
     group by p",
    "proc p write file f as e
     return p, f, avg(e.amount) as av, min(e.starttime) as lo, max(e.endtime) as hi
     group by p, f having av > 500",
    "proc p read file f as e
     return f, count(p.pid) as n, min(p.pid) as lo, max(p) as hi, sum(p.pid) as s
     group by f having n >= 2 order by n desc, f limit 3",
    "proc p write file f as e return count(e.amount) as n, sum(e.amount) as s, avg(e.amount) as av, min(e.id) as lo, max(e.id) as hi",
    // Division by zero is null: every function over all-null arguments.
    "proc p write file f as e
     return p, count(e.amount / 0) as n, sum(e.amount / 0) as s, avg(e.amount / 0) as av,
            min(e.amount / 0) as lo, max(e.amount / 0) as hi
     group by p",
    "proc p write file f as e return distinct count(e.amount) as n group by p",
    "proc p1 start proc p2 as e return p1, max(p2.pid) as m, min(e.id) as first group by p1 order by m desc, p1 limit 2",
    "proc p connect ip i as e return i, sum(e.amount) as s, avg(e.endtime) as t group by i",
    "proc p write file f as e return p, sum(e.amount) * 2 as s2 group by p having s2 > 100",
    "proc p read || write file f as e return e.agentid, count(f) as n group by e.agentid order by e.agentid",
    "proc p1 write file f as e1 proc p2 read file f as e2 with e1 before e2
     return p1, count(e2.amount) as n, max(f) as last group by p1",
];

/// Rows as their `{:?}` keys: unlike `Value`'s `==`, this tells `0.0`
/// from `-0.0` and equates NaNs — byte identity of the rendered table.
fn keys(t: &ResultTable) -> Vec<String> {
    t.rows.iter().map(|r| ResultTable::row_key(r)).collect()
}

fn engine(compiled_projection: bool) -> Engine {
    Engine::new(EngineConfig {
        compiled_projection,
        ..EngineConfig::default()
    })
}

fn multievent(src: &str) -> (Query, aiql_lang::MultieventQuery) {
    let q = parse_query(src).unwrap();
    let Query::Multievent(m) = &q else {
        panic!("not a multievent query: {src}")
    };
    let m = m.clone();
    (q, m)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// compiled ≡ dynamic byte for byte; both ≡ the naive reference as a
    /// row multiset.
    #[test]
    fn compiled_dynamic_and_reference_agree(raws in proptest::collection::vec(arb_raw(), 0..120)) {
        let store = build_store(&raws);
        let (compiled, dynamic) = (engine(true), engine(false));
        for src in QUERIES {
            let (q, m) = multievent(src);
            let fast = compiled.execute(&store, &q).unwrap();
            let slow = dynamic.execute(&store, &q).unwrap();
            prop_assert_eq!(&fast.columns, &slow.columns);
            prop_assert_eq!(keys(&fast), keys(&slow), "compiled vs dynamic differ on {}", src);
            let analyzed = analyze_multievent(&m, &store).unwrap();
            let oracle = reference::run_reference(&store, &analyzed).unwrap();
            prop_assert_eq!(&fast.columns, &oracle.columns);
            prop_assert_eq!(
                keys(&fast.normalized()),
                keys(&oracle.normalized()),
                "engine vs reference differ on {}",
                src
            );
        }
    }

    /// Partial mode: a memory budget that trips mid-join hands the
    /// projection a tuple prefix, and the projection's own governor gate
    /// then stops it early too. A distinct projection of a tuple prefix
    /// must be a row prefix of the full distinct result, identical on
    /// both projection paths.
    #[test]
    fn governed_distinct_returns_a_prefix(
        raws in proptest::collection::vec(arb_write_read(), 300..600),
        budget_bytes in 1u64..600_000,
    ) {
        let store = build_store(&raws);
        let (q, _) = multievent(
            "proc p1 write file f as e1 proc p2 read file f as e2 with e1 before e2
             return distinct e1.id, p2",
        );
        let full = engine(true).execute(&store, &q).unwrap();
        let budget = ExecBudget::unlimited()
            .with_memory_bytes(budget_bytes)
            .with_partial_results(true);
        let fast = engine(true).execute_with_budget(&store, &q, &budget).unwrap();
        let slow = engine(false).execute_with_budget(&store, &q, &budget).unwrap();
        prop_assert_eq!(&fast, &slow);
        prop_assert!(fast.rows.len() <= full.rows.len());
        prop_assert_eq!(&fast.rows[..], &full.rows[..fast.rows.len()]);
    }
}

/// A store whose write/read pairs on two shared files join into many
/// tuples that collapse to a few distinct (writer, reader) rows.
fn fan_store() -> EventStore {
    let mut raws = Vec::new();
    for i in 0..120u32 {
        let op = if i % 2 == 0 {
            Operation::Write
        } else {
            Operation::Read
        };
        raws.push(RawEvent::instant(
            AgentId(1),
            op,
            EntitySpec::process(100 + i % 3, &format!("exe{}.bin", i % 3), "user"),
            EntitySpec::file(&format!("/data/file{}", i % 4 / 2), "user"),
            Timestamp::from_secs(i64::from(i)),
            u64::from(i),
        ));
    }
    build_store(&raws)
}

/// An unknown event attribute makes slot compilation decline, so both
/// paths report the dynamic path's error — and no error at all when no
/// tuple joins.
#[test]
fn unknown_event_attribute_errors_identically() {
    let store = fan_store();
    let (q, _) = multievent("proc p write file f as e1 return e1.bogus");
    let fast = engine(true).execute(&store, &q).unwrap_err();
    let slow = engine(false).execute(&store, &q).unwrap_err();
    assert_eq!(fast, slow);
    assert!(fast.to_string().contains("bogus"), "{fast}");

    let (q, _) = multievent("proc p[\"%nothing%\"] write file f as e1 return e1.bogus");
    for compiled in [true, false] {
        let t = engine(compiled).execute(&store, &q).unwrap();
        assert!(t.is_empty());
        assert_eq!(t.columns, vec!["e1.bogus".to_string()]);
    }
}

/// The projection's work counter: `return distinct p1, p2` over N joined
/// tuples materializes exactly its distinct rows, not N. Deterministic,
/// so it gates regressions without timing anything.
#[test]
fn distinct_materializes_only_distinct_rows() {
    let store = fan_store();
    let (_, m) = multievent(
        "proc p1 write file f as e1 proc p2 read file f as e2 with e1 before e2
         return distinct p1, p2",
    );
    for compiled in [true, false] {
        let (table, stats) = engine(compiled)
            .execute_multievent_with_stats(&store, &m)
            .unwrap();
        let project = stats.ops.last().unwrap();
        assert_eq!(project.kind, "Project");
        assert!(
            project.rows_in > 10 * table.len(),
            "{} tuples for {} rows",
            project.rows_in,
            table.len()
        );
        assert_eq!(project.emitted_tuples, table.len() as u64);
        assert!(stats
            .render()
            .contains(&format!("materialized {} row(s)", table.len())));
    }

    // order by + limit cut after materialization: the counter keeps every
    // distinct row, the table only the limit.
    let (_, m) = multievent(
        "proc p1 write file f as e1 proc p2 read file f as e2 with e1 before e2
         return distinct p1, p2 order by p1, p2 limit 2",
    );
    let (table, stats) = engine(true)
        .execute_multievent_with_stats(&store, &m)
        .unwrap();
    let all = engine(true)
        .execute_text(
            &store,
            "proc p1 write file f as e1 proc p2 read file f as e2 with e1 before e2
             return distinct p1, p2",
        )
        .unwrap();
    assert_eq!(table.len(), 2);
    assert_eq!(stats.ops.last().unwrap().emitted_tuples, all.len() as u64);
}

/// Grouped projections count one materialized row per group that passes
/// having.
#[test]
fn aggregate_materializes_one_row_per_group() {
    let store = fan_store();
    let (_, m) = multievent(
        "proc p1 write file f as e1 proc p2 read file f as e2 with e1 before e2
         return p1, count(e2.amount) as n group by p1",
    );
    let (table, stats) = engine(true)
        .execute_multievent_with_stats(&store, &m)
        .unwrap();
    let agg = stats.ops.last().unwrap();
    assert_eq!(agg.kind, "Aggregate");
    assert_eq!(agg.emitted_tuples, table.len() as u64);
    assert!(table.len() <= 3);
    let reference = reference::run_reference(&store, &analyze_multievent(&m, &store).unwrap())
        .unwrap()
        .normalized();
    assert_eq!(table.normalized().rows, reference.rows);
}
