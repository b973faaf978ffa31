//! Deterministic join checks on the demo-attack store, for two
//! join-dominated families:
//!
//! * `chain4` — an unbounded 4-pattern chain that fills
//!   `max_intermediate` (the emission-bound case);
//! * `exfil3` — a bounded 3-pattern exfiltration chain whose
//!   `before[30 min]` relations make every non-seed step a time-bucketed
//!   index (non-aggregated, so the row-prefix contract is visible).
//!
//! Checked: the probe-reduction layer cube against the layers-off serial
//! join, the drive against the materializing join at several block sizes,
//! the emission-order prefix under truncating caps, memory governance in
//! strict and partial-results mode, and the drive's emission counters.

use aiql_engine::{Engine, EngineConfig, EngineError, ExecBudget, ResultTable};
use aiql_model::Value;
use aiql_sim::{build_store, scenario_demo, Scale};
use aiql_storage::{EventStore, StoreConfig};

const CHAIN_QUERY: &str = r#"proc p1 write file f as e1
proc p2 read file f as e2
proc p2 write file f2 as e3
proc p3 read file f2 as e4
with e1 before e2, e2 before e3, e3 before e4
return count(e4.amount)"#;

const EXFIL_QUERY: &str = r#"proc p1 write file f as e1
proc p2 read file f as e2
proc p2 write file f2 as e3
with e1 before[30 min] e2, e2 before[30 min] e3
return p1, p2, f2"#;

/// The demo-attack scenario on 8 hosts × 2,000 background events.
fn demo_store() -> EventStore {
    build_store(
        &scenario_demo(Scale {
            hosts: 8,
            events_per_host: 2_000,
            seed: 0xA1_91,
        }),
        StoreConfig::default(),
    )
}

/// `chain4` fills any `max_intermediate`; 100k tuples keep it
/// emission-bound while a debug build still runs it in seconds.
const CHAIN_CAP: usize = 100_000;

/// Each family with the `max_intermediate` it runs under when not
/// deliberately truncated (`exfil3` never reaches the default cap).
fn families() -> [(&'static str, &'static str, usize); 2] {
    [
        ("chain4", CHAIN_QUERY, CHAIN_CAP),
        (
            "exfil3",
            EXFIL_QUERY,
            EngineConfig::default().max_intermediate,
        ),
    ]
}

/// Default engine with the two probe-reduction layers toggled.
fn layered(time_bucket_join: bool, sideways_filters: bool) -> EngineConfig {
    EngineConfig {
        time_bucket_join,
        sideways_filters,
        ..EngineConfig::default()
    }
}

/// Forces the parallel drive and sharded index builds on any input.
fn forced_parallel(config: EngineConfig) -> EngineConfig {
    EngineConfig {
        parallel_join: true,
        parallelism: 2,
        join_partitions: 3,
        shared_scan_pool: false,
        parallel_threshold: 0,
        parallel_join_min_work: 0,
        parallel_index_min_build: 0,
        ..config
    }
}

/// The chain's aggregated count (its only cell).
fn count_of(t: &ResultTable) -> i64 {
    match t.rows[0][0] {
        Value::Int(n) => n,
        v => panic!("aggregated count expected, got {v:?}"),
    }
}

/// Every combination of the two layers, crossed with the serial and the
/// forced-parallel drive, agrees byte-for-byte (truncated flag included)
/// with the layers-off serial join, under the full and truncating caps.
#[test]
fn probe_layer_cube_matches_layers_off() {
    let store = demo_store();
    for (name, aiql, full_cap) in families() {
        for max_intermediate in [full_cap, 1, 7, 100] {
            let want = Engine::new(EngineConfig {
                parallel_join: false,
                max_intermediate,
                ..layered(false, false)
            })
            .execute_text(&store, aiql)
            .expect("reference");
            if max_intermediate == full_cap {
                assert!(!want.rows.is_empty(), "{name}: query must find evidence");
            }
            for flags in 0u32..8 {
                let config = EngineConfig {
                    parallel_join: false,
                    max_intermediate,
                    ..layered(flags & 1 != 0, flags & 2 != 0)
                };
                let config = if flags & 4 != 0 {
                    forced_parallel(config)
                } else {
                    config
                };
                let got = Engine::new(config)
                    .execute_text(&store, aiql)
                    .expect("variant");
                assert_eq!(
                    (&want.rows, want.truncated),
                    (&got.rows, got.truncated),
                    "{name}: layer point {flags:03b} (max_intermediate {max_intermediate}) diverged"
                );
            }
        }
    }
}

/// The drive against the materializing join, serial and forced-parallel,
/// at block sizes 1 / 7 / 4096. Uncapped (`exfil3`) the tables are
/// identical. `chain4` fills the cap on both paths: each keeps a prefix
/// of the untruncated result, and the drive's prefix is at least as long
/// (a breadth-first join under-fills the output cap from its truncated
/// intermediates), so its count dominates.
#[test]
fn blocked_drive_matches_materializing_join() {
    let store = demo_store();
    for (name, aiql, max_intermediate) in families() {
        let want = Engine::new(EngineConfig {
            late_materialization: false,
            max_intermediate,
            ..EngineConfig::default()
        })
        .execute_text(&store, aiql)
        .expect("materializing");
        assert!(!want.rows.is_empty(), "{name}: query must find evidence");
        assert_eq!(
            want.truncated,
            name == "chain4",
            "{name}: cap-filling family"
        );
        // The cap-filling family emits the whole output cap per drive, so
        // it runs at the default block only.
        let blocks: &[usize] = if want.truncated {
            &[4096]
        } else {
            &[1, 7, 4096]
        };
        for &block in blocks {
            for parallel in [false, true] {
                let config = EngineConfig {
                    join_block_tuples: block,
                    parallel_join: false,
                    max_intermediate,
                    ..EngineConfig::default()
                };
                let config = if parallel {
                    forced_parallel(config)
                } else {
                    config
                };
                let got = Engine::new(config)
                    .execute_text(&store, aiql)
                    .expect("blocked");
                if want.truncated {
                    assert!(
                        got.truncated,
                        "{name}: block {block} untruncated where capped"
                    );
                    assert!(
                        count_of(&got) >= count_of(&want),
                        "{name}: block {block}, parallel {parallel}: shorter prefix than the \
                         materializing join"
                    );
                } else {
                    assert_eq!(
                        (&want.rows, false),
                        (&got.rows, got.truncated),
                        "{name}: block {block}, parallel {parallel}: diverged uncapped"
                    );
                }
            }
        }
    }
}

/// Truncating caps keep an emission-order prefix of the untruncated
/// result, flag `truncated` exactly when rows were lost or the cap filled,
/// and the serial and parallel drives agree.
#[test]
fn capped_drive_keeps_an_emission_order_prefix() {
    let store = demo_store();
    let full = Engine::new(EngineConfig::default())
        .execute_text(&store, EXFIL_QUERY)
        .expect("untruncated");
    assert!(!full.truncated);
    for cap in [1usize, 7, 100, 5000] {
        for block in [7usize, 4096] {
            let config = EngineConfig {
                max_intermediate: cap,
                join_block_tuples: block,
                ..EngineConfig::default()
            };
            let serial = Engine::new(EngineConfig {
                parallel_join: false,
                ..config.clone()
            })
            .execute_text(&store, EXFIL_QUERY)
            .expect("capped serial");
            assert!(
                serial.rows.len() <= full.rows.len()
                    && serial.rows[..] == full.rows[..serial.rows.len()],
                "cap {cap} block {block}: capped rows are not an emission-order prefix"
            );
            assert_eq!(
                serial.truncated,
                serial.rows.len() < full.rows.len() || serial.rows.len() >= cap,
                "cap {cap} block {block}: truncated flag wrong ({} of {} rows)",
                serial.rows.len(),
                full.rows.len()
            );
            let parallel = Engine::new(forced_parallel(config))
                .execute_text(&store, EXFIL_QUERY)
                .expect("capped parallel");
            assert_eq!(
                (&serial.rows, serial.truncated),
                (&parallel.rows, parallel.truncated),
                "cap {cap} block {block}: serial and parallel capped drives diverged"
            );
        }
    }
}

/// Under a memory budget, strict mode completes byte-identically or
/// fails with the exact budget error, and partial mode returns a row
/// prefix of the ungoverned result — at every layer point of the serial
/// drive and on the default configuration.
#[test]
fn governed_drive_honours_budget_modes() {
    let store = demo_store();
    let mut configs: Vec<EngineConfig> = (0u32..4)
        .map(|flags| EngineConfig {
            parallel_join: false,
            ..layered(flags & 1 != 0, flags & 2 != 0)
        })
        .collect();
    configs.push(EngineConfig::default());
    for budget_bytes in [4 << 10u64, 64 << 10, 1 << 20] {
        for (point, config) in configs.iter().enumerate() {
            let engine = Engine::new(config.clone());
            let full = engine
                .execute_text(&store, EXFIL_QUERY)
                .expect("ungoverned");
            let strict = ExecBudget::unlimited().with_memory_bytes(budget_bytes);
            match engine.execute_text_with_budget(&store, EXFIL_QUERY, &strict) {
                Ok(t) => assert_eq!(t.rows, full.rows, "strict governed run diverged"),
                Err(e) => assert_eq!(e, EngineError::MemoryBudget { budget_bytes }),
            }
            let partial = ExecBudget::unlimited()
                .with_memory_bytes(budget_bytes)
                .with_partial_results(true);
            let p = engine
                .execute_text_with_budget(&store, EXFIL_QUERY, &partial)
                .expect("partial mode never errors on a memory trip");
            assert!(
                p.rows.len() <= full.rows.len() && p.rows[..] == full.rows[..p.rows.len()],
                "config {point} budget {budget_bytes}: partial rows not a prefix"
            );
        }
    }
}

/// The emission-bound chain reports its seed runs, and emits no more than
/// a breadth-first drive's bound.
#[test]
fn chain_reports_emission_counters() {
    let store = demo_store();
    let Ok(aiql_lang::Query::Multievent(m)) = aiql_lang::parse_query(CHAIN_QUERY) else {
        panic!("chain parses as a multievent query");
    };
    let (_, stats) = Engine::new(EngineConfig {
        max_intermediate: CHAIN_CAP,
        ..EngineConfig::default()
    })
    .execute_multievent_with_stats(&store, &m)
    .expect("chain");
    let join = stats
        .ops
        .iter()
        .find(|o| o.kind == "TemporalJoin")
        .expect("join ran");
    assert!(join.runs_driven > 0, "the drive never engaged on the chain");
    assert!(
        join.emitted_tuples <= join.breadth_bound_tuples,
        "emitted more than the breadth-first bound"
    );
}
