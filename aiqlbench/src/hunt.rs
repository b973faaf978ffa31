//! `hunt`: one analyst rotates through three heavy join families on the
//! 8 × 10k demo store — the join and projection operators carry the time,
//! the planning layers barely register.

use std::sync::Arc;
use std::time::Instant;

use aiql_baseline::relational::RelationalEngine;
use aiql_sim::{demo_queries, scenario_demo, Scale};
use aiql_storage::EventStore;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::check::{fingerprint, same, Fingerprint, Ledger};
use crate::layers::{bulk_load, LoadStats, QueryCounters, QueryRunner};
use crate::report::{
    anomaly_json, load_json, loaded_writes, metric, per_layer, percentile_json, setup_json,
    LayerInputs, J,
};
use crate::stats::{median, ratio};
use crate::trace::{self_time_of, self_times, Tracer};
use crate::{alloc, setup, Ctx, Outcome, Setup, Stop};

/// Background events per host: the scale at which `exfil3` stays under the
/// engine's default `max_intermediate` cap.
const EVENTS_PER_HOST: usize = 10_000;

/// The data is the demo scenario at its canonical seed, not the run's: the
/// join sizes, and with them every family's latency, swing by about ten
/// percent with the background seed. The run's seed orders each round.
fn scale() -> Scale {
    Scale {
        events_per_host: EVENTS_PER_HOST,
        ..Scale::bench()
    }
}

/// The unbounded 4-pattern chain: emission-bound, fills the intermediate
/// cap, so its answer is a truncated prefix.
const CHAIN4: &str = "proc p1 write file f as e1
proc p2 read file f as e2
proc p2 write file f2 as e3
proc p3 read file f2 as e4
with e1 before e2, e2 before e3, e3 before e4
return count(e4.amount)";

/// The 30-minute-bounded 3-chain: probe-bound, hundreds of thousands of
/// result rows.
const EXFIL3: &str = "proc p1 write file f as e1
proc p2 read file f as e2
proc p2 write file f2 as e3
with e1 before[30 min] e2, e2 before[30 min] e3
return p1, p2, f2";

/// Writer/reader pairs over a shared file: a large join that `distinct`
/// collapses to a few rows.
const SHARE2: &str =
    "proc p1 write file f as e1 proc p2 read file f as e2 with e1 before e2 return distinct p1, p2";

pub const FAMILIES: [(&str, &str); 3] =
    [("chain4", CHAIN4), ("exfil3", EXFIL3), ("share2", SHARE2)];

struct Data {
    store: Arc<EventStore>,
    runner: QueryRunner,
}

fn build(load: &mut LoadStats, tr: Option<&mut Tracer>) -> Data {
    let store = bulk_load(&scenario_demo(scale()).raws, load, tr).snapshot();
    let runner = QueryRunner::new();
    // Warm-up: starts the scan pool and faults in the columns.
    for q in demo_queries().iter().take(3) {
        let _ = runner.run(&store, &q.aiql);
    }
    Data { store, runner }
}

/// Per-family answers fixed at set-up, and what the check found.
struct Expected {
    fp: [Option<Fingerprint>; 3],
    notes: Vec<(String, J)>,
}

/// `chain4` is capped, so it has no complete answer to compare: it must
/// report truncation and repeat itself exactly. `exfil3` and `share2` must
/// match the relational baseline.
fn check(data: &Data, checks: &mut Ledger) -> Expected {
    let mut fp = [None; 3];
    let mut notes = Vec::new();
    let run = |text: &str| {
        data.runner
            .run(&data.store, text)
            .map_err(|e| e.to_string())
    };
    let first = checks.run(
        "chain4 (truncated)",
        || run(CHAIN4),
        |t| {
            if t.truncated {
                Ok(())
            } else {
                Err("expected the intermediate cap to truncate".into())
            }
        },
    );
    if let Some(first) = first {
        let want = fingerprint(&first);
        checks.run("chain4 (deterministic)", || run(CHAIN4), |t| same(want, t));
        fp[0] = Some(want);
        notes.push(("chain4".into(), J::str("truncated at the intermediate cap; pinned to its first run and checked for run-to-run determinism")));
    }
    let baseline = RelationalEngine::default();
    for (i, (name, text)) in FAMILIES.iter().enumerate().skip(1) {
        let t0 = Instant::now();
        let want = checks.run(
            &format!("{name} (baseline)"),
            || {
                baseline
                    .execute_text(&data.store, text)
                    .map_err(|e| e.to_string())
            },
            |_| Ok(()),
        );
        let baseline_s = t0.elapsed().as_secs_f64();
        if let Some(want) = want {
            let want = fingerprint(&want);
            checks.run(name, || run(text), |t| same(want, t));
            fp[i] = Some(want);
            notes.push((
                name.to_string(),
                J::obj([
                    ("oracle", J::str("relational baseline")),
                    ("baseline_s", J::Num(baseline_s)),
                    ("rows", J::Int(want.rows as i64)),
                ]),
            ));
        }
    }
    Expected { fp, notes }
}

#[derive(Default)]
struct Pass {
    latencies_ms: [Vec<f64>; 3],
    round_ms: Vec<f64>,
    /// Traced passes: the operation id of each query and its family.
    ops: Vec<(u64, usize)>,
    busy_s: f64,
    rounds: usize,
    alloc_bytes: u64,
}

/// Rounds of the three families, each round in a seeded order.
fn run_pass(
    data: &Data,
    runner: &QueryRunner,
    expect: &Expected,
    order_seed: u64,
    stop: Stop,
    mut traced: Option<(&mut Tracer, &mut QueryCounters)>,
    ledger: &mut Ledger,
) -> Pass {
    let mut rng = StdRng::seed_from_u64(order_seed);
    let mut pass = Pass::default();
    let alloc0 = alloc::total_bytes();
    let t0 = Instant::now();
    while !match stop {
        Stop::Elapsed(s) => t0.elapsed().as_secs_f64() >= s,
        Stop::After(n) => pass.rounds >= n,
    } {
        let mut order = [0, 1, 2];
        for k in (1..3).rev() {
            order.swap(k, rng.gen_range(0..k + 1));
        }
        let mut round_ms = 0.0;
        for i in order {
            let (name, text) = FAMILIES[i];
            let mut ms = 0.0;
            ledger.run(
                name,
                || {
                    let t = Instant::now();
                    let r = match traced.as_mut() {
                        None => runner.run(&data.store, text),
                        Some((tr, c)) => {
                            tr.operation("query", |tr| runner.run_traced(tr, c, &data.store, text))
                        }
                    };
                    ms = t.elapsed().as_secs_f64() * 1e3;
                    r.map_err(|e| e.to_string())
                },
                |t| expect.fp[i].map_or(Ok(()), |want| same(want, t)),
            );
            if let Some((tr, _)) = traced.as_ref() {
                pass.ops.push((tr.op(), i));
            }
            pass.busy_s += ms / 1e3;
            pass.latencies_ms[i].push(ms);
            round_ms += ms;
        }
        pass.round_ms.push(round_ms);
        pass.rounds += 1;
    }
    pass.alloc_bytes = alloc::total_bytes() - alloc0;
    pass
}

fn family_medians(p: &Pass) -> [f64; 3] {
    [0, 1, 2].map(|i| median(&p.latencies_ms[i]))
}

/// `chain4_ms`, `exfil3_ms` and `share2_ms`: each family's median with its
/// sample count.
fn family_json(p: &Pass) -> Vec<(String, J)> {
    let medians = family_medians(p);
    FAMILIES
        .iter()
        .enumerate()
        .map(|(i, (name, _))| {
            (
                format!("{name}_ms"),
                J::obj([
                    ("value", J::Num(medians[i])),
                    ("unit", J::str("ms")),
                    ("statistic", J::str("median")),
                    ("samples", J::Int(p.latencies_ms[i].len() as i64)),
                ]),
            )
        })
        .collect()
}

/// Per family: the share of its traced wall time spent in the join and
/// projection operators' self time.
fn join_project_share(tr: &Tracer, ops: &[(u64, usize)]) -> J {
    let family: std::collections::HashMap<u64, usize> = ops.iter().copied().collect();
    let (mut wall, mut ops_ns) = ([0u64; 3], [0u64; 3]);
    for (s, t) in tr.spans().iter().zip(self_times(tr.spans())) {
        let Some(&f) = family.get(&s.op) else {
            continue;
        };
        match s.name {
            "query" if s.parent.is_none() => wall[f] += s.end - s.start,
            "join" | "join.build" | "join.probe" | "project" | "aggregate" => ops_ns[f] += t,
            _ => {}
        }
    }
    J::Obj(
        FAMILIES
            .iter()
            .enumerate()
            .map(|(i, (name, _))| {
                (
                    name.to_string(),
                    J::Num(ratio(ops_ns[i] as f64, wall[i] as f64)),
                )
            })
            .collect(),
    )
}

pub fn run(ctx: &Ctx) -> Outcome {
    let Setup {
        data,
        secs: setup_secs,
        load,
        traced_load,
        tracer: setup_tr,
    } = setup(ctx, build);
    let mut checks = Ledger::default();
    let expect = check(&data, &mut checks);
    let mut ledger = Ledger::default();
    let mut report = vec![(
        "scale".to_string(),
        J::obj([
            ("hosts", J::Int(scale().hosts as i64)),
            ("events_per_host", J::Int(EVENTS_PER_HOST as i64)),
            ("data_seed", J::str(format!("{:#x}", scale().seed))),
            ("stored_events", J::Int(data.store.event_count() as i64)),
            ("clients", J::Int(1)),
            ("loop", J::str("closed")),
        ]),
    )];
    report.push(("answers".into(), J::Obj(expect.notes.clone())));

    let (metrics, tracers) = if !ctx.trace {
        alloc::reset_peak();
        let pass = run_pass(
            &data,
            &data.runner,
            &expect,
            ctx.derive(5),
            Stop::Elapsed(ctx.seconds),
            None,
            &mut ledger,
        );
        let peak_mb = alloc::peak_mb();
        let medians = family_medians(&pass);
        // One latency figure for the three families: their geometric
        // mean, so each family weighs the same whatever its length.
        let geo = (medians.iter().map(|m| m.max(1e-9).ln()).sum::<f64>() / 3.0).exp();
        let qps = ratio((3 * pass.rounds) as f64, pass.busy_s);
        report.push(("setup_s".into(), setup_json(&setup_secs)));
        report.extend(family_json(&pass));
        report.extend([
            ("queries_per_s".to_string(), J::Num(qps)),
            ("round_p50_ms".into(), percentile_json(&pass.round_ms, 0.5)),
            ("peak_heap_mb".into(), J::Num(peak_mb)),
            ("setup_load".into(), load_json(&load)),
        ]);
        // The unit of work is a round: all three families once.
        let metrics = vec![
            metric("setup_s", median(&setup_secs), "s"),
            metric("ops_per_s", ratio(pass.rounds as f64, pass.busy_s), "1/s"),
            metric("op_p50_ms", median(&pass.round_ms), "ms"),
            metric("queries_per_s", qps, "1/s"),
            metric("query_p50_ms", geo, "ms"),
            metric("peak_heap_mb", peak_mb, "MB"),
        ];
        (metrics, Vec::new())
    } else {
        let a = run_pass(
            &data,
            &data.runner,
            &expect,
            ctx.derive(5),
            Stop::Elapsed(ctx.pass_seconds()),
            None,
            &mut ledger,
        );
        let mut tr = Tracer::new();
        let mut qc = QueryCounters::default();
        let b = run_pass(
            &data,
            &data.runner,
            &expect,
            ctx.derive(5),
            Stop::After(a.rounds),
            Some((&mut tr, &mut qc)),
            &mut ledger,
        );
        let self_ns = self_time_of(&[&tr, &setup_tr]);
        report.push(("traced_rounds".into(), J::Int(b.rounds as i64)));
        report.push(("join_project_share".into(), join_project_share(&tr, &b.ops)));
        let inputs = LayerInputs {
            self_ns,
            queries: qc,
            writes: loaded_writes(&[&*data.store], &traced_load),
            alloc_bytes_per_query: ratio(a.alloc_bytes as f64, (3 * a.rounds) as f64),
            alloc_bytes_per_event: ratio(load.alloc_bytes as f64, load.events as f64),
            overhead_ratio: ratio(b.busy_s, a.busy_s),
        };
        report.extend(family_json(&a));
        report.push(("anomaly".into(), anomaly_json(&inputs)));
        (per_layer(&inputs), vec![setup_tr, tr])
    };
    Outcome {
        ledger,
        checks,
        metrics,
        report,
        tracers,
    }
}
