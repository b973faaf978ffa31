//! `investigate`: one analyst replays the investigation loop on static
//! stores — Figure 4/5 catalog queries with Zipf popularity, interleaved
//! with ad-hoc `LIKE` lookups that mostly miss the plan cache.

use std::sync::Arc;
use std::time::Instant;

use aiql_engine::schedule::PlanCache;
use aiql_sim::{case_study_queries, demo_queries, scenario_case_study, scenario_demo, Scale};
use aiql_storage::EventStore;

use crate::adhoc::{aiql_date, lookups};
use crate::check::{fingerprint, oracle, same, Fingerprint, Ledger};
use crate::layers::{bulk_load, LoadStats, QueryCounters, QueryRunner};
use crate::mix::{Draw, Mix, BLOCK};
use crate::report::{
    anomaly_json, load_json, loaded_writes, metric, per_layer, percentile_json, setup_json,
    LayerInputs, J,
};
use crate::stats::{median, ratio};
use crate::trace::{self_time_of, Tracer};
use crate::{alloc, setup, Ctx, Outcome, Setup, Stop};

/// Ad-hoc lookups per store. Each names a process and an object, so the
/// pool holds far more distinct resolution keys than the plan cache keeps.
const ADHOC_DEMO: usize = 384;
const ADHOC_CASE: usize = 128;

/// One query of the mix, with the answer the oracle gave at set-up.
#[derive(Clone)]
pub struct Item {
    pub label: String,
    pub store: usize,
    pub text: String,
    pub expect: Option<Fingerprint>,
}

/// The analyst's queries: the catalog (in Zipf rank order) and the ad-hoc
/// pool.
pub struct Workset {
    pub catalog: Vec<Item>,
    pub adhoc: Vec<Item>,
}

impl Workset {
    pub fn item(&self, d: Draw) -> &Item {
        match d {
            Draw::Catalog(i) => &self.catalog[i],
            Draw::Adhoc(i) => &self.adhoc[i],
        }
    }

    pub fn all_mut(&mut self) -> impl Iterator<Item = &mut Item> {
        self.catalog.iter_mut().chain(self.adhoc.iter_mut())
    }

    /// Runs every catalog query once.
    pub fn warm(&self, runners: &[QueryRunner], stores: &[&EventStore]) {
        for item in &self.catalog {
            let _ = runners[item.store].run(stores[item.store], &item.text);
        }
    }
}

/// Catalog items for one store.
pub fn catalog_items(queries: Vec<aiql_sim::CatalogQuery>, store: usize) -> Vec<Item> {
    queries
        .into_iter()
        .map(|q| Item {
            label: q.id.to_string(),
            store,
            text: q.aiql,
            expect: None,
        })
        .collect()
}

/// Ad-hoc items for one store.
pub fn adhoc_items(texts: Vec<String>, store: usize) -> Vec<Item> {
    texts
        .into_iter()
        .enumerate()
        .map(|(i, text)| Item {
            label: format!("adhoc-{store}-{i}"),
            store,
            text,
            expect: None,
        })
        .collect()
}

/// The set-up answer check: each item's oracle answer becomes its
/// expected fingerprint, and the engine must agree with it.
pub fn check_items<'a>(
    items: impl Iterator<Item = &'a mut Item>,
    stores: &[&EventStore],
    runners: &[QueryRunner],
    checks: &mut Ledger,
) {
    for item in items {
        let (store, runner) = (stores[item.store], &runners[item.store]);
        let want = checks.run(
            &format!("{} (oracle)", item.label),
            || oracle(store, &item.text).map_err(|e| e.to_string()),
            |_| Ok(()),
        );
        item.expect = want.as_ref().map(fingerprint);
        if let Some(expect) = item.expect {
            checks.run(
                &item.label,
                || runner.run(store, &item.text).map_err(|e| e.to_string()),
                |t| same(expect, t),
            );
        }
    }
}

/// Runs one query of the mix, timed, under the failure ledger.
pub fn timed_query(
    item: &Item,
    store: &EventStore,
    runner: &QueryRunner,
    traced: Option<(&mut Tracer, &mut QueryCounters)>,
    ledger: &mut Ledger,
) -> f64 {
    let mut ms = 0.0;
    ledger.run(
        &item.label,
        || {
            let t0 = Instant::now();
            let r = match traced {
                None => runner.run(store, &item.text),
                Some((tr, c)) => {
                    tr.operation("query", |tr| runner.run_traced(tr, c, store, &item.text))
                }
            };
            ms = t0.elapsed().as_secs_f64() * 1e3;
            r.map_err(|e| e.to_string())
        },
        |t| item.expect.map_or(Ok(()), |want| same(want, t)),
    );
    ms
}

/// What a pass measured.
#[derive(Default)]
struct Pass {
    pub latencies_ms: Vec<f64>,
    pub busy_s: f64,
    pub blocks: usize,
    pub alloc_bytes: u64,
}

fn run_pass(
    ws: &Workset,
    stores: &[&EventStore],
    runners: &[QueryRunner],
    mix_seed: u64,
    stop: Stop,
    mut traced: Option<(&mut Tracer, &mut QueryCounters)>,
    ledger: &mut Ledger,
) -> Pass {
    let mut mix = Mix::new(ws.catalog.len(), ws.adhoc.len(), mix_seed);
    let mut pass = Pass::default();
    let alloc0 = alloc::total_bytes();
    let t0 = Instant::now();
    loop {
        let done = match stop {
            Stop::Elapsed(s) => t0.elapsed().as_secs_f64() >= s,
            Stop::After(n) => pass.blocks >= n,
        };
        if done {
            break;
        }
        for d in mix.next_block() {
            let item = ws.item(d);
            let t = traced.as_mut().map(|(tr, c)| (&mut **tr, &mut **c));
            let ms = timed_query(item, stores[item.store], &runners[item.store], t, ledger);
            pass.busy_s += ms / 1e3;
            pass.latencies_ms.push(ms);
        }
        pass.blocks += 1;
    }
    pass.alloc_bytes = alloc::total_bytes() - alloc0;
    pass
}

/// The demo and case-study stores, each investigated with its own engine
/// (a plan cache serves one store).
struct Data {
    stores: [Arc<EventStore>; 2],
    ws: Workset,
    runners: [QueryRunner; 2],
}

fn build(ctx: &Ctx, load: &mut LoadStats, mut tr: Option<&mut Tracer>) -> Data {
    let demo_scale = Scale {
        seed: ctx.derive(1),
        ..Scale::bench()
    };
    let case_scale = Scale {
        events_per_host: demo_scale.events_per_host / 2,
        ..demo_scale
    };
    let (demo_sc, case_sc) = (scenario_demo(demo_scale), scenario_case_study(case_scale));
    let stores = [
        bulk_load(&demo_sc.raws, load, tr.as_deref_mut()).snapshot(),
        bulk_load(&case_sc.raws, load, tr).snapshot(),
    ];
    let mut catalog = catalog_items(demo_queries(), 0);
    catalog.extend(catalog_items(case_study_queries(), 1));
    let mut adhoc = adhoc_items(
        lookups(
            &demo_sc.raws,
            &aiql_date(demo_sc.day),
            ctx.derive(2),
            ADHOC_DEMO,
        ),
        0,
    );
    adhoc.extend(adhoc_items(
        lookups(
            &case_sc.raws,
            &aiql_date(case_sc.day),
            ctx.derive(3),
            ADHOC_CASE,
        ),
        1,
    ));
    let ws = Workset { catalog, adhoc };
    let runners = [QueryRunner::new(), QueryRunner::new()];
    ws.warm(&runners, &[&*stores[0], &*stores[1]]);
    Data {
        stores,
        ws,
        runners,
    }
}

pub fn run(ctx: &Ctx) -> Outcome {
    let Setup {
        mut data,
        secs: setup_secs,
        load,
        traced_load,
        tracer: setup_tr,
    } = setup(ctx, |load, tr| build(ctx, load, tr));
    let stores = [&*data.stores[0], &*data.stores[1]];
    let mut checks = Ledger::default();
    check_items(data.ws.all_mut(), &stores, &data.runners, &mut checks);
    let ws = &data.ws;

    let mut ledger = Ledger::default();
    let mut report = vec![
        (
            "scale".to_string(),
            J::obj([
                ("demo_hosts", J::Int(Scale::bench().hosts as i64)),
                ("demo_events_per_host", J::Int(Scale::bench().events_per_host as i64)),
                ("case_events_per_host", J::Int(Scale::bench().events_per_host as i64 / 2)),
                ("data_seed", J::str(format!("{:#x}", ctx.derive(1)))),
                ("stored_events", J::Int((stores[0].event_count() + stores[1].event_count()) as i64)),
            ]),
        ),
        (
            "mix".into(),
            J::obj([
                ("catalog_queries", J::Int(ws.catalog.len() as i64)),
                ("adhoc_lookups", J::Int(ws.adhoc.len() as i64)),
                ("plan_cache_capacity", J::Int(PlanCache::CAPACITY as i64)),
                ("draws_per_block", J::Int(BLOCK as i64)),
                ("clients", J::Int(1)),
                ("loop", J::str("closed")),
            ]),
        ),
        (
            "oracle".into(),
            J::str("brute-force reference for multievent and dependency queries; relational baseline for anomaly queries"),
        ),
    ];

    let (metrics, tracers) = if !ctx.trace {
        alloc::reset_peak();
        let pass = run_pass(
            ws,
            &stores,
            &data.runners,
            ctx.derive(4),
            Stop::Elapsed(ctx.seconds),
            None,
            &mut ledger,
        );
        let peak_mb = alloc::peak_mb();
        let qps = ratio(pass.latencies_ms.len() as f64, pass.busy_s);
        let (hits, misses) = data
            .runners
            .iter()
            .map(QueryRunner::plan_cache_counters)
            .fold((0, 0), |a, c| (a.0 + c.0, a.1 + c.1));
        let p50 = median(&pass.latencies_ms);
        report.extend([
            ("setup_s".to_string(), setup_json(&setup_secs)),
            ("queries_per_s".into(), J::Num(qps)),
            (
                "query_p50_ms".into(),
                percentile_json(&pass.latencies_ms, 0.5),
            ),
            (
                "query_p99_ms".into(),
                percentile_json(&pass.latencies_ms, 0.99),
            ),
            ("peak_heap_mb".into(), J::Num(peak_mb)),
            ("blocks".into(), J::Int(pass.blocks as i64)),
            (
                "plan_cache".into(),
                J::obj([
                    ("hits", J::Int(hits as i64)),
                    ("misses", J::Int(misses as i64)),
                ]),
            ),
            ("setup_load".into(), load_json(&load)),
        ]);
        // The unit of work is a query, so the op metrics are the query
        // metrics.
        let metrics = vec![
            metric("setup_s", median(&setup_secs), "s"),
            metric("ops_per_s", qps, "1/s"),
            metric("op_p50_ms", p50, "ms"),
            metric("queries_per_s", qps, "1/s"),
            metric("query_p50_ms", p50, "ms"),
            metric("peak_heap_mb", peak_mb, "MB"),
        ];
        (metrics, Vec::new())
    } else {
        // Untraced, then the identical draw sequence traced, each on a
        // fresh warmed engine: their ratio is the tracing overhead.
        let plain = [QueryRunner::new(), QueryRunner::new()];
        ws.warm(&plain, &stores);
        let a = run_pass(
            ws,
            &stores,
            &plain,
            ctx.derive(4),
            Stop::Elapsed(ctx.pass_seconds()),
            None,
            &mut ledger,
        );
        let traced = [QueryRunner::new(), QueryRunner::new()];
        ws.warm(&traced, &stores);
        let mut tr = Tracer::new();
        let mut qc = QueryCounters::default();
        let b = run_pass(
            ws,
            &stores,
            &traced,
            ctx.derive(4),
            Stop::After(a.blocks),
            Some((&mut tr, &mut qc)),
            &mut ledger,
        );
        let self_ns = self_time_of(&[&tr, &setup_tr]);
        report.push(("traced_queries".into(), J::Int(b.latencies_ms.len() as i64)));
        let inputs = LayerInputs {
            self_ns,
            queries: qc,
            writes: loaded_writes(&stores, &traced_load),
            alloc_bytes_per_query: ratio(a.alloc_bytes as f64, a.latencies_ms.len() as f64),
            alloc_bytes_per_event: ratio(load.alloc_bytes as f64, load.events as f64),
            overhead_ratio: ratio(b.busy_s, a.busy_s),
        };
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
