//! `ingest`: writes beside reads. Set-up loads the first half of the demo
//! scenario; then, cycle after cycle, one writer streams the second half
//! in 512-event batches — WAL append, WAL commit, `SharedStore::write` —
//! into a snapshot-mode store while one reader runs the analyst's mix on
//! pinned snapshots.

use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Instant;

use aiql_sim::{demo_queries, scenario_demo, Scale};
use aiql_storage::{EventStore, RawEvent, Wal};

use crate::adhoc::{aiql_date, lookups};
use crate::check::{same, Ledger};
use crate::investigate::{adhoc_items, catalog_items, check_items, timed_query, Item, Workset};
use crate::layers::{bulk_load, shared_store, write_batch, LoadStats, QueryCounters, QueryRunner};
use crate::mix::{Draw, Mix};
use crate::report::{
    anomaly_json, metric, per_layer, percentile_json, setup_json, LayerInputs, WriteCounters, J,
};
use crate::stats::{median, ratio};
use crate::trace::{self_time_of, Tracer};
use crate::{alloc, out_dir, setup, Ctx, Outcome, Stop};

/// Events per streamed batch: the cadence monitoring agents ship at.
const STREAM_BATCH: usize = 512;
const ADHOC: usize = 384;
/// What `Wal::commit` guarantees, stated in every result.
const WAL_FLUSH_POLICY: &str =
    "one Wal::commit per 512-event batch: flushes buffered frames to the OS (write), no fsync";

struct Data {
    /// The store after set-up: the first half of the scenario.
    template: EventStore,
    /// The second half, streamed every cycle.
    tail: Vec<RawEvent>,
    /// The reader's mix (no expected answers: the store moves under it).
    ws: Workset,
    runner: QueryRunner,
}

fn build(ctx: &Ctx, load: &mut LoadStats, tr: Option<&mut Tracer>) -> Data {
    let scale = Scale {
        seed: ctx.derive(1),
        ..Scale::bench()
    };
    let sc = scenario_demo(scale);
    let (head, tail) = sc.raws.split_at(sc.raws.len() / 2);
    // The writer's own store, not a snapshot: snapshots carry a read-only
    // dictionary without the dedup map a writer needs.
    let template = bulk_load(head, load, tr).write(|s| s.clone());
    let ws = Workset {
        catalog: catalog_items(demo_queries(), 0),
        adhoc: adhoc_items(
            lookups(&sc.raws, &aiql_date(sc.day), ctx.derive(2), ADHOC),
            0,
        ),
    };
    let runner = QueryRunner::new();
    ws.warm(std::slice::from_ref(&runner), &[&template]);
    Data {
        template,
        tail: tail.to_vec(),
        ws,
        runner,
    }
}

/// The reader's position in its draw sequence, carried across cycles.
struct ReaderState {
    mix: Mix,
    pending: Vec<Draw>,
}

impl ReaderState {
    fn next(&mut self) -> Draw {
        if self.pending.is_empty() {
            self.pending = self.mix.next_block();
            self.pending.reverse();
        }
        self.pending.pop().expect("blocks are non-empty")
    }
}

#[derive(Default)]
struct Cycle {
    batch_ms: Vec<f64>,
    write_s: f64,
    reader_ms: Vec<f64>,
    reader_busy_s: f64,
    writer_alloc: u64,
    reader_alloc: u64,
    writes: WriteCounters,
}

/// One streaming cycle: a fresh copy of the set-up store, the whole tail
/// streamed against a concurrent reader, then the durability and
/// equivalence checks. Fails only when the WAL cannot be created.
#[allow(clippy::too_many_arguments)]
fn cycle(
    data: &Data,
    reference: &[Item],
    checker: &QueryRunner,
    reader: &mut ReaderState,
    ledger: &mut Ledger,
    checks: &mut Ledger,
    mut traced: Option<(&mut Tracer, &mut Tracer, &mut QueryCounters)>,
) -> Result<Cycle, String> {
    let mut out = Cycle::default();
    let mut store = data.template.clone();
    // Take sole ownership of the dictionary before timing starts: a
    // streaming writer never shares it with a set-up template.
    store.entities_mut();
    let dedup0 = store.stats().entity_dedup_hits;
    let dict0 = store.dict_epoch();
    let shared = shared_store(store);
    let wal_path = out_dir().join(format!("ingest-{}.wal", std::process::id()));
    let mut wal = Wal::create(&wal_path).map_err(|e| format!("wal create: {e}"))?;

    let done = AtomicBool::new(false);
    let (writer_tr, reader_tr) = match traced.as_mut() {
        Some((w, r, c)) => (Some(&mut **w), Some((&mut **r, &mut **c))),
        None => (None, None),
    };
    let alloc0 = alloc::total_bytes();
    let writer0 = alloc::thread_bytes();
    let reader_ledger = std::thread::scope(|s| {
        let handle = s.spawn(|| {
            let mut l = Ledger::default();
            let mut reader_tr = reader_tr;
            let mut ms = Vec::new();
            while !done.load(Ordering::Acquire) {
                let item = data.ws.item(reader.next());
                let snap = shared.snapshot();
                let t = reader_tr.as_mut().map(|(tr, c)| (&mut **tr, &mut **c));
                ms.push(timed_query(item, &snap, &data.runner, t, &mut l));
            }
            (l, ms)
        });
        let mut writer_tr = writer_tr;
        let started = Instant::now();
        for batch in data.tail.chunks(STREAM_BATCH) {
            let t0 = Instant::now();
            ledger.run(
                "batch",
                || {
                    write_batch(&mut wal, &shared, batch, writer_tr.as_deref_mut())
                        .map_err(|e| e.to_string())
                },
                |_| Ok(()),
            );
            out.batch_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        }
        out.write_s = started.elapsed().as_secs_f64();
        done.store(true, Ordering::Release);
        handle.join().expect("reader thread ends")
    });
    out.writer_alloc = alloc::thread_bytes() - writer0;
    out.reader_alloc = (alloc::total_bytes() - alloc0).saturating_sub(out.writer_alloc);
    let (reader_ledger, reader_ms) = reader_ledger;
    out.reader_busy_s = reader_ms.iter().sum::<f64>() / 1e3;
    out.reader_ms = reader_ms;
    ledger.absorb(reader_ledger);

    // Equivalence: the raced store answers the catalog exactly as the
    // store that committed the same batches serially.
    for item in reference {
        let Some(want) = item.expect else { continue };
        checks.run(
            &format!("{} (raced store)", item.label),
            || {
                shared
                    .read(|s| checker.run(s, &item.text))
                    .map_err(|e| e.to_string())
            },
            |t| same(want, t),
        );
    }
    // Durability: the WAL replays exactly the committed batches.
    drop(wal);
    let batches: Vec<&[RawEvent]> = data.tail.chunks(STREAM_BATCH).collect();
    checks.run(
        "wal replay",
        || Wal::replay_report(&wal_path).map_err(|e| e.to_string()),
        |r| {
            let exact = r.batches.len() == batches.len()
                && r.batches.iter().zip(&batches).all(|(got, want)| got.as_slice() == *want);
            if exact && r.uncommitted.is_empty() && !r.torn() {
                Ok(())
            } else {
                Err(format!(
                    "{} batches / {} events replayed, {} uncommitted, {} bytes dropped; {} batches / {} events committed",
                    r.batches.len(),
                    r.committed_events(),
                    r.uncommitted.len(),
                    r.dropped_bytes,
                    batches.len(),
                    data.tail.len()
                ))
            }
        },
    );
    let stats = shared.stats();
    out.writes = WriteCounters {
        events: data.tail.len() as u64,
        batches: batches.len() as u64,
        runs: 1,
        entity_dedup_hits: stats.entity_dedup_hits - dedup0,
        dict_epochs: shared.read(|s| s.dict_epoch()) - dict0,
        segments: stats.segments,
        max_partition_segments: stats.max_partition_segments,
        reader_stalls: stats.reader_stalls,
        wal_bytes: std::fs::metadata(&wal_path).map_or(0, |m| m.len()),
    };
    let _ = std::fs::remove_file(&wal_path);
    Ok(out)
}

/// Streaming cycles, folded together; elapsed time is writer time.
#[allow(clippy::too_many_arguments)]
fn run_cycles(
    data: &Data,
    reference: &[Item],
    reader: &mut ReaderState,
    stop: Stop,
    ledger: &mut Ledger,
    checks: &mut Ledger,
    mut traced: Option<(&mut Tracer, &mut Tracer, &mut QueryCounters)>,
) -> (Cycle, usize) {
    let checker = QueryRunner::new();
    let mut total = Cycle::default();
    let mut n = 0;
    while !match stop {
        Stop::Elapsed(s) => total.write_s >= s,
        Stop::After(c) => n >= c,
    } {
        let t = traced
            .as_mut()
            .map(|(w, r, c)| (&mut **w, &mut **r, &mut **c));
        let c = match cycle(data, reference, &checker, reader, ledger, checks, t) {
            Ok(c) => c,
            Err(e) => {
                checks.attempted += 1;
                checks.fail("cycle", e);
                break;
            }
        };
        total.batch_ms.extend(c.batch_ms);
        total.write_s += c.write_s;
        total.reader_ms.extend(c.reader_ms);
        total.reader_busy_s += c.reader_busy_s;
        total.writer_alloc += c.writer_alloc;
        total.reader_alloc += c.reader_alloc;
        let (w, cw) = (&mut total.writes, c.writes);
        w.events += cw.events;
        w.batches += cw.batches;
        w.runs += cw.runs;
        w.entity_dedup_hits += cw.entity_dedup_hits;
        w.dict_epochs += cw.dict_epochs;
        w.reader_stalls += cw.reader_stalls;
        w.wal_bytes += cw.wal_bytes;
        w.segments = cw.segments;
        w.max_partition_segments = cw.max_partition_segments;
        n += 1;
    }
    (total, n)
}

pub fn run(ctx: &Ctx) -> Outcome {
    // The write layers are traced while streaming, not in set-up.
    let set = setup(ctx, |load, _| build(ctx, load, None));
    let (data, setup_secs) = (set.data, set.secs);
    let mut checks = Ledger::default();

    // The serially committed reference: same batches, no concurrency.
    let mut reference = data.template.clone();
    for batch in data.tail.chunks(STREAM_BATCH) {
        reference.ingest_all(batch);
    }
    let mut expected = catalog_items(demo_queries(), 0);
    check_items(
        expected.iter_mut(),
        &[&reference],
        std::slice::from_ref(&data.runner),
        &mut checks,
    );
    drop(reference);

    let mut ledger = Ledger::default();
    let mut reader = ReaderState {
        mix: Mix::new(data.ws.catalog.len(), data.ws.adhoc.len(), ctx.derive(4)),
        pending: Vec::new(),
    };
    let mut report = vec![
        (
            "scale".to_string(),
            J::obj([
                ("hosts", J::Int(Scale::bench().hosts as i64)),
                ("events_per_host", J::Int(Scale::bench().events_per_host as i64)),
                ("data_seed", J::str(format!("{:#x}", ctx.derive(1)))),
                ("preloaded_events", J::Int(data.template.event_count() as i64)),
                ("streamed_events_per_cycle", J::Int(data.tail.len() as i64)),
                ("batch_events", J::Int(STREAM_BATCH as i64)),
                ("writers", J::Int(1)),
                ("readers", J::Int(1)),
                ("loop", J::str("closed")),
            ]),
        ),
        ("wal_flush_policy".into(), J::str(WAL_FLUSH_POLICY)),
        ("store".into(), J::str("SharedStore snapshot mode, default StoreConfig, maintenance on the shared scan pool")),
    ];

    let (metrics, tracers) = if !ctx.trace {
        alloc::reset_peak();
        let (c, cycles) = run_cycles(
            &data,
            &expected,
            &mut reader,
            Stop::Elapsed(ctx.seconds),
            &mut ledger,
            &mut checks,
            None,
        );
        let peak_mb = alloc::peak_mb();
        let qps = ratio(c.reader_ms.len() as f64, c.reader_busy_s);
        let eps = ratio(c.writes.events as f64, c.write_s);
        report.extend([
            ("setup_s".to_string(), setup_json(&setup_secs)),
            ("cycles".into(), J::Int(cycles as i64)),
            ("queries_per_s".into(), J::Num(qps)),
            ("query_p50_ms".into(), percentile_json(&c.reader_ms, 0.5)),
            ("query_p99_ms".into(), percentile_json(&c.reader_ms, 0.99)),
            ("ingest_events_per_s".into(), J::Num(eps)),
            ("commit_p50_ms".into(), percentile_json(&c.batch_ms, 0.5)),
            ("commit_p99_ms".into(), percentile_json(&c.batch_ms, 0.99)),
            ("peak_heap_mb".into(), J::Num(peak_mb)),
        ]);
        // The unit of work is a 512-event batch: WAL append and commit,
        // then the store write.
        let metrics = vec![
            metric("setup_s", median(&setup_secs), "s"),
            metric(
                "ops_per_s",
                ratio(c.batch_ms.len() as f64, c.write_s),
                "1/s",
            ),
            metric("op_p50_ms", median(&c.batch_ms), "ms"),
            metric("queries_per_s", qps, "1/s"),
            metric("query_p50_ms", median(&c.reader_ms), "ms"),
            metric("peak_heap_mb", peak_mb, "MB"),
        ];
        (metrics, Vec::new())
    } else {
        let (a, cycles) = run_cycles(
            &data,
            &expected,
            &mut reader,
            Stop::Elapsed(ctx.pass_seconds()),
            &mut ledger,
            &mut checks,
            None,
        );
        let (mut wtr, mut rtr, mut qc) = (Tracer::new(), Tracer::new(), QueryCounters::default());
        let (b, _) = run_cycles(
            &data,
            &expected,
            &mut reader,
            Stop::After(cycles),
            &mut ledger,
            &mut checks,
            Some((&mut wtr, &mut rtr, &mut qc)),
        );
        let self_ns = self_time_of(&[&wtr, &rtr]);
        report.push(("cycles".into(), J::Int(cycles as i64)));
        let mean = |c: &Cycle| ratio(c.batch_ms.iter().sum(), c.batch_ms.len() as f64);
        let overhead_ratio = ratio(mean(&b), mean(&a));
        let inputs = LayerInputs {
            self_ns,
            queries: qc,
            writes: b.writes,
            alloc_bytes_per_query: ratio(a.reader_alloc as f64, a.reader_ms.len() as f64),
            alloc_bytes_per_event: ratio(a.writer_alloc as f64, a.writes.events as f64),
            overhead_ratio,
        };
        report.push(("anomaly".into(), anomaly_json(&inputs)));
        (per_layer(&inputs), vec![wtr, rtr])
    };
    Outcome {
        ledger,
        checks,
        metrics,
        report,
        tracers,
    }
}
