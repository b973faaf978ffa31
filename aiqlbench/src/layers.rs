//! Calls into the system's layers, untraced and traced.
//!
//! The untraced path is what a user runs: `Engine::execute_text` for a
//! query; WAL append and commit, then `SharedStore::write(ingest_all)`, for
//! a batch. The traced path makes the
//! same work visible layer by layer through the crates' public APIs —
//! `aiql_lang::parse_query`, `aiql_engine::analyze_*`,
//! `schedule::prepare`, `MultieventExec::run_with_stats`,
//! `anomaly::run_anomaly_pooled` — and turns the returned `OpStat`s into
//! child spans. Its one deviation: `run_with_stats` repeats the shared
//! phase that the traced `schedule.resolve` call just performed, and that
//! repeat is answered from the plan cache, so it lands in
//! `schedule.exec_self_us`.

use std::sync::Arc;
use std::time::Instant;

use aiql_engine::exec::{ExecStats, MultieventExec};
use aiql_engine::pool::{self, ScanPool};
use aiql_engine::schedule::{self, PlanCache};
use aiql_engine::{analyze, anomaly, CancelToken, Engine, EngineConfig, EngineError, ResultTable};
use aiql_lang::{parse_query, Query};
use aiql_storage::{
    EventStore, MaintenanceExecutor, RawEvent, SharedStore, StoreConfig, Wal, WalError,
};

use crate::trace::Tracer;

/// Work counters summed over traced queries.
#[derive(Debug, Default, Clone)]
pub struct QueryCounters {
    pub queries: u64,
    pub anomaly_queries: u64,
    pub cache_hits: u64,
    pub cache_misses: u64,
    pub scan_rows_in: u64,
    pub scan_rows_out: u64,
    pub join_probes: u64,
    pub join_probe_hits: u64,
    pub join_bucket_skipped: u64,
    pub join_emitted: u64,
    pub join_rows_out: u64,
    pub project_rows_in: u64,
    pub project_rows_out: u64,
}

/// A default-configured engine plus the pieces the traced path needs to
/// drive its layers by hand: a plan cache and the scan pool the engine
/// itself would use.
pub struct QueryRunner {
    engine: Engine,
    config: EngineConfig,
    cache: Arc<PlanCache>,
    pool: Option<Arc<ScanPool>>,
}

impl QueryRunner {
    pub fn new() -> Self {
        let config = EngineConfig::default();
        // Mirrors `Engine`'s own choice for a default configuration.
        let pool = (config.scan_pool && config.partition_parallel && config.parallelism > 1)
            .then(pool::shared);
        QueryRunner {
            engine: Engine::new(config.clone()),
            config,
            cache: Arc::new(PlanCache::default()),
            pool,
        }
    }

    /// Query text in, result table out, as a user runs it.
    pub fn run(&self, store: &EventStore, text: &str) -> Result<ResultTable, EngineError> {
        self.engine.execute_text(store, text)
    }

    /// `(hits, misses)` of the engine's own plan cache.
    pub fn plan_cache_counters(&self) -> (u64, u64) {
        self.engine.plan_cache_counters()
    }

    /// The same query, one span per layer call.
    pub fn run_traced(
        &self,
        tr: &mut Tracer,
        c: &mut QueryCounters,
        store: &EventStore,
        text: &str,
    ) -> Result<ResultTable, EngineError> {
        c.queries += 1;
        let query = tr.span("lang.parse", |_| -> Result<_, EngineError> {
            Ok(match parse_query(text)? {
                Query::Dependency(d) => Query::Multievent(aiql_lang::dependency_to_multievent(&d)?),
                q => q,
            })
        })?;
        let m = match query {
            Query::Multievent(m) => m,
            Query::Anomaly(q) => {
                c.anomaly_queries += 1;
                let a = tr.span("analyze", |_| analyze::analyze_anomaly(&q, store))?;
                return tr.span("anomaly", |_| {
                    anomaly::run_anomaly_pooled(store, &a, &self.config, self.pool.clone())
                });
            }
            Query::Dependency(_) => unreachable!("rewritten while parsing"),
        };
        let a = tr.span("analyze", |_| analyze::analyze_multievent(&m, store))?;
        let (h0, m0) = self.cache.counters();
        tr.span("schedule.resolve", |_| {
            schedule::prepare(&a, store, self.config.prioritize_pruning, Some(&self.cache))
        });
        let (h1, m1) = self.cache.counters();
        c.cache_hits += h1 - h0;
        c.cache_misses += m1 - m0;
        let out = tr.span("schedule.execute", |_| {
            MultieventExec::new(store, &a, &self.config)
                .with_pool(self.pool.clone())
                .with_plan_cache(Some(self.cache.clone()))
                .run_with_stats()
        });
        let (table, stats) = out?;
        record_operators(tr, c, &stats);
        Ok(table)
    }
}

/// Lays the executed operators out as children of the `schedule.execute`
/// span just closed. Operators run one after another at the end of the
/// call (after the shared phase), so they are placed back to back, ending
/// where the call ended.
fn record_operators(tr: &mut Tracer, c: &mut QueryCounters, stats: &ExecStats) {
    let Some((parent, exec)) = tr.last("schedule.execute") else {
        return;
    };
    let total: u64 = stats.ops.iter().map(|o| o.nanos).sum();
    let mut at = exec.end.saturating_sub(total).max(exec.start);
    for op in &stats.ops {
        let name = match op.kind {
            "PatternScan" | "SemiJoinNarrow" => "scan",
            "TemporalJoin" => "join",
            "Aggregate" => "aggregate",
            _ => "project",
        };
        let idx = tr.record(name, at, at + op.nanos, parent);
        match op.kind {
            "PatternScan" => {
                c.scan_rows_in += op.rows_in as u64;
                c.scan_rows_out += op.rows_out as u64;
            }
            "TemporalJoin" => {
                // Parallel steps report summed worker time; clip to the
                // operator's own wall time.
                let build = op.build_nanos.min(op.nanos);
                let probe = op.probe_nanos.min(op.nanos - build);
                tr.record("join.build", at, at + build, idx);
                tr.record("join.probe", at + build, at + build + probe, idx);
                c.join_probes += op.join_steps.iter().map(|s| s.probes).sum::<u64>();
                c.join_probe_hits += op.probe_hits;
                c.join_bucket_skipped += op.bucket_skipped;
                // Only the blocked drive counts emitted tuples.
                if op.emitted_tuples > 0 {
                    c.join_emitted += op.emitted_tuples;
                    c.join_rows_out += op.rows_out as u64;
                }
            }
            "Project" | "Aggregate" => {
                c.project_rows_in += op.rows_in as u64;
                c.project_rows_out += op.rows_out as u64;
            }
            _ => {}
        }
        at += op.nanos;
    }
}

/// Events per bulk-load batch: half the store's auto-commit batch, so
/// every batch ends in exactly one explicit commit.
pub const LOAD_BATCH: usize = 4096;

/// A snapshot-mode store with maintenance on the shared scan pool, wired
/// the way `QueryService` wires it.
pub fn shared_store(store: EventStore) -> SharedStore {
    let shared = SharedStore::new(store);
    let maintenance: Arc<dyn MaintenanceExecutor> = pool::shared();
    shared.set_maintenance(maintenance, CancelToken::new());
    shared
}

/// One batch through the write path: `Wal::append` per event and
/// `Wal::commit`, then `SharedStore::write(ingest_all)`. Traced, the store
/// write's closure makes the same `ingest` and `commit` calls as
/// `ingest_all`, so the `store.write` span's self time is the snapshot
/// publish.
pub fn write_batch(
    wal: &mut Wal,
    shared: &SharedStore,
    batch: &[RawEvent],
    tr: Option<&mut Tracer>,
) -> Result<(), WalError> {
    let Some(tr) = tr else {
        for raw in batch {
            wal.append(raw)?;
        }
        wal.commit()?;
        shared.write(|s| s.ingest_all(batch));
        return Ok(());
    };
    tr.operation("batch", |tr| {
        tr.span("wal.append", |_| {
            batch.iter().try_for_each(|raw| wal.append(raw))
        })?;
        tr.span("wal.commit", |_| wal.commit())?;
        tr.span("store.write", |tr| {
            shared.write(|s| {
                tr.span("ingest", |_| batch.iter().for_each(|r| s.ingest(r)));
                tr.span("commit", |_| s.commit());
            })
        });
        Ok(())
    })
}

/// Bulk-load measurements.
#[derive(Debug, Default, Clone)]
pub struct LoadStats {
    pub events: u64,
    pub seconds: f64,
    pub batch_ms: Vec<f64>,
    /// Bytes the loading thread allocated.
    pub alloc_bytes: u64,
    pub wal_bytes: u64,
}

impl LoadStats {
    pub fn absorb(&mut self, other: LoadStats) {
        self.events += other.events;
        self.seconds += other.seconds;
        self.batch_ms.extend(other.batch_ms);
        self.alloc_bytes += other.alloc_bytes;
        self.wal_bytes += other.wal_bytes;
    }
}

/// Loads `raws` into a fresh default-configured store through the write
/// path ([`write_batch`]) in [`LOAD_BATCH`] batches, logging to a temporary
/// WAL that is removed afterwards.
pub fn bulk_load(
    raws: &[RawEvent],
    stats: &mut LoadStats,
    mut tr: Option<&mut Tracer>,
) -> SharedStore {
    let path = crate::out_dir().join(format!("load-{}.wal", std::process::id()));
    let mut wal = Wal::create(&path).expect("create the set-up WAL");
    let shared = shared_store(EventStore::new(StoreConfig::default()));
    let alloc0 = crate::alloc::thread_bytes();
    for batch in raws.chunks(LOAD_BATCH) {
        let t0 = Instant::now();
        write_batch(&mut wal, &shared, batch, tr.as_deref_mut()).expect("write the set-up WAL");
        let dt = t0.elapsed().as_secs_f64();
        stats.seconds += dt;
        stats.batch_ms.push(dt * 1e3);
    }
    stats.events += raws.len() as u64;
    stats.alloc_bytes += crate::alloc::thread_bytes() - alloc0;
    drop(wal);
    stats.wal_bytes += std::fs::metadata(&path).map_or(0, |m| m.len());
    let _ = std::fs::remove_file(&path);
    shared
}
