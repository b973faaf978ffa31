//! The engine facade: parse → analyze → route → execute.

use aiql_lang::{parse_query, Query};
use aiql_storage::EventStore;

use crate::analyze;
use crate::anomaly;
use crate::error::EngineError;
use crate::exec::{ExecStats, MultieventExec};
use crate::governor::{ExecBudget, Governor};
use crate::result::ResultTable;

/// Engine tunables. Every domain-specific optimization can be switched off
/// individually, which is how the ablation benchmarks isolate their
/// contributions.
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// Worker threads for partition-parallel scans.
    pub parallelism: usize,
    /// Schedule patterns by estimated pruning power (vs. source order).
    pub prioritize_pruning: bool,
    /// Scan hypertable partitions in parallel.
    pub partition_parallel: bool,
    /// Resolve entity constraints against the dictionary and push the id
    /// sets into the event scans as posting-list lookups — the paper's
    /// per-pattern data-query synthesis. Without it, entity predicates are
    /// evaluated per scanned row (hash-join style).
    pub entity_pushdown: bool,
    /// Push bindings of executed patterns into later data queries.
    pub semi_join_pushdown: bool,
    /// Narrow scan windows using temporal relations and observed bounds.
    pub temporal_narrowing: bool,
    /// Carry ⟨partition, row⟩ references through candidate lists and the
    /// join, materializing events only for surviving tuples. Disabled, every
    /// scan copies full events and the join clones them (the seed's path).
    pub late_materialization: bool,
    /// Run parallel scans on a persistent worker pool. Disabled, every
    /// parallel scan spawns scoped threads (the seed's per-scan fan-out).
    pub scan_pool: bool,
    /// Use the process-wide shared scan executor (sized by
    /// `std::thread::available_parallelism`, spawned once per process)
    /// instead of a private per-engine pool. Per-query fan-out stays
    /// capped at `parallelism` either way; disabling this is the override
    /// for engines that need an isolated worker set of exactly
    /// `parallelism` threads.
    pub shared_scan_pool: bool,
    /// Run the multi-way join in parallel on the scan executor: the drive's
    /// seed runs are sharded over the workers and merged in ascending seed
    /// order, and large step indexes build in key-hash shards, so results
    /// are byte-identical to the serial join. Disabled, the whole join runs
    /// on the query thread.
    pub parallel_join: bool,
    /// Join fan-out override. 0 = auto: the drive shards its seed runs once
    /// the seed clears [`EngineConfig::parallel_join_min_work`] tuples, and
    /// a step index builds in `2 × parallelism` shards once its candidates
    /// clear [`EngineConfig::parallel_index_min_build`]. A non-zero value
    /// forces the parallel drive whenever the seed spans two or more runs,
    /// and exactly that many index shards (ablation and differential tests pin
    /// this).
    pub join_partitions: usize,
    /// Minimum seed size (tuples of the first joined pattern) before the
    /// join drive shards its seed runs in auto mode. Below this the
    /// fork/merge overhead outweighs the drive.
    pub parallel_join_min_work: usize,
    /// Minimum candidate-list size before a join step's hash-index *build*
    /// fans out into key-hash shards in auto mode. Below this the two-phase
    /// scatter/gather costs more than the serial insert loop.
    pub parallel_index_min_build: usize,
    /// Build join-step indexes with a time-bucket dimension: each key's
    /// posting list carries dense start/end columns plus per-chunk bucket
    /// zone maps (bucket width chosen from the candidate timestamp range at
    /// build time, surfaced in EXPLAIN). Probes compute the admissible
    /// start/end intervals from the tuple's already-placed events once, skip
    /// whole chunks whose buckets cannot satisfy the temporal relations, and
    /// verify survivors against the dense columns — instead of re-resolving
    /// time columns per (tuple, candidate) pair. Results are byte-identical
    /// either way.
    pub time_bucket_join: bool,
    /// Sideways filter pushdown: pattern scans publish bitmap filters over
    /// their candidates' join-key domains, and the join uses them to (a)
    /// drop build-side candidates no frontier tuple can probe, (b) skip
    /// probes whose key is absent from the step's candidate domain, and (c)
    /// shrink the seed frontier by the next pattern's domain before it is
    /// ever joined. All three are output-invisible: results (including
    /// truncation prefixes) are byte-identical with the flag off.
    pub sideways_filters: bool,
    /// Seed-frontier run size (in tuples) for the demand-driven blocked join
    /// drive, which takes the seed in runs of this many tuples and drives
    /// each run depth-first through every remaining step. The result is
    /// byte-identical across block sizes; smaller blocks bound live
    /// intermediate state more tightly, larger blocks amortize per-run
    /// overhead.
    pub join_block_tuples: usize,
    /// Memoize dictionary constraint resolutions and filter estimates in
    /// an LRU shared by every query this engine (and its clones) runs —
    /// repeated investigations skip the shared phase. Invalidation is
    /// partition-scoped: resolutions are guarded by the store's dictionary
    /// epoch, estimates by the ⟨partition, epoch⟩ dependencies they read,
    /// so cached plans survive ingest into partitions they never touched.
    pub plan_cache: bool,
    /// Compile return items, group keys, and aggregate arguments to dense
    /// variable/event slot indices before the tuple loop, replacing the
    /// per-tuple `RowCtx` hash maps with indexed flat arrays: only the
    /// event columns the projection reads are read, and distinct and group
    /// by hash typed keys instead of formatted strings.
    pub compiled_projection: bool,
    /// Minimum estimated scan size before partition-parallelism kicks in
    /// (thread fan-out is pure overhead for tiny scans).
    pub parallel_threshold: usize,
    /// Cap on intermediate join tuples (guard against pattern explosion).
    pub max_intermediate: usize,
    /// Wall-clock deadline per query in milliseconds; 0 disables. Tripping
    /// the deadline yields [`EngineError::DeadlineExceeded`] unless
    /// `partial_results` is on.
    pub deadline_ms: u64,
    /// Byte budget for in-flight intermediate state (candidate lists plus
    /// the join frontier); 0 disables. Tripping yields
    /// [`EngineError::MemoryBudget`] unless `partial_results` is on.
    pub memory_budget_bytes: u64,
    /// On a governor trip, return the prefix of results produced so far
    /// (flagged `truncated` with a [`crate::governor::Warning`]) instead
    /// of an error.
    pub partial_results: bool,
    /// Fault injection: panic inside a pooled scan worker. Exercises the
    /// panic-isolation path ([`EngineError::WorkerPanic`]) in tests; never
    /// set in production configs.
    pub inject_scan_panic: bool,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            parallelism: std::thread::available_parallelism()
                .map(|n| n.get().min(8))
                .unwrap_or(4),
            prioritize_pruning: true,
            partition_parallel: true,
            entity_pushdown: true,
            semi_join_pushdown: true,
            temporal_narrowing: true,
            late_materialization: true,
            scan_pool: true,
            shared_scan_pool: true,
            parallel_join: true,
            join_partitions: 0,
            parallel_join_min_work: 1024,
            parallel_index_min_build: 4096,
            time_bucket_join: true,
            sideways_filters: true,
            join_block_tuples: 4096,
            plan_cache: true,
            compiled_projection: true,
            parallel_threshold: 8_192,
            max_intermediate: 4_000_000,
            deadline_ms: 0,
            memory_budget_bytes: 0,
            partial_results: false,
            inject_scan_panic: false,
        }
    }
}

impl EngineConfig {
    /// A configuration with every domain-specific optimization disabled —
    /// scheduling degrades to source order with no pushdown, mirroring how
    /// a general-purpose engine would execute the synthesized plan.
    pub fn unoptimized() -> Self {
        EngineConfig {
            parallelism: 1,
            prioritize_pruning: false,
            partition_parallel: false,
            entity_pushdown: false,
            semi_join_pushdown: false,
            temporal_narrowing: false,
            late_materialization: false,
            scan_pool: false,
            shared_scan_pool: false,
            parallel_join: false,
            join_partitions: 0,
            parallel_join_min_work: 1024,
            parallel_index_min_build: 4096,
            time_bucket_join: false,
            sideways_filters: false,
            join_block_tuples: 4096,
            plan_cache: false,
            compiled_projection: false,
            parallel_threshold: usize::MAX,
            max_intermediate: 4_000_000,
            deadline_ms: 0,
            memory_budget_bytes: 0,
            partial_results: false,
            inject_scan_panic: false,
        }
    }

    /// The execution budget implied by the configuration's governor
    /// tunables (`deadline_ms`, `memory_budget_bytes`, `partial_results`).
    /// Unlimited when none are set.
    pub fn budget(&self) -> crate::governor::ExecBudget {
        let mut b =
            crate::governor::ExecBudget::unlimited().with_partial_results(self.partial_results);
        if self.deadline_ms > 0 {
            b = b.with_deadline(std::time::Duration::from_millis(self.deadline_ms));
        }
        if self.memory_budget_bytes > 0 {
            b = b.with_memory_bytes(self.memory_budget_bytes);
        }
        b
    }
}

/// The AIQL query engine.
#[derive(Debug, Clone, Default)]
pub struct Engine {
    config: EngineConfig,
    /// Persistent scan pool, spawned lazily on the first parallel query.
    /// The cell itself is shared, so clones of an engine — whenever they
    /// were made — use one pool.
    pool: std::sync::Arc<std::sync::OnceLock<std::sync::Arc<crate::pool::ScanPool>>>,
    /// Cross-query plan-resolution cache, shared by clones the same way.
    plan_cache: std::sync::Arc<crate::schedule::PlanCache>,
}

impl Engine {
    /// Creates an engine with the given configuration.
    pub fn new(config: EngineConfig) -> Self {
        Engine {
            config,
            pool: std::sync::Arc::new(std::sync::OnceLock::new()),
            plan_cache: std::sync::Arc::new(crate::schedule::PlanCache::default()),
        }
    }

    /// The active configuration.
    pub fn config(&self) -> &EngineConfig {
        &self.config
    }

    /// The plan-resolution cache handle, if the configuration wants one.
    fn cache(&self) -> Option<std::sync::Arc<crate::schedule::PlanCache>> {
        self.config.plan_cache.then(|| self.plan_cache.clone())
    }

    /// The persistent scan pool handle, if the configuration wants one:
    /// the process-wide shared executor by default, or a private pool of
    /// exactly `parallelism` workers when `shared_scan_pool` is off.
    fn pool(&self) -> Option<std::sync::Arc<crate::pool::ScanPool>> {
        if !self.config.scan_pool || !self.config.partition_parallel || self.config.parallelism <= 1
        {
            return None;
        }
        if self.config.shared_scan_pool {
            return Some(crate::pool::shared());
        }
        Some(
            self.pool
                .get_or_init(|| {
                    std::sync::Arc::new(crate::pool::ScanPool::new(self.config.parallelism))
                })
                .clone(),
        )
    }

    /// `(hits, misses)` of the engine's plan-resolution cache, for tests
    /// and benches asserting cache behavior (e.g. that a cached plan
    /// survives an ingest into a partition it never read).
    pub fn plan_cache_counters(&self) -> (u64, u64) {
        self.plan_cache.counters()
    }

    /// The governor for a budget: `Some` only when the budget actually
    /// limits something, so unbudgeted queries keep the zero-overhead
    /// ungoverned path.
    fn governor(&self, budget: &ExecBudget) -> Option<std::sync::Arc<Governor>> {
        budget
            .is_limited()
            .then(|| std::sync::Arc::new(Governor::new(budget)))
    }

    /// Parses and executes AIQL query text against a store.
    pub fn execute_text(
        &self,
        store: &EventStore,
        source: &str,
    ) -> Result<ResultTable, EngineError> {
        let query = parse_query(source)?;
        self.execute(store, &query)
    }

    /// Parses and executes AIQL query text under an explicit execution
    /// budget (see [`Engine::execute_with_budget`]).
    pub fn execute_text_with_budget(
        &self,
        store: &EventStore,
        source: &str,
        budget: &ExecBudget,
    ) -> Result<ResultTable, EngineError> {
        let query = parse_query(source)?;
        self.execute_with_budget(store, &query, budget)
    }

    /// Executes a parsed query under the configuration's implied budget
    /// (`deadline_ms` / `memory_budget_bytes` / `partial_results`; all off
    /// by default, i.e. ungoverned).
    pub fn execute(&self, store: &EventStore, query: &Query) -> Result<ResultTable, EngineError> {
        self.execute_with_budget(store, query, &self.config.budget())
    }

    /// Executes a parsed query under an explicit execution budget: a
    /// wall-clock deadline, a cooperative [`crate::governor::CancelToken`],
    /// and/or a byte budget on intermediate state, checked cooperatively
    /// at batch boundaries throughout the pipeline. With
    /// `partial_results`, a tripped budget returns the prefix of results
    /// produced so far (flagged with a warning) instead of an error.
    ///
    /// Anomaly queries run their aggregation loop ungoverned for now: their
    /// per-partition pass has no intermediate frontier to budget, so only
    /// multievent and dependency queries consult the governor.
    pub fn execute_with_budget(
        &self,
        store: &EventStore,
        query: &Query,
        budget: &ExecBudget,
    ) -> Result<ResultTable, EngineError> {
        match query {
            Query::Multievent(m) => {
                let a = analyze::analyze_multievent(m, store)?;
                MultieventExec::new(store, &a, &self.config)
                    .with_pool(self.pool())
                    .with_plan_cache(self.cache())
                    .with_governor(self.governor(budget))
                    .run()
            }
            Query::Dependency(d) => {
                // §2.3: compile to a semantically equivalent multievent query.
                let m = aiql_lang::dependency_to_multievent(d)?;
                let a = analyze::analyze_multievent(&m, store)?;
                MultieventExec::new(store, &a, &self.config)
                    .with_pool(self.pool())
                    .with_plan_cache(self.cache())
                    .with_governor(self.governor(budget))
                    .run()
            }
            Query::Anomaly(anom) => {
                let a = analyze::analyze_anomaly(anom, store)?;
                anomaly::run_anomaly_pooled(store, &a, &self.config, self.pool())
            }
        }
    }

    /// Executes a multievent query and returns execution statistics
    /// (pattern order, per-pattern fetch counts) for benchmarking.
    pub fn execute_multievent_with_stats(
        &self,
        store: &EventStore,
        m: &aiql_lang::MultieventQuery,
    ) -> Result<(ResultTable, ExecStats), EngineError> {
        let a = analyze::analyze_multievent(m, store)?;
        MultieventExec::new(store, &a, &self.config)
            .with_pool(self.pool())
            .with_plan_cache(self.cache())
            .with_governor(self.governor(&self.config.budget()))
            .run_with_stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clones_share_one_scan_pool_even_before_first_use() {
        let e1 = Engine::new(EngineConfig {
            parallelism: 2,
            shared_scan_pool: false, // exercise the private-pool override
            ..EngineConfig::default()
        });
        let e2 = e1.clone(); // cloned before the pool ever spun up
        let p1 = e1.pool().expect("parallel config wants a pool");
        let p2 = e2.pool().expect("parallel config wants a pool");
        assert!(std::sync::Arc::ptr_eq(&p1, &p2));
    }

    #[test]
    fn independent_engines_share_the_process_wide_pool() {
        let e1 = Engine::new(EngineConfig {
            parallelism: 2,
            ..EngineConfig::default()
        });
        let e2 = Engine::new(EngineConfig {
            parallelism: 4,
            ..EngineConfig::default()
        });
        let p1 = e1.pool().expect("parallel config wants a pool");
        let p2 = e2.pool().expect("parallel config wants a pool");
        assert!(
            std::sync::Arc::ptr_eq(&p1, &p2),
            "default-config engines must use one process-wide executor"
        );
        // A private-pool engine opts out of the shared executor.
        let private = Engine::new(EngineConfig {
            parallelism: 2,
            shared_scan_pool: false,
            ..EngineConfig::default()
        });
        let p3 = private.pool().expect("parallel config wants a pool");
        assert!(!std::sync::Arc::ptr_eq(&p1, &p3));
        assert_eq!(p3.threads(), 2);
    }

    #[test]
    fn serial_config_gets_no_pool() {
        let e = Engine::new(EngineConfig {
            parallelism: 1,
            ..EngineConfig::default()
        });
        assert!(e.pool().is_none());
        let unopt = Engine::new(EngineConfig::unoptimized());
        assert!(unopt.pool().is_none());
    }
}
