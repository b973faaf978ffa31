//! `TemporalJoin`: the multi-way hash join over per-pattern candidate
//! batches, verifying shared-variable equality and temporal relationships.
//!
//! Patterns join smallest-candidate-list first, each later pick connected
//! to the placed ones. Every step indexes its pattern's candidates by the
//! entity ids of the variables the placed patterns already bind (a pattern
//! binds at most two variables, so the key packs into one `u64`). The
//! first (seed) step binds nothing: its index holds every candidate under
//! one key, which one proto tuple probes.
//!
//! ## The blocked demand-driven drive
//!
//! The reference (`EventRef`) join has one drive, for any pattern count.
//! Every step's index is built once, up front. The seed frontier is then
//! taken in runs of `join_block_tuples` seed tuples (slices of the proto
//! tuple's single bucket), and each run is driven depth-first through
//! *every* remaining step before the next run starts.
//!
//! Within a run the recursion is *chunked*: a non-final step consumes its
//! input frontier in [`EXPAND_CHUNK`]-tuple windows, probes one window
//! into the level's reused scratch arena (one **expansion**, capped at
//! `max_intermediate` tuples), and recurses on the expansion before the
//! next window runs. The final step appends straight into the drive's
//! output arena — survivors are never copied again. In a one-pattern join
//! the seed step is the final step, so each seed run appends straight into
//! the output. Windows run in input order and the recursion is
//! depth-first, so the output is in nested-loop emission order: the full
//! result whenever no cap trips, and a *prefix in nested-loop emission
//! order* of the untruncated result when `max_intermediate` (or a governor
//! budget) trips. The win is emission-bound queries: once the output cap
//! fills, every unconsumed window — and every remaining seed run — is
//! never driven at all, where a breadth-first drive would have
//! materialized cap-sized frontiers at every step first. Live intermediate
//! memory is bounded by the per-level scratch high-water marks instead of
//! whole-step frontiers.
//!
//! Cap/truncation semantics: the seed expansion is exempt from the
//! intermediate cap (it is bounded by the block size by construction,
//! which also keeps sideways seed pruning emission-invariant under
//! truncation); an expansion that hits `max_intermediate` is still
//! recursed on — its prefix's subtree finishes — and then cuts the run,
//! stopping the drive after it; the final step draws on the output
//! budget (`max_intermediate` across the whole drive): the exact
//! remaining room in the serial drive, the shared [`JoinBudget`] at run
//! granularity in the parallel one — runs merge in ascending seed order
//! with speculative overshoot trimmed, so both drives keep the same
//! prefix.
//!
//! Governor integration: a memory budget forces the serial drive, which
//! *live-charges* each expansion's bytes while its subtree runs and the
//! appended output permanently — a trip stops the drive at a
//! deterministic tuple (error mode unwinds, partial mode keeps the
//! emission-order prefix). Deadline/cancel trips are polled inside every
//! probe loop in both drives; the parallel merge drops a tripped run's
//! partial output and stops at the previous run boundary, while the
//! serial drive keeps its own partial emission (either way a valid
//! emission-order prefix).
//!
//! ## Parallel join
//!
//! With `EngineConfig::parallel_join`, a seed spanning two or more runs
//! (and at least `parallel_join_min_work` tuples) has its runs sharded
//! over the shared scan executor. Each run appends into a private arena;
//! runs merge back **in ascending seed order**, so the output is
//! byte-identical to the serial drive.
//!
//! For large candidate lists on steps with bound variables, the step's
//! hash index is itself built in parallel: candidates scatter into
//! key-hash shards on the executor, each shard's map is gathered in
//! candidate order, and probes hash to their shard ([`StepIndex`]) — the
//! index contents (and therefore the output) are byte-identical to the
//! serial build. `OpStat` splits the join's time into `build_nanos` vs
//! `probe_nanos` so the two parallelisms are separately visible.
//!
//! ## Probe reduction layers
//!
//! Two composable layers cut probe work without changing results:
//!
//! 1. **Time-bucketed indexes** (`EngineConfig::time_bucket_join`): steps
//!    with temporal relations to already-placed patterns build a
//!    [`StepIndex::Timed`] — posting lists carry dense start/end time
//!    columns plus per-chunk start-bucket zone maps over a [`BucketGrid`]
//!    sized from the candidate time range. The probe hoists each tuple's
//!    admissible start/end intervals out of the per-match loop (computed
//!    once from the placed events), skips whole chunks whose bucket zone
//!    cannot intersect, and verifies survivors against the dense time
//!    columns — no per-match partition `locate` or time-column re-read.
//! 2. **Sideways filter pushdown** (`EngineConfig::sideways_filters`):
//!    scans publish bitmap domains of their candidates' subject/object
//!    ids; the join prunes each step's build with the placed partners'
//!    domains, pre-filters probes against the step's own domains, and
//!    prunes the seed frontier with the second step's domains before any
//!    tuple exists. All pruned work counts into `filter_pruned`.
//!
//! The materializing path (`late_materialization = false`, the seed's
//! pipeline) joins `Event` batches breadth-first and serially, kept for
//! ablation.

use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use aiql_lang::TemporalOp;
use aiql_model::{EntityId, Event};
use aiql_storage::IdSet;

use crate::analyze::{AnalyzedMultievent, StepRel};
use crate::error::EngineError;
use crate::governor::{GovGate, Governor, Trip};
use crate::op::{
    worker_panic, Batch, EventRef, ExecEnv, Frontier, JoinStepStat, OpIo, Operator, PartTable,
    PipelineState, RefArena, Tuple, NO_REF, NO_VAR,
};

/// How many appended tuples a parallel seed run produces between refreshes
/// of its shared-budget cap. Bounds how far a run can overshoot the budget
/// before it notices earlier runs have already filled it.
const BUDGET_REFRESH: usize = 4096;

/// Target bucket count of a timed index's [`BucketGrid`]. The bucket width
/// is the candidate start-time range divided by this (floored to ≥ 1 µs),
/// so sparse steps get wide buckets and dense steps fine ones.
const TIME_BUCKETS: i64 = 256;

/// Posting-list refs covered by one zone-map entry of a timed index. The
/// probe skips a whole chunk when its (min, max) start-bucket zone cannot
/// intersect the tuple's admissible bucket range.
const BUCKET_CHUNK: usize = 64;

/// Ceiling on blocked-drive run count: with more seed tuples than
/// `MAX_RUNS × join_block_tuples`, the effective block grows instead. The
/// result is byte-identical across block sizes, and the clamp keeps the
/// shared output budget's prefix sums (O(runs) per refresh) cheap.
const MAX_RUNS: usize = 4096;

/// Input tuples per expansion window of the blocked drive's depth-first
/// recursion: each window probes one step into that level's reused scratch
/// arena and recurses on the result before the next window runs. Small
/// enough that live per-level expansions stay allocation-light, large
/// enough that the per-window bookkeeping (timers, cap trackers)
/// disappears against probe work.
const EXPAND_CHUNK: usize = 256;

/// The multi-way join operator.
#[derive(Debug, Clone, Copy, Default)]
pub struct TemporalJoin;

impl TemporalJoin {
    pub(crate) fn new() -> Self {
        TemporalJoin
    }
}

impl Operator for TemporalJoin {
    fn kind(&self) -> &'static str {
        "TemporalJoin"
    }

    fn run(&self, env: &ExecEnv<'_>, st: &mut PipelineState) -> Result<OpIo, EngineError> {
        if st.done {
            // A pattern came back empty: the frontier stays empty, and the
            // projection above produces the empty table.
            st.stats.tuples = 0;
            return Ok(OpIo::default());
        }
        let candidates = std::mem::take(&mut st.candidates);
        let rows_in: usize = candidates
            .iter()
            .map(|c| c.as_ref().map(Batch::len).unwrap_or(0))
            .sum();
        let late = matches!(candidates.first(), Some(Some(Batch::Refs(_))));
        let cand_bytes = rows_in as u64
            * if late {
                std::mem::size_of::<EventRef>() as u64
            } else {
                std::mem::size_of::<Event>() as u64
            };
        let (frontier, run) = if late {
            let lists: Vec<Vec<EventRef>> = candidates
                .into_iter()
                .map(|c| match c {
                    Some(Batch::Refs(v)) => v,
                    _ => unreachable!("late path fetched refs for every pattern"),
                })
                .collect();
            let (arena, run) = join_refs(env, lists, &st.domains)?;
            (Frontier::Refs(arena), run)
        } else {
            let lists: Vec<Vec<Event>> = candidates
                .into_iter()
                .map(|c| match c {
                    Some(Batch::Events(v)) => v,
                    _ => unreachable!("materializing path fetched events for every pattern"),
                })
                .collect();
            let (tuples, run) = join_events(env, lists)?;
            (Frontier::Events(tuples), run)
        };
        // The candidate batches the scans charged are consumed now; only
        // the frontier (charged per step inside the join) remains live.
        if let Some(g) = env.gov() {
            g.uncharge(cand_bytes);
        }
        st.truncated = run.truncated;
        st.stats.tuples = frontier.len();
        let rows_out = frontier.len();
        st.frontier = frontier;
        Ok(OpIo {
            rows_in,
            rows_out,
            fanout: run.fanout,
            build_nanos: run.build_nanos,
            probe_nanos: run.probe_nanos,
            probe_hits: run.probe_hits,
            bucket_skipped: run.bucket_skipped,
            filter_pruned: run.filter_pruned,
            runs_driven: run.runs_driven,
            emitted_tuples: run.emitted_tuples,
            breadth_bound_tuples: run.breadth_bound_tuples,
            early_exit_depth: run.early_exit_depth,
            join_steps: run.steps,
        })
    }
}

/// Aggregate accounting of one join execution: truncation, widest
/// worker/shard fan-out, the per-phase timing split (index builds vs
/// probes, summed over join steps), the probe-reduction counters, the
/// drive's emission counters, and the per-step breakdown for EXPLAIN
/// ANALYZE. The materializing join fills only the first four.
#[derive(Debug, Clone, Default)]
struct JoinRun {
    truncated: bool,
    fanout: usize,
    build_nanos: u64,
    probe_nanos: u64,
    probe_hits: u64,
    bucket_skipped: u64,
    filter_pruned: u64,
    /// Seed runs merged into the output.
    runs_driven: u64,
    /// Tuples appended across all merged runs' steps.
    emitted_tuples: u64,
    /// What a breadth-first drive would have emitted (exact when the drive
    /// completed; the per-step cap bound when it exited early).
    breadth_bound_tuples: u64,
    /// The step depth at which the drive stopped emitting (`None` = every
    /// run was driven to completion).
    early_exit_depth: Option<usize>,
    steps: Vec<JoinStepStat>,
}

/// Whether the drive may fan a seed of `seeds` tuples out over the scan
/// executor (it still needs at least two seed runs to do so).
fn fans_out(env: &ExecEnv<'_>, seeds: usize) -> bool {
    if !env.config.parallel_join || env.pool.is_none() {
        return false;
    }
    if env.config.join_partitions > 0 {
        // Explicit fan-out: force the parallel drive (tests and ablations
        // exercise tiny seeds through it).
        seeds >= 2
    } else {
        env.config.parallelism > 1 && seeds >= env.config.parallel_join_min_work
    }
}

/// Packs the at-most-two bound entity ids of a pattern into one `u64`
/// (`NO_VAR` pads the unused half).
#[inline]
fn pack(ids: [u32; 2]) -> u64 {
    (u64::from(ids[0]) << 32) | u64::from(ids[1])
}

/// SplitMix64 finalizer: spreads packed entity-id keys across shards (the
/// raw keys are dense small integers — `key % shards` would pile them up).
#[inline]
fn mix(mut x: u64) -> u64 {
    x ^= x >> 33;
    x = x.wrapping_mul(0xff51_afd7_ed55_8ccd);
    x ^= x >> 33;
    x = x.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
    x ^ (x >> 33)
}

/// The shard owning `key` in an `n`-shard index.
#[inline]
fn shard_of(key: u64, n: usize) -> usize {
    (mix(key) % n as u64) as usize
}

/// Like [`shard_of`], skipping the hash for single-shard indexes.
#[inline]
fn route(key: u64, n: usize) -> usize {
    if n == 1 {
        0
    } else {
        shard_of(key, n)
    }
}

/// One scatter chunk's output: a (key, ref) bucket per shard.
type ShardBuckets = Vec<Vec<(u64, EventRef)>>;

/// One timed scatter row: key, ref, and its start/end times in micros.
type TimedRow = (u64, EventRef, i64, i64);

/// One timed scatter chunk's output: a [`TimedRow`] bucket per shard.
type TimedShardBuckets = Vec<Vec<TimedRow>>;

/// Start-time bucket grid of a timed step index, sized at build time from
/// the candidate range ([`TIME_BUCKETS`] target buckets, width ≥ 1 µs).
/// `max_dur`/`min_dur` are the extreme candidate durations, folding the
/// probe's admissible *end* interval onto start buckets (a candidate with
/// `end ≥ elo` must have `start ≥ elo − max_dur`, and with `end ≤ ehi`
/// must have `start ≤ ehi − min_dur`).
#[derive(Debug, Clone, Copy)]
struct BucketGrid {
    /// Start-time origin: the smallest candidate start.
    base: i64,
    /// Bucket width in microseconds (≥ 1).
    width: i64,
    /// Bucket count covering the candidate start range.
    buckets: u32,
    /// Largest candidate duration (`end − start`), ≥ 0.
    max_dur: i64,
    /// Smallest candidate duration (may be 0; negative only on malformed
    /// events, which the fold then still covers soundly).
    min_dur: i64,
}

impl BucketGrid {
    /// Build-side bucket id of a candidate start in `[base, max_start]`.
    #[inline]
    fn bucket_of(&self, start: i64) -> u16 {
        (start.saturating_sub(self.base) / self.width) as u16
    }

    /// Probe-side bucket id of an arbitrary instant, clamped to the grid.
    #[inline]
    fn clamp(&self, t: i64) -> u16 {
        let b = t.saturating_sub(self.base) / self.width;
        b.clamp(0, i64::from(self.buckets - 1)) as u16
    }
}

/// Running start-time/duration aggregate of a timed index build, reduced
/// across scatter chunks before the grid is fixed.
#[derive(Debug, Clone, Copy)]
struct TimeAgg {
    min_start: i64,
    max_start: i64,
    max_dur: i64,
    min_dur: i64,
}

impl Default for TimeAgg {
    fn default() -> Self {
        TimeAgg {
            min_start: i64::MAX,
            max_start: i64::MIN,
            max_dur: 0,
            min_dur: 0,
        }
    }
}

impl TimeAgg {
    #[inline]
    fn add(&mut self, s: i64, e: i64) {
        self.min_start = self.min_start.min(s);
        self.max_start = self.max_start.max(s);
        let dur = e.saturating_sub(s);
        self.max_dur = self.max_dur.max(dur);
        self.min_dur = self.min_dur.min(dur);
    }

    fn merge(&mut self, o: &TimeAgg) {
        self.min_start = self.min_start.min(o.min_start);
        self.max_start = self.max_start.max(o.max_start);
        self.max_dur = self.max_dur.max(o.max_dur);
        self.min_dur = self.min_dur.min(o.min_dur);
    }

    /// The bucket grid covering the observed start range (a degenerate
    /// one-bucket grid when no candidate survived the build filter).
    fn grid(&self) -> BucketGrid {
        if self.min_start > self.max_start {
            return BucketGrid {
                base: 0,
                width: 1,
                buckets: 1,
                max_dur: 0,
                min_dur: 0,
            };
        }
        let range = self.max_start.saturating_sub(self.min_start);
        let width = (range / TIME_BUCKETS + 1).max(1);
        BucketGrid {
            base: self.min_start,
            width,
            buckets: (range / width + 1) as u32,
            max_dur: self.max_dur,
            min_dur: self.min_dur,
        }
    }
}

/// One key's posting list in a timed index: refs in candidate order with
/// their start/end times as dense columns (the probe's exact temporal
/// check reads these instead of re-resolving partition rows), plus a
/// (min, max) start-bucket zone per [`BUCKET_CHUNK`] refs for skipping.
#[derive(Debug, Default)]
struct Postings {
    refs: Vec<EventRef>,
    starts: Vec<i64>,
    ends: Vec<i64>,
    zones: Vec<(u16, u16)>,
}

impl Postings {
    #[inline]
    fn push(&mut self, r: EventRef, s: i64, e: i64, bucket: u16) {
        if self.refs.len().is_multiple_of(BUCKET_CHUNK) {
            self.zones.push((bucket, bucket));
        } else {
            let z = self.zones.last_mut().expect("zone entry exists");
            z.0 = z.0.min(bucket);
            z.1 = z.1.max(bucket);
        }
        self.refs.push(r);
        self.starts.push(s);
        self.ends.push(e);
    }
}

/// One join step's candidate hash index: key-hash shards (1 = serial
/// build) of plain ref lists, or — when the step has temporal relations
/// to placed patterns and `time_bucket_join` is on — of time-bucketed
/// [`Postings`]. Probes hash the key to its shard, so sharded and single
/// indexes answer identically; the build preserves candidate order within
/// every key's ref list (scatter chunks are contiguous candidate ranges
/// gathered in chunk order), so the probe traversal — and therefore the
/// joined frontier — is byte-identical to the serial build.
enum StepIndex {
    Plain(Vec<HashMap<u64, Vec<EventRef>>>),
    Timed {
        shards: Vec<HashMap<u64, Postings>>,
        grid: BucketGrid,
    },
}

impl StepIndex {
    /// Build fan-out used (1 = serial).
    fn shard_count(&self) -> usize {
        match self {
            StepIndex::Plain(s) => s.len(),
            StepIndex::Timed { shards, .. } => shards.len(),
        }
    }

    /// Posting-list length under `key` (sizes the first step's probe work).
    fn posting_len(&self, key: u64) -> usize {
        match self {
            StepIndex::Plain(shards) => shards[route(key, shards.len())]
                .get(&key)
                .map_or(0, Vec::len),
            StepIndex::Timed { shards, .. } => shards[route(key, shards.len())]
                .get(&key)
                .map_or(0, |p| p.refs.len()),
        }
    }

    /// Total refs across every posting (an upper bound on one frontier
    /// tuple's emission, used to size the output reservation).
    fn total_refs(&self) -> usize {
        match self {
            StepIndex::Plain(shards) => shards.iter().flat_map(HashMap::values).map(Vec::len).sum(),
            StepIndex::Timed { shards, .. } => shards
                .iter()
                .flat_map(HashMap::values)
                .map(|p| p.refs.len())
                .sum(),
        }
    }

    /// Time-bucket count (0 = untimed index).
    fn buckets(&self) -> u32 {
        match self {
            StepIndex::Plain(_) => 0,
            StepIndex::Timed { grid, .. } => grid.buckets,
        }
    }

    /// Bucket width in micros (0 = untimed index).
    fn bucket_width(&self) -> i64 {
        match self {
            StepIndex::Plain(_) => 0,
            StepIndex::Timed { grid, .. } => grid.width,
        }
    }
}

/// Shard count for building a step's index over `candidates` refs, or
/// `None` for the serial build. Sharding only pays when the step has bound
/// variables (`bound`): the first step's single proto bucket puts every
/// candidate under one key, where sharding is pure overhead.
fn index_shards(env: &ExecEnv<'_>, candidates: usize, bound: bool) -> Option<usize> {
    if !bound || !env.config.parallel_join || env.pool.is_none() {
        return None;
    }
    if env.config.join_partitions > 0 {
        // Explicit fan-out: force the sharded build (tests and ablations
        // exercise tiny candidate lists through it).
        (candidates >= 2).then_some(env.config.join_partitions.min(candidates))
    } else {
        let threads = env.config.parallelism.max(1);
        (threads > 1 && candidates >= env.config.parallel_index_min_build)
            .then(|| (threads * 2).min(candidates))
    }
}

/// Builds a step's candidate index, fanning the build out into key-hash
/// shards when [`index_shards`] says it pays. The parallel build runs in
/// two phases on the scan executor: *scatter* — contiguous candidate
/// chunks bucket their (key, ref) pairs by shard — then *gather* — each
/// shard inserts its buckets in chunk order. Both phases preserve
/// candidate order per key.
/// When `timed`, the index resolves every candidate's start/end once at
/// build time (one segment locate per candidate instead of one per probe
/// match) and carries them as dense posting columns under a [`BucketGrid`]
/// reduced from per-chunk time aggregates.
fn build_index(
    env: &ExecEnv<'_>,
    refs: &[EventRef],
    same_var: bool,
    key_of: &(dyn Fn(EventRef) -> u64 + Sync),
    bound: bool,
    timed: bool,
) -> Result<StepIndex, EngineError> {
    let parts = &env.parts;
    let nshards = index_shards(env, refs.len(), bound).filter(|&s| s > 1);
    let Some(nshards) = nshards else {
        if timed {
            let mut rows: Vec<TimedRow> = Vec::with_capacity(refs.len());
            let mut agg = TimeAgg::default();
            for &r in refs {
                if same_var && parts.subject(r) != parts.object(r) {
                    continue;
                }
                let (s, e) = parts.start_end(r);
                agg.add(s, e);
                rows.push((key_of(r), r, s, e));
            }
            let grid = agg.grid();
            let mut index: HashMap<u64, Postings> = HashMap::new();
            for (key, r, s, e) in rows {
                index
                    .entry(key)
                    .or_default()
                    .push(r, s, e, grid.bucket_of(s));
            }
            return Ok(StepIndex::Timed {
                shards: vec![index],
                grid,
            });
        }
        let mut index: HashMap<u64, Vec<EventRef>> = HashMap::new();
        for &r in refs {
            if same_var && parts.subject(r) != parts.object(r) {
                continue;
            }
            index.entry(key_of(r)).or_default().push(r);
        }
        return Ok(StepIndex::Plain(vec![index]));
    };
    let Some(pool) = env.pool.as_ref() else {
        return Err(crate::op::internal(
            "sharded index build scheduled without a scan executor",
        ));
    };
    let workers = env.config.parallelism.max(1);
    let chunk = refs.len().div_ceil(nshards);
    if timed {
        // Scatter: chunk c buckets its candidate range by shard, tracking
        // the chunk's local time aggregate.
        let scattered: Vec<Mutex<(TimedShardBuckets, TimeAgg)>> = (0..nshards)
            .map(|_| Mutex::new((Vec::new(), TimeAgg::default())))
            .collect();
        pool.run_chunks_capped(nshards, workers, &|c| {
            let lo = (c * chunk).min(refs.len());
            let hi = (lo + chunk).min(refs.len());
            let mut buckets: TimedShardBuckets = (0..nshards).map(|_| Vec::new()).collect();
            let mut agg = TimeAgg::default();
            for &r in &refs[lo..hi] {
                if same_var && parts.subject(r) != parts.object(r) {
                    continue;
                }
                let key = key_of(r);
                let (s, e) = parts.start_end(r);
                agg.add(s, e);
                buckets[shard_of(key, nshards)].push((key, r, s, e));
            }
            *crate::op::lock_clean(&scattered[c]) = (buckets, agg);
        })
        .map_err(worker_panic)?;
        let scattered: Vec<(TimedShardBuckets, TimeAgg)> =
            scattered.into_iter().map(crate::op::unwrap_clean).collect();
        // The grid reduces over chunk aggregates on the query thread, so
        // every shard gathers against the same (deterministic) grid.
        let mut agg = TimeAgg::default();
        for (_, chunk_agg) in &scattered {
            agg.merge(chunk_agg);
        }
        let grid = agg.grid();
        // Gather: shard s drains every chunk's bucket s, in chunk order.
        let shards: Vec<Mutex<HashMap<u64, Postings>>> =
            (0..nshards).map(|_| Mutex::new(HashMap::new())).collect();
        pool.run_chunks_capped(nshards, workers, &|s| {
            let mut map: HashMap<u64, Postings> = HashMap::new();
            for (chunk_buckets, _) in &scattered {
                for &(key, r, start, end) in &chunk_buckets[s] {
                    map.entry(key)
                        .or_default()
                        .push(r, start, end, grid.bucket_of(start));
                }
            }
            *crate::op::lock_clean(&shards[s]) = map;
        })
        .map_err(worker_panic)?;
        return Ok(StepIndex::Timed {
            shards: shards.into_iter().map(crate::op::unwrap_clean).collect(),
            grid,
        });
    }
    // Scatter: chunk c buckets its candidate range by shard.
    let scattered: Vec<Mutex<ShardBuckets>> =
        (0..nshards).map(|_| Mutex::new(Vec::new())).collect();
    pool.run_chunks_capped(nshards, workers, &|c| {
        let lo = (c * chunk).min(refs.len());
        let hi = (lo + chunk).min(refs.len());
        let mut buckets: ShardBuckets = (0..nshards).map(|_| Vec::new()).collect();
        for &r in &refs[lo..hi] {
            if same_var && parts.subject(r) != parts.object(r) {
                continue;
            }
            let key = key_of(r);
            buckets[shard_of(key, nshards)].push((key, r));
        }
        *crate::op::lock_clean(&scattered[c]) = buckets;
    })
    .map_err(worker_panic)?;
    let scattered: Vec<ShardBuckets> = scattered.into_iter().map(crate::op::unwrap_clean).collect();
    // Gather: shard s drains every chunk's bucket s, in chunk order.
    let shards: Vec<Mutex<HashMap<u64, Vec<EventRef>>>> =
        (0..nshards).map(|_| Mutex::new(HashMap::new())).collect();
    pool.run_chunks_capped(nshards, workers, &|s| {
        let mut map: HashMap<u64, Vec<EventRef>> = HashMap::new();
        for chunk_buckets in &scattered {
            for &(key, r) in &chunk_buckets[s] {
                map.entry(key).or_default().push(r);
            }
        }
        *crate::op::lock_clean(&shards[s]) = map;
    })
    .map_err(worker_panic)?;
    Ok(StepIndex::Plain(
        shards.into_iter().map(crate::op::unwrap_clean).collect(),
    ))
}

/// Shared output budget of one parallel drive. `produced[k]` is a
/// monotone running count of seed run `k`'s output tuples (published
/// every [`BUDGET_REFRESH`] appends and at completion), so any run can
/// compute a lower bound on the tuples committed before it in merge order
/// — a running count can only grow toward its final value, so the bound
/// stays sound. Publishing progress (not just completion) keeps the peak
/// output memory of a truncating drive near `max` plus a refresh-interval
/// of slack per run, instead of `max` *per run*.
struct JoinBudget {
    max: usize,
    produced: Vec<AtomicUsize>,
}

impl JoinBudget {
    fn new(max: usize, runs: usize) -> Self {
        JoinBudget {
            max,
            produced: (0..runs).map(|_| AtomicUsize::new(0)).collect(),
        }
    }

    /// Upper bound on how many tuples run `k` could still contribute to
    /// the merged output. Earlier runs' published counts only push this
    /// down, never up, so acting on a stale value is sound.
    fn cap(&self, k: usize) -> usize {
        let committed_before: usize = self.produced[..k]
            .iter()
            .map(|d| d.load(Ordering::Acquire))
            .sum();
        self.max.saturating_sub(committed_before)
    }

    /// Publishes run `k`'s running (monotone) tuple count.
    fn publish(&self, k: usize, produced: usize) {
        self.produced[k].store(produced, Ordering::Release);
    }
}

/// Append-budget tracker of one probe loop: stops it at `cap` appended
/// tuples, periodically tightening the cap from the shared budget
/// (parallel seed runs' output only — every other cap is fixed).
struct CapTracker<'b> {
    cap: usize,
    shared: Option<(&'b JoinBudget, usize)>,
    /// Governor polled at each refresh (dense append runs — the single
    /// proto bucket — reach it through `exhausted` even without per-tuple
    /// gate ticks).
    gov: Option<&'b Governor>,
    /// Set when a governor trip (not budget exhaustion) stopped the drive.
    gov_stop: bool,
    next_refresh: usize,
}

impl<'b> CapTracker<'b> {
    fn fixed(cap: usize, gov: Option<&'b Governor>) -> Self {
        CapTracker {
            cap,
            shared: None,
            gov,
            gov_stop: false,
            next_refresh: if gov.is_some() {
                BUDGET_REFRESH
            } else {
                usize::MAX
            },
        }
    }

    fn shared(budget: &'b JoinBudget, k: usize, gov: Option<&'b Governor>) -> Self {
        CapTracker {
            cap: budget.cap(k),
            shared: Some((budget, k)),
            gov,
            gov_stop: false,
            next_refresh: BUDGET_REFRESH,
        }
    }

    /// Called after each append with the drive's output length; `true`
    /// means stop (the budget is exhausted, or the governor tripped — see
    /// `gov_stop`). The cap only ever shrinks, so stopping is final. On
    /// each refresh the run's own progress is published, tightening the
    /// caps of later runs while this one is still running.
    #[inline]
    fn exhausted(&mut self, len: usize) -> bool {
        if len >= self.next_refresh {
            if let Some((budget, k)) = self.shared {
                budget.publish(k, len);
                self.cap = self.cap.min(budget.cap(k));
            }
            if self.gov.is_some_and(|g| g.check().is_err()) {
                self.gov_stop = true;
                return true;
            }
            self.next_refresh = len + BUDGET_REFRESH;
        }
        len >= self.cap
    }
}

/// Join order shared by the ref and materializing paths (they must emit
/// identical tuple order): seed with the smallest candidate list, then
/// greedily place the smallest-candidate pattern *connected* to the
/// placed set — by a shared variable first, by a temporal relation
/// second. A variable-sharing step probes by key and a related step
/// prunes by time, but an unconnected pick cross-products the frontier
/// straight into `max_intermediate` and every later step pays to probe
/// the blow-up.
fn plan_join_order(a: &AnalyzedMultievent, sizes: &[usize]) -> Vec<usize> {
    let n = sizes.len();
    let mut order: Vec<usize> = Vec::with_capacity(n);
    let mut placed = vec![false; n];
    let mut var_bound = vec![false; a.vars.len()];
    for _ in 0..n {
        let next = (0..n)
            .filter(|&i| !placed[i])
            .min_by_key(|&i| {
                let p = &a.patterns[i];
                let class = if order.is_empty() || var_bound[p.subject] || var_bound[p.object] {
                    0
                } else if !a.step_relations(i, &placed).is_empty() {
                    1
                } else {
                    2
                };
                (class, sizes[i], i)
            })
            .expect("a pattern remains unplaced");
        placed[next] = true;
        var_bound[a.patterns[next].subject] = true;
        var_bound[a.patterns[next].object] = true;
        order.push(next);
    }
    order
}

/// Sideways seed pruning (layer 2): drops seed candidates whose
/// shared-variable ids are absent from the *second* step's candidate
/// domains — such tuples probe a missing key at step two and extend
/// nothing. Restricting the filter to the second step keeps the output
/// byte-identical to the unfiltered run even under a truncating
/// `max_intermediate`: a dropped tuple appends zero tuples at step two, so
/// every surviving append happens at the same position. Gated off under a
/// memory budget (the drive live-charges seed expansions, whose size
/// pruning changes) and when the seed list itself exceeds the cap.
/// Returns `None` when no check applies.
fn sideways_seed_prune(
    env: &ExecEnv<'_>,
    candidates: &[Vec<EventRef>],
    domains: &[Option<(IdSet, IdSet)>],
    join_order: &[usize],
) -> Option<Vec<EventRef>> {
    if !env.config.sideways_filters
        || join_order.len() < 2
        || env.gov().is_some_and(|g| g.has_memory_budget())
        || candidates[join_order[0]].len() > env.config.max_intermediate
    {
        return None;
    }
    let parts = &env.parts;
    let (seed, second) = (join_order[0], join_order[1]);
    let (subj, obj) = domains[second].as_ref()?;
    let sp = &env.a.patterns[seed];
    let qp = &env.a.patterns[second];
    // For every variable the seed shares with the second pattern: (read
    // the seed candidate's subject side?, partner domain).
    let mut checks: Vec<(bool, &IdSet)> = Vec::new();
    for (v, seed_is_subject) in [(sp.subject, true), (sp.object, false)] {
        if qp.subject == v {
            checks.push((seed_is_subject, subj));
        }
        if qp.object == v && qp.object != qp.subject {
            checks.push((seed_is_subject, obj));
        }
    }
    if checks.is_empty() {
        return None;
    }
    Some(
        candidates[seed]
            .iter()
            .copied()
            .filter(|&r| {
                checks.iter().all(|&(is_subj, set)| {
                    let id = if is_subj {
                        parts.subject(r)
                    } else {
                        parts.object(r)
                    };
                    set.contains(id)
                })
            })
            .collect(),
    )
}

/// Sideways build-side pruning (layer 2) for the step placing pattern `i`:
/// drop candidates whose bound-variable ids are absent from some
/// already-placed partner pattern's candidate domain. The frontier only
/// ever carries ids drawn from every placed binder's domain, so a dropped
/// candidate could never have been probed — the index (and the frontier)
/// is unchanged. Returns `None` when no partner domain applies; otherwise
/// the kept refs, with the dropped count added to `pruned`.
fn sideways_build_prune(
    env: &ExecEnv<'_>,
    domains: &[Option<(IdSet, IdSet)>],
    placed: &[bool],
    i: usize,
    bound_vars: &[usize],
    base_refs: &[EventRef],
    pruned: &mut u64,
) -> Option<Vec<EventRef>> {
    if !env.config.sideways_filters || bound_vars.is_empty() {
        return None;
    }
    let a = env.a;
    let parts = &env.parts;
    let p = &a.patterns[i];
    let mut partner_sets: Vec<(usize, Vec<&IdSet>)> = Vec::new();
    for &v in bound_vars {
        let mut sets: Vec<&IdSet> = Vec::new();
        for (q, qp) in a.patterns.iter().enumerate() {
            if q == i || !placed[q] {
                continue;
            }
            let Some((subj, obj)) = &domains[q] else {
                continue;
            };
            if qp.subject == v {
                sets.push(subj);
            }
            if qp.object == v && qp.object != qp.subject {
                sets.push(obj);
            }
        }
        if !sets.is_empty() {
            partner_sets.push((v, sets));
        }
    }
    if partner_sets.is_empty() {
        return None;
    }
    let kept: Vec<EventRef> = base_refs
        .iter()
        .copied()
        .filter(|&r| {
            partner_sets.iter().all(|(v, sets)| {
                let id = if *v == p.subject {
                    parts.subject(r)
                } else {
                    parts.object(r)
                };
                sets.iter().all(|s| s.contains(id))
            })
        })
        .collect();
    *pruned += (base_refs.len() - kept.len()) as u64;
    Some(kept)
}

/// One pre-built join step: the pattern it places, the variables already
/// bound when it runs, the temporal relations it verifies, and its
/// candidate index. Bound variables come from simulating variable
/// placement over the join order, since every placed pattern binds its
/// subject and object in every tuple.
struct JoinStep<'s> {
    parts: &'s PartTable<'s>,
    a: &'s AnalyzedMultievent,
    pattern: usize,
    subject: usize,
    object: usize,
    bound_vars: Vec<usize>,
    /// Temporal relations to already-placed patterns (layer 1's per-tuple
    /// admissible intervals derive from these).
    rels: Vec<StepRel>,
    index: StepIndex,
    /// This step's own candidate (subject, object) domains, when the
    /// sideways pre-filter is on.
    domains: Option<&'s (IdSet, IdSet)>,
    /// Candidate refs indexed (after sideways build pruning).
    candidates: usize,
    /// Candidates dropped by sideways build pruning (a per-step constant,
    /// counted once regardless of how many runs probe the index).
    candidate_pruned: u64,
    build_nanos: u64,
}

/// Control flow of the drive's recursion: `Stop` ends the whole drive —
/// the output cap filled, an expansion cut the run, or the governor
/// tripped (the [`RunState`] flags say which).
#[derive(Clone, Copy, PartialEq)]
enum Flow {
    Continue,
    Stop,
}

/// Mutable state of one drive: the per-level reused scratch arenas plus
/// the accounting the recursion accumulates. The serial drive threads one
/// `RunState` through every run, so each level's scratch grows to its
/// high-water mark once; the parallel drive gives each run its own.
struct RunState {
    /// `levels[0]` holds the current run's seed expansion and `levels[j]`
    /// step `j`'s scratch output (`truncate(0)` between windows keeps
    /// capacity). The final step has no level — it appends straight into
    /// the drive's output arena.
    levels: Vec<RefArena>,
    /// Per-step probe counters, probe nanos, and emitted-tuple counts.
    ctrs: Vec<StepCounters>,
    nanos: Vec<u64>,
    rows: Vec<u64>,
    /// First step observed hitting the intermediate cap. The recursion
    /// finishes the truncated expansion's subtree before stopping, so a
    /// deeper step affected by the same stop records first.
    cut: Option<usize>,
    /// A governor trip stopped the drive mid-flight.
    gov_stop: bool,
    /// Error-mode governor trip, surfaced once the recursion unwinds.
    err: Option<EngineError>,
}

impl RunState {
    fn new(m: usize, n: usize, nvars: usize) -> Self {
        RunState {
            levels: (0..m).map(|_| RefArena::new(n, nvars)).collect(),
            ctrs: vec![StepCounters::default(); m],
            nanos: vec![0; m],
            rows: vec![0; m],
            cut: None,
            gov_stop: false,
            err: None,
        }
    }
}

/// One parallel run's result: its final-step survivors (in nested-loop
/// emission order) plus the run's accounting, merged in ascending seed
/// order by the coordinator. A default-initialized slot (empty `ctrs`)
/// marks a run skipped because earlier runs had already filled the
/// output budget.
#[derive(Default)]
struct RunOut {
    arena: RefArena,
    rows: Vec<u64>,
    ctrs: Vec<StepCounters>,
    nanos: Vec<u64>,
    cut: Option<usize>,
    gov_stop: bool,
}

/// The drive's shared read-only state: the pre-built steps plus everything
/// a worker needs to drive one seed run depth-first.
struct BlockedDrive<'s> {
    steps: &'s [JoinStep<'s>],
    /// The single proto tuple the seed slice probes from.
    proto: RefArena,
    /// Expansion (non-seed, non-final) row cap: `max_intermediate`.
    icap: usize,
    /// Live memory accounting is on: a memory budget is set, which also
    /// forced the serial drive (one observer makes the trip point
    /// deterministic).
    charge: bool,
    tuple_bytes: u64,
}

impl BlockedDrive<'_> {
    /// Probes step `j` for tuples `[lo, hi)` of `cur` into `next` under
    /// `caps` — each probe restricted to the match slice `slice` when set
    /// (the seed step's run of the proto tuple's single bucket) — and
    /// records the step's time, counters, and appended tuples in `st`.
    /// Returns whether `caps` filled; a governor stop sets `st.gov_stop`.
    #[allow(clippy::too_many_arguments)]
    fn probe_step(
        &self,
        j: usize,
        cur: &RefArena,
        lo: usize,
        hi: usize,
        slice: Option<(usize, usize)>,
        next: &mut RefArena,
        caps: &mut CapTracker<'_>,
        st: &mut RunState,
        gov: Option<&Governor>,
    ) -> bool {
        let step = &self.steps[j];
        let before = next.len();
        let t0 = Instant::now();
        let mut gate = GovGate::new(gov);
        let mut capped = false;
        for t in lo..hi {
            if gate.tick().is_some() {
                st.gov_stop = true;
                break;
            }
            if step.probe_into(cur, t, slice, next, caps, &mut st.ctrs[j]) {
                st.gov_stop |= caps.gov_stop;
                capped = !caps.gov_stop;
                break;
            }
        }
        st.nanos[j] += t0.elapsed().as_nanos() as u64;
        st.rows[j] += (next.len() - before) as u64;
        capped
    }

    /// Live memory accounting (serial drive under a memory budget only):
    /// charges `bytes`, stopping the drive on a trip — error mode stashes
    /// the unwind error in `st`.
    fn charge_live(&self, st: &mut RunState, gov: Option<&Governor>, bytes: u64) -> Flow {
        if !self.charge {
            return Flow::Continue;
        }
        let Some(g) = gov else {
            return Flow::Continue;
        };
        let _ = g.charge(bytes);
        if let Some(t) = g.trip() {
            if !g.partial() {
                st.err = Some(g.error(t));
            }
            st.gov_stop = true;
            return Flow::Stop;
        }
        Flow::Continue
    }

    fn uncharge(&self, gov: Option<&Governor>, bytes: u64) {
        if self.charge {
            if let Some(g) = gov {
                g.uncharge(bytes);
            }
        }
    }

    /// The final step: probes every tuple of `cur` (within `slice`, see
    /// [`Self::probe_step`]) straight into `out` under `out_caps`. The
    /// appended output stays live, so it is charged permanently.
    fn emit(
        &self,
        cur: &RefArena,
        slice: Option<(usize, usize)>,
        st: &mut RunState,
        out: &mut RefArena,
        out_caps: &mut CapTracker<'_>,
        gov: Option<&Governor>,
    ) -> Flow {
        let before = out.len();
        let j = self.steps.len() - 1;
        let capped = self.probe_step(j, cur, 0, cur.len(), slice, out, out_caps, st, gov);
        let charged = self.charge_live(st, gov, (out.len() - before) as u64 * self.tuple_bytes);
        if capped || st.gov_stop || charged == Flow::Stop {
            Flow::Stop
        } else {
            Flow::Continue
        }
    }

    /// Recurses on expansion `cur` through steps `j..`, live-charging its
    /// bytes while the subtree runs.
    fn descend(
        &self,
        j: usize,
        cur: &RefArena,
        st: &mut RunState,
        out: &mut RefArena,
        out_caps: &mut CapTracker<'_>,
        gov: Option<&Governor>,
    ) -> Flow {
        let bytes = cur.len() as u64 * self.tuple_bytes;
        if self.charge_live(st, gov, bytes) == Flow::Stop {
            return Flow::Stop;
        }
        let flow = self.expand(j, cur, st, out, out_caps, gov);
        self.uncharge(gov, bytes);
        flow
    }

    /// Expands frontier `cur` through steps `j..` depth-first (see the
    /// module docs): a non-final level windows `cur` into
    /// [`EXPAND_CHUNK`]-tuple probes, each filling the level's reused
    /// scratch (one expansion, at most `icap` tuples) and recursing on it
    /// before the next window runs; the final step appends straight into
    /// `out` under `out_caps`.
    fn expand(
        &self,
        j: usize,
        cur: &RefArena,
        st: &mut RunState,
        out: &mut RefArena,
        out_caps: &mut CapTracker<'_>,
        gov: Option<&Governor>,
    ) -> Flow {
        if j == self.steps.len() - 1 {
            return self.emit(cur, None, st, out, out_caps, gov);
        }
        let mut scratch = std::mem::take(&mut st.levels[j]);
        let mut flow = Flow::Continue;
        for lo in (0..cur.len()).step_by(EXPAND_CHUNK) {
            let hi = (lo + EXPAND_CHUNK).min(cur.len());
            scratch.truncate(0);
            let mut caps = CapTracker::fixed(self.icap, gov);
            let capped = self.probe_step(j, cur, lo, hi, None, &mut scratch, &mut caps, st, gov);
            if st.gov_stop || self.descend(j + 1, &scratch, st, out, out_caps, gov) == Flow::Stop {
                flow = Flow::Stop;
                break;
            }
            if capped {
                // The expansion hit the intermediate cap and its prefix's
                // subtree just finished: the run cuts here and the drive
                // stops after it.
                st.cut.get_or_insert(j);
                flow = Flow::Stop;
                break;
            }
        }
        st.levels[j] = scratch;
        flow
    }

    /// Drives seed slice `[lo, hi)` depth-first through every step. A
    /// one-pattern join's seed step is its final step, so the slice
    /// appends straight into `out`. Otherwise the seed expansion comes
    /// first (exempt from the intermediate cap — it is bounded by the
    /// block size by construction, which keeps sideways seed pruning
    /// emission-invariant under truncation), then the chunked recursion
    /// over the remaining steps.
    fn drive_run(
        &self,
        lo: usize,
        hi: usize,
        st: &mut RunState,
        out: &mut RefArena,
        out_caps: &mut CapTracker<'_>,
        gov: Option<&Governor>,
    ) -> Flow {
        if self.steps.len() == 1 {
            return self.emit(&self.proto, Some((lo, hi)), st, out, out_caps, gov);
        }
        let mut seedbuf = std::mem::take(&mut st.levels[0]);
        seedbuf.truncate(0);
        // An uncapped tracker only stops on a governor trip.
        let mut caps = CapTracker::fixed(usize::MAX, gov);
        self.probe_step(
            0,
            &self.proto,
            0,
            1,
            Some((lo, hi)),
            &mut seedbuf,
            &mut caps,
            st,
            gov,
        );
        let flow = if st.gov_stop {
            Flow::Stop
        } else {
            self.descend(1, &seedbuf, st, out, out_caps, gov)
        };
        st.levels[0] = seedbuf;
        flow
    }
}

/// Multi-way hash join over per-pattern *reference* lists — the blocked
/// demand-driven drive (see the module docs): plan the join order, prune
/// the seed sideways, build every step's index once up front, then drive
/// the seed frontier depth-first in bounded runs, merged in ascending seed
/// order into one flat [`RefArena`] (no per-tuple allocation). Returns the
/// output plus the run accounting (truncation, widest fan-out, build/probe
/// timing split, emission counters).
fn join_refs(
    env: &ExecEnv<'_>,
    candidates: Vec<Vec<EventRef>>,
    domains: &[Option<(IdSet, IdSet)>],
) -> Result<(RefArena, JoinRun), EngineError> {
    let a = env.a;
    let n = a.patterns.len();
    let nvars = a.vars.len();
    let tuple_bytes =
        (n * std::mem::size_of::<EventRef>() + nvars * std::mem::size_of::<u32>()) as u64;
    let gov = env.gov();
    let out_cap = env.config.max_intermediate;
    let sizes: Vec<usize> = candidates.iter().map(Vec::len).collect();
    let join_order = plan_join_order(a, &sizes);
    let m = join_order.len();
    let seed_pruned = sideways_seed_prune(env, &candidates, domains, &join_order);
    let seed_refs: &[EventRef] = seed_pruned.as_deref().unwrap_or(&candidates[join_order[0]]);
    let seed_pruned_count = (candidates[join_order[0]].len() - seed_refs.len()) as u64;
    let mut run = JoinRun {
        fanout: 1,
        ..JoinRun::default()
    };

    // Build every step's index up front, in join order.
    let parts = &env.parts;
    let mut steps: Vec<JoinStep<'_>> = Vec::with_capacity(m);
    let mut placed = vec![false; n];
    let mut var_bound = vec![false; nvars];
    for (ord, &i) in join_order.iter().enumerate() {
        let p = &a.patterns[i];
        let same_var = p.subject == p.object;
        let pattern_vars: [usize; 2] = [p.subject, p.object];
        let bound_vars: Vec<usize> = pattern_vars
            .iter()
            .take(if same_var { 1 } else { 2 })
            .copied()
            .filter(|&v| var_bound[v])
            .collect();
        let base_refs: &[EventRef] = if ord == 0 { seed_refs } else { &candidates[i] };
        let mut candidate_pruned = 0u64;
        let build_pruned = sideways_build_prune(
            env,
            domains,
            &placed,
            i,
            &bound_vars,
            base_refs,
            &mut candidate_pruned,
        );
        let refs: &[EventRef] = build_pruned.as_deref().unwrap_or(base_refs);
        let key_of_ref = |r: EventRef| {
            let mut ids = [NO_VAR; 2];
            for (slot, &v) in ids.iter_mut().zip(&bound_vars) {
                *slot = if v == p.subject {
                    parts.subject(r).raw()
                } else {
                    parts.object(r).raw()
                };
            }
            pack(ids)
        };
        let rels = a.step_relations(i, &placed);
        let timed = env.config.time_bucket_join && !rels.is_empty();
        let t_build = Instant::now();
        let index = build_index(
            env,
            refs,
            same_var,
            &key_of_ref,
            !bound_vars.is_empty(),
            timed,
        )?;
        let build_nanos = t_build.elapsed().as_nanos() as u64;
        run.build_nanos += build_nanos;
        run.fanout = run.fanout.max(index.shard_count());
        steps.push(JoinStep {
            parts,
            a,
            pattern: i,
            subject: p.subject,
            object: p.object,
            // Probe-side pre-filter (layer 2): the step's own candidate
            // domains reject keys that cannot be in the index without
            // hashing (misses by construction, so results are unchanged).
            domains: if env.config.sideways_filters {
                domains[i].as_ref()
            } else {
                None
            },
            candidates: refs.len(),
            candidate_pruned,
            bound_vars,
            rels,
            index,
            build_nanos,
        });
        placed[i] = true;
        var_bound[p.subject] = true;
        var_bound[p.object] = true;
    }

    let mut proto = RefArena::new(n, nvars);
    proto.resize_tuples(1);
    let seed_total = steps[0].index.posting_len(pack([NO_VAR; 2]));

    // Output arena reserved to the drive's worst case — seed size times
    // the remaining steps' indexed-ref counts — clamped by the output cap
    // and a 4 Mi-tuple lid, so a pathological `max_intermediate` cannot
    // reserve the moon. Selective queries reserve small; emission-bound
    // ones fill the reservation exactly (the final step appends here
    // directly, so this is the only output allocation of the serial
    // drive).
    let out_bound = steps[1..]
        .iter()
        .fold(seed_total, |b, s| b.saturating_mul(s.index.total_refs()))
        .min(out_cap)
        .min(1 << 22);
    let mut out = RefArena::with_capacity_tuples(n, nvars, out_bound);

    let mut truncated = false;
    let mut early_exit: Option<usize> = None;
    let mut runs_driven = 0u64;
    let mut step_rows: Vec<u64> = vec![0; m];
    let mut step_ctrs: Vec<StepCounters> = vec![StepCounters::default(); m];
    let mut step_nanos: Vec<u64> = vec![0; m];

    if out_cap == 0 {
        // The cap is already spent (a zero `max_intermediate`): the empty
        // prefix is the whole answer.
        truncated = true;
    } else if seed_total > 0 {
        let block = env
            .config
            .join_block_tuples
            .max(1)
            .max(seed_total.div_ceil(MAX_RUNS));
        let nruns = seed_total.div_ceil(block);
        let charge = gov.is_some_and(|g| g.has_memory_budget());
        let drive = BlockedDrive {
            steps: &steps,
            proto,
            icap: out_cap,
            charge,
            tuple_bytes,
        };
        let workers = env.config.parallelism.max(1);
        // A memory budget forces the serial drive: live charging yields a
        // deterministic trip point only with a single observer.
        let parallel = nruns >= 2 && !charge && fans_out(env, seed_total);
        let t_probe = Instant::now();
        if parallel {
            let Some(pool) = env.pool.as_ref() else {
                return Err(crate::op::internal(
                    "blocked join drive scheduled without a scan executor",
                ));
            };
            let budget = JoinBudget::new(out_cap, nruns);
            let slots: Vec<Mutex<RunOut>> =
                (0..nruns).map(|_| Mutex::new(RunOut::default())).collect();
            pool.run_chunks_capped(nruns, workers, &|k| {
                // Skip runs that cannot contribute: the runs before this
                // one already produced the whole output cap, so the merge
                // stops before reaching it. This is the demand-driven win —
                // seed tuples nobody will consume are never driven.
                if budget.cap(k) == 0 {
                    return;
                }
                let lo = k * block;
                let hi = (lo + block).min(seed_total);
                let mut st = RunState::new(m, n, nvars);
                let mut local = RefArena::new(n, nvars);
                let mut caps = CapTracker::shared(&budget, k, gov);
                let _ = drive.drive_run(lo, hi, &mut st, &mut local, &mut caps, gov);
                budget.publish(k, local.len());
                *crate::op::lock_clean(&slots[k]) = RunOut {
                    arena: local,
                    rows: st.rows,
                    ctrs: st.ctrs,
                    nanos: st.nanos,
                    cut: st.cut,
                    gov_stop: st.gov_stop,
                };
            })
            .map_err(worker_panic)?;
            for slot in slots {
                let ro = crate::op::unwrap_clean(slot);
                if ro.ctrs.len() != m {
                    // A skipped run can only sit *after* the run that
                    // filled the output cap; reaching one means the
                    // budget logic broke.
                    return Err(crate::op::internal(
                        "blocked join drive merged a skipped run",
                    ));
                }
                if ro.gov_stop {
                    // The run stopped mid-flight on a trip: its partial
                    // output is dropped and the merged prefix ends at the
                    // previous run boundary (still a valid emission-order
                    // prefix).
                    if let Some(g) = gov {
                        if let Some(t) = g.trip() {
                            if !g.partial() {
                                return Err(g.error(t));
                            }
                        }
                    }
                    break;
                }
                // Trim speculative overshoot past the shared budget: the
                // kept prefix reproduces the serial drive's output exactly.
                let kept = ro.arena.len().min(out_cap - out.len());
                out.append_prefix(&ro.arena, kept);
                runs_driven += 1;
                for j in 0..m {
                    step_rows[j] += if j == m - 1 { kept as u64 } else { ro.rows[j] };
                    step_ctrs[j].merge(&ro.ctrs[j]);
                    step_nanos[j] += ro.nanos[j];
                }
                if let Some(j) = ro.cut {
                    truncated = true;
                    early_exit = Some(j);
                    break;
                }
                if out.len() >= out_cap {
                    truncated = true;
                    early_exit = Some(m - 1);
                    break;
                }
            }
            run.fanout = run.fanout.max(workers.min(nruns));
        } else {
            // Serial drive: one `RunState` (scratch reused across runs),
            // one absolute output tracker — the final step sees the exact
            // remaining room at all times.
            let mut st = RunState::new(m, n, nvars);
            let mut caps = CapTracker::fixed(out_cap, gov);
            for k in 0..nruns {
                let lo = k * block;
                let hi = (lo + block).min(seed_total);
                let flow = drive.drive_run(lo, hi, &mut st, &mut out, &mut caps, gov);
                runs_driven += 1;
                if let Some(e) = st.err.take() {
                    return Err(e);
                }
                if flow == Flow::Stop {
                    break;
                }
            }
            if st.gov_stop {
                // Partial mode keeps the emission-order prefix driven so
                // far; error mode unwinds (deadline/cancel trips observed
                // by the pollers rather than a live charge land here).
                if let Some(g) = gov {
                    if let Some(t) = g.trip() {
                        if !g.partial() {
                            return Err(g.error(t));
                        }
                    }
                }
            }
            step_rows = st.rows;
            step_ctrs = st.ctrs;
            step_nanos = st.nanos;
            if st.cut.is_some() {
                truncated = true;
                early_exit = st.cut;
            } else if out.len() >= out_cap {
                truncated = true;
                early_exit = Some(m - 1);
            }
        }
        run.probe_nanos += t_probe.elapsed().as_nanos() as u64;
    }

    run.truncated |= truncated;
    run.runs_driven = runs_driven;
    run.emitted_tuples = step_rows.iter().sum();
    run.early_exit_depth = early_exit;
    run.breadth_bound_tuples = if early_exit.is_none() {
        // Every run was driven to completion: breadth-first would have
        // emitted exactly these tuples.
        run.emitted_tuples
    } else {
        // Early exit: breadth-first would have filled up to the row cap at
        // every step (the seed bounded by its candidate count).
        seed_total.min(out_cap) as u64 + (m as u64 - 1) * out_cap as u64
    };
    for (j, s) in steps.iter().enumerate() {
        let mut c = step_ctrs[j];
        c.filter_pruned += s.candidate_pruned;
        if j == 0 {
            c.filter_pruned += seed_pruned_count;
        }
        run.probe_hits += c.probe_hits;
        run.bucket_skipped += c.bucket_skipped;
        run.filter_pruned += c.filter_pruned;
        run.steps.push(JoinStepStat {
            pattern: s.pattern,
            candidates: s.candidates,
            rows_out: step_rows[j] as usize,
            probes: c.probes,
            probe_hits: c.probe_hits,
            bucket_skipped: c.bucket_skipped,
            filter_pruned: c.filter_pruned,
            buckets: s.index.buckets(),
            bucket_width_micros: s.index.bucket_width(),
            build_nanos: s.build_nanos,
            probe_nanos: step_nanos[j],
            fanout: s.index.shard_count(),
        });
    }
    Ok((out, run))
}

/// Per-step probe-reduction counters, merged across seed runs into the
/// step's [`JoinStepStat`].
#[derive(Debug, Clone, Copy, Default)]
struct StepCounters {
    /// Index lookups attempted (after the sideways pre-filter).
    probes: u64,
    /// Lookups that found a posting list.
    probe_hits: u64,
    /// Posting refs skipped by time-bucket pruning (never temporally
    /// verified).
    bucket_skipped: u64,
    /// Candidates/probes rejected by sideways domain filters.
    filter_pruned: u64,
}

impl StepCounters {
    fn merge(&mut self, o: &StepCounters) {
        self.probes += o.probes;
        self.probe_hits += o.probe_hits;
        self.bucket_skipped += o.bucket_skipped;
        self.filter_pruned += o.filter_pruned;
    }
}

impl JoinStep<'_> {
    /// Probes the index for tuple `t` (restricted to the match-slice range
    /// `[mlo, mhi)` when slicing the single proto tuple into seed runs;
    /// `None` = every match) and appends surviving extensions to `out`.
    /// Returns `true` when the tracker's budget was exhausted — the caller
    /// must stop its drive.
    #[inline]
    fn probe_into(
        &self,
        tuples: &RefArena,
        t: usize,
        range: Option<(usize, usize)>,
        out: &mut RefArena,
        caps: &mut CapTracker<'_>,
        ctr: &mut StepCounters,
    ) -> bool {
        let tvars = tuples.vars_of(t);
        let mut ids = [NO_VAR; 2];
        for (slot, &v) in ids.iter_mut().zip(&self.bound_vars) {
            *slot = tvars[v];
        }
        // Sideways pre-filter: a bound id outside this step's candidate
        // domain cannot be in the index — skip the hash lookup.
        if let Some((subj, obj)) = self.domains {
            for (&v, &id) in self.bound_vars.iter().zip(&ids) {
                let set = if v == self.subject { subj } else { obj };
                if !set.contains(EntityId(id)) {
                    ctr.filter_pruned += 1;
                    return false;
                }
            }
        }
        let key = pack(ids);
        ctr.probes += 1;
        match &self.index {
            StepIndex::Plain(shards) => {
                let Some(matches) = shards[route(key, shards.len())].get(&key) else {
                    return false;
                };
                ctr.probe_hits += 1;
                let (mlo, mhi) = range.unwrap_or((0, matches.len()));
                for &r in &matches[mlo..mhi] {
                    if !temporal_ok_refs(self.a, self.parts, self.pattern, r, tuples, t) {
                        continue;
                    }
                    let (subj, obj) = self.parts.subject_object(r);
                    out.push_extended(
                        tuples,
                        t,
                        self.pattern,
                        r,
                        (self.subject, subj),
                        (self.object, obj),
                    );
                    if caps.exhausted(out.len()) {
                        return true;
                    }
                }
                false
            }
            StepIndex::Timed { shards, grid } => {
                debug_assert!(range.is_none(), "timed index never slices a proto bucket");
                let Some(p) = shards[route(key, shards.len())].get(&key) else {
                    return false;
                };
                ctr.probe_hits += 1;
                // Admissible start/end intervals of a joining candidate,
                // derived once per tuple from the placed events — exactly
                // the constraints `temporal_ok_refs` verifies per match.
                let events = tuples.events_of(t);
                let (mut slo, mut shi) = (i64::MIN, i64::MAX);
                let (mut elo, mut ehi) = (i64::MIN, i64::MAX);
                for rel in &self.rels {
                    let placed = events[rel.other];
                    if rel.cand_is_left {
                        // cand.end ≤ placed.start; a bound floors cand.end.
                        let ps = self.parts.start(placed).micros();
                        ehi = ehi.min(ps);
                        if let Some(b) = rel.bound {
                            elo = elo.max(ps.saturating_sub(b));
                        }
                    } else {
                        // placed.end ≤ cand.start; a bound ceils cand.start.
                        let pe = self.parts.end(placed).micros();
                        slo = slo.max(pe);
                        if let Some(b) = rel.bound {
                            shi = shi.min(pe.saturating_add(b));
                        }
                    }
                }
                // Fold the end interval onto start buckets through the
                // build-time duration extremes.
                let lo_t = slo.max(elo.saturating_sub(grid.max_dur));
                let hi_t = shi.min(ehi.saturating_sub(grid.min_dur));
                if slo > shi || elo > ehi || lo_t > hi_t {
                    ctr.bucket_skipped += p.refs.len() as u64;
                    return false;
                }
                let blo = grid.clamp(lo_t);
                let bhi = grid.clamp(hi_t);
                for (c, &(zmin, zmax)) in p.zones.iter().enumerate() {
                    let lo = c * BUCKET_CHUNK;
                    let hi = (lo + BUCKET_CHUNK).min(p.refs.len());
                    if zmax < blo || zmin > bhi {
                        ctr.bucket_skipped += (hi - lo) as u64;
                        continue;
                    }
                    for j in lo..hi {
                        let s = p.starts[j];
                        let e = p.ends[j];
                        if s < slo || s > shi || e < elo || e > ehi {
                            continue;
                        }
                        let r = p.refs[j];
                        let (subj, obj) = self.parts.subject_object(r);
                        out.push_extended(
                            tuples,
                            t,
                            self.pattern,
                            r,
                            (self.subject, subj),
                            (self.object, obj),
                        );
                        if caps.exhausted(out.len()) {
                            return true;
                        }
                    }
                }
                false
            }
        }
    }
}

/// Temporal verification of the ref join, reading only the time columns.
fn temporal_ok_refs(
    a: &AnalyzedMultievent,
    parts: &PartTable<'_>,
    i: usize,
    r: EventRef,
    tuples: &RefArena,
    t: usize,
) -> bool {
    let events = tuples.events_of(t);
    for rel in &a.temporal {
        let (l, rt, bound) = match &rel.op {
            TemporalOp::Before(b) => (rel.left, rel.right, b),
            // (after is before with sides swapped)
            TemporalOp::After(b) => (rel.right, rel.left, b),
        };
        let (left_end, right_start) = if l == i && events[rt] != NO_REF {
            (parts.end(r), parts.start(events[rt]))
        } else if rt == i && events[l] != NO_REF {
            (parts.end(events[l]), parts.start(r))
        } else {
            continue;
        };
        if left_end > right_start {
            return false;
        }
        if let Some(b) = bound {
            if (right_start - left_end) > *b {
                return false;
            }
        }
    }
    true
}

/// The seed's materializing join (kept intact for the ablation benches):
/// candidates are full events and the frontier clones them per tuple,
/// breadth-first, one whole step at a time. Governor integration: the
/// memory budget converts to a deterministic row cap at each step start
/// (`remaining_bytes / tuple_bytes`, min'd into `max_intermediate`);
/// deadline/cancel trips are polled per tuple, and partial mode completes
/// the preserved prefix ungoverned.
fn join_events(
    env: &ExecEnv<'_>,
    candidates: Vec<Vec<Event>>,
) -> Result<(Vec<Tuple>, JoinRun), EngineError> {
    let a = env.a;
    let n = a.patterns.len();
    let nvars = a.vars.len();
    // Frontier footprint estimate per tuple: the inline options (each
    // tuple also owns two Vec headers, which this deliberately ignores —
    // the accounting tracks the dominant payload).
    let tuple_bytes = (n * std::mem::size_of::<Option<Event>>()
        + nvars * std::mem::size_of::<Option<EntityId>>()) as u64;
    let mut gov = env.gov();
    let sizes: Vec<usize> = candidates.iter().map(Vec::len).collect();
    let join_order = plan_join_order(a, &sizes);

    let mut tuples: Vec<Tuple> = vec![Tuple {
        events: vec![None; n],
        vars: vec![None; nvars],
    }];
    let mut run = JoinRun {
        fanout: 1,
        ..JoinRun::default()
    };

    for &i in &join_order {
        let p = &a.patterns[i];
        let events = &candidates[i];
        // Vars of this pattern, deduped (subject may equal object).
        let pattern_vars: Vec<usize> = if p.subject == p.object {
            vec![p.subject]
        } else {
            vec![p.subject, p.object]
        };
        let mut next: Vec<Tuple> = Vec::new();
        // Index events by the entity ids of vars that are already bound
        // in at least one tuple. For simplicity (and since tuples at a
        // given step share the same bound-var set), use the first tuple
        // as the prototype.
        let proto_bound: Vec<usize> = pattern_vars
            .iter()
            .copied()
            .filter(|&v| tuples.first().map(|t| t.vars[v].is_some()).unwrap_or(false))
            .collect();
        let t_build = Instant::now();
        let mut index: HashMap<Vec<EntityId>, Vec<&Event>> = HashMap::new();
        for e in events {
            if p.subject == p.object && e.subject != e.object {
                continue;
            }
            let key: Vec<EntityId> = proto_bound
                .iter()
                .map(|&v| if v == p.subject { e.subject } else { e.object })
                .collect();
            index.entry(key).or_default().push(e);
        }
        run.build_nanos += t_build.elapsed().as_nanos() as u64;
        // Effective row cap (see `join_refs`).
        let mut cap = env.config.max_intermediate;
        let mut mem_capped = false;
        if let Some(g) = gov {
            if g.has_memory_budget() {
                let rows = (g.remaining_bytes() / tuple_bytes) as usize;
                if rows < cap {
                    cap = rows;
                    mem_capped = true;
                }
            }
        }
        let mut step_truncated = false;
        let mut gate = GovGate::new(gov);
        let t_probe = Instant::now();
        if cap == 0 {
            step_truncated = true;
        } else {
            'tuples: for t in &tuples {
                if gate.tick().is_some() {
                    break 'tuples;
                }
                let mut key: Vec<EntityId> = Vec::with_capacity(proto_bound.len());
                for &v in proto_bound.iter() {
                    match t.vars[v] {
                        Some(id) => key.push(id),
                        None => {
                            return Err(crate::op::internal(
                                "prototype variable unbound during join probe",
                            ))
                        }
                    }
                }
                let Some(matches) = index.get(&key) else {
                    continue;
                };
                for e in matches {
                    if !temporal_ok(a, i, e, t) {
                        continue;
                    }
                    let mut nt = t.clone();
                    nt.events[i] = Some(**e);
                    nt.vars[p.subject] = Some(e.subject);
                    nt.vars[p.object] = Some(e.object);
                    next.push(nt);
                    if next.len() >= cap {
                        step_truncated = true;
                        break 'tuples;
                    }
                }
            }
        }
        run.probe_nanos += t_probe.elapsed().as_nanos() as u64;
        let prev_bytes = tuples.len() as u64 * tuple_bytes;
        tuples = next;
        if let Some(g) = gov {
            g.uncharge(prev_bytes);
            let _ = g.charge(tuples.len() as u64 * tuple_bytes);
            if mem_capped && step_truncated {
                g.record(Trip::Memory);
            }
            if let Some(t) = g.trip() {
                if !g.partial() {
                    return Err(g.error(t));
                }
                gov = None;
            } else {
                run.truncated |= step_truncated;
            }
        } else {
            run.truncated |= step_truncated;
        }
        if tuples.is_empty() {
            return Ok((tuples, run));
        }
    }
    Ok((tuples, run))
}

/// Verifies every temporal relationship between pattern `i`'s candidate
/// event and the events already placed in the tuple.
fn temporal_ok(a: &AnalyzedMultievent, i: usize, e: &Event, t: &Tuple) -> bool {
    for rel in &a.temporal {
        let (l, r, bound) = match &rel.op {
            TemporalOp::Before(b) => (rel.left, rel.right, b),
            // (after is before with sides swapped)
            TemporalOp::After(b) => (rel.right, rel.left, b),
        };
        let (left_event, right_event) = if l == i {
            let Some(right) = t.events[r] else { continue };
            (*e, right)
        } else if r == i {
            let Some(left) = t.events[l] else { continue };
            (left, *e)
        } else {
            continue;
        };
        if left_event.end_time > right_event.start_time {
            return false;
        }
        if let Some(b) = bound {
            if (right_event.start_time - left_event.end_time) > *b {
                return false;
            }
        }
    }
    true
}
