//! Deduplicated entity dictionary.
//!
//! System monitoring data repeats the same entities (processes, files,
//! connections) across millions of events. The paper's storage layer
//! deduplicates them; we intern every distinct ⟨agent, attributes⟩
//! combination into a dense [`EntityId`] and maintain *dictionary-level*
//! indexes so query constraints are resolved against the (small) entity
//! dictionary instead of the (huge) event table. That asymmetry is the
//! foundation of the engine's pruning-power scheduling: a `LIKE` pattern is
//! evaluated once against a few thousand distinct names, yielding an id set
//! that prunes event scans via posting lists.

use std::borrow::Cow;
use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;

use aiql_model::{
    AgentId, Entity, EntityAttrs, EntityId, EntityKind, Interner, IpV4, PatternShape,
    StringPattern, Symbol, Value,
};

/// Inserts `key` into a posting list kept in ascending order. Keys arrive
/// mostly ascending (dictionary interning order), so this is an append in
/// the common case and a binary-search insert otherwise.
fn sorted_insert(list: &mut Vec<u32>, key: u32) {
    match list.last() {
        Some(&last) if last < key => list.push(key),
        _ => {
            if let Err(pos) = list.binary_search(&key) {
                list.insert(pos, key);
            }
        }
    }
}

/// Sort-merge intersection of two ascending key lists.
fn intersect_keys(a: &[u32], b: &[u32]) -> Vec<u32> {
    let mut out = Vec::with_capacity(a.len().min(b.len()));
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                out.push(a[i]);
                i += 1;
                j += 1;
            }
        }
    }
    out
}

/// Candidate keys produced by a [`DictIndex`] pattern lookup.
enum DictCandidates {
    /// Definitive match set — no per-string verification needed.
    Definitive(Vec<u32>),
    /// Superset of the matching keys; verify the pattern per candidate.
    Verify(Vec<u32>),
    /// The index cannot narrow this pattern (no trigram-length literal run);
    /// fall back to scanning the distinct dictionary strings.
    Scan,
}

/// N-gram + prefix index over one dictionary's distinct renderings.
///
/// Maps each distinct (ASCII-lowercased) string to an opaque `u32` key — a
/// [`Symbol`] for name dictionaries, a raw IPv4 for the destination-IP
/// dictionary. `LIKE` patterns resolve by intersecting trigram posting
/// lists (then verifying the survivors) instead of matching the pattern
/// against every distinct string; `prefix%` and wildcard-free patterns
/// resolve definitively from the sorted rendering map.
#[derive(Debug, Default, Clone)]
struct DictIndex {
    /// Lowercased rendering → keys sharing it (distinct original casings of
    /// one name are distinct symbols). Sorted, so prefix lookups are range
    /// scans.
    by_lower: BTreeMap<Box<str>, Vec<u32>>,
    /// Byte trigram of a lowercased rendering → keys containing it.
    trigrams: HashMap<[u8; 3], Vec<u32>>,
}

impl DictIndex {
    /// Indexes one new dictionary entry. Call once per distinct key.
    fn insert(&mut self, key: u32, rendered: &str) {
        let lowered = rendered.to_ascii_lowercase();
        let bytes = lowered.as_bytes();
        let mut grams: Vec<[u8; 3]> = bytes.windows(3).map(|w| [w[0], w[1], w[2]]).collect();
        grams.sort_unstable();
        grams.dedup();
        for g in grams {
            sorted_insert(self.trigrams.entry(g).or_default(), key);
        }
        match self.by_lower.get_mut(lowered.as_str()) {
            Some(keys) => sorted_insert(keys, key),
            None => {
                self.by_lower.insert(lowered.into_boxed_str(), vec![key]);
            }
        }
    }

    /// Adds a later layer's entries (keys it saw first).
    fn absorb(&mut self, later: &DictIndex) {
        for (rendered, keys) in &later.by_lower {
            match self.by_lower.get_mut(rendered) {
                Some(mine) => keys.iter().for_each(|&k| sorted_insert(mine, k)),
                None => {
                    self.by_lower.insert(rendered.clone(), keys.clone());
                }
            }
        }
        for (gram, keys) in &later.trigrams {
            let mine = self.trigrams.entry(*gram).or_default();
            keys.iter().for_each(|&k| sorted_insert(mine, k));
        }
    }

    /// Resolves a `LIKE` pattern to candidate keys.
    fn resolve(&self, p: &StringPattern) -> DictCandidates {
        match p.shape() {
            PatternShape::Exact => {
                let lowered = p.exact_lowered().expect("exact shape");
                DictCandidates::Definitive(
                    self.by_lower
                        .get(lowered.as_str())
                        .cloned()
                        .unwrap_or_default(),
                )
            }
            PatternShape::Prefix => {
                let prefix = p.literal_prefix().expect("prefix shape");
                let mut keys = Vec::new();
                for (_, k) in self
                    .by_lower
                    .range::<str, _>((
                        std::ops::Bound::Included(prefix.as_str()),
                        std::ops::Bound::Unbounded,
                    ))
                    .take_while(|(s, _)| s.starts_with(prefix.as_str()))
                {
                    keys.extend_from_slice(k);
                }
                keys.sort_unstable();
                keys.dedup();
                DictCandidates::Definitive(keys)
            }
            PatternShape::Suffix | PatternShape::Scan => {
                // Every literal run must appear in a matching string, so each
                // run's trigrams gate the candidate set. Intersect
                // smallest-first and bail as soon as the set empties.
                let mut lists: Vec<&[u32]> = Vec::new();
                for run in p.literal_runs() {
                    for w in run.as_bytes().windows(3) {
                        match self.trigrams.get(&[w[0], w[1], w[2]]) {
                            Some(l) => lists.push(l.as_slice()),
                            // A required trigram no string contains: nothing
                            // can match.
                            None => return DictCandidates::Definitive(Vec::new()),
                        }
                    }
                }
                if lists.is_empty() {
                    return DictCandidates::Scan;
                }
                lists.sort_by_key(|l| l.len());
                let mut keys = lists[0].to_vec();
                for l in &lists[1..] {
                    if keys.is_empty() {
                        break;
                    }
                    keys = intersect_keys(&keys, l);
                }
                DictCandidates::Verify(keys)
            }
        }
    }
}

/// Comparison operator of an entity attribute constraint.
#[derive(Debug, Clone, PartialEq)]
pub enum AttrCmp {
    /// Equality against a value.
    Eq(Value),
    /// Inequality against a value.
    Ne(Value),
    /// Strictly less than.
    Lt(Value),
    /// Less than or equal.
    Le(Value),
    /// Strictly greater than.
    Gt(Value),
    /// Greater than or equal.
    Ge(Value),
    /// SQL-LIKE pattern match (string attributes; IPs match their dotted
    /// rendering so `dstip = "10.0.4.%"`-style investigations work).
    Like(StringPattern),
}

/// A single constraint over one entity attribute.
#[derive(Debug, Clone, PartialEq)]
pub struct EntityConstraint {
    /// Attribute name (`exe_name`, `dstip`, …). The empty string means the
    /// entity kind's default attribute (context-aware shortcut).
    pub attr: String,
    /// The comparison to apply.
    pub cmp: AttrCmp,
}

impl EntityConstraint {
    /// Constraint on the kind's default attribute.
    pub fn on_default(cmp: AttrCmp) -> Self {
        EntityConstraint {
            attr: String::new(),
            cmp,
        }
    }

    /// Constraint on a named attribute.
    pub fn on(attr: &str, cmp: AttrCmp) -> Self {
        EntityConstraint {
            attr: attr.to_string(),
            cmp,
        }
    }

    fn resolved_attr(&self, kind: EntityKind) -> &str {
        if self.attr.is_empty() {
            kind.default_attr()
        } else {
            &self.attr
        }
    }

    /// A rough selectivity estimate in `[0, 1]` used by the scheduler.
    pub fn selectivity_hint(&self) -> f64 {
        match &self.cmp {
            AttrCmp::Eq(_) => 0.002,
            AttrCmp::Like(p) => p.selectivity_hint(),
            AttrCmp::Ne(_) => 0.9,
            _ => 0.3,
        }
    }
}

/// When the delta holds at least this many entities *and* at least
/// `1 / MERGE_FRACTION` of the base's, it is folded into a new base. The
/// floor keeps small dictionaries from merging on every few entities; the
/// fraction bounds both the per-publish delta copy and how often a merge
/// recopies the base.
const MERGE_FLOOR: usize = 4096;
const MERGE_FRACTION: usize = 8;

/// The index of one entity kind's key attribute — process executable name,
/// file path or connection destination IP — within one layer.
#[derive(Debug, Default, Clone)]
struct KeyIndex {
    /// Key (a name symbol's raw id, or a raw IPv4) → the layer's entities
    /// carrying it, ascending.
    postings: HashMap<u32, Vec<EntityId>>,
    /// Trigram/prefix index over the keys first seen in this layer.
    dict: DictIndex,
}

/// One layer of the dictionary. The frozen base holds ids `0..base.len()`,
/// the delta the ids after them, so concatenating the two layers' lists
/// keeps every id list ascending.
#[derive(Debug, Default, Clone)]
struct DictLayer {
    entities: Vec<Entity>,
    by_kind: [Vec<EntityId>; 3],
    /// Per-kind key index, by [`kind_slot`].
    keys: [KeyIndex; 3],
}

impl DictLayer {
    /// Appends a later layer (the delta) to this one. The lists grow to
    /// their exact length: a base is long-lived and read-only until the
    /// next merge, so amortized growth would only leave slack behind.
    fn absorb(&mut self, later: &DictLayer) {
        fn append<T: Clone>(list: &mut Vec<T>, more: &[T]) {
            list.reserve_exact(more.len());
            list.extend_from_slice(more);
        }
        append(&mut self.entities, &later.entities);
        for slot in 0..3 {
            append(&mut self.by_kind[slot], &later.by_kind[slot]);
            let (mine, theirs) = (&mut self.keys[slot], &later.keys[slot]);
            for (key, ids) in &theirs.postings {
                append(mine.postings.entry(*key).or_default(), ids);
            }
            mine.dict.absorb(&theirs.dict);
        }
    }
}

/// Unique access to a layer, copying it first when a snapshot still shares
/// it (counted in entities into `copied`).
fn unshare<'a>(layer: &'a mut Arc<DictLayer>, copied: &mut u64) -> &'a mut DictLayer {
    if Arc::get_mut(layer).is_none() {
        *copied += layer.entities.len() as u64;
        *layer = Arc::new(DictLayer::clone(layer));
    }
    Arc::get_mut(layer).expect("layer is unique after the copy")
}

/// The dictionary key of an entity: its kind's key attribute as a `u32`.
fn key_of(attrs: &EntityAttrs) -> u32 {
    match attrs {
        EntityAttrs::Process(p) => p.exe_name.raw(),
        EntityAttrs::File(f) => f.name.raw(),
        EntityAttrs::NetConn(n) => n.dst_ip.0,
    }
}

/// The string a key renders as, which `LIKE` patterns match against.
fn render_key(interner: &Interner, kind: EntityKind, key: u32) -> Cow<'_, str> {
    match kind {
        EntityKind::NetConn => Cow::Owned(IpV4(key).to_string()),
        _ => Cow::Borrowed(interner.resolve(Symbol(key))),
    }
}

/// The deduplicating entity dictionary, including the string interner shared
/// by the whole store.
///
/// The dictionary is two `Arc`-shared layers: a frozen base and a small
/// delta holding the entities interned since the last merge. The read view
/// a published snapshot carries shares both, so publishing copies nothing
/// that grows with the dictionary; the writer copies only the delta, and at
/// most once per publish. The interner is layered the same way inside
/// [`Interner`] and freezes with each merge.
#[derive(Debug)]
pub struct EntityStore {
    interner: Interner,
    /// Frozen layer: ids `0..base.entities.len()`.
    base: Arc<DictLayer>,
    /// Entities interned since the last merge; ids continue the base's.
    delta: Arc<DictLayer>,
    /// Writer-only dedup map; read views leave it empty.
    dedup: HashMap<(AgentId, EntityAttrs), EntityId>,
    /// Whether `LIKE` resolution may use the n-gram/prefix indexes (the
    /// naive full-dictionary scan is kept for ablation and as the
    /// differential-test oracle).
    ngram_index: bool,
    /// Distinct hosts observed, ascending (the `find` agent-restriction
    /// fast path: a restriction covering every host is a no-op).
    agents_seen: Vec<AgentId>,
    /// Count of observations that hit an existing entity (dedup savings).
    /// Atomic so the copy-on-write ingest fast path ([`Self::lookup`]) can
    /// record hits through a shared reference without cloning the
    /// dictionary.
    dedup_hits: std::sync::atomic::AtomicU64,
    /// Entities copied so far: shared deltas copied before a write, and
    /// layers copied or appended by merges.
    entries_copied: u64,
}

impl Clone for EntityStore {
    fn clone(&self) -> Self {
        EntityStore {
            dedup: self.dedup.clone(),
            ..self.read_view()
        }
    }
}

impl Default for EntityStore {
    fn default() -> Self {
        Self::new()
    }
}

/// Sorts and dedups an id vector assembled from per-key posting lists.
fn finish_ids(mut ids: Vec<EntityId>) -> Vec<EntityId> {
    ids.sort_unstable();
    ids.dedup();
    ids
}

/// Whether sorted `restriction` contains every element of sorted `seen`.
fn covers(restriction: &[AgentId], seen: &[AgentId]) -> bool {
    seen.iter().all(|a| restriction.binary_search(a).is_ok())
}

fn kind_slot(kind: EntityKind) -> usize {
    match kind {
        EntityKind::Process => 0,
        EntityKind::File => 1,
        EntityKind::NetConn => 2,
    }
}

impl EntityStore {
    /// Creates an empty dictionary with the n-gram indexes enabled.
    pub fn new() -> Self {
        Self::with_ngram_index(true)
    }

    /// Creates an empty dictionary, optionally without the n-gram/prefix
    /// indexes (`LIKE` constraints then scan the distinct strings — the
    /// pre-index behavior, kept for ablation).
    pub fn with_ngram_index(ngram_index: bool) -> Self {
        EntityStore {
            interner: Interner::new(),
            base: Arc::default(),
            delta: Arc::default(),
            dedup: HashMap::new(),
            ngram_index,
            agents_seen: Vec::new(),
            dedup_hits: std::sync::atomic::AtomicU64::new(0),
            entries_copied: 0,
        }
    }

    /// A read-only view for a published snapshot: the same entities,
    /// interner and indexes, sharing both layers by `Arc`. The dedup map —
    /// consulted only by the ingest path, which never runs against a
    /// snapshot — stays behind, so the view costs O(hosts), not
    /// O(dictionary).
    pub(crate) fn read_view(&self) -> Self {
        EntityStore {
            interner: self.interner.clone(),
            base: Arc::clone(&self.base),
            delta: Arc::clone(&self.delta),
            dedup: HashMap::new(),
            ngram_index: self.ngram_index,
            agents_seen: self.agents_seen.clone(),
            dedup_hits: std::sync::atomic::AtomicU64::new(self.dedup_hits()),
            entries_copied: self.entries_copied,
        }
    }

    /// The shared string dictionary.
    pub fn interner(&self) -> &Interner {
        &self.interner
    }

    /// Mutable access to the string dictionary (used by ingestion and by
    /// engines interning query literals).
    pub fn interner_mut(&mut self) -> &mut Interner {
        &mut self.interner
    }

    /// Interns an entity observation, returning its stable id. Repeated
    /// observations of identical attributes on the same host dedup to the
    /// same id.
    pub fn intern(&mut self, agent: AgentId, attrs: EntityAttrs) -> EntityId {
        if let Some(&id) = self.dedup.get(&(agent, attrs)) {
            self.note_dedup_hit();
            return id;
        }
        let id = EntityId(self.len() as u32);
        self.dedup.insert((agent, attrs), id);
        if let Err(pos) = self.agents_seen.binary_search(&agent) {
            self.agents_seen.insert(pos, agent);
        }
        let kind = attrs.kind();
        let slot = kind_slot(kind);
        let key = key_of(&attrs);
        // A key enters the n-gram/prefix index of the layer where it is
        // first seen.
        let first_seen = self.ngram_index
            && !self.base.keys[slot].postings.contains_key(&key)
            && !self.delta.keys[slot].postings.contains_key(&key);
        let delta = unshare(&mut self.delta, &mut self.entries_copied);
        delta.entities.push(Entity { id, agent, attrs });
        delta.by_kind[slot].push(id);
        let index = &mut delta.keys[slot];
        index.postings.entry(key).or_default().push(id);
        if first_seen {
            index
                .dict
                .insert(key, &render_key(&self.interner, kind, key));
        }
        if delta.entities.len() >= MERGE_FLOOR.max(self.base.entities.len() / MERGE_FRACTION) {
            self.merge();
        }
        id
    }

    /// Folds the delta into a new base (and freezes the interner's tail).
    /// The base is copied only when a snapshot still shares it.
    fn merge(&mut self) {
        if self.delta.entities.is_empty() {
            return;
        }
        let delta = std::mem::take(&mut self.delta);
        self.entries_copied += delta.entities.len() as u64;
        unshare(&mut self.base, &mut self.entries_copied).absorb(&delta);
        self.interner.freeze();
    }

    /// Whether this dictionary shares its (base, delta) layers with
    /// `other`.
    #[cfg(test)]
    pub(crate) fn shares_layers(&self, other: &EntityStore) -> (bool, bool) {
        (
            Arc::ptr_eq(&self.base, &other.base),
            Arc::ptr_eq(&self.delta, &other.delta),
        )
    }

    /// The two layers, base first (ascending ids).
    fn layers(&self) -> [&DictLayer; 2] {
        [&self.base, &self.delta]
    }

    /// Fetches an entity by id.
    ///
    /// # Panics
    /// Panics if the id was not produced by this store.
    #[inline]
    pub fn get(&self, id: EntityId) -> &Entity {
        let i = id.index();
        match self.base.entities.get(i) {
            Some(e) => e,
            None => &self.delta.entities[i - self.base.entities.len()],
        }
    }

    /// Number of distinct entities.
    pub fn len(&self) -> usize {
        self.base.entities.len() + self.delta.entities.len()
    }

    /// Whether the dictionary is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of distinct entities of one kind.
    pub fn count_kind(&self, kind: EntityKind) -> usize {
        let slot = kind_slot(kind);
        self.layers().iter().map(|l| l.by_kind[slot].len()).sum()
    }

    /// Entities copied so far by copy-on-write of a layer a snapshot
    /// shared, and by merges. Publishing itself copies none.
    pub fn entries_copied(&self) -> u64 {
        self.entries_copied
    }

    /// Read-only dedup probe: the id of an already-interned ⟨agent, attrs⟩
    /// combination, or `None` when the observation is genuinely new. The
    /// copy-on-write ingest fast path probes this through the shared
    /// dictionary `Arc` — an all-hits batch never clones the dictionary.
    pub fn lookup(&self, agent: AgentId, attrs: EntityAttrs) -> Option<EntityId> {
        self.dedup.get(&(agent, attrs)).copied()
    }

    /// Records a dedup hit observed through [`Self::lookup`] (interning
    /// through `intern` records its own hits).
    pub fn note_dedup_hit(&self) {
        self.dedup_hits
            .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    }

    /// Observations that were absorbed by deduplication.
    pub fn dedup_hits(&self) -> u64 {
        self.dedup_hits.load(std::sync::atomic::Ordering::Relaxed)
    }

    /// Iterates all entities in id order.
    pub fn iter(&self) -> impl Iterator<Item = &Entity> {
        self.base.entities.iter().chain(&self.delta.entities)
    }

    /// Resolves the set of entity ids of `kind` satisfying all `constraints`
    /// (and, if given, restricted to `agents`). Uses the dictionary indexes
    /// when a constraint targets the kind's indexed attribute; otherwise
    /// falls back to a scan of the (small) per-kind dictionary.
    pub fn find(
        &self,
        kind: EntityKind,
        agents: Option<&[AgentId]>,
        constraints: &[EntityConstraint],
    ) -> Vec<EntityId> {
        // Sort the agent restriction once so the per-candidate test is a
        // binary search; a restriction covering every observed host is a
        // no-op and is dropped entirely.
        let sorted_agents: Option<Vec<AgentId>> = agents.map(|a| {
            let mut v = a.to_vec();
            v.sort_unstable();
            v.dedup();
            v
        });
        let agent_filter: Option<&[AgentId]> = match &sorted_agents {
            Some(v) if covers(v, &self.agents_seen) => None,
            Some(v) => Some(v.as_slice()),
            None => None,
        };
        // Seed the candidate set from the most selective dictionary index
        // hit (every constraint is re-verified below, so any seed is sound).
        let candidates: Option<Vec<EntityId>> = constraints
            .iter()
            .filter_map(|c| self.index_lookup(kind, c))
            .min_by_key(Vec::len);
        let check = |id: &EntityId| -> bool {
            let e = self.get(*id);
            if e.kind() != kind {
                return false;
            }
            if let Some(agents) = agent_filter {
                if agents.binary_search(&e.agent).is_err() {
                    return false;
                }
            }
            constraints.iter().all(|c| self.eval(e, c))
        };
        match candidates {
            Some(seed) => seed.into_iter().filter(|id| check(id)).collect(),
            None => {
                let slot = kind_slot(kind);
                self.layers()
                    .iter()
                    .flat_map(|l| &l.by_kind[slot])
                    .copied()
                    .filter(|id| check(id))
                    .collect()
            }
        }
    }

    /// Attempts an index-assisted candidate lookup for one constraint. The
    /// returned id vector is **sorted and deduped** (dictionary-assigned ids
    /// ascend, so downstream posting-list merges can sort-merge).
    fn index_lookup(&self, kind: EntityKind, c: &EntityConstraint) -> Option<Vec<EntityId>> {
        let indexed = match kind {
            EntityKind::Process => matches!(c.resolved_attr(kind), "exe_name" | "name"),
            EntityKind::File => matches!(c.resolved_attr(kind), "name" | "path"),
            EntityKind::NetConn => matches!(c.resolved_attr(kind), "dst_ip" | "dstip"),
        };
        if !indexed {
            return None;
        }
        let key = match (kind, &c.cmp) {
            (EntityKind::NetConn, AttrCmp::Eq(Value::Ip(ip))) => ip.0,
            (EntityKind::Process | EntityKind::File, AttrCmp::Eq(Value::Str(sym))) => sym.raw(),
            (_, AttrCmp::Like(p)) => return Some(self.like_lookup(kind, p)),
            _ => return None,
        };
        // Base ids precede delta ids: the concatenation stays ascending.
        let slot = kind_slot(kind);
        Some(
            self.layers()
                .iter()
                .filter_map(|l| l.keys[slot].postings.get(&key))
                .flatten()
                .copied()
                .collect(),
        )
    }

    /// The entities of `kind` whose key attribute matches a `LIKE` pattern.
    /// Each layer's n-gram index resolves the keys first seen there, so the
    /// two layers' key lists are disjoint (casings of one name are distinct
    /// keys and may sit in different layers); each key then collects its
    /// entities from both layers.
    fn like_lookup(&self, kind: EntityKind, p: &StringPattern) -> Vec<EntityId> {
        let slot = kind_slot(kind);
        let matches = |key: u32| p.matches(&render_key(&self.interner, kind, key));
        let mut keys: Vec<u32> = Vec::new();
        let mut scan = !self.ngram_index;
        if self.ngram_index {
            for layer in self.layers() {
                match layer.keys[slot].dict.resolve(p) {
                    DictCandidates::Definitive(k) => keys.extend(k),
                    DictCandidates::Verify(k) => keys.extend(k.into_iter().filter(|&k| matches(k))),
                    DictCandidates::Scan => scan = true,
                }
            }
        }
        if scan {
            // Evaluate the pattern once per *distinct* key — the core
            // dictionary-vs-events asymmetry (and the n-gram fallback when
            // no literal run is trigram-sized).
            let (base, delta) = (
                &self.base.keys[slot].postings,
                &self.delta.keys[slot].postings,
            );
            keys = base
                .keys()
                .chain(delta.keys().filter(|k| !base.contains_key(k)))
                .copied()
                .filter(|&k| matches(k))
                .collect();
        }
        let mut ids = Vec::new();
        for key in keys {
            for layer in self.layers() {
                if let Some(l) = layer.keys[slot].postings.get(&key) {
                    ids.extend_from_slice(l);
                }
            }
        }
        finish_ids(ids)
    }

    /// Evaluates one constraint against one entity.
    pub fn eval(&self, entity: &Entity, c: &EntityConstraint) -> bool {
        let attr = c.resolved_attr(entity.kind());
        let Ok(actual) = entity.get(attr) else {
            return false;
        };
        self.eval_value(actual, &c.cmp)
    }

    /// Evaluates a comparison against a concrete attribute value.
    pub fn eval_value(&self, actual: Value, cmp: &AttrCmp) -> bool {
        use std::cmp::Ordering::*;
        match cmp {
            AttrCmp::Eq(v) => actual.compare(*v) == Some(Equal),
            AttrCmp::Ne(v) => matches!(actual.compare(*v), Some(Less) | Some(Greater)),
            AttrCmp::Lt(v) => actual.compare(*v) == Some(Less),
            AttrCmp::Le(v) => matches!(actual.compare(*v), Some(Less) | Some(Equal)),
            AttrCmp::Gt(v) => actual.compare(*v) == Some(Greater),
            AttrCmp::Ge(v) => matches!(actual.compare(*v), Some(Greater) | Some(Equal)),
            AttrCmp::Like(p) => match actual {
                Value::Str(sym) => p.matches(self.interner.resolve(sym)),
                Value::Ip(ip) => p.matches(&ip.to_string()),
                _ => false,
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aiql_model::{FileAttrs, IpV4, NetConnAttrs, ProcessAttrs, Protocol};

    fn store_with_procs(names: &[&str]) -> EntityStore {
        let mut s = EntityStore::new();
        for (i, name) in names.iter().enumerate() {
            let exe = s.interner_mut().intern(name);
            let user = s.interner_mut().intern("alice");
            let cmd = s.interner_mut().intern("");
            s.intern(
                AgentId(1),
                EntityAttrs::Process(ProcessAttrs {
                    pid: 1000 + i as u32,
                    exe_name: exe,
                    user,
                    cmdline: cmd,
                }),
            );
        }
        s
    }

    #[test]
    fn interning_dedups_identical_entities() {
        let mut s = EntityStore::new();
        let exe = s.interner_mut().intern("cmd.exe");
        let user = s.interner_mut().intern("bob");
        let cmd = s.interner_mut().intern("");
        let attrs = EntityAttrs::Process(ProcessAttrs {
            pid: 42,
            exe_name: exe,
            user,
            cmdline: cmd,
        });
        let a = s.intern(AgentId(1), attrs);
        let b = s.intern(AgentId(1), attrs);
        assert_eq!(a, b);
        assert_eq!(s.len(), 1);
        assert_eq!(s.dedup_hits(), 1);
        // Same attrs on another host is a different entity.
        let c = s.intern(AgentId(2), attrs);
        assert_ne!(a, c);
        assert_eq!(s.len(), 2);
    }

    #[test]
    fn like_lookup_uses_name_dictionary() {
        let s = store_with_procs(&[
            "C:\\Windows\\cmd.exe",
            "C:\\Windows\\powershell.exe",
            "/usr/bin/bash",
        ]);
        let found = s.find(
            EntityKind::Process,
            None,
            &[EntityConstraint::on_default(AttrCmp::Like(
                StringPattern::new("%cmd.exe"),
            ))],
        );
        assert_eq!(found.len(), 1);
        let e = s.get(found[0]);
        assert_eq!(e.kind(), EntityKind::Process);
    }

    #[test]
    fn agent_filter_applies() {
        let mut s = store_with_procs(&["a.exe"]);
        let exe = s.interner_mut().intern("a.exe");
        let user = s.interner_mut().intern("alice");
        let cmd = s.interner_mut().intern("");
        s.intern(
            AgentId(2),
            EntityAttrs::Process(ProcessAttrs {
                pid: 7,
                exe_name: exe,
                user,
                cmdline: cmd,
            }),
        );
        let only_agent2 = s.find(EntityKind::Process, Some(&[AgentId(2)]), &[]);
        assert_eq!(only_agent2.len(), 1);
        assert_eq!(s.get(only_agent2[0]).agent, AgentId(2));
    }

    #[test]
    fn netconn_dst_ip_index() {
        let mut s = EntityStore::new();
        for d in [1u8, 2, 129] {
            s.intern(
                AgentId(1),
                EntityAttrs::NetConn(NetConnAttrs {
                    src_ip: IpV4::from_octets(10, 0, 0, 5),
                    src_port: 5000,
                    dst_ip: IpV4::from_octets(10, 0, 4, d),
                    dst_port: 443,
                    protocol: Protocol::Tcp,
                }),
            );
        }
        let hit = s.find(
            EntityKind::NetConn,
            None,
            &[EntityConstraint::on(
                "dstip",
                AttrCmp::Eq(Value::Ip(IpV4::from_octets(10, 0, 4, 129))),
            )],
        );
        assert_eq!(hit.len(), 1);
        // LIKE over rendered IPs also works (`%.129`).
        let like = s.find(
            EntityKind::NetConn,
            None,
            &[EntityConstraint::on(
                "dstip",
                AttrCmp::Like(StringPattern::new("%.129")),
            )],
        );
        assert_eq!(like, hit);
    }

    #[test]
    fn numeric_constraints_scan_dictionary() {
        let s = store_with_procs(&["a", "b", "c"]);
        let found = s.find(
            EntityKind::Process,
            None,
            &[EntityConstraint::on("pid", AttrCmp::Ge(Value::Int(1001)))],
        );
        assert_eq!(found.len(), 2);
    }

    #[test]
    fn file_name_index() {
        let mut s = EntityStore::new();
        for name in ["/var/www/info_stealer.sh", "/etc/passwd", "/tmp/x"] {
            let n = s.interner_mut().intern(name);
            let o = s.interner_mut().intern("root");
            s.intern(
                AgentId(3),
                EntityAttrs::File(FileAttrs { name: n, owner: o }),
            );
        }
        let found = s.find(
            EntityKind::File,
            None,
            &[EntityConstraint::on_default(AttrCmp::Like(
                StringPattern::new("%info_stealer%"),
            ))],
        );
        assert_eq!(found.len(), 1);
        assert_eq!(s.count_kind(EntityKind::File), 3);
    }

    #[test]
    fn kind_mismatch_yields_empty() {
        let s = store_with_procs(&["x"]);
        assert!(s.find(EntityKind::File, None, &[]).is_empty());
    }

    /// Every pattern shape must resolve identically through the n-gram
    /// index and the naive distinct-string scan, and both must come back
    /// sorted and deduped.
    #[test]
    fn ngram_index_agrees_with_naive_scan() {
        let names = [
            "C:\\Windows\\System32\\cmd.exe",
            "C:\\Windows\\CMD.EXE", // distinct casing, distinct symbol
            "C:\\Windows\\System32\\osql.exe",
            "/usr/sbin/sqlservr.exe",
            "/var/www/uploads/info_stealer.sh",
            "/var/www/uploads/index.php",
            "sbblv.exe",
            "ab", // shorter than a trigram
            "",
        ];
        let indexed = store_with_procs(&names);
        let mut naive = EntityStore::with_ngram_index(false);
        for (i, name) in names.iter().enumerate() {
            let exe = naive.interner_mut().intern(name);
            let user = naive.interner_mut().intern("alice");
            let cmd = naive.interner_mut().intern("");
            naive.intern(
                AgentId(1),
                EntityAttrs::Process(ProcessAttrs {
                    pid: 1000 + i as u32,
                    exe_name: exe,
                    user,
                    cmdline: cmd,
                }),
            );
        }
        let patterns = [
            "%cmd.exe",       // suffix, matches both casings
            "cmd.exe",        // exact (case-insensitive like)
            "C:\\Windows\\%", // prefix
            "%info_stealer%", // infix
            "%sql%",          // infix hitting two names
            "%o_ql%",         // `_` one-char wildcard inside a run
            "%",              // matches everything
            "ab",             // short exact
            "%zz%",           // no candidate trigram
            "",               // empty exact
            "x_",             // short scan shape, no trigram
        ];
        for pat in patterns {
            let c = [EntityConstraint::on_default(AttrCmp::Like(
                StringPattern::new(pat),
            ))];
            let a = indexed.find(EntityKind::Process, None, &c);
            let b = naive.find(EntityKind::Process, None, &c);
            assert!(a.windows(2).all(|w| w[0] < w[1]), "sorted: {pat}");
            assert_eq!(a, b, "pattern {pat:?}");
        }
    }

    #[test]
    fn ip_like_resolves_through_ngram_index() {
        let mut s = EntityStore::new();
        for d in [1u8, 2, 129, 130] {
            s.intern(
                AgentId(1),
                EntityAttrs::NetConn(NetConnAttrs {
                    src_ip: IpV4::from_octets(10, 0, 0, 5),
                    src_port: 5000,
                    dst_ip: IpV4::from_octets(172, 16, 99, d),
                    dst_port: 443,
                    protocol: Protocol::Tcp,
                }),
            );
        }
        let like = |pat: &str| {
            s.find(
                EntityKind::NetConn,
                None,
                &[EntityConstraint::on(
                    "dstip",
                    AttrCmp::Like(StringPattern::new(pat)),
                )],
            )
        };
        assert_eq!(like("172.16.99.%").len(), 4);
        assert_eq!(like("%.129").len(), 1);
        assert_eq!(like("172.16.99.129").len(), 1);
        assert!(like("10.0.%").is_empty());
    }

    #[test]
    fn agent_restriction_covering_all_hosts_is_dropped() {
        let mut s = store_with_procs(&["a.exe", "b.exe"]);
        let exe = s.interner_mut().intern("a.exe");
        let user = s.interner_mut().intern("alice");
        let cmd = s.interner_mut().intern("");
        s.intern(
            AgentId(9),
            EntityAttrs::Process(ProcessAttrs {
                pid: 7,
                exe_name: exe,
                user,
                cmdline: cmd,
            }),
        );
        let unrestricted = s.find(EntityKind::Process, None, &[]);
        // A superset of every observed host behaves exactly like `None`
        // (and exercises the unsorted-input path: agents arrive unsorted).
        let all = s.find(
            EntityKind::Process,
            Some(&[AgentId(9), AgentId(1), AgentId(3)]),
            &[],
        );
        assert_eq!(all, unrestricted);
        // A genuine restriction still filters.
        let only9 = s.find(EntityKind::Process, Some(&[AgentId(9)]), &[]);
        assert_eq!(only9.len(), 1);
        assert!(s.find(EntityKind::Process, Some(&[]), &[]).is_empty());
    }

    #[test]
    fn index_lookup_outputs_are_sorted_and_deduped() {
        // Two constraints resolvable by index: find must seed from the
        // smaller and still return ascending ids.
        let s = store_with_procs(&["match.exe", "other.exe", "match.exe2", "MATCH.exe"]);
        let found = s.find(
            EntityKind::Process,
            None,
            &[EntityConstraint::on_default(AttrCmp::Like(
                StringPattern::new("%match%"),
            ))],
        );
        assert_eq!(found.len(), 3);
        assert!(found.windows(2).all(|w| w[0] < w[1]));
    }

    /// Names with casing variants of one rendering (`cmd.exe`), shared
    /// trigrams (`sql`) and sub-trigram lengths.
    const NAMES: [&str; 12] = [
        "cmd.exe",
        "CMD.EXE",
        "Cmd.Exe",
        "osql.exe",
        "sqlservr.exe",
        "backup1.dmp",
        "/var/www/info_stealer.sh",
        "sbblv.exe",
        "C:\\Windows\\cmd.exe",
        "a",
        "ab",
        "",
    ];
    const USERS: [&str; 2] = ["alice", "root"];
    const IPS: [IpV4; 5] = [
        IpV4::from_octets(10, 0, 4, 1),
        IpV4::from_octets(10, 0, 4, 129),
        IpV4::from_octets(172, 16, 99, 129),
        IpV4::from_octets(172, 16, 99, 13),
        IpV4::from_octets(10, 0, 0, 5),
    ];
    const NAME_PATTERNS: [&str; 18] = [
        "cmd.exe",
        "CMD.exe",
        "c%",
        "cmd%",
        "C:\\%",
        "%.exe",
        "%exe",
        "%sql%",
        "_md.exe",
        "%o_ql%",
        "%info_stealer%",
        "/var/%",
        "%",
        "",
        "ab",
        "a_",
        "%zz%",
        "backup1.dmp",
    ];
    const IP_PATTERNS: [&str; 7] = [
        "10.0.4.%",
        "%.129",
        "172.16.99.129",
        "%.1_",
        "1_.0.%",
        "%99%",
        "%",
    ];

    /// The brute-force model: every string interned and every entity
    /// observed, in order. Distinct entities and their ids come from a
    /// first-occurrence scan of an observation prefix.
    #[derive(Default)]
    struct Oracle {
        strings: Vec<String>,
        observations: Vec<(AgentId, EntityAttrs)>,
    }

    impl Oracle {
        fn intern_str(&mut self, s: &str) -> Symbol {
            match self.strings.iter().position(|x| x == s) {
                Some(i) => Symbol(i as u32),
                None => {
                    self.strings.push(s.to_string());
                    Symbol(self.strings.len() as u32 - 1)
                }
            }
        }
    }

    /// Distinct observations of a prefix, in first-occurrence (id) order.
    fn distinct(observations: &[(AgentId, EntityAttrs)]) -> Vec<(AgentId, EntityAttrs)> {
        let mut out: Vec<(AgentId, EntityAttrs)> = Vec::new();
        for o in observations {
            if !out.contains(o) {
                out.push(*o);
            }
        }
        out
    }

    /// The oracle's own reading of one constraint, over raw strings.
    fn oracle_holds(strings: &[String], attrs: &EntityAttrs, c: &EntityConstraint) -> bool {
        let text = |sym: Symbol| strings[sym.raw() as usize].as_str();
        match (attrs, c.attr.as_str(), &c.cmp) {
            (EntityAttrs::Process(p), "pid", AttrCmp::Lt(Value::Int(n))) => i64::from(p.pid) < *n,
            (EntityAttrs::Process(p), "", cmp) => text_holds(text(p.exe_name), cmp, &text),
            (EntityAttrs::File(f), "", cmp) => text_holds(text(f.name), cmp, &text),
            (EntityAttrs::NetConn(n), "", AttrCmp::Eq(Value::Ip(ip))) => n.dst_ip == *ip,
            (EntityAttrs::NetConn(n), "", AttrCmp::Lt(Value::Ip(ip))) => n.dst_ip.0 < ip.0,
            (EntityAttrs::NetConn(n), "", AttrCmp::Like(p)) => p.matches(&n.dst_ip.to_string()),
            // A constraint aimed at another kind's attribute never holds.
            _ => false,
        }
    }

    fn text_holds<'a>(actual: &str, cmp: &AttrCmp, text: &impl Fn(Symbol) -> &'a str) -> bool {
        match cmp {
            AttrCmp::Eq(Value::Str(sym)) => actual == text(*sym),
            AttrCmp::Ne(Value::Str(sym)) => actual != text(*sym),
            AttrCmp::Like(p) => p.matches(actual),
            _ => false,
        }
    }

    /// The probes run on every snapshot: each pairs with every agent
    /// restriction below.
    fn probes(strings: &[String]) -> Vec<(EntityKind, Vec<EntityConstraint>)> {
        let mut out = Vec::new();
        for kind in [EntityKind::Process, EntityKind::File, EntityKind::NetConn] {
            out.push((kind, Vec::new()));
        }
        for (i, s) in strings.iter().enumerate() {
            if NAMES.contains(&s.as_str()) {
                let v = Value::Str(Symbol(i as u32));
                for kind in [EntityKind::Process, EntityKind::File] {
                    out.push((kind, vec![EntityConstraint::on_default(AttrCmp::Eq(v))]));
                    out.push((kind, vec![EntityConstraint::on_default(AttrCmp::Ne(v))]));
                }
            }
        }
        for pat in NAME_PATTERNS {
            let like = EntityConstraint::on_default(AttrCmp::Like(StringPattern::new(pat)));
            out.push((EntityKind::Process, vec![like.clone()]));
            out.push((EntityKind::File, vec![like.clone()]));
            out.push((
                EntityKind::Process,
                vec![
                    like,
                    EntityConstraint::on("pid", AttrCmp::Lt(Value::Int(2))),
                ],
            ));
        }
        for ip in &IPS[..3] {
            let eq = EntityConstraint::on_default(AttrCmp::Eq(Value::Ip(*ip)));
            let lt = EntityConstraint::on_default(AttrCmp::Lt(Value::Ip(*ip)));
            out.push((EntityKind::NetConn, vec![eq]));
            out.push((EntityKind::NetConn, vec![lt]));
        }
        for pat in IP_PATTERNS {
            let like = EntityConstraint::on_default(AttrCmp::Like(StringPattern::new(pat)));
            out.push((EntityKind::NetConn, vec![like]));
        }
        out
    }

    /// Checks one dictionary against the oracle's prefix
    /// (`strings`, `observations`).
    fn check_against_oracle(
        store: &EntityStore,
        strings: &[String],
        observations: &[(AgentId, EntityAttrs)],
    ) {
        let want = distinct(observations);
        // Interner: every symbol resolves, every string (and only those)
        // looks up.
        let interner = store.interner();
        assert_eq!(interner.len(), strings.len());
        for (i, s) in strings.iter().enumerate() {
            assert_eq!(interner.resolve(Symbol(i as u32)), s);
            assert_eq!(interner.get(s), Some(Symbol(i as u32)));
        }
        for s in NAMES.iter().chain(&USERS) {
            if !strings.iter().any(|x| x == s) {
                assert_eq!(interner.get(s), None, "{s:?} is not interned yet");
            }
        }
        // Entities: len, get, iter order, per-kind counts.
        assert_eq!(store.len(), want.len());
        let got: Vec<Entity> = store.iter().copied().collect();
        for (i, (agent, attrs)) in want.iter().enumerate() {
            let e = Entity {
                id: EntityId(i as u32),
                agent: *agent,
                attrs: *attrs,
            };
            assert_eq!(*store.get(e.id), e);
            assert_eq!(got[i], e);
        }
        assert_eq!(got.len(), want.len());
        for kind in [EntityKind::Process, EntityKind::File, EntityKind::NetConn] {
            let n = want.iter().filter(|(_, a)| a.kind() == kind).count();
            assert_eq!(store.count_kind(kind), n);
        }
        // find: every probe under every agent restriction.
        let restrictions: [Option<&[AgentId]>; 6] = [
            None,
            Some(&[]),
            Some(&[AgentId(0)]),
            Some(&[AgentId(3), AgentId(1)]),
            Some(&[AgentId(0), AgentId(1), AgentId(2), AgentId(3)]),
            Some(&[AgentId(9), AgentId(2), AgentId(0), AgentId(3), AgentId(1)]),
        ];
        for (kind, constraints) in probes(strings) {
            for agents in restrictions {
                let expect: Vec<EntityId> = want
                    .iter()
                    .enumerate()
                    .filter(|(_, (agent, attrs))| {
                        attrs.kind() == kind
                            && agents.is_none_or(|a| a.contains(agent))
                            && constraints.iter().all(|c| oracle_holds(strings, attrs, c))
                    })
                    .map(|(i, _)| EntityId(i as u32))
                    .collect();
                assert_eq!(
                    store.find(kind, agents, &constraints),
                    expect,
                    "{kind:?} {constraints:?} agents {agents:?}"
                );
            }
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(32))]

        /// Random interning, publishing and merges: every published view
        /// answers exactly like a brute-force filter over the observations
        /// made before it was published, then and after everything that
        /// follows.
        #[test]
        fn layered_dictionary_matches_brute_force_oracle(
            ops in proptest::collection::vec((0u8..16, 0usize..64, 0u32..64), 1..160),
            ngram_index in proptest::prelude::any::<bool>(),
        ) {
            let mut store = EntityStore::with_ngram_index(ngram_index);
            let mut oracle = Oracle::default();
            oracle.intern_str("");
            let mut views: Vec<(EntityStore, usize, usize)> = Vec::new();
            for (op, a, b) in ops {
                let agent = AgentId(((a / NAMES.len()) as u32 + b) % 4);
                let name = NAMES[a % NAMES.len()];
                let user = USERS[b as usize % USERS.len()];
                let attrs = match op {
                    0..=3 => {
                        let exe = store.interner_mut().intern(name);
                        let u = store.interner_mut().intern(user);
                        let cmd = store.interner_mut().intern("");
                        for s in [name, user, ""] {
                            oracle.intern_str(s);
                        }
                        Some(EntityAttrs::Process(ProcessAttrs {
                            pid: b % 3,
                            exe_name: exe,
                            user: u,
                            cmdline: cmd,
                        }))
                    }
                    4..=6 => {
                        let n = store.interner_mut().intern(name);
                        let o = store.interner_mut().intern(user);
                        oracle.intern_str(name);
                        oracle.intern_str(user);
                        Some(EntityAttrs::File(FileAttrs { name: n, owner: o }))
                    }
                    7..=8 => Some(EntityAttrs::NetConn(NetConnAttrs {
                        src_ip: IPS[4],
                        src_port: 5000 + (b % 2) as u16,
                        dst_ip: IPS[a % IPS.len()],
                        dst_port: 443,
                        protocol: Protocol::Tcp,
                    })),
                    // A bare string: later entities then carry symbols
                    // interned long before their first use.
                    9 => {
                        store.interner_mut().intern(name);
                        oracle.intern_str(name);
                        None
                    }
                    10..=11 => {
                        let view = store.read_view();
                        check_against_oracle(&view, &oracle.strings, &oracle.observations);
                        views.push((view, oracle.strings.len(), oracle.observations.len()));
                        None
                    }
                    12 => {
                        store.merge();
                        None
                    }
                    // A repeat of an earlier observation (a dedup hit).
                    _ => oracle.observations.get(a % oracle.observations.len().max(1)).map(|o| o.1),
                };
                if let Some(attrs) = attrs {
                    let agent = if op >= 13 {
                        oracle.observations[a % oracle.observations.len()].0
                    } else {
                        agent
                    };
                    store.intern(agent, attrs);
                    oracle.observations.push((agent, attrs));
                }
            }
            check_against_oracle(&store, &oracle.strings, &oracle.observations);
            // Pinned views never change under later interning or merges.
            for (view, strings, observations) in &views {
                check_against_oracle(
                    view,
                    &oracle.strings[..*strings],
                    &oracle.observations[..*observations],
                );
            }
        }
    }
}
