//! `Project` / `Aggregate`: the projection operator closing the pipeline.
//!
//! Consumes the joined tuple frontier and produces the final result table:
//! return items, grouping + aggregation, having, distinct, order by,
//! limit. Two evaluation paths, selected by
//! `EngineConfig::compiled_projection`:
//!
//! * **slot-compiled** (default): every name is resolved to a dense slot
//!   index and every event attribute to its column before the tuple loop;
//!   the row context is a flat [`SlotRow`] filled from the ref arena's
//!   columns, and distinct/group by hash typed keys — no per-tuple
//!   allocation or string formatting;
//! * **dynamic**: the [`RowCtx`] hash-map path, kept for ablation and as
//!   the fallback when an expression resists compilation.
//!
//! On the dynamic late-materialization path the frontier is a ref arena
//! and the surviving tuples' events are materialized here, exactly once.

use std::collections::{HashMap, HashSet};

use aiql_lang::{Expr, SortDir};
use aiql_model::{EntityId, EventAttr, Value};
use aiql_storage::EventStore;

use crate::analyze::AnalyzedMultievent;
use crate::error::EngineError;
use crate::eval::{self, agg_key, RowCtx, SlotEnv, SlotExpr, SlotRow};
use crate::governor::{GovGate, Governor};
use crate::op::{
    ExecEnv, Frontier, OpIo, Operator, PartTable, PipelineState, RefArena, Tuple, NO_REF, NO_VAR,
};
use crate::result::{KeyWord, ResultTable};

/// The projection operator.
#[derive(Debug, Clone, Copy)]
pub struct Project {
    /// Whether the query aggregates (labels the operator `Aggregate`).
    aggregated: bool,
}

impl Project {
    pub(crate) fn new(aggregated: bool) -> Self {
        Project { aggregated }
    }
}

impl Operator for Project {
    fn kind(&self) -> &'static str {
        if self.aggregated {
            "Aggregate"
        } else {
            "Project"
        }
    }

    fn run(&self, env: &ExecEnv<'_>, st: &mut PipelineState) -> Result<OpIo, EngineError> {
        let rows_in = st.frontier.len();
        let (mut table, materialized) = match &st.frontier {
            Frontier::Refs(arena) => {
                let compiled = env
                    .config
                    .compiled_projection
                    .then(|| compile_projection(env.store, env.a))
                    .flatten();
                match &compiled {
                    Some(cp) => {
                        project_compiled(env.store, env.a, cp, arena.len(), env.gov(), |i, row| {
                            fill_slots_arena(arena, &env.parts, cp, i, row);
                        })?
                    }
                    None => project_with(env.store, env.a, arena.len(), env.gov(), |i, ctx| {
                        fill_ctx_arena(env.a, arena, &env.parts, i, ctx);
                    })?,
                }
            }
            Frontier::Events(tuples) => {
                project_with(env.store, env.a, tuples.len(), env.gov(), |i, ctx| {
                    fill_ctx_tuple(env.a, &tuples[i], ctx);
                })?
            }
        };
        table.truncated = st.truncated;
        let rows_out = table.rows.len();
        st.table = Some(table);
        Ok(OpIo {
            rows_in,
            rows_out,
            fanout: 1,
            emitted_tuples: materialized as u64,
            ..OpIo::default()
        })
    }
}

/// Resets a reused row context (keeping map capacity across tuples).
fn clear_ctx(ctx: &mut RowCtx<'_>) {
    ctx.var_entity.clear();
    ctx.events.clear();
    ctx.aliases.clear();
    ctx.agg_values.clear();
}

/// Populates the row context from a materialized tuple.
fn fill_ctx_tuple<'a>(a: &'a AnalyzedMultievent, t: &Tuple, ctx: &mut RowCtx<'a>) {
    clear_ctx(ctx);
    for (vi, var) in a.vars.iter().enumerate() {
        if let Some(id) = t.vars[vi] {
            ctx.var_entity.insert(var.name.as_str(), id);
        }
    }
    for (pi, p) in a.patterns.iter().enumerate() {
        if let Some(e) = t.events[pi] {
            ctx.events.insert(p.name.as_str(), e);
        }
    }
}

/// Populates the row context straight from the ref arena, materializing the
/// tuple's events on the fly.
fn fill_ctx_arena<'a>(
    a: &'a AnalyzedMultievent,
    arena: &RefArena,
    parts: &PartTable<'_>,
    i: usize,
    ctx: &mut RowCtx<'a>,
) {
    clear_ctx(ctx);
    for (vi, var) in a.vars.iter().enumerate() {
        let id = arena.vars_of(i)[vi];
        if id != NO_VAR {
            ctx.var_entity.insert(var.name.as_str(), EntityId(id));
        }
    }
    for (pi, p) in a.patterns.iter().enumerate() {
        let r = arena.events_of(i)[pi];
        if r != NO_REF {
            ctx.events.insert(p.name.as_str(), parts.event(r));
        }
    }
}

/// Aggregate accumulator.
#[derive(Debug, Clone, Default)]
struct AggAcc {
    count: u64,
    sum: f64,
    all_int: bool,
    min: Option<Value>,
    max: Option<Value>,
}

impl AggAcc {
    fn new() -> Self {
        AggAcc {
            all_int: true,
            ..Default::default()
        }
    }

    fn add(&mut self, v: Value) {
        if v.is_null() {
            return;
        }
        self.count += 1;
        if let Some(x) = v.as_f64() {
            self.sum += x;
        }
        if !matches!(v, Value::Int(_)) {
            self.all_int = false;
        }
        self.min = Some(match self.min {
            Some(m) if eval::cmp_values(&m, &v).is_le() => m,
            _ => v,
        });
        self.max = Some(match self.max {
            Some(m) if eval::cmp_values(&m, &v).is_ge() => m,
            _ => v,
        });
    }

    fn finalize(&self, func: aiql_lang::AggFunc) -> Value {
        use aiql_lang::AggFunc::*;
        match func {
            Count => Value::Int(self.count as i64),
            Sum => {
                if self.all_int {
                    Value::Int(self.sum as i64)
                } else {
                    Value::Float(self.sum)
                }
            }
            Avg => {
                if self.count == 0 {
                    Value::Null
                } else {
                    Value::Float(self.sum / self.count as f64)
                }
            }
            Min => self.min.unwrap_or(Value::Null),
            Max => self.max.unwrap_or(Value::Null),
        }
    }
}

/// Collects every aggregate node appearing in the return items and having
/// clause.
pub(crate) fn collect_aggs(a: &AnalyzedMultievent) -> Vec<(String, aiql_lang::AggFunc, Expr)> {
    let mut out: Vec<(String, aiql_lang::AggFunc, Expr)> = Vec::new();
    let mut visit = |e: &Expr| {
        e.visit(&mut |node| {
            if let Expr::Agg { func, arg } = node {
                let key = agg_key(node);
                if !out.iter().any(|(k, _, _)| k == &key) {
                    out.push((key, *func, (**arg).clone()));
                }
            }
        });
    };
    for item in &a.ret.items {
        visit(&item.expr);
    }
    if let Some(h) = &a.having {
        visit(h);
    }
    out
}

/// Column header for a return item.
fn column_name(item: &aiql_lang::ReturnItem) -> String {
    item.alias
        .clone()
        .unwrap_or_else(|| aiql_lang::pretty::print_expr(&item.expr))
}

/// A fully slot-compiled projection: return items, grouping keys, having
/// filter, and aggregate arguments with every name resolved to a dense
/// slot and every event attribute to its column, plus the variable slots
/// and (pattern, attribute) cells the projection actually reads. Tuples
/// bind into a reused [`SlotRow`] — no per-tuple hash maps, and no event
/// is ever materialized whole.
struct CompiledProjection {
    /// Compiled return items, in column order.
    items: Vec<SlotExpr>,
    /// Alias slot written after evaluating each item (aggregated path).
    alias_slot: Vec<Option<usize>>,
    /// Number of alias slots.
    naliases: usize,
    /// Compiled grouping keys.
    group_by: Vec<SlotExpr>,
    /// Compiled having filter.
    having: Option<SlotExpr>,
    /// Aggregates: function + compiled argument, in [`collect_aggs`] order
    /// (the dense index [`SlotExpr::Agg`] nodes refer to).
    aggs: Vec<(aiql_lang::AggFunc, SlotExpr)>,
    /// (pattern, attribute) cells referenced anywhere in the projection.
    used_event_attrs: Vec<(usize, EventAttr)>,
    /// Variable slots referenced anywhere in the projection.
    used_vars: Vec<usize>,
}

/// Compiles a query's projection to slots. `None` when any expression
/// resists compilation (unknown name or event attribute, historical
/// access) — the caller then keeps the dynamic [`RowCtx`] path, which
/// reproduces legacy behavior bit for bit, errors included.
fn compile_projection(store: &EventStore, a: &AnalyzedMultievent) -> Option<CompiledProjection> {
    let aggs_src = collect_aggs(a);
    let mut env = SlotEnv {
        vars: a
            .vars
            .iter()
            .enumerate()
            .map(|(i, v)| (v.name.as_str(), i))
            .collect(),
        events: a
            .patterns
            .iter()
            .enumerate()
            .map(|(i, p)| (p.name.as_str(), i))
            .collect(),
        aliases: HashMap::new(),
        aggs: aggs_src
            .iter()
            .enumerate()
            .map(|(i, (k, _, _))| (k.clone(), i))
            .collect(),
    };
    // Compile items in order; each alias becomes visible to later items,
    // the grouping keys, the having clause, and the aggregate arguments —
    // the same progressive scope the analyzer validated against.
    let mut items = Vec::with_capacity(a.ret.items.len());
    let mut alias_slot = Vec::with_capacity(a.ret.items.len());
    let mut naliases = 0usize;
    for item in &a.ret.items {
        items.push(eval::compile_slots(&item.expr, store, &env)?);
        alias_slot.push(item.alias.as_ref().map(|alias| {
            let slot = naliases;
            naliases += 1;
            env.aliases.insert(alias.as_str(), slot);
            slot
        }));
    }
    let group_by: Vec<SlotExpr> = a
        .group_by
        .iter()
        .map(|g| eval::compile_slots(g, store, &env))
        .collect::<Option<_>>()?;
    let having = match &a.having {
        Some(h) => Some(eval::compile_slots(h, store, &env)?),
        None => None,
    };
    let aggs: Vec<(aiql_lang::AggFunc, SlotExpr)> = aggs_src
        .iter()
        .map(|(_, func, arg)| Some((*func, eval::compile_slots(arg, store, &env)?)))
        .collect::<Option<_>>()?;

    let mut used_event_attrs: Vec<(usize, EventAttr)> = Vec::new();
    let mut used_vars: Vec<usize> = Vec::new();
    {
        let mut mark = |e: &SlotExpr| {
            e.visit(&mut |node| match node {
                SlotExpr::Event { slot, attr, .. }
                    if !used_event_attrs.contains(&(*slot, *attr)) =>
                {
                    used_event_attrs.push((*slot, *attr));
                }
                SlotExpr::Entity { slot, .. } if !used_vars.contains(slot) => {
                    used_vars.push(*slot);
                }
                _ => {}
            });
        };
        for e in items.iter().chain(&group_by).chain(having.iter()) {
            mark(e);
        }
        for (_, arg) in &aggs {
            mark(arg);
        }
    }
    Some(CompiledProjection {
        items,
        alias_slot,
        naliases,
        group_by,
        having,
        aggs,
        used_event_attrs,
        used_vars,
    })
}

/// Populates a slot row from the ref arena, reading only the variable
/// slots and event columns the compiled projection uses.
fn fill_slots_arena(
    arena: &RefArena,
    parts: &PartTable<'_>,
    cp: &CompiledProjection,
    i: usize,
    row: &mut SlotRow,
) {
    let vars = arena.vars_of(i);
    for &v in &cp.used_vars {
        let id = vars[v];
        row.entities[v] = (id != NO_VAR).then_some(EntityId(id));
    }
    let events = arena.events_of(i);
    for &(pi, attr) in &cp.used_event_attrs {
        let r = events[pi];
        row.event_attrs[SlotRow::event_cell(pi, attr)] = (r != NO_REF).then(|| parts.attr(r, attr));
    }
}

/// One aggregate's running state, specialized to its function so each
/// value does only the work that function needs.
#[derive(Debug, Clone, Copy)]
enum Acc {
    Count(u64),
    Sum { sum: f64, all_int: bool },
    Avg { sum: f64, count: u64 },
    Min(Option<Value>),
    Max(Option<Value>),
}

impl Acc {
    fn new(func: aiql_lang::AggFunc) -> Self {
        use aiql_lang::AggFunc::*;
        match func {
            Count => Acc::Count(0),
            Sum => Acc::Sum {
                sum: 0.0,
                all_int: true,
            },
            Avg => Acc::Avg { sum: 0.0, count: 0 },
            Min => Acc::Min(None),
            Max => Acc::Max(None),
        }
    }

    /// Folds one value in; nulls are skipped by every function.
    #[inline]
    fn add(&mut self, v: Value) {
        if v.is_null() {
            return;
        }
        match self {
            Acc::Count(n) => *n += 1,
            Acc::Sum { sum, all_int } => {
                if let Some(x) = v.as_f64() {
                    *sum += x;
                }
                *all_int &= matches!(v, Value::Int(_));
            }
            Acc::Avg { sum, count } => {
                *count += 1;
                if let Some(x) = v.as_f64() {
                    *sum += x;
                }
            }
            // Ties keep the earlier value, as in [`AggAcc`].
            Acc::Min(m) => {
                if !m.is_some_and(|m| eval::cmp_values(&m, &v).is_le()) {
                    *m = Some(v);
                }
            }
            Acc::Max(m) => {
                if !m.is_some_and(|m| eval::cmp_values(&m, &v).is_ge()) {
                    *m = Some(v);
                }
            }
        }
    }

    fn finish(&self) -> Value {
        match *self {
            Acc::Count(n) => Value::Int(n as i64),
            Acc::Sum { sum, all_int: true } => Value::Int(sum as i64),
            Acc::Sum { sum, .. } => Value::Float(sum),
            Acc::Avg { count: 0, .. } => Value::Null,
            Acc::Avg { sum, count } => Value::Float(sum / count as f64),
            Acc::Min(m) | Acc::Max(m) => m.unwrap_or(Value::Null),
        }
    }
}

/// The rows a compiled projection keeps before order by and limit. With
/// `distinct`, each candidate row is hashed by its typed key and copied
/// out of the caller's scratch row only when the key is new, so first
/// occurrences survive in order.
struct RowSink {
    rows: Vec<Vec<Value>>,
    seen: Option<HashSet<Box<[KeyWord]>>>,
    key: Vec<KeyWord>,
}

impl RowSink {
    fn new(distinct: bool) -> Self {
        RowSink {
            rows: Vec::new(),
            seen: distinct.then(HashSet::new),
            key: Vec::new(),
        }
    }

    fn push(&mut self, row: &[Value]) {
        if let Some(seen) = &mut self.seen {
            ResultTable::typed_key(row, &mut self.key);
            if seen.contains(self.key.as_slice()) {
                return;
            }
            seen.insert(self.key.as_slice().into());
        }
        self.rows.push(row.to_vec());
    }
}

/// Projection over slot rows: the same traversal as [`project_with`]
/// (grouping by first occurrence, per-item alias scope, having-after-items,
/// distinct by first occurrence) so the output is byte-identical — but
/// every name lookup is an indexed array access, items evaluate into one
/// reused scratch row, and distinct and group keys are typed words rather
/// than formatted strings. Returns the table and the rows materialized
/// before order by and limit.
fn project_compiled(
    store: &EventStore,
    a: &AnalyzedMultievent,
    cp: &CompiledProjection,
    ntuples: usize,
    gov: Option<&Governor>,
    mut fill: impl FnMut(usize, &mut SlotRow),
) -> Result<(ResultTable, usize), EngineError> {
    let columns: Vec<String> = a.ret.items.iter().map(column_name).collect();
    let mut table = ResultTable::new(columns);
    let aggregated = !cp.aggs.is_empty() || !a.group_by.is_empty();
    let mut ctx = SlotRow::new(a.vars.len(), a.patterns.len(), cp.naliases, cp.aggs.len());
    let mut gate = GovGate::new(gov);
    let mut sink = RowSink::new(a.ret.distinct);
    let mut row: Vec<Value> = Vec::with_capacity(cp.items.len());

    if !aggregated {
        for i in 0..ntuples {
            // A trip here either unwinds (error mode) or keeps the rows
            // produced so far — a prefix of the full projection (partial
            // mode; the sticky trip surfaces as a warning on the table).
            if let (Some(t), Some(g)) = (gate.tick(), gov) {
                if !g.partial() {
                    return Err(g.error(t));
                }
                break;
            }
            fill(i, &mut ctx);
            row.clear();
            for item in &cp.items {
                row.push(item.eval(store, &ctx)?);
            }
            if let Some(h) = &cp.having {
                // having without aggregation degenerates to a row filter.
                if !h.eval(store, &ctx)?.truthy() {
                    continue;
                }
            }
            sink.push(&row);
        }
    } else {
        // Groups in first-occurrence order: representative tuple plus
        // `naggs` accumulators each, flat. Without group keys every tuple
        // lands in group 0 and no key is built at all.
        let naggs = cp.aggs.len();
        let mut reps: Vec<usize> = Vec::new();
        let mut accs: Vec<Acc> = Vec::new();
        let mut groups: HashMap<Box<[KeyWord]>, usize> = HashMap::new();
        let mut key: Vec<KeyWord> = Vec::with_capacity(cp.group_by.len());
        for ti in 0..ntuples {
            // Partial mode: aggregates reflect the tuple prefix consumed
            // before the trip (the table carries the warning).
            if let (Some(t), Some(g)) = (gate.tick(), gov) {
                if !g.partial() {
                    return Err(g.error(t));
                }
                break;
            }
            fill(ti, &mut ctx);
            let group = if cp.group_by.is_empty() {
                0
            } else {
                key.clear();
                for g in &cp.group_by {
                    key.push(KeyWord::of(g.eval(store, &ctx)?));
                }
                match groups.get(key.as_slice()) {
                    Some(&g) => g,
                    None => {
                        groups.insert(key.as_slice().into(), reps.len());
                        reps.len()
                    }
                }
            };
            if group == reps.len() {
                reps.push(ti);
                accs.extend(cp.aggs.iter().map(|(func, _)| Acc::new(*func)));
            }
            let group_accs = &mut accs[group * naggs..(group + 1) * naggs];
            for ((_, arg), acc) in cp.aggs.iter().zip(group_accs) {
                acc.add(arg.eval(store, &ctx)?);
            }
        }
        for (group, &rep) in reps.iter().enumerate() {
            fill(rep, &mut ctx);
            for (slot, acc) in accs[group * naggs..(group + 1) * naggs].iter().enumerate() {
                ctx.aggs[slot] = acc.finish();
            }
            ctx.aliases.iter_mut().for_each(|v| *v = None);
            row.clear();
            for (item, alias) in cp.items.iter().zip(&cp.alias_slot) {
                let v = item.eval(store, &ctx)?;
                if let Some(slot) = alias {
                    ctx.aliases[*slot] = Some(v);
                }
                row.push(v);
            }
            if let Some(h) = &cp.having {
                if !h.eval(store, &ctx)?.truthy() {
                    continue;
                }
            }
            sink.push(&row);
        }
    }

    let mut rows = sink.rows;
    let materialized = rows.len();
    order_and_limit(a, &mut rows)?;
    table.rows = rows;
    Ok((table, materialized))
}

/// Projects joined tuples into the final result table (aggregation,
/// having, distinct, order by, limit).
pub fn project(
    store: &EventStore,
    a: &AnalyzedMultievent,
    tuples: &[Tuple],
) -> Result<ResultTable, EngineError> {
    project_with(store, a, tuples.len(), None, |i, ctx| {
        fill_ctx_tuple(a, &tuples[i], ctx);
    })
    .map(|(table, _)| table)
}

/// Core projection over any tuple source: `fill(i, ctx)` populates the
/// (reused) row context for tuple `i`. The late-materialization path feeds
/// its ref arena through this, building each surviving tuple's events
/// exactly once and never allocating an intermediate tuple vector.
/// Returns the table and the rows materialized before order by and limit.
fn project_with<'a>(
    store: &EventStore,
    a: &'a AnalyzedMultievent,
    ntuples: usize,
    gov: Option<&Governor>,
    fill: impl Fn(usize, &mut RowCtx<'a>),
) -> Result<(ResultTable, usize), EngineError> {
    let columns: Vec<String> = a.ret.items.iter().map(column_name).collect();
    let mut table = ResultTable::new(columns);
    let aggs = collect_aggs(a);
    let aggregated = !aggs.is_empty() || !a.group_by.is_empty();
    let mut ctx = RowCtx::default();
    let mut gate = GovGate::new(gov);

    let mut rows: Vec<Vec<Value>> = Vec::new();
    if !aggregated {
        for i in 0..ntuples {
            if let (Some(t), Some(g)) = (gate.tick(), gov) {
                if !g.partial() {
                    return Err(g.error(t));
                }
                break;
            }
            fill(i, &mut ctx);
            let mut row = Vec::with_capacity(a.ret.items.len());
            for item in &a.ret.items {
                row.push(eval::eval(&item.expr, store, &ctx)?);
            }
            if let Some(h) = &a.having {
                // having without aggregation degenerates to a row filter.
                if !eval::eval(h, store, &ctx)?.truthy() {
                    continue;
                }
            }
            rows.push(row);
        }
    } else {
        // Group tuples.
        struct Group {
            rep: usize,
            accs: Vec<AggAcc>,
        }
        let mut groups: HashMap<String, Group> = HashMap::new();
        let mut group_order: Vec<String> = Vec::new();
        for ti in 0..ntuples {
            if let (Some(t), Some(g)) = (gate.tick(), gov) {
                if !g.partial() {
                    return Err(g.error(t));
                }
                break;
            }
            fill(ti, &mut ctx);
            let mut key_vals = Vec::with_capacity(a.group_by.len());
            for g in &a.group_by {
                key_vals.push(eval::eval(g, store, &ctx)?);
            }
            let key = ResultTable::row_key(&key_vals);
            let group = match groups.get_mut(&key) {
                Some(g) => g,
                None => {
                    group_order.push(key.clone());
                    groups.entry(key).or_insert(Group {
                        rep: ti,
                        accs: aggs.iter().map(|_| AggAcc::new()).collect(),
                    })
                }
            };
            for ((_, _, arg), acc) in aggs.iter().zip(group.accs.iter_mut()) {
                acc.add(eval::eval(arg, store, &ctx)?);
            }
        }
        for key in &group_order {
            let group = &groups[key];
            fill(group.rep, &mut ctx);
            for ((k, func, _), acc) in aggs.iter().zip(group.accs.iter()) {
                ctx.agg_values.insert(k.clone(), acc.finalize(*func));
            }
            // Alias environment (items may be referenced by alias in having).
            let mut row = Vec::with_capacity(a.ret.items.len());
            for item in &a.ret.items {
                let v = eval::eval(&item.expr, store, &ctx)?;
                if let Some(alias) = &item.alias {
                    ctx.aliases.insert(alias.clone(), v);
                }
                row.push(v);
            }
            if let Some(h) = &a.having {
                if !eval::eval(h, store, &ctx)?.truthy() {
                    continue;
                }
            }
            rows.push(row);
        }
    }

    let materialized = finish_rows(a, &mut rows)?;
    table.rows = rows;
    Ok((table, materialized))
}

/// The dynamic path's projection tail: distinct by string row key, then
/// order by and limit. Returns the rows kept before order by and limit.
fn finish_rows(a: &AnalyzedMultievent, rows: &mut Vec<Vec<Value>>) -> Result<usize, EngineError> {
    if a.ret.distinct {
        let mut seen = std::collections::HashSet::new();
        rows.retain(|r| seen.insert(ResultTable::row_key(r)));
    }
    let materialized = rows.len();
    order_and_limit(a, rows)?;
    Ok(materialized)
}

/// The projection tail shared by the dynamic and slot-compiled paths:
/// order by (stable), then limit.
fn order_and_limit(a: &AnalyzedMultievent, rows: &mut Vec<Vec<Value>>) -> Result<(), EngineError> {
    if !a.order_by.is_empty() {
        // Each order key must correspond to an output column.
        let mut key_cols = Vec::with_capacity(a.order_by.len());
        for o in &a.order_by {
            let idx = a
                .ret
                .items
                .iter()
                .position(|item| {
                    item.expr == o.expr
                        || matches!(
                            (&o.expr, &item.alias),
                            (Expr::Ref { var, attr: None }, Some(alias)) if var == alias
                        )
                })
                .ok_or_else(|| {
                    EngineError::Analysis(
                        "order by must reference a returned column or alias".into(),
                    )
                })?;
            key_cols.push((idx, o.dir));
        }
        rows.sort_by(|x, y| {
            for (idx, dir) in &key_cols {
                let ord = eval::cmp_values(&x[*idx], &y[*idx]);
                let ord = match dir {
                    SortDir::Asc => ord,
                    SortDir::Desc => ord.reverse(),
                };
                if !ord.is_eq() {
                    return ord;
                }
            }
            std::cmp::Ordering::Equal
        });
    }

    if let Some(limit) = a.limit {
        rows.truncate(limit as usize);
    }
    Ok(())
}
