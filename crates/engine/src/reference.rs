//! Brute-force reference executor — the property-testing oracle.
//!
//! Matches a multievent query by exhaustive backtracking over *all* events
//! with no indexes, no scheduling, no pushdown, and no partitioning. It is
//! deliberately the dumbest correct implementation; the optimized executor
//! must produce exactly the same tuples (verified in the engine's property
//! tests and in `tests/engine_equivalence.rs`). Its projection is naive
//! too, and shares no code with the engine's projection operator.

use std::collections::{BTreeMap, BTreeSet};

use aiql_lang::{AggFunc, Expr, SortDir, TemporalOp};
use aiql_model::{Event, Value};
use aiql_storage::{EventFilter, EventStore};

use crate::analyze::AnalyzedMultievent;
use crate::error::EngineError;
use crate::eval::{self, RowCtx};
use crate::exec::Tuple;
use crate::result::ResultTable;

/// Runs a multievent query by brute force: exhaustive matching, then the
/// naive projection [`project_naive`].
pub fn run_reference(
    store: &EventStore,
    a: &AnalyzedMultievent,
) -> Result<ResultTable, EngineError> {
    let tuples = match_reference(store, a);
    project_naive(store, a, &tuples)
}

/// The oracle's projection. Every tuple binds into a fresh [`RowCtx`];
/// groups are keyed by the `{:?}` text of their key values in a
/// `BTreeMap` and emitted in first-occurrence order; each aggregate keeps
/// all of its group's argument values and folds them once at the end;
/// distinct compares the `{:?}` text of whole rows; order by is a stable
/// sort on the referenced columns.
pub fn project_naive(
    store: &EventStore,
    a: &AnalyzedMultievent,
    tuples: &[Tuple],
) -> Result<ResultTable, EngineError> {
    let columns = a
        .ret
        .items
        .iter()
        .map(|item| {
            item.alias
                .clone()
                .unwrap_or_else(|| aiql_lang::pretty::print_expr(&item.expr))
        })
        .collect();
    let mut table = ResultTable::new(columns);

    // Aggregate nodes of the return items and having, deduplicated by the
    // key the evaluator looks their values up by.
    let mut aggs: Vec<(String, AggFunc, Expr)> = Vec::new();
    for e in a.ret.items.iter().map(|i| &i.expr).chain(a.having.as_ref()) {
        e.visit(&mut |node| {
            if let Expr::Agg { func, arg } = node {
                let key = eval::agg_key(node);
                if aggs.iter().all(|(k, _, _)| *k != key) {
                    aggs.push((key, *func, (**arg).clone()));
                }
            }
        });
    }

    let bind = |t: &Tuple| {
        let mut ctx = RowCtx::default();
        for (var, id) in a.vars.iter().zip(&t.vars) {
            if let Some(id) = id {
                ctx.var_entity.insert(var.name.as_str(), *id);
            }
        }
        for (p, e) in a.patterns.iter().zip(&t.events) {
            if let Some(e) = e {
                ctx.events.insert(p.name.as_str(), *e);
            }
        }
        ctx
    };
    let passes_having = |ctx: &RowCtx<'_>| match &a.having {
        Some(h) => eval::eval(h, store, ctx).map(|v| v.truthy()),
        None => Ok(true),
    };

    let mut rows: Vec<Vec<Value>> = Vec::new();
    if aggs.is_empty() && a.group_by.is_empty() {
        for t in tuples {
            let ctx = bind(t);
            let row = a
                .ret
                .items
                .iter()
                .map(|item| eval::eval(&item.expr, store, &ctx))
                .collect::<Result<Vec<_>, _>>()?;
            if passes_having(&ctx)? {
                rows.push(row);
            }
        }
    } else {
        // Representative tuple and per-aggregate argument values of each
        // group, in first-occurrence order.
        let mut groups: Vec<(usize, Vec<Vec<Value>>)> = Vec::new();
        let mut index: BTreeMap<String, usize> = BTreeMap::new();
        for (ti, t) in tuples.iter().enumerate() {
            let ctx = bind(t);
            let key = a
                .group_by
                .iter()
                .map(|g| eval::eval(g, store, &ctx))
                .collect::<Result<Vec<_>, _>>()?;
            let g = *index.entry(format!("{key:?}")).or_insert_with(|| {
                groups.push((ti, vec![Vec::new(); aggs.len()]));
                groups.len() - 1
            });
            for (k, (_, _, arg)) in aggs.iter().enumerate() {
                let v = eval::eval(arg, store, &ctx)?;
                groups[g].1[k].push(v);
            }
        }
        for (rep, values) in &groups {
            let mut ctx = bind(&tuples[*rep]);
            for ((key, func, _), vals) in aggs.iter().zip(values) {
                ctx.agg_values.insert(key.clone(), fold(*func, vals));
            }
            let mut row = Vec::new();
            for item in &a.ret.items {
                let v = eval::eval(&item.expr, store, &ctx)?;
                if let Some(alias) = &item.alias {
                    ctx.aliases.insert(alias.clone(), v);
                }
                row.push(v);
            }
            if passes_having(&ctx)? {
                rows.push(row);
            }
        }
    }

    if a.ret.distinct {
        let mut seen = BTreeSet::new();
        rows.retain(|r| seen.insert(format!("{r:?}")));
    }
    if !a.order_by.is_empty() {
        let keys = a
            .order_by
            .iter()
            .map(|o| {
                a.ret
                    .items
                    .iter()
                    .position(|item| match (&o.expr, &item.alias) {
                        (Expr::Ref { var, attr: None }, Some(alias)) if var == alias => true,
                        _ => item.expr == o.expr,
                    })
                    .map(|col| (col, o.dir))
                    .ok_or_else(|| {
                        EngineError::Analysis(
                            "order by must reference a returned column or alias".into(),
                        )
                    })
            })
            .collect::<Result<Vec<_>, _>>()?;
        rows.sort_by(|x, y| {
            keys.iter()
                .map(|&(col, dir)| {
                    let ord = eval::cmp_values(&x[col], &y[col]);
                    match dir {
                        SortDir::Asc => ord,
                        SortDir::Desc => ord.reverse(),
                    }
                })
                .find(|ord| ord.is_ne())
                .unwrap_or(std::cmp::Ordering::Equal)
        });
    }
    if let Some(limit) = a.limit {
        rows.truncate(limit as usize);
    }
    table.rows = rows;
    Ok(table)
}

/// Folds one group's argument values for an aggregate. Nulls are
/// skipped; `sum` is an integer when every value is; `min`/`max` keep the
/// earliest of equal values.
fn fold(func: AggFunc, vals: &[Value]) -> Value {
    let vals: Vec<Value> = vals.iter().copied().filter(|v| !v.is_null()).collect();
    // An explicit fold from +0.0: the sum of no numbers prints `0.0`.
    let sum = vals
        .iter()
        .filter_map(|v| v.as_f64())
        .fold(0.0, |s, x| s + x);
    match func {
        AggFunc::Count => Value::Int(vals.len() as i64),
        AggFunc::Sum if vals.iter().all(|v| matches!(v, Value::Int(_))) => Value::Int(sum as i64),
        AggFunc::Sum => Value::Float(sum),
        AggFunc::Avg if vals.is_empty() => Value::Null,
        AggFunc::Avg => Value::Float(sum / vals.len() as f64),
        AggFunc::Min => vals
            .into_iter()
            .reduce(|m, v| {
                if eval::cmp_values(&m, &v).is_le() {
                    m
                } else {
                    v
                }
            })
            .unwrap_or(Value::Null),
        AggFunc::Max => vals
            .into_iter()
            .reduce(|m, v| {
                if eval::cmp_values(&m, &v).is_ge() {
                    m
                } else {
                    v
                }
            })
            .unwrap_or(Value::Null),
    }
}

/// Brute-force tuple matching.
pub fn match_reference(store: &EventStore, a: &AnalyzedMultievent) -> Vec<Tuple> {
    // All events, unconditionally.
    let all = store.scan_unoptimized_collect(&EventFilter::all());
    let n = a.patterns.len();
    let mut out = Vec::new();
    let mut tuple = Tuple {
        events: vec![None; n],
        vars: vec![None; a.vars.len()],
    };
    backtrack(store, a, &all, 0, &mut tuple, &mut out);
    out
}

fn event_satisfies_pattern(
    store: &EventStore,
    a: &AnalyzedMultievent,
    idx: usize,
    e: &Event,
) -> bool {
    let p = &a.patterns[idx];
    if !p.ops.contains(e.op) {
        return false;
    }
    if !a.globals.window.contains(e.start_time) {
        return false;
    }
    if let Some(agents) = &a.globals.agents {
        if !agents.contains(&e.agent) {
            return false;
        }
    }
    for (attr, op, value) in &a.globals.residual {
        let Ok(actual) = e.get(attr) else {
            return false;
        };
        let bin = match op {
            aiql_lang::CmpOp::Eq => aiql_lang::BinOp::Eq,
            aiql_lang::CmpOp::Ne => aiql_lang::BinOp::Ne,
            aiql_lang::CmpOp::Lt => aiql_lang::BinOp::Lt,
            aiql_lang::CmpOp::Le => aiql_lang::BinOp::Le,
            aiql_lang::CmpOp::Gt => aiql_lang::BinOp::Gt,
            aiql_lang::CmpOp::Ge => aiql_lang::BinOp::Ge,
        };
        if !crate::eval::apply_binop(bin, actual, *value).truthy() {
            return false;
        }
    }
    // Entity constraints (and kind checks) for subject and object.
    for (var_idx, id) in [(p.subject, e.subject), (p.object, e.object)] {
        let var = &a.vars[var_idx];
        if var.unsatisfiable {
            return false;
        }
        let entity = store.entities().get(id);
        if entity.kind() != var.kind {
            return false;
        }
        for c in &var.constraints {
            if !store.entities().eval(entity, c) {
                return false;
            }
        }
    }
    if p.subject == p.object && e.subject != e.object {
        return false;
    }
    true
}

fn consistent(a: &AnalyzedMultievent, idx: usize, e: &Event, tuple: &Tuple) -> bool {
    let p = &a.patterns[idx];
    for (var_idx, id) in [(p.subject, e.subject), (p.object, e.object)] {
        if let Some(bound) = tuple.vars[var_idx] {
            if bound != id {
                return false;
            }
        }
    }
    // Temporal relations with already-placed patterns.
    for rel in &a.temporal {
        let (l, r, bound) = match &rel.op {
            TemporalOp::Before(b) => (rel.left, rel.right, b),
            TemporalOp::After(b) => (rel.right, rel.left, b),
        };
        let (left_event, right_event) = if l == idx && tuple.events[r].is_some() {
            (*e, tuple.events[r].expect("checked"))
        } else if r == idx && tuple.events[l].is_some() {
            (tuple.events[l].expect("checked"), *e)
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

fn backtrack(
    store: &EventStore,
    a: &AnalyzedMultievent,
    all: &[Event],
    idx: usize,
    tuple: &mut Tuple,
    out: &mut Vec<Tuple>,
) {
    if idx == a.patterns.len() {
        out.push(tuple.clone());
        return;
    }
    let p = &a.patterns[idx];
    for e in all {
        if !event_satisfies_pattern(store, a, idx, e) || !consistent(a, idx, e, tuple) {
            continue;
        }
        let prev_s = tuple.vars[p.subject];
        let prev_o = tuple.vars[p.object];
        tuple.events[idx] = Some(*e);
        tuple.vars[p.subject] = Some(e.subject);
        tuple.vars[p.object] = Some(e.object);
        backtrack(store, a, all, idx + 1, tuple, out);
        tuple.events[idx] = None;
        tuple.vars[p.subject] = prev_s;
        tuple.vars[p.object] = prev_o;
    }
}
