//! Query execution over row streams.
//!
//! Two entry points:
//!
//! * [`execute`] / [`execute_with_where`] — run a whole query on one row
//!   iterator (the driver-only path, used for correctness references).
//! * [`Aggregator`] — Spark-style two-phase aggregation: workers fold their
//!   partition's rows into a [`PartialAgg`] (map-side combine), the driver
//!   merges partials and finalizes. The compute crate drives this.
//!
//! Both bind every clause of the query once, before any row is read, and
//! evaluate rows in that bound form ([`BoundExpr`] for a row-context
//! expression such as a task's WHERE).
//!
//! NULL handling follows SQL three-valued logic, arranged to agree exactly
//! with the raw-field evaluation in `scoop_csv::filter` so pushdown is
//! transparent.

use crate::ast::{AggFunc, BinOp, Expr, Query, SelectItem};
use crate::functions::{eval_scalar, AggState};
use scoop_common::{Result, ScoopError};
use scoop_csv::pushdown::like_match;
use scoop_csv::{Schema, Value};
use std::borrow::Cow;
use std::cmp::Ordering;
use std::collections::HashMap;

/// A materialized query result.
#[derive(Debug, Clone, PartialEq)]
pub struct ResultSet {
    /// Output column names.
    pub columns: Vec<String>,
    /// Result rows.
    pub rows: Vec<Vec<Value>>,
}

impl ResultSet {
    /// Render as CSV (header + rows) — handy for result comparison and docs.
    pub fn to_csv(&self) -> String {
        let mut w = scoop_csv::CsvWriter::new();
        let refs: Vec<&str> = self.columns.iter().map(String::as_str).collect();
        w.write_strs(&refs);
        for row in &self.rows {
            w.write_row(row);
        }
        String::from_utf8_lossy(&w.into_bytes()).into_owned()
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True when no rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Structural equality with a relative tolerance on floats. Two-phase
    /// aggregation sums floats in partition order, so results from different
    /// partitionings of the same data can differ in the last ulps.
    pub fn approx_eq(&self, other: &ResultSet, rel_tol: f64) -> bool {
        if self.columns != other.columns || self.rows.len() != other.rows.len() {
            return false;
        }
        self.rows.iter().zip(&other.rows).all(|(a, b)| {
            a.len() == b.len()
                && a.iter().zip(b).all(|(x, y)| match (x.as_f64(), y.as_f64()) {
                    (Some(fx), Some(fy)) => {
                        let scale = fx.abs().max(fy.abs()).max(1.0);
                        (fx - fy).abs() <= rel_tol * scale
                    }
                    _ => x == y,
                })
        })
    }
}

// ---------------------------------------------------------------------------
// Binding and expression evaluation
// ---------------------------------------------------------------------------

/// An expression in bound form. Every clause of a query is bound once,
/// before any row is read: column names become row indices and aggregate
/// calls become slots in the finished-aggregate vector, so evaluating a row
/// does no name lookup and clones no `Expr`.
#[derive(Debug)]
enum Node {
    /// Row index of a column.
    Column(usize),
    Literal(Value),
    /// Slot in the finished-aggregate vector (aggregate context only).
    Agg(usize),
    Binary { op: BinOp, left: Box<Node>, right: Box<Node> },
    Not(Box<Node>),
    Like { expr: Box<Node>, pattern: String, negated: bool },
    InList { expr: Box<Node>, list: Vec<Node>, negated: bool },
    IsNull { expr: Box<Node>, negated: bool },
    Func { name: String, args: Vec<Node> },
    /// A bind error: unknown column, `*`, or an aggregate in row context.
    /// Binding itself never fails; the error is raised when a row reaches
    /// the node, so a query that evaluates no row succeeds.
    Fail(String),
}

impl Node {
    /// Bind `expr` to `schema`. `aggs` lists the aggregate calls whose
    /// finished values are in scope; it is empty in row context.
    fn bind(expr: &Expr, schema: &Schema, aggs: &[&Expr]) -> Node {
        let bind = |e: &Expr| Box::new(Node::bind(e, schema, aggs));
        let bind_all = |es: &[Expr]| es.iter().map(|e| Node::bind(e, schema, aggs)).collect();
        match expr {
            Expr::Column(name) => match schema.resolve(name) {
                Ok(idx) => Node::Column(idx),
                Err(ScoopError::Sql(msg)) => Node::Fail(msg),
                Err(other) => Node::Fail(other.to_string()),
            },
            Expr::Literal(v) => Node::Literal(v.clone()),
            Expr::Star => Node::Fail("'*' outside COUNT(*)".into()),
            Expr::Agg { .. } => match aggs.iter().position(|c| *c == expr) {
                Some(slot) => Node::Agg(slot),
                None => Node::Fail("aggregate used outside aggregation context".into()),
            },
            Expr::Binary { op, left, right } => {
                Node::Binary { op: *op, left: bind(left), right: bind(right) }
            }
            Expr::Not(e) => Node::Not(bind(e)),
            Expr::Like { expr, pattern, negated } => {
                Node::Like { expr: bind(expr), pattern: pattern.clone(), negated: *negated }
            }
            Expr::InList { expr, list, negated } => {
                Node::InList { expr: bind(expr), list: bind_all(list), negated: *negated }
            }
            Expr::IsNull { expr, negated } => Node::IsNull { expr: bind(expr), negated: *negated },
            Expr::Func { name, args } => Node::Func { name: name.clone(), args: bind_all(args) },
        }
    }

    /// The node's value against a row and the finished aggregates. Columns,
    /// literals and aggregate slots are borrowed, not cloned.
    fn value<'a>(&'a self, row: &'a [Value], aggs: &'a [Value]) -> Result<Cow<'a, Value>> {
        Ok(match self {
            Node::Column(idx) => row.get(*idx).map_or(Cow::Owned(Value::Null), Cow::Borrowed),
            Node::Literal(v) => Cow::Borrowed(v),
            Node::Agg(slot) => aggs.get(*slot).map_or(Cow::Owned(Value::Null), Cow::Borrowed),
            Node::Fail(msg) => return Err(ScoopError::Sql(msg.clone())),
            Node::Func { name, args } => {
                Cow::Owned(with_values(args, row, aggs, |vals| eval_scalar(name, vals))?)
            }
            Node::Binary {
                op: op @ (BinOp::Add | BinOp::Sub | BinOp::Mul | BinOp::Div | BinOp::Mod),
                left,
                right,
            } => Cow::Owned(arith(*op, &*left.value(row, aggs)?, &*right.value(row, aggs)?)),
            Node::Binary { .. }
            | Node::Not(_)
            | Node::Like { .. }
            | Node::InList { .. }
            | Node::IsNull { .. } => Cow::Owned(tri_to_value(self.pred(row, aggs)?)),
        })
    }

    /// Three-valued predicate evaluation (Kleene logic for AND/OR/NOT).
    fn pred(&self, row: &[Value], aggs: &[Value]) -> Result<Option<bool>> {
        Ok(match self {
            Node::Binary { op: BinOp::And, left, right } => {
                match (left.pred(row, aggs)?, right.pred(row, aggs)?) {
                    (Some(false), _) | (_, Some(false)) => Some(false),
                    (Some(true), Some(true)) => Some(true),
                    _ => None,
                }
            }
            Node::Binary { op: BinOp::Or, left, right } => {
                match (left.pred(row, aggs)?, right.pred(row, aggs)?) {
                    (Some(true), _) | (_, Some(true)) => Some(true),
                    (Some(false), Some(false)) => Some(false),
                    _ => None,
                }
            }
            Node::Not(inner) => inner.pred(row, aggs)?.map(|b| !b),
            Node::Binary {
                op: op @ (BinOp::Eq | BinOp::Ne | BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge),
                left,
                right,
            } => {
                let l = left.value(row, aggs)?;
                let r = right.value(row, aggs)?;
                l.sql_cmp(&r).map(|ord| match op {
                    BinOp::Eq => ord == Ordering::Equal,
                    BinOp::Ne => ord != Ordering::Equal,
                    BinOp::Lt => ord == Ordering::Less,
                    BinOp::Le => ord != Ordering::Greater,
                    BinOp::Gt => ord == Ordering::Greater,
                    BinOp::Ge => ord != Ordering::Less,
                    _ => unreachable!(),
                })
            }
            Node::Like { expr, pattern, negated } => match &*expr.value(row, aggs)? {
                Value::Null => None,
                Value::Str(s) => Some(like_match(pattern, s.as_str()) != *negated),
                other => Some(like_match(pattern, &other.to_string()) != *negated),
            },
            Node::InList { expr, list, negated } => {
                let v = expr.value(row, aggs)?;
                if v.is_null() {
                    return Ok(None);
                }
                let mut saw_null = false;
                for item in list {
                    let candidate = item.value(row, aggs)?;
                    if candidate.is_null() {
                        saw_null = true;
                    } else if v.sql_eq(&candidate) {
                        return Ok(Some(!negated));
                    }
                }
                if saw_null {
                    None
                } else {
                    Some(*negated)
                }
            }
            Node::IsNull { expr, negated } => Some(expr.value(row, aggs)?.is_null() != *negated),
            // Fallback: numeric truthiness of the evaluated value.
            other => match &*other.value(row, aggs)? {
                Value::Null => None,
                v => v.as_f64().map(|f| f != 0.0),
            },
        })
    }
}

/// Evaluate `nodes` into owned values held on the stack (on the heap only
/// past four) and hand them to `f`: scalar-function arguments and group keys
/// need a contiguous slice, not a fresh `Vec` per row.
fn with_values<R>(
    nodes: &[Node],
    row: &[Value],
    aggs: &[Value],
    f: impl FnOnce(&[Value]) -> Result<R>,
) -> Result<R> {
    let mut inline: [Value; 4] = Default::default();
    let mut spilled = Vec::new();
    let vals = match inline.get_mut(..nodes.len()) {
        Some(vals) => vals,
        None => {
            spilled.resize(nodes.len(), Value::Null);
            &mut spilled[..]
        }
    };
    for (slot, node) in vals.iter_mut().zip(nodes) {
        *slot = node.value(row, aggs)?.into_owned();
    }
    f(vals)
}

/// A row-context expression (a WHERE clause, a scalar select item) bound to
/// one schema. Bind once per query or task, then evaluate every row.
#[derive(Debug)]
pub struct BoundExpr(Node);

impl BoundExpr {
    /// Bind `expr` to `schema`. Never fails: an unknown column, `*` or an
    /// aggregate call fails when a row is evaluated, with the same error.
    pub fn new(expr: &Expr, schema: &Schema) -> BoundExpr {
        BoundExpr(Node::bind(expr, schema, &[]))
    }

    /// Evaluate against a row.
    pub fn eval(&self, row: &[Value]) -> Result<Value> {
        self.0.value(row, &[]).map(Cow::into_owned)
    }

    /// Three-valued predicate evaluation against a row.
    pub fn eval_pred(&self, row: &[Value]) -> Result<Option<bool>> {
        self.0.pred(row, &[])
    }
}

/// Evaluate a scalar expression against a row: bind, then evaluate.
/// Aggregate nodes are an error here.
pub fn eval(expr: &Expr, row: &[Value], schema: &Schema) -> Result<Value> {
    BoundExpr::new(expr, schema).eval(row)
}

/// Three-valued predicate evaluation (Kleene logic for AND/OR/NOT): bind,
/// then evaluate.
pub fn eval_pred(expr: &Expr, row: &[Value], schema: &Schema) -> Result<Option<bool>> {
    BoundExpr::new(expr, schema).eval_pred(row)
}

/// WHERE semantics: a row passes only when the bound filter is TRUE.
pub fn passes(filter: Option<&BoundExpr>, row: &[Value]) -> Result<bool> {
    match filter {
        None => Ok(true),
        Some(f) => Ok(f.eval_pred(row)? == Some(true)),
    }
}

fn tri_to_value(t: Option<bool>) -> Value {
    match t {
        None => Value::Null,
        Some(true) => Value::Int(1),
        Some(false) => Value::Int(0),
    }
}

/// Arithmetic with SQL NULL propagation; non-numeric operands yield NULL
/// (matching Spark's permissive casts on semi-structured data).
fn arith(op: BinOp, l: &Value, r: &Value) -> Value {
    let (Some(a), Some(b)) = (l.as_f64(), r.as_f64()) else {
        return Value::Null;
    };
    let both_int = matches!(l, Value::Int(_)) && matches!(r, Value::Int(_));
    match op {
        BinOp::Add | BinOp::Sub | BinOp::Mul | BinOp::Mod if both_int => {
            let (x, y) = (a as i64, b as i64);
            match op {
                BinOp::Add => Value::Int(x.wrapping_add(y)),
                BinOp::Sub => Value::Int(x.wrapping_sub(y)),
                BinOp::Mul => Value::Int(x.wrapping_mul(y)),
                BinOp::Mod => {
                    if y == 0 {
                        Value::Null
                    } else {
                        Value::Int(x % y)
                    }
                }
                _ => unreachable!(),
            }
        }
        BinOp::Add => Value::Float(a + b),
        BinOp::Sub => Value::Float(a - b),
        BinOp::Mul => Value::Float(a * b),
        BinOp::Div => {
            if b == 0.0 {
                Value::Null
            } else {
                Value::Float(a / b)
            }
        }
        BinOp::Mod => {
            if b == 0.0 {
                Value::Null
            } else {
                Value::Float(a % b)
            }
        }
        _ => unreachable!("arith called with comparison op"),
    }
}

/// An ORDER BY key, bound once.
enum SortKey {
    /// Position in the output row: the key names a select alias or repeats
    /// a select item.
    Output(usize),
    /// Evaluated on the source row (for an aggregated query, the group's
    /// representative row and its finished aggregates).
    Eval(Node),
}

/// Bind ORDER BY. An alias, or a select item the key repeats, becomes an
/// output position; with `SELECT *` only aliases do, since the output row is
/// then the whole source row.
fn bind_order(query: &Query, schema: &Schema, aggs: &[&Expr]) -> Vec<SortKey> {
    let star = query.items.iter().any(|i| matches!(i.expr, Expr::Star));
    query
        .order_by
        .iter()
        .map(|o| {
            let alias = match &o.expr {
                Expr::Column(name) => query
                    .items
                    .iter()
                    .position(|it| it.alias.as_deref() == Some(name.as_str())),
                _ => None,
            };
            let repeated =
                || query.items.iter().position(|it| it.expr == o.expr).filter(|_| !star);
            match alias.or_else(repeated) {
                Some(pos) => SortKey::Output(pos),
                None => SortKey::Eval(Node::bind(&o.expr, schema, aggs)),
            }
        })
        .collect()
}

fn sort_key(
    order: &[SortKey],
    out_row: &[Value],
    row: &[Value],
    aggs: &[Value],
) -> Result<Vec<Value>> {
    order
        .iter()
        .map(|key| match key {
            SortKey::Output(pos) => Ok(out_row.get(*pos).cloned().unwrap_or(Value::Null)),
            SortKey::Eval(node) => node.value(row, aggs).map(Cow::into_owned),
        })
        .collect()
}

// ---------------------------------------------------------------------------
// Aggregation
// ---------------------------------------------------------------------------

/// Per-group accumulated state.
#[derive(Debug, Clone)]
pub struct GroupState {
    /// One accumulator per collected aggregate call.
    pub states: Vec<AggState>,
    /// First row of the group — evaluates non-aggregate expressions
    /// (functionally dependent on the key in well-formed queries).
    pub rep_row: Vec<Value>,
}

/// Partial aggregation result (one worker's contribution).
#[derive(Debug, Clone, Default)]
pub struct PartialAgg {
    /// group key → state.
    pub groups: HashMap<Vec<Value>, GroupState>,
    /// Rows folded in (for accounting).
    pub rows_seen: u64,
}

/// One aggregate call in bound form.
struct AggCall {
    func: AggFunc,
    /// Row-context argument; `None` for `COUNT(*)`.
    arg: Option<Node>,
}

/// Drives grouping + two-phase aggregation for one query.
pub struct Aggregator {
    query: Query,
    columns: Vec<String>,
    /// GROUP BY keys (row context).
    keys: Vec<Node>,
    /// Deduplicated aggregate calls appearing anywhere in the output,
    /// HAVING or ORDER BY; call `i` fills slot `i` of the finished vector.
    calls: Vec<AggCall>,
    /// SELECT items (aggregate context).
    items: Vec<Node>,
    having: Option<Node>,
    order: Vec<SortKey>,
}

impl Aggregator {
    /// Prepare for a query (must be an aggregate query).
    pub fn new(query: &Query, schema: &Schema) -> Result<Aggregator> {
        if !query.is_aggregate() {
            return Err(ScoopError::Sql("query does not aggregate".into()));
        }
        if query.items.iter().any(|i| matches!(i.expr, Expr::Star)) {
            return Err(ScoopError::Sql("SELECT * cannot be aggregated".into()));
        }
        let mut agg_calls = Vec::new();
        for item in &query.items {
            collect_agg_calls(&item.expr, &mut agg_calls);
        }
        if let Some(h) = &query.having {
            collect_agg_calls(h, &mut agg_calls);
        }
        for o in &query.order_by {
            collect_agg_calls(&o.expr, &mut agg_calls);
        }
        let calls = agg_calls
            .iter()
            .filter_map(|call| match call {
                Expr::Agg { func, arg } => Some(AggCall {
                    func: *func,
                    arg: arg.as_deref().map(|a| Node::bind(a, schema, &[])),
                }),
                _ => None,
            })
            .collect();
        let bind = |e: &Expr| Node::bind(e, schema, &agg_calls);
        Ok(Aggregator {
            query: query.clone(),
            columns: query.items.iter().map(SelectItem::output_name).collect(),
            keys: query.group_by.iter().map(|g| Node::bind(g, schema, &[])).collect(),
            calls,
            items: query.items.iter().map(|i| bind(&i.expr)).collect(),
            having: query.having.as_ref().map(bind),
            order: bind_order(query, schema, &agg_calls),
        })
    }

    /// Fresh empty partial.
    pub fn make_partial(&self) -> PartialAgg {
        PartialAgg::default()
    }

    fn new_group(&self, rep_row: Vec<Value>) -> GroupState {
        GroupState { states: self.calls.iter().map(|c| AggState::new(c.func)).collect(), rep_row }
    }

    /// Fold one (already WHERE-filtered) row into a partial.
    pub fn update(&self, partial: &mut PartialAgg, row: &[Value]) -> Result<()> {
        partial.rows_seen += 1;
        with_values(&self.keys, row, &[], |key| {
            let group = match partial.groups.get_mut(key) {
                Some(group) => group,
                None => partial
                    .groups
                    .entry(key.to_vec())
                    .or_insert_with(|| self.new_group(row.to_vec())),
            };
            for (call, state) in self.calls.iter().zip(group.states.iter_mut()) {
                match &call.arg {
                    None => state.update(&Value::Int(1)), // COUNT(*)
                    Some(arg) => state.update(&*arg.value(row, &[])?),
                }
            }
            Ok(())
        })
    }

    /// Merge another partial into `into` (driver-side reduce).
    pub fn merge(&self, into: &mut PartialAgg, other: PartialAgg) {
        into.rows_seen += other.rows_seen;
        for (key, state) in other.groups {
            match into.groups.entry(key) {
                std::collections::hash_map::Entry::Vacant(v) => {
                    v.insert(state);
                }
                std::collections::hash_map::Entry::Occupied(mut o) => {
                    let dst = o.get_mut();
                    for (a, b) in dst.states.iter_mut().zip(state.states.iter()) {
                        a.merge(b);
                    }
                    // rep_row keeps the first-seen representative.
                }
            }
        }
    }

    /// Finalize: evaluate output expressions per group, sort, limit.
    pub fn finalize(&self, mut partial: PartialAgg) -> Result<ResultSet> {
        // SQL: a global aggregate (no GROUP BY) over zero rows still yields
        // one row — COUNT is 0, the other aggregates NULL.
        if self.query.group_by.is_empty() && partial.groups.is_empty() {
            partial.groups.insert(Vec::new(), self.new_group(Vec::new()));
        }
        let mut keyed_rows: Vec<(Vec<Value>, Vec<Value>)> =
            Vec::with_capacity(partial.groups.len());
        for group in partial.groups.into_values() {
            let aggs: Vec<Value> = group.states.iter().map(AggState::finish).collect();
            let rep = &group.rep_row;
            let out_row: Vec<Value> = self
                .items
                .iter()
                .map(|item| item.value(rep, &aggs).map(Cow::into_owned))
                .collect::<Result<_>>()?;
            // HAVING: post-aggregation filter (only TRUE keeps the group).
            if let Some(h) = &self.having {
                if h.pred(rep, &aggs)? != Some(true) {
                    continue;
                }
            }
            keyed_rows.push((sort_key(&self.order, &out_row, rep, &aggs)?, out_row));
        }
        if self.query.distinct {
            dedup_rows(&mut keyed_rows);
        }
        sort_and_trim(&mut keyed_rows, &self.query);
        Ok(ResultSet {
            columns: self.columns.clone(),
            rows: keyed_rows.into_iter().map(|(_, r)| r).collect(),
        })
    }
}

fn collect_agg_calls<'q>(expr: &'q Expr, out: &mut Vec<&'q Expr>) {
    match expr {
        Expr::Agg { .. } => {
            if !out.contains(&expr) {
                out.push(expr);
            }
        }
        Expr::Binary { left, right, .. } => {
            collect_agg_calls(left, out);
            collect_agg_calls(right, out);
        }
        Expr::Not(e) | Expr::Like { expr: e, .. } | Expr::IsNull { expr: e, .. } => {
            collect_agg_calls(e, out)
        }
        Expr::InList { expr: e, list, .. } => {
            collect_agg_calls(e, out);
            for i in list {
                collect_agg_calls(i, out);
            }
        }
        Expr::Func { args, .. } => {
            for a in args {
                collect_agg_calls(a, out);
            }
        }
        Expr::Column(_) | Expr::Literal(_) | Expr::Star => {}
    }
}

fn sort_and_trim(keyed_rows: &mut Vec<(Vec<Value>, Vec<Value>)>, query: &Query) {
    if !query.order_by.is_empty() {
        let descs: Vec<bool> = query.order_by.iter().map(|o| o.desc).collect();
        keyed_rows.sort_by(|(a, _), (b, _)| {
            for ((x, y), desc) in a.iter().zip(b.iter()).zip(&descs) {
                let ord = x.total_cmp(y);
                let ord = if *desc { ord.reverse() } else { ord };
                if ord != Ordering::Equal {
                    return ord;
                }
            }
            Ordering::Equal
        });
    }
    if let Some(n) = query.limit {
        keyed_rows.truncate(n);
    }
}

// ---------------------------------------------------------------------------
// Whole-query execution
// ---------------------------------------------------------------------------

/// Execute a query applying its own WHERE clause.
pub fn execute(
    query: &Query,
    schema: &Schema,
    rows: impl Iterator<Item = Result<Vec<Value>>>,
) -> Result<ResultSet> {
    execute_with_where(query, schema, query.where_clause.as_ref(), rows)
}

/// Execute with an overridden WHERE (the *residual* predicate in pushdown
/// mode, where the store already applied the pushed conjuncts).
pub fn execute_with_where(
    query: &Query,
    schema: &Schema,
    where_clause: Option<&Expr>,
    rows: impl Iterator<Item = Result<Vec<Value>>>,
) -> Result<ResultSet> {
    let filter = where_clause.map(|w| BoundExpr::new(w, schema));
    if query.is_aggregate() {
        let agg = Aggregator::new(query, schema)?;
        let mut partial = agg.make_partial();
        for row in rows {
            let row = row?;
            if passes(filter.as_ref(), &row)? {
                agg.update(&mut partial, &row)?;
            }
        }
        return agg.finalize(partial);
    }
    // Non-aggregate path.
    let has_star = query.items.iter().any(|i| matches!(i.expr, Expr::Star));
    let columns: Vec<String> = if has_star {
        schema.names().iter().map(|s| s.to_string()).collect()
    } else {
        query.items.iter().map(SelectItem::output_name).collect()
    };
    let items: Vec<Node> = if has_star {
        Vec::new()
    } else {
        query.items.iter().map(|i| Node::bind(&i.expr, schema, &[])).collect()
    };
    let order = bind_order(query, schema, &[]);
    let mut keyed_rows: Vec<(Vec<Value>, Vec<Value>)> = Vec::new();
    for row in rows {
        let row = row?;
        if !passes(filter.as_ref(), &row)? {
            continue;
        }
        if has_star {
            keyed_rows.push((sort_key(&order, &row, &row, &[])?, row));
        } else {
            let out_row: Vec<Value> = items
                .iter()
                .map(|item| item.value(&row, &[]).map(Cow::into_owned))
                .collect::<Result<_>>()?;
            keyed_rows.push((sort_key(&order, &out_row, &row, &[])?, out_row));
        }
    }
    if query.distinct {
        dedup_rows(&mut keyed_rows);
    }
    sort_and_trim(&mut keyed_rows, query);
    Ok(ResultSet { columns, rows: keyed_rows.into_iter().map(|(_, r)| r).collect() })
}

/// SELECT DISTINCT: keep the first occurrence of each output row.
fn dedup_rows(keyed_rows: &mut Vec<(Vec<Value>, Vec<Value>)>) {
    let mut seen: std::collections::HashSet<Vec<Value>> = std::collections::HashSet::new();
    keyed_rows.retain(|(_, row)| seen.insert(row.clone()));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;
    use scoop_csv::schema::{DataType, Field};

    fn schema() -> Schema {
        Schema::new(vec![
            Field::new("vid", DataType::Str),
            Field::new("date", DataType::Str),
            Field::new("index", DataType::Float),
            Field::new("city", DataType::Str),
            Field::new("state", DataType::Str),
        ])
    }

    fn rows() -> Vec<Vec<Value>> {
        let mk = |vid: &str, date: &str, idx: Option<f64>, city: &str, state: &str| {
            vec![
                Value::Str(vid.into()),
                Value::Str(date.into()),
                idx.map(Value::Float).unwrap_or(Value::Null),
                Value::Str(city.into()),
                Value::Str(state.into()),
            ]
        };
        vec![
            mk("m1", "2015-01-03 10:00:00", Some(10.0), "Rotterdam", "NLD"),
            mk("m1", "2015-01-04 11:00:00", Some(20.0), "Rotterdam", "NLD"),
            mk("m2", "2015-01-03 09:00:00", Some(5.0), "Paris", "FRA"),
            mk("m2", "2015-02-01 09:00:00", Some(7.0), "Paris", "FRA"),
            mk("m3", "2015-01-05 08:00:00", None, "Utrecht", "NLD"),
        ]
    }

    fn run(sql: &str) -> ResultSet {
        let q = parse(sql).unwrap();
        execute(&q, &schema(), rows().into_iter().map(Ok)).unwrap()
    }

    #[test]
    fn simple_projection_and_filter() {
        let rs = run("SELECT vid, index FROM t WHERE city LIKE 'Rotterdam' ORDER BY index DESC");
        assert_eq!(rs.columns, vec!["vid", "index"]);
        assert_eq!(rs.rows.len(), 2);
        assert_eq!(rs.rows[0][1], Value::Float(20.0));
    }

    #[test]
    fn select_star_and_limit() {
        let rs = run("SELECT * FROM t ORDER BY vid LIMIT 2");
        assert_eq!(rs.columns.len(), 5);
        assert_eq!(rs.rows.len(), 2);
    }

    #[test]
    fn group_by_with_aliases_and_order() {
        let rs = run(
            "SELECT vid, sum(index) as total, count(*) as n FROM t \
             WHERE date LIKE '2015-01%' GROUP BY vid ORDER BY vid",
        );
        assert_eq!(rs.columns, vec!["vid", "total", "n"]);
        assert_eq!(rs.rows.len(), 3);
        assert_eq!(rs.rows[0], vec![Value::Str("m1".into()), Value::Float(30.0), Value::Int(2)]);
        assert_eq!(rs.rows[1], vec![Value::Str("m2".into()), Value::Float(5.0), Value::Int(1)]);
        // m3's index is NULL → SUM null, COUNT(*) still 1.
        assert_eq!(rs.rows[2][1], Value::Null);
        assert_eq!(rs.rows[2][2], Value::Int(1));
    }

    #[test]
    fn gridpocket_style_substring_group() {
        let rs = run(
            "SELECT SUBSTRING(date, 0, 7) as sDate, sum(index) as max FROM t \
             GROUP BY SUBSTRING(date, 0, 7) ORDER BY SUBSTRING(date, 0, 7)",
        );
        assert_eq!(rs.rows.len(), 2);
        assert_eq!(rs.rows[0][0], Value::Str("2015-01".into()));
        assert_eq!(rs.rows[0][1], Value::Float(35.0));
        assert_eq!(rs.rows[1][0], Value::Str("2015-02".into()));
    }

    #[test]
    fn first_value_and_min_max() {
        let rs = run(
            "SELECT vid, first_value(city) as city, min(index) as lo, max(index) as hi \
             FROM t GROUP BY vid ORDER BY vid",
        );
        assert_eq!(rs.rows[0][1], Value::Str("Rotterdam".into()));
        assert_eq!(rs.rows[0][2], Value::Float(10.0));
        assert_eq!(rs.rows[0][3], Value::Float(20.0));
    }

    #[test]
    fn global_aggregate_without_group_by() {
        let rs = run("SELECT count(*) as n, avg(index) as a FROM t");
        assert_eq!(rs.rows.len(), 1);
        assert_eq!(rs.rows[0][0], Value::Int(5));
        assert_eq!(rs.rows[0][1], Value::Float(10.5));
    }

    #[test]
    fn arithmetic_in_select_and_where() {
        let rs = run("SELECT vid, index * 2 + 1 FROM t WHERE index / 5 >= 2 ORDER BY vid");
        assert_eq!(rs.rows.len(), 2);
        assert_eq!(rs.rows[0][1], Value::Float(21.0));
    }

    #[test]
    fn null_semantics_in_where() {
        // index > 0 is NULL for m3 → excluded; NOT (index > 0) also excludes.
        assert_eq!(run("SELECT vid FROM t WHERE index > 0").rows.len(), 4);
        assert_eq!(run("SELECT vid FROM t WHERE NOT index > 0").rows.len(), 0);
        assert_eq!(run("SELECT vid FROM t WHERE index IS NULL").rows.len(), 1);
        // OR with null: null OR true = true.
        assert_eq!(
            run("SELECT vid FROM t WHERE index > 0 OR city LIKE 'Utrecht'").rows.len(),
            5
        );
        // IN with null element: no match → NULL → excluded.
        assert_eq!(
            run("SELECT vid FROM t WHERE index IN (NULL, 999)").rows.len(),
            0
        );
    }

    #[test]
    fn in_list_and_not_like() {
        assert_eq!(
            run("SELECT vid FROM t WHERE state IN ('FRA', 'DEU')").rows.len(),
            2
        );
        assert_eq!(
            run("SELECT vid FROM t WHERE city NOT LIKE 'P%'").rows.len(),
            3
        );
    }

    #[test]
    fn division_by_zero_is_null() {
        assert_eq!(run("SELECT vid FROM t WHERE index / 0 > 0").rows.len(), 0);
        let rs = run("SELECT index / 0 FROM t LIMIT 1");
        assert_eq!(rs.rows[0][0], Value::Null);
    }

    #[test]
    fn two_phase_equals_single_pass() {
        let q = parse(
            "SELECT vid, sum(index) as total, count(*) as n, min(date) as d \
             FROM t WHERE date LIKE '2015%' GROUP BY vid ORDER BY vid",
        )
        .unwrap();
        let schema = schema();
        let single = execute(&q, &schema, rows().into_iter().map(Ok)).unwrap();

        let agg = Aggregator::new(&q, &schema).unwrap();
        let filter = q.where_clause.as_ref().map(|w| BoundExpr::new(w, &schema));
        // Split rows into 2 partitions, update separately, merge, finalize.
        let all = rows();
        let mut merged = agg.make_partial();
        for part in all.chunks(2) {
            let mut partial = agg.make_partial();
            for row in part {
                // WHERE applied before partial agg, as workers do.
                if passes(filter.as_ref(), row).unwrap() {
                    agg.update(&mut partial, row).unwrap();
                }
            }
            agg.merge(&mut merged, partial);
        }
        let two_phase = agg.finalize(merged).unwrap();
        assert_eq!(two_phase, single);
    }

    #[test]
    fn aggregate_in_arithmetic() {
        let rs = run("SELECT vid, sum(index) / count(*) as mean FROM t GROUP BY vid ORDER BY vid");
        assert_eq!(rs.rows[0][1], Value::Float(15.0));
    }

    #[test]
    fn order_by_aggregate_value() {
        let rs = run("SELECT vid, sum(index) as s FROM t GROUP BY vid ORDER BY sum(index) DESC");
        assert_eq!(rs.rows[0][0], Value::Str("m1".into()));
    }

    #[test]
    fn errors_on_bad_queries() {
        let q = parse("SELECT ghost FROM t").unwrap();
        assert!(execute(&q, &schema(), rows().into_iter().map(Ok)).is_err());
        let q = parse("SELECT * , sum(index) FROM t").unwrap();
        assert!(execute(&q, &schema(), rows().into_iter().map(Ok)).is_err());
    }

    #[test]
    fn result_set_to_csv() {
        let rs = run("SELECT vid FROM t WHERE state LIKE 'FRA' ORDER BY date");
        let csv = rs.to_csv();
        assert!(csv.starts_with("vid\n"));
        assert_eq!(csv.matches("m2").count(), 2);
    }
}

#[cfg(test)]
mod distinct_having_tests {
    use super::*;
    use crate::parser::parse;
    use scoop_csv::schema::{DataType, Field};

    fn schema() -> Schema {
        Schema::new(vec![
            Field::new("city", DataType::Str),
            Field::new("state", DataType::Str),
            Field::new("index", DataType::Float),
        ])
    }

    fn rows() -> Vec<Vec<Value>> {
        let mk = |city: &str, state: &str, idx: f64| {
            vec![
                Value::Str(city.into()),
                Value::Str(state.into()),
                Value::Float(idx),
            ]
        };
        vec![
            mk("Rotterdam", "NLD", 10.0),
            mk("Rotterdam", "NLD", 20.0),
            mk("Paris", "FRA", 5.0),
            mk("Paris", "FRA", 6.0),
            mk("Nice", "FRA", 1.0),
        ]
    }

    fn run(sql: &str) -> ResultSet {
        let q = parse(sql).unwrap();
        execute(&q, &schema(), rows().into_iter().map(Ok)).unwrap()
    }

    #[test]
    fn select_distinct_dedups() {
        let rs = run("SELECT DISTINCT state FROM t ORDER BY state");
        assert_eq!(rs.rows.len(), 2);
        assert_eq!(rs.rows[0][0], Value::Str("FRA".into()));
        let rs = run("SELECT DISTINCT city, state FROM t");
        assert_eq!(rs.rows.len(), 3);
        // Without DISTINCT all rows come through.
        assert_eq!(run("SELECT state FROM t").rows.len(), 5);
    }

    #[test]
    fn having_filters_groups() {
        let rs = run(
            "SELECT city, count(*) as n FROM t GROUP BY city \
             HAVING count(*) > 1 ORDER BY city",
        );
        assert_eq!(rs.rows.len(), 2);
        assert_eq!(rs.rows[0][0], Value::Str("Paris".into()));
        // HAVING may reference aggregates absent from the select list.
        let rs = run(
            "SELECT city FROM t GROUP BY city HAVING sum(index) >= 11 ORDER BY city",
        );
        assert_eq!(rs.rows.len(), 2); // Paris (11), Rotterdam (30)
    }

    #[test]
    fn having_with_group_key_predicate() {
        let rs = run(
            "SELECT state, sum(index) as s FROM t GROUP BY state \
             HAVING state LIKE 'F%' ORDER BY state",
        );
        assert_eq!(rs.rows.len(), 1);
        assert_eq!(rs.rows[0][1], Value::Float(12.0));
    }

    #[test]
    fn distinct_on_aggregate_output() {
        // Two groups with equal aggregate values collapse under DISTINCT.
        let rs = run(
            "SELECT DISTINCT count(*) as n FROM t GROUP BY city ORDER BY n",
        );
        assert_eq!(rs.rows.len(), 2); // n=1 (Nice), n=2 (Paris, Rotterdam)
    }

    #[test]
    fn having_without_group_by_on_global_aggregate() {
        assert_eq!(
            run("SELECT count(*) as n FROM t HAVING count(*) > 10").rows.len(),
            0
        );
        assert_eq!(
            run("SELECT count(*) as n FROM t HAVING count(*) > 1").rows.len(),
            1
        );
    }
}

#[cfg(test)]
mod empty_aggregate_tests {
    use super::*;
    use crate::parser::parse;
    use scoop_csv::schema::{DataType, Field};

    #[test]
    fn global_aggregate_over_zero_rows_yields_one_row() {
        let schema = Schema::new(vec![Field::new("x", DataType::Int)]);
        let q = parse("SELECT count(*) as n, sum(x) as s, min(x) as lo FROM t").unwrap();
        let rs = execute(&q, &schema, std::iter::empty()).unwrap();
        assert_eq!(rs.rows.len(), 1);
        assert_eq!(rs.rows[0][0], Value::Int(0));
        assert!(rs.rows[0][1].is_null());
        assert!(rs.rows[0][2].is_null());
        // With GROUP BY, zero rows still mean zero groups.
        let q = parse("SELECT x, count(*) FROM t GROUP BY x").unwrap();
        let rs = execute(&q, &schema, std::iter::empty()).unwrap();
        assert!(rs.is_empty());
        // WHERE that excludes everything behaves the same.
        let q = parse("SELECT count(*) as n FROM t WHERE x > 100").unwrap();
        let rs = execute(&q, &schema, vec![Ok(vec![Value::Int(1)])].into_iter()).unwrap();
        assert_eq!(rs.rows[0][0], Value::Int(0));
    }
}

#[cfg(test)]
mod bound_aggregate_tests {
    use super::*;
    use crate::parser::parse;
    use scoop_csv::schema::{DataType, Field};

    fn schema() -> Schema {
        Schema::new(vec![
            Field::new("vid", DataType::Str),
            Field::new("city", DataType::Str),
            Field::new("index", DataType::Float),
        ])
    }

    /// Sums per vid: a = 3, b = 4, c = 6, d = NULL.
    fn rows() -> Vec<Vec<Value>> {
        let mk = |vid: &str, city: &str, idx: Option<f64>| {
            vec![
                Value::Str(vid.into()),
                Value::Str(city.into()),
                idx.map(Value::Float).unwrap_or(Value::Null),
            ]
        };
        vec![
            mk("a", "Rotterdam", Some(1.0)),
            mk("b", "Paris", Some(4.0)),
            mk("a", "Rotterdam", Some(2.0)),
            mk("c", "Paris", Some(3.0)),
            mk("d", "Nice", None),
            mk("c", "Paris", Some(3.0)),
        ]
    }

    fn run(sql: &str) -> Vec<Vec<Value>> {
        let q = parse(sql).unwrap();
        execute(&q, &schema(), rows().into_iter().map(Ok)).unwrap().rows
    }

    fn row(vid: &str, sum: Option<f64>) -> Vec<Value> {
        vec![Value::Str(vid.into()), sum.map(Value::Float).unwrap_or(Value::Null)]
    }

    #[test]
    fn having_with_aggregate_under_not_in_is_null_and_like() {
        let base = "SELECT vid, sum(index) AS s FROM t GROUP BY vid";
        assert_eq!(
            run(&format!("{base} HAVING NOT sum(index) > 5 ORDER BY vid")),
            vec![row("a", Some(3.0)), row("b", Some(4.0))]
        );
        assert_eq!(
            run(&format!("{base} HAVING sum(index) IN (3, 4) ORDER BY vid")),
            vec![row("a", Some(3.0)), row("b", Some(4.0))]
        );
        assert_eq!(
            run(&format!("{base} HAVING sum(index) IS NOT NULL ORDER BY vid")),
            vec![row("a", Some(3.0)), row("b", Some(4.0)), row("c", Some(6.0))]
        );
        assert_eq!(
            run(&format!("{base} HAVING sum(index) IS NULL")),
            vec![row("d", None)]
        );
        assert_eq!(
            run(&format!("{base} HAVING min(city) LIKE 'P%' ORDER BY vid")),
            vec![row("b", Some(4.0)), row("c", Some(6.0))]
        );
    }

    #[test]
    fn order_by_aggregate_under_not() {
        // NOT sum > 5: d NULL, c FALSE (0), a and b TRUE (1); NULLs sort first.
        assert_eq!(
            run("SELECT vid, sum(index) AS s FROM t GROUP BY vid ORDER BY NOT sum(index) > 5, vid"),
            vec![row("d", None), row("c", Some(6.0)), row("a", Some(3.0)), row("b", Some(4.0))]
        );
    }

    #[test]
    fn order_by_alias_and_repeated_item_use_the_output_row() {
        assert_eq!(
            run("SELECT vid, sum(index) AS s FROM t GROUP BY vid HAVING sum(index) IS NOT NULL ORDER BY s DESC"),
            vec![row("c", Some(6.0)), row("b", Some(4.0)), row("a", Some(3.0))]
        );
        assert_eq!(
            run("SELECT vid, index * 2 FROM t WHERE vid = 'a' ORDER BY index * 2 DESC"),
            vec![
                vec![Value::Str("a".into()), Value::Float(4.0)],
                vec![Value::Str("a".into()), Value::Float(2.0)],
            ]
        );
    }

    /// Bind errors surface only when a row is evaluated, with the message
    /// of the failing name lookup or context check; a query that reads no
    /// row still succeeds.
    #[test]
    fn bind_errors_are_deferred_to_the_first_evaluated_row() {
        let schema = schema();
        let unknown = schema.resolve("ghost").unwrap_err().to_string();
        let outside = "sql error: aggregate used outside aggregation context";
        for (sql, msg) in [
            ("SELECT ghost FROM t", unknown.as_str()),
            ("SELECT vid FROM t WHERE ghost > 1", unknown.as_str()),
            ("SELECT vid FROM t ORDER BY ghost", unknown.as_str()),
            ("SELECT vid FROM t WHERE sum(index) > 1", outside),
            ("SELECT vid, count(*) FROM t GROUP BY vid HAVING ghost > 1", unknown.as_str()),
            ("SELECT count(*) FROM t GROUP BY sum(index)", outside),
            ("SELECT vid, sum(sum(index)) FROM t GROUP BY vid", outside),
        ] {
            let q = parse(sql).unwrap();
            let empty = execute(&q, &schema, std::iter::empty());
            assert!(empty.is_ok(), "{sql}: zero rows must succeed, got {empty:?}");
            let err = execute(&q, &schema, rows().into_iter().map(Ok)).unwrap_err();
            assert_eq!(err.to_string(), msg, "{sql}");
        }
        // `*` outside COUNT(*): binding succeeds, evaluating fails.
        let star = BoundExpr::new(&Expr::Star, &schema);
        assert_eq!(
            star.eval(&rows()[0]).unwrap_err().to_string(),
            "sql error: '*' outside COUNT(*)"
        );
        assert!(eval_pred(&Expr::Star, &rows()[0], &schema).is_err());
    }
}
