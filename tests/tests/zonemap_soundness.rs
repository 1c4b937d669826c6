//! Differential soundness of the shared zone-map planner over both formats.
//!
//! `scoop_csv::zonemap::may_match` prunes CSV blocks (stats from
//! `StatsBuilder`) and columnar row groups (stats from `ColumnarWriter`).
//! Pruning is an optimization, never a semantics change, so for random rows
//! and random predicates (including `NOT`):
//!
//! * every CSV block holding a record the storlet filter
//!   (`CompiledSpec::matches`) accepts is kept;
//! * every row group holding a row the SQL evaluator (`exec::eval_pred`, the
//!   executor's typed three-valued logic) accepts is kept;
//! * the columnar `read_rows(cols, Some(pred))` returns every such row.
//!
//! The value pools cover the edges the stats codec and the typed-cell rule
//! must survive: NULL, NaN, ±inf, -0.0, integers beyond 2^53, non-numeric
//! text in numeric columns, strings longer than the 16-byte string-stat
//! limit, blocks with more than 32 distinct values (no bloom digest), a typed
//! empty string, and columns mixing Int with Float or numbers with text.

use proptest::prelude::*;
use scoop_columnar::{ColumnarReader, ColumnarWriter};
use scoop_common::zonestats::StatsBuilder;
use scoop_csv::schema::{DataType, Field};
use scoop_csv::zonemap::may_match;
use scoop_csv::{CompiledSpec, Predicate, PushdownSpec, Schema, Value};
use scoop_sql::exec::eval_pred;
use scoop_sql::{BinOp, Expr};
use std::borrow::Cow;

/// splitmix64: the test's own deterministic choice stream, seeded per case.
struct Gen(u64);

impl Gen {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    fn pick<T: Clone>(&mut self, items: &[T]) -> T {
        items[self.below(items.len())].clone()
    }
}

const BIG: i64 = (1 << 53) + 1;
const LONG: &str = "Rotterdam-Centrum-Noord-1";
const ZS: &str = "zzzzzzzzzzzzzzzzzzzz";

/// Raw CSV field text: empty is NULL.
fn csv_field(g: &mut Gen) -> String {
    match g.below(4) {
        // High cardinality: a 120-row block sees far more than 32 values.
        0 => format!("v{}", g.below(200)),
        1 => format!("{LONG}-{}", g.below(50)),
        _ => g
            .pick(&[
                "",
                "",
                "0",
                "-0.0",
                "5",
                "-3",
                "2.5",
                "40",
                "NaN",
                "inf",
                "-inf",
                "1e3",
                "9007199254740993",
                "9007199254740992",
                "-9007199254740993",
                "abc",
                "Paris",
                "Rotterdam",
                LONG,
                ZS,
                "5a",
            ])
            .to_string(),
    }
}

fn number(g: &mut Gen, floats: bool) -> Value {
    let small = g.below(50) as f64 - 3.0;
    if floats {
        g.pick(&[
            Value::Float(2.5),
            Value::Float(-0.0),
            Value::Float(0.0),
            Value::Float(5.0),
            Value::Float(f64::NAN),
            Value::Float(f64::INFINITY),
            Value::Float(f64::NEG_INFINITY),
            Value::Float(1e20),
            Value::Float(BIG as f64),
            Value::Float(small),
        ])
    } else {
        g.pick(&[
            Value::Int(BIG),
            Value::Int(-BIG),
            Value::Int(1 << 53),
            Value::Int(5),
            Value::Int(0),
            Value::Int(small as i64),
        ])
    }
}

fn text(g: &mut Gen) -> Value {
    match g.below(3) {
        0 => Value::Str(format!("v{}", g.below(200)).into()),
        _ => g.pick(&[
            Value::Str("".into()),
            Value::Str("abc".into()),
            Value::Str("5".into()),
            Value::Str("5.0".into()),
            Value::Str("Rotterdam".into()),
            Value::Str(LONG.into()),
            Value::Str(ZS.into()),
        ]),
    }
}

/// One typed row: `id`, then `a` (numbers; Int-only, Float-only or mixed
/// per case), `s` (strings) and `m` (anything).
fn typed_row(g: &mut Gen, id: usize, float_share: usize) -> Vec<Value> {
    let null_or = |g: &mut Gen, v: Value| if g.below(6) == 0 { Value::Null } else { v };
    let floats = g.below(2) < float_share;
    let a = number(g, floats);
    let s = text(g);
    let m = match g.below(3) {
        0 => number(g, true),
        1 => number(g, false),
        _ => text(g),
    };
    vec![
        Value::Int(id as i64),
        null_or(g, a),
        null_or(g, s),
        null_or(g, m),
    ]
}

fn literal(g: &mut Gen) -> Value {
    let high_card = format!("v{}", g.below(200));
    match g.below(3) {
        0 => number(g, true),
        1 => number(g, false),
        _ => g.pick(&[
            Value::Null,
            Value::Str("".into()),
            Value::Str("5".into()),
            Value::Str("5.0".into()),
            Value::Str("Paris".into()),
            Value::Str("Rotterdam".into()),
            Value::Str("Rotterdam-Centrum".into()),
            Value::Str(LONG.into()),
            Value::Str(format!("{LONG}-7").into()),
            Value::Str(high_card.into()),
            Value::Str(ZS.into()),
            Value::Str(format!("{ZS}z").into()),
            Value::Str("abc".into()),
        ]),
    }
}

/// Text operands carry no `%`/`_`, so each maps onto a SQL LIKE pattern.
fn affix(g: &mut Gen) -> String {
    g.pick(&[
        "Rot",
        "v1",
        "9",
        "-",
        "",
        "N",
        "i",
        "5.",
        "Rotterdam-Centrum-N",
        "zzzzzzzzzzzzzzzzz",
        "dam",
        ".0",
    ])
    .to_string()
}

fn predicate(g: &mut Gen, cols: &[&str], depth: u32) -> Predicate {
    let choice = if depth == 0 { g.below(10) } else { g.below(13) };
    let c = g.pick(cols).to_string();
    match choice {
        0 => Predicate::Eq(c, literal(g)),
        1 => Predicate::Ne(c, literal(g)),
        2 => Predicate::Lt(c, literal(g)),
        3 => Predicate::Ge(c, literal(g)),
        4 => match g.below(2) {
            0 => Predicate::Gt(c, literal(g)),
            _ => Predicate::Le(c, literal(g)),
        },
        5 => Predicate::Like(
            c,
            g.pick(&[
                "Rot%", "%dam", "v1_", "5%", "-%", "%", "", "9007%", "R%N%", "_", "%.0", "N%",
                "i%", "z%",
            ])
            .to_string(),
        ),
        6 => match g.below(3) {
            0 => Predicate::StartsWith(c, affix(g)),
            1 => Predicate::EndsWith(c, affix(g)),
            _ => Predicate::Contains(c, affix(g)),
        },
        7 => Predicate::In(c, (0..1 + g.below(3)).map(|_| literal(g)).collect()),
        8 => Predicate::IsNull(c),
        9 => Predicate::IsNotNull(c),
        10 => Predicate::And(
            Box::new(predicate(g, cols, depth - 1)),
            Box::new(predicate(g, cols, depth - 1)),
        ),
        11 => Predicate::Or(
            Box::new(predicate(g, cols, depth - 1)),
            Box::new(predicate(g, cols, depth - 1)),
        ),
        _ => Predicate::Not(Box::new(predicate(g, cols, depth - 1))),
    }
}

/// The SQL expression a pushed predicate stands for.
fn to_expr(p: &Predicate) -> Expr {
    let col = |c: &str| Box::new(Expr::Column(c.to_string()));
    let cmp = |op, c: &str, v: &Value| Expr::Binary {
        op,
        left: col(c),
        right: Box::new(Expr::Literal(v.clone())),
    };
    let like = |c: &str, pattern: String| Expr::Like {
        expr: col(c),
        pattern,
        negated: false,
    };
    match p {
        Predicate::Eq(c, v) => cmp(BinOp::Eq, c, v),
        Predicate::Ne(c, v) => cmp(BinOp::Ne, c, v),
        Predicate::Lt(c, v) => cmp(BinOp::Lt, c, v),
        Predicate::Le(c, v) => cmp(BinOp::Le, c, v),
        Predicate::Gt(c, v) => cmp(BinOp::Gt, c, v),
        Predicate::Ge(c, v) => cmp(BinOp::Ge, c, v),
        Predicate::Like(c, pat) => like(c, pat.clone()),
        Predicate::StartsWith(c, s) => like(c, format!("{s}%")),
        Predicate::EndsWith(c, s) => like(c, format!("%{s}")),
        Predicate::Contains(c, s) => like(c, format!("%{s}%")),
        Predicate::In(c, vs) => Expr::InList {
            expr: col(c),
            list: vs.iter().cloned().map(Expr::Literal).collect(),
            negated: false,
        },
        Predicate::IsNull(c) => Expr::IsNull {
            expr: col(c),
            negated: false,
        },
        Predicate::IsNotNull(c) => Expr::IsNull {
            expr: col(c),
            negated: true,
        },
        Predicate::And(a, b) => Expr::Binary {
            op: BinOp::And,
            left: Box::new(to_expr(a)),
            right: Box::new(to_expr(b)),
        },
        Predicate::Or(a, b) => Expr::Binary {
            op: BinOp::Or,
            left: Box::new(to_expr(a)),
            right: Box::new(to_expr(b)),
        },
        Predicate::Not(a) => Expr::Not(Box::new(to_expr(a))),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// CSV blocks: a block with a record the storlet filter accepts is kept.
    #[test]
    fn csv_blocks_holding_a_match_are_kept(
        seed in any::<u64>(),
        n_rows in 1usize..120,
        small_blocks in any::<bool>(),
    ) {
        let mut g = Gen(seed);
        let header = vec!["a".to_string(), "s".to_string(), "m".to_string()];
        let rows: Vec<Vec<String>> =
            (0..n_rows).map(|_| (0..3).map(|_| csv_field(&mut g)).collect()).collect();
        let block = if small_blocks { 8 + g.below(200) as u64 } else { u64::MAX };
        let mut b = StatsBuilder::new(header.clone(), false, block);
        let mut starts = Vec::new();
        let mut offset = 0u64;
        for r in &rows {
            starts.push(offset);
            let len = r.iter().map(|f| f.len() as u64 + 1).sum::<u64>();
            b.record(&r.iter().map(String::as_str).collect::<Vec<_>>(), len);
            offset += len;
        }
        let stats = b.finish("e".into());
        for _ in 0..12 {
            let pred = predicate(&mut g, &["a", "s", "m", "A"], 2);
            let spec = PushdownSpec { predicate: Some(pred.clone()), ..PushdownSpec::passthrough() };
            let compiled = CompiledSpec::compile(&spec, &header).unwrap();
            for blk in &stats.blocks {
                let hit = rows.iter().zip(&starts).find(|(r, &st)| {
                    st >= blk.start
                        && st < blk.end
                        && compiled.matches(&r.iter().map(|f| Cow::Borrowed(f.as_str())).collect::<Vec<_>>())
                });
                prop_assert!(
                    hit.is_none() || may_match(&pred, &stats.columns, &blk.columns),
                    "block {:?} pruned for {pred} but holds matching row {:?}",
                    blk, hit
                );
            }
        }
    }

    /// Columnar row groups: a group with a row the SQL evaluator accepts is
    /// kept, and the selected read returns every such row.
    #[test]
    fn columnar_groups_holding_a_match_are_kept(
        seed in any::<u64>(),
        n_rows in 1usize..120,
        group_rows in 1usize..10,
        float_share in 0usize..3,
    ) {
        let mut g = Gen(seed);
        let schema = Schema::new(vec![
            Field::new("id", DataType::Int),
            Field::new("a", DataType::Float),
            Field::new("s", DataType::Str),
            Field::new("m", DataType::Str),
        ]);
        // Occasionally one group spans every row, so a chunk sees > 32 values.
        let group_rows = if g.below(4) == 0 { n_rows } else { group_rows };
        let mut w = ColumnarWriter::with_row_group_rows(schema.clone(), group_rows);
        for id in 0..n_rows {
            w.write_row(&typed_row(&mut g, id, float_share));
        }
        let reader = ColumnarReader::open_bytes(w.finish()).unwrap();
        // The reference sees the rows exactly as the executor does: read back.
        let rows = reader.read_rows(None, None).unwrap();
        prop_assert_eq!(rows.len(), n_rows);
        let names = schema.names();
        for _ in 0..12 {
            let pred = predicate(&mut g, &["a", "s", "m"], 2);
            let expr = to_expr(&pred);
            let accepted: Vec<i64> = rows
                .iter()
                .filter(|r| eval_pred(&expr, r, &schema).unwrap() == Some(true))
                .map(|r| r[0].as_f64().unwrap() as i64)
                .collect();
            let mut first = 0usize;
            for group in &reader.footer().row_groups {
                let ids = first as i64..first as i64 + group.rows as i64;
                first += group.rows as usize;
                let hit = accepted.iter().find(|id| ids.contains(id));
                prop_assert!(
                    hit.is_none() || may_match(&pred, &names, &group.chunks),
                    "group {ids:?} pruned for {pred} but holds matching row {:?}",
                    hit.map(|&id| &rows[id as usize])
                );
            }
            let cols = vec!["id".to_string()];
            let kept: Vec<i64> = reader
                .read_rows(Some(&cols), Some(&pred))
                .unwrap()
                .iter()
                .map(|r| r[0].as_f64().unwrap() as i64)
                .collect();
            for id in &accepted {
                prop_assert!(
                    kept.contains(id),
                    "read_rows dropped matching row {:?} for {pred}",
                    rows[*id as usize]
                );
            }
        }
    }
}
