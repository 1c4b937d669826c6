//! Zone-map pruning: can any row summarized by per-column stats match?
//!
//! One function, [`may_match`], answers that question for both storage
//! formats: the storlet block planner asks it per record-aligned CSV block,
//! and the columnar reader asks it per row group. Both summarize their rows
//! with the same [`ColumnStats`] built by the same `observe` → `seal` steps,
//! so NULL and coercion rules live in exactly one place.
//!
//! Three-valued logic is collapsed conservatively: only a definite *no*
//! prunes, so an unknown column, an absent statistic or a `NOT` never makes
//! a query wrong, only slower.
//!
//! ## Soundness inventory
//!
//! The rules lean on how [`crate::filter`] evaluates predicates on raw CSV
//! fields, how typed rows compare under [`Value::sql_cmp`], and how
//! `scoop_common::zonestats` builds stats:
//!
//! * NULL (an empty CSV field, a typed `Null`): every comparison and string
//!   match is false, so stats with no non-NULL value (`!has_value`) cannot
//!   satisfy them.
//! * Numeric literals compare only against fields that parse as `f64`; the
//!   numeric `(min, max)` covers all such fields (NaN excluded — NaN
//!   comparisons are always false).
//! * `str_min` may be a truncated *prefix* of the true minimum — still a
//!   lower bound, usable for `< / <= / =` pruning. `str_max`, when present,
//!   is exact (overlong maxima are dropped at build time, never truncated).
//! * `NOT` is two-valued in the CSV filter and three-valued in SQL; pruning
//!   is not pushed through it ("may match").
//!
//! ## Typed cells
//!
//! A columnar writer observes each non-NULL cell as its `Display` text: the
//! raw string for `Str`, `to_string()` for numbers. That is sound because
//! `sql_cmp` between a `Str` and a number is always unknown (so a numeric
//! literal only ever selects number cells, and a typed string adds no
//! numeric bound), the text operators (`LIKE`, `StartsWith`, ...) on numbers
//! match the same `to_string()` text, and number → text → `f64` round-trips
//! exactly. A typed empty string is a value, not NULL: writers record it
//! with `observe_value`, which sets `has_value`.
//!
//! The string bounds keep a 16-byte prefix of the minimum and drop a longer
//! maximum, so `>`/`>=` against strings longer than that cannot prune.

use crate::pushdown::Predicate;
use crate::value::Value;
use scoop_common::zonestats::{bloom_mask, ColumnStats};

/// Conservative test: can any row summarized by `stats` satisfy `pred`?
///
/// `columns` names the stats entries (parallel slices); names resolve
/// case-insensitively, like the CSV filter and [`crate::Schema::index_of`].
/// `true` means "maybe" — only provably impossible rows return `false`.
pub fn may_match<S, C>(pred: &Predicate, columns: &[S], stats: &[C]) -> bool
where
    S: AsRef<str>,
    C: AsRef<ColumnStats>,
{
    let col = |name: &str| -> Option<&ColumnStats> {
        columns
            .iter()
            .position(|c| c.as_ref().eq_ignore_ascii_case(name))
            .and_then(|i| stats.get(i))
            .map(AsRef::as_ref)
    };
    match pred {
        Predicate::Eq(c, v) => col(c).is_none_or(|s| may_eq(s, v)),
        Predicate::Ne(c, v) => col(c).is_none_or(|s| may_ne(s, v)),
        Predicate::Lt(c, v) => col(c).is_none_or(|s| may_cmp(s, v, Cmp::Lt)),
        Predicate::Le(c, v) => col(c).is_none_or(|s| may_cmp(s, v, Cmp::Le)),
        Predicate::Gt(c, v) => col(c).is_none_or(|s| may_cmp(s, v, Cmp::Gt)),
        Predicate::Ge(c, v) => col(c).is_none_or(|s| may_cmp(s, v, Cmp::Ge)),
        Predicate::Like(c, pat) => col(c).is_none_or(|s| {
            // A LIKE match must begin with the pattern's literal prefix.
            let end = pat.find(['%', '_']).unwrap_or(pat.len());
            may_start_with(s, pat.get(..end).unwrap_or(""))
        }),
        Predicate::StartsWith(c, p) => col(c).is_none_or(|s| may_start_with(s, p)),
        Predicate::EndsWith(c, _) | Predicate::Contains(c, _) => col(c).is_none_or(|s| s.has_value),
        Predicate::In(c, vs) => col(c).is_none_or(|s| vs.iter().any(|v| may_eq(s, v))),
        Predicate::IsNull(c) => col(c).is_none_or(|s| s.has_null),
        Predicate::IsNotNull(c) => col(c).is_none_or(|s| s.has_value),
        Predicate::And(a, b) => may_match(a, columns, stats) && may_match(b, columns, stats),
        Predicate::Or(a, b) => may_match(a, columns, stats) || may_match(b, columns, stats),
        // Inverting a "maybe" is not sound either way, so never prune.
        Predicate::Not(_) => true,
    }
}

enum Cmp {
    Lt,
    Le,
    Gt,
    Ge,
}

/// Can `field = v` hold for some field summarized by `s`?
fn may_eq(s: &ColumnStats, v: &Value) -> bool {
    match v {
        // `field = NULL` is always false.
        Value::Null => false,
        Value::Int(_) | Value::Float(_) => match (v.as_f64(), s.num) {
            // No field parses as a number: = can't hold.
            (Some(x), Some((lo, hi))) => x >= lo && x <= hi,
            (Some(_), None) => false,
            (None, _) => true,
        },
        Value::Str(lit) => {
            let lit = lit.as_str();
            if !s.has_value {
                return false;
            }
            // stored str_min <= true minimum (prefix truncation only lowers
            // it), so anything below it is absent.
            if s.str_min.as_deref().is_some_and(|m| lit < m) {
                return false;
            }
            // str_max, when stored, is the exact maximum.
            if s.str_max.as_deref().is_some_and(|m| lit > m) {
                return false;
            }
            if let Some(bloom) = s.bloom {
                let mask = bloom_mask(lit);
                if bloom & mask != mask {
                    return false;
                }
            }
            true
        }
    }
}

/// Can `field <> v` hold for some field summarized by `s`?
fn may_ne(s: &ColumnStats, v: &Value) -> bool {
    match v {
        Value::Null => false,
        Value::Int(_) | Value::Float(_) => match (v.as_f64(), s.num) {
            // Some numeric field differs from x unless every one is pinned
            // to exactly x.
            (Some(x), Some((lo, hi))) => !(lo == x && hi == x),
            (Some(_), None) => false,
            (None, _) => true,
        },
        Value::Str(lit) => {
            let lit = lit.as_str();
            if !s.has_value {
                return false;
            }
            // All values equal `lit` only when both exact bounds pin to it
            // (an un-truncated min: equality to the bound proves it was
            // short enough to store verbatim).
            !(s.str_min.as_deref() == Some(lit) && s.str_max.as_deref() == Some(lit))
        }
    }
}

/// Can `field <op> v` hold for some field summarized by `s`?
fn may_cmp(s: &ColumnStats, v: &Value, op: Cmp) -> bool {
    match v {
        Value::Null => false,
        Value::Int(_) | Value::Float(_) => match (v.as_f64(), s.num) {
            (Some(x), Some((lo, hi))) => match op {
                Cmp::Lt => lo < x,
                Cmp::Le => lo <= x,
                Cmp::Gt => hi > x,
                Cmp::Ge => hi >= x,
            },
            (Some(_), None) => false,
            (None, _) => true,
        },
        Value::Str(lit) => {
            let lit = lit.as_str();
            if !s.has_value {
                return false;
            }
            match op {
                // Needs a field below `lit`; stored min bounds all fields
                // from below.
                Cmp::Lt => s.str_min.as_deref().is_none_or(|m| m < lit),
                Cmp::Le => s.str_min.as_deref().is_none_or(|m| m <= lit),
                // Needs a field above `lit`; only an exact max disproves it.
                Cmp::Gt => s.str_max.as_deref().is_none_or(|m| m > lit),
                Cmp::Ge => s.str_max.as_deref().is_none_or(|m| m >= lit),
            }
        }
    }
}

/// Can some field summarized by `s` start with `prefix`?
fn may_start_with(s: &ColumnStats, prefix: &str) -> bool {
    if !s.has_value {
        return false;
    }
    if prefix.is_empty() {
        return true;
    }
    // Fields with this prefix live in [prefix, successor(prefix)).
    // An exact max below the prefix rules them out...
    if s.str_max.as_deref().is_some_and(|m| m < prefix) {
        return false;
    }
    // ...and a minimum already past the prefix's extension range does too:
    // every field is >= str_min, and str_min > prefix without carrying it
    // as a prefix means str_min sorts after every `prefix*` string.
    if s.str_min
        .as_deref()
        .is_some_and(|m| m > prefix && !m.starts_with(prefix))
    {
        return false;
    }
    true
}
