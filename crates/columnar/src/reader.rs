//! Columnar reader with column pruning, row-group skipping and row
//! selection.
//!
//! The reader fetches through a range callback so the same code path serves
//! local buffers and ranged object-store GETs. It counts the bytes it
//! actually fetched — the quantity the Fig. 8 Scoop-vs-Parquet comparison
//! turns on (compressed, column-pruned transfer vs storlet-filtered CSV).

use crate::encode::{decode_column_batch, Cursor, DecodedColumn};
use crate::format::{Footer, RowGroupMeta, MAGIC};
use bytes::Bytes;
use scoop_common::{Result, ScoopError};
use scoop_csv::zonemap::may_match;
use scoop_csv::{Predicate, Schema, Value};
use std::cell::Cell;
use std::collections::HashMap;

/// Fetch `[start, end)` of the underlying object.
pub type FetchFn<'a> = Box<dyn Fn(u64, u64) -> Result<Bytes> + 'a>;

/// A columnar file reader.
pub struct ColumnarReader<'a> {
    fetch: FetchFn<'a>,
    footer: Footer,
    bytes_fetched: Cell<u64>,
}

impl<'a> ColumnarReader<'a> {
    /// Open via a range-fetch callback over an object of `total_len` bytes.
    /// Whatever the fetch returns, a malformed object is an error, never a
    /// panic.
    pub fn open(total_len: u64, fetch: FetchFn<'a>) -> Result<ColumnarReader<'a>> {
        let bad = |what: &str| ScoopError::Columnar(what.into());
        let tail_start = total_len.checked_sub(8).ok_or_else(|| bad("object too small"))?;
        let tail = fetch(tail_start, total_len)?;
        if tail.len() != 8 || !tail.ends_with(MAGIC) {
            return Err(bad("missing SCOL trailer"));
        }
        let footer_len = u64::from(Cursor::new(&tail).u32()?);
        let footer_start = tail_start
            .checked_sub(footer_len)
            .ok_or_else(|| bad("footer length exceeds object"))?;
        let footer_bytes = fetch(footer_start, tail_start)?;
        let fetched = 8u64.saturating_add(footer_bytes.len() as u64);
        let footer = Footer::decode(&footer_bytes)?;
        Ok(ColumnarReader { fetch, footer, bytes_fetched: Cell::new(fetched) })
    }

    /// Open over an in-memory buffer.
    pub fn open_bytes(data: Bytes) -> Result<ColumnarReader<'static>> {
        let len = data.len() as u64;
        ColumnarReader::open(
            len,
            Box::new(move |s, e| {
                let s = (s.min(len)) as usize;
                let e = (e.min(len)) as usize;
                Ok(data.slice(s..e.max(s)))
            }),
        )
    }

    /// Parsed footer.
    pub fn footer(&self) -> &Footer {
        &self.footer
    }

    /// Logical schema.
    pub fn schema(&self) -> &Schema {
        &self.footer.schema
    }

    /// Total rows in the object.
    pub fn num_rows(&self) -> u64 {
        self.footer.num_rows()
    }

    /// Bytes fetched so far (footer + chunks).
    pub fn bytes_fetched(&self) -> u64 {
        self.bytes_fetched.get()
    }

    fn fetch_range(&self, start: u64, end: u64) -> Result<Bytes> {
        let data = (self.fetch)(start, end)?;
        self.bytes_fetched
            .set(self.bytes_fetched.get().saturating_add(data.len() as u64));
        Ok(data)
    }

    /// Read rows in file order, pruned to `columns` when given (output
    /// column order follows the request).
    ///
    /// With a predicate, row groups whose zone maps rule it out are never
    /// fetched (the shared planner, [`scoop_csv::zonemap::may_match`]), and
    /// inside surviving groups the predicate is evaluated on the
    /// batch-decoded columns before any row is materialized. Equality
    /// against a string literal on a dictionary-encoded chunk compares
    /// dictionary codes, and a literal absent from the dictionary drops the
    /// whole group. The result is a superset of the matching rows (NULL
    /// comparisons read as false, then `NOT` flips them), so callers still
    /// apply the full predicate.
    pub fn read_rows(
        &self,
        columns: Option<&[String]>,
        predicate: Option<&Predicate>,
    ) -> Result<Vec<Vec<Value>>> {
        let schema = &self.footer.schema;
        let col_indices: Vec<usize> = match columns {
            None => (0..schema.len()).collect(),
            Some(cols) => cols
                .iter()
                .map(|c| schema.resolve(c))
                .collect::<Result<_>>()?,
        };
        // Predicate columns may not be projected; decode the union.
        let mut needed = col_indices.clone();
        if let Some(pred) = predicate {
            for c in pred.columns() {
                needed.push(schema.resolve(&c)?);
            }
        }
        needed.sort_unstable();
        needed.dedup();
        let names = schema.names();
        let mut rows: Vec<Vec<Value>> = Vec::new();
        for group in &self.footer.row_groups {
            if predicate.is_some_and(|p| !may_match(p, &names, &group.chunks)) {
                continue;
            }
            let decoded = self.decode_group_columns(group, &needed)?;
            let by_index: HashMap<usize, &DecodedColumn> =
                needed.iter().copied().zip(decoded.iter()).collect();
            let n = group.rows as usize;
            let select = match predicate {
                None => vec![true; n],
                Some(pred) => selection(schema, &by_index, n, pred)?,
            };
            if !select.iter().any(|&b| b) {
                continue;
            }
            let proj: Vec<&DecodedColumn> = col_indices
                .iter()
                .map(|ci| {
                    by_index.get(ci).copied().ok_or_else(|| {
                        ScoopError::Columnar("projected chunk not decoded".into())
                    })
                })
                .collect::<Result<_>>()?;
            // Per-column dense cursors: each kept cell materializes once.
            let mut dense = vec![0usize; proj.len()];
            for (r, &keep) in select.iter().enumerate() {
                if keep {
                    rows.push(
                        proj.iter()
                            .zip(&dense)
                            .map(|(col, &k)| {
                                if col.is_valid(r) {
                                    col.dense_value(k)
                                } else {
                                    Value::Null
                                }
                            })
                            .collect(),
                    );
                }
                for (k, col) in dense.iter_mut().zip(&proj) {
                    if col.is_valid(r) {
                        *k = k.saturating_add(1);
                    }
                }
            }
        }
        Ok(rows)
    }

    /// Fetch and batch-decode the chunks of `indices` for one row group.
    fn decode_group_columns(
        &self,
        group: &RowGroupMeta,
        indices: &[usize],
    ) -> Result<Vec<DecodedColumn>> {
        let mut cols = Vec::with_capacity(indices.len());
        for &ci in indices {
            let chunk = group.chunks.get(ci).ok_or_else(|| {
                ScoopError::Columnar("column index out of range".into())
            })?;
            let end = chunk.offset.checked_add(chunk.length).ok_or_else(|| {
                ScoopError::Columnar("chunk extent overflows".into())
            })?;
            let data = self.fetch_range(chunk.offset, end)?;
            cols.push(decode_column_batch(&data)?);
        }
        Ok(cols)
    }
}

/// Row-selection bitmap for `pred` over one group's decoded columns. NULL
/// cells never satisfy a comparison (SQL three-valued logic collapsed to
/// false), matching the CSV-side filter semantics.
fn selection(
    schema: &Schema,
    cols: &HashMap<usize, &DecodedColumn>,
    n: usize,
    pred: &Predicate,
) -> Result<Vec<bool>> {
    use std::cmp::Ordering;
    let col = |name: &str| -> Result<&DecodedColumn> {
        let i = schema.resolve(name)?;
        cols.get(&i).copied().ok_or_else(|| {
            ScoopError::Columnar(format!("predicate column '{name}' not decoded"))
        })
    };
    Ok(match pred {
        Predicate::And(a, b) => {
            let (a, b) = (selection(schema, cols, n, a)?, selection(schema, cols, n, b)?);
            a.iter().zip(&b).map(|(&x, &y)| x && y).collect()
        }
        Predicate::Or(a, b) => {
            let (a, b) = (selection(schema, cols, n, a)?, selection(schema, cols, n, b)?);
            a.iter().zip(&b).map(|(&x, &y)| x || y).collect()
        }
        Predicate::Not(p) => selection(schema, cols, n, p)?
            .iter()
            .map(|&x| !x)
            .collect(),
        Predicate::IsNull(c) => {
            let col = col(c)?;
            (0..n).map(|r| !col.is_valid(r)).collect()
        }
        Predicate::IsNotNull(c) => {
            let col = col(c)?;
            (0..n).map(|r| col.is_valid(r)).collect()
        }
        Predicate::Eq(c, v) => {
            let column = col(c)?;
            // The dictionary fast path: resolve a string literal to a code
            // once, then compare codes — one integer compare per row. A
            // literal absent from the dictionary drops every row.
            if let Value::Str(s) = v {
                match column.dict_code(s) {
                    Some(Some(code)) => {
                        let codes = column.codes().unwrap_or(&[]);
                        return Ok(dense_map(column, n, |k| codes.get(k) == Some(&code)));
                    }
                    Some(None) => return Ok(vec![false; n]),
                    None => {}
                }
            }
            // Catalyst pushes a wildcard-free `LIKE 'lit'` as `Eq(col, 'lit')`,
            // and LIKE reads a number as its text, so a string literal also
            // keeps number cells whose text equals it.
            leaf(column, n, |x| match (x, v) {
                (Value::Int(_) | Value::Float(_), Value::Str(lit)) => text_of(x) == lit.as_str(),
                _ => x.sql_eq(v),
            })
        }
        Predicate::Ne(c, v) => leaf(col(c)?, n, |x| {
            matches!(x.sql_cmp(v), Some(o) if o != Ordering::Equal)
        }),
        Predicate::Lt(c, v) => leaf(col(c)?, n, |x| x.sql_cmp(v) == Some(Ordering::Less)),
        Predicate::Le(c, v) => leaf(col(c)?, n, |x| {
            matches!(x.sql_cmp(v), Some(Ordering::Less | Ordering::Equal))
        }),
        Predicate::Gt(c, v) => {
            leaf(col(c)?, n, |x| x.sql_cmp(v) == Some(Ordering::Greater))
        }
        Predicate::Ge(c, v) => leaf(col(c)?, n, |x| {
            matches!(x.sql_cmp(v), Some(Ordering::Greater | Ordering::Equal))
        }),
        Predicate::Like(c, pat) => {
            leaf(col(c)?, n, |x| scoop_csv::pushdown::like_match(pat, &text_of(x)))
        }
        Predicate::StartsWith(c, p) => leaf(col(c)?, n, |x| text_of(x).starts_with(p.as_str())),
        Predicate::EndsWith(c, p) => leaf(col(c)?, n, |x| text_of(x).ends_with(p.as_str())),
        Predicate::Contains(c, p) => leaf(col(c)?, n, |x| text_of(x).contains(p.as_str())),
        Predicate::In(c, vals) => leaf(col(c)?, n, |x| {
            vals.iter().any(|v| x.sql_cmp(v) == Some(Ordering::Equal))
        }),
    })
}

/// Per-row evaluation over the dense entries; NULL rows are false.
fn dense_map(
    col: &DecodedColumn,
    n: usize,
    mut test: impl FnMut(usize) -> bool,
) -> Vec<bool> {
    let mut out = Vec::with_capacity(n);
    let mut k = 0usize;
    for r in 0..n {
        if col.is_valid(r) {
            out.push(test(k));
            k += 1;
        } else {
            out.push(false);
        }
    }
    out
}

/// Generic leaf: materialize each non-null cell and apply `test`.
fn leaf(col: &DecodedColumn, n: usize, mut test: impl FnMut(&Value) -> bool) -> Vec<bool> {
    dense_map(col, n, |k| test(&col.dense_value(k)))
}

/// The string a predicate's text operators see for a cell.
fn text_of(v: &Value) -> String {
    match v {
        Value::Str(s) => s.as_str().to_owned(),
        other => other.to_string(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::writer::ColumnarWriter;
    use scoop_csv::schema::{DataType, Field};

    fn sample() -> Bytes {
        let schema = Schema::new(vec![
            Field::new("vid", DataType::Str),
            Field::new("date", DataType::Str),
            Field::new("index", DataType::Float),
        ]);
        let mut w = ColumnarWriter::with_row_group_rows(schema, 10);
        for i in 0..30 {
            w.write_row(&[
                Value::Str(format!("m{}", i % 4).into()),
                Value::Str(format!("2015-{:02}-01", i / 10 + 1).into()),
                Value::Float(i as f64),
            ]);
        }
        w.finish()
    }

    #[test]
    fn column_pruning_fetches_fewer_bytes() {
        let data = sample();
        let full = ColumnarReader::open_bytes(data.clone()).unwrap();
        let all = full.read_rows(None, None).unwrap();
        assert_eq!(all.len(), 30);
        let full_bytes = full.bytes_fetched();

        let pruned = ColumnarReader::open_bytes(data).unwrap();
        let only_vid = pruned.read_rows(Some(&["vid".to_string()]), None).unwrap();
        assert_eq!(only_vid.len(), 30);
        assert_eq!(only_vid[0].len(), 1);
        assert!(
            pruned.bytes_fetched() < full_bytes,
            "pruned {} vs full {full_bytes}",
            pruned.bytes_fetched()
        );
    }

    #[test]
    fn pruned_read_matches_full_read() {
        let data = sample();
        let r = ColumnarReader::open_bytes(data).unwrap();
        let full = r.read_rows(None, None).unwrap();
        let pruned = r
            .read_rows(Some(&["index".to_string(), "vid".to_string()]), None)
            .unwrap();
        for (f, p) in full.iter().zip(&pruned) {
            assert_eq!(p[0], f[2]);
            assert_eq!(p[1], f[0]);
        }
    }

    /// Bytes a read fetches beyond the footer.
    fn chunk_bytes(pred: &Predicate) -> (usize, u64) {
        let r = ColumnarReader::open_bytes(sample()).unwrap();
        let footer = r.bytes_fetched();
        let rows = r.read_rows(Some(&["date".to_string()]), Some(pred)).unwrap();
        (rows.len(), r.bytes_fetched() - footer)
    }

    #[test]
    fn stats_skip_row_groups() {
        // Every group's date chunk has the same size, so a read that fetches
        // a third of the unfiltered bytes touched one group of three.
        let all = Predicate::IsNotNull("date".into());
        let (rows, full) = chunk_bytes(&all);
        assert_eq!(rows, 30);
        // date '2015-03-01' only in the last group of 10.
        let pred = Predicate::Eq("date".into(), Value::Str("2015-03-01".into()));
        assert_eq!(chunk_bytes(&pred), (10, full / 3));
        // Numeric range that excludes everything: no chunk is fetched.
        let pred = Predicate::Gt("index".into(), Value::Float(1e9));
        assert_eq!(chunk_bytes(&pred), (0, 0));
    }

    #[test]
    fn prefix_skip() {
        let (_, full) = chunk_bytes(&Predicate::IsNotNull("date".into()));
        let pred = Predicate::StartsWith("date".into(), "2019".into());
        assert_eq!(chunk_bytes(&pred), (0, 0));
        let pred = Predicate::StartsWith("date".into(), "2015-01".into());
        assert_eq!(chunk_bytes(&pred), (10, full / 3));
    }

    #[test]
    fn selected_read_filters_rows_within_groups() {
        let r = ColumnarReader::open_bytes(sample()).unwrap();
        // vid cycles m0..m3: "m2" is dictionary-encoded in every group.
        let pred = Predicate::Eq("vid".into(), Value::Str("m2".into()));
        let rows = r
            .read_rows(Some(&["vid".to_string(), "index".to_string()]), Some(&pred))
            .unwrap();
        assert_eq!(rows.len(), 7);
        assert!(rows.iter().all(|row| row[0] == Value::Str("m2".into())));
        // A literal absent from every dictionary yields nothing.
        let pred = Predicate::Eq("vid".into(), Value::Str("ghost".into()));
        assert!(r.read_rows(None, Some(&pred)).unwrap().is_empty());
        // Numeric comparison selects row-wise, not group-wise.
        let pred = Predicate::Gt("index".into(), Value::Float(24.5));
        let rows = r.read_rows(Some(&["index".to_string()]), Some(&pred)).unwrap();
        assert_eq!(rows.len(), 5);
        // A pushed `index LIKE '24.0'` arrives as a string equality and must
        // keep the number whose text matches.
        let pred = Predicate::Eq("index".into(), Value::Str("24.0".into()));
        let rows = r.read_rows(Some(&["index".to_string()]), Some(&pred)).unwrap();
        assert_eq!(rows, vec![vec![Value::Float(24.0)]]);
    }

    #[test]
    fn selected_matches_post_filtered_rows() {
        let r = ColumnarReader::open_bytes(sample()).unwrap();
        let pred = Predicate::Eq("date".into(), Value::Str("2015-02-01".into()));
        let manual: Vec<Vec<Value>> = r
            .read_rows(None, None)
            .unwrap()
            .into_iter()
            .filter(|row| row[1] == Value::Str("2015-02-01".into()))
            .collect();
        let selected = r.read_rows(None, Some(&pred)).unwrap();
        assert_eq!(selected, manual);
        assert_eq!(selected.len(), 10);
    }

    #[test]
    fn open_rejects_non_columnar() {
        assert!(ColumnarReader::open_bytes(Bytes::from_static(b"short")).is_err());
        assert!(
            ColumnarReader::open_bytes(Bytes::from(vec![0u8; 64])).is_err()
        );
    }

    /// Open over `data` through a fetch that serves at most `cap` bytes.
    fn open_capped(data: Bytes, cap: u64) -> Result<ColumnarReader<'static>> {
        let len = data.len() as u64;
        ColumnarReader::open(
            len,
            Box::new(move |s, e| {
                let (s, e) = (s.min(len), e.min(len).min(s.saturating_add(cap)));
                Ok(data.slice(s as usize..e.max(s) as usize))
            }),
        )
    }

    /// Replace the footer of `file` with `footer`, keeping the chunk bytes.
    fn with_footer(file: &Bytes, footer: &[u8]) -> Bytes {
        let old = u32::from_le_bytes(file[file.len() - 8..file.len() - 4].try_into().unwrap());
        let mut out = file[..file.len() - 8 - old as usize].to_vec();
        out.extend_from_slice(footer);
        out.extend_from_slice(&(footer.len() as u32).to_le_bytes());
        out.extend_from_slice(MAGIC);
        Bytes::from(out)
    }

    #[test]
    fn hostile_objects_error_without_panicking() {
        let is_columnar = |r: Result<ColumnarReader<'_>>| {
            matches!(r, Err(ScoopError::Columnar(_) | ScoopError::Corrupt(_)))
        };
        // A store that returns fewer tail bytes than asked for.
        assert!(is_columnar(open_capped(sample(), 3)));
        // A 9-byte footer claiming 2^56 columns.
        let mut huge = vec![crate::format::VERSION];
        crate::encode::put_varint(&mut huge, 1 << 56);
        assert!(is_columnar(ColumnarReader::open_bytes(with_footer(&sample(), &huge))));
        // A version-1 footer.
        let file = sample();
        let mut v1 = ColumnarReader::open_bytes(file.clone()).unwrap().footer().encode();
        v1[0] = 1;
        assert!(is_columnar(ColumnarReader::open_bytes(with_footer(&file, &v1))));
        // A chunk whose offset + length overflows u64.
        let mut footer = ColumnarReader::open_bytes(file.clone()).unwrap().footer().clone();
        footer.row_groups[0].chunks[0].offset = u64::MAX;
        let r = ColumnarReader::open_bytes(with_footer(&file, &footer.encode())).unwrap();
        assert!(matches!(r.read_rows(None, None), Err(ScoopError::Columnar(_))));
    }

    #[test]
    fn unknown_column_errors() {
        let r = ColumnarReader::open_bytes(sample()).unwrap();
        assert!(r.read_rows(Some(&["ghost".to_string()]), None).is_err());
    }
}
