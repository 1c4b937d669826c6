//! On-disk layout: row groups + footer.
//!
//! ```text
//! [rg0 col0 chunk][rg0 col1 chunk]...[rg1 col0 chunk]...[footer][len u32]["SCOL"]
//! ```
//!
//! Like Parquet, all metadata (schema, chunk offsets/lengths, per-chunk
//! zone-map statistics, row counts) lives in a footer at the end of the
//! object, so a reader fetches the tail first and then only the chunks it
//! needs — which is what makes column pruning cheap over ranged GETs.
//!
//! Chunk statistics are the same [`ColumnStats`] that describe CSV blocks,
//! stored in the zonestats `colstat` text form, so one planner
//! ([`scoop_csv::zonemap::may_match`]) prunes both formats.

use crate::encode::{put_bytes, put_u32, put_u64, put_varint, Cursor};
use scoop_common::zonestats::{decode_colstat, encode_colstat, ColumnStats};
use scoop_common::{Result, ScoopError};
use scoop_csv::schema::{DataType, Field, Schema};

/// Trailing magic.
pub const MAGIC: &[u8; 4] = b"SCOL";
/// Format version; a footer of any other version is rejected (version 1
/// stored per-chunk `Value` min/max, which no reader here decodes).
pub const VERSION: u8 = 2;

/// Location + stats of one column chunk.
#[derive(Debug, Clone, PartialEq)]
pub struct ChunkMeta {
    /// Absolute byte offset of the encoded chunk.
    pub offset: u64,
    /// Encoded length in bytes.
    pub length: u64,
    /// Zone-map statistics over the chunk's cells.
    pub stats: ColumnStats,
}

impl AsRef<ColumnStats> for ChunkMeta {
    fn as_ref(&self) -> &ColumnStats {
        &self.stats
    }
}

/// Metadata of one row group.
#[derive(Debug, Clone, PartialEq)]
pub struct RowGroupMeta {
    /// Rows in this group.
    pub rows: u64,
    /// One chunk per schema column, in schema order.
    pub chunks: Vec<ChunkMeta>,
}

/// The parsed footer.
#[derive(Debug, Clone, PartialEq)]
pub struct Footer {
    /// Logical schema.
    pub schema: Schema,
    /// Row groups in file order.
    pub row_groups: Vec<RowGroupMeta>,
}

impl Footer {
    /// Total row count.
    pub fn num_rows(&self) -> u64 {
        self.row_groups.iter().map(|g| g.rows).sum()
    }

    /// Serialize the footer (without length/magic trailer).
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        out.push(VERSION);
        put_varint(&mut out, self.schema.len() as u64);
        for f in &self.schema.fields {
            put_bytes(&mut out, f.name.as_bytes());
            out.push(match f.dtype {
                DataType::Int => 0,
                DataType::Float => 1,
                DataType::Str => 2,
            });
        }
        put_varint(&mut out, self.row_groups.len() as u64);
        let mut stats = String::new();
        for g in &self.row_groups {
            put_varint(&mut out, g.rows);
            for c in &g.chunks {
                put_u64(&mut out, c.offset);
                put_u64(&mut out, c.length);
                stats.clear();
                encode_colstat(&c.stats, &mut stats);
                put_bytes(&mut out, stats.as_bytes());
            }
        }
        out
    }

    /// Parse a footer buffer. Total: bytes from the store never panic and
    /// never size an allocation beyond the bytes actually present.
    pub fn decode(data: &[u8]) -> Result<Footer> {
        let mut c = Cursor::new(data);
        let version = c.bytes_one()?;
        if version != VERSION {
            return Err(ScoopError::Columnar(format!(
                "unsupported columnar version {version}"
            )));
        }
        let n_cols = c.varint()?;
        let mut fields = Vec::with_capacity(bounded(n_cols, &c));
        for _ in 0..n_cols {
            let name = String::from_utf8_lossy(c.bytes()?).into_owned();
            let dtype = match c.bytes_one()? {
                0 => DataType::Int,
                1 => DataType::Float,
                2 => DataType::Str,
                other => {
                    return Err(ScoopError::Columnar(format!("bad dtype tag {other}")))
                }
            };
            fields.push(Field::new(name, dtype));
        }
        let n_groups = c.varint()?;
        let mut row_groups = Vec::with_capacity(bounded(n_groups, &c));
        for _ in 0..n_groups {
            let rows = c.varint()?;
            let mut chunks = Vec::with_capacity(bounded(n_cols, &c));
            for _ in 0..n_cols {
                let offset = c.u64()?;
                let length = c.u64()?;
                let raw = std::str::from_utf8(c.bytes()?)
                    .map_err(|_| ScoopError::Columnar("non-utf8 chunk stats".into()))?;
                let stats = decode_colstat(raw)
                    .map_err(|e| ScoopError::Columnar(format!("chunk stats: {e}")))?;
                chunks.push(ChunkMeta { offset, length, stats });
            }
            row_groups.push(RowGroupMeta { rows, chunks });
        }
        Ok(Footer { schema: Schema::new(fields), row_groups })
    }

    /// Append the footer + trailer (length + magic) to a file buffer.
    pub fn write_trailer(&self, out: &mut Vec<u8>) {
        let footer = self.encode();
        let len = footer.len() as u32;
        out.extend_from_slice(&footer);
        put_u32(out, len);
        out.extend_from_slice(MAGIC);
    }
}

/// Capacity for `claimed` entries of at least one byte each: a peer's count
/// never reserves more than the bytes left to read.
fn bounded(claimed: u64, c: &Cursor<'_>) -> usize {
    usize::try_from(claimed).unwrap_or(usize::MAX).min(c.remaining())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::writer::ColumnarWriter;
    use scoop_csv::Value;

    fn footer() -> Footer {
        let stats = |lo: &str, hi: &str, num: Option<(f64, f64)>| ColumnStats {
            num,
            str_min: Some(lo.into()),
            str_max: Some(hi.into()),
            has_null: true,
            has_value: true,
            bloom: Some(0x8001),
        };
        Footer {
            schema: Schema::new(vec![
                Field::new("vid", DataType::Str),
                Field::new("index", DataType::Float),
            ]),
            row_groups: vec![RowGroupMeta {
                rows: 100,
                chunks: vec![
                    ChunkMeta { offset: 0, length: 512, stats: stats("m1", "m99", None) },
                    ChunkMeta {
                        offset: 512,
                        length: 800,
                        stats: stats("0.5", "99.0", Some((0.5, 99.0))),
                    },
                ],
            }],
        }
    }

    #[test]
    fn footer_roundtrip() {
        let f = footer();
        let enc = f.encode();
        assert_eq!(Footer::decode(&enc).unwrap(), f);
        assert_eq!(f.num_rows(), 100);
    }

    #[test]
    fn trailer_layout() {
        let f = footer();
        let mut buf = vec![0u8; 10]; // pretend chunk data
        f.write_trailer(&mut buf);
        assert_eq!(&buf[buf.len() - 4..], MAGIC);
        let len = u32::from_le_bytes(buf[buf.len() - 8..buf.len() - 4].try_into().unwrap());
        let footer_bytes = &buf[buf.len() - 8 - len as usize..buf.len() - 8];
        assert_eq!(Footer::decode(footer_bytes).unwrap(), f);
    }

    #[test]
    fn stats_ignore_nulls() {
        let schema = Schema::new(vec![Field::new("n", DataType::Int)]);
        let mut w = ColumnarWriter::new(schema);
        for v in [Value::Null, Value::Int(5), Value::Int(-3), Value::Null] {
            w.write_row(&[v]);
        }
        let data = w.finish();
        let footer = crate::ColumnarReader::open_bytes(data).unwrap().footer().clone();
        let s = &footer.row_groups[0].chunks[0].stats;
        assert_eq!(s.num, Some((-3.0, 5.0)));
        assert!(s.has_null && s.has_value);
        assert_eq!((s.str_min.as_deref(), s.str_max.as_deref()), (Some("-3"), Some("5")));
    }

    #[test]
    fn decode_rejects_garbage() {
        assert!(Footer::decode(&[]).is_err());
        assert!(Footer::decode(&[99]).is_err());
        // A version-1 footer (Value min/max stats) is refused, not misread.
        let mut v1 = footer().encode();
        v1[0] = 1;
        assert!(matches!(Footer::decode(&v1), Err(ScoopError::Columnar(_))));
        // 9 bytes claiming 2^56 columns: an error, not a 2^56-slot allocation.
        let mut huge = vec![VERSION];
        put_varint(&mut huge, 1 << 56);
        assert!(Footer::decode(&huge).is_err());
        let mut groups = vec![VERSION, 0];
        put_varint(&mut groups, u64::MAX);
        assert!(Footer::decode(&groups).is_err());
        // Undecodable chunk stats (an unknown colstat tag).
        let mut corrupt = footer().encode();
        let at = corrupt.iter().position(|&b| b == b'm').unwrap();
        corrupt[at] = b'?';
        assert!(matches!(Footer::decode(&corrupt), Err(ScoopError::Columnar(_))));
    }
}
