//! Per-block zone-map statistics for store-side data skipping.
//!
//! At PUT time the indexing storlet divides a CSV object into record-aligned
//! byte blocks and records, per block and per column, the evidence a planner
//! needs to answer "can any record in this block match the pushdown
//! predicate?": numeric min/max over fields that parse as `f64`, string
//! min/max over the raw field bytes, a NULL presence flag, and an optional
//! 64-bit bloom digest for low-cardinality string columns. The stats are
//! serialized into a compact percent-escaped text form and chunked into
//! numbered `x-object-meta-scoop-stats-*` metadata values
//! ([`crate::headers::SCOOP_STATS_PREFIX`]), so they persist, replicate
//! and survive exactly like user metadata.
//!
//! Staleness is handled by embedding the object's etag: a planner must treat
//! stats whose etag differs from the stored object's as absent and fall back
//! to a full scan. Everything here is *advisory* — a decoding failure or a
//! missing column never makes a query wrong, only slower.
//!
//! The same per-column stats also describe the chunks of a columnar row
//! group (`scoop_columnar::format`), so one planner serves both formats.
//! This module holds the data model and codec only; predicate pruning lives
//! next to the predicate type (`scoop_csv::zonemap`), keeping `scoop_common`
//! free of CSV dependencies.

use crate::hash::hash64;
use crate::{Result, ScoopError};
use std::collections::BTreeMap;

/// Longest string literal kept verbatim in a zone map. A longer *minimum* is
/// truncated to this many bytes — a prefix is still a sound lower bound — but
/// a longer *maximum* is dropped entirely, because a prefix of the max is NOT
/// an upper bound.
pub const MAX_STRING_STAT: usize = 16;

/// Distinct-value ceiling for building a bloom digest: columns with more
/// distinct strings per block are not worth a digest (it would be saturated).
pub const BLOOM_MAX_DISTINCT: usize = 32;

/// Metadata chunk payload size. Each `x-object-meta-scoop-stats-N` value
/// stays comfortably header-sized.
pub const META_CHUNK: usize = 256;

/// Per-column statistics over one record block.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ColumnStats {
    /// Numeric `(min, max)` over fields that parse as finite-or-infinite
    /// `f64` (NaN fields are excluded: no comparison can select them).
    pub num: Option<(f64, f64)>,
    /// Smallest raw field value, possibly truncated to [`MAX_STRING_STAT`]
    /// bytes (a prefix is a sound lower bound).
    pub str_min: Option<String>,
    /// Largest raw field value; `None` when unknown *or* when the true max
    /// was too long to store (a prefix would be unsound as an upper bound).
    pub str_max: Option<String>,
    /// Any empty/absent (NULL) field in the block.
    pub has_null: bool,
    /// Any non-empty field in the block.
    pub has_value: bool,
    /// 64-bit bloom digest of the distinct field values, present only when
    /// the block stayed under [`BLOOM_MAX_DISTINCT`] distinct strings.
    pub bloom: Option<u64>,
}

impl AsRef<ColumnStats> for ColumnStats {
    fn as_ref(&self) -> &ColumnStats {
        self
    }
}

/// One record-aligned byte block.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct BlockStats {
    /// First byte of the block (a record start, or 0).
    pub start: u64,
    /// One past the last byte of the block (a record end boundary).
    pub end: u64,
    /// Data records in the block (header row excluded).
    pub rows: u64,
    /// Per-column stats, parallel to [`ObjectStats::columns`].
    pub columns: Vec<ColumnStats>,
}

/// The full per-object index: schema, block layout, per-block zone maps.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ObjectStats {
    /// Etag of the object bytes the stats describe; a mismatch against the
    /// stored object means the stats are stale and must be ignored.
    pub etag: String,
    /// Whether byte 0 starts a header row (owned by block 0, not counted).
    pub has_header: bool,
    /// Column names in file order.
    pub columns: Vec<String>,
    /// Record-aligned blocks tiling `[0, object_len)` in order.
    pub blocks: Vec<BlockStats>,
}

/// The two bloom probe positions for a field value (double hashing over the
/// workspace fingerprint; 64-bit filter).
pub fn bloom_mask(value: &str) -> u64 {
    let h = hash64(value.as_bytes());
    let b1 = (h & 63) as u32;
    let b2 = ((h >> 8) & 63) as u32;
    (1u64 << b1) | (1u64 << b2)
}

impl ColumnStats {
    /// Fold one raw CSV field (already unquoted) into the stats: an empty
    /// field is NULL. `distinct` is the caller's scratch set for bloom
    /// construction, folded in by [`Self::seal`].
    pub fn observe(&mut self, field: &str, distinct: &mut Vec<String>) {
        if field.is_empty() {
            self.has_null = true;
        } else {
            self.observe_value(field, field.parse().ok(), distinct);
        }
    }

    /// Fold one non-NULL value given as its text and numeric reading. For a
    /// raw field `num` is what the text parses to; a typed cell passes its
    /// own number (`Value::as_f64`), which is what its text parses back to.
    /// Unlike [`Self::observe`], empty text counts as a value: a typed empty
    /// string is not NULL.
    pub fn observe_value(&mut self, text: &str, num: Option<f64>, distinct: &mut Vec<String>) {
        self.has_value = true;
        if let Some(v) = num {
            if !v.is_nan() {
                self.num = Some(match self.num {
                    None => (v, v),
                    Some((lo, hi)) => (lo.min(v), hi.max(v)),
                });
            }
        }
        if self.str_min.as_deref().is_none_or(|m| text < m) {
            // Eager truncation is sound for the *min*: a prefix only lowers
            // the bound further.
            assign(&mut self.str_min, truncate_prefix(text));
        }
        // The max is tracked exactly while the block is open — truncating
        // here would be unsound (a prefix is below the true max), and
        // poisoning to `None` here could be undone by a later smaller value.
        // [`Self::seal`] drops overlong maxima once the block closes.
        if self.str_max.as_deref().is_none_or(|m| text > m) {
            assign(&mut self.str_max, text);
        }
        if distinct.len() <= BLOOM_MAX_DISTINCT && !distinct.iter().any(|d| d == text) {
            distinct.push(text.to_string());
        }
    }

    /// Close the stats for serialization and reset `distinct` for the next
    /// block. An overlong exact max becomes "unknown" (`None`), since only a
    /// prefix could be stored and a prefix of the max is not an upper bound.
    /// A block that stayed under [`BLOOM_MAX_DISTINCT`] distinct values gets
    /// its bloom digest.
    pub fn seal(&mut self, distinct: &mut Vec<String>) {
        if self.str_max.as_ref().is_some_and(|m| m.len() > MAX_STRING_STAT) {
            self.str_max = None;
        }
        if !distinct.is_empty() && distinct.len() <= BLOOM_MAX_DISTINCT {
            self.bloom = Some(distinct.iter().fold(0u64, |m, v| m | bloom_mask(v)));
        }
        distinct.clear();
    }
}

/// Overwrite a string bound in place, reusing its allocation.
fn assign(slot: &mut Option<String>, text: &str) {
    match slot {
        Some(s) => {
            s.clear();
            s.push_str(text);
        }
        None => *slot = Some(text.to_string()),
    }
}

/// Truncate to a char-boundary prefix of at most [`MAX_STRING_STAT`] bytes.
fn truncate_prefix(s: &str) -> &str {
    let mut end = s.len().min(MAX_STRING_STAT);
    while end > 0 && !s.is_char_boundary(end) {
        end = end.saturating_sub(1);
    }
    s.get(..end).unwrap_or("")
}

/// Incrementally builds [`ObjectStats`] as records stream through the
/// indexing storlet. Callers feed parsed records via [`Self::record`] and
/// byte positions via the record's length; block boundaries are cut at
/// record boundaries once a block exceeds `block_bytes`.
#[derive(Debug)]
pub struct StatsBuilder {
    block_bytes: u64,
    columns: Vec<String>,
    has_header: bool,
    blocks: Vec<BlockStats>,
    cur: BlockStats,
    cur_distinct: Vec<Vec<String>>,
    offset: u64,
}

impl StatsBuilder {
    /// Start a builder for an object with the given schema. `block_bytes`
    /// is the nominal block size; each block covers at least one record.
    pub fn new(columns: Vec<String>, has_header: bool, block_bytes: u64) -> StatsBuilder {
        let ncols = columns.len();
        StatsBuilder {
            block_bytes: block_bytes.max(1),
            columns,
            has_header,
            blocks: Vec::new(),
            cur: BlockStats { columns: vec![ColumnStats::default(); ncols], ..Default::default() },
            cur_distinct: vec![Vec::new(); ncols],
            offset: 0,
        }
    }

    /// Account bytes that belong to the current block but carry no data
    /// records (the header row, blank lines).
    pub fn skip_bytes(&mut self, len: u64) {
        self.offset += len;
    }

    /// Fold one data record into the current block. `fields` are the parsed
    /// field values; `len` is the record's on-disk byte length including its
    /// newline.
    pub fn record(&mut self, fields: &[&str], len: u64) {
        for (i, (col, distinct)) in self
            .cur
            .columns
            .iter_mut()
            .zip(self.cur_distinct.iter_mut())
            .enumerate()
        {
            let field = fields.get(i).copied().unwrap_or("");
            col.observe(field, distinct);
        }
        self.cur.rows += 1;
        self.offset += len;
        if self.offset.saturating_sub(self.cur.start) >= self.block_bytes {
            self.cut();
        }
    }

    /// Close the current block at the current offset.
    fn cut(&mut self) {
        if self.offset == self.cur.start {
            return;
        }
        let ncols = self.columns.len();
        let mut done = std::mem::replace(
            &mut self.cur,
            BlockStats {
                start: self.offset,
                columns: vec![ColumnStats::default(); ncols],
                ..Default::default()
            },
        );
        done.end = self.offset;
        for (col, distinct) in done.columns.iter_mut().zip(&mut self.cur_distinct) {
            col.seal(distinct);
        }
        self.blocks.push(done);
    }

    /// Finish: close the open block and stamp the object identity.
    pub fn finish(mut self, etag: String) -> ObjectStats {
        self.cut();
        ObjectStats {
            etag,
            has_header: self.has_header,
            columns: self.columns,
            blocks: self.blocks,
        }
    }

    /// Total bytes folded so far (diagnostics).
    pub fn offset(&self) -> u64 {
        self.offset
    }
}

// ---------------------------------------------------------------------------
// Codec
// ---------------------------------------------------------------------------
//
// Compact line-free text form (the disk backend's metadata sidecar cannot
// hold tabs or newlines, and HTTP header values should not either):
//
//   v1|<etag>|<hdr 0/1>|<col;col;...>|<block>|<block>|...
//   block := s:<start>;e:<end>;r:<rows>;<colstat>;<colstat>;...
//   colstat := [n<min>,<max>][m<str_min>][M<str_max>][u][x][b<bloom hex>]
//
// Strings are percent-escaped so the `|`, `;`, `,`, `%` structure bytes and
// any control bytes never appear raw.

fn esc(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for b in s.bytes() {
        match b {
            b'%' | b'|' | b';' | b',' => out.push_str(&format!("%{b:02X}")),
            0x00..=0x1F | 0x7F => out.push_str(&format!("%{b:02X}")),
            _ => out.push(b as char),
        }
    }
    out
}

fn unesc(s: &str) -> Result<String> {
    let bytes = s.as_bytes();
    let mut out = Vec::with_capacity(bytes.len());
    let mut i = 0;
    while let Some(&b) = bytes.get(i) {
        if b == b'%' {
            let hex = bytes
                .get(i.saturating_add(1)..i.saturating_add(3))
                .and_then(|h| std::str::from_utf8(h).ok())
                .ok_or_else(|| ScoopError::InvalidRequest("bad stats %-escape".into()))?;
            let v = u8::from_str_radix(hex, 16)
                .map_err(|_| ScoopError::InvalidRequest("bad stats %-escape".into()))?;
            out.push(v);
            i = i.saturating_add(3);
        } else {
            out.push(b);
            i = i.saturating_add(1);
        }
    }
    String::from_utf8(out).map_err(|_| ScoopError::InvalidRequest("non-utf8 stats".into()))
}

/// `f64` text round-trip: Rust's shortest-repr `Display` re-parses exactly.
fn fmt_f64(v: f64) -> String {
    format!("{v}")
}

fn parse_f64(s: &str) -> Result<f64> {
    s.parse::<f64>()
        .map_err(|_| ScoopError::InvalidRequest(format!("bad stats number '{s}'")))
}

fn parse_u64(s: &str) -> Result<u64> {
    s.parse::<u64>()
        .map_err(|_| ScoopError::InvalidRequest(format!("bad stats integer '{s}'")))
}

impl ObjectStats {
    /// Serialize into the compact single-string form.
    pub fn encode(&self) -> String {
        let mut out = String::from("v1|");
        out.push_str(&esc(&self.etag));
        out.push('|');
        out.push(if self.has_header { '1' } else { '0' });
        out.push('|');
        out.push_str(&self.columns.iter().map(|c| esc(c)).collect::<Vec<_>>().join(";"));
        for b in &self.blocks {
            out.push('|');
            out.push_str(&format!("s:{};e:{};r:{}", b.start, b.end, b.rows));
            for c in &b.columns {
                out.push(';');
                encode_colstat(c, &mut out);
            }
        }
        out
    }

    /// Decode the compact form. Total: any malformed input is an error, never
    /// a panic — the planner treats errors as "no stats".
    pub fn decode(s: &str) -> Result<ObjectStats> {
        let mut parts = s.split('|');
        let bad = |what: &str| ScoopError::InvalidRequest(format!("stats decode: {what}"));
        if parts.next() != Some("v1") {
            return Err(bad("unknown version"));
        }
        let etag = unesc(parts.next().ok_or_else(|| bad("missing etag"))?)?;
        let has_header = match parts.next() {
            Some("1") => true,
            Some("0") => false,
            _ => return Err(bad("bad header flag")),
        };
        let cols_raw = parts.next().ok_or_else(|| bad("missing columns"))?;
        let columns = cols_raw
            .split(';')
            .filter(|c| !c.is_empty())
            .map(unesc)
            .collect::<Result<Vec<String>>>()?;
        if columns.is_empty() {
            return Err(bad("empty schema"));
        }
        let mut blocks = Vec::new();
        for braw in parts {
            let mut fields = braw.split(';');
            let mut take_kv = |prefix: &str| -> Result<u64> {
                let f = fields.next().ok_or_else(|| bad("truncated block"))?;
                parse_u64(
                    f.strip_prefix(prefix)
                        .ok_or_else(|| bad("bad block field"))?,
                )
            };
            let start = take_kv("s:")?;
            let end = take_kv("e:")?;
            let rows = take_kv("r:")?;
            if end <= start {
                return Err(bad("empty block range"));
            }
            if let Some(prev) = blocks.last() {
                let prev: &BlockStats = prev;
                if prev.end != start {
                    return Err(bad("non-contiguous blocks"));
                }
            }
            let mut cstats = Vec::with_capacity(columns.len());
            for craw in fields {
                cstats.push(decode_colstat(craw)?);
            }
            if cstats.len() != columns.len() {
                return Err(bad("column count mismatch"));
            }
            blocks.push(BlockStats { start, end, rows, columns: cstats });
        }
        Ok(ObjectStats { etag, has_header, columns, blocks })
    }

    /// Split the encoded form into numbered metadata entries
    /// (`<prefix>0`, `<prefix>1`, ...), each at most [`META_CHUNK`] bytes.
    pub fn to_metadata(&self) -> Vec<(String, String)> {
        let encoded = self.encode();
        let bytes = encoded.as_bytes();
        let mut out = Vec::new();
        let mut i = 0;
        let mut n = 0;
        while i < bytes.len() {
            let end = i.saturating_add(META_CHUNK).min(bytes.len());
            // The encoded form is ASCII (escaping covers non-ASCII-safe
            // bytes? no — unescaped UTF-8 may remain); back off to a char
            // boundary so each chunk stays valid UTF-8.
            let mut cut = end;
            while cut > i && !encoded.is_char_boundary(cut) {
                cut = cut.saturating_sub(1);
            }
            if cut == i {
                break;
            }
            out.push((
                format!("{}{n}", crate::headers::SCOOP_STATS_PREFIX),
                encoded.get(i..cut).unwrap_or("").to_string(),
            ));
            i = cut;
            n += 1;
        }
        if out.is_empty() {
            out.push((format!("{}0", crate::headers::SCOOP_STATS_PREFIX), encoded));
        }
        out
    }

    /// Reassemble and decode stats from metadata key/value pairs. Returns
    /// `None` when no stats chunks are present at all; `Err` when chunks
    /// exist but do not decode (the caller falls back to a full scan).
    pub fn from_metadata<'a>(
        meta: impl Iterator<Item = (&'a str, &'a str)>,
    ) -> Result<Option<ObjectStats>> {
        let mut chunks: BTreeMap<u64, &str> = BTreeMap::new();
        for (k, v) in meta {
            if let Some(suffix) = k.strip_prefix(crate::headers::SCOOP_STATS_PREFIX) {
                let n = parse_u64(suffix)?;
                chunks.insert(n, v);
            }
        }
        if chunks.is_empty() {
            return Ok(None);
        }
        // Chunks must be gapless 0..N.
        let mut encoded = String::new();
        for (i, (n, v)) in chunks.iter().enumerate() {
            if *n != i as u64 {
                return Err(ScoopError::InvalidRequest("stats chunk gap".into()));
            }
            encoded.push_str(v);
        }
        Self::decode(&encoded).map(Some)
    }

    /// Total byte length covered by the blocks (== object size when the
    /// index is complete).
    pub fn covered_len(&self) -> u64 {
        self.blocks.last().map(|b| b.end).unwrap_or(0)
    }
}

/// Append one column's stats in the `colstat` form documented above. The
/// columnar footer stores its per-chunk stats in this same form.
pub fn encode_colstat(c: &ColumnStats, out: &mut String) {
    if let Some((lo, hi)) = c.num {
        out.push_str(&format!("n{},{}", fmt_f64(lo), fmt_f64(hi)));
    }
    if let Some(m) = &c.str_min {
        out.push('m');
        out.push_str(&esc(m));
        out.push(',');
    }
    if let Some(m) = &c.str_max {
        out.push('M');
        out.push_str(&esc(m));
        out.push(',');
    }
    if c.has_null {
        out.push('u');
    }
    if c.has_value {
        out.push('x');
    }
    if let Some(bloom) = c.bloom {
        out.push_str(&format!("b{bloom:x}"));
    }
}

/// Decode one `colstat`. Total: malformed input is an error, never a panic.
pub fn decode_colstat(raw: &str) -> Result<ColumnStats> {
    let bad = |what: &str| ScoopError::InvalidRequest(format!("stats colstat: {what}"));
    let mut c = ColumnStats::default();
    let bytes = raw.as_bytes();
    let mut i = 0;
    // Fields are tagged and self-delimiting: numeric/bloom run to the next
    // tag letter boundary; strings run to their `,` terminator.
    while let Some(&tag) = bytes.get(i) {
        let rest = raw.get(i.saturating_add(1)..).unwrap_or("");
        match tag {
            b'n' => {
                let end = rest
                    .find(|ch: char| !(ch.is_ascii_digit() || "+-.,eEinfaN".contains(ch)))
                    .unwrap_or(rest.len());
                let (lo, hi) = rest
                    .get(..end)
                    .unwrap_or("")
                    .split_once(',')
                    .ok_or_else(|| bad("bad numeric range"))?;
                c.num = Some((parse_f64(lo)?, parse_f64(hi)?));
                i = i.saturating_add(1).saturating_add(end);
            }
            b'm' | b'M' => {
                let end = rest.find(',').ok_or_else(|| bad("unterminated string stat"))?;
                let s = unesc(rest.get(..end).unwrap_or(""))?;
                if tag == b'm' {
                    c.str_min = Some(s);
                } else {
                    c.str_max = Some(s);
                }
                i = i.saturating_add(2).saturating_add(end);
            }
            b'u' => {
                c.has_null = true;
                i = i.saturating_add(1);
            }
            b'x' => {
                c.has_value = true;
                i = i.saturating_add(1);
            }
            b'b' => {
                let end = rest
                    .find(|ch: char| !ch.is_ascii_hexdigit())
                    .unwrap_or(rest.len());
                c.bloom = Some(
                    u64::from_str_radix(rest.get(..end).unwrap_or(""), 16)
                        .map_err(|_| bad("bad bloom digest"))?,
                );
                i = i.saturating_add(1).saturating_add(end);
            }
            _ => return Err(bad("unknown tag")),
        }
    }
    Ok(c)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> ObjectStats {
        let mut b = StatsBuilder::new(
            vec!["vid".into(), "index".into(), "city".into()],
            true,
            32,
        );
        b.skip_bytes(15); // header row
        b.record(&["m1", "100.5", "Rotterdam"], 20);
        b.record(&["m2", "", "Paris"], 12);
        b.record(&["m3", "50", "Utrecht"], 14);
        b.record(&["m4", "75", "a|b;c,d%e"], 16);
        b.finish("etag123".into())
    }

    #[test]
    fn builder_blocks_tile_and_count() {
        let s = sample();
        assert_eq!(s.columns.len(), 3);
        assert!(!s.blocks.is_empty());
        assert_eq!(s.blocks[0].start, 0);
        for w in s.blocks.windows(2) {
            assert_eq!(w[0].end, w[1].start, "blocks must tile");
        }
        assert_eq!(s.covered_len(), 15 + 20 + 12 + 14 + 16);
        assert_eq!(s.blocks.iter().map(|b| b.rows).sum::<u64>(), 4);
        // Column 1 saw a NULL and numeric values.
        let col1: Vec<&ColumnStats> = s.blocks.iter().map(|b| &b.columns[1]).collect();
        assert!(col1.iter().any(|c| c.has_null));
        assert!(col1.iter().any(|c| c.num.is_some()));
    }

    #[test]
    fn encode_decode_roundtrip() {
        let s = sample();
        let enc = s.encode();
        assert!(!enc.contains('\t') && !enc.contains('\n'), "sidecar-safe");
        let dec = ObjectStats::decode(&enc).unwrap();
        assert_eq!(dec, s);
    }

    #[test]
    fn metadata_chunking_roundtrip() {
        let mut b = StatsBuilder::new(
            (0..8).map(|i| format!("col{i}")).collect(),
            false,
            16,
        );
        for i in 0..200u64 {
            let v = format!("value-{i}");
            let fields: Vec<&str> = (0..8).map(|_| v.as_str()).collect();
            b.record(&fields, 40);
        }
        let s = b.finish("bigetag".into());
        let meta = s.to_metadata();
        assert!(meta.len() > 1, "large stats must chunk");
        for (_, v) in &meta {
            assert!(v.len() <= META_CHUNK);
        }
        let dec = ObjectStats::from_metadata(
            meta.iter().map(|(k, v)| (k.as_str(), v.as_str())),
        )
        .unwrap()
        .unwrap();
        assert_eq!(dec, s);
        // Chunk order in the map must not matter.
        let mut rev: Vec<(&str, &str)> =
            meta.iter().map(|(k, v)| (k.as_str(), v.as_str())).collect();
        rev.reverse();
        assert_eq!(ObjectStats::from_metadata(rev.into_iter()).unwrap().unwrap(), s);
    }

    #[test]
    fn absent_and_corrupt_metadata() {
        assert!(ObjectStats::from_metadata(std::iter::empty()).unwrap().is_none());
        let garbage = [("x-object-meta-scoop-stats-0", "v9|zzz")];
        assert!(ObjectStats::from_metadata(garbage.iter().copied()).is_err());
        let gap = [
            ("x-object-meta-scoop-stats-0", "v1|e|0|a"),
            ("x-object-meta-scoop-stats-2", "rest"),
        ];
        assert!(ObjectStats::from_metadata(gap.iter().copied()).is_err());
        assert!(ObjectStats::decode("").is_err());
        assert!(ObjectStats::decode("v1|e|0|").is_err(), "empty schema");
        assert!(ObjectStats::decode("v1|e|2|a").is_err(), "bad header flag");
    }

    #[test]
    fn string_stat_truncation_is_one_sided() {
        let mut c = ColumnStats::default();
        let mut d = Vec::new();
        let long = "z".repeat(40);
        c.observe(&long, &mut d);
        c.observe("aa", &mut d);
        c.seal(&mut d);
        // min: truncated prefix (sound lower bound); max: dropped (a prefix
        // would claim values above the true max are impossible), and a later
        // smaller value must not resurrect a bounded max.
        assert_eq!(c.str_min.as_deref(), Some("aa"));
        assert_eq!(c.str_max, None, "overlong max must stay unknown");

        let mut c = ColumnStats::default();
        c.observe("bb", &mut d);
        c.observe("cc", &mut d);
        c.seal(&mut d);
        assert_eq!(c.str_max.as_deref(), Some("cc"));
    }

    #[test]
    fn typed_empty_string_is_a_value() {
        let mut c = ColumnStats::default();
        let mut d = Vec::new();
        c.observe("", &mut d);
        assert!(c.has_null && !c.has_value, "an empty CSV field is NULL");
        c.observe_value("", None, &mut d);
        c.seal(&mut d);
        assert!(c.has_value);
        assert_eq!((c.str_min.as_deref(), c.str_max.as_deref()), (Some(""), Some("")));
        assert_eq!(c.bloom, Some(bloom_mask("")));
        assert!(d.is_empty(), "seal resets the distinct set");
    }

    #[test]
    fn bloom_digest_only_for_low_cardinality() {
        let mut b = StatsBuilder::new(vec!["city".into()], false, u64::MAX);
        for i in 0..100u64 {
            let v = format!("city-{i}");
            b.record(&[v.as_str()], 10);
        }
        let s = b.finish("e".into());
        assert_eq!(s.blocks[0].columns[0].bloom, None, "high cardinality");

        let mut b = StatsBuilder::new(vec!["city".into()], false, u64::MAX);
        for _ in 0..100u64 {
            b.record(&["Rotterdam"], 10);
            b.record(&["Paris"], 6);
        }
        let s = b.finish("e".into());
        let bloom = s.blocks[0].columns[0].bloom.expect("low cardinality digest");
        assert_eq!(bloom & bloom_mask("Rotterdam"), bloom_mask("Rotterdam"));
        assert_eq!(bloom & bloom_mask("Paris"), bloom_mask("Paris"));
    }

    #[test]
    fn numeric_stats_handle_infinities_and_nan() {
        let mut c = ColumnStats::default();
        let mut d = Vec::new();
        c.observe("inf", &mut d);
        c.observe("-inf", &mut d);
        c.observe("NaN", &mut d);
        c.observe("3.5", &mut d);
        let (lo, hi) = c.num.unwrap();
        assert_eq!(lo, f64::NEG_INFINITY);
        assert_eq!(hi, f64::INFINITY);
        // And they survive the codec.
        let s = ObjectStats {
            etag: "e".into(),
            has_header: false,
            columns: vec!["v".into()],
            blocks: vec![BlockStats { start: 0, end: 10, rows: 4, columns: vec![c] }],
        };
        assert_eq!(ObjectStats::decode(&s.encode()).unwrap(), s);
    }
}
