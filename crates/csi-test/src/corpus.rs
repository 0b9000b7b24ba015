//! Real-shaped workload corpus with schema inference (ROADMAP item 2).
//!
//! The 422-input catalogue is hand-built from interface specifications;
//! real CSI failures surface on *messy production traffic* crossing system
//! boundaries. This module closes that gap from two directions:
//!
//! 1. **A seeded synthesizer** ([`synthesize`]) of real-shaped tables:
//!    log-normal per-column value cardinalities, configurable null rates,
//!    unicode / mojibake strings, mixed decimal precisions, wide (64+
//!    column) schemas, and geometrically skewed partition keys — all a
//!    pure function of ([`CorpusShape`], seed), so a corpus-seeded
//!    campaign is as byte-deterministic as every other mode.
//!
//! 2. **A schema-inference front door** ([`infer`]) that turns any
//!    CSV/JSON-lines byte stream into typed campaign inputs via
//!    per-column type voting (boolean / int / decimal / date / timestamp,
//!    with string as the universal fallback). Inference canonicalizes:
//!    [`InferredTable::render_csv`] emits a canonical CSV whose
//!    re-inference is a fixed point — `render → infer → render` is
//!    byte-stable, pinned by `tests/corpus.rs`.
//!
//! [`synthesize_inputs`] flattens a synthesized table into [`TestInput`]s
//! (one representative per column, plus deliberate representability edges
//! every few columns), which is what `InputSelection::Corpus` resolves to:
//! the catalogue stays, corpus inputs are appended with fresh ids, and
//! `Campaign::explore` schedules the corpus region first so the mutation
//! engine works realistic inputs from round one.

use crate::generator::{TestInput, Validity};
use csi_core::rng::xorshift64;
use csi_core::value::{
    format_date, format_timestamp, parse_date, parse_timestamp, DataType, Decimal, StructField,
    Value,
};
use serde::{Content, Deserialize, Serialize};
use std::fmt;

/// Upper bound on [`CorpusShape::columns`]: a wire spec asking for more is
/// a resource bomb, not a table.
pub const MAX_COLUMNS: usize = 4096;

/// Upper bound on [`CorpusShape::rows`].
pub const MAX_ROWS: usize = 65_536;

/// The shape of a synthesized corpus table. Serializable (it travels
/// inside `CampaignSpec` via `InputSelection::Corpus`), integer-only so
/// the wire round trip is trivially lossless.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct CorpusShape {
    /// Columns in the table (1..=[`MAX_COLUMNS`]); 64+ makes a wide schema.
    pub columns: usize,
    /// Rows per column (1..=[`MAX_ROWS`]).
    pub rows: usize,
    /// Percentage of cells that are NULL (0..=100).
    pub null_rate_pct: u8,
    /// Location (mu × 100, in ln-space) of the log-normal distribution the
    /// per-column value cardinalities are drawn from.
    pub cardinality_mu_x100: u32,
    /// Spread (sigma × 100, in ln-space) of the cardinality distribution.
    pub cardinality_sigma_x100: u32,
    /// Emit unicode / mixed-encoding (mojibake) strings.
    pub unicode: bool,
    /// Pool of (precision, scale) pairs the table's DECIMAL columns cycle
    /// through — mixed precisions are the point.
    pub decimal_precisions: Vec<(u8, u8)>,
    /// Distinct partition keys for column 0; `0` disables the partition
    /// column. Keys are drawn geometrically (key k is ~2× rarer than
    /// key k-1), the classic skewed-partition shape.
    pub partition_keys: usize,
    /// Every n-th column also emits a deliberately *invalid* edge input
    /// (excess decimal scale, overlong CHAR/VARCHAR, unparseable text);
    /// `0` emits valid representatives only.
    pub invalid_every: usize,
}

impl Default for CorpusShape {
    /// A modest messy table: 12 columns, 48 rows, 10% nulls, unicode
    /// strings, four decimal precisions the catalogue never declares,
    /// 8 skewed partition keys, an invalid edge every 3rd column.
    fn default() -> CorpusShape {
        CorpusShape {
            columns: 12,
            rows: 48,
            null_rate_pct: 10,
            cardinality_mu_x100: 250,
            cardinality_sigma_x100: 120,
            unicode: true,
            decimal_precisions: vec![(24, 6), (12, 4), (38, 18), (7, 3)],
            partition_keys: 8,
            invalid_every: 3,
        }
    }
}

impl CorpusShape {
    /// The wide-schema preset: 64 columns (the ROADMAP's "wide (64+
    /// column) schemas"), shorter rows to keep campaigns cheap.
    pub fn wide() -> CorpusShape {
        CorpusShape {
            columns: 64,
            rows: 24,
            ..CorpusShape::default()
        }
    }

    /// Validates the shape, returning a human-readable reason when a
    /// (typically wire-revived) shape cannot synthesize a table.
    pub fn validate(&self) -> Result<(), String> {
        if self.columns == 0 || self.columns > MAX_COLUMNS {
            return Err(format!(
                "corpus columns {} outside 1..={MAX_COLUMNS}",
                self.columns
            ));
        }
        if self.rows == 0 || self.rows > MAX_ROWS {
            return Err(format!("corpus rows {} outside 1..={MAX_ROWS}", self.rows));
        }
        if self.null_rate_pct > 100 {
            return Err(format!("null rate {}% exceeds 100%", self.null_rate_pct));
        }
        if self.decimal_precisions.is_empty() {
            return Err("decimal precision pool is empty".into());
        }
        for &(p, s) in &self.decimal_precisions {
            if p == 0 || p > Decimal::MAX_PRECISION || s > p {
                return Err(format!("invalid decimal precision ({p},{s})"));
            }
        }
        Ok(())
    }
}

/// A synthesized typed table: declared fields plus column-major cells.
#[derive(Debug, Clone, PartialEq)]
pub struct CorpusTable {
    /// Declared schema (names and types, including CHAR/VARCHAR widths and
    /// mixed decimal precisions inference alone could never declare).
    pub fields: Vec<StructField>,
    /// Column-major cells; `cells[c].len() == rows` for every column.
    pub cells: Vec<Vec<Value>>,
}

// --------------------------------------------------------------------------
// Deterministic randomness: `xorshift64`, as in the bulk generator, with
// per-column streams derived from the column index so column order is
// stable under shape edits that leave earlier columns alone.

fn column_seed(seed: u64, col: usize) -> u64 {
    let mut s = seed ^ 0x9e37_79b9_7f4a_7c15;
    s = s.wrapping_mul(0x0100_0000_01b3) ^ (col as u64).wrapping_add(1);
    s = s.wrapping_mul(0x0100_0000_01b3) ^ 0xc0_47;
    // xorshift must never see a zero state.
    if s == 0 {
        0x9e37_79b9_7f4a_7c15
    } else {
        s
    }
}

/// A deterministic approximately-normal draw (Irwin–Hall over four
/// uniforms), used to place each column's cardinality on the log-normal.
fn approx_normal(state: &mut u64) -> f64 {
    let mut sum = 0.0;
    for _ in 0..4 {
        sum += (xorshift64(state) >> 11) as f64 / (1u64 << 53) as f64;
    }
    // Sum of 4 U(0,1): mean 2, variance 1/3. Normalize to mean 0, sd 1.
    (sum - 2.0) / (1.0f64 / 3.0).sqrt()
}

fn lognormal_cardinality(shape: &CorpusShape, state: &mut u64) -> usize {
    let mu = shape.cardinality_mu_x100 as f64 / 100.0;
    let sigma = shape.cardinality_sigma_x100 as f64 / 100.0;
    let card = (mu + sigma * approx_normal(state)).exp();
    (card as usize).clamp(1, shape.rows)
}

/// Geometric (heavily skewed) index into `n` partition keys: key 0 is the
/// hot key, each successive key roughly half as likely.
fn skewed_index(r: u64, n: usize) -> usize {
    let mut j = 0;
    let mut bits = r;
    while j + 1 < n && bits & 1 == 1 {
        j += 1;
        bits >>= 1;
    }
    j
}

// --------------------------------------------------------------------------
// The synthesizer.

/// The declared type of column `col` under `shape`: column 0 is the skewed
/// partition key (when enabled), the rest cycle through a fixed pool with
/// the shape's decimal precisions spliced in.
fn column_type(shape: &CorpusShape, col: usize, state: &mut u64) -> DataType {
    if col == 0 && shape.partition_keys > 0 {
        return DataType::String;
    }
    let decimals = &shape.decimal_precisions;
    match col % 10 {
        0 => DataType::Int,
        1 => {
            let (p, s) = decimals[col / 10 % decimals.len()];
            DataType::Decimal(p, s)
        }
        2 => DataType::String,
        3 => DataType::Long,
        4 => DataType::Varchar([9, 17, 33, 63][(xorshift64(state) % 4) as usize]),
        5 => DataType::Date,
        6 => {
            let (p, s) = decimals[(col / 10 + 1) % decimals.len()];
            DataType::Decimal(p, s)
        }
        7 => DataType::Char([2, 5, 7][(xorshift64(state) % 3) as usize]),
        8 => DataType::Timestamp,
        _ => DataType::Boolean,
    }
}

/// One distinct dictionary value for slot `j` of a column of type `ty`.
fn dictionary_value(ty: &DataType, j: usize, base: u64, unicode: bool) -> Value {
    match ty {
        DataType::Int => Value::Int((base as i32).wrapping_add(j as i32 * 9973) / 2),
        DataType::Long => Value::Long((base as i64).wrapping_add(j as i64 * 99_991) / 2),
        DataType::Boolean => Value::Boolean(j.is_multiple_of(2)),
        DataType::Decimal(p, s) => {
            // At most p digits at exactly the declared scale; `j`-striped
            // so dictionary entries are distinct.
            let digits = 10i128.pow((*p).min(27) as u32 - 1);
            let unscaled = ((base as i128 + j as i128 * 1_000_003) % digits) - digits / 2;
            Value::Decimal(Decimal::new(unscaled, *p, *s).expect("corpus decimal within bounds"))
        }
        DataType::String => {
            if unicode {
                // Rotate through ASCII, accented, CJK, emoji, mojibake
                // (UTF-8 read as Latin-1 and re-encoded: "Ã©"), and
                // CSV-hostile strings with commas and quotes.
                match j % 6 {
                    0 => Value::Str(format!("plain-{j}-{base:08x}")),
                    1 => Value::Str(format!("caf\u{00e9}-{j}")),
                    2 => Value::Str(format!("\u{4e16}\u{754c}-{j}")),
                    3 => Value::Str(format!("id-{j}-\u{1f4c8}")),
                    4 => Value::Str(format!("mojibake-\u{00c3}\u{00a9}-{j}")),
                    _ => Value::Str(format!("a,b \"q\" {j}")),
                }
            } else {
                Value::Str(format!("v{j}-{base:08x}"))
            }
        }
        DataType::Varchar(w) => {
            let body = format!("w{j}x{base:x}");
            let mut s: String = body.chars().take(*w as usize).collect();
            if s.is_empty() {
                s.push('x');
            }
            Value::Str(s)
        }
        DataType::Char(w) => {
            // Exactly `w` characters: CHAR round trips are padding-free.
            let body = format!("c{j}{base:x}zzzzzzzzzz");
            Value::Str(body.chars().take(*w as usize).collect())
        }
        // 1970..~2098: inside both engines' ranges, past every ORC/Julian
        // cutover, so corpus dates never re-trip the catalogue's D06/D07.
        DataType::Date => Value::Date(((base.wrapping_add(j as u64 * 37)) % 47_000) as i32),
        DataType::Timestamp => Value::Timestamp(
            ((base.wrapping_add(j as u64 * 1_048_573)) % 4_000_000_000_000_000) as i64,
        ),
        other => panic!("corpus dictionary_value: unsupported type {other:?}"),
    }
}

/// Synthesizes a real-shaped table: a pure function of (shape, seed).
pub fn synthesize(shape: &CorpusShape, seed: u64) -> CorpusTable {
    shape
        .validate()
        .unwrap_or_else(|e| panic!("invalid corpus shape: {e}"));
    let mut fields = Vec::with_capacity(shape.columns);
    let mut cells = Vec::with_capacity(shape.columns);
    for col in 0..shape.columns {
        let mut state = column_seed(seed, col);
        let ty = column_type(shape, col, &mut state);
        let name = if col == 0 && shape.partition_keys > 0 {
            "pk".to_string()
        } else {
            format!("c{col}")
        };
        let card = lognormal_cardinality(shape, &mut state);
        let base = xorshift64(&mut state);
        let partitioned = col == 0 && shape.partition_keys > 0;
        let dict: Vec<Value> = if partitioned {
            (0..shape.partition_keys)
                .map(|j| Value::Str(format!("part-{j:03}")))
                .collect()
        } else {
            let card = if ty == DataType::Boolean {
                card.min(2)
            } else {
                card
            };
            (0..card)
                .map(|j| dictionary_value(&ty, j, base, shape.unicode))
                .collect()
        };
        let mut column = Vec::with_capacity(shape.rows);
        for _ in 0..shape.rows {
            let r = xorshift64(&mut state);
            if (r % 100) < shape.null_rate_pct as u64 {
                column.push(Value::Null);
                continue;
            }
            let idx = if partitioned {
                skewed_index(r >> 8, dict.len())
            } else {
                (r >> 8) as usize % dict.len()
            };
            column.push(dict[idx].clone());
        }
        fields.push(StructField::new(name, ty));
        cells.push(column);
    }
    CorpusTable { fields, cells }
}

impl CorpusTable {
    /// Renders the typed table as canonical CSV (header + rows). String
    /// cells are always quoted; other cells render in their canonical
    /// text form. Feeding these bytes to [`infer`] recovers the table's
    /// *inferable* shape (CHAR/VARCHAR collapse to STRING, declared
    /// decimal precision narrows to the observed digits — exactly the
    /// information a schemaless stream loses).
    pub fn render_csv(&self) -> Vec<u8> {
        let names: Vec<&str> = self.fields.iter().map(|f| f.name.as_str()).collect();
        let rows = self.cells.first().map_or(0, Vec::len);
        render_rows(&names, rows, |row, col| render_cell(&self.cells[col][row]))
    }
}

/// The deliberate representability edge emitted for column `col` (every
/// [`CorpusShape::invalid_every`]-th column): a value the declared type
/// documents as unrepresentable, so the error-handling oracle has corpus
/// traffic too.
fn invalid_edge(ty: &DataType) -> Option<(Value, &'static str)> {
    Some(match ty {
        DataType::Decimal(_, s) => (
            Value::Decimal(
                Decimal::parse(&format!("1.{}", "1".repeat(*s as usize + 1)))
                    .expect("static excess-scale decimal"),
            ),
            "excess-scale",
        ),
        DataType::Varchar(w) => (Value::Str("v".repeat(*w as usize + 1)), "overlong"),
        DataType::Char(w) => (Value::Str("c".repeat(*w as usize + 1)), "overlong"),
        DataType::Int | DataType::Long => (Value::Str(" 41 ".into()), "padded-numeral"),
        DataType::Date => (Value::Str("2026-13-40".into()), "unparseable-date"),
        DataType::Timestamp => (Value::Str("not a time".into()), "unparseable-timestamp"),
        DataType::Boolean => (Value::Str("yes".into()), "hive-lenient-boolean"),
        _ => return None,
    })
}

/// Flattens a synthesized table into typed campaign inputs with ids from
/// `first_id`: one valid representative per column (its first non-null
/// cell), plus a deliberate invalid edge for every
/// [`CorpusShape::invalid_every`]-th column that has one.
pub fn synthesize_inputs(shape: &CorpusShape, seed: u64, first_id: usize) -> Vec<TestInput> {
    let table = synthesize(shape, seed);
    let mut out = Vec::new();
    let mut id = first_id;
    let mut push = |ty: DataType, value: Value, validity: Validity, label: String| {
        out.push(TestInput {
            id,
            column_type: ty,
            value,
            validity,
            label,
            expected_back: None,
        });
        id += 1;
    };
    for (col, field) in table.fields.iter().enumerate() {
        let ty = &field.data_type;
        let rep = table.cells[col]
            .iter()
            .find(|v| !matches!(v, Value::Null))
            .cloned()
            .unwrap_or(Value::Null);
        push(
            ty.clone(),
            rep,
            Validity::Valid,
            format!("corpus {} {} rep", field.name, ty.sql_name()),
        );
        if shape.invalid_every > 0 && col % shape.invalid_every == 1 {
            if let Some((value, edge)) = invalid_edge(ty) {
                push(
                    ty.clone(),
                    value,
                    Validity::Invalid,
                    format!("corpus {} {} {edge}", field.name, ty.sql_name()),
                );
            }
        }
    }
    out
}

// --------------------------------------------------------------------------
// Schema inference.

/// Why a byte stream could not be inferred.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum InferError {
    /// The stream holds no rows at all (it may still hold a BOM or
    /// whitespace).
    Empty,
}

impl fmt::Display for InferError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            InferError::Empty => write!(f, "input stream holds no rows"),
        }
    }
}

impl std::error::Error for InferError {}

/// One inferred column: a name, the voted type, and the materialized cells.
#[derive(Debug, Clone, PartialEq)]
pub struct InferredColumn {
    /// Column name (header cell, JSON key, or generated `c{N}`).
    pub name: String,
    /// The type the per-cell votes agreed on.
    pub data_type: DataType,
    /// Cells parsed into the voted type (`Value::Null` for empties and
    /// rag-padded slots).
    pub cells: Vec<Value>,
}

/// A typed table inferred from a byte stream.
#[derive(Debug, Clone, PartialEq)]
pub struct InferredTable {
    /// Columns in stream order.
    pub columns: Vec<InferredColumn>,
}

/// One raw cell: unescaped text plus whether it arrived quoted (a quoted
/// cell votes string unconditionally — the canonical renderer quotes every
/// string, which is what makes re-inference a fixed point).
#[derive(Debug, Clone)]
struct RawCell {
    text: String,
    quoted: bool,
}

impl RawCell {
    fn bare(text: impl Into<String>) -> RawCell {
        RawCell {
            text: text.into(),
            quoted: false,
        }
    }

    fn is_null(&self) -> bool {
        !self.quoted && self.text.is_empty()
    }
}

/// Strips a UTF-8 BOM and lossily decodes the stream (malformed UTF-8
/// becomes U+FFFD replacement characters and infers as string data).
fn decode(bytes: &[u8]) -> String {
    let bytes = bytes.strip_prefix(b"\xef\xbb\xbf").unwrap_or(bytes);
    String::from_utf8_lossy(bytes).into_owned()
}

/// Splits one CSV line into cells, honoring double-quoted cells with `""`
/// escapes.
fn split_csv_line(line: &str) -> Vec<RawCell> {
    let mut cells = Vec::new();
    let mut text = String::new();
    let mut quoted = false;
    let mut in_quotes = false;
    let mut chars = line.chars().peekable();
    while let Some(c) = chars.next() {
        if in_quotes {
            if c == '"' {
                if chars.peek() == Some(&'"') {
                    chars.next();
                    text.push('"');
                } else {
                    in_quotes = false;
                }
            } else {
                text.push(c);
            }
        } else {
            match c {
                '"' if text.is_empty() => {
                    in_quotes = true;
                    quoted = true;
                }
                ',' => {
                    cells.push(RawCell { text, quoted });
                    text = String::new();
                    quoted = false;
                }
                _ => text.push(c),
            }
        }
    }
    cells.push(RawCell { text, quoted });
    cells
}

/// A raw JSON value, deserialized through the vendored serde's [`Content`]
/// data model (this workspace's serde has no `Value` type).
struct RawJson(Content);

impl Deserialize for RawJson {
    fn from_content(c: &Content) -> Result<RawJson, String> {
        Ok(RawJson(c.clone()))
    }
}

fn json_cell(content: &Content) -> RawCell {
    match content {
        Content::Null => RawCell::bare(""),
        Content::Bool(b) => RawCell::bare(if *b { "true" } else { "false" }),
        Content::Int(i) => RawCell::bare(i.to_string()),
        Content::Float(x) => RawCell::bare(format!("{x}")),
        Content::Str(s) => RawCell {
            text: s.clone(),
            quoted: true,
        },
        // Nested structures flatten to their JSON text, as string data.
        nested => RawCell {
            text: serde_json::to_string(&RawJsonSer(nested.clone())).unwrap_or_default(),
            quoted: true,
        },
    }
}

struct RawJsonSer(Content);

impl Serialize for RawJsonSer {
    fn to_content(&self) -> Content {
        self.0.clone()
    }
}

/// Parses the stream into (names, row-major cells): JSON-lines when the
/// first non-empty line starts with `{`, CSV (first row = header)
/// otherwise. Ragged CSV rows are padded with nulls to the widest row;
/// JSON objects contribute columns in first-seen key order.
fn parse_rows(text: &str) -> (Vec<String>, Vec<Vec<RawCell>>) {
    let lines: Vec<&str> = text
        .lines()
        .map(|l| l.strip_suffix('\r').unwrap_or(l))
        .filter(|l| !l.trim().is_empty())
        .collect();
    if lines.is_empty() {
        return (Vec::new(), Vec::new());
    }
    if lines
        .first()
        .is_some_and(|l| l.trim_start().starts_with('{'))
    {
        let mut names: Vec<String> = Vec::new();
        let mut objects: Vec<Vec<(String, RawCell)>> = Vec::new();
        for line in &lines {
            let Ok(RawJson(Content::Map(entries))) = serde_json::from_str::<RawJson>(line) else {
                // A malformed JSON line degrades to one string cell in a
                // catch-all column, rather than poisoning the stream.
                objects.push(vec![(
                    "raw".to_string(),
                    RawCell {
                        text: (*line).to_string(),
                        quoted: true,
                    },
                )]);
                if !names.iter().any(|n| n == "raw") {
                    names.push("raw".to_string());
                }
                continue;
            };
            let mut row = Vec::new();
            for (k, v) in &entries {
                let key = match k {
                    Content::Str(s) => s.clone(),
                    other => format!("{other:?}"),
                };
                if !names.contains(&key) {
                    names.push(key.clone());
                }
                row.push((key, json_cell(v)));
            }
            objects.push(row);
        }
        let rows = objects
            .into_iter()
            .map(|obj| {
                names
                    .iter()
                    .map(|name| {
                        obj.iter()
                            .find(|(k, _)| k == name)
                            .map(|(_, c)| c.clone())
                            .unwrap_or_else(|| RawCell::bare(""))
                    })
                    .collect()
            })
            .collect();
        (names, rows)
    } else {
        let mut parsed: Vec<Vec<RawCell>> = lines.iter().map(|l| split_csv_line(l)).collect();
        let header = parsed.remove(0);
        let width = parsed
            .iter()
            .map(Vec::len)
            .chain([header.len()])
            .max()
            .unwrap_or(0);
        let mut names: Vec<String> = header.into_iter().map(|c| c.text).collect();
        for i in names.len()..width {
            names.push(format!("c{i}"));
        }
        for row in &mut parsed {
            while row.len() < width {
                row.push(RawCell::bare(""));
            }
        }
        (names, parsed)
    }
}

/// What one bare (unquoted) cell could be.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum CellClass {
    Bool,
    /// Integer with its digit count; `fits_i32` narrows the column type.
    Int {
        fits_i32: bool,
        digits: u8,
    },
    /// Decimal with integral digit and scale counts.
    Dec {
        int_digits: u8,
        scale: u8,
    },
    Date,
    Timestamp,
    Text,
}

fn classify_cell(text: &str) -> CellClass {
    if text == "true" || text == "false" {
        return CellClass::Bool;
    }
    let body = text.strip_prefix('-').unwrap_or(text);
    if !body.is_empty() && body.bytes().all(|b| b.is_ascii_digit()) {
        // Integer — but one that overflows i64 falls back to string (the
        // documented numeric-overflow fallback; DECIMAL(38,0) could hold
        // it, yet silently promoting 25-digit "integers" hides overflow
        // bugs the campaign exists to find).
        return match text.parse::<i64>() {
            Ok(v) => CellClass::Int {
                fits_i32: i32::try_from(v).is_ok(),
                digits: body.len() as u8,
            },
            Err(_) => CellClass::Text,
        };
    }
    if let Some((int_part, frac_part)) = body.split_once('.') {
        let digits_ok = |s: &str| s.bytes().all(|b| b.is_ascii_digit());
        if (!int_part.is_empty() || !frac_part.is_empty())
            && digits_ok(int_part)
            && digits_ok(frac_part)
            && !frac_part.is_empty()
        {
            let int_digits = int_part.trim_start_matches('0').len().max(1) as u8;
            let scale = frac_part.len() as u8;
            if int_digits as u32 + scale as u32 <= Decimal::MAX_PRECISION as u32 {
                return CellClass::Dec { int_digits, scale };
            }
            return CellClass::Text; // precision overflow → string fallback
        }
    }
    if parse_date(text).is_some() {
        return CellClass::Date;
    }
    if parse_timestamp(text).is_some() {
        return CellClass::Timestamp;
    }
    CellClass::Text
}

/// Per-column vote accumulator: a class survives only if *every* non-null
/// cell is compatible with it; string is compatible with everything.
#[derive(Debug, Clone)]
struct Vote {
    non_null: usize,
    bool_ok: bool,
    int_ok: bool,
    dec_ok: bool,
    date_ok: bool,
    ts_ok: bool,
    fits_i32: bool,
    saw_dec: bool,
    max_int_digits: u8,
    max_scale: u8,
}

impl Vote {
    fn new() -> Vote {
        Vote {
            non_null: 0,
            bool_ok: true,
            int_ok: true,
            dec_ok: true,
            date_ok: true,
            ts_ok: true,
            fits_i32: true,
            saw_dec: false,
            max_int_digits: 0,
            max_scale: 0,
        }
    }

    fn absorb(&mut self, cell: &RawCell) {
        if cell.is_null() {
            return;
        }
        self.non_null += 1;
        let class = if cell.quoted {
            CellClass::Text
        } else {
            classify_cell(&cell.text)
        };
        match class {
            CellClass::Bool => {
                self.int_ok = false;
                self.dec_ok = false;
                self.date_ok = false;
                self.ts_ok = false;
            }
            CellClass::Int { fits_i32, digits } => {
                self.bool_ok = false;
                self.date_ok = false;
                self.ts_ok = false;
                self.fits_i32 &= fits_i32;
                self.max_int_digits = self.max_int_digits.max(digits);
            }
            CellClass::Dec { int_digits, scale } => {
                self.bool_ok = false;
                self.int_ok = false;
                self.date_ok = false;
                self.ts_ok = false;
                self.saw_dec = true;
                self.max_int_digits = self.max_int_digits.max(int_digits);
                self.max_scale = self.max_scale.max(scale);
            }
            CellClass::Date => {
                self.bool_ok = false;
                self.int_ok = false;
                self.dec_ok = false;
                self.ts_ok = false;
            }
            CellClass::Timestamp => {
                self.bool_ok = false;
                self.int_ok = false;
                self.dec_ok = false;
                self.date_ok = false;
            }
            CellClass::Text => {
                self.bool_ok = false;
                self.int_ok = false;
                self.dec_ok = false;
                self.date_ok = false;
                self.ts_ok = false;
            }
        }
    }

    /// The column type the surviving votes elect.
    fn elect(&self) -> DataType {
        if self.non_null == 0 {
            // An all-null column carries no type evidence; string is the
            // universal fallback.
            return DataType::String;
        }
        if self.bool_ok {
            return DataType::Boolean;
        }
        if self.date_ok {
            return DataType::Date;
        }
        if self.ts_ok {
            return DataType::Timestamp;
        }
        if self.dec_ok && self.saw_dec {
            let precision = self.max_int_digits as u32 + self.max_scale as u32;
            if precision >= 1 && precision <= Decimal::MAX_PRECISION as u32 {
                return DataType::Decimal(precision as u8, self.max_scale);
            }
            return DataType::String; // mixed cells overflow DECIMAL(38)
        }
        if self.int_ok {
            return if self.fits_i32 {
                DataType::Int
            } else {
                DataType::Long
            };
        }
        DataType::String
    }
}

/// Materializes one raw cell into the elected column type.
fn materialize(cell: &RawCell, ty: &DataType) -> Value {
    if cell.is_null() {
        return Value::Null;
    }
    let text = cell.text.as_str();
    match ty {
        DataType::Boolean => Value::Boolean(text == "true"),
        DataType::Int => Value::Int(text.parse().expect("voted int cell parses")),
        DataType::Long => Value::Long(text.parse().expect("voted long cell parses")),
        DataType::Decimal(p, s) => {
            let d = Decimal::parse(text).expect("voted decimal cell parses");
            Value::Decimal(d.rescale(*p, *s).expect("voted decimal rescales"))
        }
        DataType::Date => Value::Date(parse_date(text).expect("voted date cell parses")),
        DataType::Timestamp => {
            Value::Timestamp(parse_timestamp(text).expect("voted timestamp cell parses"))
        }
        _ => Value::Str(text.to_string()),
    }
}

/// Infers a typed table from a CSV or JSON-lines byte stream.
///
/// The front door of the corpus subsystem: UTF-8 BOMs are stripped,
/// malformed UTF-8 is lossily replaced, ragged rows are null-padded, and
/// each column's type is elected by per-cell voting (boolean / int /
/// decimal / date / timestamp, string fallback — quoted cells always vote
/// string, integers overflowing `i64` and decimals overflowing
/// `DECIMAL(38)` fall back to string). An empty stream is
/// [`InferError::Empty`].
pub fn infer(bytes: &[u8]) -> Result<InferredTable, InferError> {
    let text = decode(bytes);
    let (names, rows) = parse_rows(&text);
    if names.is_empty() {
        return Err(InferError::Empty);
    }
    let mut votes = vec![Vote::new(); names.len()];
    for row in &rows {
        for (c, cell) in row.iter().enumerate() {
            votes[c].absorb(cell);
        }
    }
    let columns = names
        .into_iter()
        .enumerate()
        .map(|(c, name)| {
            let data_type = votes[c].elect();
            let cells = rows
                .iter()
                .map(|row| materialize(&row[c], &data_type))
                .collect();
            InferredColumn {
                name,
                data_type,
                cells,
            }
        })
        .collect();
    Ok(InferredTable { columns })
}

/// Renders one canonical CSV cell for a value.
fn render_cell(value: &Value) -> String {
    match value {
        Value::Null => String::new(),
        Value::Boolean(b) => if *b { "true" } else { "false" }.to_string(),
        Value::Int(v) => v.to_string(),
        Value::Long(v) => v.to_string(),
        Value::Double(v) => format!("{v}"),
        Value::Decimal(d) => d.to_string(),
        Value::Date(d) => format_date(*d),
        Value::Timestamp(us) => format_timestamp(*us),
        Value::Str(s) => quote_csv(s),
        other => quote_csv(&format!("{other:?}")),
    }
}

fn quote_csv(s: &str) -> String {
    format!("\"{}\"", s.replace('"', "\"\""))
}

fn render_rows(names: &[&str], rows: usize, cell: impl Fn(usize, usize) -> String) -> Vec<u8> {
    let mut out = String::new();
    let header: Vec<String> = names
        .iter()
        .map(|n| {
            if n.contains(',') || n.contains('"') || n.contains('\n') || n.contains('\r') {
                quote_csv(n)
            } else {
                (*n).to_string()
            }
        })
        .collect();
    out.push_str(&header.join(","));
    out.push('\n');
    for row in 0..rows {
        let line: Vec<String> = (0..names.len()).map(|col| cell(row, col)).collect();
        out.push_str(&line.join(","));
        out.push('\n');
    }
    out.into_bytes()
}

impl InferredTable {
    /// Renders the canonical CSV of this table. The round-trip guarantee:
    /// for any inferred table `t`, `infer(&t.render_csv())` re-elects the
    /// same types and values, and its `render_csv()` is byte-identical —
    /// `render → infer → render` is a fixed point.
    pub fn render_csv(&self) -> Vec<u8> {
        let names: Vec<&str> = self.columns.iter().map(|c| c.name.as_str()).collect();
        let rows = self.columns.first().map_or(0, |c| c.cells.len());
        render_rows(&names, rows, |row, col| {
            render_cell(&self.columns[col].cells[row])
        })
    }

    /// Flattens the inferred table into typed campaign inputs with ids
    /// from `first_id`: one input per column, carrying its first non-null
    /// cell (all-null columns carry `Value::Null`). Inference only elects
    /// types its cells are representable in, so every input is `Valid`.
    pub fn inputs(&self, first_id: usize) -> Vec<TestInput> {
        self.columns
            .iter()
            .enumerate()
            .map(|(i, col)| {
                let value = col
                    .cells
                    .iter()
                    .find(|v| !matches!(v, Value::Null))
                    .cloned()
                    .unwrap_or(Value::Null);
                TestInput {
                    id: first_id + i,
                    column_type: col.data_type.clone(),
                    value,
                    validity: Validity::Valid,
                    label: format!("inferred {} {}", col.name, col.data_type.sql_name()),
                    expected_back: None,
                }
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn synthesis_is_a_pure_function_of_shape_and_seed() {
        let shape = CorpusShape::default();
        let a = synthesize(&shape, 7);
        let b = synthesize(&shape, 7);
        assert_eq!(a, b);
        let c = synthesize(&shape, 8);
        assert_ne!(a, c, "seed must perturb the table");
        assert_eq!(a.fields.len(), shape.columns);
        assert!(a.cells.iter().all(|col| col.len() == shape.rows));
    }

    #[test]
    fn wide_shape_is_wide_and_mixes_decimal_precisions() {
        let shape = CorpusShape::wide();
        assert!(shape.columns >= 64);
        let table = synthesize(&shape, 42);
        let precisions: std::collections::BTreeSet<(u8, u8)> = table
            .fields
            .iter()
            .filter_map(|f| match f.data_type {
                DataType::Decimal(p, s) => Some((p, s)),
                _ => None,
            })
            .collect();
        assert!(
            precisions.len() >= 2,
            "expected mixed decimal precisions, got {precisions:?}"
        );
        // None of them collide with the catalogue's declared decimals.
        for d in [(10, 2), (38, 10), (5, 0)] {
            assert!(
                !precisions.contains(&d),
                "{d:?} collides with the catalogue"
            );
        }
    }

    #[test]
    fn partition_keys_are_skewed_toward_the_hot_key() {
        let shape = CorpusShape {
            rows: 512,
            partition_keys: 8,
            null_rate_pct: 0,
            ..CorpusShape::default()
        };
        let table = synthesize(&shape, 3);
        let hot = table.cells[0]
            .iter()
            .filter(|v| matches!(v, Value::Str(s) if s == "part-000"))
            .count();
        let cold = table.cells[0]
            .iter()
            .filter(|v| matches!(v, Value::Str(s) if s == "part-007"))
            .count();
        assert!(
            hot > 4 * cold.max(1),
            "hot key {hot} not skewed over cold {cold}"
        );
    }

    #[test]
    fn null_rate_is_respected_approximately() {
        let shape = CorpusShape {
            rows: 1000,
            null_rate_pct: 30,
            ..CorpusShape::default()
        };
        let table = synthesize(&shape, 11);
        let nulls: usize = table.cells[2]
            .iter()
            .filter(|v| matches!(v, Value::Null))
            .count();
        assert!(
            (200..=400).contains(&nulls),
            "expected ~300 nulls of 1000, got {nulls}"
        );
    }

    #[test]
    fn synthesized_inputs_are_deterministic_and_cover_both_validities() {
        let shape = CorpusShape::default();
        let a = synthesize_inputs(&shape, 9, 1000);
        let b = synthesize_inputs(&shape, 9, 1000);
        assert_eq!(a, b);
        assert_eq!(a.first().map(|i| i.id), Some(1000));
        assert!(a.windows(2).all(|w| w[1].id == w[0].id + 1));
        assert!(a.iter().any(|i| i.validity == Validity::Valid));
        assert!(a.iter().any(|i| i.validity == Validity::Invalid));
    }

    #[test]
    fn csv_voting_elects_int_decimal_timestamp_and_string() {
        let csv = b"i,d,ts,s\n1,1.50,2020-05-01 10:00:00,\"x\"\n2,2.25,2021-06-02 11:30:00,\"7\"\n";
        let t = infer(csv).expect("infers");
        let types: Vec<DataType> = t.columns.iter().map(|c| c.data_type.clone()).collect();
        assert_eq!(
            types,
            vec![
                DataType::Int,
                DataType::Decimal(3, 2),
                DataType::Timestamp,
                DataType::String, // quoted "7" stays a string
            ]
        );
    }

    #[test]
    fn mixed_incompatible_cells_fall_back_to_string() {
        let t = infer(b"a\n1\n2020-01-01\n").expect("infers");
        assert_eq!(t.columns[0].data_type, DataType::String);
    }

    #[test]
    fn i32_boundary_splits_int_from_long() {
        let t = infer(b"a,b\n2147483647,2147483648\n1,1\n").expect("infers");
        assert_eq!(t.columns[0].data_type, DataType::Int);
        assert_eq!(t.columns[1].data_type, DataType::Long);
    }

    #[test]
    fn json_lines_infer_with_first_seen_key_order() {
        let stream = br#"{"id": 1, "name": "a"}
{"id": 2, "name": "b", "extra": 3.5}
"#;
        let t = infer(stream).expect("infers");
        let names: Vec<&str> = t.columns.iter().map(|c| c.name.as_str()).collect();
        assert_eq!(names, vec!["id", "name", "extra"]);
        assert_eq!(t.columns[0].data_type, DataType::Int);
        assert_eq!(t.columns[1].data_type, DataType::String);
        assert_eq!(t.columns[2].data_type, DataType::Decimal(2, 1));
        // The missing first-line "extra" slot padded to null.
        assert_eq!(t.columns[2].cells[0], Value::Null);
    }

    #[test]
    fn render_infer_render_is_byte_stable_for_synthesized_tables() {
        for seed in [1u64, 42, 999] {
            for shape in [CorpusShape::default(), CorpusShape::wide()] {
                let bytes = synthesize(&shape, seed).render_csv();
                let once = infer(&bytes).expect("infers").render_csv();
                let twice = infer(&once).expect("re-infers").render_csv();
                assert_eq!(
                    once, twice,
                    "render->infer->render not a fixed point (seed {seed})"
                );
            }
        }
    }

    #[test]
    fn inferred_inputs_carry_fresh_ids_and_valid_values() {
        let t = infer(b"a,b\n5,x\n").expect("infers");
        let inputs = t.inputs(500);
        assert_eq!(inputs.len(), 2);
        assert_eq!(inputs[0].id, 500);
        assert_eq!(inputs[1].id, 501);
        assert!(inputs.iter().all(|i| i.validity == Validity::Valid));
    }

    #[test]
    fn shape_validation_rejects_degenerate_shapes() {
        let bad = |f: fn(&mut CorpusShape)| {
            let mut s = CorpusShape::default();
            f(&mut s);
            s.validate().expect_err("invalid shape accepted")
        };
        bad(|s| s.columns = 0);
        bad(|s| s.columns = MAX_COLUMNS + 1);
        bad(|s| s.rows = 0);
        bad(|s| s.null_rate_pct = 101);
        bad(|s| s.decimal_precisions.clear());
        bad(|s| s.decimal_precisions = vec![(39, 2)]);
        bad(|s| s.decimal_precisions = vec![(5, 9)]);
        CorpusShape::default().validate().expect("default is valid");
    }
}
