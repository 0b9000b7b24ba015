//! A small SQL frontend shared by the simulated systems.
//!
//! The cross-testing harness drives SparkSQL-like and HiveQL-like interfaces
//! with textual statements (Figure 6). Both interfaces share this grammar —
//! `CREATE TABLE`, `DROP TABLE`, `INSERT INTO ... VALUES`, `SELECT` — but
//! interpret the parsed statements under their *own* semantics (identifier
//! case folding, literal coercion, error policies). Faithfully to the paper,
//! the discrepancies live in interpretation, not in syntax.
//!
//! Supported literal forms include typed literals (`DATE '...'`,
//! `TIMESTAMP '...'`, `INTERVAL 3 MONTH`), numeric suffixes (`1Y`, `2S`,
//! `3L`, `1.5BD`), hex binaries (`X'CAFE'`), `CAST(expr AS type)`, and the
//! constructors `ARRAY(...)`, `MAP(...)`, `NAMED_STRUCT(...)`.

use crate::column::ValueColumn;
use crate::value::{compare_values, DataType, StructField, Value};
use serde::{Deserialize, Serialize};
use std::fmt;

/// A lexical token.
#[derive(Debug, Clone, PartialEq)]
enum Token {
    Ident(String),
    Number(String),
    Str(String),
    HexBin(Vec<u8>),
    Symbol(char),
}

/// Numeric literal suffix.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum NumSuffix {
    /// `Y` — TINYINT literal.
    Byte,
    /// `S` — SMALLINT literal.
    Short,
    /// `L` — BIGINT literal.
    Long,
    /// `BD` — DECIMAL literal.
    Decimal,
    /// `D` — DOUBLE literal.
    Double,
    /// `F` — FLOAT literal.
    Float,
}

/// Interval unit in an `INTERVAL` literal.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum IntervalUnit {
    /// Calendar years.
    Year,
    /// Calendar months.
    Month,
    /// Days.
    Day,
    /// Hours.
    Hour,
    /// Minutes.
    Minute,
    /// Seconds.
    Second,
}

/// One `<magnitude> <unit>` term of an `INTERVAL` literal.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct IntervalPart {
    /// The magnitude, as written (may carry a sign and, for `SECOND`, a
    /// fractional part of up to microsecond precision).
    pub value: String,
    /// The unit keyword.
    pub unit: IntervalUnit,
}

impl IntervalPart {
    /// Convenience constructor.
    pub fn new(value: impl Into<String>, unit: IntervalUnit) -> IntervalPart {
        IntervalPart {
            value: value.into(),
            unit,
        }
    }
}

/// Evaluates the terms of an `INTERVAL` literal to the canonical
/// `(months, micros)` pair shared by both SQL dialects.
///
/// `YEAR`/`MONTH` terms accumulate into months; `DAY`/`HOUR`/`MINUTE`/
/// `SECOND` terms into microseconds. Only `SECOND` magnitudes may carry a
/// fraction, of at most six digits (microsecond precision); every other
/// unit requires an integer. On failure the error carries the offending
/// magnitude, for the dialects to wrap in their own parse-error types.
///
/// # Examples
///
/// ```
/// use csi_core::sql::{eval_interval_parts, IntervalPart, IntervalUnit};
///
/// let parts = [
///     IntervalPart::new("1", IntervalUnit::Day),
///     IntervalPart::new("2", IntervalUnit::Hour),
///     IntervalPart::new("0.5", IntervalUnit::Second),
/// ];
/// assert_eq!(
///     eval_interval_parts(&parts),
///     Ok((0, 86_400_000_000 + 2 * 3_600_000_000 + 500_000))
/// );
/// ```
pub fn eval_interval_parts(parts: &[IntervalPart]) -> Result<(i32, i64), String> {
    let mut months: i64 = 0;
    let mut micros: i64 = 0;
    let bad = |value: &str| format!("interval magnitude {value:?}");
    for part in parts {
        let raw = part.value.trim();
        let micros_per: i64 = match part.unit {
            IntervalUnit::Year | IntervalUnit::Month => {
                let n: i64 = raw.parse().map_err(|_| bad(&part.value))?;
                let m = if part.unit == IntervalUnit::Year {
                    n.checked_mul(12).ok_or_else(|| bad(&part.value))?
                } else {
                    n
                };
                months = months.checked_add(m).ok_or_else(|| bad(&part.value))?;
                continue;
            }
            IntervalUnit::Day => 86_400_000_000,
            IntervalUnit::Hour => 3_600_000_000,
            IntervalUnit::Minute => 60_000_000,
            IntervalUnit::Second => 1_000_000,
        };
        let us = if part.unit == IntervalUnit::Second {
            parse_seconds_micros(raw).ok_or_else(|| bad(&part.value))?
        } else {
            let n: i64 = raw.parse().map_err(|_| bad(&part.value))?;
            n.checked_mul(micros_per).ok_or_else(|| bad(&part.value))?
        };
        micros = micros.checked_add(us).ok_or_else(|| bad(&part.value))?;
    }
    let months = i32::try_from(months).map_err(|_| bad("months out of range"))?;
    Ok((months, micros))
}

/// Parses a `SECOND` magnitude — optionally signed, optionally fractional
/// with up to six digits — to exact microseconds. No floating point is
/// involved, so sub-second values survive unchanged.
fn parse_seconds_micros(raw: &str) -> Option<i64> {
    let (negative, body) = match raw.strip_prefix('-') {
        Some(rest) => (true, rest),
        None => (false, raw),
    };
    let (whole, frac) = match body.split_once('.') {
        Some((w, f)) => (w, f),
        None => (body, ""),
    };
    if whole.is_empty() && frac.is_empty() {
        return None;
    }
    if frac.len() > 6 || !frac.bytes().all(|b| b.is_ascii_digit()) {
        return None;
    }
    let seconds: i64 = if whole.is_empty() {
        0
    } else {
        whole
            .parse()
            .ok()
            .filter(|_| whole.bytes().all(|b| b.is_ascii_digit()))?
    };
    let mut sub: i64 = 0;
    if !frac.is_empty() {
        sub = frac.parse().ok()?;
        for _ in frac.len()..6 {
            sub *= 10;
        }
    }
    let magnitude = seconds.checked_mul(1_000_000)?.checked_add(sub)?;
    Some(if negative { -magnitude } else { magnitude })
}

/// A parsed literal expression.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Expr {
    /// `NULL`.
    Null,
    /// `TRUE` / `FALSE`.
    Bool(bool),
    /// An unsuffixed numeric literal; its type is dialect-dependent.
    Number(String),
    /// A suffixed numeric literal (`1Y`, `3L`, `1.5BD`, ...).
    TypedNumber(String, NumSuffix),
    /// A quoted string.
    Str(String),
    /// `X'...'` hex binary.
    Binary(Vec<u8>),
    /// `DATE '...'`.
    DateLit(String),
    /// `TIMESTAMP '...'`.
    TimestampLit(String),
    /// `INTERVAL <n> <unit> [<n> <unit> ...]` — one or more terms, each
    /// `INTERVAL 3 MONTH`-style; compound literals (`INTERVAL 1 DAY 2 HOURS`)
    /// carry several terms.
    IntervalLit {
        /// The terms, in source order.
        parts: Vec<IntervalPart>,
    },
    /// `CAST(expr AS type)`.
    Cast(Box<Expr>, DataType),
    /// `ARRAY(e1, e2, ...)`.
    Array(Vec<Expr>),
    /// `MAP(k1, v1, k2, v2, ...)`.
    Map(Vec<(Expr, Expr)>),
    /// `NAMED_STRUCT('name1', e1, ...)`.
    NamedStruct(Vec<(String, Expr)>),
    /// Unary minus.
    Neg(Box<Expr>),
}

/// Projection of a `SELECT`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum SelectCols {
    /// `SELECT *`.
    Star,
    /// `SELECT c1, c2, ...` — names as written, case preserved.
    Columns(Vec<String>),
}

/// Comparison operator in a `WHERE` predicate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum CmpOp {
    /// `=`.
    Eq,
    /// `!=` (also `<>`).
    Ne,
    /// `<`.
    Lt,
    /// `<=`.
    Le,
    /// `>`.
    Gt,
    /// `>=`.
    Ge,
}

impl CmpOp {
    /// Whether an SQL comparison outcome satisfies this operator.
    ///
    /// `None` is the *unknown* of three-valued logic (a NULL operand or
    /// incomparable kinds): no operator matches it.
    pub fn matches(self, ord: Option<std::cmp::Ordering>) -> bool {
        use std::cmp::Ordering;
        let Some(o) = ord else {
            return false;
        };
        match self {
            CmpOp::Eq => o == Ordering::Equal,
            CmpOp::Ne => o != Ordering::Equal,
            CmpOp::Lt => o == Ordering::Less,
            CmpOp::Le => o != Ordering::Greater,
            CmpOp::Gt => o == Ordering::Greater,
            CmpOp::Ge => o != Ordering::Less,
        }
    }
}

/// One comparison of a `WHERE` clause; clauses are AND-conjunctions of
/// comparisons (the subset both dialects support here).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Comparison {
    /// Column name, as written.
    pub column: String,
    /// Operator.
    pub op: CmpOp,
    /// Right-hand literal.
    pub literal: Expr,
}

/// Evaluates a resolved `SELECT` over a table's columns: keeps the rows
/// that match every `(column, op, literal)` filter, in table order, and
/// builds only the projected cells. A projection may repeat a column.
///
/// Name resolution and literal casting stay with each dialect; this is the
/// dialect-neutral filter and projection loop both share.
pub fn select_rows(
    cols: &[ValueColumn],
    filters: &[(usize, CmpOp, Value)],
    projection: &[usize],
) -> Vec<Vec<Value>> {
    let nrows = cols.first().map_or(0, ValueColumn::len);
    (0..nrows)
        .filter(|&row| {
            filters
                .iter()
                .all(|(c, op, lit)| op.matches(compare_values(&cols[*c].get(row), lit)))
        })
        .map(|row| projection.iter().map(|&c| cols[c].get(row)).collect())
        .collect()
}

/// A parsed statement.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Statement {
    /// `CREATE TABLE [IF NOT EXISTS] t (col type, ...) [STORED AS fmt]`.
    CreateTable {
        /// Table name as written.
        name: String,
        /// Column definitions, case preserved.
        columns: Vec<(String, DataType)>,
        /// Storage format name from `STORED AS`, upper-cased.
        stored_as: Option<String>,
        /// Whether `IF NOT EXISTS` was present.
        if_not_exists: bool,
    },
    /// `DROP TABLE [IF EXISTS] t`.
    DropTable {
        /// Table name as written.
        name: String,
        /// Whether `IF EXISTS` was present.
        if_exists: bool,
    },
    /// `INSERT INTO t VALUES (..), (..)`.
    Insert {
        /// Target table as written.
        table: String,
        /// Rows of literal expressions.
        rows: Vec<Vec<Expr>>,
    },
    /// `SELECT cols FROM t [WHERE c op lit [AND ...]]`.
    Select {
        /// Projection.
        columns: SelectCols,
        /// Source table as written.
        table: String,
        /// AND-conjoined comparisons; empty means no filter.
        predicate: Vec<Comparison>,
    },
}

/// A parse error with a human-readable description.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ParseError {
    /// What went wrong.
    pub message: String,
}

impl ParseError {
    fn new(message: impl Into<String>) -> ParseError {
        ParseError {
            message: message.into(),
        }
    }
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "SQL parse error: {}", self.message)
    }
}

impl std::error::Error for ParseError {}

fn tokenize(input: &str) -> Result<Vec<Token>, ParseError> {
    let mut tokens = Vec::new();
    let chars: Vec<char> = input.chars().collect();
    let mut i = 0;
    while i < chars.len() {
        let c = chars[i];
        if c.is_whitespace() {
            i += 1;
        } else if c == '\'' {
            // String literal with '' escaping.
            let mut s = String::new();
            i += 1;
            loop {
                if i >= chars.len() {
                    return Err(ParseError::new("unterminated string literal"));
                }
                if chars[i] == '\'' {
                    if i + 1 < chars.len() && chars[i + 1] == '\'' {
                        s.push('\'');
                        i += 2;
                    } else {
                        i += 1;
                        break;
                    }
                } else {
                    s.push(chars[i]);
                    i += 1;
                }
            }
            tokens.push(Token::Str(s));
        } else if c == '`' {
            // Back-quoted identifier, case preserved.
            let mut s = String::new();
            i += 1;
            while i < chars.len() && chars[i] != '`' {
                s.push(chars[i]);
                i += 1;
            }
            if i >= chars.len() {
                return Err(ParseError::new("unterminated quoted identifier"));
            }
            i += 1;
            tokens.push(Token::Ident(s));
        } else if (c == 'X' || c == 'x') && i + 1 < chars.len() && chars[i + 1] == '\'' {
            // Hex binary literal.
            let mut hex = String::new();
            i += 2;
            while i < chars.len() && chars[i] != '\'' {
                hex.push(chars[i]);
                i += 1;
            }
            if i >= chars.len() {
                return Err(ParseError::new("unterminated hex literal"));
            }
            i += 1;
            if !hex.len().is_multiple_of(2) || !hex.chars().all(|c| c.is_ascii_hexdigit()) {
                return Err(ParseError::new(format!("invalid hex literal X'{hex}'")));
            }
            let bytes = (0..hex.len())
                .step_by(2)
                .map(|j| u8::from_str_radix(&hex[j..j + 2], 16).expect("validated hex"))
                .collect();
            tokens.push(Token::HexBin(bytes));
        } else if c.is_ascii_digit()
            || (c == '.' && i + 1 < chars.len() && chars[i + 1].is_ascii_digit())
        {
            // Number, optionally with a fraction and an alpha suffix.
            let mut s = String::new();
            let mut seen_dot = false;
            while i < chars.len() {
                let d = chars[i];
                if d.is_ascii_digit() {
                    s.push(d);
                    i += 1;
                } else if d == '.' && !seen_dot {
                    seen_dot = true;
                    s.push(d);
                    i += 1;
                } else {
                    break;
                }
            }
            // Suffix letters (Y, S, L, D, F, BD) stick to the number.
            let mut suffix = String::new();
            while i < chars.len() && chars[i].is_ascii_alphabetic() && suffix.len() < 2 {
                suffix.push(chars[i]);
                i += 1;
            }
            if !suffix.is_empty() {
                s.push_str(&suffix);
            }
            tokens.push(Token::Number(s));
        } else if c.is_ascii_alphabetic() || c == '_' {
            let mut s = String::new();
            while i < chars.len()
                && (chars[i].is_ascii_alphanumeric() || chars[i] == '_' || chars[i] == '.')
            {
                s.push(chars[i]);
                i += 1;
            }
            tokens.push(Token::Ident(s));
        } else if "(),*<>:;-=!".contains(c) {
            tokens.push(Token::Symbol(c));
            i += 1;
        } else {
            return Err(ParseError::new(format!("unexpected character {c:?}")));
        }
    }
    Ok(tokens)
}

struct Parser {
    tokens: Vec<Token>,
    pos: usize,
}

impl Parser {
    fn peek(&self) -> Option<&Token> {
        self.tokens.get(self.pos)
    }

    fn next(&mut self) -> Option<Token> {
        let t = self.tokens.get(self.pos).cloned();
        if t.is_some() {
            self.pos += 1;
        }
        t
    }

    fn eat_keyword(&mut self, kw: &str) -> bool {
        if let Some(Token::Ident(s)) = self.peek() {
            if s.eq_ignore_ascii_case(kw) {
                self.pos += 1;
                return true;
            }
        }
        false
    }

    fn expect_keyword(&mut self, kw: &str) -> Result<(), ParseError> {
        if self.eat_keyword(kw) {
            Ok(())
        } else {
            Err(ParseError::new(format!(
                "expected keyword {kw}, found {:?}",
                self.peek()
            )))
        }
    }

    fn eat_symbol(&mut self, c: char) -> bool {
        if let Some(Token::Symbol(s)) = self.peek() {
            if *s == c {
                self.pos += 1;
                return true;
            }
        }
        false
    }

    fn expect_symbol(&mut self, c: char) -> Result<(), ParseError> {
        if self.eat_symbol(c) {
            Ok(())
        } else {
            Err(ParseError::new(format!(
                "expected {c:?}, found {:?}",
                self.peek()
            )))
        }
    }

    fn expect_ident(&mut self) -> Result<String, ParseError> {
        match self.next() {
            Some(Token::Ident(s)) => Ok(s),
            other => Err(ParseError::new(format!(
                "expected identifier, found {other:?}"
            ))),
        }
    }

    fn expect_string(&mut self) -> Result<String, ParseError> {
        match self.next() {
            Some(Token::Str(s)) => Ok(s),
            other => Err(ParseError::new(format!("expected string, found {other:?}"))),
        }
    }

    fn parse_statement(&mut self) -> Result<Statement, ParseError> {
        if self.eat_keyword("CREATE") {
            self.expect_keyword("TABLE")?;
            let if_not_exists = if self.eat_keyword("IF") {
                self.expect_keyword("NOT")?;
                self.expect_keyword("EXISTS")?;
                true
            } else {
                false
            };
            let name = self.expect_ident()?;
            self.expect_symbol('(')?;
            let mut columns = Vec::new();
            loop {
                let col = self.expect_ident()?;
                let ty = self.parse_type()?;
                columns.push((col, ty));
                if !self.eat_symbol(',') {
                    break;
                }
            }
            self.expect_symbol(')')?;
            let stored_as = if self.eat_keyword("STORED") {
                self.expect_keyword("AS")?;
                Some(self.expect_ident()?.to_ascii_uppercase())
            } else {
                None
            };
            Ok(Statement::CreateTable {
                name,
                columns,
                stored_as,
                if_not_exists,
            })
        } else if self.eat_keyword("DROP") {
            self.expect_keyword("TABLE")?;
            let if_exists = if self.eat_keyword("IF") {
                self.expect_keyword("EXISTS")?;
                true
            } else {
                false
            };
            let name = self.expect_ident()?;
            Ok(Statement::DropTable { name, if_exists })
        } else if self.eat_keyword("INSERT") {
            self.expect_keyword("INTO")?;
            // `TABLE` keyword is optional HiveQL syntax.
            let _ = self.eat_keyword("TABLE");
            let table = self.expect_ident()?;
            self.expect_keyword("VALUES")?;
            let mut rows = Vec::new();
            loop {
                self.expect_symbol('(')?;
                let mut row = Vec::new();
                loop {
                    row.push(self.parse_expr()?);
                    if !self.eat_symbol(',') {
                        break;
                    }
                }
                self.expect_symbol(')')?;
                rows.push(row);
                if !self.eat_symbol(',') {
                    break;
                }
            }
            Ok(Statement::Insert { table, rows })
        } else if self.eat_keyword("SELECT") {
            let columns = if self.eat_symbol('*') {
                SelectCols::Star
            } else {
                let mut cols = vec![self.expect_ident()?];
                while self.eat_symbol(',') {
                    cols.push(self.expect_ident()?);
                }
                SelectCols::Columns(cols)
            };
            self.expect_keyword("FROM")?;
            let table = self.expect_ident()?;
            let mut predicate = Vec::new();
            if self.eat_keyword("WHERE") {
                loop {
                    let column = self.expect_ident()?;
                    let op = self.parse_cmp_op()?;
                    let literal = self.parse_expr()?;
                    predicate.push(Comparison {
                        column,
                        op,
                        literal,
                    });
                    if !self.eat_keyword("AND") {
                        break;
                    }
                }
            }
            Ok(Statement::Select {
                columns,
                table,
                predicate,
            })
        } else {
            Err(ParseError::new(format!(
                "expected CREATE/DROP/INSERT/SELECT, found {:?}",
                self.peek()
            )))
        }
    }

    fn parse_cmp_op(&mut self) -> Result<CmpOp, ParseError> {
        if self.eat_symbol('=') {
            return Ok(CmpOp::Eq);
        }
        if self.eat_symbol('!') {
            self.expect_symbol('=')?;
            return Ok(CmpOp::Ne);
        }
        if self.eat_symbol('<') {
            if self.eat_symbol('=') {
                return Ok(CmpOp::Le);
            }
            if self.eat_symbol('>') {
                return Ok(CmpOp::Ne);
            }
            return Ok(CmpOp::Lt);
        }
        if self.eat_symbol('>') {
            if self.eat_symbol('=') {
                return Ok(CmpOp::Ge);
            }
            return Ok(CmpOp::Gt);
        }
        Err(ParseError::new(format!(
            "expected comparison operator, found {:?}",
            self.peek()
        )))
    }

    fn parse_expr(&mut self) -> Result<Expr, ParseError> {
        if self.eat_symbol('-') {
            return Ok(Expr::Neg(Box::new(self.parse_expr()?)));
        }
        match self.next() {
            Some(Token::Str(s)) => Ok(Expr::Str(s)),
            Some(Token::HexBin(b)) => Ok(Expr::Binary(b)),
            Some(Token::Number(raw)) => Ok(split_number(&raw)?),
            Some(Token::Ident(id)) => {
                let upper = id.to_ascii_uppercase();
                match upper.as_str() {
                    "NULL" => Ok(Expr::Null),
                    "TRUE" => Ok(Expr::Bool(true)),
                    "FALSE" => Ok(Expr::Bool(false)),
                    "DATE" => Ok(Expr::DateLit(self.expect_string()?)),
                    "TIMESTAMP" => Ok(Expr::TimestampLit(self.expect_string()?)),
                    "INTERVAL" => {
                        let mut parts = Vec::new();
                        loop {
                            let (value, neg) = match self.next() {
                                Some(Token::Str(s)) => (s, false),
                                Some(Token::Number(n)) => (n, false),
                                Some(Token::Symbol('-')) => match self.next() {
                                    Some(Token::Number(n)) => (n, true),
                                    other => {
                                        return Err(ParseError::new(format!(
                                            "expected interval magnitude, found {other:?}"
                                        )))
                                    }
                                },
                                other => {
                                    return Err(ParseError::new(format!(
                                        "expected interval magnitude, found {other:?}"
                                    )))
                                }
                            };
                            let unit_name = self.expect_ident()?.to_ascii_uppercase();
                            let unit = match unit_name.trim_end_matches('S') {
                                "YEAR" => IntervalUnit::Year,
                                "MONTH" => IntervalUnit::Month,
                                "DAY" => IntervalUnit::Day,
                                "HOUR" => IntervalUnit::Hour,
                                "MINUTE" => IntervalUnit::Minute,
                                "SECOND" => IntervalUnit::Second,
                                other => {
                                    return Err(ParseError::new(format!(
                                        "unknown interval unit {other}"
                                    )))
                                }
                            };
                            let value = if neg { format!("-{value}") } else { value };
                            parts.push(IntervalPart { value, unit });
                            // Another magnitude token continues the compound
                            // literal (`INTERVAL 1 DAY 2 HOURS`); this grammar
                            // has no infix arithmetic, so a trailing `-` can
                            // only start a negative next term.
                            let more = matches!(
                                self.peek(),
                                Some(Token::Str(_))
                                    | Some(Token::Number(_))
                                    | Some(Token::Symbol('-'))
                            );
                            if !more {
                                break;
                            }
                        }
                        Ok(Expr::IntervalLit { parts })
                    }
                    "CAST" => {
                        self.expect_symbol('(')?;
                        let inner = self.parse_expr()?;
                        self.expect_keyword("AS")?;
                        let ty = self.parse_type()?;
                        self.expect_symbol(')')?;
                        Ok(Expr::Cast(Box::new(inner), ty))
                    }
                    "ARRAY" => {
                        self.expect_symbol('(')?;
                        let mut items = Vec::new();
                        if !self.eat_symbol(')') {
                            loop {
                                items.push(self.parse_expr()?);
                                if !self.eat_symbol(',') {
                                    break;
                                }
                            }
                            self.expect_symbol(')')?;
                        }
                        Ok(Expr::Array(items))
                    }
                    "MAP" => {
                        self.expect_symbol('(')?;
                        let mut pairs = Vec::new();
                        if !self.eat_symbol(')') {
                            loop {
                                let k = self.parse_expr()?;
                                self.expect_symbol(',')?;
                                let v = self.parse_expr()?;
                                pairs.push((k, v));
                                if !self.eat_symbol(',') {
                                    break;
                                }
                            }
                            self.expect_symbol(')')?;
                        }
                        Ok(Expr::Map(pairs))
                    }
                    "NAMED_STRUCT" => {
                        self.expect_symbol('(')?;
                        let mut fields = Vec::new();
                        loop {
                            let name = self.expect_string()?;
                            self.expect_symbol(',')?;
                            let v = self.parse_expr()?;
                            fields.push((name, v));
                            if !self.eat_symbol(',') {
                                break;
                            }
                        }
                        self.expect_symbol(')')?;
                        Ok(Expr::NamedStruct(fields))
                    }
                    _ => Err(ParseError::new(format!(
                        "unexpected identifier {id:?} in expression"
                    ))),
                }
            }
            other => Err(ParseError::new(format!(
                "unexpected token {other:?} in expression"
            ))),
        }
    }

    fn parse_type(&mut self) -> Result<DataType, ParseError> {
        let name = self.expect_ident()?.to_ascii_uppercase();
        let ty = match name.as_str() {
            "BOOLEAN" | "BOOL" => DataType::Boolean,
            "TINYINT" | "BYTE" => DataType::Byte,
            "SMALLINT" | "SHORT" => DataType::Short,
            "INT" | "INTEGER" => DataType::Int,
            "BIGINT" | "LONG" => DataType::Long,
            "FLOAT" | "REAL" => DataType::Float,
            "DOUBLE" => DataType::Double,
            "DECIMAL" | "NUMERIC" => {
                if self.eat_symbol('(') {
                    let p = self.expect_number_u32()? as u8;
                    let s = if self.eat_symbol(',') {
                        self.expect_number_u32()? as u8
                    } else {
                        0
                    };
                    self.expect_symbol(')')?;
                    DataType::Decimal(p, s)
                } else {
                    DataType::Decimal(10, 0)
                }
            }
            "STRING" | "TEXT" => DataType::String,
            "CHAR" => {
                self.expect_symbol('(')?;
                let n = self.expect_number_u32()?;
                self.expect_symbol(')')?;
                DataType::Char(n)
            }
            "VARCHAR" => {
                self.expect_symbol('(')?;
                let n = self.expect_number_u32()?;
                self.expect_symbol(')')?;
                DataType::Varchar(n)
            }
            "BINARY" => DataType::Binary,
            "DATE" => DataType::Date,
            "TIMESTAMP" => DataType::Timestamp,
            "INTERVAL" => DataType::Interval,
            "ARRAY" => {
                self.expect_symbol('<')?;
                let inner = self.parse_type()?;
                self.expect_symbol('>')?;
                DataType::Array(Box::new(inner))
            }
            "MAP" => {
                self.expect_symbol('<')?;
                let k = self.parse_type()?;
                self.expect_symbol(',')?;
                let v = self.parse_type()?;
                self.expect_symbol('>')?;
                DataType::Map(Box::new(k), Box::new(v))
            }
            "STRUCT" => {
                self.expect_symbol('<')?;
                let mut fields = Vec::new();
                loop {
                    let fname = self.expect_ident()?;
                    self.expect_symbol(':')?;
                    let fty = self.parse_type()?;
                    fields.push(StructField::new(fname, fty));
                    if !self.eat_symbol(',') {
                        break;
                    }
                }
                self.expect_symbol('>')?;
                DataType::Struct(fields)
            }
            other => return Err(ParseError::new(format!("unknown type {other}"))),
        };
        Ok(ty)
    }

    fn expect_number_u32(&mut self) -> Result<u32, ParseError> {
        match self.next() {
            Some(Token::Number(n)) => n
                .parse()
                .map_err(|_| ParseError::new(format!("expected integer, found {n:?}"))),
            other => Err(ParseError::new(format!(
                "expected integer, found {other:?}"
            ))),
        }
    }
}

fn split_number(raw: &str) -> Result<Expr, ParseError> {
    let upper = raw.to_ascii_uppercase();
    for (suffix, kind) in [
        ("BD", NumSuffix::Decimal),
        ("Y", NumSuffix::Byte),
        ("S", NumSuffix::Short),
        ("L", NumSuffix::Long),
        ("D", NumSuffix::Double),
        ("F", NumSuffix::Float),
    ] {
        if let Some(digits) = upper.strip_suffix(suffix) {
            if !digits.is_empty() && digits.chars().all(|c| c.is_ascii_digit() || c == '.') {
                return Ok(Expr::TypedNumber(digits.to_string(), kind));
            }
        }
    }
    if upper.chars().all(|c| c.is_ascii_digit() || c == '.') {
        Ok(Expr::Number(raw.to_string()))
    } else {
        Err(ParseError::new(format!("invalid numeric literal {raw:?}")))
    }
}

/// Parses a single SQL statement.
///
/// # Examples
///
/// ```
/// use csi_core::sql::{parse, Statement};
///
/// let stmt = parse("SELECT * FROM t").unwrap();
/// assert!(matches!(stmt, Statement::Select { .. }));
/// ```
pub fn parse(input: &str) -> Result<Statement, ParseError> {
    let mut tokens = tokenize(input)?;
    // A trailing semicolon is tolerated.
    if tokens.last() == Some(&Token::Symbol(';')) {
        tokens.pop();
    }
    let mut p = Parser { tokens, pos: 0 };
    let stmt = p.parse_statement()?;
    if p.peek().is_some() {
        return Err(ParseError::new(format!(
            "trailing tokens after statement: {:?}",
            p.peek()
        )));
    }
    Ok(stmt)
}

/// Renders a string as a SQL literal with `''` escaping.
pub fn quote_string(s: &str) -> String {
    format!("'{}'", s.replace('\'', "''"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn select_rows_filters_in_order_and_repeats_projections() {
        let a = ValueColumn::from_values(
            &DataType::Int,
            &[Value::Int(1), Value::Null, Value::Int(3), Value::Int(2)],
        );
        let b = ValueColumn::from_values(
            &DataType::String,
            &[
                Value::Str("x".into()),
                Value::Str("y".into()),
                Value::Str("z".into()),
                Value::Null,
            ],
        );
        let cols = [a, b];
        // NULL never matches; surviving rows keep table order.
        let rows = select_rows(&cols, &[(0, CmpOp::Gt, Value::Int(1))], &[1, 0, 1]);
        assert_eq!(
            rows,
            vec![
                vec![
                    Value::Str("z".into()),
                    Value::Int(3),
                    Value::Str("z".into())
                ],
                vec![Value::Null, Value::Int(2), Value::Null],
            ]
        );
        assert_eq!(select_rows(&cols, &[], &[0]).len(), 4);
    }

    #[test]
    fn parses_create_table() {
        let stmt = parse(
            "CREATE TABLE t (a INT, B STRING, c DECIMAL(10,2), d MAP<STRING,INT>) STORED AS orc",
        )
        .unwrap();
        match stmt {
            Statement::CreateTable {
                name,
                columns,
                stored_as,
                if_not_exists,
            } => {
                assert_eq!(name, "t");
                assert_eq!(columns.len(), 4);
                assert_eq!(columns[1].0, "B"); // Case preserved by the parser.
                assert_eq!(columns[2].1, DataType::Decimal(10, 2));
                assert_eq!(stored_as.as_deref(), Some("ORC"));
                assert!(!if_not_exists);
            }
            other => panic!("wrong statement: {other:?}"),
        }
    }

    #[test]
    fn parses_struct_and_nested_types() {
        let stmt = parse("CREATE TABLE t (s STRUCT<Inner:INT,b:ARRAY<STRING>>)").unwrap();
        let Statement::CreateTable { columns, .. } = stmt else {
            panic!()
        };
        assert_eq!(columns[0].1.sql_name(), "STRUCT<Inner:INT,b:ARRAY<STRING>>");
    }

    #[test]
    fn parses_insert_with_literals() {
        let stmt = parse(
            "INSERT INTO t VALUES (1, 'it''s', NULL, TRUE, -2.5, DATE '2020-01-02', X'CAFE')",
        )
        .unwrap();
        let Statement::Insert { table, rows } = stmt else {
            panic!()
        };
        assert_eq!(table, "t");
        assert_eq!(rows.len(), 1);
        let row = &rows[0];
        assert_eq!(row[0], Expr::Number("1".into()));
        assert_eq!(row[1], Expr::Str("it's".into()));
        assert_eq!(row[2], Expr::Null);
        assert_eq!(row[3], Expr::Bool(true));
        assert_eq!(row[4], Expr::Neg(Box::new(Expr::Number("2.5".into()))));
        assert_eq!(row[5], Expr::DateLit("2020-01-02".into()));
        assert_eq!(row[6], Expr::Binary(vec![0xCA, 0xFE]));
    }

    #[test]
    fn parses_multiple_rows() {
        let stmt = parse("INSERT INTO t VALUES (1), (2), (3)").unwrap();
        let Statement::Insert { rows, .. } = stmt else {
            panic!()
        };
        assert_eq!(rows.len(), 3);
    }

    #[test]
    fn parses_suffixed_numbers() {
        let stmt = parse("INSERT INTO t VALUES (1Y, 2S, 3L, 1.50BD, 2.5D, 7F)").unwrap();
        let Statement::Insert { rows, .. } = stmt else {
            panic!()
        };
        assert_eq!(rows[0][0], Expr::TypedNumber("1".into(), NumSuffix::Byte));
        assert_eq!(rows[0][1], Expr::TypedNumber("2".into(), NumSuffix::Short));
        assert_eq!(rows[0][2], Expr::TypedNumber("3".into(), NumSuffix::Long));
        assert_eq!(
            rows[0][3],
            Expr::TypedNumber("1.50".into(), NumSuffix::Decimal)
        );
        assert_eq!(
            rows[0][4],
            Expr::TypedNumber("2.5".into(), NumSuffix::Double)
        );
        assert_eq!(rows[0][5], Expr::TypedNumber("7".into(), NumSuffix::Float));
    }

    #[test]
    fn parses_constructors_and_cast() {
        let stmt = parse(
            "INSERT INTO t VALUES (ARRAY(1, 2), MAP('k', 1), NAMED_STRUCT('a', 1, 'b', 'x'), CAST('5' AS INT))",
        )
        .unwrap();
        let Statement::Insert { rows, .. } = stmt else {
            panic!()
        };
        assert!(matches!(rows[0][0], Expr::Array(ref v) if v.len() == 2));
        assert!(matches!(rows[0][1], Expr::Map(ref v) if v.len() == 1));
        assert!(matches!(rows[0][2], Expr::NamedStruct(ref v) if v.len() == 2));
        assert!(matches!(rows[0][3], Expr::Cast(_, DataType::Int)));
    }

    #[test]
    fn parses_intervals() {
        let stmt =
            parse("INSERT INTO t VALUES (INTERVAL 3 MONTH, INTERVAL '7' DAYS, INTERVAL -2 HOURS)")
                .unwrap();
        let Statement::Insert { rows, .. } = stmt else {
            panic!()
        };
        assert_eq!(
            rows[0][0],
            Expr::IntervalLit {
                parts: vec![IntervalPart::new("3", IntervalUnit::Month)]
            }
        );
        assert_eq!(
            rows[0][1],
            Expr::IntervalLit {
                parts: vec![IntervalPart::new("7", IntervalUnit::Day)]
            }
        );
        assert_eq!(
            rows[0][2],
            Expr::IntervalLit {
                parts: vec![IntervalPart::new("-2", IntervalUnit::Hour)]
            }
        );
    }

    #[test]
    fn parses_compound_intervals() {
        let stmt =
            parse("INSERT INTO t VALUES (INTERVAL 1 DAY 2 HOURS, INTERVAL 3 MONTH '4.5' SECONDS)")
                .unwrap();
        let Statement::Insert { rows, .. } = stmt else {
            panic!()
        };
        assert_eq!(
            rows[0][0],
            Expr::IntervalLit {
                parts: vec![
                    IntervalPart::new("1", IntervalUnit::Day),
                    IntervalPart::new("2", IntervalUnit::Hour),
                ]
            }
        );
        assert_eq!(
            rows[0][1],
            Expr::IntervalLit {
                parts: vec![
                    IntervalPart::new("3", IntervalUnit::Month),
                    IntervalPart::new("4.5", IntervalUnit::Second),
                ]
            }
        );
        assert_eq!(
            eval_interval_parts(&[
                IntervalPart::new("3", IntervalUnit::Month),
                IntervalPart::new("4.5", IntervalUnit::Second),
            ]),
            Ok((3, 4_500_000))
        );
    }

    #[test]
    fn parses_select_and_drop() {
        assert_eq!(
            parse("SELECT * FROM t;").unwrap(),
            Statement::Select {
                columns: SelectCols::Star,
                table: "t".into(),
                predicate: vec![]
            }
        );
        assert_eq!(
            parse("SELECT A, b FROM t").unwrap(),
            Statement::Select {
                columns: SelectCols::Columns(vec!["A".into(), "b".into()]),
                table: "t".into(),
                predicate: vec![]
            }
        );
        assert_eq!(
            parse("DROP TABLE IF EXISTS t").unwrap(),
            Statement::DropTable {
                name: "t".into(),
                if_exists: true
            }
        );
    }

    #[test]
    fn parses_where_clauses() {
        let stmt = parse("SELECT * FROM t WHERE a >= 5 AND name = 'x' AND b <> 2").unwrap();
        let Statement::Select { predicate, .. } = stmt else {
            panic!()
        };
        assert_eq!(predicate.len(), 3);
        assert_eq!(predicate[0].column, "a");
        assert_eq!(predicate[0].op, CmpOp::Ge);
        assert_eq!(predicate[1].op, CmpOp::Eq);
        assert_eq!(predicate[1].literal, Expr::Str("x".into()));
        assert_eq!(predicate[2].op, CmpOp::Ne);
        // All operator spellings parse.
        for (text, op) in [
            ("=", CmpOp::Eq),
            ("!=", CmpOp::Ne),
            ("<>", CmpOp::Ne),
            ("<", CmpOp::Lt),
            ("<=", CmpOp::Le),
            (">", CmpOp::Gt),
            (">=", CmpOp::Ge),
        ] {
            let stmt = parse(&format!("SELECT * FROM t WHERE c {text} 1")).unwrap();
            let Statement::Select { predicate, .. } = stmt else {
                panic!()
            };
            assert_eq!(predicate[0].op, op, "{text}");
        }
        // Malformed clauses are rejected.
        assert!(parse("SELECT * FROM t WHERE").is_err());
        assert!(parse("SELECT * FROM t WHERE a ~ 1").is_err());
        assert!(parse("SELECT * FROM t WHERE a = 1 AND").is_err());
    }

    #[test]
    fn quoted_identifiers_preserve_case() {
        let stmt = parse("CREATE TABLE t (`MiXeD` INT)").unwrap();
        let Statement::CreateTable { columns, .. } = stmt else {
            panic!()
        };
        assert_eq!(columns[0].0, "MiXeD");
    }

    #[test]
    fn rejects_garbage() {
        assert!(parse("").is_err());
        assert!(parse("SELEC * FROM t").is_err());
        assert!(parse("INSERT INTO t VALUES (1) garbage").is_err());
        assert!(parse("INSERT INTO t VALUES ('unterminated").is_err());
        assert!(parse("CREATE TABLE t (a WIDGET)").is_err());
        assert!(parse("INSERT INTO t VALUES (X'ABC')").is_err());
    }

    #[test]
    fn quote_string_escapes() {
        assert_eq!(quote_string("a'b"), "'a''b'");
        assert_eq!(quote_string(""), "''");
    }
}
