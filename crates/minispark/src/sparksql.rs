//! The SparkSQL interface.
//!
//! Executes the shared SQL grammar under Spark's semantics: literals type
//! per Spark's rules (a dotted numeric literal is a DECIMAL, unlike Hive's
//! DOUBLE), INSERT values go through the configured store-assignment policy
//! (ANSI by default — *raising* where Hive coerces), and CHAR columns come
//! back blank-padded.

use crate::config::StoreAssignmentPolicy;
use crate::error::SparkError;
use crate::session::{DdlPath, SparkSession};
use crate::types::{render, store_assign, CastOptions};
use csi_core::sql::{self, eval_interval_parts, Expr, NumSuffix, SelectCols, Statement};
use csi_core::value::{parse_date, parse_timestamp, Decimal, StructField, Value};

/// Result of a SparkSQL statement.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct SqlResult {
    /// Result column names (case as resolved by Spark).
    pub columns: Vec<String>,
    /// Result rows.
    pub rows: Vec<Vec<Value>>,
}

/// The SparkSQL interface over a session.
pub struct SparkSql<'a> {
    session: &'a SparkSession,
}

impl<'a> SparkSql<'a> {
    /// Wraps a session.
    pub fn new(session: &'a SparkSession) -> SparkSql<'a> {
        SparkSql { session }
    }

    fn cast_options(&self) -> CastOptions {
        CastOptions {
            policy: self.session.config.store_assignment_policy(),
            char_varchar_as_string: self.session.config.char_varchar_as_string(),
            date_range_check: true,
        }
    }

    /// Executes one SparkSQL statement.
    pub fn execute(&self, sql_text: &str) -> Result<SqlResult, SparkError> {
        let stmt = sql::parse(sql_text).map_err(|e| SparkError::Parse(e.to_string()))?;
        match stmt {
            Statement::CreateTable {
                name,
                columns,
                stored_as,
                if_not_exists,
            } => {
                let format =
                    minihive::metastore::StorageFormat::from_stored_as(stored_as.as_deref())?;
                let schema: Vec<StructField> = columns
                    .into_iter()
                    .map(|(n, dt)| StructField::new(n, dt))
                    .collect();
                self.session.create_hive_table(
                    &name,
                    &schema,
                    format,
                    DdlPath::SparkSql,
                    if_not_exists,
                )?;
                Ok(SqlResult::default())
            }
            Statement::DropTable { name, if_exists } => {
                self.session.drop_table(&name, if_exists)?;
                Ok(SqlResult::default())
            }
            Statement::Insert { table, rows } => {
                let def = self.session.table_def(&table)?;
                let schema = self.session.resolve_schema(&def);
                let opts = self.cast_options();
                let mut cast_rows = Vec::with_capacity(rows.len());
                for row in rows {
                    if row.len() != schema.len() {
                        return Err(SparkError::Arity {
                            expected: schema.len(),
                            got: row.len(),
                        });
                    }
                    let mut out = Vec::with_capacity(row.len());
                    for (expr, field) in row.iter().zip(&schema) {
                        let raw = self.eval(expr)?;
                        if opts.policy == StoreAssignmentPolicy::Legacy
                            && opts.date_range_check
                            && crate::types::has_out_of_range_datetime(&raw)
                        {
                            self.session.diag().warn(
                                "DATE_RANGE_COERCED",
                                format!(
                                    "value for column {} is outside the supported date range, \
                                     writing NULL",
                                    field.name
                                ),
                            );
                        }
                        out.push(store_assign(&raw, &field.data_type, opts)?);
                    }
                    cast_rows.push(out);
                }
                self.session.write_rows(&def, &schema, &cast_rows)?;
                Ok(SqlResult::default())
            }
            Statement::Select {
                columns,
                table,
                predicate,
            } => {
                let def = self.session.table_def(&table)?;
                let schema = self.session.resolve_schema(&def);
                let cols = self.session.read_columns(&def, &schema)?;
                // Spark casts the literal to the column type under the
                // active store-assignment policy (ANSI raises on bad
                // literals where Hive would coerce).
                let opts = self.cast_options();
                let mut filters = Vec::with_capacity(predicate.len());
                for cmp in &predicate {
                    let idx = resolve(&schema, &cmp.column)?;
                    let raw = self.eval(&cmp.literal)?;
                    let lit = store_assign(&raw, &schema[idx].data_type, opts)?;
                    filters.push((idx, cmp.op, lit));
                }
                let idx: Vec<usize> = match columns {
                    SelectCols::Star => (0..schema.len()).collect(),
                    SelectCols::Columns(names) => names
                        .iter()
                        .map(|c| resolve(&schema, c))
                        .collect::<Result<_, _>>()?,
                };
                Ok(SqlResult {
                    columns: idx.iter().map(|i| schema[*i].name.clone()).collect(),
                    rows: sql::select_rows(&cols, &filters, &idx),
                })
            }
        }
    }

    /// Evaluates a literal under Spark's typing rules.
    pub fn eval(&self, expr: &Expr) -> Result<Value, SparkError> {
        Ok(match expr {
            Expr::Null => Value::Null,
            Expr::Bool(b) => Value::Boolean(*b),
            Expr::Number(raw) => {
                if raw.contains('.') {
                    // Spark types dotted literals as DECIMAL.
                    Value::Decimal(
                        Decimal::parse(raw).map_err(|e| SparkError::Parse(e.to_string()))?,
                    )
                } else if let Ok(v) = raw.parse::<i32>() {
                    Value::Int(v)
                } else if let Ok(v) = raw.parse::<i64>() {
                    Value::Long(v)
                } else {
                    Value::Decimal(
                        Decimal::parse(raw).map_err(|e| SparkError::Parse(e.to_string()))?,
                    )
                }
            }
            Expr::TypedNumber(raw, suffix) => match suffix {
                NumSuffix::Byte => {
                    Value::Byte(raw.parse().map_err(|_| SparkError::Parse(raw.clone()))?)
                }
                NumSuffix::Short => {
                    Value::Short(raw.parse().map_err(|_| SparkError::Parse(raw.clone()))?)
                }
                NumSuffix::Long => {
                    Value::Long(raw.parse().map_err(|_| SparkError::Parse(raw.clone()))?)
                }
                NumSuffix::Decimal => Value::Decimal(
                    Decimal::parse(raw).map_err(|e| SparkError::Parse(e.to_string()))?,
                ),
                NumSuffix::Double => {
                    Value::Double(raw.parse().map_err(|_| SparkError::Parse(raw.clone()))?)
                }
                NumSuffix::Float => {
                    Value::Float(raw.parse().map_err(|_| SparkError::Parse(raw.clone()))?)
                }
            },
            Expr::Str(s) => Value::Str(s.clone()),
            Expr::Binary(b) => Value::Binary(b.clone()),
            // Spark raises on malformed typed literals (unlike Hive's
            // lenient NULL).
            Expr::DateLit(s) => match parse_date(s.trim()) {
                Some(d) => Value::Date(d),
                None => {
                    return Err(SparkError::cast(
                        "CAST_INVALID_INPUT",
                        format!("invalid DATE literal {s:?}"),
                    ))
                }
            },
            Expr::TimestampLit(s) => match parse_timestamp(s.trim()) {
                Some(us) => Value::Timestamp(us),
                None => {
                    return Err(SparkError::cast(
                        "CAST_INVALID_INPUT",
                        format!("invalid TIMESTAMP literal {s:?}"),
                    ))
                }
            },
            Expr::IntervalLit { parts } => {
                let (months, micros) = eval_interval_parts(parts).map_err(SparkError::Parse)?;
                Value::Interval { months, micros }
            }
            Expr::Cast(inner, ty) => {
                let v = self.eval(inner)?;
                store_assign(&v, ty, self.cast_options())?
            }
            Expr::Array(items) => Value::Array(
                items
                    .iter()
                    .map(|e| self.eval(e))
                    .collect::<Result<Vec<_>, _>>()?,
            ),
            Expr::Map(pairs) => Value::Map(
                pairs
                    .iter()
                    .map(|(k, v)| Ok((self.eval(k)?, self.eval(v)?)))
                    .collect::<Result<Vec<_>, SparkError>>()?,
            ),
            Expr::NamedStruct(fields) => Value::Struct(
                fields
                    .iter()
                    .map(|(n, v)| Ok((n.clone(), self.eval(v)?)))
                    .collect::<Result<Vec<_>, SparkError>>()?,
            ),
            Expr::Neg(inner) => match self.eval(inner)? {
                Value::Byte(v) => Value::Byte(-v),
                Value::Short(v) => Value::Short(-v),
                Value::Int(v) => Value::Int(-v),
                Value::Long(v) => Value::Long(-v),
                Value::Float(v) => Value::Float(-v),
                Value::Double(v) => Value::Double(-v),
                Value::Decimal(d) => Value::Decimal(Decimal {
                    unscaled: -d.unscaled,
                    ..d
                }),
                Value::Interval { months, micros } => Value::Interval {
                    months: -months,
                    micros: -micros,
                },
                other => {
                    return Err(SparkError::Parse(format!(
                        "cannot negate {}",
                        render(&other)
                    )))
                }
            },
        })
    }
}

/// Finds a column the way Spark's analyzer does by default:
/// case-insensitively. Results then report the schema's own name.
fn resolve(schema: &[StructField], column: &str) -> Result<usize, SparkError> {
    schema
        .iter()
        .position(|f| f.name.eq_ignore_ascii_case(column))
        .ok_or_else(|| {
            SparkError::analysis(
                "UNRESOLVED_COLUMN",
                format!("cannot resolve column {column:?}"),
            )
        })
}

impl SparkSession {
    /// Shorthand for executing SparkSQL against this session.
    pub fn sql(&self, text: &str) -> Result<SqlResult, SparkError> {
        SparkSql::new(self).execute(text)
    }

    /// Convenience: the active store-assignment policy.
    pub fn policy(&self) -> StoreAssignmentPolicy {
        self.config.store_assignment_policy()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use csi_core::diag::DiagSink;
    use minihdfs::MiniHdfs;
    use minihive::metastore::Metastore;
    use parking_lot::Mutex;
    use std::sync::Arc;

    fn session() -> (SparkSession, DiagSink) {
        let sink = DiagSink::new();
        let s = SparkSession::connect(
            Arc::new(Mutex::new(Metastore::new())),
            Arc::new(Mutex::new(MiniHdfs::with_datanodes(3))),
            sink.handle("minispark"),
        );
        (s, sink)
    }

    #[test]
    fn create_insert_select_round_trip() {
        let (s, _) = session();
        s.sql("CREATE TABLE t (a INT, b STRING) STORED AS ORC")
            .unwrap();
        s.sql("INSERT INTO t VALUES (1, 'one')").unwrap();
        let r = s.sql("SELECT * FROM t").unwrap();
        assert_eq!(r.rows, vec![vec![Value::Int(1), Value::Str("one".into())]]);
    }

    #[test]
    fn ansi_insert_raises_on_overflow() {
        let (s, _) = session();
        s.sql("CREATE TABLE t (a TINYINT)").unwrap();
        // TINYINT was widened to INT by the DDL layer (D03), so 300 fits!
        s.sql("INSERT INTO t VALUES (300)").unwrap();
        let r = s.sql("SELECT * FROM t").unwrap();
        assert_eq!(r.rows[0][0], Value::Int(300));
        // A genuine overflow on a non-widened type raises.
        s.sql("CREATE TABLE u (a INT)").unwrap();
        let err = s.sql("INSERT INTO u VALUES (99999999999)").unwrap_err();
        assert_eq!(err.code(), "CAST_OVERFLOW");
    }

    #[test]
    fn legacy_policy_nulls_instead() {
        let (mut s, _) = session();
        s.config
            .set(crate::config::STORE_ASSIGNMENT_POLICY, "LEGACY");
        s.sql("CREATE TABLE t (a INT)").unwrap();
        s.sql("INSERT INTO t VALUES (99999999999)").unwrap();
        let r = s.sql("SELECT * FROM t").unwrap();
        assert_eq!(r.rows[0][0], Value::Null);
    }

    #[test]
    fn decimal_excess_precision_raises_under_ansi() {
        let (s, _) = session();
        s.sql("CREATE TABLE t (d DECIMAL(10,2))").unwrap();
        let err = s.sql("INSERT INTO t VALUES (123.456)").unwrap_err();
        assert_eq!(err.code(), "CAST_OVERFLOW");
        s.sql("INSERT INTO t VALUES (123.45)").unwrap();
        let r = s.sql("SELECT * FROM t").unwrap();
        assert_eq!(
            r.rows[0][0],
            Value::Decimal(Decimal::new(12345, 10, 2).unwrap())
        );
    }

    #[test]
    fn dotted_literals_are_decimals_not_doubles() {
        let (s, _) = session();
        let v = SparkSql::new(&s).eval(&Expr::Number("1.5".into())).unwrap();
        assert_eq!(v, Value::Decimal(Decimal::parse("1.5").unwrap()));
    }

    #[test]
    fn varchar_overflow_raises() {
        let (s, _) = session();
        s.sql("CREATE TABLE t (v VARCHAR(4))").unwrap();
        let err = s.sql("INSERT INTO t VALUES ('abcdef')").unwrap_err();
        assert_eq!(err.code(), "EXCEEDS_CHAR_VARCHAR_LENGTH");
    }

    #[test]
    fn char_round_trip_is_padded() {
        let (s, _) = session();
        s.sql("CREATE TABLE t (c CHAR(6))").unwrap();
        s.sql("INSERT INTO t VALUES ('ab')").unwrap();
        let r = s.sql("SELECT * FROM t").unwrap();
        assert_eq!(r.rows[0][0], Value::Str("ab    ".into()));
    }

    #[test]
    fn invalid_date_literal_raises() {
        let (s, _) = session();
        s.sql("CREATE TABLE t (d DATE)").unwrap();
        let err = s
            .sql("INSERT INTO t VALUES (DATE '2021-02-30')")
            .unwrap_err();
        assert_eq!(err.code(), "CAST_INVALID_INPUT");
    }

    #[test]
    fn projection_reports_resolved_names() {
        let (s, _) = session();
        s.sql("CREATE TABLE t (CamelCol INT)").unwrap();
        s.sql("INSERT INTO t VALUES (1)").unwrap();
        // The SparkSQL DDL path lost the case; resolution falls back to
        // the Hive schema.
        let r = s.sql("SELECT camelcol FROM t").unwrap();
        assert_eq!(r.columns, vec!["camelcol"]);
        assert!(s.sql("SELECT missing FROM t").is_err());
    }

    #[test]
    fn where_clauses_filter_under_ansi_casting() {
        let (s, _) = session();
        s.sql("CREATE TABLE t (a INT, name STRING)").unwrap();
        s.sql("INSERT INTO t VALUES (1, 'one'), (2, 'two'), (3, 'three'), (NULL, 'none')")
            .unwrap();
        let r = s.sql("SELECT * FROM t WHERE a <= 2").unwrap();
        assert_eq!(r.rows.len(), 2);
        let r = s
            .sql("SELECT name FROM t WHERE a = 2 AND name != 'x'")
            .unwrap();
        assert_eq!(r.rows, vec![vec![Value::Str("two".into())]]);
        // The discrepancy surface: a garbage literal *raises* under ANSI
        // where Hive silently matches nothing.
        let err = s.sql("SELECT * FROM t WHERE a = 'junk'").unwrap_err();
        assert_eq!(err.code(), "CAST_INVALID_INPUT");
        assert!(s.sql("SELECT * FROM t WHERE nope = 1").is_err());
    }

    #[test]
    fn repeated_projection_over_two_part_files_in_every_interface() {
        let sink = DiagSink::new();
        let metastore = Arc::new(Mutex::new(Metastore::new()));
        let fs = Arc::new(Mutex::new(MiniHdfs::with_datanodes(3)));
        let s = SparkSession::connect(metastore.clone(), fs.clone(), sink.handle("minispark"));
        let hive = minihive::HiveQl::new(metastore, fs, sink.handle("minihive"));
        let schema = vec![
            StructField::new("Name", csi_core::DataType::Char(4)),
            StructField::new("A", csi_core::DataType::Int),
        ];
        s.dataframe()
            .create_table("t", &schema, minihive::StorageFormat::Orc)
            .unwrap();
        s.sql("INSERT INTO t VALUES ('x', 1), ('yy', 2)").unwrap();
        hive.execute("INSERT INTO t VALUES ('zzz', 3)").unwrap();
        let query = "SELECT name, a, name FROM t WHERE a > 1";
        let padded =
            |v: &str, a: i32| vec![Value::Str(v.into()), Value::Int(a), Value::Str(v.into())];
        let expected = vec![padded("yy  ", 2), padded("zzz ", 3)];
        let r = s.sql(query).unwrap();
        assert_eq!(r.columns, vec!["Name", "A", "Name"]);
        assert_eq!(r.rows, expected);
        let r = hive.execute(query).unwrap();
        assert_eq!(r.columns, vec!["name", "a", "name"]);
        assert_eq!(r.rows, expected);
        let (_, rows) = s.dataframe().read_table("t").unwrap();
        let trimmed = |v: &str, a: i32| vec![Value::Str(v.into()), Value::Int(a)];
        assert_eq!(
            rows,
            vec![trimmed("x", 1), trimmed("yy", 2), trimmed("zzz", 3)]
        );
    }

    #[test]
    fn interval_create_rejected_by_default() {
        let (s, _) = session();
        let err = s.sql("CREATE TABLE t (i INTERVAL)").unwrap_err();
        assert_eq!(err.code(), "UNSUPPORTED_HIVE_TYPE");
    }
}
