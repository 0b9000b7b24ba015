//! The HiveQL interface.
//!
//! Executes the shared SQL grammar under Hive's semantics: identifiers fold
//! to lowercase, literals follow Hive's typing rules, and inserted values
//! are coerced **leniently** (unrepresentable values become NULL with a log
//! line). Reads return CHAR columns blank-padded and report Hive's own
//! lowercase column and struct-field names.

use crate::error::HiveError;
use crate::metastore::{lock_warehouse, Metastore, SharedFs, StorageFormat, TableDef};
use crate::serde_layer;
use crate::types::HiveType;
use crate::value::{coerce, render, MAX_DATE_DAYS, MIN_DATE_DAYS};
use csi_core::column::{ColumnValues, ValueColumn};
use csi_core::diag::DiagHandle;
use csi_core::sql::{self, eval_interval_parts, Expr, NumSuffix, SelectCols, Statement};
use csi_core::value::{parse_date, parse_timestamp, Decimal, Value};
use parking_lot::Mutex;
use std::sync::Arc;

/// A shared metastore handle (Hive and its upstreams see the same catalog).
pub type SharedMetastore = Arc<Mutex<Metastore>>;

/// Result of a HiveQL statement.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct QueryResult {
    /// Result column names (lowercase), empty for DDL/DML.
    pub columns: Vec<String>,
    /// Result rows.
    pub rows: Vec<Vec<Value>>,
}

/// The HiveQL session.
///
/// # Examples
///
/// ```
/// use csi_core::diag::DiagSink;
/// use minihdfs::MiniHdfs;
/// use minihive::metastore::Metastore;
/// use minihive::HiveQl;
/// use parking_lot::Mutex;
/// use std::sync::Arc;
///
/// let sink = DiagSink::new();
/// let hive = HiveQl::new(
///     Arc::new(Mutex::new(Metastore::new())),
///     Arc::new(Mutex::new(MiniHdfs::with_datanodes(3))),
///     sink.handle("minihive"),
/// );
/// hive.execute("CREATE TABLE t (a INT) STORED AS ORC").unwrap();
/// hive.execute("INSERT INTO t VALUES (1), (2)").unwrap();
/// let r = hive.execute("SELECT * FROM t WHERE a > 1").unwrap();
/// assert_eq!(r.rows.len(), 1);
/// ```
#[derive(Clone)]
pub struct HiveQl {
    metastore: SharedMetastore,
    fs: SharedFs,
    diag: DiagHandle,
}

impl HiveQl {
    /// Creates a session over a shared metastore and warehouse filesystem.
    pub fn new(metastore: SharedMetastore, fs: SharedFs, diag: DiagHandle) -> HiveQl {
        HiveQl {
            metastore,
            fs,
            diag,
        }
    }

    /// The shared metastore.
    pub fn metastore(&self) -> &SharedMetastore {
        &self.metastore
    }

    /// Executes one HiveQL statement.
    pub fn execute(&self, sql_text: &str) -> Result<QueryResult, HiveError> {
        let stmt = sql::parse(sql_text).map_err(|e| HiveError::Parse(e.to_string()))?;
        match stmt {
            Statement::CreateTable {
                name,
                columns,
                stored_as,
                if_not_exists,
            } => self.create_table(&name, columns, stored_as.as_deref(), if_not_exists),
            Statement::DropTable { name, if_exists } => self.drop_table(&name, if_exists),
            Statement::Insert { table, rows } => self.insert(&table, rows),
            Statement::Select {
                columns,
                table,
                predicate,
            } => self.select(&table, columns, &predicate),
        }
    }

    fn create_table(
        &self,
        name: &str,
        columns: Vec<(String, csi_core::DataType)>,
        stored_as: Option<&str>,
        if_not_exists: bool,
    ) -> Result<QueryResult, HiveError> {
        let format = StorageFormat::from_stored_as(stored_as)?;
        let hive_columns = columns
            .into_iter()
            .map(|(n, dt)| Ok((n, HiveType::from_data_type(&dt)?)))
            .collect::<Result<Vec<_>, HiveError>>()?;
        let mut ms = self.metastore.lock();
        let def = ms
            .create_table("default", name, hive_columns, format, if_not_exists)?
            .clone();
        drop(ms);
        self.fs
            .lock()
            .mkdirs(&def.location)
            .map_err(|e| HiveError::Storage(e.to_string()))?;
        Ok(QueryResult::default())
    }

    fn drop_table(&self, name: &str, if_exists: bool) -> Result<QueryResult, HiveError> {
        let (mut fs, mut ms) = lock_warehouse(&self.fs, &self.metastore);
        ms.drop_table("default", name, if_exists, &mut fs)?;
        Ok(QueryResult::default())
    }

    fn insert(&self, table: &str, rows: Vec<Vec<Expr>>) -> Result<QueryResult, HiveError> {
        let (def, part) = {
            let mut ms = self.metastore.lock();
            let def = ms.get_table("default", table)?.clone();
            let part = ms.next_part_path(&def);
            (def, part)
        };
        let mut coerced_rows = Vec::with_capacity(rows.len());
        for row in rows {
            if row.len() != def.columns.len() {
                return Err(HiveError::Arity {
                    expected: def.columns.len(),
                    got: row.len(),
                });
            }
            let mut out = Vec::with_capacity(row.len());
            for (expr, col) in row.iter().zip(&def.columns) {
                let raw = self.eval(expr)?;
                out.push(coerce(&raw, &col.hive_type, &self.diag)?);
            }
            coerced_rows.push(out);
        }
        let bytes = serde_layer::write_file(def.format, &def.columns, &coerced_rows, &self.diag)?;
        self.fs
            .lock()
            .create(&part, &bytes)
            .map_err(|e| HiveError::Storage(e.to_string()))?;
        Ok(QueryResult::default())
    }

    /// Bulk `INSERT INTO` over column buffers — the columnar counterpart of
    /// the HiveQL `INSERT` path. Columns whose buffer already inhabits the
    /// target Hive type skip the per-cell lenient coercion entirely;
    /// anything else (decimals, CHAR/VARCHAR, type-skewed or out-of-range
    /// buffers) replays `coerce` per cell, with identical warnings.
    pub fn insert_columns(&self, table: &str, cols: &[ValueColumn]) -> Result<(), HiveError> {
        let (def, part) = {
            let mut ms = self.metastore.lock();
            let def = ms.get_table("default", table)?.clone();
            let part = ms.next_part_path(&def);
            (def, part)
        };
        if cols.len() != def.columns.len() {
            return Err(HiveError::Arity {
                expected: def.columns.len(),
                got: cols.len(),
            });
        }
        let mut coerced = Vec::with_capacity(cols.len());
        for (col, def_col) in cols.iter().zip(&def.columns) {
            if column_coerces_identically(&def_col.hive_type, col) {
                coerced.push(col.clone());
                continue;
            }
            let ty = def_col.hive_type.to_data_type();
            let mut out = ValueColumn::with_capacity(&ty, col.len());
            for i in 0..col.len() {
                out.push(&coerce(&col.get(i), &def_col.hive_type, &self.diag)?);
            }
            coerced.push(out);
        }
        let bytes = serde_layer::write_columns(def.format, &def.columns, &coerced, &self.diag)?;
        self.fs
            .lock()
            .create(&part, &bytes)
            .map_err(|e| HiveError::Storage(e.to_string()))
    }

    /// Bulk `SELECT *` over column buffers.
    pub fn read_table_columns(&self, table: &str) -> Result<Vec<ValueColumn>, HiveError> {
        let def = self.metastore.lock().get_table("default", table)?.clone();
        self.read_columns(&def)
    }

    /// Reads every data file of a table, in path order, into column
    /// buffers — the one read path behind `SELECT` and
    /// [`HiveQl::read_table_columns`]. Each file is read only after the
    /// previous one decoded.
    fn read_columns(&self, def: &TableDef) -> Result<Vec<ValueColumn>, HiveError> {
        let (fs, ms) = lock_warehouse(&self.fs, &self.metastore);
        let files = ms.table_data_files(def, &fs)?;
        drop(ms);
        let mut acc: Option<Vec<ValueColumn>> = None;
        for path in files {
            let bytes = fs
                .read(&path)
                .map_err(|e| HiveError::Storage(e.to_string()))?;
            let cols = serde_layer::read_columns(def.format, &def.columns, &bytes, &self.diag)?;
            match &mut acc {
                None => acc = Some(cols),
                Some(existing) => {
                    for (dst, src) in existing.iter_mut().zip(&cols) {
                        dst.extend_from(src);
                    }
                }
            }
        }
        Ok(acc.unwrap_or_else(|| {
            def.columns
                .iter()
                .map(|c| ValueColumn::for_type(&c.hive_type.to_data_type()))
                .collect()
        }))
    }

    fn select(
        &self,
        table: &str,
        columns: SelectCols,
        predicate: &[csi_core::sql::Comparison],
    ) -> Result<QueryResult, HiveError> {
        let def = self.metastore.lock().get_table("default", table)?.clone();
        let cols = self.read_columns(&def)?;
        let resolve = |column: &str| {
            def.column_index(column)
                .ok_or_else(|| HiveError::UnknownColumn {
                    table: def.name.clone(),
                    column: column.to_string(),
                })
        };
        // Hive evaluates each comparison after leniently coercing the
        // literal to the column's type; unknown comparisons drop rows.
        let mut filters = Vec::with_capacity(predicate.len());
        for cmp in predicate {
            let idx = resolve(&cmp.column)?;
            let raw = self.eval(&cmp.literal)?;
            let lit = coerce(&raw, &def.columns[idx].hive_type, &self.diag)?;
            filters.push((idx, cmp.op, lit));
        }
        let idx: Vec<usize> = match columns {
            SelectCols::Star => (0..def.columns.len()).collect(),
            SelectCols::Columns(names) => {
                names.iter().map(|n| resolve(n)).collect::<Result<_, _>>()?
            }
        };
        Ok(QueryResult {
            columns: idx.iter().map(|i| def.columns[*i].name.clone()).collect(),
            rows: sql::select_rows(&cols, &filters, &idx),
        })
    }

    /// Evaluates a literal expression under Hive's typing rules.
    pub fn eval(&self, expr: &Expr) -> Result<Value, HiveError> {
        Ok(match expr {
            Expr::Null => Value::Null,
            Expr::Bool(b) => Value::Boolean(*b),
            Expr::Number(raw) => {
                if raw.contains('.') {
                    // Hive types floating literals as DOUBLE.
                    Value::Double(raw.parse().map_err(|_| HiveError::Parse(raw.clone()))?)
                } else if let Ok(v) = raw.parse::<i32>() {
                    Value::Int(v)
                } else if let Ok(v) = raw.parse::<i64>() {
                    Value::Long(v)
                } else {
                    Value::Decimal(
                        Decimal::parse(raw).map_err(|e| HiveError::Parse(e.to_string()))?,
                    )
                }
            }
            Expr::TypedNumber(raw, suffix) => match suffix {
                NumSuffix::Byte => {
                    Value::Byte(raw.parse().map_err(|_| HiveError::Parse(raw.clone()))?)
                }
                NumSuffix::Short => {
                    Value::Short(raw.parse().map_err(|_| HiveError::Parse(raw.clone()))?)
                }
                NumSuffix::Long => {
                    Value::Long(raw.parse().map_err(|_| HiveError::Parse(raw.clone()))?)
                }
                NumSuffix::Decimal => Value::Decimal(
                    Decimal::parse(raw).map_err(|e| HiveError::Parse(e.to_string()))?,
                ),
                NumSuffix::Double => {
                    Value::Double(raw.parse().map_err(|_| HiveError::Parse(raw.clone()))?)
                }
                NumSuffix::Float => {
                    Value::Float(raw.parse().map_err(|_| HiveError::Parse(raw.clone()))?)
                }
            },
            Expr::Str(s) => Value::Str(s.clone()),
            Expr::Binary(b) => Value::Binary(b.clone()),
            Expr::DateLit(s) => match parse_date(s.trim()) {
                Some(d) => Value::Date(d),
                None => {
                    // Hive is lenient even for malformed literals.
                    self.diag.warn(
                        "HIVE_BAD_DATE_LITERAL",
                        format!("invalid DATE literal {s:?}, using NULL"),
                    );
                    Value::Null
                }
            },
            Expr::TimestampLit(s) => match parse_timestamp(s.trim()) {
                Some(us) => Value::Timestamp(us),
                None => {
                    self.diag.warn(
                        "HIVE_BAD_TIMESTAMP_LITERAL",
                        format!("invalid TIMESTAMP literal {s:?}, using NULL"),
                    );
                    Value::Null
                }
            },
            Expr::IntervalLit { parts } => {
                let (months, micros) = eval_interval_parts(parts).map_err(HiveError::Parse)?;
                Value::Interval { months, micros }
            }
            Expr::Cast(inner, ty) => {
                let v = self.eval(inner)?;
                let ht = HiveType::from_data_type(ty)?;
                coerce(&v, &ht, &self.diag)?
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
                    .collect::<Result<Vec<_>, HiveError>>()?,
            ),
            Expr::NamedStruct(fields) => Value::Struct(
                fields
                    .iter()
                    .map(|(n, v)| Ok((n.clone(), self.eval(v)?)))
                    .collect::<Result<Vec<_>, HiveError>>()?,
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
                    return Err(HiveError::Parse(format!(
                        "cannot negate {}",
                        render(&other)
                    )))
                }
            },
        })
    }
}

/// Whether a whole column buffer survives Hive's lenient `coerce`
/// byte-for-byte, so the per-cell replay (and its warning plumbing) can be
/// skipped. Only (target, lane) pairs proven identity qualify: exact-variant
/// integrals and booleans, doubles, strings into STRING, and binary.
/// DATE/TIMESTAMP additionally require every slot in the supported range,
/// because `coerce` NULLs (and warns on) out-of-range values. FLOAT is
/// excluded: the row path round-trips f32 through f64, which can quiet
/// signalling NaN payloads. DECIMAL and CHAR/VARCHAR always rescale or pad.
fn column_coerces_identically(ty: &HiveType, col: &ValueColumn) -> bool {
    const MIN_TS: i64 = MIN_DATE_DAYS as i64 * 86_400_000_000;
    const MAX_TS: i64 = (MAX_DATE_DAYS as i64 + 1) * 86_400_000_000 - 1;
    match (ty, col.values()) {
        (HiveType::Boolean, ColumnValues::Boolean(_))
        | (HiveType::TinyInt, ColumnValues::Byte(_))
        | (HiveType::SmallInt, ColumnValues::Short(_))
        | (HiveType::Int, ColumnValues::Int(_))
        | (HiveType::BigInt, ColumnValues::Long(_))
        | (HiveType::Double, ColumnValues::Double(_))
        | (HiveType::Str, ColumnValues::Str { .. })
        | (HiveType::Binary, ColumnValues::Binary { .. }) => true,
        // NULL slots hold a zero placeholder, which is in range, so the
        // whole lane can be scanned without consulting the validity bitmap.
        (HiveType::Date, ColumnValues::Date(days)) => days
            .iter()
            .all(|d| (MIN_DATE_DAYS..=MAX_DATE_DAYS).contains(d)),
        (HiveType::Timestamp, ColumnValues::Timestamp(us)) => {
            us.iter().all(|v| (MIN_TS..=MAX_TS).contains(v))
        }
        _ => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use csi_core::diag::DiagSink;
    use minihdfs::MiniHdfs;

    fn session() -> (HiveQl, DiagSink) {
        let sink = DiagSink::new();
        let hive = HiveQl::new(
            Arc::new(Mutex::new(Metastore::new())),
            Arc::new(Mutex::new(MiniHdfs::with_datanodes(3))),
            sink.handle("minihive"),
        );
        (hive, sink)
    }

    #[test]
    fn create_insert_select_round_trip() {
        let (hive, _) = session();
        hive.execute("CREATE TABLE t (a INT, b STRING) STORED AS ORC")
            .unwrap();
        hive.execute("INSERT INTO t VALUES (1, 'one'), (2, 'two')")
            .unwrap();
        let r = hive.execute("SELECT * FROM t").unwrap();
        assert_eq!(r.columns, vec!["a", "b"]);
        assert_eq!(
            r.rows,
            vec![
                vec![Value::Int(1), Value::Str("one".into())],
                vec![Value::Int(2), Value::Str("two".into())],
            ]
        );
    }

    #[test]
    fn projection_is_case_insensitive() {
        let (hive, _) = session();
        hive.execute("CREATE TABLE t (CamelCol INT)").unwrap();
        hive.execute("INSERT INTO t VALUES (5)").unwrap();
        let r = hive.execute("SELECT CAMELCOL FROM t").unwrap();
        assert_eq!(r.columns, vec!["camelcol"]); // Hive's own name.
        assert_eq!(r.rows[0][0], Value::Int(5));
        assert!(matches!(
            hive.execute("SELECT nope FROM t"),
            Err(HiveError::UnknownColumn { .. })
        ));
    }

    #[test]
    fn lenient_insert_writes_null_with_warning() {
        let (hive, sink) = session();
        hive.execute("CREATE TABLE t (a TINYINT)").unwrap();
        hive.execute("INSERT INTO t VALUES (300)").unwrap();
        let r = hive.execute("SELECT * FROM t").unwrap();
        assert_eq!(r.rows[0][0], Value::Null);
        assert!(sink
            .drain()
            .iter()
            .any(|d| d.code == "HIVE_INTEGRAL_OUT_OF_RANGE"));
    }

    #[test]
    fn char_values_come_back_padded() {
        let (hive, _) = session();
        hive.execute("CREATE TABLE t (c CHAR(8))").unwrap();
        hive.execute("INSERT INTO t VALUES ('abc')").unwrap();
        let r = hive.execute("SELECT * FROM t").unwrap();
        assert_eq!(r.rows[0][0], Value::Str("abc     ".into()));
    }

    #[test]
    fn interval_columns_are_unsupported() {
        let (hive, _) = session();
        assert!(matches!(
            hive.execute("CREATE TABLE t (i INTERVAL)"),
            Err(HiveError::UnsupportedType { .. })
        ));
    }

    #[test]
    fn interval_values_cast_to_string_only() {
        let (hive, _) = session();
        hive.execute("CREATE TABLE t (s STRING)").unwrap();
        hive.execute("INSERT INTO t VALUES (INTERVAL 3 MONTH)")
            .unwrap();
        let r = hive.execute("SELECT * FROM t").unwrap();
        assert_eq!(r.rows[0][0], Value::Str("3 months 0 us".into()));
    }

    #[test]
    fn string_boolean_leniency_through_sql() {
        let (hive, _) = session();
        hive.execute("CREATE TABLE t (b BOOLEAN)").unwrap();
        hive.execute("INSERT INTO t VALUES ('t'), ('no'), ('wat')")
            .unwrap();
        let r = hive.execute("SELECT * FROM t").unwrap();
        assert_eq!(
            r.rows,
            vec![
                vec![Value::Boolean(true)],
                vec![Value::Boolean(false)],
                vec![Value::Null],
            ]
        );
    }

    #[test]
    fn numeric_literal_typing() {
        let (hive, _) = session();
        assert_eq!(hive.eval(&Expr::Number("5".into())).unwrap(), Value::Int(5));
        assert_eq!(
            hive.eval(&Expr::Number("5000000000".into())).unwrap(),
            Value::Long(5_000_000_000)
        );
        assert_eq!(
            hive.eval(&Expr::Number("1.5".into())).unwrap(),
            Value::Double(1.5)
        );
    }

    #[test]
    fn multiple_inserts_accumulate_part_files() {
        let (hive, _) = session();
        hive.execute("CREATE TABLE t (a INT)").unwrap();
        for i in 0..3 {
            hive.execute(&format!("INSERT INTO t VALUES ({i})"))
                .unwrap();
        }
        let r = hive.execute("SELECT * FROM t").unwrap();
        assert_eq!(r.rows.len(), 3);
    }

    #[test]
    fn where_clauses_filter_with_lenient_coercion() {
        let (hive, _) = session();
        hive.execute("CREATE TABLE t (a INT, name STRING)").unwrap();
        hive.execute("INSERT INTO t VALUES (1, 'one'), (2, 'two'), (3, 'three'), (NULL, 'none')")
            .unwrap();
        let r = hive.execute("SELECT * FROM t WHERE a >= 2").unwrap();
        assert_eq!(r.rows.len(), 2);
        let r = hive
            .execute("SELECT name FROM t WHERE a > 1 AND name = 'two'")
            .unwrap();
        assert_eq!(r.rows, vec![vec![Value::Str("two".into())]]);
        // NULL rows never match (three-valued logic).
        let r = hive.execute("SELECT * FROM t WHERE a != 99").unwrap();
        assert_eq!(r.rows.len(), 3);
        // Hive leniently coerces a string literal to the column type.
        let r = hive.execute("SELECT * FROM t WHERE a = '2'").unwrap();
        assert_eq!(r.rows.len(), 1);
        // An uncoercible literal becomes NULL: nothing matches, no error.
        let r = hive.execute("SELECT * FROM t WHERE a = 'junk'").unwrap();
        assert!(r.rows.is_empty());
        assert!(matches!(
            hive.execute("SELECT * FROM t WHERE nope = 1"),
            Err(HiveError::UnknownColumn { .. })
        ));
    }

    #[test]
    fn drop_table_removes_data() {
        let (hive, _) = session();
        hive.execute("CREATE TABLE t (a INT)").unwrap();
        hive.execute("INSERT INTO t VALUES (1)").unwrap();
        hive.execute("DROP TABLE t").unwrap();
        assert!(matches!(
            hive.execute("SELECT * FROM t"),
            Err(HiveError::UnknownTable(_))
        ));
        hive.execute("DROP TABLE IF EXISTS t").unwrap();
        // And the name is reusable with fresh data.
        hive.execute("CREATE TABLE t (a INT)").unwrap();
        assert!(hive.execute("SELECT * FROM t").unwrap().rows.is_empty());
    }

    #[test]
    fn avro_map_with_int_keys_fails_but_orc_succeeds() {
        let (hive, _) = session();
        hive.execute("CREATE TABLE o (m MAP<INT,STRING>) STORED AS ORC")
            .unwrap();
        hive.execute("INSERT INTO o VALUES (MAP(1, 'x'))").unwrap();
        assert_eq!(hive.execute("SELECT * FROM o").unwrap().rows.len(), 1);
        hive.execute("CREATE TABLE a (m MAP<INT,STRING>) STORED AS AVRO")
            .unwrap();
        let err = hive
            .execute("INSERT INTO a VALUES (MAP(1, 'x'))")
            .unwrap_err();
        assert!(matches!(err, HiveError::SerDe { .. }));
    }
}
