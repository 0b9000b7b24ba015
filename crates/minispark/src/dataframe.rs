//! The DataFrame interface.
//!
//! Programmatic writer/reader whose row encoder follows Spark's **legacy**
//! coercion path regardless of `spark.sql.storeAssignmentPolicy`: values
//! that cannot be represented become NULL **silently** (SPARK-40439's
//! "evaluate to NULL by DataFrame"), out-of-range dates pass through unless
//! `spark.sql.dataframe.dateRangeCheck` is set (SPARK-40630 / D15), and
//! CHAR values come back with trailing blanks trimmed (the D13 half that
//! differs from SparkSQL's padded reads).

use crate::config::StoreAssignmentPolicy;
use crate::error::SparkError;
use crate::session::{DdlPath, SparkSession};
use crate::types::{store_assign, CastOptions};
use csi_core::column::{rows_from_columns, ColumnValues, ValueColumn};
use csi_core::value::{DataType, StructField, Value};
use minihive::metastore::StorageFormat;

/// The DataFrame writer/reader over a session.
pub struct DataFrameApi<'a> {
    session: &'a SparkSession,
}

impl<'a> DataFrameApi<'a> {
    /// Wraps a session.
    pub fn new(session: &'a SparkSession) -> DataFrameApi<'a> {
        DataFrameApi { session }
    }

    fn cast_options(&self) -> CastOptions {
        CastOptions {
            policy: StoreAssignmentPolicy::Legacy,
            char_varchar_as_string: self.session.config.char_varchar_as_string(),
            date_range_check: self.session.config.dataframe_date_range_check(),
        }
    }

    /// `df.write.format(fmt).saveAsTable(name)` — creates the table.
    pub fn create_table(
        &self,
        name: &str,
        schema: &[StructField],
        format: StorageFormat,
    ) -> Result<(), SparkError> {
        self.session
            .create_hive_table(name, schema, format, DdlPath::DataFrame, false)
    }

    /// `df.write.insertInto(name)` — appends rows.
    pub fn insert_into(&self, name: &str, rows: &[Vec<Value>]) -> Result<(), SparkError> {
        let def = self.session.table_def(name)?;
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
            for (v, field) in row.iter().zip(&schema) {
                if opts.date_range_check && crate::types::has_out_of_range_datetime(v) {
                    self.session.diag().warn(
                        "DATE_RANGE_COERCED",
                        format!(
                            "value for column {} is outside 0001-01-01..9999-12-31, writing NULL",
                            field.name
                        ),
                    );
                }
                out.push(store_assign(v, &field.data_type, opts)?);
            }
            cast_rows.push(out);
        }
        self.session.write_rows(&def, &schema, &cast_rows)
    }

    /// `df.write.insertInto(name)` over column buffers — the bulk
    /// counterpart of [`DataFrameApi::insert_into`]. Columns whose buffer
    /// already inhabits the target type skip the per-cell cast entirely;
    /// anything else (decimals, CHAR/VARCHAR, type-skewed or out-of-range
    /// buffers) replays the row path's `store_assign` per cell.
    pub fn insert_columns(&self, name: &str, cols: &[ValueColumn]) -> Result<(), SparkError> {
        let def = self.session.table_def(name)?;
        let schema = self.session.resolve_schema(&def);
        if cols.len() != schema.len() {
            return Err(SparkError::Arity {
                expected: schema.len(),
                got: cols.len(),
            });
        }
        let opts = self.cast_options();
        let mut cast_cols = Vec::with_capacity(cols.len());
        for (field, col) in schema.iter().zip(cols) {
            if column_passes_through(&field.data_type, col, opts) {
                cast_cols.push(col.clone());
                continue;
            }
            let mut out = ValueColumn::with_capacity(&field.data_type, col.len());
            for i in 0..col.len() {
                let v = col.get(i);
                if opts.date_range_check && crate::types::has_out_of_range_datetime(&v) {
                    self.session.diag().warn(
                        "DATE_RANGE_COERCED",
                        format!(
                            "value for column {} is outside 0001-01-01..9999-12-31, writing NULL",
                            field.name
                        ),
                    );
                }
                out.push(&store_assign(&v, &field.data_type, opts)?);
            }
            cast_cols.push(out);
        }
        self.session.write_columns(&def, &schema, &cast_cols)
    }

    /// `spark.table(name).collect()` over column buffers — the one read
    /// path; [`DataFrameApi::read_table`] transposes its result.
    pub fn read_table_columns(
        &self,
        name: &str,
    ) -> Result<(Vec<StructField>, Vec<ValueColumn>), SparkError> {
        let def = self.session.table_def(name)?;
        let schema = self.session.resolve_schema(&def);
        let mut cols = self.session.read_columns(&def, &schema)?;
        if !self.session.config.char_varchar_as_string() {
            // The DataFrame reader trims CHAR padding (D13's upstream half).
            for (field, col) in schema.iter().zip(cols.iter_mut()) {
                trim_char_column(&field.data_type, col);
            }
        }
        Ok((schema, cols))
    }

    /// `spark.table(name).collect()` — reads all rows.
    pub fn read_table(
        &self,
        name: &str,
    ) -> Result<(Vec<StructField>, Vec<Vec<Value>>), SparkError> {
        let (schema, cols) = self.read_table_columns(name)?;
        Ok((schema, rows_from_columns(&cols)))
    }
}

/// Whether a whole column buffer survives `store_assign` under the Legacy
/// policy byte-for-byte, so the per-cell replay can be skipped.
///
/// Only (target, lane) pairs proven identity in `legacy_cast` qualify:
/// exact-variant integrals and booleans, doubles, strings into STRING,
/// binary, intervals, and dates/timestamps when the range check is off
/// (the check both warns and, for dates, NULLs — both need the row replay).
/// FLOAT is excluded: the row path round-trips f32 through f64, which can
/// quiet signalling NaN payloads, and pass-through must not diverge from it.
fn column_passes_through(ty: &DataType, col: &ValueColumn, opts: CastOptions) -> bool {
    match (ty, col.values()) {
        (DataType::Boolean, ColumnValues::Boolean(_))
        | (DataType::Byte, ColumnValues::Byte(_))
        | (DataType::Short, ColumnValues::Short(_))
        | (DataType::Int, ColumnValues::Int(_))
        | (DataType::Long, ColumnValues::Long(_))
        | (DataType::Double, ColumnValues::Double(_))
        | (DataType::String, ColumnValues::Str { .. })
        | (DataType::Binary, ColumnValues::Binary { .. })
        | (DataType::Interval, ColumnValues::Interval { .. }) => true,
        (DataType::Date, ColumnValues::Date(_))
        | (DataType::Timestamp, ColumnValues::Timestamp(_)) => !opts.date_range_check,
        _ => false,
    }
}

/// Drops trailing blanks from CHAR string buffers in place, recursing
/// into `Mixed` lanes (nested types) cell by cell through [`trim_char`].
fn trim_char_column(ty: &DataType, col: &mut ValueColumn) {
    match (ty, col.values_mut()) {
        (DataType::Char(_), ColumnValues::Str { offsets, bytes }) => {
            let mut out_bytes = Vec::with_capacity(bytes.len());
            let mut end = 0usize;
            for w in offsets.iter_mut() {
                let cell = &bytes[end..*w];
                end = *w;
                let trimmed = cell.len() - cell.iter().rev().take_while(|b| **b == b' ').count();
                out_bytes.extend_from_slice(&cell[..trimmed]);
                *w = out_bytes.len();
            }
            *bytes = out_bytes;
        }
        (_, ColumnValues::Mixed(values)) => {
            for v in values {
                trim_char(ty, v);
            }
        }
        _ => {}
    }
}

fn trim_char(ty: &DataType, value: &mut Value) {
    match (ty, value) {
        (DataType::Char(_), Value::Str(s)) => {
            while s.ends_with(' ') {
                s.pop();
            }
        }
        (DataType::Array(et), Value::Array(items)) => {
            for item in items {
                trim_char(et, item);
            }
        }
        (DataType::Map(kt, vt), Value::Map(pairs)) => {
            for (k, v) in pairs {
                trim_char(kt, k);
                trim_char(vt, v);
            }
        }
        (DataType::Struct(fields), Value::Struct(values)) => {
            for (f, (_, v)) in fields.iter().zip(values) {
                trim_char(&f.data_type, v);
            }
        }
        _ => {}
    }
}

impl SparkSession {
    /// Shorthand for the DataFrame API on this session.
    pub fn dataframe(&self) -> DataFrameApi<'_> {
        DataFrameApi::new(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use csi_core::diag::DiagSink;
    use csi_core::value::Decimal;
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
    fn dataframe_round_trip() {
        let (s, _) = session();
        let df = s.dataframe();
        let schema = vec![StructField::new("a", DataType::Int)];
        df.create_table("t", &schema, StorageFormat::Orc).unwrap();
        df.insert_into("t", &[vec![Value::Int(7)]]).unwrap();
        let (_, rows) = df.read_table("t").unwrap();
        assert_eq!(rows, vec![vec![Value::Int(7)]]);
    }

    #[test]
    fn overflow_becomes_silent_null() {
        let (s, sink) = session();
        let df = s.dataframe();
        let schema = vec![StructField::new("d", DataType::Decimal(10, 2))];
        df.create_table("t", &schema, StorageFormat::Orc).unwrap();
        sink.drain();
        df.insert_into(
            "t",
            &[vec![Value::Decimal(
                Decimal::parse("123456789012.3").unwrap(),
            )]],
        )
        .unwrap();
        let (_, rows) = df.read_table("t").unwrap();
        assert_eq!(rows[0][0], Value::Null);
        // Silently: no diagnostics were emitted.
        assert!(sink.drain().is_empty());
    }

    #[test]
    fn out_of_range_date_passes_through_by_default() {
        let (s, _) = session();
        let df = s.dataframe();
        let schema = vec![StructField::new("d", DataType::Date)];
        df.create_table("t", &schema, StorageFormat::Orc).unwrap();
        let far = Value::Date(crate::types::MAX_DATE_DAYS + 100);
        df.insert_into("t", &[vec![far.clone()]]).unwrap();
        let (_, rows) = df.read_table("t").unwrap();
        assert_eq!(rows[0][0], far); // D15: inserted and read back.
    }

    #[test]
    fn date_range_check_config_closes_the_hole() {
        let (mut s, _) = session();
        s.config
            .set(crate::config::DATAFRAME_DATE_RANGE_CHECK, "true");
        let df = s.dataframe();
        let schema = vec![StructField::new("d", DataType::Date)];
        df.create_table("t", &schema, StorageFormat::Orc).unwrap();
        let far = Value::Date(crate::types::MAX_DATE_DAYS + 100);
        df.insert_into("t", &[vec![far]]).unwrap();
        let (_, rows) = df.read_table("t").unwrap();
        assert_eq!(rows[0][0], Value::Null);
    }

    #[test]
    fn char_reads_are_trimmed() {
        let (s, _) = session();
        let df = s.dataframe();
        let schema = vec![StructField::new("c", DataType::Char(6))];
        df.create_table("t", &schema, StorageFormat::Orc).unwrap();
        df.insert_into("t", &[vec![Value::Str("ab".into())]])
            .unwrap();
        let (_, rows) = df.read_table("t").unwrap();
        assert_eq!(rows[0][0], Value::Str("ab".into()));
        // SparkSQL reading the same table returns the padded form.
        let r = s.sql("SELECT * FROM t").unwrap();
        assert_eq!(r.rows[0][0], Value::Str("ab    ".into()));
    }

    #[test]
    fn interval_columns_become_strings() {
        let (s, _) = session();
        let df = s.dataframe();
        let schema = vec![StructField::new("i", DataType::Interval)];
        df.create_table("t", &schema, StorageFormat::Orc).unwrap();
        df.insert_into(
            "t",
            &[vec![Value::Interval {
                months: 3,
                micros: 0,
            }]],
        )
        .unwrap();
        let (resolved, rows) = df.read_table("t").unwrap();
        assert_eq!(resolved[0].data_type, DataType::String);
        assert_eq!(rows[0][0], Value::Str("3 months 0 us".into()));
    }

    #[test]
    fn column_insert_matches_row_insert() {
        let (s, _) = session();
        let df = s.dataframe();
        let schema = vec![
            StructField::new("c", DataType::Char(4)),
            StructField::new("n", DataType::Long),
            StructField::new("d", DataType::Decimal(10, 2)),
        ];
        df.create_table("rows", &schema, StorageFormat::Parquet)
            .unwrap();
        df.create_table("cols", &schema, StorageFormat::Parquet)
            .unwrap();
        let rows = vec![
            vec![
                Value::Str("ab".into()),
                Value::Long(7),
                Value::Decimal(Decimal::parse("1.25").unwrap()),
            ],
            vec![Value::Null, Value::Long(-1), Value::Null],
        ];
        df.insert_into("rows", &rows).unwrap();
        let types: Vec<DataType> = schema.iter().map(|f| f.data_type.clone()).collect();
        let cols = csi_core::column::columns_from_rows(&types, &rows).unwrap();
        df.insert_columns("cols", &cols).unwrap();
        let (_, row_read) = df.read_table("rows").unwrap();
        let (_, col_read) = df.read_table_columns("cols").unwrap();
        assert_eq!(rows_from_columns(&col_read), row_read);
    }

    #[test]
    fn byte_via_avro_cannot_be_read_back() {
        // SPARK-39075 (D01) through the public API.
        let (s, _) = session();
        let df = s.dataframe();
        let schema = vec![StructField::new("b", DataType::Byte)];
        df.create_table("t", &schema, StorageFormat::Avro).unwrap();
        df.insert_into("t", &[vec![Value::Byte(5)]]).unwrap();
        let err = df.read_table("t").unwrap_err();
        assert_eq!(err.code(), "INCOMPATIBLE_SCHEMA");
    }
}
