//! Spark's serializer stack over the `miniformats` container formats.
//!
//! Independently written from Hive's SerDe (Finding 6), with Spark's own
//! conversions and optimizations — each individually correct, each a
//! discrepancy surface when composed with Hive's layer:
//!
//! - the Avro writer widens BYTE/SHORT to `int` but records **no logical
//!   annotation**, and the Avro reader has **no narrowing case**: a file
//!   whose physical type is `int` cannot be read back as BYTE/SHORT unless
//!   a (Hive-written) annotation says so — SPARK-39075 / D01;
//! - decimals are written **exactly as the runtime value is scaled**; the
//!   reader accepts any stored scale (lenient to itself, but files written
//!   this way trip Hive's declared-scale validation) — SPARK-39158 / D02;
//! - the ORC writer raises for pre-1900 timestamps (where Hive writes NULL
//!   with a log line) — HIVE-26528 / D06;
//! - Parquet timestamps are proleptic Gregorian, and by default the reader
//!   **ignores** a Julian marker left by other writers — D07;
//! - struct fields resolve **case-sensitively**; unresolved fields read as
//!   NULL — D14.

use crate::config::SparkConfig;
use crate::error::SparkError;
use csi_core::column::{columns_from_rows, rows_from_columns, ColumnValues, Validity, ValueColumn};
use csi_core::value::{DataType, Decimal, StructField, Value};
use miniformats::batch::{Bitmap, Column as BatchColumn, ColumnData, RecordBatch, VarBuffer};
use miniformats::physical::{FileSchema, PhysicalColumn, PhysicalType, PhysicalValue};
use miniformats::{avro, orc, parquet, FormatError};
use minihive::metastore::StorageFormat;

/// Maps a Spark type to its physical type in a given format.
pub fn physical_type_for(format: StorageFormat, ty: &DataType) -> Result<PhysicalType, SparkError> {
    Ok(match ty {
        DataType::Boolean => PhysicalType::Bool,
        DataType::Byte => match format {
            StorageFormat::Avro => PhysicalType::Int32,
            _ => PhysicalType::Int8,
        },
        DataType::Short => match format {
            StorageFormat::Avro => PhysicalType::Int32,
            _ => PhysicalType::Int16,
        },
        DataType::Int => PhysicalType::Int32,
        DataType::Long => PhysicalType::Int64,
        DataType::Float => PhysicalType::Float32,
        DataType::Double => PhysicalType::Float64,
        DataType::Decimal(_, _) => PhysicalType::Decimal,
        DataType::String | DataType::Char(_) | DataType::Varchar(_) => PhysicalType::Utf8,
        DataType::Binary => PhysicalType::Bytes,
        DataType::Date => PhysicalType::Int32,
        DataType::Timestamp => PhysicalType::Int64,
        DataType::Interval => {
            return Err(SparkError::SerDe {
                code: "INTERVAL_NOT_STORABLE",
                message: "INTERVAL values have no physical representation".into(),
            })
        }
        DataType::Array(e) => PhysicalType::List(Box::new(physical_type_for(format, e)?)),
        DataType::Map(k, v) => PhysicalType::Map(
            Box::new(physical_type_for(format, k)?),
            Box::new(physical_type_for(format, v)?),
        ),
        DataType::Struct(fields) => PhysicalType::Struct(
            fields
                .iter()
                .map(|f| Ok((f.name.clone(), physical_type_for(format, &f.data_type)?)))
                .collect::<Result<Vec<_>, SparkError>>()?,
        ),
    })
}

fn format_err(e: FormatError) -> SparkError {
    SparkError::SerDe {
        code: "FORMAT_ERROR",
        message: e.to_string(),
    }
}

/// Serializes rows (already store-assigned) into a data file.
///
/// `schema` carries Spark's case-preserved field names.
///
/// This is the thin row-API adapter over [`write_columns`]: rows are
/// transposed into typed column buffers (one byte-copy per cell, no
/// intermediate [`PhysicalValue`] allocation) and serialized columnar.
/// Output bytes are identical to [`write_file_rows`]; with multiple
/// columns *and* multiple invalid cells the reported error can be a
/// different (column-major-first) one.
pub fn write_file(
    format: StorageFormat,
    schema: &[StructField],
    rows: &[Vec<Value>],
    config: &SparkConfig,
) -> Result<Vec<u8>, SparkError> {
    write_columns(format, schema, &schema_columns(schema, rows)?, config)
}

/// Transposes rows into one column per schema field, rejecting a row of
/// the wrong arity.
pub(crate) fn schema_columns(
    schema: &[StructField],
    rows: &[Vec<Value>],
) -> Result<Vec<ValueColumn>, SparkError> {
    let types: Vec<DataType> = schema.iter().map(|f| f.data_type.clone()).collect();
    columns_from_rows(&types, rows).map_err(|got| SparkError::Arity {
        expected: schema.len(),
        got,
    })
}

/// The retained row-at-a-time serializer: the pre-columnar baseline, kept
/// for differential testing and as the benchmark reference point.
pub fn write_file_rows(
    format: StorageFormat,
    schema: &[StructField],
    rows: &[Vec<Value>],
    config: &SparkConfig,
) -> Result<Vec<u8>, SparkError> {
    let mut file_schema = FileSchema::default();
    for f in schema {
        file_schema.columns.push(PhysicalColumn {
            name: f.name.clone(),
            ty: physical_type_for(format, &f.data_type)?,
            // Spark's writer records no logical annotations (D01).
            logical: None,
        });
    }
    file_schema.meta.insert("writer".into(), "spark".into());
    if format == StorageFormat::Parquet {
        file_schema
            .meta
            .insert(parquet::TIMESTAMP_REBASE_KEY.into(), "proleptic".into());
    }
    let mut out_rows = Vec::with_capacity(rows.len());
    for row in rows {
        if row.len() != schema.len() {
            return Err(SparkError::Arity {
                expected: schema.len(),
                got: row.len(),
            });
        }
        let mut out = Vec::with_capacity(row.len());
        for (f, v) in schema.iter().zip(row) {
            out.push(to_physical(format, &f.data_type, v)?);
        }
        out_rows.push(out);
    }
    let _ = config;
    match format {
        StorageFormat::Orc => orc::encode(&file_schema, &out_rows),
        StorageFormat::Parquet => parquet::encode(&file_schema, &out_rows),
        StorageFormat::Avro => avro::encode(&file_schema, &out_rows),
    }
    .map_err(format_err)
}

/// Serializes typed column buffers directly into a data file — the bulk
/// hot path. Flat columns move buffer-to-buffer with no per-cell enum
/// traffic; nested or type-skewed columns fall back to the per-cell
/// converter and report the same errors as the row path.
pub fn write_columns(
    format: StorageFormat,
    schema: &[StructField],
    cols: &[ValueColumn],
    config: &SparkConfig,
) -> Result<Vec<u8>, SparkError> {
    if cols.len() != schema.len() {
        return Err(SparkError::Arity {
            expected: schema.len(),
            got: cols.len(),
        });
    }
    let mut file_schema = FileSchema::default();
    for f in schema {
        file_schema.columns.push(PhysicalColumn {
            name: f.name.clone(),
            ty: physical_type_for(format, &f.data_type)?,
            // Spark's writer records no logical annotations (D01).
            logical: None,
        });
    }
    file_schema.meta.insert("writer".into(), "spark".into());
    if format == StorageFormat::Parquet {
        file_schema
            .meta
            .insert(parquet::TIMESTAMP_REBASE_KEY.into(), "proleptic".into());
    }
    let _ = config;
    let mut batch = RecordBatch {
        schema: file_schema,
        columns: Vec::with_capacity(cols.len()),
    };
    for (f, col) in schema.iter().zip(cols) {
        let out = column_to_physical(format, f, col)?;
        batch.columns.push(out);
    }
    let encode = match format {
        StorageFormat::Orc => orc::encode_batch(&batch),
        StorageFormat::Parquet => parquet::encode_batch(&batch),
        StorageFormat::Avro => avro::encode_batch(&batch),
    };
    encode.map_err(format_err)
}

/// Converts one typed column into its physical batch column. Each fast
/// path is the vectorized image of the matching [`to_physical`] arm.
fn column_to_physical(
    format: StorageFormat,
    field: &StructField,
    col: &ValueColumn,
) -> Result<BatchColumn, SparkError> {
    let validity = || Bitmap::from_raw(col.validity().words().to_vec(), col.len());
    let avro = format == StorageFormat::Avro;
    let data = match (&field.data_type, col.values()) {
        (DataType::Boolean, ColumnValues::Boolean(v)) => ColumnData::Bool(v.clone()),
        (DataType::Byte, ColumnValues::Byte(v)) if avro => {
            ColumnData::Int32(v.iter().map(|x| *x as i32).collect())
        }
        (DataType::Byte, ColumnValues::Byte(v)) => ColumnData::Int8(v.clone()),
        (DataType::Short, ColumnValues::Short(v)) if avro => {
            ColumnData::Int32(v.iter().map(|x| *x as i32).collect())
        }
        (DataType::Short, ColumnValues::Short(v)) => ColumnData::Int16(v.clone()),
        (DataType::Int, ColumnValues::Int(v)) => ColumnData::Int32(v.clone()),
        (DataType::Long, ColumnValues::Long(v)) => ColumnData::Int64(v.clone()),
        (DataType::Float, ColumnValues::Float(v)) => ColumnData::Float32(v.clone()),
        (DataType::Double, ColumnValues::Double(v)) => ColumnData::Float64(v.clone()),
        // Spark writes the runtime scale, unchanged (D02's writer half).
        (
            DataType::Decimal(_, _),
            ColumnValues::Decimal {
                unscaled, scale, ..
            },
        ) => ColumnData::Decimal {
            unscaled: unscaled.clone(),
            scale: scale.clone(),
        },
        (
            DataType::String | DataType::Char(_) | DataType::Varchar(_),
            ColumnValues::Str { offsets, bytes },
        ) => ColumnData::Utf8(VarBuffer::from_raw(offsets.clone(), bytes.clone())),
        (DataType::Binary, ColumnValues::Binary { offsets, bytes }) => {
            ColumnData::Bytes(VarBuffer::from_raw(offsets.clone(), bytes.clone()))
        }
        (DataType::Date, ColumnValues::Date(v)) => ColumnData::Int32(v.clone()),
        (DataType::Timestamp, ColumnValues::Timestamp(v)) => {
            if format == StorageFormat::Orc {
                let min = minihive::serde_layer::orc_min_timestamp_micros();
                for (i, us) in v.iter().enumerate() {
                    if col.validity().get(i) && *us < min {
                        // Spark's ORC writer refuses what legacy ORC cannot
                        // represent (D06's upstream half: raise, not NULL).
                        return Err(SparkError::SerDe {
                            code: "ORC_TIMESTAMP_RANGE",
                            message: "cannot write pre-1900 timestamp to legacy ORC".into(),
                        });
                    }
                }
            }
            // Parquet: proleptic, no rebase.
            ColumnData::Int64(v.clone())
        }
        // Nested columns, Mixed columns, and type-skewed buffers: the
        // per-cell converter, which raises the row path's exact errors
        // (VALUE_TYPE_MISMATCH, INTERVAL-free by physical_type_for).
        _ => {
            let phys_ty = physical_type_for(format, &field.data_type)?;
            let mut out = BatchColumn::with_capacity(&phys_ty, col.len());
            for i in 0..col.len() {
                let pv = to_physical(format, &field.data_type, &col.get(i))?;
                let ok = out.push_checked(&pv);
                debug_assert!(ok, "to_physical output conforms to physical_type_for");
            }
            return Ok(out);
        }
    };
    Ok(BatchColumn {
        validity: validity(),
        data,
    })
}

fn to_physical(
    format: StorageFormat,
    ty: &DataType,
    value: &Value,
) -> Result<PhysicalValue, SparkError> {
    if value.is_null() {
        return Ok(PhysicalValue::Null);
    }
    Ok(match (ty, value) {
        (DataType::Boolean, Value::Boolean(b)) => PhysicalValue::Bool(*b),
        (DataType::Byte, Value::Byte(v)) => match format {
            StorageFormat::Avro => PhysicalValue::Int32(*v as i32),
            _ => PhysicalValue::Int8(*v),
        },
        (DataType::Short, Value::Short(v)) => match format {
            StorageFormat::Avro => PhysicalValue::Int32(*v as i32),
            _ => PhysicalValue::Int16(*v),
        },
        (DataType::Int, Value::Int(v)) => PhysicalValue::Int32(*v),
        (DataType::Long, Value::Long(v)) => PhysicalValue::Int64(*v),
        (DataType::Float, Value::Float(v)) => PhysicalValue::Float32(*v),
        (DataType::Double, Value::Double(v)) => PhysicalValue::Float64(*v),
        // Spark writes the runtime scale, unchanged (D02's writer half).
        (DataType::Decimal(_, _), Value::Decimal(d)) => PhysicalValue::Decimal {
            unscaled: d.unscaled,
            scale: d.scale,
        },
        (DataType::String | DataType::Char(_) | DataType::Varchar(_), Value::Str(s)) => {
            PhysicalValue::Utf8(s.clone())
        }
        (DataType::Binary, Value::Binary(b)) => PhysicalValue::Bytes(b.clone()),
        (DataType::Date, Value::Date(d)) => PhysicalValue::Int32(*d),
        (DataType::Timestamp, Value::Timestamp(us)) => {
            if format == StorageFormat::Orc
                && *us < minihive::serde_layer::orc_min_timestamp_micros()
            {
                // Spark's ORC writer refuses what legacy ORC cannot
                // represent (D06's upstream half: raise, not NULL).
                return Err(SparkError::SerDe {
                    code: "ORC_TIMESTAMP_RANGE",
                    message: "cannot write pre-1900 timestamp to legacy ORC".into(),
                });
            }
            // Parquet: proleptic, no rebase.
            PhysicalValue::Int64(*us)
        }
        (DataType::Array(et), Value::Array(items)) => PhysicalValue::List(
            items
                .iter()
                .map(|v| to_physical(format, et, v))
                .collect::<Result<Vec<_>, _>>()?,
        ),
        (DataType::Map(kt, vt), Value::Map(pairs)) => PhysicalValue::Map(
            pairs
                .iter()
                .map(|(k, v)| Ok((to_physical(format, kt, k)?, to_physical(format, vt, v)?)))
                .collect::<Result<Vec<_>, SparkError>>()?,
        ),
        (DataType::Struct(fields), Value::Struct(values)) => PhysicalValue::Struct(
            fields
                .iter()
                .zip(values)
                .map(|(f, (_, v))| Ok((f.name.clone(), to_physical(format, &f.data_type, v)?)))
                .collect::<Result<Vec<_>, SparkError>>()?,
        ),
        (ty, v) => {
            return Err(SparkError::SerDe {
                code: "VALUE_TYPE_MISMATCH",
                message: format!("value {} does not match type {ty}", v.signature()),
            })
        }
    })
}

/// Deserializes a data file against Spark's expected schema.
///
/// Thin row-API adapter over [`read_columns`]: the file is decoded into
/// typed column buffers, transformed per column, and transposed back to
/// rows. Values and errors match [`read_file_rows`] (column-major error
/// order on multi-column multi-error files).
pub fn read_file(
    format: StorageFormat,
    schema: &[StructField],
    bytes: &[u8],
    config: &SparkConfig,
) -> Result<Vec<Vec<Value>>, SparkError> {
    Ok(rows_from_columns(&read_columns(
        format, schema, bytes, config,
    )?))
}

/// Deserializes typed column buffers directly — the bulk read hot path.
pub fn read_columns(
    format: StorageFormat,
    schema: &[StructField],
    bytes: &[u8],
    config: &SparkConfig,
) -> Result<Vec<ValueColumn>, SparkError> {
    let batch = match format {
        StorageFormat::Orc => orc::decode_batch(bytes),
        StorageFormat::Parquet => parquet::decode_batch(bytes),
        StorageFormat::Avro => avro::decode_batch(bytes),
    }
    .map_err(format_err)?;
    let honor_julian = config.parquet_rebase_legacy();
    let file_julian = batch
        .schema
        .meta
        .get(parquet::TIMESTAMP_REBASE_KEY)
        .map(String::as_str)
        == Some("julian");
    let rebase = file_julian && honor_julian;
    let nrows = batch.len();
    // Spark resolves columns case-insensitively at the top level (its
    // analyzer is case-insensitive by default) but keeps exact physical
    // type expectations.
    let mut out = Vec::with_capacity(schema.len());
    for f in schema {
        let col = match batch.schema.index_of_ci(&f.name) {
            Some(i) => column_from_physical(
                format,
                f,
                &batch.columns[i],
                &batch.schema.columns[i],
                rebase,
            )?,
            None => ValueColumn::nulls(&f.data_type, nrows),
        };
        out.push(col);
    }
    Ok(out)
}

/// Converts one physical batch column into a typed value column. Each
/// fast path is the vectorized image of the matching [`from_physical`]
/// arm; anything else replays the per-cell reader (so annotation checks,
/// narrowing errors, and nested resolution behave exactly as before).
fn column_from_physical(
    format: StorageFormat,
    field: &StructField,
    col: &BatchColumn,
    column: &PhysicalColumn,
    rebase: bool,
) -> Result<ValueColumn, SparkError> {
    let validity = || Validity::from_raw(col.validity.words().to_vec(), col.len());
    let values = match (&field.data_type, &col.data) {
        (DataType::Boolean, ColumnData::Bool(v)) => ColumnValues::Boolean(v.clone()),
        (DataType::Byte, ColumnData::Int8(v)) => ColumnValues::Byte(v.clone()),
        (DataType::Short, ColumnData::Int16(v)) => ColumnValues::Short(v.clone()),
        (DataType::Int, ColumnData::Int32(v)) => ColumnValues::Int(v.clone()),
        (DataType::Int, ColumnData::Int8(v)) => {
            ColumnValues::Int(v.iter().map(|x| *x as i32).collect())
        }
        (DataType::Int, ColumnData::Int16(v)) => {
            ColumnValues::Int(v.iter().map(|x| *x as i32).collect())
        }
        (DataType::Long, ColumnData::Int64(v)) => ColumnValues::Long(v.clone()),
        (DataType::Long, ColumnData::Int32(v)) => {
            ColumnValues::Long(v.iter().map(|x| *x as i64).collect())
        }
        (DataType::Float, ColumnData::Float32(v)) => ColumnValues::Float(v.clone()),
        (DataType::Double, ColumnData::Float64(v)) => ColumnValues::Double(v.clone()),
        // Spark's decimal reader trusts the stored scale (lenient to its
        // own runtime-scaled files); precision widens to fit the digits.
        // The digits are computed inline — constructing two checked
        // [`Decimal`]s per cell dominated the whole read path — and the
        // checked constructors are replayed only when a bound trips, so
        // out-of-range cells raise exactly the row path's errors.
        (DataType::Decimal(p, _), ColumnData::Decimal { unscaled, scale }) => {
            let mut out_precision = Vec::with_capacity(unscaled.len());
            for i in 0..unscaled.len() {
                if !col.validity.get(i) {
                    out_precision.push(1);
                    continue;
                }
                let (u, s) = (unscaled[i], scale[i]);
                let n = u.unsigned_abs();
                let digits_needed = (match u64::try_from(n) {
                    Ok(0) => 1,
                    Ok(v) => v.ilog10() + 1,
                    Err(_) => n.ilog10() + 1,
                }) as u8;
                if s > Decimal::MAX_PRECISION || digits_needed > Decimal::MAX_PRECISION {
                    Decimal::new(u, Decimal::MAX_PRECISION, s).map_err(|e| SparkError::SerDe {
                        code: "DECIMAL_DECODE",
                        message: e.to_string(),
                    })?;
                }
                let precision = (*p).max(digits_needed).max(s + 1);
                if precision > Decimal::MAX_PRECISION {
                    Decimal::new(u, precision, s).map_err(|e| SparkError::SerDe {
                        code: "DECIMAL_DECODE",
                        message: e.to_string(),
                    })?;
                }
                out_precision.push(precision);
            }
            ColumnValues::Decimal {
                unscaled: unscaled.clone(),
                precision: out_precision,
                scale: scale.clone(),
            }
        }
        (DataType::String | DataType::Char(_) | DataType::Varchar(_), ColumnData::Utf8(buf)) => {
            ColumnValues::Str {
                offsets: buf.offsets().to_vec(),
                bytes: buf.raw_bytes().to_vec(),
            }
        }
        (DataType::Binary, ColumnData::Bytes(buf)) => ColumnValues::Binary {
            offsets: buf.offsets().to_vec(),
            bytes: buf.raw_bytes().to_vec(),
        },
        (DataType::Date, ColumnData::Int32(v)) => ColumnValues::Date(v.clone()),
        (DataType::Timestamp, ColumnData::Int64(v)) => {
            let cutover = minihive::serde_layer::gregorian_cutover_micros();
            let shift = format == StorageFormat::Parquet && rebase;
            ColumnValues::Timestamp(
                v.iter()
                    .map(|us| {
                        if shift && *us < cutover {
                            *us + minihive::serde_layer::JULIAN_SHIFT_MICROS
                        } else {
                            // The default CORRECTED mode reads the raw value
                            // even if the file was written Julian-rebased (D07).
                            *us
                        }
                    })
                    .collect(),
            )
        }
        // Annotation-gated narrowing, nested values, and type-skewed
        // buffers replay the per-cell reader.
        _ => {
            let mut out = ValueColumn::with_capacity(&field.data_type, col.len());
            for i in 0..col.len() {
                let v = from_physical(format, &field.data_type, &col.get(i), column, rebase)?;
                out.push(&v);
            }
            return Ok(out);
        }
    };
    Ok(ValueColumn::from_parts(validity(), values))
}

/// The retained row-at-a-time deserializer: the pre-columnar baseline,
/// kept for differential testing and as the benchmark reference point.
pub fn read_file_rows(
    format: StorageFormat,
    schema: &[StructField],
    bytes: &[u8],
    config: &SparkConfig,
) -> Result<Vec<Vec<Value>>, SparkError> {
    let (file_schema, raw_rows) = match format {
        StorageFormat::Orc => orc::decode(bytes),
        StorageFormat::Parquet => parquet::decode(bytes),
        StorageFormat::Avro => avro::decode(bytes),
    }
    .map_err(format_err)?;
    let honor_julian = config.parquet_rebase_legacy();
    let file_julian = file_schema
        .meta
        .get(parquet::TIMESTAMP_REBASE_KEY)
        .map(String::as_str)
        == Some("julian");
    // Spark resolves columns case-insensitively at the top level (its
    // analyzer is case-insensitive by default) but keeps exact physical
    // type expectations.
    let mapping: Vec<Option<usize>> = schema
        .iter()
        .map(|f| file_schema.index_of_ci(&f.name))
        .collect();
    let mut out = Vec::with_capacity(raw_rows.len());
    for raw in &raw_rows {
        let mut row = Vec::with_capacity(schema.len());
        for (f, idx) in schema.iter().zip(&mapping) {
            let v = match idx {
                Some(i) => from_physical(
                    format,
                    &f.data_type,
                    &raw[*i],
                    &file_schema.columns[*i],
                    file_julian && honor_julian,
                )?,
                None => Value::Null,
            };
            row.push(v);
        }
        out.push(row);
    }
    Ok(out)
}

fn from_physical(
    format: StorageFormat,
    ty: &DataType,
    value: &PhysicalValue,
    column: &PhysicalColumn,
    rebase: bool,
) -> Result<Value, SparkError> {
    if matches!(value, PhysicalValue::Null) {
        return Ok(Value::Null);
    }
    Ok(match (ty, value) {
        (DataType::Boolean, PhysicalValue::Bool(b)) => Value::Boolean(*b),
        (DataType::Byte, PhysicalValue::Int8(v)) => Value::Byte(*v),
        (DataType::Short, PhysicalValue::Int16(v)) => Value::Short(*v),
        // The missing narrowing case of SPARK-39075: physical int can only
        // be read as BYTE/SHORT when a *Hive-compat* annotation proves the
        // logical type; Spark's own Avro files carry no annotation and fail.
        (DataType::Byte, PhysicalValue::Int32(v)) => {
            if column.logical.as_deref() == Some("tinyint") {
                i8::try_from(*v)
                    .map(Value::Byte)
                    .map_err(|_| SparkError::IncompatibleSchema {
                        message: format!("annotated tinyint holds out-of-range value {v}"),
                    })?
            } else {
                return Err(SparkError::IncompatibleSchema {
                    message: format!(
                        "Cannot convert Avro/{} field {} of type INT to Catalyst type TINYINT",
                        format.name(),
                        column.name
                    ),
                });
            }
        }
        (DataType::Short, PhysicalValue::Int32(v)) => {
            if column.logical.as_deref() == Some("smallint") {
                i16::try_from(*v)
                    .map(Value::Short)
                    .map_err(|_| SparkError::IncompatibleSchema {
                        message: format!("annotated smallint holds out-of-range value {v}"),
                    })?
            } else {
                return Err(SparkError::IncompatibleSchema {
                    message: format!(
                        "Cannot convert Avro/{} field {} of type INT to Catalyst type SMALLINT",
                        format.name(),
                        column.name
                    ),
                });
            }
        }
        (DataType::Int, PhysicalValue::Int32(v)) => Value::Int(*v),
        (DataType::Int, PhysicalValue::Int8(v)) => Value::Int(*v as i32),
        (DataType::Int, PhysicalValue::Int16(v)) => Value::Int(*v as i32),
        (DataType::Long, PhysicalValue::Int64(v)) => Value::Long(*v),
        (DataType::Long, PhysicalValue::Int32(v)) => Value::Long(*v as i64),
        (DataType::Float, PhysicalValue::Float32(v)) => Value::Float(*v),
        (DataType::Double, PhysicalValue::Float64(v)) => Value::Double(*v),
        // Spark's decimal reader trusts the stored scale (lenient to its
        // own runtime-scaled files).
        (DataType::Decimal(p, _), PhysicalValue::Decimal { unscaled, scale }) => {
            let digits_needed = Decimal::new(*unscaled, Decimal::MAX_PRECISION, *scale)
                .map_err(|e| SparkError::SerDe {
                    code: "DECIMAL_DECODE",
                    message: e.to_string(),
                })?
                .digit_count() as u8;
            Value::Decimal(
                Decimal::new(*unscaled, (*p).max(digits_needed).max(*scale + 1), *scale).map_err(
                    |e| SparkError::SerDe {
                        code: "DECIMAL_DECODE",
                        message: e.to_string(),
                    },
                )?,
            )
        }
        (DataType::String | DataType::Char(_) | DataType::Varchar(_), PhysicalValue::Utf8(s)) => {
            Value::Str(s.clone())
        }
        (DataType::Binary, PhysicalValue::Bytes(b)) => Value::Binary(b.clone()),
        (DataType::Date, PhysicalValue::Int32(d)) => Value::Date(*d),
        (DataType::Timestamp, PhysicalValue::Int64(us)) => {
            let cutover = minihive::serde_layer::gregorian_cutover_micros();
            let adjusted = if format == StorageFormat::Parquet && rebase && *us < cutover {
                *us + minihive::serde_layer::JULIAN_SHIFT_MICROS
            } else {
                // The default CORRECTED mode reads the raw value even if
                // the file was written Julian-rebased (D07).
                *us
            };
            Value::Timestamp(adjusted)
        }
        (DataType::Array(et), PhysicalValue::List(items)) => Value::Array(
            items
                .iter()
                .map(|v| from_physical(format, et, v, column, rebase))
                .collect::<Result<Vec<_>, _>>()?,
        ),
        (DataType::Map(kt, vt), PhysicalValue::Map(pairs)) => Value::Map(
            pairs
                .iter()
                .map(|(k, v)| {
                    Ok((
                        from_physical(format, kt, k, column, rebase)?,
                        from_physical(format, vt, v, column, rebase)?,
                    ))
                })
                .collect::<Result<Vec<_>, SparkError>>()?,
        ),
        (DataType::Struct(fields), PhysicalValue::Struct(values)) => {
            // Case-SENSITIVE field resolution (D14's upstream half).
            let mut out = Vec::with_capacity(fields.len());
            for f in fields {
                let found = values.iter().find(|(n, _)| *n == f.name);
                let v = match found {
                    Some((_, v)) => from_physical(format, &f.data_type, v, column, rebase)?,
                    None => Value::Null,
                };
                out.push((f.name.clone(), v));
            }
            Value::Struct(out)
        }
        (ty, v) => {
            return Err(SparkError::IncompatibleSchema {
                message: format!("cannot read physical {v:?} as Catalyst type {ty}"),
            })
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn field(name: &str, dt: DataType) -> StructField {
        StructField::new(name, dt)
    }

    fn roundtrip(
        format: StorageFormat,
        schema: &[StructField],
        rows: Vec<Vec<Value>>,
    ) -> Result<Vec<Vec<Value>>, SparkError> {
        let config = SparkConfig::new();
        let bytes = write_file(format, schema, &rows, &config)?;
        read_file(format, schema, &bytes, &config)
    }

    #[test]
    fn primitives_round_trip_orc_parquet() {
        let schema = vec![
            field("b", DataType::Byte),
            field("s", DataType::Short),
            field("i", DataType::Int),
            field("t", DataType::String),
        ];
        let rows = vec![vec![
            Value::Byte(1),
            Value::Short(2),
            Value::Int(3),
            Value::Str("x".into()),
        ]];
        for fmt in [StorageFormat::Orc, StorageFormat::Parquet] {
            assert_eq!(roundtrip(fmt, &schema, rows.clone()).unwrap(), rows);
        }
    }

    #[test]
    fn spark_avro_byte_write_then_read_fails() {
        // SPARK-39075 in one test: the write succeeds (widened to int),
        // the read raises IncompatibleSchemaException.
        let schema = vec![field("b", DataType::Byte)];
        let rows = vec![vec![Value::Byte(5)]];
        let err = roundtrip(StorageFormat::Avro, &schema, rows).unwrap_err();
        assert_eq!(err.code(), "INCOMPATIBLE_SCHEMA");
        assert!(err.to_string().contains("TINYINT"));
    }

    #[test]
    fn spark_reads_hive_annotated_avro_bytes() {
        // Hive's writer annotates; Spark's Hive-compat path honors it.
        let columns = vec![minihive::metastore::ColumnDef {
            name: "b".into(),
            hive_type: minihive::HiveType::TinyInt,
        }];
        let sink = csi_core::diag::DiagSink::new();
        let bytes = minihive::serde_layer::write_file(
            StorageFormat::Avro,
            &columns,
            &[vec![Value::Byte(7)]],
            &sink.handle("hive"),
        )
        .unwrap();
        let schema = vec![field("b", DataType::Byte)];
        let rows = read_file(StorageFormat::Avro, &schema, &bytes, &SparkConfig::new()).unwrap();
        assert_eq!(rows[0][0], Value::Byte(7));
    }

    #[test]
    fn spark_decimal_keeps_runtime_scale_and_hive_rejects_it() {
        // D02 end to end at the serde level.
        let schema = vec![field("d", DataType::Decimal(10, 2))];
        let runtime = Value::Decimal(Decimal::parse("1.5").unwrap()); // scale 1
        let config = SparkConfig::new();
        let bytes = write_file(
            StorageFormat::Orc,
            &schema,
            &[vec![runtime.clone()]],
            &config,
        )
        .unwrap();
        // Spark reads its own file fine.
        let back = read_file(StorageFormat::Orc, &schema, &bytes, &config).unwrap();
        assert!(back[0][0].canonical_eq(&runtime));
        // Hive's reader validates the declared scale and rejects.
        let columns = vec![minihive::metastore::ColumnDef {
            name: "d".into(),
            hive_type: minihive::HiveType::Decimal(10, 2),
        }];
        let sink = csi_core::diag::DiagSink::new();
        let err = minihive::serde_layer::read_file(
            StorageFormat::Orc,
            &columns,
            &bytes,
            &sink.handle("hive"),
        )
        .unwrap_err();
        assert!(err.to_string().contains("scale"));
    }

    #[test]
    fn spark_orc_pre1900_timestamp_raises() {
        let schema = vec![field("ts", DataType::Timestamp)];
        let old = csi_core::value::parse_timestamp("1899-01-01 00:00:00").unwrap();
        let err = roundtrip(
            StorageFormat::Orc,
            &schema,
            vec![vec![Value::Timestamp(old)]],
        )
        .unwrap_err();
        assert_eq!(err.code(), "ORC_TIMESTAMP_RANGE");
    }

    #[test]
    fn spark_ignores_julian_marker_by_default() {
        // Hive writes a 1500 CE timestamp into Parquet (Julian-rebased).
        let columns = vec![minihive::metastore::ColumnDef {
            name: "ts".into(),
            hive_type: minihive::HiveType::Timestamp,
        }];
        let ancient = csi_core::value::parse_timestamp("1500-01-01 00:00:00").unwrap();
        let sink = csi_core::diag::DiagSink::new();
        let bytes = minihive::serde_layer::write_file(
            StorageFormat::Parquet,
            &columns,
            &[vec![Value::Timestamp(ancient)]],
            &sink.handle("hive"),
        )
        .unwrap();
        let schema = vec![field("ts", DataType::Timestamp)];
        // Default (CORRECTED): 10 days off — D07.
        let config = SparkConfig::new();
        let rows = read_file(StorageFormat::Parquet, &schema, &bytes, &config).unwrap();
        assert_eq!(
            rows[0][0],
            Value::Timestamp(ancient - minihive::serde_layer::JULIAN_SHIFT_MICROS)
        );
        // LEGACY rebase mode honors the marker.
        let mut legacy = SparkConfig::new();
        legacy.set(crate::config::PARQUET_REBASE_MODE, "LEGACY");
        let rows = read_file(StorageFormat::Parquet, &schema, &bytes, &legacy).unwrap();
        assert_eq!(rows[0][0], Value::Timestamp(ancient));
    }

    #[test]
    fn struct_field_resolution_is_case_sensitive() {
        // Hive wrote lowercase field names; Spark expects "Inner".
        let columns = vec![minihive::metastore::ColumnDef {
            name: "s".into(),
            hive_type: minihive::HiveType::Struct(vec![("inner".into(), minihive::HiveType::Int)]),
        }];
        let sink = csi_core::diag::DiagSink::new();
        let bytes = minihive::serde_layer::write_file(
            StorageFormat::Orc,
            &columns,
            &[vec![Value::Struct(vec![("inner".into(), Value::Int(9))])]],
            &sink.handle("hive"),
        )
        .unwrap();
        let schema = vec![field(
            "s",
            DataType::Struct(vec![StructField::new("Inner", DataType::Int)]),
        )];
        let rows = read_file(StorageFormat::Orc, &schema, &bytes, &SparkConfig::new()).unwrap();
        // The case-sensitive lookup misses and reads NULL (D14).
        assert_eq!(
            rows[0][0],
            Value::Struct(vec![("Inner".into(), Value::Null)])
        );
    }

    #[test]
    fn interval_has_no_physical_representation() {
        let schema = vec![field("i", DataType::Interval)];
        let err = write_file(
            StorageFormat::Orc,
            &schema,
            &[vec![Value::Interval {
                months: 1,
                micros: 0,
            }]],
            &SparkConfig::new(),
        )
        .unwrap_err();
        assert_eq!(err.code(), "INTERVAL_NOT_STORABLE");
    }

    #[test]
    fn avro_map_int_keys_rejected_for_spark_too() {
        let schema = vec![field(
            "m",
            DataType::Map(Box::new(DataType::Int), Box::new(DataType::String)),
        )];
        let rows = vec![vec![Value::Map(vec![(
            Value::Int(1),
            Value::Str("x".into()),
        )])]];
        let err = roundtrip(StorageFormat::Avro, &schema, rows.clone()).unwrap_err();
        assert_eq!(err.code(), "FORMAT_ERROR");
        assert!(roundtrip(StorageFormat::Orc, &schema, rows).is_ok());
    }
}
