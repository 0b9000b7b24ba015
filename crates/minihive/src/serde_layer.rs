//! Hive's SerDe layer over the `miniformats` container formats.
//!
//! This is Hive's own, independently-written serializer stack (Finding 6:
//! systems implement ad-hoc serialization on shared wire formats). Its
//! documented behaviors include:
//!
//! - small integers are widened to `int` where the format lacks 8/16-bit
//!   types (Avro), with a **logical type annotation** recorded so Hive's
//!   reader can narrow them back;
//! - decimals are stored with the **table-declared scale**, and the reader
//!   *validates* the stored scale against the declaration — files written
//!   with a different scale are rejected (the downstream half of
//!   SPARK-39158 / D02);
//! - legacy ORC cannot represent pre-1900 timestamps: Hive writes NULL with
//!   a log line (the downstream half of HIVE-26528 / D06);
//! - Parquet timestamps before the 1582 Gregorian cutover are written in
//!   the **Julian calendar** with a file-metadata marker; Hive's reader
//!   honors the marker (the downstream half of D07);
//! - readers resolve columns **case-insensitively** and fill missing
//!   columns with NULL.

use crate::error::HiveError;
use crate::metastore::{ColumnDef, StorageFormat};
use crate::types::HiveType;
use csi_core::column::{columns_from_rows, rows_from_columns, ColumnValues, Validity, ValueColumn};
use csi_core::diag::DiagHandle;
use csi_core::value::{parse_date, Decimal, Value};
use miniformats::batch::{Bitmap, Column as BatchColumn, ColumnData, RecordBatch, VarBuffer};
use miniformats::physical::{FileSchema, PhysicalColumn, PhysicalType, PhysicalValue};
use miniformats::{avro, orc, parquet, FormatError};

/// Microseconds of the 1582-10-15 Gregorian cutover.
pub fn gregorian_cutover_micros() -> i64 {
    parse_date("1582-10-15").expect("static date") as i64 * 86_400_000_000
}

/// Microseconds of 1900-01-01, the lower bound of legacy ORC timestamps.
pub fn orc_min_timestamp_micros() -> i64 {
    parse_date("1900-01-01").expect("static date") as i64 * 86_400_000_000
}

/// The Julian-vs-proleptic-Gregorian shift at the 1582 cutover: 10 days.
pub const JULIAN_SHIFT_MICROS: i64 = 10 * 86_400_000_000;

/// Maps a Hive type to its physical type in a given format.
pub fn physical_type_for(format: StorageFormat, ty: &HiveType) -> PhysicalType {
    match ty {
        HiveType::Boolean => PhysicalType::Bool,
        HiveType::TinyInt => match format {
            StorageFormat::Avro => PhysicalType::Int32, // Avro has no int8.
            _ => PhysicalType::Int8,
        },
        HiveType::SmallInt => match format {
            StorageFormat::Avro => PhysicalType::Int32,
            _ => PhysicalType::Int16,
        },
        HiveType::Int => PhysicalType::Int32,
        HiveType::BigInt => PhysicalType::Int64,
        HiveType::Float => PhysicalType::Float32,
        HiveType::Double => PhysicalType::Float64,
        HiveType::Decimal(_, _) => PhysicalType::Decimal,
        HiveType::Str | HiveType::Char(_) | HiveType::Varchar(_) => PhysicalType::Utf8,
        HiveType::Binary => PhysicalType::Bytes,
        HiveType::Date => PhysicalType::Int32,
        HiveType::Timestamp => PhysicalType::Int64,
        HiveType::Array(e) => PhysicalType::List(Box::new(physical_type_for(format, e))),
        HiveType::Map(k, v) => PhysicalType::Map(
            Box::new(physical_type_for(format, k)),
            Box::new(physical_type_for(format, v)),
        ),
        HiveType::Struct(fields) => PhysicalType::Struct(
            fields
                .iter()
                .map(|(n, t)| (n.clone(), physical_type_for(format, t)))
                .collect(),
        ),
    }
}

/// The logical annotation Hive records for a column type, if any.
pub fn logical_annotation(ty: &HiveType) -> Option<String> {
    match ty {
        HiveType::TinyInt => Some("tinyint".into()),
        HiveType::SmallInt => Some("smallint".into()),
        HiveType::Decimal(p, s) => Some(format!("decimal({p},{s})")),
        HiveType::Char(n) => Some(format!("char({n})")),
        HiveType::Varchar(n) => Some(format!("varchar({n})")),
        HiveType::Date => Some("date".into()),
        HiveType::Timestamp => Some("timestamp".into()),
        _ => None,
    }
}

fn serde_err(format: StorageFormat, e: FormatError) -> HiveError {
    HiveError::SerDe {
        format: match format {
            StorageFormat::Orc => "orc-sim",
            StorageFormat::Parquet => "parquet-sim",
            StorageFormat::Avro => "avro-sim",
        },
        message: e.to_string(),
    }
}

/// Serializes coerced rows into a table data file.
///
/// Thin row-API adapter over [`write_columns`]: rows are transposed into
/// typed column buffers and serialized columnar. Output bytes are
/// identical to [`write_file_rows`]; on files with multiple columns and
/// multiple invalid cells the reported error (and diagnostic order) is
/// column-major rather than row-major.
pub fn write_file(
    format: StorageFormat,
    columns: &[ColumnDef],
    rows: &[Vec<Value>],
    diag: &DiagHandle,
) -> Result<Vec<u8>, HiveError> {
    let types: Vec<_> = columns.iter().map(|c| c.hive_type.to_data_type()).collect();
    let cols = columns_from_rows(&types, rows).map_err(|got| HiveError::Arity {
        expected: columns.len(),
        got,
    })?;
    write_columns(format, columns, &cols, diag)
}

/// Serializes typed column buffers directly — the bulk hot path. Flat
/// columns move buffer-to-buffer; nested or type-skewed columns replay
/// the per-cell converter with identical errors and diagnostics.
pub fn write_columns(
    format: StorageFormat,
    columns: &[ColumnDef],
    cols: &[ValueColumn],
    diag: &DiagHandle,
) -> Result<Vec<u8>, HiveError> {
    if cols.len() != columns.len() {
        return Err(HiveError::Arity {
            expected: columns.len(),
            got: cols.len(),
        });
    }
    let mut schema = FileSchema::default();
    for col in columns {
        schema.columns.push(PhysicalColumn {
            name: col.name.clone(),
            ty: physical_type_for(format, &col.hive_type),
            logical: logical_annotation(&col.hive_type),
        });
    }
    schema.meta.insert("writer".into(), "hive".into());
    if format == StorageFormat::Parquet {
        schema
            .meta
            .insert(parquet::TIMESTAMP_REBASE_KEY.into(), "julian".into());
    }
    let mut batch = RecordBatch {
        schema,
        columns: Vec::with_capacity(cols.len()),
    };
    for (def, col) in columns.iter().zip(cols) {
        batch
            .columns
            .push(column_to_physical(format, def, col, diag)?);
    }
    let encode = match format {
        StorageFormat::Orc => orc::encode_batch(&batch),
        StorageFormat::Parquet => parquet::encode_batch(&batch),
        StorageFormat::Avro => avro::encode_batch(&batch),
    };
    encode.map_err(|e| serde_err(format, e))
}

/// Converts one typed column into its physical batch column. Each fast
/// path is the vectorized image of the matching [`to_physical`] arm,
/// including Hive's write-time semantics: declared-scale decimal rescale,
/// pre-1900 ORC timestamps written as NULL with a warning, and the
/// Julian rebase for pre-cutover Parquet timestamps.
fn column_to_physical(
    format: StorageFormat,
    def: &ColumnDef,
    col: &ValueColumn,
    diag: &DiagHandle,
) -> Result<BatchColumn, HiveError> {
    let validity = || Bitmap::from_raw(col.validity().words().to_vec(), col.len());
    let avro = format == StorageFormat::Avro;
    let data = match (&def.hive_type, col.values()) {
        (HiveType::Boolean, ColumnValues::Boolean(v)) => ColumnData::Bool(v.clone()),
        (HiveType::TinyInt, ColumnValues::Byte(v)) if avro => {
            ColumnData::Int32(v.iter().map(|x| *x as i32).collect())
        }
        (HiveType::TinyInt, ColumnValues::Byte(v)) => ColumnData::Int8(v.clone()),
        (HiveType::SmallInt, ColumnValues::Short(v)) if avro => {
            ColumnData::Int32(v.iter().map(|x| *x as i32).collect())
        }
        (HiveType::SmallInt, ColumnValues::Short(v)) => ColumnData::Int16(v.clone()),
        (HiveType::Int, ColumnValues::Int(v)) => ColumnData::Int32(v.clone()),
        (HiveType::BigInt, ColumnValues::Long(v)) => ColumnData::Int64(v.clone()),
        (HiveType::Float, ColumnValues::Float(v)) => ColumnData::Float32(v.clone()),
        (HiveType::Double, ColumnValues::Double(v)) => ColumnData::Float64(v.clone()),
        // Hive stores the table-declared scale, rescaling if needed.
        (
            HiveType::Decimal(p, s),
            ColumnValues::Decimal {
                unscaled, scale, ..
            },
        ) => {
            let mut out_unscaled = Vec::with_capacity(unscaled.len());
            let mut out_scale = Vec::with_capacity(unscaled.len());
            for i in 0..unscaled.len() {
                if !col.validity().get(i) {
                    out_unscaled.push(0);
                    out_scale.push(0);
                    continue;
                }
                let d = Decimal {
                    unscaled: unscaled[i],
                    precision: Decimal::MAX_PRECISION,
                    scale: scale[i],
                };
                // `Display` for `Decimal` ignores precision, so the error
                // message matches the row path exactly.
                let rescaled = crate::value::rescale_half_up(&d, *p, *s).ok_or_else(|| {
                    HiveError::SchemaMismatch {
                        message: format!("decimal {d} does not fit decimal({p},{s})"),
                    }
                })?;
                out_unscaled.push(rescaled.unscaled);
                out_scale.push(rescaled.scale);
            }
            ColumnData::Decimal {
                unscaled: out_unscaled,
                scale: out_scale,
            }
        }
        (
            HiveType::Str | HiveType::Char(_) | HiveType::Varchar(_),
            ColumnValues::Str { offsets, bytes },
        ) => ColumnData::Utf8(VarBuffer::from_raw(offsets.clone(), bytes.clone())),
        (HiveType::Binary, ColumnValues::Binary { offsets, bytes }) => {
            ColumnData::Bytes(VarBuffer::from_raw(offsets.clone(), bytes.clone()))
        }
        (HiveType::Date, ColumnValues::Date(v)) => ColumnData::Int32(v.clone()),
        (HiveType::Timestamp, ColumnValues::Timestamp(v)) => match format {
            StorageFormat::Orc => {
                let min = orc_min_timestamp_micros();
                let mut validity = Bitmap::with_capacity(v.len());
                let mut out = Vec::with_capacity(v.len());
                for (i, us) in v.iter().enumerate() {
                    if col.validity().get(i) && *us < min {
                        // Legacy ORC cannot represent pre-1900 instants;
                        // Hive writes NULL and logs (HIVE-26528 / D06).
                        diag.warn(
                            "HIVE_ORC_LEGACY_TIMESTAMP",
                            "pre-1900 timestamp not representable in legacy ORC, writing NULL"
                                .to_string(),
                        );
                        validity.push(false);
                        out.push(0);
                    } else {
                        validity.push(col.validity().get(i));
                        out.push(*us);
                    }
                }
                return Ok(BatchColumn {
                    validity,
                    data: ColumnData::Int64(out),
                });
            }
            StorageFormat::Parquet => {
                // Julian rebase: Hive writes the hybrid-calendar
                // representation and marks the file metadata.
                let cutover = gregorian_cutover_micros();
                ColumnData::Int64(
                    v.iter()
                        .enumerate()
                        .map(|(i, us)| {
                            if col.validity().get(i) && *us < cutover {
                                *us - JULIAN_SHIFT_MICROS
                            } else {
                                *us
                            }
                        })
                        .collect(),
                )
            }
            StorageFormat::Avro => ColumnData::Int64(v.clone()),
        },
        // Nested, Mixed, and type-skewed columns replay the per-cell
        // converter (identical SchemaMismatch errors and diagnostics).
        _ => {
            let phys_ty = physical_type_for(format, &def.hive_type);
            let mut out = BatchColumn::with_capacity(&phys_ty, col.len());
            for i in 0..col.len() {
                let pv = to_physical(format, &def.hive_type, &col.get(i), diag)?;
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

/// The retained row-at-a-time serializer: the pre-columnar baseline, kept
/// for differential testing and as the benchmark reference point.
pub fn write_file_rows(
    format: StorageFormat,
    columns: &[ColumnDef],
    rows: &[Vec<Value>],
    diag: &DiagHandle,
) -> Result<Vec<u8>, HiveError> {
    let mut schema = FileSchema::default();
    for col in columns {
        schema.columns.push(PhysicalColumn {
            name: col.name.clone(),
            ty: physical_type_for(format, &col.hive_type),
            logical: logical_annotation(&col.hive_type),
        });
    }
    schema.meta.insert("writer".into(), "hive".into());
    if format == StorageFormat::Parquet {
        schema
            .meta
            .insert(parquet::TIMESTAMP_REBASE_KEY.into(), "julian".into());
    }
    let mut out_rows = Vec::with_capacity(rows.len());
    for row in rows {
        if row.len() != columns.len() {
            return Err(HiveError::Arity {
                expected: columns.len(),
                got: row.len(),
            });
        }
        let mut out = Vec::with_capacity(row.len());
        for (col, v) in columns.iter().zip(row) {
            out.push(to_physical(format, &col.hive_type, v, diag)?);
        }
        out_rows.push(out);
    }
    let encode = match format {
        StorageFormat::Orc => orc::encode(&schema, &out_rows),
        StorageFormat::Parquet => parquet::encode(&schema, &out_rows),
        StorageFormat::Avro => avro::encode(&schema, &out_rows),
    };
    encode.map_err(|e| serde_err(format, e))
}

fn to_physical(
    format: StorageFormat,
    ty: &HiveType,
    value: &Value,
    diag: &DiagHandle,
) -> Result<PhysicalValue, HiveError> {
    if value.is_null() {
        return Ok(PhysicalValue::Null);
    }
    Ok(match (ty, value) {
        (HiveType::Boolean, Value::Boolean(b)) => PhysicalValue::Bool(*b),
        (HiveType::TinyInt, Value::Byte(v)) => match format {
            StorageFormat::Avro => PhysicalValue::Int32(*v as i32),
            _ => PhysicalValue::Int8(*v),
        },
        (HiveType::SmallInt, Value::Short(v)) => match format {
            StorageFormat::Avro => PhysicalValue::Int32(*v as i32),
            _ => PhysicalValue::Int16(*v),
        },
        (HiveType::Int, Value::Int(v)) => PhysicalValue::Int32(*v),
        (HiveType::BigInt, Value::Long(v)) => PhysicalValue::Int64(*v),
        (HiveType::Float, Value::Float(v)) => PhysicalValue::Float32(*v),
        (HiveType::Double, Value::Double(v)) => PhysicalValue::Float64(*v),
        (HiveType::Decimal(p, s), Value::Decimal(d)) => {
            // Hive stores the table-declared scale, rescaling if needed.
            let rescaled = crate::value::rescale_half_up(d, *p, *s).ok_or_else(|| {
                HiveError::SchemaMismatch {
                    message: format!("decimal {d} does not fit decimal({p},{s})"),
                }
            })?;
            PhysicalValue::Decimal {
                unscaled: rescaled.unscaled,
                scale: rescaled.scale,
            }
        }
        (HiveType::Str | HiveType::Char(_) | HiveType::Varchar(_), Value::Str(s)) => {
            PhysicalValue::Utf8(s.clone())
        }
        (HiveType::Binary, Value::Binary(b)) => PhysicalValue::Bytes(b.clone()),
        (HiveType::Date, Value::Date(d)) => PhysicalValue::Int32(*d),
        (HiveType::Timestamp, Value::Timestamp(us)) => {
            match format {
                StorageFormat::Orc if *us < orc_min_timestamp_micros() => {
                    // Legacy ORC cannot represent pre-1900 instants; Hive
                    // writes NULL and logs (HIVE-26528 / D06).
                    diag.warn(
                        "HIVE_ORC_LEGACY_TIMESTAMP",
                        "pre-1900 timestamp not representable in legacy ORC, writing NULL"
                            .to_string(),
                    );
                    PhysicalValue::Null
                }
                StorageFormat::Parquet if *us < gregorian_cutover_micros() => {
                    // Julian rebase: Hive writes the hybrid-calendar
                    // representation and marks the file metadata.
                    PhysicalValue::Int64(*us - JULIAN_SHIFT_MICROS)
                }
                _ => PhysicalValue::Int64(*us),
            }
        }
        (HiveType::Array(et), Value::Array(items)) => PhysicalValue::List(
            items
                .iter()
                .map(|v| to_physical(format, et, v, diag))
                .collect::<Result<Vec<_>, _>>()?,
        ),
        (HiveType::Map(kt, vt), Value::Map(pairs)) => PhysicalValue::Map(
            pairs
                .iter()
                .map(|(k, v)| {
                    Ok((
                        to_physical(format, kt, k, diag)?,
                        to_physical(format, vt, v, diag)?,
                    ))
                })
                .collect::<Result<Vec<_>, HiveError>>()?,
        ),
        (HiveType::Struct(fields), Value::Struct(values)) => PhysicalValue::Struct(
            fields
                .iter()
                .zip(values)
                .map(|((fname, fty), (_, v))| {
                    Ok((fname.clone(), to_physical(format, fty, v, diag)?))
                })
                .collect::<Result<Vec<_>, HiveError>>()?,
        ),
        (ty, v) => {
            return Err(HiveError::SchemaMismatch {
                message: format!("value {} does not match column type {ty}", v.signature()),
            })
        }
    })
}

/// Deserializes a table data file against the declared schema.
///
/// Thin row-API adapter over [`read_columns`]. Values and errors match
/// [`read_file_rows`]; the one intended diagnostic difference is that a
/// missing column warns **once per file** instead of once per row (the
/// row baseline re-warned for every row of a million-row file).
pub fn read_file(
    format: StorageFormat,
    columns: &[ColumnDef],
    bytes: &[u8],
    diag: &DiagHandle,
) -> Result<Vec<Vec<Value>>, HiveError> {
    Ok(rows_from_columns(&read_columns(
        format, columns, bytes, diag,
    )?))
}

/// Deserializes typed column buffers directly — the bulk read hot path.
pub fn read_columns(
    format: StorageFormat,
    columns: &[ColumnDef],
    bytes: &[u8],
    diag: &DiagHandle,
) -> Result<Vec<ValueColumn>, HiveError> {
    let batch = match format {
        StorageFormat::Orc => orc::decode_batch(bytes),
        StorageFormat::Parquet => parquet::decode_batch(bytes),
        StorageFormat::Avro => avro::decode_batch(bytes),
    }
    .map_err(|e| serde_err(format, e))?;
    let julian = batch
        .schema
        .meta
        .get(parquet::TIMESTAMP_REBASE_KEY)
        .map(String::as_str)
        == Some("julian");
    let nrows = batch.len();
    // Case-insensitive column resolution; missing columns become NULL.
    let mut out = Vec::with_capacity(columns.len());
    for def in columns {
        let col = match batch.schema.index_of_ci(&def.name) {
            Some(i) => column_from_physical(format, def, &batch.columns[i], julian, diag)?,
            None => {
                diag.warn(
                    "HIVE_MISSING_COLUMN",
                    format!("column {} missing in data file, reading NULL", def.name),
                );
                ValueColumn::nulls(&def.hive_type.to_data_type(), nrows)
            }
        };
        out.push(col);
    }
    Ok(out)
}

/// Converts one physical batch column into a typed value column. Each
/// fast path is the vectorized image of the matching [`from_physical`]
/// arm, including Hive's lenient narrowing (overflow → NULL with a
/// warning) and declared-scale decimal validation.
fn column_from_physical(
    format: StorageFormat,
    def: &ColumnDef,
    col: &BatchColumn,
    julian: bool,
    diag: &DiagHandle,
) -> Result<ValueColumn, HiveError> {
    let validity = || Validity::from_raw(col.validity.words().to_vec(), col.len());
    let values = match (&def.hive_type, &col.data) {
        (HiveType::Boolean, ColumnData::Bool(v)) => ColumnValues::Boolean(v.clone()),
        (HiveType::TinyInt, ColumnData::Int8(v)) => ColumnValues::Byte(v.clone()),
        // Hive's reader narrows widened integers back, leniently — the
        // conversion Spark's Avro reader is missing (SPARK-39075).
        (HiveType::TinyInt, ColumnData::Int32(v)) => {
            let mut validity = Validity::with_capacity(v.len());
            let mut out = Vec::with_capacity(v.len());
            for (i, x) in v.iter().enumerate() {
                if !col.validity.get(i) {
                    validity.push(false);
                    out.push(0);
                    continue;
                }
                match i8::try_from(*x) {
                    Ok(b) => {
                        validity.push(true);
                        out.push(b);
                    }
                    Err(_) => {
                        diag.warn(
                            "HIVE_NARROWING_NULL",
                            format!("int value {x} does not fit tinyint, reading NULL"),
                        );
                        validity.push(false);
                        out.push(0);
                    }
                }
            }
            return Ok(ValueColumn::from_parts(validity, ColumnValues::Byte(out)));
        }
        (HiveType::SmallInt, ColumnData::Int16(v)) => ColumnValues::Short(v.clone()),
        (HiveType::SmallInt, ColumnData::Int32(v)) => {
            let mut validity = Validity::with_capacity(v.len());
            let mut out = Vec::with_capacity(v.len());
            for (i, x) in v.iter().enumerate() {
                if !col.validity.get(i) {
                    validity.push(false);
                    out.push(0);
                    continue;
                }
                match i16::try_from(*x) {
                    Ok(s) => {
                        validity.push(true);
                        out.push(s);
                    }
                    Err(_) => {
                        diag.warn(
                            "HIVE_NARROWING_NULL",
                            format!("int value {x} does not fit smallint, reading NULL"),
                        );
                        validity.push(false);
                        out.push(0);
                    }
                }
            }
            return Ok(ValueColumn::from_parts(validity, ColumnValues::Short(out)));
        }
        (HiveType::Int, ColumnData::Int32(v)) => ColumnValues::Int(v.clone()),
        // Files written with a wider schema than the table declares.
        (HiveType::Int, ColumnData::Int8(v)) => {
            ColumnValues::Int(v.iter().map(|x| *x as i32).collect())
        }
        (HiveType::Int, ColumnData::Int16(v)) => {
            ColumnValues::Int(v.iter().map(|x| *x as i32).collect())
        }
        (HiveType::BigInt, ColumnData::Int64(v)) => ColumnValues::Long(v.clone()),
        (HiveType::BigInt, ColumnData::Int32(v)) => {
            ColumnValues::Long(v.iter().map(|x| *x as i64).collect())
        }
        (HiveType::Float, ColumnData::Float32(v)) => ColumnValues::Float(v.clone()),
        (HiveType::Double, ColumnData::Float64(v)) => ColumnValues::Double(v.clone()),
        (HiveType::Decimal(p, s), ColumnData::Decimal { unscaled, scale }) => {
            // Hive validates the stored scale against the declaration
            // (the rigidity behind SPARK-39158 / D02).
            let mut precision = Vec::with_capacity(unscaled.len());
            for i in 0..unscaled.len() {
                if !col.validity.get(i) {
                    precision.push(1);
                    continue;
                }
                if scale[i] != *s {
                    return Err(HiveError::SerDe {
                        format: "decimal-reader",
                        message: format!(
                            "file stores decimal scale {} but table declares decimal({p},{s})",
                            scale[i]
                        ),
                    });
                }
                // Digits computed inline; the checked constructor is only
                // replayed when a bound trips, for its exact error.
                let n = unscaled[i].unsigned_abs();
                let digits = (match u64::try_from(n) {
                    Ok(0) => 1,
                    Ok(v) => v.ilog10() + 1,
                    Err(_) => n.ilog10() + 1,
                }) as u8;
                if *p == 0 || *p > Decimal::MAX_PRECISION || *s > *p || digits > *p {
                    Decimal::new(unscaled[i], *p, *s).map_err(|e| HiveError::SerDe {
                        format: "decimal-reader",
                        message: e.to_string(),
                    })?;
                }
                precision.push(*p);
            }
            ColumnValues::Decimal {
                unscaled: unscaled.clone(),
                precision,
                scale: scale.clone(),
            }
        }
        (HiveType::Str | HiveType::Char(_) | HiveType::Varchar(_), ColumnData::Utf8(buf)) => {
            ColumnValues::Str {
                offsets: buf.offsets().to_vec(),
                bytes: buf.raw_bytes().to_vec(),
            }
        }
        (HiveType::Binary, ColumnData::Bytes(buf)) => ColumnValues::Binary {
            offsets: buf.offsets().to_vec(),
            bytes: buf.raw_bytes().to_vec(),
        },
        (HiveType::Date, ColumnData::Int32(v)) => ColumnValues::Date(v.clone()),
        (HiveType::Timestamp, ColumnData::Int64(v)) => {
            let cutover = gregorian_cutover_micros();
            let shift = format == StorageFormat::Parquet && julian;
            ColumnValues::Timestamp(
                v.iter()
                    .map(|us| {
                        if shift && *us < cutover {
                            *us + JULIAN_SHIFT_MICROS
                        } else {
                            *us
                        }
                    })
                    .collect(),
            )
        }
        // Nested values and type-skewed buffers replay the per-cell
        // reader (identical errors and diagnostics).
        _ => {
            let mut out = ValueColumn::with_capacity(&def.hive_type.to_data_type(), col.len());
            for i in 0..col.len() {
                let v = from_physical(format, &def.hive_type, &col.get(i), julian, diag)?;
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
    columns: &[ColumnDef],
    bytes: &[u8],
    diag: &DiagHandle,
) -> Result<Vec<Vec<Value>>, HiveError> {
    let (schema, raw_rows) = match format {
        StorageFormat::Orc => orc::decode(bytes),
        StorageFormat::Parquet => parquet::decode(bytes),
        StorageFormat::Avro => avro::decode(bytes),
    }
    .map_err(|e| serde_err(format, e))?;
    let julian = schema
        .meta
        .get(parquet::TIMESTAMP_REBASE_KEY)
        .map(String::as_str)
        == Some("julian");
    // Case-insensitive column resolution; missing columns become NULL.
    let mapping: Vec<Option<usize>> = columns
        .iter()
        .map(|c| schema.index_of_ci(&c.name))
        .collect();
    let mut out = Vec::with_capacity(raw_rows.len());
    for raw in &raw_rows {
        let mut row = Vec::with_capacity(columns.len());
        for (col, idx) in columns.iter().zip(&mapping) {
            let value = match idx {
                Some(i) => from_physical(format, &col.hive_type, &raw[*i], julian, diag)?,
                None => {
                    diag.warn(
                        "HIVE_MISSING_COLUMN",
                        format!("column {} missing in data file, reading NULL", col.name),
                    );
                    Value::Null
                }
            };
            row.push(value);
        }
        out.push(row);
    }
    Ok(out)
}

fn from_physical(
    format: StorageFormat,
    ty: &HiveType,
    value: &PhysicalValue,
    julian: bool,
    diag: &DiagHandle,
) -> Result<Value, HiveError> {
    if matches!(value, PhysicalValue::Null) {
        return Ok(Value::Null);
    }
    Ok(match (ty, value) {
        (HiveType::Boolean, PhysicalValue::Bool(b)) => Value::Boolean(*b),
        (HiveType::TinyInt, PhysicalValue::Int8(v)) => Value::Byte(*v),
        // Hive's reader narrows widened integers back, leniently — the
        // conversion Spark's Avro reader is missing (SPARK-39075).
        (HiveType::TinyInt, PhysicalValue::Int32(v)) => match i8::try_from(*v) {
            Ok(b) => Value::Byte(b),
            Err(_) => {
                diag.warn(
                    "HIVE_NARROWING_NULL",
                    format!("int value {v} does not fit tinyint, reading NULL"),
                );
                Value::Null
            }
        },
        (HiveType::SmallInt, PhysicalValue::Int16(v)) => Value::Short(*v),
        (HiveType::SmallInt, PhysicalValue::Int32(v)) => match i16::try_from(*v) {
            Ok(s) => Value::Short(s),
            Err(_) => {
                diag.warn(
                    "HIVE_NARROWING_NULL",
                    format!("int value {v} does not fit smallint, reading NULL"),
                );
                Value::Null
            }
        },
        (HiveType::Int, PhysicalValue::Int32(v)) => Value::Int(*v),
        // Files written with a wider schema than the table declares.
        (HiveType::Int, PhysicalValue::Int8(v)) => Value::Int(*v as i32),
        (HiveType::Int, PhysicalValue::Int16(v)) => Value::Int(*v as i32),
        (HiveType::BigInt, PhysicalValue::Int64(v)) => Value::Long(*v),
        (HiveType::BigInt, PhysicalValue::Int32(v)) => Value::Long(*v as i64),
        (HiveType::Float, PhysicalValue::Float32(v)) => Value::Float(*v),
        (HiveType::Double, PhysicalValue::Float64(v)) => Value::Double(*v),
        (HiveType::Decimal(p, s), PhysicalValue::Decimal { unscaled, scale }) => {
            // Hive validates the stored scale against the declaration
            // (the rigidity behind SPARK-39158 / D02).
            if *scale != *s {
                return Err(HiveError::SerDe {
                    format: "decimal-reader",
                    message: format!(
                        "file stores decimal scale {scale} but table declares decimal({p},{s})"
                    ),
                });
            }
            Value::Decimal(
                Decimal::new(*unscaled, *p, *s).map_err(|e| HiveError::SerDe {
                    format: "decimal-reader",
                    message: e.to_string(),
                })?,
            )
        }
        (HiveType::Str | HiveType::Char(_) | HiveType::Varchar(_), PhysicalValue::Utf8(s)) => {
            Value::Str(s.clone())
        }
        (HiveType::Binary, PhysicalValue::Bytes(b)) => Value::Binary(b.clone()),
        (HiveType::Date, PhysicalValue::Int32(d)) => Value::Date(*d),
        (HiveType::Timestamp, PhysicalValue::Int64(us)) => {
            let adjusted =
                if format == StorageFormat::Parquet && julian && *us < gregorian_cutover_micros() {
                    *us + JULIAN_SHIFT_MICROS
                } else {
                    *us
                };
            Value::Timestamp(adjusted)
        }
        (HiveType::Array(et), PhysicalValue::List(items)) => Value::Array(
            items
                .iter()
                .map(|v| from_physical(format, et, v, julian, diag))
                .collect::<Result<Vec<_>, _>>()?,
        ),
        (HiveType::Map(kt, vt), PhysicalValue::Map(pairs)) => Value::Map(
            pairs
                .iter()
                .map(|(k, v)| {
                    Ok((
                        from_physical(format, kt, k, julian, diag)?,
                        from_physical(format, vt, v, julian, diag)?,
                    ))
                })
                .collect::<Result<Vec<_>, HiveError>>()?,
        ),
        (HiveType::Struct(fields), PhysicalValue::Struct(values)) => {
            // Field resolution is case-insensitive; Hive reports its own
            // (lowercase) field names in the result.
            let mut out = Vec::with_capacity(fields.len());
            for (fname, fty) in fields {
                let found = values.iter().find(|(n, _)| n.eq_ignore_ascii_case(fname));
                let v = match found {
                    Some((_, v)) => from_physical(format, fty, v, julian, diag)?,
                    None => Value::Null,
                };
                out.push((fname.clone(), v));
            }
            Value::Struct(out)
        }
        (ty, v) => {
            return Err(HiveError::SerDe {
                format: "hive-reader",
                message: format!("cannot read physical {v:?} as {ty}"),
            })
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use csi_core::diag::DiagSink;
    use csi_core::value::parse_timestamp;

    fn cols(defs: &[(&str, HiveType)]) -> Vec<ColumnDef> {
        defs.iter()
            .map(|(n, t)| ColumnDef {
                name: n.to_string(),
                hive_type: t.clone(),
            })
            .collect()
    }

    fn roundtrip(
        format: StorageFormat,
        columns: &[ColumnDef],
        rows: Vec<Vec<Value>>,
    ) -> Vec<Vec<Value>> {
        let sink = DiagSink::new();
        let h = sink.handle("minihive");
        let bytes = write_file(format, columns, &rows, &h).unwrap();
        read_file(format, columns, &bytes, &h).unwrap()
    }

    #[test]
    fn primitive_round_trip_all_formats() {
        let columns = cols(&[
            ("b", HiveType::Boolean),
            ("i", HiveType::Int),
            ("l", HiveType::BigInt),
            ("f", HiveType::Double),
            ("s", HiveType::Str),
            ("d", HiveType::Date),
        ]);
        let rows = vec![vec![
            Value::Boolean(true),
            Value::Int(-5),
            Value::Long(1 << 40),
            Value::Double(2.5),
            Value::Str("hello".into()),
            Value::Date(19000),
        ]];
        for format in StorageFormat::ALL {
            assert_eq!(
                roundtrip(format, &columns, rows.clone()),
                rows,
                "{format:?}"
            );
        }
    }

    #[test]
    fn tinyint_round_trips_through_avro_via_annotation() {
        // Hive widens to int32 physically but narrows back on read.
        let columns = cols(&[("t", HiveType::TinyInt)]);
        let rows = vec![vec![Value::Byte(7)]];
        assert_eq!(roundtrip(StorageFormat::Avro, &columns, rows.clone()), rows);
        // The file really does store an int32.
        let sink = DiagSink::new();
        let h = sink.handle("minihive");
        let bytes = write_file(StorageFormat::Avro, &columns, &rows, &h).unwrap();
        let (schema, raw) = miniformats::avro::decode(&bytes).unwrap();
        assert_eq!(schema.columns[0].ty, PhysicalType::Int32);
        assert_eq!(schema.columns[0].logical.as_deref(), Some("tinyint"));
        assert_eq!(raw[0][0], PhysicalValue::Int32(7));
    }

    #[test]
    fn decimal_scale_mismatch_is_rejected_on_read() {
        // Simulate a foreign writer that stored scale 1 for a (10,2) table.
        let columns = cols(&[("d", HiveType::Decimal(10, 2))]);
        let mut schema = FileSchema::default();
        schema.columns.push(PhysicalColumn {
            name: "d".into(),
            ty: PhysicalType::Decimal,
            logical: None,
        });
        let raw = vec![vec![PhysicalValue::Decimal {
            unscaled: 15,
            scale: 1,
        }]];
        let bytes = miniformats::orc::encode(&schema, &raw).unwrap();
        let sink = DiagSink::new();
        let err = read_file(StorageFormat::Orc, &columns, &bytes, &sink.handle("h")).unwrap_err();
        assert!(err.to_string().contains("scale"), "{err}");
    }

    #[test]
    fn orc_writes_null_for_pre_1900_timestamps() {
        let columns = cols(&[("ts", HiveType::Timestamp)]);
        let old = parse_timestamp("1899-12-31 23:59:59").unwrap();
        let rows = vec![vec![Value::Timestamp(old)]];
        let sink = DiagSink::new();
        let h = sink.handle("minihive");
        let bytes = write_file(StorageFormat::Orc, &columns, &rows, &h).unwrap();
        let back = read_file(StorageFormat::Orc, &columns, &bytes, &h).unwrap();
        assert_eq!(back[0][0], Value::Null);
        assert!(sink
            .drain()
            .iter()
            .any(|d| d.code == "HIVE_ORC_LEGACY_TIMESTAMP"));
        // Modern timestamps are unaffected.
        let now = parse_timestamp("2020-06-01 12:00:00").unwrap();
        let rows = vec![vec![Value::Timestamp(now)]];
        assert_eq!(roundtrip(StorageFormat::Orc, &columns, rows.clone()), rows);
    }

    #[test]
    fn parquet_julian_rebase_round_trips_through_hive() {
        let columns = cols(&[("ts", HiveType::Timestamp)]);
        let ancient = parse_timestamp("1500-01-01 00:00:00").unwrap();
        let rows = vec![vec![Value::Timestamp(ancient)]];
        // Hive wrote it, Hive reads it: the rebase is invisible.
        assert_eq!(
            roundtrip(StorageFormat::Parquet, &columns, rows.clone()),
            rows
        );
        // But the physical file stores the shifted (Julian) value.
        let sink = DiagSink::new();
        let h = sink.handle("minihive");
        let bytes = write_file(StorageFormat::Parquet, &columns, &rows, &h).unwrap();
        let (_, raw) = miniformats::parquet::decode(&bytes).unwrap();
        assert_eq!(
            raw[0][0],
            PhysicalValue::Int64(ancient - JULIAN_SHIFT_MICROS)
        );
    }

    #[test]
    fn missing_columns_read_as_null_with_warning() {
        let write_cols = cols(&[("a", HiveType::Int)]);
        let read_cols = cols(&[("a", HiveType::Int), ("b", HiveType::Str)]);
        let sink = DiagSink::new();
        let h = sink.handle("minihive");
        let bytes =
            write_file(StorageFormat::Orc, &write_cols, &[vec![Value::Int(1)]], &h).unwrap();
        let back = read_file(StorageFormat::Orc, &read_cols, &bytes, &h).unwrap();
        assert_eq!(back[0], vec![Value::Int(1), Value::Null]);
        assert!(sink.drain().iter().any(|d| d.code == "HIVE_MISSING_COLUMN"));
    }

    #[test]
    fn column_resolution_is_case_insensitive() {
        // A foreign writer recorded "CamelCol"; Hive's table says "camelcol".
        let mut schema = FileSchema::default();
        schema.columns.push(PhysicalColumn {
            name: "CamelCol".into(),
            ty: PhysicalType::Int32,
            logical: None,
        });
        let bytes = miniformats::orc::encode(&schema, &[vec![PhysicalValue::Int32(9)]]).unwrap();
        let read_cols = cols(&[("camelcol", HiveType::Int)]);
        let sink = DiagSink::new();
        let back = read_file(StorageFormat::Orc, &read_cols, &bytes, &sink.handle("h")).unwrap();
        assert_eq!(back[0][0], Value::Int(9));
    }

    #[test]
    fn nested_values_round_trip() {
        let columns = cols(&[(
            "m",
            HiveType::Map(Box::new(HiveType::Int), Box::new(HiveType::Str)),
        )]);
        let rows = vec![vec![Value::Map(vec![(
            Value::Int(1),
            Value::Str("one".into()),
        )])]];
        for format in [StorageFormat::Orc, StorageFormat::Parquet] {
            assert_eq!(roundtrip(format, &columns, rows.clone()), rows);
        }
        // Avro rejects the non-string map key at write time (HIVE-26531).
        let sink = DiagSink::new();
        let err = write_file(StorageFormat::Avro, &columns, &rows, &sink.handle("h")).unwrap_err();
        assert!(err.to_string().contains("map keys"), "{err}");
    }

    #[test]
    fn struct_fields_resolve_case_insensitively_with_hive_names() {
        // A foreign writer stored case-preserved field names.
        let mut schema = FileSchema::default();
        schema.columns.push(PhysicalColumn {
            name: "s".into(),
            ty: PhysicalType::Struct(vec![("Inner".into(), PhysicalType::Int32)]),
            logical: None,
        });
        let raw = vec![vec![PhysicalValue::Struct(vec![(
            "Inner".into(),
            PhysicalValue::Int32(3),
        )])]];
        let bytes = miniformats::orc::encode(&schema, &raw).unwrap();
        let read_cols = cols(&[("s", HiveType::Struct(vec![("inner".into(), HiveType::Int)]))]);
        let sink = DiagSink::new();
        let back = read_file(StorageFormat::Orc, &read_cols, &bytes, &sink.handle("h")).unwrap();
        // Hive reports its own lowercase field name (D14's downstream half).
        assert_eq!(
            back[0][0],
            Value::Struct(vec![("inner".into(), Value::Int(3))])
        );
    }

    #[test]
    fn arity_mismatch_is_rejected() {
        let columns = cols(&[("a", HiveType::Int), ("b", HiveType::Int)]);
        let sink = DiagSink::new();
        let err = write_file(
            StorageFormat::Orc,
            &columns,
            &[vec![Value::Int(1)]],
            &sink.handle("h"),
        )
        .unwrap_err();
        assert!(matches!(
            err,
            HiveError::Arity {
                expected: 2,
                got: 1
            }
        ));
    }
}
