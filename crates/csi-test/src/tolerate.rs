//! CSI fault tolerance through interface redundancy.
//!
//! Section 10 ("CSI fault tolerance"): "the downstream systems are well
//! available. A potential direction is to leverage the diversity of
//! existing interfaces to build interaction redundancy across systems."
//!
//! This module implements that idea for the Spark–Hive data plane: a
//! [`redundant_read`] that first reads through Spark's own deserializer
//! stack and, when that fails with a *discrepancy-shaped* error (not an
//! availability error), retries through the HiveQL interface — whose
//! independent serde layer tolerates several of the conditions Spark's
//! does not (widened small integers without annotations, foreign decimal
//! scales). The result records which path served the read, so operators
//! can see the interaction redundancy working.

use csi_core::boundary::{BoundaryCall, CrossingContext};
use csi_core::fault::Channel;
use csi_core::value::Value;
use csi_core::InteractionError;
use minihive::hiveql::HiveQl;
use minispark::{SparkError, SparkSession};

/// Which interface ultimately served a redundant read.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReadPath {
    /// Spark's own reader worked.
    Primary,
    /// Spark failed with a discrepancy; HiveQL served the data.
    HiveFallback,
}

/// Result of a redundant read.
#[derive(Debug, Clone)]
pub struct RedundantRead {
    /// The rows, one value per column per row.
    pub rows: Vec<Vec<Value>>,
    /// The path that produced them.
    pub path: ReadPath,
    /// The primary-path error, when the fallback was used.
    pub primary_error: Option<InteractionError>,
}

/// Whether a Spark read error is a cross-system discrepancy (worth
/// retrying through another interface) rather than an availability or
/// user error (not worth retrying).
pub fn is_discrepancy_shaped(e: &SparkError) -> bool {
    matches!(
        e.code(),
        "INCOMPATIBLE_SCHEMA" | "SERDE_ERROR" | "FORMAT_ERROR" | "DECIMAL_DECODE"
    )
}

/// Reads a table with interface redundancy.
///
/// # Examples
///
/// See `tests/fault_tolerance.rs`, which tolerates the SPARK-39075 (D01)
/// and SPARK-39158 (D02) discrepancies end to end.
pub fn redundant_read(
    spark: &SparkSession,
    hive: &HiveQl,
    table: &str,
) -> Result<RedundantRead, InteractionError> {
    redundant_read_traced(spark, hive, table, None)
}

/// [`redundant_read`] with the fallback decision recorded as a boundary
/// crossing: the trace shows which interface ultimately served the read
/// (`served-by=primary` or `served-by=hive-fallback after <code>`), so
/// the interaction redundancy of Section 10 is observable in the same
/// causal sequence as the crossings that forced it.
pub fn redundant_read_traced(
    spark: &SparkSession,
    hive: &HiveQl,
    table: &str,
    ctx: Option<&CrossingContext>,
) -> Result<RedundantRead, InteractionError> {
    let decision = |info: &str| {
        if let Some(c) = ctx {
            c.note(
                BoundaryCall::new(Channel::Metastore, "redundant_read").with_payload(table),
                info,
            );
        }
    };
    match spark.sql(&format!("SELECT * FROM {table}")) {
        Ok(result) => {
            decision("served-by=primary");
            Ok(RedundantRead {
                rows: result.rows,
                path: ReadPath::Primary,
                primary_error: None,
            })
        }
        Err(primary) if is_discrepancy_shaped(&primary) => {
            let fallback = hive
                .execute(&format!("SELECT * FROM {table}"))
                .map_err(InteractionError::from)?;
            decision(&format!("served-by=hive-fallback after {}", primary.code()));
            Ok(RedundantRead {
                rows: fallback.rows,
                path: ReadPath::HiveFallback,
                primary_error: Some(primary.into()),
            })
        }
        Err(other) => Err(other.into()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use csi_core::diag::DiagSink;
    use csi_core::fault::{Channel, FaultKind, FaultSpec, Trigger};
    use csi_core::value::{DataType, Decimal, StructField};
    use minihdfs::MiniHdfs;
    use minihive::metastore::{Metastore, StorageFormat};
    use parking_lot::Mutex;
    use std::sync::Arc;

    #[allow(clippy::type_complexity)]
    fn injectable_deployment() -> (
        SparkSession,
        HiveQl,
        Arc<Mutex<Metastore>>,
        Arc<Mutex<MiniHdfs>>,
    ) {
        let sink = DiagSink::new();
        let ms = Arc::new(Mutex::new(Metastore::new()));
        let fs = Arc::new(Mutex::new(MiniHdfs::with_datanodes(3)));
        let spark = SparkSession::connect(ms.clone(), fs.clone(), sink.handle("minispark"));
        let hive = HiveQl::new(ms.clone(), fs.clone(), sink.handle("minihive"));
        (spark, hive, ms, fs)
    }

    fn deployment() -> (SparkSession, HiveQl) {
        let (spark, hive, _, _) = injectable_deployment();
        (spark, hive)
    }

    fn fault(channel: Channel, op: &str, kind: FaultKind, trigger: Trigger) -> FaultSpec {
        FaultSpec {
            id: format!("tolerate-{op}"),
            channel,
            op: op.to_string(),
            kind,
            trigger,
        }
    }

    #[test]
    fn healthy_tables_read_through_the_primary_path() {
        let (spark, hive) = deployment();
        spark.sql("CREATE TABLE t (a INT)").unwrap();
        spark.sql("INSERT INTO t VALUES (7)").unwrap();
        let r = redundant_read(&spark, &hive, "t").unwrap();
        assert_eq!(r.path, ReadPath::Primary);
        assert_eq!(r.rows, vec![vec![Value::Int(7)]]);
        assert!(r.primary_error.is_none());
    }

    #[test]
    fn d01_is_tolerated_through_the_hive_fallback() {
        // SPARK-39075: Spark cannot read its own Avro BYTE file...
        let (spark, hive) = deployment();
        let df = spark.dataframe();
        df.create_table(
            "b",
            &[StructField::new("c", DataType::Byte)],
            StorageFormat::Avro,
        )
        .unwrap();
        df.insert_into("b", &[vec![Value::Byte(5)]]).unwrap();
        // ... but the redundant reader still serves the data.
        let r = redundant_read(&spark, &hive, "b").unwrap();
        assert_eq!(r.path, ReadPath::HiveFallback);
        assert_eq!(r.rows, vec![vec![Value::Byte(5)]]);
        assert_eq!(
            r.primary_error.as_ref().map(|e| e.code.as_str()),
            Some("INCOMPATIBLE_SCHEMA")
        );
    }

    #[test]
    fn fallback_decisions_are_recorded_as_boundary_crossings() {
        let (spark, hive) = deployment();
        let df = spark.dataframe();
        df.create_table(
            "b",
            &[StructField::new("c", DataType::Byte)],
            StorageFormat::Avro,
        )
        .unwrap();
        df.insert_into("b", &[vec![Value::Byte(5)]]).unwrap();
        spark.sql("CREATE TABLE t (a INT)").unwrap();
        spark.sql("INSERT INTO t VALUES (7)").unwrap();
        let ctx = CrossingContext::new();
        // A healthy read notes the primary path...
        let r = redundant_read_traced(&spark, &hive, "t", Some(&ctx)).unwrap();
        assert_eq!(r.path, ReadPath::Primary);
        // ... and a tolerated discrepancy notes which interface healed it.
        let r = redundant_read_traced(&spark, &hive, "b", Some(&ctx)).unwrap();
        assert_eq!(r.path, ReadPath::HiveFallback);
        let lines = ctx.trace().compact();
        assert!(
            lines.iter().any(|l| l.contains("served-by=primary")),
            "{lines:?}"
        );
        assert!(
            lines
                .iter()
                .any(|l| l.contains("served-by=hive-fallback after INCOMPATIBLE_SCHEMA")),
            "{lines:?}"
        );
    }

    #[test]
    fn d02_decimal_is_not_hive_recoverable_and_errors_cleanly() {
        // The D02 direction is inverted (Hive is the side that fails), so
        // the fallback cannot help; the reader must not mask that.
        let (spark, hive) = deployment();
        let df = spark.dataframe();
        df.create_table(
            "d",
            &[StructField::new("c", DataType::Decimal(10, 2))],
            StorageFormat::Orc,
        )
        .unwrap();
        df.insert_into("d", &[vec![Value::Decimal(Decimal::parse("1.5").unwrap())]])
            .unwrap();
        // Spark reads fine: primary path.
        let r = redundant_read(&spark, &hive, "d").unwrap();
        assert_eq!(r.path, ReadPath::Primary);
    }

    #[test]
    fn availability_errors_are_not_retried() {
        let (spark, hive) = deployment();
        let err = redundant_read(&spark, &hive, "missing").unwrap_err();
        assert_eq!(err.code, "HIVE_METASTORE");
    }

    #[test]
    fn injected_metastore_outage_is_surfaced_not_retried() {
        // An unavailable metastore is an availability fault, not a
        // discrepancy: the redundant reader must surface it, never mask
        // it behind the HiveQL fallback (which shares the metastore and
        // would fail anyway).
        let (spark, hive, ms, _fs) = injectable_deployment();
        spark.sql("CREATE TABLE t (a INT)").unwrap();
        spark.sql("INSERT INTO t VALUES (7)").unwrap();
        let ctx = CrossingContext::new();
        ctx.arm(fault(
            Channel::Metastore,
            "get_table",
            FaultKind::Unavailable,
            Trigger::Always,
        ));
        ms.lock().set_crossing(ctx.clone());
        let err = redundant_read(&spark, &hive, "t").unwrap_err();
        assert_eq!(err.code, "HIVE_METASTORE");
        assert!(!ctx.fired().is_empty());
    }

    #[test]
    fn one_shot_hdfs_corruption_is_tolerated_through_the_fallback() {
        // A corrupted read produces a discrepancy-shaped serde failure on
        // the primary path; the one-shot trigger means the fallback's own
        // read of the same file is clean, so redundancy genuinely helps.
        let (spark, hive, _ms, fs) = injectable_deployment();
        let df = spark.dataframe();
        df.create_table(
            "t",
            &[StructField::new("a", DataType::Int)],
            StorageFormat::Orc,
        )
        .unwrap();
        df.insert_into("t", &[vec![Value::Int(7)]]).unwrap();
        let ctx = CrossingContext::new();
        ctx.arm(fault(
            Channel::Hdfs,
            "read",
            FaultKind::CorruptPayload,
            Trigger::OnCall(0),
        ));
        fs.lock().set_crossing(ctx.clone());
        let r = redundant_read(&spark, &hive, "t").unwrap();
        assert_eq!(r.path, ReadPath::HiveFallback);
        assert_eq!(r.rows, vec![vec![Value::Int(7)]]);
        let primary = r.primary_error.expect("primary path must have failed");
        assert!(
            matches!(
                primary.code.as_str(),
                "INCOMPATIBLE_SCHEMA" | "SERDE_ERROR" | "FORMAT_ERROR" | "DECIMAL_DECODE"
            ),
            "fallback fired on a non-discrepancy error: {}",
            primary.code
        );
        assert_eq!(ctx.fired().len(), 1);
    }

    #[test]
    fn injected_hdfs_outage_is_surfaced_not_retried() {
        // SafeMode (availability) on every read: the primary fails with a
        // connector error and the fallback must NOT fire — retrying
        // through HiveQL cannot help when the filesystem itself is down.
        let (spark, hive, _ms, fs) = injectable_deployment();
        spark.sql("CREATE TABLE t (a INT)").unwrap();
        spark.sql("INSERT INTO t VALUES (7)").unwrap();
        let ctx = CrossingContext::new();
        ctx.arm(fault(
            Channel::Hdfs,
            "read",
            FaultKind::Unavailable,
            Trigger::Always,
        ));
        fs.lock().set_crossing(ctx.clone());
        let err = redundant_read(&spark, &hive, "t").unwrap_err();
        assert_eq!(err.code, "HDFS");
        assert!(!ctx.fired().is_empty());
    }
}
