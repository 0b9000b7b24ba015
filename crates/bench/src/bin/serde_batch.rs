//! Columnar-vs-row serde benchmark: times the write, read, and oracle
//! hot paths over the bulk wide-table schema on both data planes, checks
//! the written bytes are identical, prints a JSON summary, and appends it
//! to the `BENCH_serde.json` trajectory at the repo root.
//!
//! The row plane is the retained `write_file_rows`/`read_file_rows`
//! adapter pair (one `Vec<Value>` per row, one `PhysicalValue` per cell);
//! the columnar plane is `write_columns`/`read_columns` over
//! [`ValueColumn`] buffers, which is what the engines' bulk APIs and the
//! differential oracle actually use. The oracle comparison pits the old
//! per-cell `canonical_eq` row loop against the vectorized
//! `ValueColumn::canonical_eq` + fingerprint path.
//!
//! Usage: `serde_batch [rows] [iters]`, or `serde_batch --smoke` for the
//! CI gate (256 rows, asserts the committed speedup floors).

use csi_bench::trajectory;
use csi_core::column::{rows_from_columns, ValueColumn};
use csi_core::value::Value;
use csi_test::generator::{bulk_schema, generate_bulk_columns};
use minihive::metastore::StorageFormat;
use minispark::SparkConfig;
use serde::Serialize;
use std::collections::BTreeMap;
use std::time::Instant;

/// Committed floors for the CI smoke gate (`--smoke`, 256 rows). These
/// are same-run ratios against the *current* row plane, which itself got
/// ~3x faster during the columnar work (clone fixes, varint rewrite), so
/// they sit well below the criterion-vs-seed speedups documented in
/// EXPERIMENTS.md (>=10x). Measured ~4.3x write / ~55x oracle on the
/// 9-column bulk schema; the floors leave headroom for loaded CI machines
/// and only catch a path regressing back toward the row plane.
const SMOKE_WRITE_FLOOR: f64 = 3.0;
const SMOKE_ORACLE_FLOOR: f64 = 10.0;

/// The JSON document this binary prints and appends to `BENCH_serde.json`.
#[derive(Serialize)]
struct Summary {
    /// Table height.
    rows: usize,
    /// Columns in the bulk schema.
    cols: usize,
    /// Timing iterations (best-of).
    iters: usize,
    /// Row-plane write wall time over columnar write wall time.
    write_speedup_x: f64,
    /// Row-plane read wall time over columnar read wall time.
    read_speedup_x: f64,
    /// Row-loop oracle wall time over vectorized column oracle.
    oracle_speedup_x: f64,
    /// Best per-plane wall times in microseconds, keyed `plane_phase`.
    micros: BTreeMap<String, u64>,
    /// Whether both planes emitted identical bytes in every format.
    bytes_identical: bool,
}

/// Best-of-`iters` wall time of `f`, in nanoseconds.
fn best_of<T>(iters: usize, mut f: impl FnMut() -> T) -> u64 {
    let mut best = u64::MAX;
    for _ in 0..iters {
        let started = Instant::now();
        std::hint::black_box(f());
        best = best.min(started.elapsed().as_nanos() as u64);
    }
    best
}

/// The row-plane differential oracle: build the per-column signature
/// join (one rendered string per cell, exactly what `Observation::
/// behavior` did before the digest fast path) for both sides and compare.
fn row_oracle_agrees(a: &[Vec<Value>], b: &[Vec<Value>]) -> bool {
    let behavior = |rows: &[Vec<Value>], c: usize| -> String {
        let sigs: Vec<String> = rows.iter().map(|r| r[c].signature()).collect();
        sigs.join(";")
    };
    let ncols = a.first().map_or(0, Vec::len);
    a.len() == b.len() && (0..ncols).all(|c| behavior(a, c) == behavior(b, c))
}

/// The columnar differential oracle: vectorized `canonical_eq` (validity
/// words + raw typed-lane compare) plus the lane fingerprint digest that
/// replaced the signature join.
fn column_oracle_agrees(a: &[ValueColumn], b: &[ValueColumn]) -> bool {
    a.len() == b.len()
        && a.iter()
            .zip(b)
            .all(|(x, y)| x.canonical_eq(y) && x.fingerprint() == y.fingerprint())
}

fn main() {
    let mut args = std::env::args().skip(1).peekable();
    let smoke = args.peek().map(String::as_str) == Some("--smoke");
    if smoke {
        args.next();
    }
    let rows: usize = args
        .next()
        .and_then(|a| a.parse().ok())
        .unwrap_or(if smoke { 256 } else { 1 << 20 });
    let iters: usize = args.next().and_then(|a| a.parse().ok()).unwrap_or(
        // Enough repeats to settle at small scale; a couple at 1M rows.
        if rows <= 4096 { 30 } else { 3 },
    );

    let schema = bulk_schema();
    let cols = generate_bulk_columns(rows, 42);
    let rows_data = rows_from_columns(&cols);
    let config = SparkConfig::default();

    let mut micros = BTreeMap::new();
    let mut bytes_identical = true;
    let (mut w_rows, mut w_cols, mut r_rows, mut r_cols) = (0u64, 0u64, 0u64, 0u64);
    for format in StorageFormat::ALL {
        let via_rows =
            minispark::serde_layer::write_file_rows(format, &schema, &rows_data, &config)
                .expect("row write");
        let via_cols = minispark::serde_layer::write_columns(format, &schema, &cols, &config)
            .expect("columnar write");
        bytes_identical &= via_rows == via_cols;

        w_rows += best_of(iters, || {
            minispark::serde_layer::write_file_rows(format, &schema, &rows_data, &config)
        });
        w_cols += best_of(iters, || {
            minispark::serde_layer::write_columns(format, &schema, &cols, &config)
        });
        r_rows += best_of(iters, || {
            minispark::serde_layer::read_file_rows(format, &schema, &via_cols, &config)
        });
        r_cols += best_of(iters, || {
            minispark::serde_layer::read_columns(format, &schema, &via_cols, &config)
        });
    }

    // Oracle comparison over a fresh decode of the same table (equal but
    // not pointer-identical data, as in a real differential check).
    let bytes = minispark::serde_layer::write_columns(StorageFormat::Orc, &schema, &cols, &config)
        .expect("oracle write");
    let cols2 = minispark::serde_layer::read_columns(StorageFormat::Orc, &schema, &bytes, &config)
        .expect("oracle read");
    let rows2 = rows_from_columns(&cols2);
    let o_rows = best_of(iters, || row_oracle_agrees(&rows_data, &rows2));
    let o_cols = best_of(iters, || column_oracle_agrees(&cols, &cols2));
    assert!(
        row_oracle_agrees(&rows_data, &rows2),
        "row oracle saw a diff"
    );
    assert!(
        column_oracle_agrees(&cols, &cols2),
        "column oracle saw a diff"
    );

    micros.insert("write_rows".into(), w_rows / 1_000);
    micros.insert("write_cols".into(), w_cols / 1_000);
    micros.insert("read_rows".into(), r_rows / 1_000);
    micros.insert("read_cols".into(), r_cols / 1_000);
    micros.insert("oracle_rows".into(), o_rows / 1_000);
    micros.insert("oracle_cols".into(), o_cols / 1_000);

    let summary = Summary {
        rows,
        cols: cols.len(),
        iters,
        write_speedup_x: w_rows as f64 / w_cols.max(1) as f64,
        read_speedup_x: r_rows as f64 / r_cols.max(1) as f64,
        oracle_speedup_x: o_rows as f64 / o_cols.max(1) as f64,
        micros,
        bytes_identical,
    };
    println!(
        "BENCH_serde {}",
        serde_json::to_string(&summary).expect("serializable")
    );
    trajectory::append("BENCH_serde.json", "serde_batch", &summary).expect("trajectory append");

    assert!(
        summary.bytes_identical,
        "columnar write bytes diverged from row plane"
    );
    if smoke {
        assert!(
            summary.write_speedup_x >= SMOKE_WRITE_FLOOR,
            "columnar write speedup regressed below {SMOKE_WRITE_FLOOR}x: {:.2}x",
            summary.write_speedup_x
        );
        assert!(
            summary.oracle_speedup_x >= SMOKE_ORACLE_FLOOR,
            "column oracle speedup regressed below {SMOKE_ORACLE_FLOOR}x: {:.2}x",
            summary.oracle_speedup_x
        );
    }
}
