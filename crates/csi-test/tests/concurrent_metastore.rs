//! Stress test: two deployments hammering a *shared* metastore (and
//! filesystem) concurrently must neither lose tables nor leave a lock
//! unusable, even when one engine's statement fails mid-flight. The lock
//! order both engines follow lives in
//! [`minihive::metastore::lock_warehouse`]; the last test pins it.

use csi_core::diag::DiagSink;
use minihdfs::MiniHdfs;
use minihive::hiveql::HiveQl;
use minihive::metastore::Metastore;
use minispark::SparkSession;
use parking_lot::Mutex;
use std::sync::Arc;
use std::time::{Duration, Instant};

const ROUNDS: usize = 40;

#[test]
fn two_deployments_share_a_metastore_without_losing_tables() {
    let metastore = Arc::new(Mutex::new(Metastore::new()));
    let fs = Arc::new(Mutex::new(MiniHdfs::with_datanodes(3)));

    std::thread::scope(|scope| {
        let spark_ms = metastore.clone();
        let spark_fs = fs.clone();
        let spark_worker = scope.spawn(move || {
            let sink = DiagSink::new();
            let spark = SparkSession::connect(spark_ms, spark_fs, sink.handle("minispark"));
            for i in 0..ROUNDS {
                let t = format!("spark_t{i}");
                spark
                    .sql(&format!("CREATE TABLE {t} (c INT) STORED AS ORC"))
                    .unwrap_or_else(|e| panic!("create {t}: {e:?}"));
                spark
                    .sql(&format!("INSERT INTO {t} VALUES ({i})"))
                    .unwrap_or_else(|e| panic!("insert {t}: {e:?}"));
                // Every other round: a statement that fails after taking
                // locks, to prove failures don't wedge the shared state.
                if i % 2 == 0 {
                    assert!(spark.sql("SELECT * FROM missing_table").is_err());
                }
                let rows = spark
                    .sql(&format!("SELECT * FROM {t}"))
                    .unwrap_or_else(|e| panic!("select {t}: {e:?}"))
                    .rows;
                assert_eq!(rows.len(), 1, "table {t} lost its row");
            }
        });

        let hive_ms = metastore.clone();
        let hive_fs = fs.clone();
        let hive_worker = scope.spawn(move || {
            let sink = DiagSink::new();
            let hive = HiveQl::new(hive_ms, hive_fs, sink.handle("minihive"));
            for i in 0..ROUNDS {
                let t = format!("hive_t{i}");
                hive.execute(&format!("CREATE TABLE {t} (c INT) STORED AS ORC"))
                    .unwrap_or_else(|e| panic!("create {t}: {e:?}"));
                hive.execute(&format!("INSERT INTO {t} VALUES ({i})"))
                    .unwrap_or_else(|e| panic!("insert {t}: {e:?}"));
                if i % 2 == 1 {
                    assert!(hive.execute("DROP TABLE missing_table").is_err());
                }
                let rows = hive
                    .execute(&format!("SELECT * FROM {t}"))
                    .unwrap_or_else(|e| panic!("select {t}: {e:?}"))
                    .rows;
                assert_eq!(rows.len(), 1, "table {t} lost its row");
            }
        });

        spark_worker.join().expect("spark worker panicked");
        hive_worker.join().expect("hive worker panicked");
    });

    // No lost tables: every table either engine created is still listed.
    let ms = metastore.lock();
    let mut tables: Vec<String> = ms
        .list_tables("default")
        .expect("default db exists")
        .into_iter()
        .map(str::to_string)
        .collect();
    tables.sort();
    assert_eq!(tables.len(), 2 * ROUNDS, "lost tables: {tables:?}");
    for i in 0..ROUNDS {
        assert!(tables.contains(&format!("spark_t{i}")));
        assert!(tables.contains(&format!("hive_t{i}")));
    }
    drop(ms);

    // Locks are still serviceable after the stress (parking_lot never
    // poisons; a wedged lock would hang here instead).
    assert!(metastore.try_lock().is_some(), "metastore lock wedged");
    assert!(fs.try_lock().is_some(), "filesystem lock wedged");
}

#[test]
fn cross_engine_tables_are_visible_to_the_other_deployment() {
    let metastore = Arc::new(Mutex::new(Metastore::new()));
    let fs = Arc::new(Mutex::new(MiniHdfs::with_datanodes(3)));
    let sink = DiagSink::new();
    let spark = SparkSession::connect(metastore.clone(), fs.clone(), sink.handle("minispark"));
    let hive = HiveQl::new(metastore.clone(), fs.clone(), sink.handle("minihive"));

    spark
        .sql("CREATE TABLE shared_t (c INT) STORED AS ORC")
        .expect("spark create");
    hive.execute("INSERT INTO shared_t VALUES (1)")
        .expect("hive insert into spark table");
    let rows = spark
        .sql("SELECT * FROM shared_t")
        .expect("spark read")
        .rows;
    assert_eq!(rows.len(), 1);
    hive.execute("DROP TABLE shared_t").expect("hive drop");
    assert!(spark.sql("SELECT * FROM shared_t").is_err());
}

#[test]
fn spark_create_never_holds_the_metastore_while_waiting_for_the_filesystem() {
    // A Spark CREATE that locked the filesystem while still holding the
    // metastore would deadlock against any reader holding the filesystem
    // and waiting for the metastore. Hold the filesystem here and wait
    // for the moment the CREATE has registered its table and left the
    // metastore free; a CREATE that keeps it while blocked on the
    // filesystem never gets there.
    let metastore = Arc::new(Mutex::new(Metastore::new()));
    let fs = Arc::new(Mutex::new(MiniHdfs::with_datanodes(3)));
    let fs_guard = fs.lock();
    let spark = SparkSession::connect(
        metastore.clone(),
        fs.clone(),
        DiagSink::new().handle("minispark"),
    );
    let create = std::thread::spawn(move || spark.sql("CREATE TABLE t (c INT) STORED AS ORC"));
    let deadline = Instant::now() + Duration::from_secs(5);
    let mut metastore_free = false;
    while !metastore_free && Instant::now() < deadline {
        metastore_free = metastore
            .try_lock()
            .is_some_and(|ms| ms.get_table("default", "t").is_ok());
        std::thread::sleep(Duration::from_millis(1));
    }
    // Release before asserting, so a failure cannot leave the CREATE
    // blocked forever.
    drop(fs_guard);
    create
        .join()
        .expect("create thread panicked")
        .expect("spark create");
    assert!(
        metastore_free,
        "Spark CREATE held the metastore while waiting for the filesystem"
    );
}
