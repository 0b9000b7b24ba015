//! The minikafka broker: topics, partitioned logs, compaction, transactions,
//! and consumer-group offsets.
//!
//! Storage is production-shaped: topic names are interned to dense u32
//! ids, partitions live in a flat sharded map keyed by packed
//! `(topic, partition)` ids, and group offsets / transactions sit in
//! hashed indexes. Every hash map is **lookup-only** — anything
//! order-sensitive (like [`MiniKafka::topics`]) sorts by name before
//! returning, so no observable output depends on hash iteration order or
//! on the ids themselves.

use crate::error::KafkaError;
use bytes::Bytes;
use csi_core::boundary::{BoundaryCall, CrossingContext};
use csi_core::fault::Channel;
use csi_core::intern::{NameTable, Sym};
use std::collections::HashMap;

/// A record offset within a partition.
pub type Offset = i64;

/// A partition index within a topic.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PartitionId(pub u32);

#[derive(Debug, Clone, PartialEq, Eq)]
enum StoredKind {
    Data {
        aborted: bool,
    },
    /// A transaction control marker: occupies an offset, never delivered.
    TxnMarker,
}

#[derive(Debug, Clone)]
struct StoredRecord {
    offset: Offset,
    key: Option<Bytes>,
    value: Option<Bytes>,
    timestamp: u64,
    kind: StoredKind,
}

/// A record as delivered to consumers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConsumerRecord {
    /// The record's offset. **Not necessarily contiguous** with its
    /// neighbors: compaction and transaction markers leave gaps
    /// (SPARK-19361).
    pub offset: Offset,
    /// Optional key.
    pub key: Option<Bytes>,
    /// Value; `None` is a tombstone.
    pub value: Option<Bytes>,
    /// Producer-supplied timestamp.
    pub timestamp: u64,
}

/// Result of a fetch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecordBatch {
    /// Delivered records, in offset order.
    pub records: Vec<ConsumerRecord>,
    /// The partition's current log-end offset (next offset to be assigned).
    pub log_end: Offset,
}

#[derive(Debug, Default)]
struct Partition {
    log: Vec<StoredRecord>,
    next_offset: Offset,
    log_start: Offset,
}

#[derive(Debug)]
struct Transaction {
    topic: u32,
    staged: Vec<(PartitionId, Option<Bytes>, Option<Bytes>, u64)>,
}

#[derive(Debug)]
struct TopicMeta {
    name: String,
    partitions: u32,
}

/// Number of shards in the flat partition map. A fixed power of two keeps
/// the shard choice a pure function of the packed id.
const SHARDS: usize = 16;

/// Packs a dense topic id and partition index into one map key.
fn pkey(topic: u32, partition: PartitionId) -> u64 {
    (u64::from(topic) << 32) | u64::from(partition.0)
}

/// Flat sharded partition store: `(topic, partition)` packed ids hashed
/// into a fixed shard array, replacing the seed's per-topic `Vec` behind a
/// name-keyed `BTreeMap`. Lookups touch one shard; nothing iterates the
/// shards, so layout never leaks into observable output.
#[derive(Debug)]
struct PartitionMap {
    shards: Vec<HashMap<u64, Partition>>,
}

impl Default for PartitionMap {
    fn default() -> PartitionMap {
        PartitionMap {
            shards: (0..SHARDS).map(|_| HashMap::new()).collect(),
        }
    }
}

impl PartitionMap {
    fn shard_of(key: u64) -> usize {
        ((key ^ (key >> 32)) as usize) % SHARDS
    }

    fn insert(&mut self, key: u64, partition: Partition) {
        self.shards[Self::shard_of(key)].insert(key, partition);
    }

    fn get(&self, key: u64) -> Option<&Partition> {
        self.shards[Self::shard_of(key)].get(&key)
    }

    fn get_mut(&mut self, key: u64) -> Option<&mut Partition> {
        self.shards[Self::shard_of(key)].get_mut(&key)
    }
}

/// The in-memory broker.
#[derive(Debug, Default)]
pub struct MiniKafka {
    /// Topic name → dense topic id. Lookup-only.
    topic_ids: HashMap<String, u32>,
    /// Topic metadata, indexed by dense topic id.
    topic_meta: Vec<TopicMeta>,
    /// All partitions of all topics, sharded by packed id.
    partitions: PartitionMap,
    /// Consumer-group name interner for the offset index.
    group_names: NameTable,
    /// `(group, topic, partition)` → committed offset. Lookup-only.
    group_offsets: HashMap<(Sym, u32, u32), Offset>,
    transactions: HashMap<u64, Transaction>,
    next_txn_id: u64,
    crossing: Option<CrossingContext>,
}

impl MiniKafka {
    /// Creates an empty broker.
    pub fn new() -> MiniKafka {
        MiniKafka::default()
    }

    /// Attaches the deployment's crossing context; every broker request
    /// entry point crosses the [`Channel::Kafka`] boundary through it.
    pub fn set_crossing(&mut self, crossing: CrossingContext) {
        self.crossing = Some(crossing);
    }

    /// The broker request boundary crossing at the entry of `op`.
    fn cross(&self, op: &str, topic: &str, partition: PartitionId) -> Result<(), KafkaError> {
        match &self.crossing {
            Some(ctx) => ctx.cross(
                BoundaryCall::new(Channel::Kafka, op)
                    .with_payload(&format!("{topic}/p{}", partition.0)),
            ),
            None => Ok(()),
        }
    }

    /// Creates a topic with `partitions` partitions. Idempotent.
    pub fn create_topic(&mut self, topic: &str, partitions: u32) {
        if self.topic_ids.contains_key(topic) {
            return;
        }
        let id = u32::try_from(self.topic_meta.len()).expect("topic id overflow");
        self.topic_ids.insert(topic.to_string(), id);
        self.topic_meta.push(TopicMeta {
            name: topic.to_string(),
            partitions,
        });
        for p in 0..partitions {
            self.partitions
                .insert(pkey(id, PartitionId(p)), Partition::default());
        }
    }

    /// Topic names, sorted.
    pub fn topics(&self) -> Vec<&str> {
        // Ids are creation-ordered; listings sort by name so the id
        // assignment stays unobservable.
        let mut names: Vec<&str> = self.topic_meta.iter().map(|t| t.name.as_str()).collect();
        names.sort_unstable();
        names
    }

    fn topic_id(&self, topic: &str) -> Result<u32, KafkaError> {
        self.topic_ids
            .get(topic)
            .copied()
            .ok_or_else(|| KafkaError::UnknownTopic(topic.to_string()))
    }

    /// Number of partitions of a topic.
    pub fn partition_count(&self, topic: &str) -> Result<u32, KafkaError> {
        Ok(self.topic_meta[self.topic_id(topic)? as usize].partitions)
    }

    fn partition_mut_by_id(
        &mut self,
        topic: u32,
        partition: PartitionId,
    ) -> Result<&mut Partition, KafkaError> {
        let meta = &self.topic_meta[topic as usize];
        if partition.0 >= meta.partitions {
            return Err(KafkaError::UnknownPartition {
                topic: meta.name.clone(),
                partition: partition.0,
            });
        }
        Ok(self
            .partitions
            .get_mut(pkey(topic, partition))
            .expect("in-range partition exists"))
    }

    fn partition_mut(
        &mut self,
        topic: &str,
        partition: PartitionId,
    ) -> Result<&mut Partition, KafkaError> {
        let id = self.topic_id(topic)?;
        self.partition_mut_by_id(id, partition)
    }

    fn partition(&self, topic: &str, partition: PartitionId) -> Result<&Partition, KafkaError> {
        let id = self.topic_id(topic)?;
        let meta = &self.topic_meta[id as usize];
        if partition.0 >= meta.partitions {
            return Err(KafkaError::UnknownPartition {
                topic: meta.name.clone(),
                partition: partition.0,
            });
        }
        Ok(self
            .partitions
            .get(pkey(id, partition))
            .expect("in-range partition exists"))
    }

    /// Produces one record; returns its offset.
    pub fn produce(
        &mut self,
        topic: &str,
        partition: PartitionId,
        key: Option<&[u8]>,
        value: Option<&[u8]>,
        timestamp: u64,
    ) -> Result<Offset, KafkaError> {
        self.cross("produce", topic, partition)?;
        let p = self.partition_mut(topic, partition)?;
        let offset = p.next_offset;
        p.next_offset += 1;
        p.log.push(StoredRecord {
            offset,
            key: key.map(Bytes::copy_from_slice),
            value: value.map(Bytes::copy_from_slice),
            timestamp,
            kind: StoredKind::Data { aborted: false },
        });
        Ok(offset)
    }

    /// Begins a transaction on a topic; returns the transaction handle.
    pub fn begin_transaction(&mut self, topic: &str) -> Result<u64, KafkaError> {
        let id = self.topic_id(topic)?;
        self.next_txn_id += 1;
        self.transactions.insert(
            self.next_txn_id,
            Transaction {
                topic: id,
                staged: Vec::new(),
            },
        );
        Ok(self.next_txn_id)
    }

    /// Stages a record inside an open transaction.
    pub fn send_transactional(
        &mut self,
        txn: u64,
        partition: PartitionId,
        key: Option<&[u8]>,
        value: Option<&[u8]>,
        timestamp: u64,
    ) -> Result<(), KafkaError> {
        let t = self
            .transactions
            .get_mut(&txn)
            .ok_or(KafkaError::NoOpenTransaction)?;
        t.staged.push((
            partition,
            key.map(Bytes::copy_from_slice),
            value.map(Bytes::copy_from_slice),
            timestamp,
        ));
        Ok(())
    }

    /// Commits a transaction: staged records become visible, and a control
    /// marker consumes one offset per touched partition.
    pub fn commit_transaction(&mut self, txn: u64) -> Result<(), KafkaError> {
        self.finish_transaction(txn, false)
    }

    /// Aborts a transaction: staged records occupy offsets but are never
    /// delivered, and a control marker consumes one more offset.
    pub fn abort_transaction(&mut self, txn: u64) -> Result<(), KafkaError> {
        self.finish_transaction(txn, true)
    }

    fn finish_transaction(&mut self, txn: u64, abort: bool) -> Result<(), KafkaError> {
        let t = self
            .transactions
            .remove(&txn)
            .ok_or(KafkaError::NoOpenTransaction)?;
        let mut touched: Vec<PartitionId> = Vec::new();
        for (partition, key, value, timestamp) in t.staged {
            let p = self.partition_mut_by_id(t.topic, partition)?;
            let offset = p.next_offset;
            p.next_offset += 1;
            p.log.push(StoredRecord {
                offset,
                key,
                value,
                timestamp,
                kind: StoredKind::Data { aborted: abort },
            });
            if !touched.contains(&partition) {
                touched.push(partition);
            }
        }
        for partition in touched {
            let p = self.partition_mut_by_id(t.topic, partition)?;
            let offset = p.next_offset;
            p.next_offset += 1;
            p.log.push(StoredRecord {
                offset,
                key: None,
                value: None,
                timestamp: 0,
                kind: StoredKind::TxnMarker,
            });
        }
        Ok(())
    }

    /// Fetches up to `max_records` delivered records starting at `offset`.
    ///
    /// Control markers and aborted transactional records are skipped, so
    /// **delivered offsets may have gaps**.
    pub fn fetch(
        &self,
        topic: &str,
        partition: PartitionId,
        offset: Offset,
        max_records: usize,
    ) -> Result<RecordBatch, KafkaError> {
        self.cross("fetch", topic, partition)?;
        let p = self.partition(topic, partition)?;
        if offset < p.log_start || offset > p.next_offset {
            return Err(KafkaError::OffsetOutOfRange {
                requested: offset,
                log_start: p.log_start,
                log_end: p.next_offset,
            });
        }
        let records = p
            .log
            .iter()
            .filter(|r| r.offset >= offset)
            .filter(|r| matches!(r.kind, StoredKind::Data { aborted: false }))
            .take(max_records)
            .map(|r| ConsumerRecord {
                offset: r.offset,
                key: r.key.clone(),
                value: r.value.clone(),
                timestamp: r.timestamp,
            })
            .collect();
        Ok(RecordBatch {
            records,
            log_end: p.next_offset,
        })
    }

    /// First valid offset of a partition.
    pub fn log_start_offset(
        &self,
        topic: &str,
        partition: PartitionId,
    ) -> Result<Offset, KafkaError> {
        Ok(self.partition(topic, partition)?.log_start)
    }

    /// One past the last assigned offset.
    pub fn log_end_offset(
        &self,
        topic: &str,
        partition: PartitionId,
    ) -> Result<Offset, KafkaError> {
        self.cross("log_end_offset", topic, partition)?;
        Ok(self.partition(topic, partition)?.next_offset)
    }

    /// Runs log compaction on a partition: for every key, only the most
    /// recent record survives; earlier offsets disappear, leaving gaps.
    /// Records without a key are retained. Returns how many records were
    /// removed.
    pub fn compact(&mut self, topic: &str, partition: PartitionId) -> Result<usize, KafkaError> {
        let p = self.partition_mut(topic, partition)?;
        // Index latest offsets by *borrowed* key slices — the seed cloned
        // every record key into a `BTreeMap<Vec<u8>, Offset>` here, one
        // heap allocation per record per compaction pass.
        let mut latest_by_key: HashMap<&[u8], Offset> = HashMap::new();
        for r in &p.log {
            if let (Some(k), StoredKind::Data { aborted: false }) = (&r.key, &r.kind) {
                latest_by_key.insert(k.as_ref(), r.offset);
            }
        }
        // The index borrows the log, so decide survivors before mutating.
        let keep: Vec<bool> = p
            .log
            .iter()
            .map(|r| match (&r.key, &r.kind) {
                (Some(k), StoredKind::Data { aborted: false }) => {
                    latest_by_key.get(k.as_ref()) == Some(&r.offset)
                }
                (_, StoredKind::TxnMarker) => false, // Markers are garbage-collected.
                _ => true,
            })
            .collect();
        drop(latest_by_key);
        let before = p.log.len();
        let mut idx = 0;
        p.log.retain(|_| {
            let k = keep[idx];
            idx += 1;
            k
        });
        if let Some(first) = p.log.first() {
            p.log_start = p.log_start.max(0).min(first.offset);
        }
        Ok(before - p.log.len())
    }

    /// Applies time-based retention: removes all records with an offset
    /// below `before` and advances the log-start offset. Consumers holding
    /// positions below the new start get `OffsetOutOfRange` on their next
    /// fetch — the other mechanism (besides compaction) by which the
    /// "offsets start at zero" assumption breaks.
    pub fn expire_before(
        &mut self,
        topic: &str,
        partition: PartitionId,
        before: Offset,
    ) -> Result<usize, KafkaError> {
        let p = self.partition_mut(topic, partition)?;
        let len_before = p.log.len();
        p.log.retain(|r| r.offset >= before);
        p.log_start = p.log_start.max(before.min(p.next_offset));
        Ok(len_before - p.log.len())
    }

    /// Commits a consumer-group offset.
    pub fn commit_group_offset(
        &mut self,
        group: &str,
        topic: &str,
        partition: PartitionId,
        offset: Offset,
    ) -> Result<(), KafkaError> {
        self.partition(topic, partition)?;
        let gsym = self.group_names.intern(group);
        let tid = self.topic_id(topic)?;
        self.group_offsets.insert((gsym, tid, partition.0), offset);
        Ok(())
    }

    /// Reads a committed consumer-group offset.
    pub fn committed_offset(
        &self,
        group: &str,
        topic: &str,
        partition: PartitionId,
    ) -> Option<Offset> {
        // A group or topic this broker has never seen has no offsets; the
        // read path never interns, so `&self` suffices.
        let gsym = self.group_names.lookup(group)?;
        let tid = self.topic_ids.get(topic).copied()?;
        self.group_offsets.get(&(gsym, tid, partition.0)).copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const P0: PartitionId = PartitionId(0);

    fn broker() -> MiniKafka {
        let mut k = MiniKafka::new();
        k.create_topic("t", 2);
        k
    }

    #[test]
    fn produce_fetch_round_trip() {
        let mut k = broker();
        for i in 0..5u8 {
            k.produce("t", P0, Some(b"k"), Some(&[i]), i as u64)
                .unwrap();
        }
        let batch = k.fetch("t", P0, 0, 100).unwrap();
        assert_eq!(batch.records.len(), 5);
        assert_eq!(batch.log_end, 5);
        let offsets: Vec<Offset> = batch.records.iter().map(|r| r.offset).collect();
        assert_eq!(offsets, vec![0, 1, 2, 3, 4]); // Contiguous before compaction.
    }

    #[test]
    fn fetch_respects_start_and_max() {
        let mut k = broker();
        for i in 0..10u8 {
            k.produce("t", P0, None, Some(&[i]), 0).unwrap();
        }
        let batch = k.fetch("t", P0, 4, 3).unwrap();
        let offsets: Vec<Offset> = batch.records.iter().map(|r| r.offset).collect();
        assert_eq!(offsets, vec![4, 5, 6]);
    }

    #[test]
    fn fetch_out_of_range_errors() {
        let mut k = broker();
        k.produce("t", P0, None, Some(b"x"), 0).unwrap();
        assert!(matches!(
            k.fetch("t", P0, 99, 10),
            Err(KafkaError::OffsetOutOfRange { .. })
        ));
        assert!(matches!(
            k.fetch("t", P0, -1, 10),
            Err(KafkaError::OffsetOutOfRange { .. })
        ));
        assert!(k.fetch("nope", P0, 0, 1).is_err());
        assert!(k.fetch("t", PartitionId(7), 0, 1).is_err());
    }

    #[test]
    fn compaction_leaves_offset_gaps() {
        let mut k = broker();
        // Three updates to key "a", interleaved with "b".
        k.produce("t", P0, Some(b"a"), Some(b"1"), 0).unwrap(); // 0
        k.produce("t", P0, Some(b"b"), Some(b"1"), 0).unwrap(); // 1
        k.produce("t", P0, Some(b"a"), Some(b"2"), 0).unwrap(); // 2
        k.produce("t", P0, Some(b"a"), Some(b"3"), 0).unwrap(); // 3
        let removed = k.compact("t", P0).unwrap();
        assert_eq!(removed, 2);
        let batch = k.fetch("t", P0, 0, 100).unwrap();
        let offsets: Vec<Offset> = batch.records.iter().map(|r| r.offset).collect();
        // The SPARK-19361 discrepancy: offsets 1 -> 3 jump by 2.
        assert_eq!(offsets, vec![1, 3]);
        assert_eq!(batch.log_end, 4);
    }

    #[test]
    fn committed_transaction_marker_consumes_an_offset() {
        let mut k = broker();
        let txn = k.begin_transaction("t").unwrap();
        k.send_transactional(txn, P0, None, Some(b"x"), 0).unwrap();
        k.send_transactional(txn, P0, None, Some(b"y"), 0).unwrap();
        k.commit_transaction(txn).unwrap();
        k.produce("t", P0, None, Some(b"z"), 0).unwrap();
        let batch = k.fetch("t", P0, 0, 100).unwrap();
        let offsets: Vec<Offset> = batch.records.iter().map(|r| r.offset).collect();
        // Offset 2 is the (invisible) commit marker.
        assert_eq!(offsets, vec![0, 1, 3]);
        assert_eq!(k.log_end_offset("t", P0).unwrap(), 4);
    }

    #[test]
    fn aborted_transaction_records_are_never_delivered() {
        let mut k = broker();
        let txn = k.begin_transaction("t").unwrap();
        k.send_transactional(txn, P0, None, Some(b"ghost"), 0)
            .unwrap();
        k.abort_transaction(txn).unwrap();
        k.produce("t", P0, None, Some(b"real"), 0).unwrap();
        let batch = k.fetch("t", P0, 0, 100).unwrap();
        assert_eq!(batch.records.len(), 1);
        assert_eq!(batch.records[0].offset, 2); // 0 aborted, 1 marker.
        assert_eq!(batch.records[0].value.as_deref(), Some(b"real".as_ref()));
    }

    #[test]
    fn transactions_require_open_handle() {
        let mut k = broker();
        assert!(matches!(
            k.send_transactional(42, P0, None, Some(b"x"), 0),
            Err(KafkaError::NoOpenTransaction)
        ));
        let txn = k.begin_transaction("t").unwrap();
        k.commit_transaction(txn).unwrap();
        assert!(k.commit_transaction(txn).is_err());
    }

    #[test]
    fn retention_advances_the_log_start() {
        let mut k = broker();
        for i in 0..10u8 {
            k.produce("t", P0, None, Some(&[i]), 0).unwrap();
        }
        let removed = k.expire_before("t", P0, 6).unwrap();
        assert_eq!(removed, 6);
        assert_eq!(k.log_start_offset("t", P0).unwrap(), 6);
        // A consumer resuming from its old position is now out of range.
        assert!(matches!(
            k.fetch("t", P0, 3, 10),
            Err(KafkaError::OffsetOutOfRange { log_start: 6, .. })
        ));
        let batch = k.fetch("t", P0, 6, 10).unwrap();
        assert_eq!(batch.records.len(), 4);
        // Expiring past the end empties the log but keeps offsets sane.
        k.expire_before("t", P0, 100).unwrap();
        assert_eq!(k.log_start_offset("t", P0).unwrap(), 10);
        assert!(k.fetch("t", P0, 10, 10).unwrap().records.is_empty());
    }

    #[test]
    fn group_offsets_round_trip() {
        let mut k = broker();
        k.produce("t", P0, None, Some(b"x"), 0).unwrap();
        assert_eq!(k.committed_offset("g", "t", P0), None);
        k.commit_group_offset("g", "t", P0, 1).unwrap();
        assert_eq!(k.committed_offset("g", "t", P0), Some(1));
        assert!(k.commit_group_offset("g", "nope", P0, 0).is_err());
    }

    #[test]
    fn partitions_are_independent() {
        let mut k = broker();
        k.produce("t", P0, None, Some(b"a"), 0).unwrap();
        k.produce("t", PartitionId(1), None, Some(b"b"), 0).unwrap();
        assert_eq!(k.log_end_offset("t", P0).unwrap(), 1);
        assert_eq!(k.log_end_offset("t", PartitionId(1)).unwrap(), 1);
        assert_eq!(k.partition_count("t").unwrap(), 2);
    }
}
