//! Deterministic fault injection at cross-system interaction boundaries.
//!
//! The paper's central claim is that failures fall *between* systems — at
//! metastore RPCs, HDFS file operations, Kafka broker fetches, and YARN
//! allocations. This module makes those boundaries injectable: a seeded,
//! serializable [`FaultPlan`] is armed into a shared [`InjectionRegistry`],
//! and each mini-system's connector layer calls
//! [`CrossingContext::cross`](crate::boundary::CrossingContext::cross) at
//! the entry of its interaction-facing operations — the boundary layer is
//! the only caller of the registry's interpose machinery. A fired fault is
//! *materialized* into the system's native
//! error type through the [`FaultPoint`] trait, so the fault then travels
//! exactly the error-translation path a real boundary failure would take —
//! which is what the [`FaultOutcome`] taxonomy classifies.
//!
//! Everything is deterministic: triggers count calls per `(channel, op)`
//! pair, counters are reset per observation by the executor, and no wall
//! clock or OS randomness is involved, so fault campaigns replay
//! byte-identically across runs and worker counts.

use crate::error::{ErrorKind, InteractionError};
use crate::rng::splitmix64;
use parking_lot::Mutex;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::fmt;
use std::sync::Arc;

/// An interaction channel of the paper's Table 1 that faults can be
/// injected on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum Channel {
    /// Hive metastore RPCs (get/create/alter/drop table).
    Metastore,
    /// HDFS namenode/datanode file operations.
    Hdfs,
    /// Kafka broker requests (produce, fetch, offset lookup).
    Kafka,
    /// YARN ResourceManager requests (allocate, cluster metrics).
    Yarn,
    /// HBase key-value requests (region location lookup, routed gets).
    HBase,
}

impl Channel {
    /// All channels, in canonical order.
    pub const ALL: [Channel; 5] = [
        Channel::Metastore,
        Channel::Hdfs,
        Channel::Kafka,
        Channel::Yarn,
        Channel::HBase,
    ];
}

impl fmt::Display for Channel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Channel::Metastore => "metastore",
            Channel::Hdfs => "hdfs",
            Channel::Kafka => "kafka",
            Channel::Yarn => "yarn",
            Channel::HBase => "hbase",
        };
        f.write_str(s)
    }
}

/// What kind of fault to inject.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum FaultKind {
    /// The serving side is unavailable (safe mode, broker down, RM down).
    Unavailable,
    /// The call times out after `ms` of (virtual) time.
    Timeout {
        /// Simulated elapsed time before the timeout fires.
        ms: u64,
    },
    /// The response payload is corrupted in flight. On read-like ops the
    /// connector may deliver deterministically garbled bytes instead of an
    /// error, exercising the caller's deserialization path.
    CorruptPayload,
    /// The call succeeds but takes `ms` longer than usual — the timing-race
    /// fault behind FLINK-12342. Latency faults never produce an error;
    /// they are recorded as fired and surfaced via
    /// [`InjectionRegistry::virtual_delay_ms`].
    Latency {
        /// Added service latency in virtual milliseconds.
        ms: u64,
    },
}

impl fmt::Display for FaultKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FaultKind::Unavailable => write!(f, "unavailable"),
            FaultKind::Timeout { ms } => write!(f, "timeout({ms}ms)"),
            FaultKind::CorruptPayload => write!(f, "corrupt-payload"),
            FaultKind::Latency { ms } => write!(f, "latency(+{ms}ms)"),
        }
    }
}

/// When a fault fires, relative to the per-observation call counter of its
/// `(channel, op)` pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Trigger {
    /// Fire on every matching call.
    Always,
    /// Fire only on the `n`-th matching call (0-based) of the observation.
    OnCall(u64),
}

/// One enumerable fault: where, what, and when.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct FaultSpec {
    /// Stable identifier, unique within a plan (e.g. `"ms-unavail-get"`).
    pub id: String,
    /// The interaction channel to interpose on.
    pub channel: Channel,
    /// The operation name at that channel (e.g. `"get_table"`).
    pub op: String,
    /// The fault to inject.
    pub kind: FaultKind,
    /// When to fire.
    pub trigger: Trigger,
}

/// A seeded, enumerable, serializable set of faults.
///
/// The seed is carried so a plan derived from it (offsets, latency
/// magnitudes) can be reproduced and so campaign reports can name the run.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct FaultPlan {
    /// The seed the plan was derived from.
    pub seed: u64,
    /// The faults, in injection-catalogue order.
    pub faults: Vec<FaultSpec>,
}

impl FaultPlan {
    /// A plan with no faults. Arming it must be behaviorally identical to
    /// arming nothing — the fault-free-replay property test pins this.
    pub fn empty(seed: u64) -> FaultPlan {
        FaultPlan {
            seed,
            faults: Vec::new(),
        }
    }
}

/// A combination of faults armed *simultaneously* for one trial — the
/// paper's cascading incidents (8/11 studied CSI failures) co-occur rather
/// than arrive one at a time, so compound campaigns inject sets, not
/// singletons.
///
/// The id is the member spec ids joined with `+` (or `"none"` when empty),
/// which keeps reports and cluster reproducers human-readable and makes
/// set identity purely structural.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct FaultSet {
    /// Stable identifier: member ids joined with `+`, `"none"` when empty.
    pub id: String,
    /// The member faults, in combination order.
    pub faults: Vec<FaultSpec>,
}

impl FaultSet {
    /// Builds a set from member specs, deriving the id.
    pub fn new(faults: Vec<FaultSpec>) -> FaultSet {
        let id = if faults.is_empty() {
            "none".to_string()
        } else {
            faults
                .iter()
                .map(|f| f.id.as_str())
                .collect::<Vec<_>>()
                .join("+")
        };
        FaultSet { id, faults }
    }

    /// The empty set. Arming it is behaviorally identical to arming
    /// nothing, exactly like [`FaultPlan::empty`].
    pub fn empty() -> FaultSet {
        FaultSet::new(Vec::new())
    }

    /// Number of member faults.
    pub fn len(&self) -> usize {
        self.faults.len()
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.faults.is_empty()
    }
}

/// Deterministic, seeded enumeration of k-fault combinations (k ≤ 3).
///
/// Every singleton is always present (the k=1 slice — the existing fault
/// matrix), in catalogue order. For `k ≥ 2` the pair (and for `k = 3` the
/// triple) space is sampled without replacement: up to `per_k` seeded
/// draws per arity, each a strictly increasing index tuple so no
/// combination appears twice and member order matches catalogue order.
/// The result is a pure function of `(specs, k, seed, per_k)`, so compound
/// campaigns replay byte-identically.
pub fn fault_combinations(specs: &[FaultSpec], k: usize, seed: u64, per_k: usize) -> Vec<FaultSet> {
    let k = k.min(3);
    let mut out: Vec<FaultSet> = specs
        .iter()
        .map(|s| FaultSet::new(vec![s.clone()]))
        .collect();
    if specs.len() < 2 {
        return out;
    }
    let mut state = seed ^ 0xC0FF_EE00_D15E_A5E5;
    let mut seen: std::collections::BTreeSet<Vec<usize>> = std::collections::BTreeSet::new();
    for arity in 2..=k {
        if specs.len() < arity {
            break;
        }
        let mut drawn = 0;
        // Bounded attempts so a tiny catalogue cannot loop forever once the
        // distinct-combination space is exhausted.
        for _ in 0..per_k * 8 {
            if drawn >= per_k {
                break;
            }
            let mut idx: Vec<usize> = Vec::with_capacity(arity);
            while idx.len() < arity {
                let i = (splitmix64(&mut state) % specs.len() as u64) as usize;
                if !idx.contains(&i) {
                    idx.push(i);
                }
            }
            idx.sort_unstable();
            if seen.insert(idx.clone()) {
                out.push(FaultSet::new(
                    idx.iter().map(|&i| specs[i].clone()).collect(),
                ));
                drawn += 1;
            }
        }
    }
    out
}

/// Record of a fault that actually fired.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct InjectedFault {
    /// The [`FaultSpec::id`] that fired.
    pub spec_id: String,
    /// Channel it fired on.
    pub channel: Channel,
    /// Operation it fired on.
    pub op: String,
    /// The injected fault kind.
    pub kind: FaultKind,
    /// 0-based call index (within the observation) at which it fired.
    pub call: u64,
}

#[derive(Debug, Default)]
struct RegistryState {
    armed: Vec<FaultSpec>,
    calls: BTreeMap<(Channel, String), u64>,
    fired: Vec<InjectedFault>,
    delay_ms: u64,
}

/// The shared injection registry: one per deployment, cloned into every
/// mini-system the deployment wires together.
///
/// Interior mutability (the mini-systems intercept from `&self` methods)
/// behind an `Arc` so all connector layers of one deployment observe the
/// same call counters and fired-fault log.
#[derive(Debug, Clone, Default)]
pub struct InjectionRegistry {
    inner: Arc<Mutex<RegistryState>>,
}

impl InjectionRegistry {
    /// Creates an empty registry (no faults armed).
    pub fn new() -> InjectionRegistry {
        InjectionRegistry::default()
    }

    /// Arms one fault.
    pub fn arm(&self, spec: FaultSpec) {
        self.inner.lock().armed.push(spec);
    }

    /// Arms every fault of a plan.
    pub fn arm_plan(&self, plan: &FaultPlan) {
        let mut state = self.inner.lock();
        state.armed.extend(plan.faults.iter().cloned());
    }

    /// Arms every fault of a combination set simultaneously. Members on
    /// distinct `(channel, op)` pairs all fire independently; on a shared
    /// pair the first armed match wins, same as [`arm_plan`].
    ///
    /// [`arm_plan`]: InjectionRegistry::arm_plan
    pub fn arm_set(&self, set: &FaultSet) {
        let mut state = self.inner.lock();
        state.armed.extend(set.faults.iter().cloned());
    }

    /// Disarms all faults (armed specs only; counters and the fired log
    /// are kept).
    pub fn disarm_all(&self) {
        self.inner.lock().armed.clear();
    }

    /// Resets per-observation state: call counters, the fired log, and the
    /// accumulated virtual delay. The campaign executor calls this at the
    /// start of every observation so `OnCall` triggers are scoped to one
    /// observation — the property that makes fault campaigns byte-identical
    /// across worker counts (workers reuse deployments differently, but
    /// every observation starts from counter zero).
    pub fn reset_counters(&self) {
        let mut state = self.inner.lock();
        state.calls.clear();
        state.fired.clear();
        state.delay_ms = 0;
    }

    /// The faults that fired since the last [`reset_counters`] call.
    ///
    /// [`reset_counters`]: InjectionRegistry::reset_counters
    pub fn fired(&self) -> Vec<InjectedFault> {
        self.inner.lock().fired.clone()
    }

    /// The current injected service latency, in virtual milliseconds — the
    /// largest [`FaultKind::Latency`] that fired since the last reset.
    pub fn virtual_delay_ms(&self) -> u64 {
        self.inner.lock().delay_ms
    }

    /// Counts the call against the armed faults and reports what fired.
    ///
    /// Latency faults are recorded (fired log + delay) and returned as
    /// [`Interception::Latency`]: the call proceeds, only slower, which is
    /// exactly how timing faults like FLINK-12342 manifest.
    ///
    /// Crate-private: the boundary layer
    /// ([`CrossingContext`](crate::boundary::CrossingContext)) is the only
    /// interpose point; connector code never touches the registry directly.
    pub(crate) fn intercept_full(&self, channel: Channel, op: &str) -> Interception {
        let mut state = self.inner.lock();
        if state.armed.is_empty() {
            return Interception::Clean;
        }
        let counter = state.calls.entry((channel, op.to_string())).or_insert(0);
        let call = *counter;
        *counter += 1;
        let Some(spec) = state.armed.iter().find(|s| {
            s.channel == channel
                && s.op == op
                && match s.trigger {
                    Trigger::Always => true,
                    Trigger::OnCall(n) => n == call,
                }
        }) else {
            return Interception::Clean;
        };
        let fault = InjectedFault {
            spec_id: spec.id.clone(),
            channel,
            op: op.to_string(),
            kind: spec.kind,
            call,
        };
        state.fired.push(fault.clone());
        if let FaultKind::Latency { ms } = fault.kind {
            state.delay_ms = state.delay_ms.max(ms);
            return Interception::Latency(fault);
        }
        Interception::Fault(fault)
    }
}

/// The boundary-layer view of one interpose: clean, fired-but-proceeding
/// (latency), or fired-and-materialize.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum Interception {
    /// No armed fault matched.
    Clean,
    /// A latency fault fired; the call proceeds, only slower.
    Latency(InjectedFault),
    /// A fault fired and must be materialized as the native error.
    Fault(InjectedFault),
}

/// A connector-layer fault point: turns a fired fault into the system's
/// native error type, so injected faults enter the same error-translation
/// chain real boundary failures do.
pub trait FaultPoint: Sized {
    /// The interaction channel this error type's system serves.
    const CHANNEL: Channel;

    /// Materializes a fired fault as a native error.
    fn materialize(fault: &InjectedFault) -> Self;
}

/// How a system handled an injected boundary fault — the paper's
/// error-handling taxonomy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum FaultOutcome {
    /// The fault fired but no error surfaced to the caller.
    Swallowed,
    /// An error surfaced, but translated into a different kind or code
    /// than the fault's canonical signature (context lost at the boundary).
    Mistranslated,
    /// The canonical error kind and code survived to the caller.
    PropagatedWithContext,
    /// The fault escalated into a crash or assertion failure.
    Crash,
}

impl fmt::Display for FaultOutcome {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            FaultOutcome::Swallowed => "swallowed",
            FaultOutcome::Mistranslated => "mistranslated",
            FaultOutcome::PropagatedWithContext => "propagated-with-context",
            FaultOutcome::Crash => "crash",
        };
        f.write_str(s)
    }
}

/// The canonical `(kind, code)` a faithful propagation of a fault surfaces
/// with — the signature the channel's own error type carries for that
/// fault. `None` for faults with no canonical error signature (latency
/// never errors; corrupt payloads escalate via the crash rule instead).
pub fn canonical_signature(channel: Channel, kind: FaultKind) -> Option<(ErrorKind, &'static str)> {
    match (channel, kind) {
        (Channel::Metastore, FaultKind::Unavailable) => {
            Some((ErrorKind::Unavailable, "METASTORE_UNAVAILABLE"))
        }
        (Channel::Metastore, FaultKind::Timeout { .. }) => {
            Some((ErrorKind::Timeout, "METASTORE_TIMEOUT"))
        }
        (Channel::Hdfs, FaultKind::Unavailable) => Some((ErrorKind::Unavailable, "SAFE_MODE")),
        (Channel::Hdfs, FaultKind::Timeout { .. }) => Some((ErrorKind::Timeout, "RPC_TIMEOUT")),
        (Channel::Kafka, FaultKind::Unavailable) => {
            Some((ErrorKind::Unavailable, "BROKER_UNAVAILABLE"))
        }
        (Channel::Kafka, FaultKind::Timeout { .. }) => {
            Some((ErrorKind::Timeout, "REQUEST_TIMED_OUT"))
        }
        (Channel::Kafka, FaultKind::CorruptPayload) => {
            // The broker CRC-checks records and rejects corruption cleanly.
            Some((ErrorKind::Rejected, "CORRUPT_RECORD"))
        }
        (Channel::Yarn, FaultKind::Unavailable) => Some((ErrorKind::Unavailable, "RM_UNAVAILABLE")),
        (Channel::Yarn, FaultKind::Timeout { .. }) => Some((ErrorKind::Timeout, "RM_TIMEOUT")),
        (Channel::HBase, FaultKind::Unavailable) => {
            Some((ErrorKind::Unavailable, "REGION_SERVER_DOWN"))
        }
        (Channel::HBase, FaultKind::Timeout { .. }) => {
            Some((ErrorKind::Timeout, "HBASE_RPC_TIMEOUT"))
        }
        _ => None,
    }
}

/// Classifies what a caller-visible error (or its absence) says about how
/// the stack handled the fired faults.
///
/// Rule order matters: a crash is checked before faithful propagation so a
/// corrupt payload that detonates in a downstream deserializer lands in
/// [`FaultOutcome::Crash`] even when some signature accidentally matches.
pub fn classify_fault_outcome(
    fired: &[InjectedFault],
    surfaced: Option<&InteractionError>,
) -> FaultOutcome {
    match surfaced {
        None => FaultOutcome::Swallowed,
        Some(e) if matches!(e.kind, ErrorKind::Crash | ErrorKind::AssertionFailure) => {
            FaultOutcome::Crash
        }
        Some(e)
            if fired.iter().any(|f| {
                canonical_signature(f.channel, f.kind)
                    .is_some_and(|(kind, code)| e.kind == kind && e.code == code)
            }) =>
        {
            FaultOutcome::PropagatedWithContext
        }
        Some(_) => FaultOutcome::Mistranslated,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hit(reg: &InjectionRegistry, channel: Channel, op: &str) -> Option<InjectedFault> {
        match reg.intercept_full(channel, op) {
            Interception::Fault(f) => Some(f),
            Interception::Latency(_) | Interception::Clean => None,
        }
    }

    fn spec(id: &str, op: &str, kind: FaultKind, trigger: Trigger) -> FaultSpec {
        FaultSpec {
            id: id.into(),
            channel: Channel::Metastore,
            op: op.into(),
            kind,
            trigger,
        }
    }

    #[test]
    fn always_trigger_fires_on_every_matching_call() {
        let reg = InjectionRegistry::new();
        reg.arm(spec(
            "a",
            "get_table",
            FaultKind::Unavailable,
            Trigger::Always,
        ));
        assert!(hit(&reg, Channel::Metastore, "get_table").is_some());
        assert!(hit(&reg, Channel::Metastore, "get_table").is_some());
        // Other ops and channels are untouched.
        assert!(hit(&reg, Channel::Metastore, "create_table").is_none());
        assert!(hit(&reg, Channel::Hdfs, "get_table").is_none());
        assert_eq!(reg.fired().len(), 2);
    }

    #[test]
    fn on_call_trigger_fires_exactly_once_per_reset() {
        let reg = InjectionRegistry::new();
        reg.arm(spec(
            "a",
            "read",
            FaultKind::Unavailable,
            Trigger::OnCall(1),
        ));
        assert!(hit(&reg, Channel::Metastore, "read").is_none()); // call 0
        let f = hit(&reg, Channel::Metastore, "read").unwrap(); // call 1
        assert_eq!(f.call, 1);
        assert!(hit(&reg, Channel::Metastore, "read").is_none()); // call 2
        reg.reset_counters();
        assert!(reg.fired().is_empty());
        assert!(hit(&reg, Channel::Metastore, "read").is_none()); // call 0 again
        assert!(hit(&reg, Channel::Metastore, "read").is_some()); // call 1 again
    }

    #[test]
    fn latency_faults_record_delay_but_do_not_error() {
        let reg = InjectionRegistry::new();
        reg.arm(FaultSpec {
            id: "slow".into(),
            channel: Channel::Yarn,
            op: "allocate".into(),
            kind: FaultKind::Latency { ms: 700 },
            trigger: Trigger::Always,
        });
        assert!(hit(&reg, Channel::Yarn, "allocate").is_none());
        assert_eq!(reg.virtual_delay_ms(), 700);
        assert_eq!(reg.fired().len(), 1);
        reg.reset_counters();
        assert_eq!(reg.virtual_delay_ms(), 0);
    }

    #[test]
    fn empty_plan_is_inert() {
        let reg = InjectionRegistry::new();
        reg.arm_plan(&FaultPlan::empty(42));
        assert!(hit(&reg, Channel::Metastore, "get_table").is_none());
        // With nothing armed, intercept does not even count calls.
        assert!(reg.fired().is_empty());
    }

    #[test]
    fn plans_round_trip_through_serde() {
        let plan = FaultPlan {
            seed: 7,
            faults: vec![FaultSpec {
                id: "k".into(),
                channel: Channel::Kafka,
                op: "fetch".into(),
                kind: FaultKind::Timeout { ms: 30_000 },
                trigger: Trigger::OnCall(2),
            }],
        };
        let json = serde_json::to_string(&plan).unwrap();
        let back: FaultPlan = serde_json::from_str(&json).unwrap();
        assert_eq!(back, plan);
    }

    #[test]
    fn fault_sets_are_deterministic_and_round_trip() {
        let specs: Vec<FaultSpec> = (0..6)
            .map(|i| {
                spec(
                    &format!("f{i}"),
                    "get_table",
                    FaultKind::Unavailable,
                    Trigger::Always,
                )
            })
            .collect();
        let a = fault_combinations(&specs, 3, 42, 4);
        let b = fault_combinations(&specs, 3, 42, 4);
        assert_eq!(a, b, "same seed must enumerate identical combinations");
        // All six singletons lead, in catalogue order.
        assert_eq!(a[..6].iter().map(|s| s.len()).max(), Some(1));
        assert!(a.iter().any(|s| s.len() == 2));
        assert!(a.iter().any(|s| s.len() == 3));
        // No duplicate combinations.
        let ids: std::collections::BTreeSet<&str> = a.iter().map(|s| s.id.as_str()).collect();
        assert_eq!(ids.len(), a.len());
        let json = serde_json::to_string(&a[6]).unwrap();
        let back: FaultSet = serde_json::from_str(&json).unwrap();
        assert_eq!(back, a[6]);
        assert_eq!(FaultSet::empty().id, "none");
    }

    #[test]
    fn arming_a_set_fires_each_member_independently() {
        let reg = InjectionRegistry::new();
        let set = FaultSet::new(vec![
            spec("a", "get_table", FaultKind::Unavailable, Trigger::Always),
            spec("b", "create_table", FaultKind::Unavailable, Trigger::Always),
        ]);
        assert_eq!(set.id, "a+b");
        reg.arm_set(&set);
        assert!(hit(&reg, Channel::Metastore, "get_table").is_some());
        assert!(hit(&reg, Channel::Metastore, "create_table").is_some());
        assert_eq!(reg.fired().len(), 2);
    }

    #[test]
    fn classification_covers_all_four_buckets() {
        let fired = vec![InjectedFault {
            spec_id: "a".into(),
            channel: Channel::Metastore,
            op: "get_table".into(),
            kind: FaultKind::Unavailable,
            call: 0,
        }];
        assert_eq!(
            classify_fault_outcome(&fired, None),
            FaultOutcome::Swallowed
        );
        let faithful = InteractionError::new(
            "minihive",
            ErrorKind::Unavailable,
            "METASTORE_UNAVAILABLE",
            "injected",
        );
        assert_eq!(
            classify_fault_outcome(&fired, Some(&faithful)),
            FaultOutcome::PropagatedWithContext
        );
        let collapsed = InteractionError::rejected("minispark", "HIVE_METASTORE", "wrapped");
        assert_eq!(
            classify_fault_outcome(&fired, Some(&collapsed)),
            FaultOutcome::Mistranslated
        );
        let crash = InteractionError::crash("minispark", "FORMAT_ERROR", "boom");
        assert_eq!(
            classify_fault_outcome(&fired, Some(&crash)),
            FaultOutcome::Crash
        );
    }

    #[test]
    fn crash_rule_wins_over_propagation() {
        // A corrupt payload whose canonical signature is a clean rejection
        // still classifies as a crash when the surfaced error is a crash.
        let fired = vec![InjectedFault {
            spec_id: "c".into(),
            channel: Channel::Kafka,
            op: "fetch".into(),
            kind: FaultKind::CorruptPayload,
            call: 0,
        }];
        let crash = InteractionError::crash("minikafka", "CORRUPT_RECORD", "crc");
        assert_eq!(
            classify_fault_outcome(&fired, Some(&crash)),
            FaultOutcome::Crash
        );
    }
}
