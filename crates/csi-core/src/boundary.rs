//! The instrumented cross-system boundary layer.
//!
//! Every interaction the paper studies is a *crossing*: one system's call
//! entering another system through a Table 1 channel. This module gives
//! that crossing a single choke point. A [`BoundaryCall`] describes the
//! crossing (channel, endpoints, plane, operation, payload digest); a
//! [`CrossingContext`] owns the [`InjectionRegistry`] hook, a virtual
//! latency clock, and an append-only [`InteractionTrace`] sink. Connector
//! layers call [`CrossingContext::cross`] at the entry of every
//! interaction-facing operation instead of hand-rolling the
//! interpose-then-materialize pattern, so fault injection and tracing
//! happen in exactly one place — and wiring a new channel is one
//! [`FaultPoint`] impl plus `cross(...)` calls.
//!
//! Tracing is side-effect-free: a disabled context drives the registry
//! identically (same counters, same fired faults, same virtual delay) and
//! merely skips the sink, so trace-disabled campaigns reproduce traced
//! campaigns byte-for-byte modulo the trace fields. Payload digests mask
//! runs of ASCII digits before hashing, so generated artifact names
//! (`part-00017.csv`) digest identically regardless of how deployments
//! were pooled or recycled — the property that keeps traces byte-identical
//! between serial and sharded runs.

use crate::fault::{
    Channel, FaultKind, FaultPlan, FaultPoint, FaultSpec, InjectedFault, InjectionRegistry,
    Interception,
};
use crate::hash::Fnv;
use crate::plane::{InteractionKind, Plane, SystemId};
use parking_lot::Mutex;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::fmt;
use std::sync::Arc;

/// One cross-system call descriptor: everything Table 1 records about an
/// interaction, as observed at the boundary.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct BoundaryCall {
    /// The interaction channel being crossed.
    pub channel: Channel,
    /// The system issuing the call.
    pub upstream: SystemId,
    /// The system serving the call.
    pub downstream: SystemId,
    /// The interaction kind (Table 1's "Interaction" column).
    pub kind: InteractionKind,
    /// The plane the crossing runs on (§2.2).
    pub plane: Plane,
    /// The operation name at the downstream system's interface.
    pub op: String,
    /// Digit-masked FNV-1a digest of the payload summary (0 when none).
    pub payload_digest: u64,
}

impl BoundaryCall {
    /// Describes a crossing on `channel` with that channel's canonical
    /// endpoints and interaction kind; refine with the builder methods.
    pub fn new(channel: Channel, op: &str) -> BoundaryCall {
        let (upstream, downstream, kind) = match channel {
            Channel::Metastore => (SystemId::Spark, SystemId::Hive, InteractionKind::DataTables),
            Channel::Hdfs => (SystemId::Spark, SystemId::Hdfs, InteractionKind::DataFiles),
            Channel::Kafka => (
                SystemId::Spark,
                SystemId::Kafka,
                InteractionKind::DataStreaming,
            ),
            Channel::Yarn => (
                SystemId::Flink,
                SystemId::Yarn,
                InteractionKind::ControlResources,
            ),
            Channel::HBase => (
                SystemId::Hive,
                SystemId::HBase,
                InteractionKind::DataKeyValue,
            ),
        };
        BoundaryCall {
            channel,
            upstream,
            downstream,
            kind,
            plane: kind.native_plane(),
            op: op.to_string(),
            payload_digest: 0,
        }
    }

    /// Attaches a payload summary (a path, a table name, a topic/partition
    /// label) as a digit-masked digest.
    pub fn with_payload(mut self, payload: &str) -> BoundaryCall {
        self.payload_digest = digest_payload(payload);
        self
    }

    /// Overrides the upstream (calling) system.
    pub fn from_upstream(mut self, upstream: SystemId) -> BoundaryCall {
        self.upstream = upstream;
        self
    }

    /// Overrides the plane (e.g. [`Plane::Management`] for configuration
    /// forwarding or metrics crossings).
    pub fn with_plane(mut self, plane: Plane) -> BoundaryCall {
        self.plane = plane;
        self
    }
}

/// Digit-masked FNV-1a 64-bit digest: every maximal run of ASCII digits
/// collapses to a single `#` before hashing, so counters embedded in
/// generated names (`part-00017.csv`) never make two equivalent payloads
/// digest differently across deployment pooling or recycling.
fn digest_payload(payload: &str) -> u64 {
    let mut hash = Fnv::new();
    let mut in_digits = false;
    for byte in payload.bytes() {
        let masked = if byte.is_ascii_digit() {
            if in_digits {
                continue;
            }
            in_digits = true;
            b'#'
        } else {
            in_digits = false;
            byte
        };
        hash.byte(masked);
    }
    hash.finish()
}

/// What happened at one crossing.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum CrossingOutcome {
    /// The call crossed cleanly.
    Clean,
    /// An armed fault fired at the boundary (latency faults included —
    /// the call still proceeds, only slower).
    Faulted {
        /// The fault that fired.
        fault: InjectedFault,
    },
    /// An annotated decision point (e.g. which replica served a
    /// redundant read).
    Noted {
        /// The annotation.
        info: String,
    },
}

/// One recorded crossing: sequence number, virtual time, call, outcome.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Crossing {
    /// 0-based position in the observation's crossing sequence.
    pub seq: u64,
    /// Virtual time the crossing started at, in milliseconds.
    pub at_ms: u64,
    /// The call descriptor.
    pub call: BoundaryCall,
    /// What happened.
    pub outcome: CrossingOutcome,
}

impl Crossing {
    /// One-line rendering for compact trace summaries.
    pub fn compact(&self) -> String {
        let status = match &self.outcome {
            CrossingOutcome::Clean => "ok".to_string(),
            CrossingOutcome::Faulted { fault } => {
                format!("fault:{} ({})", fault.spec_id, fault.kind)
            }
            CrossingOutcome::Noted { info } => format!("note:{info}"),
        };
        format!(
            "#{} {}->{} {}:{} [{}] @{}ms {}",
            self.seq,
            self.call.upstream,
            self.call.downstream,
            self.call.channel,
            self.call.op,
            self.call.plane,
            self.at_ms,
            status
        )
    }
}

/// The append-only causal crossing sequence of one observation.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct InteractionTrace {
    /// The crossings, in causal order.
    pub crossings: Vec<Crossing>,
}

impl InteractionTrace {
    /// Number of recorded crossings.
    pub fn len(&self) -> usize {
        self.crossings.len()
    }

    /// Whether no crossing was recorded.
    pub fn is_empty(&self) -> bool {
        self.crossings.is_empty()
    }

    /// Crossing count per channel, in canonical channel order.
    pub fn channel_counts(&self) -> BTreeMap<String, usize> {
        let mut counts = BTreeMap::new();
        for crossing in &self.crossings {
            *counts.entry(crossing.call.channel.to_string()).or_insert(0) += 1;
        }
        counts
    }

    /// Compact one-line-per-crossing rendering.
    pub fn compact(&self) -> Vec<String> {
        self.crossings.iter().map(Crossing::compact).collect()
    }

    /// The *causal prefix* of the trace: the ordered crossing tuples from
    /// the start up to and including the first faulted crossing (the whole
    /// trace when nothing faulted). Two discrepancies that share this
    /// prefix failed through the same causal path — the co-failure
    /// clustering key of compound fault campaigns (the flakiness study's
    /// shared-root-cause grouping, computed on `InteractionTrace`s).
    ///
    /// Tuples are `channel|op|plane|status`, deliberately free of sequence
    /// numbers, timestamps, and payload digests so pooling, recycling, and
    /// table-name differences never split a cluster.
    pub fn causal_prefix(&self) -> Vec<String> {
        let mut prefix = Vec::new();
        for crossing in &self.crossings {
            let status = match &crossing.outcome {
                CrossingOutcome::Clean => "ok".to_string(),
                CrossingOutcome::Faulted { fault } => format!("fault:{}", fault.kind),
                CrossingOutcome::Noted { info } => format!("note:{info}"),
            };
            prefix.push(format!(
                "{}|{}|{}|{}",
                crossing.call.channel, crossing.call.op, crossing.call.plane, status
            ));
            if matches!(crossing.outcome, CrossingOutcome::Faulted { .. }) {
                break;
            }
        }
        prefix
    }
}

impl fmt::Display for InteractionTrace {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for line in self.compact() {
            writeln!(f, "{line}")?;
        }
        Ok(())
    }
}

/// A streaming consumer of crossings, attached beside the append-only
/// trace: the sink sees every crossing *as it happens*, even on a
/// trace-disabled context. This is the hook the online detector
/// ([`crate::detect`]) rides on — the boundary stays the single choke
/// point, and run-time analysis never has to wait for a campaign to end.
///
/// Sinks must never call back into the [`CrossingContext`] that notifies
/// them: notification happens under the context's own lock, so a
/// re-entrant crossing from inside a sink would deadlock.
pub trait CrossingSink: Send {
    /// Called once per crossing, in causal order, before the crossing is
    /// appended to the trace.
    fn on_crossing(&mut self, crossing: &Crossing);
}

struct ContextState {
    enabled: bool,
    clock_ms: u64,
    next_seq: u64,
    trace: InteractionTrace,
    sink: Option<Box<dyn CrossingSink>>,
}

impl fmt::Debug for ContextState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ContextState")
            .field("enabled", &self.enabled)
            .field("clock_ms", &self.clock_ms)
            .field("next_seq", &self.next_seq)
            .field("trace", &self.trace)
            .field("sink", &self.sink.as_ref().map(|_| "<attached>"))
            .finish()
    }
}

/// The per-deployment crossing context: the single choke point every
/// connector-layer operation routes through.
///
/// Owns the [`InjectionRegistry`] (fault hook), a virtual latency clock,
/// and the [`InteractionTrace`] sink. Cloned into every mini-system a
/// deployment wires together, so all crossings of one observation land in
/// one causally ordered trace.
#[derive(Debug, Clone)]
pub struct CrossingContext {
    registry: InjectionRegistry,
    state: Arc<Mutex<ContextState>>,
}

impl Default for CrossingContext {
    fn default() -> CrossingContext {
        CrossingContext::new()
    }
}

impl CrossingContext {
    fn with_enabled(registry: InjectionRegistry, enabled: bool) -> CrossingContext {
        CrossingContext {
            registry,
            state: Arc::new(Mutex::new(ContextState {
                enabled,
                clock_ms: 0,
                next_seq: 0,
                trace: InteractionTrace::default(),
                sink: None,
            })),
        }
    }

    /// A tracing context with a fresh, empty registry.
    pub fn new() -> CrossingContext {
        CrossingContext::with_enabled(InjectionRegistry::new(), true)
    }

    /// A context that drives its registry identically but records no
    /// trace — for pinning that tracing is side-effect-free.
    pub fn disabled() -> CrossingContext {
        CrossingContext::with_enabled(InjectionRegistry::new(), false)
    }

    /// Arms one fault in the underlying registry.
    pub fn arm(&self, spec: FaultSpec) {
        self.registry.arm(spec);
    }

    /// Arms every fault of a plan.
    pub fn arm_plan(&self, plan: &FaultPlan) {
        self.registry.arm_plan(plan);
    }

    /// Arms every member of a k-fault combination.
    pub fn arm_set(&self, set: &crate::fault::FaultSet) {
        self.registry.arm_set(set);
    }

    /// Removes every armed fault from the underlying registry (counters
    /// and the fired log are cleared separately by
    /// [`reset`](CrossingContext::reset)). Deployment pools call this
    /// when a deployment is returned, so a recycled stack can never
    /// replay the previous campaign's fault plan.
    pub fn disarm_all(&self) {
        self.registry.disarm_all();
    }

    /// The faults that fired since the last [`reset`](CrossingContext::reset).
    pub fn fired(&self) -> Vec<InjectedFault> {
        self.registry.fired()
    }

    /// The current injected service latency, in virtual milliseconds.
    pub fn virtual_delay_ms(&self) -> u64 {
        self.registry.virtual_delay_ms()
    }

    /// Resets per-observation state: registry call counters and fired log,
    /// the virtual clock, and the trace sink. The campaign executor calls
    /// this at the start of every observation.
    pub fn reset(&self) {
        self.registry.reset_counters();
        let mut state = self.state.lock();
        state.clock_ms = 0;
        state.next_seq = 0;
        state.trace.crossings.clear();
    }

    /// A snapshot of the trace recorded since the last reset.
    pub fn trace(&self) -> InteractionTrace {
        self.state.lock().trace.clone()
    }

    /// Attaches a streaming sink: from now on every crossing is handed to
    /// `sink` as it happens, in causal order, whether or not the trace is
    /// enabled. Replaces any previously attached sink. Sinks survive
    /// [`reset`](CrossingContext::reset) — per-observation state belongs
    /// to the sink, not the context.
    pub fn set_sink(&self, sink: Box<dyn CrossingSink>) {
        self.state.lock().sink = Some(sink);
    }

    /// Detaches the streaming sink, if any.
    pub fn clear_sink(&self) {
        self.state.lock().sink = None;
    }

    fn push(&self, call: BoundaryCall, outcome: CrossingOutcome, cost_ms: u64) {
        let mut state = self.state.lock();
        let at_ms = state.clock_ms;
        state.clock_ms += 1 + cost_ms;
        let seq = state.next_seq;
        state.next_seq += 1;
        let crossing = Crossing {
            seq,
            at_ms,
            call,
            outcome,
        };
        if let Some(sink) = state.sink.as_mut() {
            sink.on_crossing(&crossing);
        }
        if state.enabled {
            state.trace.crossings.push(crossing);
        }
    }

    /// Routes one crossing: counts the call against armed faults, records
    /// it in the trace, advances the virtual clock, and materializes any
    /// non-latency fault into the downstream system's native error.
    ///
    /// This is the one-liner every connector layer calls at the entry of
    /// an interaction-facing operation.
    pub fn cross<E: FaultPoint>(&self, call: BoundaryCall) -> Result<(), E> {
        match self.registry.intercept_full(call.channel, &call.op) {
            Interception::Clean => {
                self.push(call, CrossingOutcome::Clean, 0);
                Ok(())
            }
            Interception::Latency(fault) => {
                let cost = fault_cost_ms(&fault);
                self.push(call, CrossingOutcome::Faulted { fault }, cost);
                Ok(())
            }
            Interception::Fault(fault) => {
                let error = E::materialize(&fault);
                let cost = fault_cost_ms(&fault);
                self.push(call, CrossingOutcome::Faulted { fault }, cost);
                Err(error)
            }
        }
    }

    /// Like [`cross`](CrossingContext::cross), but hands the fired fault
    /// back to the caller instead of materializing it — for crossings
    /// whose fault response is not an error (deterministically garbled
    /// bytes, a poisoned location) rather than a native error.
    pub fn intercept(&self, call: BoundaryCall) -> Option<InjectedFault> {
        match self.registry.intercept_full(call.channel, &call.op) {
            Interception::Clean => {
                self.push(call, CrossingOutcome::Clean, 0);
                None
            }
            Interception::Latency(fault) => {
                let cost = fault_cost_ms(&fault);
                self.push(call, CrossingOutcome::Faulted { fault }, cost);
                None
            }
            Interception::Fault(fault) => {
                let cost = fault_cost_ms(&fault);
                self.push(
                    call,
                    CrossingOutcome::Faulted {
                        fault: fault.clone(),
                    },
                    cost,
                );
                Some(fault)
            }
        }
    }

    /// Records a crossing that has no fault point (pure connector logic,
    /// e.g. Spark-side configuration forwarding): trace only, the
    /// registry is not consulted.
    pub fn record(&self, call: BoundaryCall) {
        self.push(call, CrossingOutcome::Clean, 0);
    }

    /// Records an annotated decision at a crossing (e.g. which replica a
    /// redundant read was actually served by).
    pub fn note(&self, call: BoundaryCall, info: &str) {
        self.push(
            call,
            CrossingOutcome::Noted {
                info: info.to_string(),
            },
            0,
        );
    }
}

fn fault_cost_ms(fault: &InjectedFault) -> u64 {
    match fault.kind {
        FaultKind::Timeout { ms } | FaultKind::Latency { ms } => ms,
        FaultKind::Unavailable | FaultKind::CorruptPayload => 0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::{ErrorKind, InteractionError};
    use crate::fault::Trigger;

    impl FaultPoint for InteractionError {
        const CHANNEL: Channel = Channel::Metastore;
        fn materialize(fault: &InjectedFault) -> Self {
            InteractionError::new(
                "test",
                ErrorKind::Unavailable,
                "TEST_FAULT",
                fault.spec_id.clone(),
            )
        }
    }

    fn call(op: &str) -> BoundaryCall {
        BoundaryCall::new(Channel::Metastore, op)
    }

    #[test]
    fn canonical_endpoints_follow_the_channel() {
        let c = BoundaryCall::new(Channel::Yarn, "allocate");
        assert_eq!(c.upstream, SystemId::Flink);
        assert_eq!(c.downstream, SystemId::Yarn);
        assert_eq!(c.plane, Plane::Control);
        let c = BoundaryCall::new(Channel::HBase, "route");
        assert_eq!(c.kind, InteractionKind::DataKeyValue);
        assert_eq!(c.plane, Plane::Data);
    }

    #[test]
    fn payload_digest_masks_digit_runs() {
        let a = call("create").with_payload("/wh/t/part-00017.csv");
        let b = call("create").with_payload("/wh/t/part-31337.csv");
        let c = call("create").with_payload("/wh/t/part-x.csv");
        assert_eq!(a.payload_digest, b.payload_digest);
        assert_ne!(a.payload_digest, c.payload_digest);
    }

    #[test]
    fn clean_crossings_are_traced_with_advancing_clock() {
        let ctx = CrossingContext::new();
        let r: Result<(), InteractionError> = ctx.cross(call("get_table"));
        assert!(r.is_ok());
        let r: Result<(), InteractionError> = ctx.cross(call("create_table"));
        assert!(r.is_ok());
        let trace = ctx.trace();
        assert_eq!(trace.len(), 2);
        assert_eq!(trace.crossings[0].seq, 0);
        assert_eq!(trace.crossings[0].at_ms, 0);
        assert_eq!(trace.crossings[1].at_ms, 1);
        assert_eq!(trace.channel_counts()["metastore"], 2);
    }

    #[test]
    fn faulted_crossings_materialize_and_charge_the_clock() {
        let ctx = CrossingContext::new();
        ctx.arm(FaultSpec {
            id: "ms-timeout".into(),
            channel: Channel::Metastore,
            op: "get_table".into(),
            kind: FaultKind::Timeout { ms: 500 },
            trigger: Trigger::Always,
        });
        let err: Result<(), InteractionError> = ctx.cross(call("get_table"));
        assert_eq!(err.unwrap_err().message, "ms-timeout");
        let ok: Result<(), InteractionError> = ctx.cross(call("create_table"));
        assert!(ok.is_ok());
        let trace = ctx.trace();
        assert!(matches!(
            trace.crossings[0].outcome,
            CrossingOutcome::Faulted { .. }
        ));
        // The second crossing starts after the timeout's 500 virtual ms.
        assert_eq!(trace.crossings[1].at_ms, 501);
        assert_eq!(ctx.fired().len(), 1);
    }

    #[test]
    fn latency_faults_trace_but_do_not_error() {
        let ctx = CrossingContext::new();
        ctx.arm(FaultSpec {
            id: "slow".into(),
            channel: Channel::Metastore,
            op: "get_table".into(),
            kind: FaultKind::Latency { ms: 300 },
            trigger: Trigger::Always,
        });
        let r: Result<(), InteractionError> = ctx.cross(call("get_table"));
        assert!(r.is_ok());
        assert_eq!(ctx.virtual_delay_ms(), 300);
        assert!(matches!(
            ctx.trace().crossings[0].outcome,
            CrossingOutcome::Faulted { .. }
        ));
    }

    #[test]
    fn disabled_context_drives_the_registry_identically() {
        let traced = CrossingContext::new();
        let silent = CrossingContext::disabled();
        for ctx in [&traced, &silent] {
            ctx.arm(FaultSpec {
                id: "u".into(),
                channel: Channel::Metastore,
                op: "get_table".into(),
                kind: FaultKind::Unavailable,
                trigger: Trigger::OnCall(1),
            });
            let _: Result<(), InteractionError> = ctx.cross(call("get_table"));
            let _: Result<(), InteractionError> = ctx.cross(call("get_table"));
        }
        assert_eq!(traced.fired(), silent.fired());
        assert_eq!(traced.trace().len(), 2);
        assert!(silent.trace().is_empty());
    }

    #[test]
    fn reset_clears_trace_clock_and_counters() {
        let ctx = CrossingContext::new();
        ctx.arm(FaultSpec {
            id: "u".into(),
            channel: Channel::Metastore,
            op: "get_table".into(),
            kind: FaultKind::Unavailable,
            trigger: Trigger::OnCall(0),
        });
        let first: Result<(), InteractionError> = ctx.cross(call("get_table"));
        assert!(first.is_err());
        ctx.reset();
        assert!(ctx.trace().is_empty());
        assert!(ctx.fired().is_empty());
        // OnCall(0) is scoped per reset: it fires again.
        let again: Result<(), InteractionError> = ctx.cross(call("get_table"));
        assert!(again.is_err());
        assert_eq!(ctx.trace().crossings[0].at_ms, 0);
    }

    #[test]
    fn notes_and_records_land_in_the_trace() {
        let ctx = CrossingContext::new();
        ctx.record(call("forward_config").with_plane(Plane::Management));
        ctx.note(call("read"), "served-by=primary");
        let lines = ctx.trace().compact();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].contains("[Management]"), "{}", lines[0]);
        assert!(lines[1].ends_with("note:served-by=primary"), "{}", lines[1]);
    }

    #[test]
    fn sinks_stream_every_crossing_even_when_tracing_is_disabled() {
        #[derive(Default)]
        struct Tape(Arc<Mutex<Vec<String>>>);
        impl CrossingSink for Tape {
            fn on_crossing(&mut self, crossing: &Crossing) {
                self.0.lock().push(crossing.compact());
            }
        }
        let tape = Arc::new(Mutex::new(Vec::new()));
        for ctx in [CrossingContext::new(), CrossingContext::disabled()] {
            tape.lock().clear();
            ctx.set_sink(Box::new(Tape(tape.clone())));
            let _: Result<(), InteractionError> = ctx.cross(call("get_table"));
            ctx.note(call("read"), "served-by=primary");
            let seen = tape.lock().clone();
            assert_eq!(seen.len(), 2, "sink missed a crossing: {seen:?}");
            assert!(seen[0].starts_with("#0 "), "{}", seen[0]);
            assert!(seen[1].starts_with("#1 "), "{}", seen[1]);
            // Reset keeps the sink attached and restarts seq/clock.
            ctx.reset();
            let _: Result<(), InteractionError> = ctx.cross(call("get_table"));
            assert!(tape.lock()[2].starts_with("#0 "), "{}", tape.lock()[2]);
            ctx.clear_sink();
            let _: Result<(), InteractionError> = ctx.cross(call("get_table"));
            assert_eq!(tape.lock().len(), 3);
        }
    }

    #[test]
    fn traces_round_trip_through_serde() {
        let ctx = CrossingContext::new();
        ctx.arm(FaultSpec {
            id: "u".into(),
            channel: Channel::Metastore,
            op: "get_table".into(),
            kind: FaultKind::Unavailable,
            trigger: Trigger::Always,
        });
        let _: Result<(), InteractionError> = ctx.cross(call("get_table").with_payload("t"));
        let trace = ctx.trace();
        let json = serde_json::to_string(&trace).unwrap();
        let back: InteractionTrace = serde_json::from_str(&json).unwrap();
        assert_eq!(back, trace);
    }
}
