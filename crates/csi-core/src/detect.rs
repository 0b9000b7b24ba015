//! Online CSI failure detection over the boundary crossing stream.
//!
//! The offline oracle ([`crate::fault::classify_fault_outcome`]) judges an
//! observation *after* it ends, from the fired-fault log and the surfaced
//! error. This module moves that judgement to run time: an
//! [`OnlineDetector`] attaches to a [`CrossingContext`] as a
//! [`CrossingSink`] and watches every metastore/HDFS/Kafka/YARN/HBase
//! crossing as it happens, emitting typed [`Detection`]s —
//!
//! - [`DetectionKind::SwallowedError`]: a fault fired at the boundary but
//!   no error surfaced to the caller (the paper's most common §9 bucket);
//! - [`DetectionKind::MistranslatedError`]: an error surfaced, but with a
//!   different kind/code than any fired fault's canonical signature —
//!   context was lost crossing the boundary;
//! - [`DetectionKind::LatencyStorm`]: the same (channel, op) crossing
//!   absorbed injected latency over and over, the FLINK-12342 shape where
//!   a slow dependency turns into a storm of slow control-plane calls;
//! - [`DetectionKind::PatternAnomaly`]: the observation's crossing
//!   sequence diverged from a learned per-scenario baseline;
//! - [`DetectionKind::CoOccurrence`]: faults on *different* channels fired
//!   within one virtual-time window — the cross-system co-occurrence
//!   cluster signal ("Systemic Flakiness") that single-crossing judgement
//!   cannot see.
//!
//! Determinism contract: detections are a pure function of the crossing
//! stream, the surfaced error, and a frozen [`BaselineSet`] — never of
//! wall-clock time or worker interleaving — so serial and sharded
//! campaigns produce byte-identical detection sets.
//!
//! Compound campaigns (`csi_test::multi`: k-fault sets armed at once,
//! several jobs interleaved on one shared deployment) exercise exactly the
//! cascading scenarios [`DetectionKind::CoOccurrence`] exists for: the
//! shared [`CrossingContext`] carries every job's crossings in one stream,
//! so faults that only co-fire under a particular interleaving land in the
//! same virtual-time window and become detectable — which a per-job stream
//! would never show.

use crate::boundary::{Crossing, CrossingOutcome, CrossingSink, InteractionTrace};
use crate::error::{ErrorKind, InteractionError};
use crate::fault::{canonical_signature, Channel, FaultKind, InjectedFault};
use parking_lot::Mutex;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::fmt;
use std::sync::Arc;

/// The typed failure classes the online detector emits.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize)]
pub enum DetectionKind {
    /// A fault fired at the boundary, no error surfaced to the caller.
    SwallowedError,
    /// An error surfaced with a kind/code matching no fired fault's
    /// canonical signature.
    MistranslatedError,
    /// Repeated injected latency on one (channel, op) crossing.
    LatencyStorm,
    /// Crossing sequence diverged from the learned per-scenario baseline.
    PatternAnomaly,
    /// Faults on distinct channels fired within one virtual-time window.
    CoOccurrence,
}

impl DetectionKind {
    /// All kinds, in canonical order.
    pub const ALL: [DetectionKind; 5] = [
        DetectionKind::SwallowedError,
        DetectionKind::MistranslatedError,
        DetectionKind::LatencyStorm,
        DetectionKind::PatternAnomaly,
        DetectionKind::CoOccurrence,
    ];

    /// Whether this kind mirrors an offline §9 error-handling bucket
    /// (swallowed / mistranslated) rather than a timing or shape signal.
    pub fn is_error_handling(self) -> bool {
        matches!(
            self,
            DetectionKind::SwallowedError | DetectionKind::MistranslatedError
        )
    }
}

impl fmt::Display for DetectionKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            DetectionKind::SwallowedError => "swallowed-error",
            DetectionKind::MistranslatedError => "mistranslated-error",
            DetectionKind::LatencyStorm => "latency-storm",
            DetectionKind::PatternAnomaly => "pattern-anomaly",
            DetectionKind::CoOccurrence => "co-occurrence",
        };
        f.write_str(s)
    }
}

/// One online detection: what fired, where in the stream, and why.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize)]
pub struct Detection {
    /// The failure class.
    pub kind: DetectionKind,
    /// The scenario (observation) the detection belongs to.
    pub scenario: String,
    /// The channels involved, in canonical order, deduplicated.
    pub channels: Vec<Channel>,
    /// Sequence number of the crossing that anchored the detection.
    pub seq: u64,
    /// Virtual time of the anchoring crossing, in milliseconds.
    pub at_ms: u64,
    /// Human-readable evidence.
    pub detail: String,
}

/// Detector thresholds. All windows are in *virtual* milliseconds — the
/// boundary clock, not wall time — so thresholds behave identically under
/// any worker interleaving.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct DetectorConfig {
    /// Latency-fault firings on one (channel, op) that constitute a storm.
    pub storm_threshold: u64,
    /// Max gap between faulted crossings that still clusters them.
    pub co_window_ms: u64,
}

impl Default for DetectorConfig {
    fn default() -> DetectorConfig {
        DetectorConfig {
            storm_threshold: 32,
            co_window_ms: 60_000,
        }
    }
}

/// The learned crossing profile of one scenario: the (channel, op)
/// sequence a fault-free run performs.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ScenarioProfile {
    /// (channel, op) pairs in causal order.
    pub ops: Vec<(Channel, String)>,
}

/// Frozen per-scenario baselines, learned from fault-free calibration
/// traces. Shared immutably (via `Arc`) across every worker's detector so
/// sharding cannot perturb what "normal" means.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct BaselineSet {
    /// Scenario key → learned profile.
    pub profiles: BTreeMap<String, ScenarioProfile>,
}

impl BaselineSet {
    /// Learns (or overwrites) the baseline for `scenario` from a
    /// calibration trace.
    pub fn learn(&mut self, scenario: &str, trace: &InteractionTrace) {
        let ops = trace
            .crossings
            .iter()
            .map(|c| (c.call.channel, c.call.op.clone()))
            .collect();
        self.profiles
            .insert(scenario.to_string(), ScenarioProfile { ops });
    }

    /// Number of learned scenarios.
    pub fn len(&self) -> usize {
        self.profiles.len()
    }

    /// Whether no scenario has been learned.
    pub fn is_empty(&self) -> bool {
        self.profiles.is_empty()
    }
}

/// A streaming observer of detections, invoked the moment each
/// [`Detection`] is recorded — before the observation finishes and long
/// before the campaign report exists.
///
/// This is the push half of detection-as-a-service: `csi-serve` hands
/// every tenant's campaign a tap that writes detection frames to the
/// tenant's connection, so detections stream out incrementally while the
/// campaign is still running. Taps observe only; they cannot alter the
/// detection set, so a tapped campaign stays byte-identical to an
/// untapped one.
///
/// Taps may be invoked while detector (and boundary) locks are held:
/// like [`CrossingSink`]s, they must never call back into a crossing
/// context or detector.
#[derive(Clone)]
pub struct DetectionTap(Arc<dyn Fn(&Detection) + Send + Sync>);

impl DetectionTap {
    /// Wraps a callback as a tap.
    pub fn new(f: impl Fn(&Detection) + Send + Sync + 'static) -> DetectionTap {
        DetectionTap(Arc::new(f))
    }

    /// Invokes the tap with one detection.
    pub fn emit(&self, detection: &Detection) {
        (self.0)(detection)
    }
}

impl fmt::Debug for DetectionTap {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("DetectionTap")
    }
}

/// Detector configuration plus frozen baselines — everything needed to
/// build one worker's [`OnlineDetector`]. Cheap to clone; the baselines
/// are shared.
#[derive(Debug, Clone)]
pub struct DetectorSpec {
    /// Thresholds.
    pub config: DetectorConfig,
    /// Frozen per-scenario baselines.
    pub baselines: Arc<BaselineSet>,
    /// Streaming observer of detections, if any.
    pub tap: Option<DetectionTap>,
}

impl DetectorSpec {
    /// A spec with default thresholds and no baselines (pattern-anomaly
    /// detection stays silent until baselines are learned).
    pub fn new(config: DetectorConfig) -> DetectorSpec {
        DetectorSpec {
            config,
            baselines: Arc::new(BaselineSet::default()),
            tap: None,
        }
    }

    /// Builds a detector from this spec.
    pub fn build(&self) -> OnlineDetector {
        OnlineDetector::from_spec(self.clone())
    }
}

impl Default for DetectorSpec {
    fn default() -> DetectorSpec {
        DetectorSpec::new(DetectorConfig::default())
    }
}

#[derive(Debug)]
struct DetectorState {
    spec: DetectorSpec,
    active: bool,
    scenario: String,
    fired: Vec<InjectedFault>,
    /// seq/at_ms/channel of every faulted crossing, in stream order.
    faulted: Vec<(u64, u64, Channel)>,
    latency_counts: BTreeMap<(Channel, String), u64>,
    ops: Vec<(Channel, String)>,
    detections: Vec<Detection>,
    last_crossing: (u64, u64),
}

/// The online detector: a [`CrossingSink`] with per-observation state.
///
/// Lifecycle: [`begin`](OnlineDetector::begin) at the start of an
/// observation, crossings arrive through the sink hook while the scenario
/// runs, [`finish`](OnlineDetector::finish) with the surfaced error (if
/// any) closes the observation and returns its detections. Crossings seen
/// outside a begin/finish window (deployment seeding, table recycling)
/// are ignored.
///
/// Clones share state — cloning is how the same detector is handed to a
/// context as a sink while the executor keeps a handle for
/// `begin`/`finish`.
#[derive(Debug, Clone)]
pub struct OnlineDetector {
    inner: Arc<Mutex<DetectorState>>,
}

impl OnlineDetector {
    /// A detector with the given thresholds and frozen baselines.
    pub fn new(config: DetectorConfig, baselines: Arc<BaselineSet>) -> OnlineDetector {
        OnlineDetector::from_spec(DetectorSpec {
            config,
            baselines,
            tap: None,
        })
    }

    /// A detector built from a spec.
    pub fn from_spec(spec: DetectorSpec) -> OnlineDetector {
        OnlineDetector {
            inner: Arc::new(Mutex::new(DetectorState {
                spec,
                active: false,
                scenario: String::new(),
                fired: Vec::new(),
                faulted: Vec::new(),
                latency_counts: BTreeMap::new(),
                ops: Vec::new(),
                detections: Vec::new(),
                last_crossing: (0, 0),
            })),
        }
    }

    /// A boxed sink handle sharing this detector's state, ready for
    /// [`CrossingContext::set_sink`](crate::boundary::CrossingContext::set_sink).
    pub fn sink(&self) -> Box<dyn CrossingSink> {
        Box::new(self.clone())
    }

    /// Opens an observation: clears per-observation state and starts
    /// listening.
    pub fn begin(&self, scenario: &str) {
        let mut s = self.inner.lock();
        s.active = true;
        s.scenario = scenario.to_string();
        s.fired.clear();
        s.faulted.clear();
        s.latency_counts.clear();
        s.ops.clear();
        s.detections.clear();
        s.last_crossing = (0, 0);
    }

    /// Closes the observation with the error that surfaced to the caller
    /// (if any), runs the end-of-stream rules, and returns every
    /// detection of the observation, in emission order.
    pub fn finish(&self, surfaced: Option<&InteractionError>) -> Vec<Detection> {
        let mut s = self.inner.lock();
        if !s.active {
            return Vec::new();
        }
        s.active = false;

        // §9 error-handling mirror of `classify_fault_outcome`: the fired
        // set is reconstructed from Faulted crossings — provably the
        // registry's own log, since the boundary is the only interposer.
        if !s.fired.is_empty() {
            let (seq, at_ms) = s.fired_anchor();
            match surfaced {
                None => {
                    let channels = distinct_channels(s.fired.iter().map(|f| f.channel));
                    let fired_ids: Vec<&str> = s.fired.iter().map(|f| f.spec_id.as_str()).collect();
                    let detection = Detection {
                        kind: DetectionKind::SwallowedError,
                        scenario: s.scenario.clone(),
                        channels,
                        seq,
                        at_ms,
                        detail: format!(
                            "{} fault(s) fired [{}] but no error surfaced",
                            s.fired.len(),
                            fired_ids.join(", ")
                        ),
                    };
                    s.emit(detection);
                }
                Some(e) if matches!(e.kind, ErrorKind::Crash | ErrorKind::AssertionFailure) => {
                    // Crash bucket: the failure is loud; nothing slipped
                    // through a crack. The offline oracle owns it.
                }
                Some(e) => {
                    let translated_ok = s.fired.iter().any(|f| {
                        canonical_signature(f.channel, f.kind)
                            .is_some_and(|(kind, code)| e.kind == kind && e.code == code)
                    });
                    if !translated_ok {
                        let channels = distinct_channels(s.fired.iter().map(|f| f.channel));
                        let expected: Vec<String> = s
                            .fired
                            .iter()
                            .filter_map(|f| canonical_signature(f.channel, f.kind))
                            .map(|(kind, code)| format!("{kind}:{code}"))
                            .collect();
                        let detection = Detection {
                            kind: DetectionKind::MistranslatedError,
                            scenario: s.scenario.clone(),
                            channels,
                            seq,
                            at_ms,
                            detail: format!(
                                "surfaced {} matches none of [{}]",
                                e.signature(),
                                expected.join(", ")
                            ),
                        };
                        s.emit(detection);
                    }
                }
            }
        }

        // Crossing-pattern anomaly vs. the frozen per-scenario baseline.
        let baselines = s.spec.baselines.clone();
        if let Some(profile) = baselines.profiles.get(&s.scenario) {
            if s.ops != profile.ops {
                let divergence = s
                    .ops
                    .iter()
                    .zip(&profile.ops)
                    .position(|(a, b)| a != b)
                    .unwrap_or_else(|| s.ops.len().min(profile.ops.len()));
                let channels = match s
                    .ops
                    .get(divergence)
                    .or_else(|| profile.ops.get(divergence))
                {
                    Some((channel, _)) => vec![*channel],
                    None => Vec::new(),
                };
                let detection = Detection {
                    kind: DetectionKind::PatternAnomaly,
                    scenario: s.scenario.clone(),
                    channels,
                    seq: divergence as u64,
                    at_ms: 0,
                    detail: format!(
                        "crossing sequence diverged from baseline at #{divergence} \
                         (observed {} ops, baseline {})",
                        s.ops.len(),
                        profile.ops.len()
                    ),
                };
                s.emit(detection);
            }
        }

        // Cross-channel co-occurrence: cluster faulted crossings by
        // virtual-time gaps; a cluster spanning ≥2 channels is the signal.
        let window = s.spec.config.co_window_ms;
        let mut cluster: Vec<(u64, u64, Channel)> = Vec::new();
        let faulted = s.faulted.clone();
        let mut clusters: Vec<Vec<(u64, u64, Channel)>> = Vec::new();
        for event in faulted {
            match cluster.last() {
                Some(&(_, last_at, _)) if event.1.saturating_sub(last_at) <= window => {
                    cluster.push(event);
                }
                Some(_) => {
                    clusters.push(std::mem::take(&mut cluster));
                    cluster.push(event);
                }
                None => cluster.push(event),
            }
        }
        if !cluster.is_empty() {
            clusters.push(cluster);
        }
        for cluster in clusters {
            let channels = distinct_channels(cluster.iter().map(|&(_, _, c)| c));
            if channels.len() >= 2 {
                let (seq, at_ms, _) = cluster[0];
                let detection = Detection {
                    kind: DetectionKind::CoOccurrence,
                    scenario: s.scenario.clone(),
                    channels: channels.clone(),
                    seq,
                    at_ms,
                    detail: format!(
                        "{} faulted crossings across {} channels within {window}ms windows",
                        cluster.len(),
                        channels.len()
                    ),
                };
                s.emit(detection);
            }
        }

        std::mem::take(&mut s.detections)
    }
}

impl DetectorState {
    /// Records one detection, streaming it through the tap (if any)
    /// first. Every detection site funnels through here, so a tap sees
    /// exactly the detections the final report carries, in order.
    fn emit(&mut self, detection: Detection) {
        if let Some(tap) = &self.spec.tap {
            tap.emit(&detection);
        }
        self.detections.push(detection);
    }

    /// seq/at_ms of the first faulted crossing — the anchor for the
    /// error-handling detections.
    fn fired_anchor(&self) -> (u64, u64) {
        self.faulted
            .first()
            .map(|&(seq, at_ms, _)| (seq, at_ms))
            .unwrap_or(self.last_crossing)
    }

    fn observe(&mut self, crossing: &Crossing) {
        if !self.active {
            return;
        }
        self.last_crossing = (crossing.seq, crossing.at_ms);
        self.ops
            .push((crossing.call.channel, crossing.call.op.clone()));
        if let CrossingOutcome::Faulted { fault } = &crossing.outcome {
            self.fired.push(fault.clone());
            self.faulted
                .push((crossing.seq, crossing.at_ms, crossing.call.channel));
            if matches!(
                fault.kind,
                FaultKind::Latency { .. } | FaultKind::Timeout { .. }
            ) {
                let key = (crossing.call.channel, crossing.call.op.clone());
                let count = self.latency_counts.entry(key).or_insert(0);
                *count += 1;
                // Emit exactly once, online, the moment the storm
                // threshold is crossed — not at end of stream.
                if *count == self.spec.config.storm_threshold {
                    let detection = Detection {
                        kind: DetectionKind::LatencyStorm,
                        scenario: self.scenario.clone(),
                        channels: vec![crossing.call.channel],
                        seq: crossing.seq,
                        at_ms: crossing.at_ms,
                        detail: format!(
                            "{} delayed {}:{} crossings (threshold {})",
                            count,
                            crossing.call.channel,
                            crossing.call.op,
                            self.spec.config.storm_threshold
                        ),
                    };
                    self.emit(detection);
                }
            }
        }
    }
}

impl CrossingSink for OnlineDetector {
    fn on_crossing(&mut self, crossing: &Crossing) {
        self.inner.lock().observe(crossing);
    }
}

fn distinct_channels(iter: impl Iterator<Item = Channel>) -> Vec<Channel> {
    let present: std::collections::BTreeSet<Channel> = iter.collect();
    Channel::ALL
        .into_iter()
        .filter(|c| present.contains(c))
        .collect()
}

/// Agreement between the online detector and the offline
/// [`classify_fault_outcome`] oracle, over observations where faults
/// fired. Positive = the oracle labels the outcome swallowed or
/// mistranslated; the detector's positive = it emitted a matching
/// error-handling detection. Counts are integers so reports serialize
/// byte-identically; ratios are derived at render time.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct DetectorAgreement {
    /// Oracle positive, detector positive.
    pub true_positives: usize,
    /// Oracle negative, detector positive.
    pub false_positives: usize,
    /// Oracle positive, detector negative.
    pub false_negatives: usize,
    /// Oracle negative, detector negative.
    pub true_negatives: usize,
}

impl DetectorAgreement {
    /// Scores one observation.
    pub fn score(&mut self, oracle_positive: bool, detector_positive: bool) {
        match (oracle_positive, detector_positive) {
            (true, true) => self.true_positives += 1,
            (false, true) => self.false_positives += 1,
            (true, false) => self.false_negatives += 1,
            (false, false) => self.true_negatives += 1,
        }
    }

    /// Number of scored observations.
    pub fn total(&self) -> usize {
        self.true_positives + self.false_positives + self.false_negatives + self.true_negatives
    }

    /// TP / (TP + FP); 1.0 when the detector never fired.
    pub fn precision(&self) -> f64 {
        let flagged = self.true_positives + self.false_positives;
        if flagged == 0 {
            1.0
        } else {
            self.true_positives as f64 / flagged as f64
        }
    }

    /// TP / (TP + FN); 1.0 when the oracle never fired.
    pub fn recall(&self) -> f64 {
        let positives = self.true_positives + self.false_negatives;
        if positives == 0 {
            1.0
        } else {
            self.true_positives as f64 / positives as f64
        }
    }
}

/// Whether a detection set contains an error-handling detection — the
/// detector-side positive when scoring against the offline oracle.
pub fn flags_error_handling(detections: &[Detection]) -> bool {
    detections.iter().any(|d| d.kind.is_error_handling())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::boundary::{BoundaryCall, CrossingContext};
    use crate::fault::{classify_fault_outcome, FaultOutcome, FaultSpec, Trigger};

    fn ms_call(op: &str) -> BoundaryCall {
        BoundaryCall::new(Channel::Metastore, op)
    }

    fn spec(id: &str, channel: Channel, op: &str, kind: FaultKind) -> FaultSpec {
        FaultSpec {
            id: id.into(),
            channel,
            op: op.into(),
            kind,
            trigger: Trigger::Always,
        }
    }

    fn drive(ctx: &CrossingContext, calls: &[BoundaryCall]) {
        for call in calls {
            let _ = ctx.intercept(call.clone());
        }
    }

    #[test]
    fn clean_stream_yields_no_detections() {
        let detector = OnlineDetector::from_spec(DetectorSpec::default());
        let ctx = CrossingContext::new();
        ctx.set_sink(detector.sink());
        detector.begin("s");
        drive(&ctx, &[ms_call("get_table"), ms_call("create_table")]);
        assert!(detector.finish(None).is_empty());
    }

    #[test]
    fn swallowed_fault_is_detected_iff_oracle_agrees() {
        let detector = OnlineDetector::from_spec(DetectorSpec::default());
        let ctx = CrossingContext::new();
        ctx.arm(spec(
            "u",
            Channel::Metastore,
            "get_table",
            FaultKind::Unavailable,
        ));
        ctx.set_sink(detector.sink());
        detector.begin("s");
        drive(&ctx, &[ms_call("get_table")]);
        // No error surfaced: the oracle says swallowed, and so does the
        // detector, from the stream alone.
        let detections = detector.finish(None);
        assert_eq!(
            classify_fault_outcome(&ctx.fired(), None),
            FaultOutcome::Swallowed
        );
        assert_eq!(detections.len(), 1);
        assert_eq!(detections[0].kind, DetectionKind::SwallowedError);
        assert_eq!(detections[0].channels, vec![Channel::Metastore]);
        assert!(
            detections[0].detail.contains("[u]"),
            "{}",
            detections[0].detail
        );
    }

    #[test]
    fn mistranslated_error_is_detected() {
        let detector = OnlineDetector::from_spec(DetectorSpec::default());
        let ctx = CrossingContext::new();
        ctx.arm(spec(
            "u",
            Channel::Metastore,
            "get_table",
            FaultKind::Unavailable,
        ));
        ctx.set_sink(detector.sink());
        detector.begin("s");
        drive(&ctx, &[ms_call("get_table")]);
        let generic = InteractionError::new("spark", ErrorKind::Rejected, "INTERNAL", "boom");
        let fired = ctx.fired();
        assert_eq!(
            classify_fault_outcome(&fired, Some(&generic)),
            FaultOutcome::Mistranslated
        );
        let detections = detector.finish(Some(&generic));
        assert_eq!(detections.len(), 1);
        assert_eq!(detections[0].kind, DetectionKind::MistranslatedError);
        assert!(
            detections[0].detail.contains("rejected:INTERNAL"),
            "{}",
            detections[0].detail
        );
        assert!(
            detections[0]
                .detail
                .contains("unavailable:METASTORE_UNAVAILABLE"),
            "{}",
            detections[0].detail
        );
    }

    #[test]
    fn propagated_with_context_stays_silent() {
        let detector = OnlineDetector::from_spec(DetectorSpec::default());
        let ctx = CrossingContext::new();
        ctx.arm(spec(
            "u",
            Channel::Metastore,
            "get_table",
            FaultKind::Unavailable,
        ));
        ctx.set_sink(detector.sink());
        detector.begin("s");
        drive(&ctx, &[ms_call("get_table")]);
        let canonical = InteractionError::new(
            "hive",
            ErrorKind::Unavailable,
            "METASTORE_UNAVAILABLE",
            "down",
        );
        assert!(detector.finish(Some(&canonical)).is_empty());
    }

    #[test]
    fn crash_bucket_is_left_to_the_offline_oracle() {
        let detector = OnlineDetector::from_spec(DetectorSpec::default());
        let ctx = CrossingContext::new();
        ctx.arm(spec(
            "u",
            Channel::Metastore,
            "get_table",
            FaultKind::Unavailable,
        ));
        ctx.set_sink(detector.sink());
        detector.begin("s");
        drive(&ctx, &[ms_call("get_table")]);
        let crash = InteractionError::new("spark", ErrorKind::Crash, "NPE", "null");
        assert!(detector.finish(Some(&crash)).is_empty());
    }

    #[test]
    fn latency_storm_fires_online_at_the_threshold_exactly_once() {
        let detector = OnlineDetector::new(
            DetectorConfig {
                storm_threshold: 3,
                ..DetectorConfig::default()
            },
            Arc::new(BaselineSet::default()),
        );
        let ctx = CrossingContext::new();
        ctx.arm(spec(
            "slow",
            Channel::Yarn,
            "allocate",
            FaultKind::Latency { ms: 700 },
        ));
        ctx.set_sink(detector.sink());
        detector.begin("yarn:driver");
        let call = BoundaryCall::new(Channel::Yarn, "allocate");
        drive(
            &ctx,
            &[call.clone(), call.clone(), call.clone(), call.clone()],
        );
        // 4 delayed crossings, threshold 3: exactly one storm detection,
        // anchored at the third crossing, plus the swallowed-error mirror
        // (latency faults fired, nothing surfaced).
        let detections = detector.finish(None);
        let storms: Vec<_> = detections
            .iter()
            .filter(|d| d.kind == DetectionKind::LatencyStorm)
            .collect();
        assert_eq!(storms.len(), 1);
        assert_eq!(storms[0].seq, 2);
        assert!(
            storms[0].detail.contains("yarn:allocate"),
            "{}",
            storms[0].detail
        );
        assert!(flags_error_handling(&detections));
    }

    #[test]
    fn pattern_anomaly_against_learned_baseline() {
        // Learn the clean shape of the scenario...
        let ctx = CrossingContext::new();
        drive(&ctx, &[ms_call("get_table"), ms_call("create_table")]);
        let mut baselines = BaselineSet::default();
        baselines.learn("s", &ctx.trace());

        // ...then replay with an extra crossing: anomaly at index 1.
        let detector = OnlineDetector::new(DetectorConfig::default(), Arc::new(baselines.clone()));
        let ctx = CrossingContext::new();
        ctx.set_sink(detector.sink());
        detector.begin("s");
        drive(
            &ctx,
            &[
                ms_call("get_table"),
                ms_call("drop_table"),
                ms_call("create_table"),
            ],
        );
        let detections = detector.finish(None);
        assert_eq!(detections.len(), 1);
        assert_eq!(detections[0].kind, DetectionKind::PatternAnomaly);
        assert_eq!(detections[0].seq, 1);

        // A faithful replay is silent; an unknown scenario is silent too.
        let detector = OnlineDetector::new(DetectorConfig::default(), Arc::new(baselines));
        let ctx = CrossingContext::new();
        ctx.set_sink(detector.sink());
        detector.begin("s");
        drive(&ctx, &[ms_call("get_table"), ms_call("create_table")]);
        assert!(detector.finish(None).is_empty());
        detector.begin("unknown");
        drive(&ctx, &[ms_call("drop_table")]);
        assert!(detector.finish(None).is_empty());
    }

    #[test]
    fn cross_channel_co_occurrence_clusters_by_virtual_time() {
        let detector = OnlineDetector::from_spec(DetectorSpec::default());
        let ctx = CrossingContext::new();
        ctx.arm(spec(
            "ms-slow",
            Channel::Metastore,
            "get_table",
            FaultKind::Latency { ms: 100 },
        ));
        ctx.arm(spec(
            "fs-down",
            Channel::Hdfs,
            "read",
            FaultKind::Unavailable,
        ));
        ctx.set_sink(detector.sink());
        detector.begin("s");
        drive(
            &ctx,
            &[
                ms_call("get_table"),
                BoundaryCall::new(Channel::Hdfs, "read"),
            ],
        );
        let generic = InteractionError::new("hdfs", ErrorKind::Unavailable, "SAFE_MODE", "safe");
        let detections = detector.finish(Some(&generic));
        let co: Vec<_> = detections
            .iter()
            .filter(|d| d.kind == DetectionKind::CoOccurrence)
            .collect();
        assert_eq!(co.len(), 1);
        assert_eq!(co[0].channels, vec![Channel::Metastore, Channel::Hdfs]);

        // Same two channels, but separated by more than the window: no
        // cluster.
        let detector = OnlineDetector::new(
            DetectorConfig {
                co_window_ms: 50,
                ..DetectorConfig::default()
            },
            Arc::new(BaselineSet::default()),
        );
        let ctx = CrossingContext::new();
        ctx.arm(spec(
            "ms-slow",
            Channel::Metastore,
            "get_table",
            FaultKind::Latency { ms: 100 },
        ));
        ctx.arm(spec(
            "fs-down",
            Channel::Hdfs,
            "read",
            FaultKind::Unavailable,
        ));
        ctx.set_sink(detector.sink());
        detector.begin("s");
        drive(
            &ctx,
            &[
                ms_call("get_table"),
                BoundaryCall::new(Channel::Hdfs, "read"),
            ],
        );
        let detections = detector.finish(Some(&generic));
        assert!(detections
            .iter()
            .all(|d| d.kind != DetectionKind::CoOccurrence));
    }

    #[test]
    fn crossings_outside_an_observation_are_ignored() {
        let detector = OnlineDetector::from_spec(DetectorSpec::default());
        let ctx = CrossingContext::new();
        ctx.arm(spec(
            "u",
            Channel::Metastore,
            "get_table",
            FaultKind::Unavailable,
        ));
        ctx.set_sink(detector.sink());
        // Seeding traffic before begin() — invisible to the detector.
        drive(&ctx, &[ms_call("get_table")]);
        detector.begin("s");
        let detections = detector.finish(None);
        assert!(detections.is_empty());
        // And after finish() — also invisible.
        drive(&ctx, &[ms_call("get_table")]);
        detector.begin("s2");
        assert!(detector.finish(None).is_empty());
    }

    #[test]
    fn agreement_ratios() {
        let mut a = DetectorAgreement::default();
        assert_eq!(a.precision(), 1.0);
        assert_eq!(a.recall(), 1.0);
        a.score(true, true);
        a.score(true, true);
        a.score(false, false);
        a.score(true, false);
        a.score(false, true);
        assert_eq!(a.total(), 5);
        assert_eq!(a.true_positives, 2);
        assert_eq!(a.false_negatives, 1);
        assert_eq!(a.false_positives, 1);
        assert_eq!(a.true_negatives, 1);
        assert!((a.precision() - 2.0 / 3.0).abs() < 1e-12);
        assert!((a.recall() - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn detections_round_trip_through_serde() {
        let detection = Detection {
            kind: DetectionKind::CoOccurrence,
            scenario: "sh:spark-sql->hiveql:orc:i1".into(),
            channels: vec![Channel::Metastore, Channel::Hdfs],
            seq: 7,
            at_ms: 103,
            detail: "2 faulted crossings across 2 channels".into(),
        };
        let json = serde_json::to_string(&detection).unwrap();
        let back: Detection = serde_json::from_str(&json).unwrap();
        assert_eq!(back, detection);
    }
}
