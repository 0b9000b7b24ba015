//! Coverage signatures extracted from boundary-crossing traces.
//!
//! The coverage-guided campaign mode (`csi_test::explore`) treats each
//! observation's [`InteractionTrace`] as a feedback signal: the set of
//! (channel, op, plane, outcome-class) tuples it crossed, plus a small set
//! of classifier tags (error codes, oracle verdicts, §9 taxonomy buckets),
//! forms a [`CoverageSignature`]. An input whose observation produces a
//! signature never seen before is *novel* and earns a place in the
//! exploration corpus.
//!
//! Signatures are canonical: tuples and tags live in ordered sets, so two
//! observations that crossed the same boundaries in different interleavings
//! or multiplicities collapse to the same signature. The fingerprint is a
//! plain FNV-1a over the canonical text, which keeps the whole map
//! deterministic and serializable — the properties the explore mode's
//! serial-vs-sharded byte-identity rests on.

use crate::boundary::{CrossingOutcome, InteractionTrace};
use crate::fault::FaultKind;
use crate::hash::{fnv1a, Fnv};
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, BTreeSet};

/// The coverage signature of one observation: canonical crossing tuples
/// plus classifier tags.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct CoverageSignature {
    /// Canonical `channel|op|plane|outcome-class` tuples, deduplicated.
    pub tuples: BTreeSet<String>,
    /// Classifier tags: error codes, oracle verdicts, taxonomy buckets,
    /// input-shape markers. Deduplicated and ordered.
    pub tags: BTreeSet<String>,
}

/// The outcome class of a crossing, independent of fault parameters: a
/// `Timeout {{ ms: 12_345 }}` and a `Timeout {{ ms: 17 }}` cover the same
/// class.
fn outcome_class(outcome: &CrossingOutcome) -> &'static str {
    match outcome {
        CrossingOutcome::Clean => "ok",
        CrossingOutcome::Faulted { fault } => match fault.kind {
            FaultKind::Unavailable => "fault-unavailable",
            FaultKind::Timeout { .. } => "fault-timeout",
            FaultKind::CorruptPayload => "fault-corrupt",
            FaultKind::Latency { .. } => "fault-latency",
        },
        CrossingOutcome::Noted { .. } => "note",
    }
}

impl CoverageSignature {
    /// Extracts the crossing tuples of a trace; tags start empty.
    pub fn from_trace(trace: &InteractionTrace) -> CoverageSignature {
        let tuples = trace
            .crossings
            .iter()
            .map(|c| {
                format!(
                    "{}|{}|{}|{}",
                    c.call.channel,
                    c.call.op,
                    c.call.plane,
                    outcome_class(&c.outcome)
                )
            })
            .collect();
        CoverageSignature {
            tuples,
            tags: BTreeSet::new(),
        }
    }

    /// Adds a classifier tag (idempotent).
    pub fn tag(&mut self, tag: impl Into<String>) {
        self.tags.insert(tag.into());
    }

    /// The canonical one-line rendering the fingerprint hashes.
    pub fn canonical(&self) -> String {
        let tuples: Vec<&str> = self.tuples.iter().map(String::as_str).collect();
        let tags: Vec<&str> = self.tags.iter().map(String::as_str).collect();
        format!("{}##{}", tuples.join(";"), tags.join(";"))
    }

    /// FNV-1a 64-bit fingerprint of the canonical rendering.
    pub fn fingerprint(&self) -> u64 {
        fnv1a(self.canonical().as_bytes())
    }
}

/// FNV-1a 64-bit fingerprint of an *ordered* causal-trace prefix (see
/// [`InteractionTrace::causal_prefix`]).
///
/// Unlike [`CoverageSignature::fingerprint`], which hashes a deduplicated
/// set, this hash is order-sensitive: the co-failure clustering of compound
/// fault campaigns groups discrepancies by the exact causal path up to the
/// first fault, so `A then B` and `B then A` must land in different
/// clusters.
pub fn prefix_fingerprint(prefix: &[String]) -> u64 {
    let mut hash = Fnv::new();
    for step in prefix {
        hash.bytes(step.as_bytes());
        // Step separator, so ["ab","c"] and ["a","bc"] differ.
        hash.byte(b'\n');
    }
    hash.finish()
}

/// The set of coverage signatures a campaign has seen, with the execution
/// index each was first observed at.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct CoverageMap {
    // Keyed by the hex fingerprint (JSON map keys are strings, so a
    // string key round-trips through serialization losslessly).
    first_seen: BTreeMap<String, usize>,
}

impl CoverageMap {
    /// An empty map.
    pub fn new() -> CoverageMap {
        CoverageMap::default()
    }

    /// Records a signature observed at execution index `executed`.
    /// Returns `true` when the signature is novel (first occurrence).
    pub fn observe(&mut self, signature: &CoverageSignature, executed: usize) -> bool {
        let fp = format!("{:016x}", signature.fingerprint());
        if let std::collections::btree_map::Entry::Vacant(slot) = self.first_seen.entry(fp) {
            slot.insert(executed);
            true
        } else {
            false
        }
    }

    /// Whether the signature has been seen.
    pub fn contains(&self, signature: &CoverageSignature) -> bool {
        self.first_seen
            .contains_key(&format!("{:016x}", signature.fingerprint()))
    }

    /// Number of distinct signatures seen.
    pub fn distinct(&self) -> usize {
        self.first_seen.len()
    }

    /// The hex fingerprints of every signature seen, in canonical
    /// (lexicographic) order. Exploration reports expose this so two runs
    /// can be compared by *which* signatures they reached, not just how
    /// many — the corpus-vs-catalogue set difference is computed on it.
    pub fn fingerprints(&self) -> Vec<String> {
        self.first_seen.keys().cloned().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::boundary::{BoundaryCall, CrossingContext};
    use crate::fault::{Channel, FaultSpec, Trigger};
    use crate::InteractionError;

    fn trace_with(ops: &[&str]) -> InteractionTrace {
        let ctx = CrossingContext::new();
        for op in ops {
            let _: Result<(), InteractionError> =
                ctx.cross(BoundaryCall::new(Channel::Metastore, op));
        }
        ctx.trace()
    }

    #[test]
    fn repeated_and_reordered_crossings_collapse_to_one_signature() {
        let a = CoverageSignature::from_trace(&trace_with(&["get_table", "create_table"]));
        let b =
            CoverageSignature::from_trace(&trace_with(&["create_table", "get_table", "get_table"]));
        assert_eq!(a.fingerprint(), b.fingerprint());
        assert_eq!(a.tuples.len(), 2);
    }

    #[test]
    fn fault_parameters_do_not_split_the_outcome_class() {
        let mut traces = Vec::new();
        for ms in [100u64, 90_000] {
            let ctx = CrossingContext::new();
            ctx.arm(FaultSpec {
                id: format!("t-{ms}"),
                channel: Channel::Metastore,
                op: "get_table".into(),
                kind: FaultKind::Timeout { ms },
                trigger: Trigger::Always,
            });
            let _: Result<(), InteractionError> =
                ctx.cross(BoundaryCall::new(Channel::Metastore, "get_table"));
            traces.push(ctx.trace());
        }
        let a = CoverageSignature::from_trace(&traces[0]);
        let b = CoverageSignature::from_trace(&traces[1]);
        assert_eq!(a.fingerprint(), b.fingerprint());
        assert!(a.canonical().contains("fault-timeout"), "{}", a.canonical());
    }

    #[test]
    fn tags_distinguish_otherwise_identical_traces() {
        let base = trace_with(&["get_table"]);
        let plain = CoverageSignature::from_trace(&base);
        let mut tagged = CoverageSignature::from_trace(&base);
        tagged.tag("code:CAST_OVERFLOW");
        assert_ne!(plain.fingerprint(), tagged.fingerprint());
        // Tagging is idempotent.
        let fp = tagged.fingerprint();
        tagged.tag("code:CAST_OVERFLOW");
        assert_eq!(tagged.fingerprint(), fp);
    }

    #[test]
    fn prefix_fingerprints_are_order_sensitive() {
        let ab = prefix_fingerprint(&["a".to_string(), "b".to_string()]);
        let ba = prefix_fingerprint(&["b".to_string(), "a".to_string()]);
        assert_ne!(ab, ba);
        // Step boundaries matter: ["ab"] != ["a","b"].
        assert_ne!(prefix_fingerprint(&["ab".to_string()]), ab);
        assert_eq!(ab, prefix_fingerprint(&["a".to_string(), "b".to_string()]));
    }

    #[test]
    fn causal_prefix_stops_at_the_first_fault() {
        let ctx = CrossingContext::new();
        ctx.arm(FaultSpec {
            id: "mid".into(),
            channel: Channel::Metastore,
            op: "create_table".into(),
            kind: FaultKind::Unavailable,
            trigger: Trigger::Always,
        });
        for op in ["get_table", "create_table", "drop_table"] {
            let _: Result<(), InteractionError> =
                ctx.cross(BoundaryCall::new(Channel::Metastore, op));
        }
        let prefix = ctx.trace().causal_prefix();
        assert_eq!(prefix.len(), 2, "{prefix:?}");
        assert!(prefix[1].contains("fault:unavailable"), "{prefix:?}");
    }

    #[test]
    fn map_reports_novelty_exactly_once() {
        let mut map = CoverageMap::new();
        let sig = CoverageSignature::from_trace(&trace_with(&["get_table"]));
        assert!(map.observe(&sig, 1));
        assert!(!map.observe(&sig, 2));
        assert!(map.contains(&sig));
        assert_eq!(map.distinct(), 1);
        let json = serde_json::to_string(&map).unwrap();
        let back: CoverageMap = serde_json::from_str(&json).unwrap();
        assert_eq!(back, map);
    }
}
