//! The open-loop load generator for an in-process `csi-serve` daemon.
//!
//! One connection carries every request. This (sender) thread writes each
//! request line with a single `write_all` at its Poisson due time; a
//! reader thread on a `try_clone`d stream timestamps every frame as it
//! arrives. `ServeClient` cannot be split that way, so the generator
//! speaks the line protocol itself through the crate's public types.
//! Latency is measured from when a request was *due*, so a stall counts
//! against every request queued behind it, and the sender's own lateness
//! is recorded so a lagging generator can invalidate the run.

use crate::stats::{self, Rng};
use crate::workload::TENANTS;
use csi_serve::{CsiServer, Frame, ServeConfig};
use parking_lot::Mutex;
use std::collections::{BTreeMap, VecDeque};
use std::io::{BufRead, BufReader, Write};
use std::net::{Shutdown, TcpStream};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Latency limit a ladder rung's tail must meet, in ms.
pub const LATENCY_LIMIT_MS: f64 = 100.0;

/// Ratio between neighbouring rungs of the rate ladder.
pub const LADDER_STEP: f64 = 1.25;

/// Lowest rung of the rate ladder, campaigns/s.
pub const LADDER_BASE: f64 = 50.0;

/// Percentile a ladder rung's tail is read at: p90 repeats from run to
/// run near saturation, where higher percentiles are single stalls.
pub const RUNG_TAIL_PCT: f64 = 90.0;

/// Generator lateness beyond which a run cannot judge latency, in ms.
pub const MAX_LATENESS_MS: f64 = LATENCY_LIMIT_MS;

/// What the per-shape batch run of a served spec produced: a served
/// report must match it byte for byte.
#[derive(Debug, Clone)]
pub struct ShapeRef {
    /// Digest of the batch report JSON.
    pub report_digest: String,
    /// Detections the batch run emitted.
    pub detections: usize,
    /// Observations the campaign executes.
    pub observations: usize,
}

/// One request the generator sent.
#[derive(Debug, Clone)]
struct Sent {
    due: Instant,
    tenant: usize,
    shape: usize,
}

/// One frame as the reader saw it.
#[derive(Debug, Clone)]
enum Event {
    Accepted {
        queue_depth: usize,
    },
    Detection {
        tenant: String,
    },
    Report {
        tenant: String,
        micros: u64,
        detections: usize,
        digest: String,
    },
    Rejected {
        tenant: String,
    },
}

#[derive(Default)]
struct Inbox {
    events: Vec<(Instant, Event)>,
    decode_us: Vec<f64>,
    frame_bytes: Vec<usize>,
}

/// One offered phase, matched and checked.
#[derive(Debug, Clone, Default)]
pub struct PhaseResult {
    /// Requests sent.
    pub attempted: usize,
    /// Requests refused, lost, or answered with a wrong report.
    pub failed: usize,
    /// Due-to-report latency per completed request, ms, in send order.
    pub latency_ms: Vec<f64>,
    /// `(due, report arrival)` per completed request, in send order.
    pub windows: Vec<(Instant, Instant)>,
    /// Server-side campaign run time per completed request, ms.
    pub run_ms: Vec<f64>,
    /// Latency minus run time per completed request, ms.
    pub non_run_ms: Vec<f64>,
    /// Queue depth reported by each `Accepted` frame.
    pub queue_depths: Vec<f64>,
    /// Observations each completed campaign executed, in send order.
    pub observations: Vec<usize>,
    /// Worst lateness of the sender against the schedule, ms.
    pub late_ms_max: f64,
}

/// A running daemon plus the generator's connection to it.
pub struct LoadGen {
    server: CsiServer,
    writer: TcpStream,
    inbox: Arc<Mutex<Inbox>>,
    terminals: Arc<AtomicUsize>,
    reader: Option<JoinHandle<()>>,
    shape_json: Vec<String>,
    refs: Vec<ShapeRef>,
    /// Requests sent so far, in order: `(tenant, shape)` for the tenant
    /// journal replay.
    pub submissions: Vec<(usize, usize)>,
    request_bytes: Vec<usize>,
    sent_total: usize,
    events_seen: usize,
}

/// The tenant name of tenant index `i`.
pub fn tenant_name(i: usize) -> String {
    format!("t{i:03}")
}

/// Starts a daemon with `workers` workers and as many pre-warmed
/// deployments, connects to it, and starts the reader thread.
/// Admission caps are set far above any offered backlog: this generator
/// measures queueing, never refusal.
pub fn start(workers: usize, shapes: &[csi_test::CampaignSpec], refs: Vec<ShapeRef>) -> LoadGen {
    let config = ServeConfig {
        workers,
        warm: workers,
        max_queue: 1 << 20,
        per_tenant_queue: 1 << 20,
    };
    let server = CsiServer::start(&config).expect("daemon starts on localhost");
    let writer = TcpStream::connect(server.addr()).expect("connect to the daemon");
    let read_half = writer.try_clone().expect("clone the connection");
    let inbox = Arc::new(Mutex::new(Inbox::default()));
    let terminals = Arc::new(AtomicUsize::new(0));
    let reader = {
        let inbox = inbox.clone();
        let terminals = terminals.clone();
        std::thread::spawn(move || read_frames(read_half, &inbox, &terminals))
    };
    LoadGen {
        server,
        writer,
        inbox,
        terminals,
        reader: Some(reader),
        shape_json: shapes
            .iter()
            .map(|s| serde_json::to_string(s).expect("specs serialize"))
            .collect(),
        refs,
        submissions: Vec::new(),
        request_bytes: Vec::new(),
        sent_total: 0,
        events_seen: 0,
    }
}

fn read_frames(stream: TcpStream, inbox: &Mutex<Inbox>, terminals: &AtomicUsize) {
    let mut reader = BufReader::new(stream);
    let mut line = String::new();
    loop {
        line.clear();
        match reader.read_line(&mut line) {
            Ok(0) | Err(_) => return,
            Ok(_) => {}
        }
        let at = Instant::now();
        let decode = Instant::now();
        let frame: Frame = match serde_json::from_str(&line) {
            Ok(frame) => frame,
            Err(_) => Frame::Rejected {
                tenant: String::new(),
                reason: csi_serve::RejectReason::Malformed("undecodable frame".into()),
            },
        };
        let decode_us = decode.elapsed().as_secs_f64() * 1e6;
        let terminal = frame.is_terminal();
        let event = match frame {
            Frame::Accepted { queue_depth, .. } => Event::Accepted { queue_depth },
            Frame::Detection { tenant, .. } => Event::Detection { tenant },
            Frame::Report {
                tenant,
                campaign_micros,
                detections,
                report_json,
                ..
            } => Event::Report {
                tenant,
                micros: campaign_micros,
                detections,
                digest: stats::digest(report_json.as_bytes()),
            },
            Frame::Rejected { tenant, .. } => Event::Rejected { tenant },
        };
        {
            let mut inbox = inbox.lock();
            if matches!(event, Event::Report { .. }) {
                inbox.frame_bytes.push(line.len());
            }
            inbox.decode_us.push(decode_us);
            inbox.events.push((at, event));
        }
        if terminal {
            terminals.fetch_add(1, Ordering::SeqCst);
        }
    }
}

impl PhaseResult {
    /// Appends a later phase at the same rate.
    pub fn extend(&mut self, other: PhaseResult) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.latency_ms.extend(other.latency_ms);
        self.windows.extend(other.windows);
        self.run_ms.extend(other.run_ms);
        self.non_run_ms.extend(other.non_run_ms);
        self.queue_depths.extend(other.queue_depths);
        self.observations.extend(other.observations);
        self.late_ms_max = self.late_ms_max.max(other.late_ms_max);
    }
}

impl LoadGen {
    /// Offers a seeded Poisson stream at `rate` for `seconds`, waits for
    /// every answer, and matches answers to requests.
    pub fn offer(&mut self, rate: f64, seconds: f64, rng: &mut Rng) -> PhaseResult {
        let mut schedule: Vec<(f64, usize, usize)> = Vec::new();
        let mut t = rng.exp_gap(rate);
        while t < seconds {
            schedule.push((t, rng.below(TENANTS), rng.below(self.shape_json.len())));
            t += rng.exp_gap(rate);
        }
        let start = Instant::now() + Duration::from_millis(2);
        let mut sent = Vec::with_capacity(schedule.len());
        let mut late_ms_max: f64 = 0.0;
        for (offset, tenant, shape) in schedule {
            let due = start + Duration::from_secs_f64(offset);
            let now = Instant::now();
            if due > now {
                std::thread::sleep(due - now);
            }
            let line = format!(
                "{{\"tenant\":\"{}\",\"spec\":{}}}\n",
                tenant_name(tenant),
                self.shape_json[shape]
            );
            // One write per request line: the generator adds no Nagle
            // delay of its own.
            self.writer
                .write_all(line.as_bytes())
                .expect("write a request line");
            late_ms_max = late_ms_max.max(due.elapsed().as_secs_f64() * 1e3);
            self.request_bytes.push(line.len());
            self.submissions.push((tenant, shape));
            sent.push(Sent { due, tenant, shape });
        }
        self.sent_total += sent.len();
        let drained = self.drain(Duration::from_secs(60));
        let mut result = self.match_phase(&sent);
        if !drained {
            result.failed = result.attempted;
        }
        result.late_ms_max = late_ms_max;
        result
    }

    /// Waits until every sent request has its terminal frame.
    fn drain(&self, limit: Duration) -> bool {
        let deadline = Instant::now() + limit;
        while self.terminals.load(Ordering::SeqCst) < self.sent_total {
            if Instant::now() > deadline {
                return false;
            }
            std::thread::sleep(Duration::from_micros(500));
        }
        true
    }

    /// Matches this phase's frames to its requests. Frames carry only a
    /// tenant name, so each tenant's answers are matched first-in,
    /// first-out among its requests of the same shape (identified by the
    /// report digest); `Accepted` frames come back in send order.
    fn match_phase(&mut self, sent: &[Sent]) -> PhaseResult {
        let events: Vec<(Instant, Event)> = {
            let inbox = self.inbox.lock();
            inbox.events[self.events_seen..].to_vec()
        };
        self.events_seen += events.len();
        let mut result = PhaseResult {
            attempted: sent.len(),
            ..PhaseResult::default()
        };
        let mut outstanding: BTreeMap<String, VecDeque<usize>> = BTreeMap::new();
        for (i, s) in sent.iter().enumerate() {
            outstanding
                .entry(tenant_name(s.tenant))
                .or_default()
                .push_back(i);
        }
        let mut answered = vec![false; sent.len()];
        let mut latency: Vec<(usize, f64, f64, Instant)> = Vec::new();
        let mut streamed: BTreeMap<String, usize> = BTreeMap::new();
        let mut claimed: BTreeMap<String, usize> = BTreeMap::new();
        for (at, event) in events {
            match event {
                Event::Accepted { queue_depth, .. } => {
                    result.queue_depths.push(queue_depth as f64);
                }
                Event::Detection { tenant } => {
                    *streamed.entry(tenant).or_default() += 1;
                }
                Event::Rejected { tenant } => {
                    result.failed += 1;
                    if let Some(i) = outstanding.get_mut(&tenant).and_then(VecDeque::pop_front) {
                        answered[i] = true;
                    }
                }
                Event::Report {
                    tenant,
                    micros,
                    detections,
                    digest,
                } => {
                    let queue = outstanding.entry(tenant.clone()).or_default();
                    let pos = queue
                        .iter()
                        .position(|&i| self.refs[sent[i].shape].report_digest == digest);
                    let Some(i) = pos.and_then(|p| queue.remove(p)) else {
                        // A report that matches no outstanding request of
                        // its tenant is wrong output.
                        result.failed += 1;
                        if let Some(i) = queue.pop_front() {
                            answered[i] = true;
                        }
                        continue;
                    };
                    answered[i] = true;
                    let reference = &self.refs[sent[i].shape];
                    // Detections stream before their report: the frames
                    // received so far cover every report's count.
                    let claimed = claimed.entry(tenant.clone()).or_default();
                    *claimed += detections;
                    if detections != reference.detections
                        || streamed.get(&tenant).copied().unwrap_or(0) < *claimed
                    {
                        result.failed += 1;
                        continue;
                    }
                    let run_ms = micros as f64 / 1e3;
                    let total_ms = (at - sent[i].due).as_secs_f64() * 1e3;
                    latency.push((i, total_ms, run_ms, at));
                }
            }
        }
        result.failed += answered.iter().filter(|a| !**a).count();
        latency.sort_by_key(|l| l.0);
        for (i, total, run, at) in latency {
            result.windows.push((sent[i].due, at));
            result.latency_ms.push(total);
            result.run_ms.push(run);
            result.non_run_ms.push(total - run);
            result
                .observations
                .push(self.refs[sent[i].shape].observations);
        }
        result
    }

    /// Deployment-pool counters of the daemon.
    pub fn pool_stats(&self) -> csi_test::PoolStats {
        self.server.pool_stats()
    }

    /// Journal entries the daemon's tenant registry holds.
    pub fn journal_entries(&self) -> usize {
        let registry = self.server.registry();
        registry
            .tenants()
            .iter()
            .map(|t| registry.submissions(t))
            .sum()
    }

    /// Mean request line size, bytes.
    pub fn mean_request_bytes(&self) -> f64 {
        mean_usize(&self.request_bytes)
    }

    /// Mean `Report` frame line size, bytes.
    pub fn mean_report_frame_bytes(&self) -> f64 {
        mean_usize(&self.inbox.lock().frame_bytes)
    }

    /// Mean time to decode one frame line, µs.
    pub fn mean_decode_us(&self) -> f64 {
        let inbox = self.inbox.lock();
        inbox.decode_us.iter().sum::<f64>() / inbox.decode_us.len().max(1) as f64
    }

    /// Closes the connection, shuts the daemon down, and joins the reader.
    pub fn stop(mut self) {
        let _ = self.writer.shutdown(Shutdown::Both);
        self.server.shutdown();
        if let Some(reader) = self.reader.take() {
            reader.join().expect("reader thread exits cleanly");
        }
    }
}

fn mean_usize(v: &[usize]) -> f64 {
    v.iter().sum::<usize>() as f64 / v.len().max(1) as f64
}

/// Whether a ladder rung held: every request answered correctly, the
/// tail within [`LATENCY_LIMIT_MS`], and no backlog growing through
/// the rung — a growing queue shows as the last quarter of requests
/// (in send order) waiting over half the limit longer than the first.
pub fn rung_holds(phase: &PhaseResult) -> bool {
    let lat = &phase.latency_ms;
    let quarter = lat.len() / 4;
    let growing = quarter > 0
        && stats::median(&lat[lat.len() - quarter..]) - stats::median(&lat[..quarter])
            > LATENCY_LIMIT_MS / 2.0;
    phase.failed == 0 && !lat.is_empty() && rung_tail(phase) <= LATENCY_LIMIT_MS && !growing
}

/// A ladder rung's tail latency, ms.
pub fn rung_tail(phase: &PhaseResult) -> f64 {
    stats::tail_at_most(&phase.latency_ms, RUNG_TAIL_PCT).value
}

/// `serve.max_rate` from a ladder walk of `(rung, holds, tail ms)`
/// steps: the rate of the highest rung that held, 0 when none did.
pub fn max_rate(rungs: &[(usize, bool, f64)]) -> f64 {
    rungs
        .iter()
        .filter(|r| r.1)
        .map(|r| r.0)
        .max()
        .map_or(0.0, rung_rate)
}

/// The rate of ladder rung `k`.
pub fn rung_rate(k: usize) -> f64 {
    LADDER_BASE * LADDER_STEP.powi(k as i32)
}
