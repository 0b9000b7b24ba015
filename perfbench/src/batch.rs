//! One-shot campaigns, each in its own process, closed loop with one
//! client: how a batch user meets the system. Nothing a campaign builds
//! survives into the next one, so only per-campaign costs show here.

use crate::stats;
use crate::trace::Span;
use csi_test::{Campaign, CampaignSpec};
use serde::{Deserialize, Serialize};
use std::io::{BufRead, BufReader, Read, Write};
use std::process::{Command, Stdio};
use std::time::Instant;

/// What a child process is asked to run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ChildJob {
    /// The campaign.
    pub spec: CampaignSpec,
    /// Record spans around the calls the child makes.
    pub trace: bool,
}

/// What one campaign produced, as the child reports it.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct CampaignResult {
    /// Wall time from `CampaignSpec` to rendered report, ms.
    pub ms: f64,
    /// Observations executed, compound trials included.
    pub observations: usize,
    /// Digest of the report JSON.
    pub report_digest: String,
    /// Digest of the rendered report.
    pub render_digest: String,
    /// Discrepancy ids the report names.
    pub ids: Vec<String>,
    /// Coverage signatures (explore mode), else 0.
    pub signatures: usize,
    /// Distinct discrepancy classes.
    pub classes: usize,
    /// Peak resident set of the process that ran it, MB.
    pub rss_mb: f64,
    /// Spans recorded around the run, when traced.
    pub spans: Vec<Span>,
}

/// Runs one campaign in this process, timing spec to rendered report.
pub fn run_campaign(spec: CampaignSpec, trace: bool) -> CampaignResult {
    let mut spans = crate::trace::Recorder::new(trace);
    let started = Instant::now();
    let root = spans.open("batch.campaign", None);
    let s = spans.open("spec.from_spec", Some(root));
    let campaign = Campaign::from_spec(spec).expect("workload specs are valid");
    spans.close(s);
    let s = spans.open("exec.run", Some(root));
    let outcome = campaign.run();
    spans.close(s);
    let s = spans.open("report.render", Some(root));
    let render = outcome.render();
    spans.close(s);
    let s = spans.open("report.json", Some(root));
    let json = serde_json::to_string(&outcome.report).expect("reports serialize");
    spans.close(s);
    spans.close(root);
    let ms = started.elapsed().as_secs_f64() * 1e3;
    let compound = outcome.compound.as_ref().map_or(0, |c| c.executed);
    CampaignResult {
        ms,
        observations: outcome.observations.len() + compound,
        report_digest: stats::digest(json.as_bytes()),
        render_digest: stats::digest(render.as_bytes()),
        ids: outcome
            .report
            .discrepancies
            .iter()
            .map(|d| d.id.clone())
            .collect(),
        signatures: outcome.exploration.as_ref().map_or(0, |e| e.signatures),
        classes: outcome.report.distinct(),
        rss_mb: stats::peak_rss_mb(),
        spans: spans.finish(),
    }
}

/// The child side of [`spawn_campaign`]: reads a [`ChildJob`] from
/// stdin, runs it, and prints its [`CampaignResult`] as one JSON line.
pub fn child_main() {
    let mut input = String::new();
    std::io::stdin()
        .read_to_string(&mut input)
        .expect("read the job from stdin");
    let job: ChildJob = serde_json::from_str(&input).expect("a valid child job");
    let result = run_campaign(job.spec, job.trace);
    println!(
        "{}",
        serde_json::to_string(&result).expect("results serialize")
    );
}

/// Runs `spec` in a fresh process of this binary and waits for it.
pub fn spawn_campaign(spec: &CampaignSpec, trace: bool) -> Result<CampaignResult, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut child = Command::new(exe)
        .arg("--child-run")
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit())
        .spawn()
        .map_err(|e| format!("spawn a campaign process: {e}"))?;
    let job = ChildJob {
        spec: spec.clone(),
        trace,
    };
    let body = serde_json::to_string(&job).map_err(|e| e.to_string())?;
    {
        let mut stdin = child.stdin.take().expect("piped stdin");
        stdin
            .write_all(body.as_bytes())
            .map_err(|e| e.to_string())?;
    }
    let output = child.wait_with_output().map_err(|e| e.to_string())?;
    if !output.status.success() {
        return Err(format!("campaign process failed: {}", output.status));
    }
    let text = String::from_utf8_lossy(&output.stdout);
    let line = text.lines().last().unwrap_or_default();
    serde_json::from_str(line).map_err(|e| format!("campaign process output: {e}"))
}

/// Spawns a set-up process (`--child-setup <workload> <seed>`) and times
/// it from spawn to its `ready` line; the process then exits and is
/// waited for.
pub fn time_setup(workload: &str, seed: u64) -> Result<f64, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let started = Instant::now();
    let mut command = Command::new(exe);
    command
        .args(["--child-setup", workload, &seed.to_string()])
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit());
    let mut child = command
        .spawn()
        .map_err(|e| format!("spawn a set-up process: {e}"))?;
    let stdout = child.stdout.take().expect("piped stdout");
    let mut line = String::new();
    BufReader::new(stdout)
        .read_line(&mut line)
        .map_err(|e| e.to_string())?;
    let seconds = started.elapsed().as_secs_f64();
    let status = child.wait().map_err(|e| e.to_string())?;
    if line.trim() != "ready" || !status.success() {
        return Err(format!("set-up process failed: {status}"));
    }
    Ok(seconds)
}
