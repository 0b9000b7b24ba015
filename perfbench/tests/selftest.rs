//! Self-test of the benchmark: every workload, at smoke size, run twice
//! with one seed, must pass its own correctness gate and report the same
//! correctness digest and deterministic counters both times.

use std::process::Command;

fn run(workload: &str) -> (String, String) {
    let output = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args([
            "--workload",
            workload,
            "--seed",
            "3",
            "--seconds",
            "2",
            "--trace",
            "1",
        ])
        .current_dir(env!("CARGO_TARGET_TMPDIR"))
        .output()
        .expect("the benchmark binary runs");
    let stdout = String::from_utf8(output.stdout).expect("utf-8 output");
    assert!(output.status.success(), "{workload} failed:\n{stdout}");
    let lines: Vec<&str> = stdout.lines().collect();
    assert!(lines.len() >= 2, "{workload} printed too little:\n{stdout}");
    let result = lines[lines.len() - 1];
    assert!(result.starts_with("{\"correct\":true,"), "{result}");
    for (name, _) in csi_perfbench::PER_LAYER {
        assert!(
            result.contains(&format!("\"{name}\":{{")),
            "{workload} lacks {name}"
        );
    }
    let meta = lines[lines.len() - 2];
    let counters = meta
        .split("\"counters\":")
        .nth(1)
        .expect("meta carries counters")
        .to_string();
    (meta.to_string(), counters)
}

#[test]
fn every_workload_repeats_its_digests_and_counters_at_smoke_size() {
    // One test, so the runs never compete for the cores with each other.
    for workload in ["grid", "explore", "serve"] {
        let (meta, first) = run(workload);
        let (_, second) = run(workload);
        assert_eq!(first, second, "{workload} counters differ between runs");
        assert!(meta.contains("\"replay_mismatches\":0"), "{meta}");
        assert!(first.contains("\"replay.cells\":"), "{first}");
    }
}
