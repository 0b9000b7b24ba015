//! `perfbench --workload <grid|explore|serve> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints one metadata line and then, as its last line, the result:
//! `{"correct":…,"attempted":…,"failed":…,"metrics":{name:{"value":…,"unit":…}}}`
//! with every end-to-end metric (`--trace 0`) or every per-layer metric
//! (`--trace 1`). Exits non-zero when any output was wrong.

use csi_perfbench::run::{self, Args};
use csi_perfbench::workload::Workload;

fn usage() -> ! {
    eprintln!(
        "usage: perfbench --workload <grid|explore|serve> --seed <n> --seconds <s> --trace <0|1>"
    );
    std::process::exit(2);
}

fn parse_args(argv: &[String]) -> Option<Args> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next()?;
        match flag.as_str() {
            "--workload" => workload = Workload::parse(value),
            "--seed" => seed = value.parse::<u64>().ok(),
            "--seconds" => {
                seconds = value
                    .parse::<f64>()
                    .ok()
                    .filter(|s| *s > 0.0 && *s <= 600.0)
            }
            "--trace" => trace = matches!(value.as_str(), "0" | "1").then(|| value == "1"),
            _ => return None,
        }
    }
    Some(Args {
        workload: workload?,
        seed: seed?,
        seconds: seconds?,
        trace: trace?,
    })
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match argv.first().map(String::as_str) {
        Some("--child-run") => return csi_perfbench::batch::child_main(),
        Some("--child-setup") => {
            let workload = argv.get(1).and_then(|w| Workload::parse(w));
            let seed = argv.get(2).and_then(|s| s.parse().ok());
            let (Some(workload), Some(seed)) = (workload, seed) else {
                usage()
            };
            return run::child_setup(workload, seed);
        }
        _ => {}
    }
    let args = parse_args(&argv).unwrap_or_else(|| usage());
    let report = run::run(&args);
    println!("{{\"meta\":{}}}", report.meta);
    println!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        report.correct,
        report.attempted,
        report.failed,
        run::render_metrics(&report.metrics)
    );
    if !report.correct {
        std::process::exit(1);
    }
}
