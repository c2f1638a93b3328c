//! `lintra-benchmark run --smoke --trace`: every workload, untraced and
//! traced, each in its own process with tiny stages. Checks that every
//! run is correct and reports exactly the declared metrics and units.

use std::path::Path;
use std::process::Command;
use std::time::{Duration, Instant};

use lintra_benchmark::adapter::Json;
use lintra_benchmark::report::{MetricDef, END_TO_END, PER_LAYER};

fn names_and_units(defs: &[MetricDef]) -> Vec<(String, String)> {
    defs.iter()
        .map(|d| (d.name.to_string(), d.unit.to_string()))
        .collect()
}

#[test]
fn a_smoke_run_of_every_workload_reports_every_declared_metric() {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join("smoke");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch directory");
    let start = Instant::now();
    let out = Command::new(env!("CARGO_BIN_EXE_lintra-benchmark"))
        .args(["run", "--smoke", "--trace", "--out", "results"])
        .current_dir(&dir)
        .output()
        .expect("the benchmark runs");
    let took = start.elapsed();
    assert!(
        out.status.success(),
        "smoke run failed:\n{}\n{}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(took < Duration::from_secs(10), "smoke run took {took:?}");

    for workload in [
        "paper_suite",
        "synth_egraph",
        "serve_light",
        "routed_replicated",
    ] {
        let text = std::fs::read_to_string(dir.join("results").join(format!("{workload}.jsonl")))
            .expect("one result file per workload");
        let runs: Vec<Json> = text
            .lines()
            .map(|l| Json::parse(l).expect("a JSON result line"))
            .collect();
        assert_eq!(runs.len(), 2, "{workload}: an untraced and a traced run");
        for run in runs {
            assert_eq!(run.get("correct"), Some(&Json::Bool(true)), "{workload}");
            assert_eq!(run.get("failed").and_then(Json::as_num), Some(0.0));
            assert!(run.get("attempted").and_then(Json::as_num) >= Some(1.0));
            let traced = run.get("trace") == Some(&Json::Bool(true));
            let Some(Json::Obj(metrics)) = run.get("metrics") else {
                panic!("{workload}: no metrics object");
            };
            let got: Vec<(String, String)> = metrics
                .iter()
                .map(|(k, v)| {
                    assert!(v.get("value").and_then(Json::as_num).is_some(), "{k}");
                    let unit = v.get("unit").and_then(Json::as_str).unwrap_or_default();
                    (k.clone(), unit.to_string())
                })
                .collect();
            let mut want = names_and_units(if traced { &PER_LAYER } else { &END_TO_END });
            want.sort();
            assert_eq!(got, want, "{workload} (traced: {traced})");
        }
    }
}
