//! Runs the whole ledger at smoke size (data ÷ 10, two reps, 250
//! requests per client, one run per workload) and checks that every metric `BENCHMARK.json`
//! names is measured on every workload and that no output was wrong.

use spores_telemetry::{parse_json, Json};
use std::path::PathBuf;
use std::process::Command;

fn names(doc: &Json, section: &str) -> Vec<String> {
    doc.get(section)
        .and_then(Json::as_arr)
        .unwrap_or_else(|| panic!("BENCHMARK.json has no {section}"))
        .iter()
        .map(|m| {
            m.get("name")
                .and_then(Json::as_str)
                .expect("name")
                .to_string()
        })
        .collect()
}

#[test]
fn smoke_ledger_measures_every_metric_of_the_benchmark() {
    let manifest = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    let out = PathBuf::from(env!("CARGO_BIN_EXE_ledger"))
        .with_file_name(format!("ledger-smoke-{}.json", std::process::id()));
    let status = Command::new(env!("CARGO_BIN_EXE_ledger"))
        .args(["--smoke", "--seed", "5", "--out"])
        .arg(&out)
        .status()
        .expect("ledger starts");
    assert!(status.success(), "ledger --smoke ended with {status}");

    let read = |path: &PathBuf| {
        parse_json(&std::fs::read_to_string(path).expect("readable")).expect("json")
    };
    let benchmark = read(&manifest.join("../BENCHMARK.json"));
    let ledger = read(&out);
    std::fs::remove_file(&out).expect("result file removed");

    let searched_in_parallel = ledger
        .get("host_cores")
        .and_then(Json::as_f64)
        .expect("host_cores")
        >= 2.0;
    for workload in names(&benchmark, "workloads") {
        let run = ledger
            .get("workloads")
            .and_then(|w| w.get(&workload))
            .unwrap_or_else(|| panic!("{workload} missing from the ledger"));
        for (section, pass) in [("end_to_end", "end_to_end"), ("per_layer", "per_layer")] {
            let pass = run.get(pass).expect("pass present");
            assert_eq!(
                pass.get("wrong_outputs").and_then(Json::as_f64),
                Some(0.0),
                "{workload}: wrong outputs"
            );
            assert_eq!(
                pass.get("failed").and_then(Json::as_f64),
                Some(0.0),
                "{workload}: failed operations"
            );
            for metric in names(&benchmark, section) {
                // left out, with a printed reason, where search ran on one thread
                if metric == "pool.search_speedup" && !searched_in_parallel {
                    continue;
                }
                let value = pass
                    .get("metrics")
                    .and_then(|m| m.get(&metric))
                    .and_then(|m| m.get("value"))
                    .and_then(Json::as_f64);
                assert!(value.is_some(), "{workload}: {metric} is not in the output");
            }
        }
    }
}
