//! The whole ledger: every workload in its own process, both passes,
//! one JSON; comparing two such files; and the determinism check.

use crate::json::J;
use crate::run::output_dir;
use crate::spec::{self, Better, END_TO_END, PER_LAYER, SCENARIOS};
use crate::stats::summarize;
use spores_telemetry::{parse_json, Json};
use std::path::{Path, PathBuf};
use std::process::Command;

fn to_j(json: &Json) -> J {
    match json {
        Json::Null => J::Null,
        Json::Bool(b) => J::Bool(*b),
        Json::Num(n) => J::Num(*n),
        Json::Str(s) => J::Str(s.clone()),
        Json::Arr(items) => J::Arr(items.iter().map(to_j).collect()),
        Json::Obj(fields) => J::Obj(fields.iter().map(|(k, v)| (k.clone(), to_j(v))).collect()),
    }
}

fn read_json(path: &Path) -> Result<Json, String> {
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("reading {}: {e}", path.display()))?;
    parse_json(&text).map_err(|e| format!("{}: {e}", path.display()))
}

/// Re-execute this binary for one workload and pass, so peak memory,
/// allocator state and telemetry globals are per workload. Waits for the
/// child; returns its detail file.
fn child_run(
    workload: &str,
    seed: u64,
    seconds: Option<f64>,
    trace: bool,
    smoke: bool,
    tag: &str,
) -> Result<Json, String> {
    let dir = output_dir();
    std::fs::create_dir_all(&dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    let detail = dir.join(format!("detail-{workload}-{tag}.json"));
    let exe = std::env::current_exe().map_err(|e| format!("locating the ledger binary: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload, "--seed", &seed.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .arg("--detail")
        .arg(&detail);
    if let Some(s) = seconds {
        cmd.args(["--seconds", &s.to_string()]);
    }
    if smoke {
        cmd.arg("--smoke");
    }
    let status = cmd
        .status()
        .map_err(|e| format!("starting the {workload} run: {e}"))?;
    // exit code 1 is a printed result with a wrong output; the detail
    // file says so and the caller decides
    if !matches!(status.code(), Some(0 | 1)) {
        return Err(format!("the {workload} run ended with {status}"));
    }
    read_json(&detail)
}

fn tool_version(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

fn constants(smoke: bool) -> J {
    let effort = spec::Effort::of(smoke);
    J::obj([
        ("run_seconds", J::Num(spec::RUN_SECONDS)),
        ("setup_reps", J::from(effort.setup_reps)),
        ("takes", J::from(effort.takes)),
        ("min_reps", J::from(effort.min_reps)),
        ("min_requests", J::from(effort.min_requests)),
        ("ledger_runs", J::from(effort.ledger_runs)),
        ("clients", J::from(spec::clients())),
        ("service_workers", J::from(spec::SERVICE_WORKERS)),
        (
            "pool_sparsities",
            J::Arr(spec::POOL_SPARSITIES.iter().map(|&s| J::Num(s)).collect()),
        ),
        ("scalar_tolerance", J::Num(spec::SCALAR_TOL)),
        ("ilp_seconds", J::Num(effort.ilp_limit.as_secs_f64())),
        (
            "workloads",
            J::Arr(
                SCENARIOS
                    .iter()
                    .map(|s| {
                        J::obj([
                            ("name", J::str(s.name)),
                            ("program_share", J::Num(s.program_share)),
                            ("capacity", J::from(s.capacity)),
                            ("shards", J::from(s.shards)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

/// On a host where search ran on one thread, `pool.search_speedup`
/// compares serial with serial; the ledger leaves the row out and says
/// why instead of recording a misleading scaling result.
fn without_misleading_scaling(detail: &Json) -> J {
    let mut doc = to_j(detail);
    let threads = detail
        .get("metrics")
        .and_then(|m| m.get("pool.threads"))
        .and_then(|m| m.get("value"))
        .and_then(Json::as_f64)
        .unwrap_or(0.0);
    if threads < 2.0 {
        if let J::Obj(fields) = &mut doc {
            if let Some((_, J::Obj(metrics))) = fields.iter_mut().find(|(key, _)| key == "metrics")
            {
                metrics.retain(|(name, _)| name != "pool.search_speedup");
            }
        }
        println!("ledger: pool.search_speedup omitted: search ran on {threads} thread(s), so there is no scaling to report");
    }
    doc
}

/// The end-to-end pass of one workload, several times in fresh processes
/// of one seed. A metric's value is the median over the runs, and its
/// quartiles over the runs are the run-to-run spread `compare` applies
/// the bounds to.
fn end_to_end_runs(
    workload: &str,
    seed: u64,
    seconds: Option<f64>,
    smoke: bool,
) -> Result<(J, bool), String> {
    let runs = (0..spec::Effort::of(smoke).ledger_runs)
        .map(|run| child_run(workload, seed, seconds, false, smoke, &format!("e2e-{run}")))
        .collect::<Result<Vec<Json>, String>>()?;
    let total = |key: &str| -> f64 { runs.iter().filter_map(|r| num(r, key)).sum() };
    let metrics = END_TO_END.iter().map(|m| {
        let samples: Vec<f64> = runs
            .iter()
            .filter_map(|r| num(r.get("metrics")?.get(m.name)?, "value"))
            .collect();
        if samples.len() != runs.len() {
            return Err(format!("{workload}: a run did not report {}", m.name));
        }
        let s = summarize(&samples);
        Ok((
            m.name,
            J::obj([
                ("value", J::Num(s.median)),
                ("unit", J::str(m.unit)),
                ("median", J::Num(s.median)),
                ("q1", J::Num(s.q1)),
                ("q3", J::Num(s.q3)),
                ("n", J::from(s.n)),
                ("samples", J::Arr(samples.into_iter().map(J::Num).collect())),
            ]),
        ))
    });
    let doc = J::obj([
        ("runs", J::from(runs.len())),
        ("attempted", J::Num(total("attempted"))),
        ("failed", J::Num(total("failed"))),
        ("wrong_outputs", J::Num(total("wrong_outputs"))),
        (
            "metrics",
            J::obj(metrics.collect::<Result<Vec<_>, String>>()?),
        ),
        ("info", runs[0].get("info").map_or(J::Null, to_j)),
    ]);
    Ok((doc, total("wrong_outputs") == 0.0))
}

/// Run every workload, the end-to-end pass and the traced pass, each in
/// a fresh process; write one JSON. Returns whether every output was right.
pub fn all(
    seed: u64,
    seconds: Option<f64>,
    smoke: bool,
    out: Option<PathBuf>,
) -> Result<bool, String> {
    let mut correct = true;
    let mut workloads = Vec::new();
    for scenario in SCENARIOS {
        let (end_to_end, right) = end_to_end_runs(scenario.name, seed, seconds, smoke)?;
        let per_layer = child_run(scenario.name, seed, seconds, true, smoke, "layers")?;
        correct &= right && num(&per_layer, "wrong_outputs") == Some(0.0);
        workloads.push((
            scenario.name,
            J::obj([
                ("why", J::str(scenario.why)),
                ("end_to_end", end_to_end),
                ("per_layer", without_misleading_scaling(&per_layer)),
            ]),
        ));
    }
    let doc = J::obj([
        ("schema", J::str("spores-ledger/2")),
        ("seed", J::from(seed)),
        ("smoke", J::Bool(smoke)),
        ("host_cores", J::from(spec::host_cores())),
        (
            "commit",
            J::str(tool_version("git", &["rev-parse", "HEAD"])),
        ),
        ("rustc", J::str(tool_version("rustc", &["-V"]))),
        ("constants", constants(smoke)),
        ("workloads", J::obj(workloads)),
    ]);
    let path = out.unwrap_or_else(|| output_dir().join("ledger.json"));
    std::fs::write(&path, doc.pretty()).map_err(|e| format!("writing {}: {e}", path.display()))?;
    println!("ledger: wrote {}", path.display());
    Ok(correct)
}

fn metric<'a>(doc: &'a Json, workload: &str, pass: &str, name: &str) -> Option<&'a Json> {
    doc.get("workloads")?
        .get(workload)?
        .get(pass)?
        .get("metrics")?
        .get(name)
}

fn num(json: &Json, key: &str) -> Option<f64> {
    json.get(key).and_then(Json::as_f64)
}

/// How one (metric, workload) pair of ledger `b` stands against ledger
/// `a`, worst last.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Verdict {
    Ok,
    /// The run-to-run spread of one of the two values exceeds the bound
    /// (or was not measured), so the pair cannot be called unchanged.
    Unresolved,
    Regressed,
}

impl Verdict {
    fn as_str(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Unresolved => "unresolved",
            Verdict::Regressed => "regressed",
        }
    }
}

/// `a` and `b` are `(value, spread)`; `worse_by` is the share of `a`'s
/// value by which `b` is worse.
pub fn judge(better: Better, bound: f64, a: (f64, f64), b: (f64, f64)) -> (Verdict, f64) {
    let worse_by = match better {
        Better::Lower => (b.0 - a.0) / a.0.abs(),
        Better::Higher => (a.0 - b.0) / a.0.abs(),
    };
    let verdict = if a.1.max(b.1) > bound {
        Verdict::Unresolved
    } else if worse_by > bound {
        Verdict::Regressed
    } else {
        Verdict::Ok
    };
    (verdict, worse_by)
}

/// A metric's value and its run-to-run spread: the quartile distance of
/// its samples as a share of their median. A time taken once has no
/// measured spread, which no bound admits; a count needs none.
fn value_and_spread(m: &Json, unit: &str) -> Option<(f64, f64)> {
    let value = num(m, "value")?;
    let spread = match (num(m, "q1"), num(m, "q3"), num(m, "median"), num(m, "n")) {
        (Some(q1), Some(q3), Some(median), Some(n)) if median != 0.0 && n >= 2.0 => {
            (q3 - q1) / median.abs()
        }
        _ if unit == "count" => 0.0,
        _ => f64::INFINITY,
    };
    Some((value, spread))
}

/// Apply each end-to-end metric's bound per workload: one row per
/// (metric, workload). When both files are of one seed, the exact
/// metrics must also be identical (a difference is a regression).
/// Returns the worst verdict.
pub fn compare(a_path: &Path, b_path: &Path) -> Result<Verdict, String> {
    let (a, b) = (read_json(a_path)?, read_json(b_path)?);
    let same_seed = num(&a, "seed").is_some() && num(&a, "seed") == num(&b, "seed");
    let mut worst = Verdict::Ok;
    println!(
        "{:<22} {:<13} {:>14} {:>14} {:>9} {:>7} {:>8}  verdict",
        "metric", "workload", "a", "b", "worse by", "bound", "spread"
    );
    for spec in END_TO_END {
        for scenario in SCENARIOS {
            let read = |doc: &Json| {
                metric(doc, scenario.name, "end_to_end", spec.name)
                    .and_then(|m| value_and_spread(m, spec.unit))
            };
            let (Some(ma), Some(mb)) = (read(&a), read(&b)) else {
                return Err(format!(
                    "{} of {} is missing from one file",
                    spec.name, scenario.name
                ));
            };
            let (verdict, worse_by) = judge(spec.better, spec.bound, ma, mb);
            worst = worst.max(verdict);
            println!(
                "{:<22} {:<13} {:>14.4} {:>14.4} {:>8.1}% {:>6.0}% {:>7.1}%  {}",
                spec.name,
                scenario.name,
                ma.0,
                mb.0,
                worse_by * 100.0,
                spec.bound * 100.0,
                ma.1.max(mb.1) * 100.0,
                verdict.as_str()
            );
        }
    }
    if same_seed {
        let exact = PER_LAYER
            .iter()
            .filter(|m| m.exact)
            .map(|m| ("per_layer", m.name));
        for (pass, name) in exact.chain([("end_to_end", "exec_flops")]) {
            for scenario in SCENARIOS {
                let va = metric(&a, scenario.name, pass, name).and_then(|m| num(m, "value"));
                let vb = metric(&b, scenario.name, pass, name).and_then(|m| num(m, "value"));
                if va != vb {
                    worst = Verdict::Regressed;
                    println!(
                        "{name:<22} {:<13} {va:?} != {vb:?}  differs (exact metric, same seed)",
                        scenario.name
                    );
                }
            }
        }
        println!("exact metrics compared (same seed)");
    }
    println!("worst verdict: {}", worst.as_str());
    Ok(worst)
}

/// Compile every workload's programs twice in fresh processes (two
/// traced passes of one seed) and require the exact metrics, the flops
/// of the plans and the plan text to be bit-identical.
pub fn check_determinism(seed: u64, smoke: bool) -> Result<bool, String> {
    let mut identical = true;
    for scenario in SCENARIOS {
        let first = child_run(scenario.name, seed, Some(0.0), true, smoke, "det-a")?;
        let second = child_run(scenario.name, seed, Some(0.0), true, smoke, "det-b")?;
        let value = |doc: &Json, name: &str| {
            doc.get("metrics")
                .and_then(|m| m.get(name))
                .and_then(|m| num(m, "value"))
        };
        let exact = PER_LAYER.iter().filter(|m| m.exact).map(|m| m.name);
        for name in exact.chain(["exec.flops"]) {
            let (va, vb) = (value(&first, name), value(&second, name));
            if va.is_none() || va != vb {
                identical = false;
                println!(
                    "ledger: {} {name} does not repeat: {va:?} vs {vb:?}",
                    scenario.name
                );
            }
        }
        let plans = |doc: &Json| doc.get("info").and_then(|i| i.get("plans")).cloned();
        if plans(&first).is_none() || plans(&first) != plans(&second) {
            identical = false;
            println!("ledger: {} plan text does not repeat", scenario.name);
        }
    }
    println!(
        "ledger: exact metrics and plans {}",
        if identical {
            "repeat bit-identically"
        } else {
            "DO NOT repeat"
        }
    );
    Ok(identical)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bounds_apply_in_the_metric_s_direction() {
        // lower is better: 8% slower is inside a 10% bound, 12% is not
        assert_eq!(
            judge(Better::Lower, 0.10, (100.0, 0.01), (108.0, 0.01)).0,
            Verdict::Ok
        );
        assert_eq!(
            judge(Better::Lower, 0.10, (100.0, 0.01), (112.0, 0.01)).0,
            Verdict::Regressed
        );
        assert_eq!(
            judge(Better::Lower, 0.10, (100.0, 0.01), (50.0, 0.01)).0,
            Verdict::Ok
        );
        // higher is better
        assert_eq!(
            judge(Better::Higher, 0.10, (20.0, 0.0), (17.0, 0.0)).0,
            Verdict::Regressed
        );
        assert_eq!(
            judge(Better::Higher, 0.10, (20.0, 0.0), (25.0, 0.0)).0,
            Verdict::Ok
        );
        let (_, worse_by) = judge(Better::Higher, 0.10, (20.0, 0.0), (17.0, 0.0));
        assert!((worse_by - 0.15).abs() < 1e-12);
    }

    #[test]
    fn a_spread_wider_than_the_bound_is_unresolved() {
        assert_eq!(
            judge(Better::Lower, 0.10, (100.0, 0.2), (100.0, 0.01)).0,
            Verdict::Unresolved
        );
        assert_eq!(
            judge(Better::Lower, 0.10, (100.0, 0.0), (150.0, 0.3)).0,
            Verdict::Unresolved
        );
    }

    #[test]
    fn spread_is_the_raw_quartile_distance_and_one_timing_has_none() {
        let m = |q1: f64, q3: f64, n: usize| {
            let doc = J::obj([
                ("value", J::Num(100.0)),
                ("median", J::Num(100.0)),
                ("q1", J::Num(q1)),
                ("q3", J::Num(q3)),
                ("n", J::from(n)),
            ]);
            parse_json(&doc.render()).unwrap()
        };
        assert_eq!(
            value_and_spread(&m(90.0, 112.0, 5), "ms"),
            Some((100.0, 0.22))
        );
        assert_eq!(
            value_and_spread(&m(100.0, 100.0, 1), "ms"),
            Some((100.0, f64::INFINITY))
        );
        assert_eq!(
            value_and_spread(&m(100.0, 100.0, 1), "count"),
            Some((100.0, 0.0))
        );
    }

    #[test]
    fn compare_reads_two_ledger_files() {
        let dir = output_dir().join(format!("compare-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let file = |name: &str, compile_ms: f64, n: usize| {
            let metrics = J::obj(END_TO_END.iter().map(|m| {
                let v = if m.name == "compile_ms" {
                    compile_ms
                } else {
                    10.0
                };
                (
                    m.name,
                    J::obj([
                        ("value", J::Num(v)),
                        ("median", J::Num(v)),
                        ("q1", J::Num(v * 0.99)),
                        ("q3", J::Num(v * 1.01)),
                        ("n", J::from(n)),
                    ]),
                )
            }));
            let workloads = J::obj(SCENARIOS.iter().map(|s| {
                (
                    s.name,
                    J::obj([("end_to_end", J::obj([("metrics", metrics.clone())]))]),
                )
            }));
            let path = dir.join(name);
            std::fs::write(&path, J::obj([("workloads", workloads)]).pretty()).unwrap();
            path
        };
        let a = file("a.json", 100.0, 5);
        assert_eq!(compare(&a, &a), Ok(Verdict::Ok));
        assert_eq!(
            compare(&a, &file("b.json", 140.0, 5)),
            Ok(Verdict::Regressed)
        );
        assert_eq!(compare(&a, &file("c.json", 90.0, 5)), Ok(Verdict::Ok));
        // one run per workload: no spread was measured
        assert_eq!(
            compare(&a, &file("d.json", 100.0, 1)),
            Ok(Verdict::Unresolved)
        );
        assert!(compare(&a, &dir.join("missing.json")).is_err());
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
