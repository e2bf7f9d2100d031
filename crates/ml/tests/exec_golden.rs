//! Golden execution results of the five §4.2 workloads at small sizes.
//!
//! The lines below were recorded at the commit *before* the executor
//! stopped deep-copying values (PR 12): how values travel through the
//! interpreter must change neither a counter nor a bit of any result.
//! Each line is `workload/mode`, the kernel counters of `ExecStats` and
//! the IEEE-754 bits of every final scalar. The `ALS/S+greedy` and
//! `ALS/workload` counters were re-recorded when translation became
//! capture-free and ALS's gradients stopped building `U %*% t(V)`; their
//! `loss` bits did not change. The `GLM/S+greedy` `obj` bits were
//! re-recorded when each rule's search began to stop at its match cap:
//! its plan is another of the same cost, whose sums round one ulp
//! differently (`…a7fc` → `…a7fd`, the `GLM/workload` value); every
//! counter stayed.
//!
//! What did change is checked on the same runs: no workload, under any
//! mode, makes the executor copy a single cell (`cells_copied`).

use spores_ml::workloads::{self, Workload};
use spores_ml::{compile, compile_workload, execute, execute_workload, Mode, RunReport};

const GOLDEN: &[&str] = &[
    "ALS/base flops=329262 cells=56643 intermediates=57 fused=0 loss=40a596fd1f03da56",
    "ALS/opt2 flops=329190 cells=35040 intermediates=45 fused=3 loss=40a596fd1f03da56",
    "ALS/S+greedy flops=164235 cells=38205 intermediates=87 fused=6 loss=40a596fd1f03da5b",
    "ALS/workload flops=98715 cells=23085 intermediates=78 fused=6 loss=40a596fd1f03da5b",
    "GLM/base flops=1833 cells=1488 intermediates=48 fused=3 obj=4033e82e0cf1a7ff",
    "GLM/opt2 flops=1833 cells=1488 intermediates=48 fused=3 obj=4033e82e0cf1a7ff",
    "GLM/S+greedy flops=1935 cells=1641 intermediates=72 fused=3 obj=4033e82e0cf1a7fd",
    "GLM/workload flops=1935 cells=1641 intermediates=72 fused=3 obj=4033e82e0cf1a7fd",
    "SVM/base flops=1860 cells=2211 intermediates=60 fused=0 obj=404385c7090a169d",
    "SVM/opt2 flops=1860 cells=2211 intermediates=60 fused=0 obj=404385c7090a169d",
    "SVM/S+greedy flops=2100 cells=2451 intermediates=63 fused=0 obj=404385c7090a169d",
    "SVM/workload flops=1860 cells=2211 intermediates=60 fused=0 obj=404385c7090a169d",
    "MLR/base flops=1845 cells=1767 intermediates=48 fused=3 obj=403404f54d337b4c",
    "MLR/opt2 flops=1845 cells=1767 intermediates=48 fused=3 obj=403404f54d337b4c",
    "MLR/S+greedy flops=1743 cells=1590 intermediates=63 fused=3 obj=403404f54d337b4e",
    "MLR/workload flops=1719 cells=1542 intermediates=60 fused=3 obj=403404f54d337b4e",
    "PNMF/base flops=160182 cells=28737 intermediates=66 fused=0 obj=405126d6bacf3317",
    "PNMF/opt2 flops=59622 cells=10614 intermediates=51 fused=9 obj=405126d6bacf3317",
    "PNMF/S+greedy flops=6372 cells=4686 intermediates=66 fused=9 obj=405126d6bacf3317",
    "PNMF/workload flops=5892 cells=4674 intermediates=63 fused=9 obj=405126d6bacf3317",
];

/// The `workload/mode` a line starts with.
fn key(line: &str) -> Option<&str> {
    line.split(' ').next()
}

fn line(w: &Workload, report: &RunReport) -> String {
    let s = &report.stats;
    let mut scalars: Vec<String> = report
        .scalars
        .iter()
        .map(|(name, v)| format!("{name}={:016x}", v.to_bits()))
        .collect();
    scalars.sort();
    format!(
        "{}/{} flops={} cells={} intermediates={} fused={} {}",
        w.name,
        report.mode,
        s.flops,
        s.cells_allocated,
        s.intermediates,
        s.fused_ops,
        scalars.join(" ")
    )
}

#[test]
fn runs_repeat_the_recorded_results_and_copy_nothing() {
    let mut got = Vec::new();
    // a saturation cut short by the wall clock (a loaded host running a
    // debug build) may extract a different plan: not comparable
    let mut check = |w: &Workload, timed_out: bool, report: RunReport| {
        assert_eq!(
            report.stats.cells_copied, 0,
            "{}/{}: the executor copied a value",
            w.name, report.mode
        );
        if !timed_out {
            got.push(line(w, &report));
        }
    };
    for w in [
        workloads::als(60, 40, 4, 11),
        workloads::glm(80, 12, 12),
        workloads::svm(80, 12, 13),
        workloads::mlr(80, 10, 14),
        workloads::pnmf(50, 40, 4, 15),
    ] {
        for mode in [Mode::Base, Mode::Opt2, Mode::spores()] {
            let compiled = compile(&w, &mode);
            let report = execute(&w, &compiled, &mode).expect("runs");
            check(&w, compiled.report.timed_out, report);
        }
        let compiled = compile_workload(&w);
        let report = execute_workload(&w, &compiled).expect("runs");
        check(&w, compiled.report.timed_out, report);
    }
    for g in &got {
        let want = GOLDEN.iter().find(|w| key(w) == key(g));
        assert_eq!(
            want,
            Some(&g.as_str()),
            "recorded result differs; this run:\n{}",
            got.join("\n")
        );
    }
    assert!(
        got.len() >= 10,
        "the heuristic modes never time out and must be compared"
    );
}
