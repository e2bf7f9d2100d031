//! The program phase: compile each program with SPORES, run the plan,
//! run SystemML's `opt2` plan, and check every scalar against an
//! independent reference.

use crate::spec::{CompilePath, Scenario, SCALAR_TOL};
use crate::stats::ms;
use spores_ir::Symbol;
use spores_ml::runner::{
    compile, compile_workload, execute, execute_workload, CompileReport, Compiled, Mode, RunReport,
};
use spores_ml::workloads::Workload;
use std::collections::HashMap;
use std::time::{Duration, Instant};

/// One program ready to be measured.
pub struct ProgramSetup {
    pub workload: Workload,
    /// SystemML level 2: the denominator of `exec_speedup_vs_opt2`.
    pub opt2: Compiled,
    /// Final scalars of the unoptimized statements, run without fusion:
    /// no optimizer and no rewriter has touched this plan.
    pub reference: HashMap<Symbol, f64>,
}

/// Generate the data, compile the `opt2` baseline and run the reference.
pub fn setup_program(workload: Workload) -> Result<ProgramSetup, String> {
    let opt2 = compile(&workload, &Mode::Opt2);
    let (arena, roots) = workload.parse();
    let unoptimized = Compiled {
        statements: roots
            .into_iter()
            .map(|(target, root)| (target, arena.clone(), root))
            .collect(),
        report: CompileReport::default(),
    };
    let reference = execute(&workload, &unoptimized, &Mode::Base)
        .map_err(|e| format!("{} reference run: {e}", workload.name))?
        .scalars;
    if reference.is_empty() {
        return Err(format!("{} tracks no scalar to check", workload.name));
    }
    Ok(ProgramSetup {
        workload,
        opt2,
        reference,
    })
}

/// Whether a scalar agrees with its reference value (a NaN never does).
fn agrees(got: f64, want: f64) -> bool {
    (got - want).abs() <= SCALAR_TOL * (1.0 + want.abs())
}

/// Scalars of `run` that differ from the reference (missing ones count).
pub fn wrong_scalars(setup: &ProgramSetup, run: &RunReport) -> u64 {
    setup
        .reference
        .iter()
        .filter(|(name, &want)| !run.scalars.get(name).is_some_and(|&got| agrees(got, want)))
        .count() as u64
}

/// A compiled SPORES plan of either entry point.
pub enum Plan {
    PerStatement(Compiled),
    Workload(spores_ml::runner::WorkloadCompiled),
}

impl Plan {
    pub fn timed_out(&self) -> bool {
        match self {
            Plan::PerStatement(c) => c.report.timed_out,
            Plan::Workload(c) => c.report.timed_out,
        }
    }

    /// The plan of every statement as text, in program order.
    pub fn text(&self) -> Vec<String> {
        match self {
            Plan::PerStatement(c) => c
                .statements
                .iter()
                .map(|(_, arena, root)| arena.display(*root))
                .collect(),
            Plan::Workload(c) => c
                .roots
                .iter()
                .map(|&(_, root)| c.arena.display(root))
                .collect(),
        }
    }
}

pub fn compile_spores(workload: &Workload, path: CompilePath) -> Plan {
    match path {
        CompilePath::PerStatement => Plan::PerStatement(compile(workload, &Mode::spores())),
        CompilePath::WorkloadMode => Plan::Workload(compile_workload(workload)),
    }
}

pub fn execute_spores(workload: &Workload, plan: &Plan) -> Result<RunReport, String> {
    match plan {
        Plan::PerStatement(c) => execute(workload, c, &Mode::spores()),
        Plan::Workload(c) => execute_workload(workload, c),
    }
    .map_err(|e| format!("{}: {e}", workload.name))
}

/// The other entry point (recorded as `ml.altpath_*`).
pub fn other_path(path: CompilePath) -> CompilePath {
    match path {
        CompilePath::PerStatement => CompilePath::WorkloadMode,
        CompilePath::WorkloadMode => CompilePath::PerStatement,
    }
}

/// Operations attempted and failed, and outputs that were wrong.
#[derive(Clone, Copy, Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub wrong_outputs: u64,
}

impl Tally {
    pub fn add(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.wrong_outputs += other.wrong_outputs;
    }
}

/// One rep over all programs of the scenario: SPORES compile → SPORES
/// execute → `opt2` execute back to back, so drift hits both sides of
/// the ratio. Times are summed over the programs.
#[derive(Clone, Debug, Default)]
pub struct Rep {
    pub compile_ms: f64,
    pub exec_ms: f64,
    pub opt2_ms: f64,
    pub flops: u64,
    pub tally: Tally,
}

pub fn run_rep(scenario: &Scenario, programs: &[ProgramSetup]) -> Rep {
    let mut rep = Rep::default();
    for setup in programs {
        let w = &setup.workload;
        let t0 = Instant::now();
        let plan = compile_spores(w, scenario.path);
        rep.compile_ms += ms(t0.elapsed());
        // one compile, two executions
        rep.tally.attempted += 3;
        // a compile that ran into its time limit did not decide its input
        rep.tally.failed += u64::from(plan.timed_out());

        let spores = execute_spores(w, &plan);
        let opt2 = execute(w, &setup.opt2, &Mode::Opt2).map_err(|e| format!("{}: {e}", w.name));
        for (run, total_ms) in [(&spores, &mut rep.exec_ms), (&opt2, &mut rep.opt2_ms)] {
            match run {
                Ok(run) => {
                    *total_ms += ms(run.exec_time);
                    rep.tally.wrong_outputs += wrong_scalars(setup, run);
                }
                Err(e) => {
                    eprintln!("ledger: execute failed: {e}");
                    rep.tally.failed += 1;
                }
            }
        }
        rep.flops += spores.map_or(0, |run| run.stats.flops);
    }
    rep
}

/// Peak resident memory of this process in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|rest| {
                    rest.trim()
                        .trim_end_matches("kB")
                        .trim()
                        .parse::<f64>()
                        .ok()
                })
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Restart the kernel's peak-memory watermark at the current resident
/// size, so the next [`peak_rss_mb`] reports the peak of what runs in
/// between rather than of the set-up's reference runs. Where the kernel
/// refuses, the watermark stays that of the whole process.
pub fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// One discarded warm-up rep, then timed reps until `budget` is used up
/// and `min_reps` are made.
pub fn program_phase(
    scenario: &Scenario,
    programs: &[ProgramSetup],
    budget: Duration,
    min_reps: usize,
) -> Vec<Rep> {
    let start = Instant::now();
    run_rep(scenario, programs);
    let mut reps: Vec<Rep> = Vec::new();
    loop {
        let rep_start = Instant::now();
        reps.push(run_rep(scenario, programs));
        if reps.len() >= min_reps && start.elapsed() + rep_start.elapsed() > budget {
            return reps;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::SCENARIOS;

    #[test]
    fn scalars_are_checked_against_the_unoptimized_reference() {
        let setup = setup_program(SCENARIOS[0].pool[0].build(3, false)).expect("set-up");
        let plan = compile_spores(&setup.workload, CompilePath::PerStatement);
        let mut run = execute_spores(&setup.workload, &plan).expect("runs");
        assert_eq!(wrong_scalars(&setup, &run), 0);
        let loss = *run.scalars.keys().next().expect("ALS tracks its loss");
        run.scalars.insert(loss, f64::NAN);
        assert_eq!(wrong_scalars(&setup, &run), 1, "a NaN is a wrong output");
        run.scalars.clear();
        assert_eq!(
            wrong_scalars(&setup, &run),
            1,
            "a missing scalar is a wrong output"
        );
        assert!(agrees(100.0005, 100.0) && !agrees(100.01, 100.0));
    }
}
