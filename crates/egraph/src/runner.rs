//! The saturation driver.
//!
//! Implements the match-and-insert loop of Figure 8 with two application
//! strategies from §3.1:
//!
//! * **depth-first** — apply *every* match of every rule each iteration
//!   (the strategy that blows up on AC rules and times out on GLM/SVM in
//!   the paper's Figure 16), and
//! * **sampling** — cap the number of matches applied per rule per
//!   iteration, sampling uniformly, which "encourages each rule to be
//!   considered equally often and prevents any single rule from exploding
//!   the graph". A rule's search stops once it has found that many
//!   matches, so e-matching costs what the sampler applies, not what
//!   the graph holds.
//!
//! How often a rule is *searched* is paced by one fixed policy — the
//! backoff ladder and the region-freeze threshold below are constants,
//! the values every recorded measurement was taken with.

use crate::analysis::Analysis;
use crate::egraph::EGraph;
use crate::hash::{FxHashMap, FxHashSet};
use crate::language::{Id, Language, RecExpr};
use crate::pattern::{SearchMatches, Subst};
use crate::relational::MatchingMode;
use crate::rewrite::Rewrite;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use spores_telemetry::Counter;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Match application strategy (§3.1 "Dealing with Expansive Rules").
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Scheduler {
    /// Apply all matches of all rules every iteration.
    DepthFirst,
    /// Apply at most `match_limit` sampled matches per rule per iteration.
    /// A rule's search visits its candidates in an order shuffled per
    /// (seed, iteration, rule name) and stops at the first chunk
    /// boundary where it holds `match_limit` matches (per anchor region
    /// in workload mode), so the search finds about what the sampler
    /// applies instead of every match. The iteration after a
    /// zero-union iteration of a partial view searches exhaustively:
    /// a run only stops as [`StopReason::Saturated`] on an iteration
    /// that searched every candidate.
    Sampling { match_limit: usize, seed: u64 },
}

impl Default for Scheduler {
    fn default() -> Self {
        Scheduler::Sampling {
            match_limit: 40,
            seed: 0xC0FFEE,
        }
    }
}

/// Per-rule backoff: AC rules keep re-finding the same matches long
/// after they stop producing unions, and searching them every iteration
/// is pure overhead. A rule that matched without contributing a union
/// for this many consecutive iterations is muted — its search is
/// skipped entirely — then re-admitted.
///
/// Muting never changes the fixpoint: a zero-union iteration only counts
/// as saturation when no rule is muted; otherwise every rule is
/// re-admitted and the iteration retried (see [`StopReason::Saturated`]).
const FRUITLESS_THRESHOLD: usize = 3;
/// Iterations a rule's first mute lasts. A rule that resumes its
/// fruitless streak after re-admission sits out twice as long each
/// time, so persistently useless rules converge to one probe per
/// [`MAX_MUTE_ITERS`] window.
const BASE_MUTE_ITERS: usize = 4;
/// Cap on the doubling mute length.
const MAX_MUTE_ITERS: usize = 64;
/// Consecutive iterations a region's reachable set must stay free of
/// dirty classes before the region is frozen (see [`RegionConfig`]).
const QUIET_ITERS: usize = 2;

/// Mute length for a rule's `streak`-th consecutive fruitless streak.
fn mute_len(streak: u32) -> usize {
    BASE_MUTE_ITERS
        .saturating_mul(1usize << streak.min(16))
        .min(MAX_MUTE_ITERS)
}

/// Per-region (per-root) convergence freezing for multi-root runs
/// (workload mode's "freeze saturated statement regions"), switched on
/// by [`Runner::with_regions`].
///
/// Each root of a multi-root run spans a *region*: the classes its root
/// can realize ([`EGraph::reachability_masks`]). A region whose reachable
/// set has produced no dirty classes for two consecutive iterations is
/// **frozen**: classes reachable only from frozen roots are dropped
/// from every rule's candidate set (delta and full sweeps alike).
/// `Scheduler::Sampling`'s `match_limit` is enforced *per region*
/// (matches bucketed by the lowest-numbered region of their root class
/// — a freeze-independent fairness partition, see `sample_per_region`)
/// instead of one pooled cap — so every live statement progresses at
/// the per-statement pipeline's application rate, no single hot
/// statement can consume a multiplied budget, and a frozen region's
/// *exclusive* classes lose their budget along with their candidates.
/// (With more than 64 roots, region tracking is unavailable and
/// sampling falls back to one pooled cap of `match_limit × regions`.)
///
/// Classes shared with an active region stay active (regions overlap
/// exactly where cross-statement CSE lives). Freezing is deliberately
/// *lossy* in the same way per-statement stalls are: a frozen region
/// never thaws, late dirt that parent-closes into its exclusive classes
/// is discarded, and the run stops on
/// [`StopReason::RegionsConverged`] once every region has individually
/// stalled — exactly the work a per-statement pipeline would also have
/// left undone (the tier-1 `workload_cse` suite bounds the resulting
/// plan cost against the per-statement sum).
///
/// The type has no fields — the policy is fixed — and remains as the
/// argument of [`Runner::with_regions`].
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct RegionConfig {}

/// Parallel search configuration: phase 1 of the two-phase iteration
/// (read-only search fan-out; apply/rebuild stay exclusive).
///
/// The pool only runs exhaustive searches — depth-first runs and the
/// sampling scheduler's verification sweeps — one task per rule. A
/// capped search stops after a few chunks per rule, too little work for
/// a fan-out to pay for, so it always runs inline on the caller's
/// thread, as does everything at `threads == 1`. Results are
/// **bit-identical at any thread count**: a rule's anchor-region lanes
/// are searched serially in plan order and each is cut at a chunk
/// boundary decided by its own matches alone, matches are sorted into
/// ascending-class order, and the shuffle and sampling RNG stay keyed
/// by (seed, iteration, rule name) — never by task or thread (see
/// [`search_rules_parallel`]).
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct ParallelConfig {
    /// Worker threads for the search phase (clamped to ≥ 1).
    pub threads: usize,
}

impl Default for ParallelConfig {
    /// Thread count from the `SPORES_THREADS` environment variable if
    /// set (the CI determinism matrix runs the whole suite at 1 and 8),
    /// else the host's available parallelism. Embedders that already
    /// run saturations on a worker pool clamp this further so the two
    /// pools never oversubscribe (see `spores-service`).
    fn default() -> Self {
        let threads = std::env::var("SPORES_THREADS")
            .ok()
            .and_then(|s| s.parse::<usize>().ok())
            .unwrap_or_else(|| std::thread::available_parallelism().map_or(1, |n| n.get()));
        ParallelConfig {
            threads: threads.max(1),
        }
    }
}

impl ParallelConfig {
    /// Single-threaded search, ignoring the environment.
    pub fn serial() -> Self {
        ParallelConfig { threads: 1 }
    }
}

/// Candidates a capped search visits between two checks of its match
/// count. An AC class can hold a dozen matches of one rule, so a chunk
/// of a few classes already overshoots the cap; on `als_2k` a chunk of
/// 4 found fewer matches, and saturated faster, than 8, 16 or 32.
const SEARCH_CHUNK: usize = 4;

/// How far each rule's search goes in one iteration.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum SearchBound {
    /// Visit every candidate.
    Exhaustive,
    /// Visit each lane's candidates in plan order, `chunk` at a time,
    /// and stop at the first chunk boundary where the lane holds at
    /// least `cap` matches. A lane is one anchor region's candidates
    /// when region masks are given, else the whole list.
    Capped { cap: usize, chunk: usize },
}

/// One rule's search in one iteration.
#[derive(Clone, Debug, Default)]
pub struct RuleSearch {
    /// Matches found, in ascending root-class order.
    pub matches: Vec<SearchMatches>,
    /// Candidates the matcher visited.
    pub visited: usize,
    /// Candidates a capped search cut off, in plan order (empty when
    /// every candidate was visited).
    pub unvisited: Vec<Id>,
}

/// Why the runner stopped.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum StopReason {
    /// The sampled fixpoint of §3.1: a full sweep with every rule active
    /// and no region frozen whose applied matches — all of them under
    /// [`Scheduler::DepthFirst`], the per-rule sample under
    /// [`Scheduler::Sampling`] — made no union. Depth-first this is the
    /// full transitive closure of the rules over the input; sampled, it
    /// is the point where the paper's runs stop too.
    Saturated,
    /// Multi-root runs with [`RegionConfig`] only: every statement
    /// region individually reached its sampled fixpoint and froze —
    /// the workload analogue of each per-statement pipeline stopping on
    /// its own stall.
    RegionsConverged,
    IterationLimit(usize),
    NodeLimit(usize),
    TimeLimit(Duration),
}

/// Per-rule statistics for one saturation iteration.
#[derive(Clone, Debug, Default)]
pub struct RuleIterStats {
    pub rule: String,
    /// Classes the compiled matcher visited: the op-head candidates of
    /// this rule's lhs, up to the point where a capped search stopped.
    pub candidates: usize,
    /// (class, subst) instances found.
    pub matches: usize,
    /// Instances applied after scheduling (sampling may drop some).
    pub applied: usize,
    /// Unions this rule's applications produced directly (congruence
    /// unions surfaced later by `rebuild` are not attributed).
    pub unions: usize,
    /// True when backoff muted this rule for this iteration (its search
    /// was skipped entirely).
    pub muted: bool,
    /// True when this rule searched in delta mode (candidates restricted
    /// to classes dirty since the previous iteration). `candidates`
    /// counts the classes actually visited either way, so delta and
    /// full-sweep numbers aggregate comparably.
    pub delta: bool,
    /// True when the match cap cut this rule's search short: some of
    /// its candidates went unvisited (see [`SearchBound::Capped`]).
    pub truncated: bool,
}

/// Statistics for one saturation iteration.
#[derive(Clone, Debug, Default)]
pub struct Iteration {
    pub matches_found: usize,
    pub matches_applied: usize,
    pub unions: usize,
    pub egraph_nodes: usize,
    pub egraph_classes: usize,
    pub search_time: Duration,
    pub apply_time: Duration,
    pub rebuild_time: Duration,
    /// Per-rule candidate/match/apply counts, in rule order.
    pub rules: Vec<RuleIterStats>,
    /// Per-root frozen flags for this iteration (empty unless region
    /// tracking is enabled via [`Runner::with_regions`]).
    pub frozen_regions: Vec<bool>,
}

/// What one rule searches in one iteration: its candidate ids in visit
/// order — ascending as `Pacing::plan` builds them, shuffled by the
/// runner before a capped search.
#[derive(Clone, Debug)]
pub enum SearchPlan {
    /// Backoff muted the rule: its search is skipped.
    Muted,
    /// Full sweep: every op-head candidate outside the frozen regions.
    Full(Vec<Id>),
    /// Delta sweep: the op-head candidates among the dirty classes.
    Delta(Vec<Id>),
}

impl SearchPlan {
    /// The candidate ids to visit (`None` when muted).
    pub fn ids(&self) -> Option<&[Id]> {
        match self {
            SearchPlan::Muted => None,
            SearchPlan::Full(ids) | SearchPlan::Delta(ids) => Some(ids),
        }
    }

    /// Put the candidate ids in a uniformly random visit order
    /// (Fisher-Yates), so a capped search samples the candidates.
    fn shuffle(&mut self, rng: &mut StdRng) {
        if let SearchPlan::Full(ids) | SearchPlan::Delta(ids) = self {
            for i in (1..ids.len()).rev() {
                ids.swap(i, rng.random_range(0..i + 1));
            }
        }
    }
}

/// Pacing bookkeeping for one rule.
#[derive(Clone, Debug)]
struct RulePacing {
    /// Consecutive iterations with matches but no unions.
    fruitless: usize,
    /// Muted while the iteration index is below this.
    muted_until: usize,
    /// Completed fruitless streaks since the rule last produced a union
    /// (drives the doubling of the mute length).
    streak: u32,
    /// The next search is a full sweep. True at the start — the "dirty
    /// set seeded with all classes" base case — and after a fixpoint of
    /// a partial view.
    pending_full: bool,
    /// Dirty classes the rule missed while muted: on re-admission it
    /// delta-searches this accumulated set (plus the current snapshot)
    /// instead of a full sweep, so muting never resurrects already-tried
    /// fruitless matches from quiescent classes. (Merged-away ids in
    /// here are harmless: every union marks its surviving root in a
    /// later snapshot, which is also accumulated.)
    missed: FxHashSet<Id>,
}

/// When each rule is searched, and over what: per-rule backoff plus
/// delta search between full sweeps.
struct Pacing {
    backoff: bool,
    delta: bool,
    rules: Vec<RulePacing>,
}

impl Pacing {
    fn new<L: Language, A: Analysis<L>>(
        rules: &[Rewrite<L, A>],
        backoff: bool,
        delta: bool,
        priors: Option<&FxHashMap<String, u32>>,
    ) -> Pacing {
        let rules = rules
            .iter()
            .map(|r| RulePacing {
                fruitless: 0,
                muted_until: 0,
                streak: priors.and_then(|p| p.get(&r.name).copied()).unwrap_or(0),
                pending_full: true,
                missed: FxHashSet::default(),
            })
            .collect();
        Pacing {
            backoff,
            delta,
            rules,
        }
    }

    /// This iteration's candidate list per rule. Enumeration is serial
    /// (it is cheap); the matcher runs over the lists fan out.
    fn plan<L: Language, A: Analysis<L>>(
        &mut self,
        egraph: &EGraph<L, A>,
        rules: &[Rewrite<L, A>],
        iter_ix: usize,
        dirty: &FxHashSet<Id>,
        frozen_classes: &FxHashSet<Id>,
    ) -> Vec<SearchPlan> {
        // One sorted dirty snapshot shared by every delta rule.
        let mut dirty_sorted: Vec<Id> = dirty.iter().copied().collect();
        dirty_sorted.sort_unstable();
        let mut plan = Vec::with_capacity(rules.len());
        for (rule, pace) in rules.iter().zip(&mut self.rules) {
            plan.push(if self.backoff && iter_ix < pace.muted_until {
                // bank this iteration's dirty snapshot so re-admission
                // can delta-search everything the mute skipped
                pace.missed.extend(dirty.iter().copied());
                SearchPlan::Muted
            } else if pace.pending_full || !self.delta {
                pace.pending_full = false;
                pace.missed.clear();
                SearchPlan::Full(rule.except_candidate_ids(egraph, frozen_classes))
            } else if pace.missed.is_empty() {
                SearchPlan::Delta(rule.delta_candidate_ids(egraph, &dirty_sorted))
            } else {
                let mut banked: Vec<Id> = std::mem::take(&mut pace.missed)
                    .into_iter()
                    .filter(|id| !frozen_classes.contains(id))
                    .chain(dirty.iter().copied())
                    .collect();
                banked.sort_unstable();
                banked.dedup();
                SearchPlan::Delta(rule.delta_candidate_ids(egraph, &banked))
            });
        }
        plan
    }

    /// Backoff bookkeeping after an iteration: count fruitless streaks,
    /// mute the rules that completed one. Returns whether any rule sat
    /// this iteration out.
    fn record(&mut self, iter_ix: usize, stats: &[RuleIterStats]) -> bool {
        if !self.backoff {
            return false;
        }
        let mut any_muted = false;
        for (pace, stats) in self.rules.iter_mut().zip(stats) {
            if stats.muted {
                any_muted = true;
                continue;
            }
            // `applied > 0`: a rule whose matches were all sampled out
            // (a zero budget) went untried, which is not fruitless. A
            // capped search is judged by its applied sample exactly like
            // an exhaustive one: it stops only once each cut lane holds
            // a full sample, so the cut changes which matches were
            // tried, never how many — being cut short is no evidence.
            if stats.matches > 0 && stats.applied > 0 && stats.unions == 0 {
                pace.fruitless += 1;
                if pace.fruitless >= FRUITLESS_THRESHOLD {
                    pace.muted_until = iter_ix + 1 + mute_len(pace.streak);
                    pace.streak = pace.streak.saturating_add(1);
                    pace.fruitless = 0;
                }
            } else {
                pace.fruitless = 0;
                if stats.unions > 0 {
                    // productive again: restart the doubling ladder
                    pace.streak = 0;
                }
            }
        }
        any_muted
    }

    /// After a fixpoint of a *partial* view: re-admit every rule and
    /// force full sweeps for the verification iteration. Each rule
    /// keeps its fruitless-streak ladder: re-admission is for the
    /// fixpoint check, not evidence the rule became productive, so a
    /// still-fruitless rule goes back to its grown mute length instead
    /// of restarting from the base.
    fn readmit_all(&mut self) {
        for pace in &mut self.rules {
            pace.muted_until = 0;
            pace.fruitless = 0;
            pace.pending_full = true;
        }
    }
}

/// Bitmask with a bit set for every unfrozen region.
fn active_region_mask(frozen: &[bool]) -> u64 {
    frozen
        .iter()
        .enumerate()
        .fold(0u64, |m, (r, &f)| if f { m } else { m | (1u64 << r) })
}

/// Region (per-root) freeze state of a multi-root run.
struct Regions {
    /// [`Runner::with_regions`] on a run with several roots.
    enabled: bool,
    /// ... of which there are at most 64, so the bitmask reachability
    /// map can tell them apart.
    tracked: bool,
    frozen: Vec<bool>,
    /// Consecutive dirt-free iterations per region.
    quiet: Vec<usize>,
    /// class → bitmask of the roots reaching it, with the (unions,
    /// nodes) fingerprint of the graph it was computed on: the DFS over
    /// the whole graph is only re-run when the graph actually changed,
    /// so converging tails reuse the previous iteration's masks.
    masks: Option<((usize, usize), FxHashMap<Id, u64>)>,
}

impl Regions {
    fn new(n_roots: usize, requested: bool) -> Regions {
        let enabled = requested && n_roots > 1;
        Regions {
            enabled,
            tracked: enabled && n_roots <= 64,
            frozen: vec![false; n_roots],
            quiet: vec![0; n_roots],
            masks: None,
        }
    }

    /// The class → region bitmask map of the current iteration (`None`
    /// when regions are not tracked).
    fn masks(&self) -> Option<&FxHashMap<Id, u64>> {
        self.masks.as_ref().map(|(_, masks)| masks)
    }

    fn any_frozen(&self) -> bool {
        self.frozen.iter().any(|&f| f)
    }

    /// Every region individually reached its sampled fixpoint.
    fn all_frozen(&self) -> bool {
        self.tracked && self.frozen.iter().all(|&f| f)
    }

    /// Region bookkeeping for one iteration: refresh the reachability
    /// masks, tick each active region's quiet counter against `dirty`,
    /// freeze the regions that stayed quiet, and drop the classes only
    /// frozen roots reach from `dirty`. Returns those frozen classes.
    fn observe<L: Language, A: Analysis<L>>(
        &mut self,
        egraph: &EGraph<L, A>,
        roots: &[Id],
        dirty: &mut FxHashSet<Id>,
    ) -> FxHashSet<Id> {
        let mut frozen_classes = FxHashSet::default();
        if !self.tracked {
            return frozen_classes;
        }
        let fingerprint = (egraph.n_unions(), egraph.total_number_of_nodes());
        let masks = match self.masks.take() {
            Some((seen, masks)) if seen == fingerprint => masks,
            _ => egraph.reachability_masks(roots),
        };
        // Charge each dirty class to its lowest *active* region, so
        // churn in a shared class keeps one region awake, not every
        // region that can reach it. Regions freeze top-down; the last
        // active owner of a shared core holds its convergence. (The
        // budget bucketing in `sample_per_region` deliberately uses a
        // different partition — see its docs.)
        let active_mask_prev = active_region_mask(&self.frozen);
        let mut region_dirty = vec![false; self.frozen.len()];
        for id in dirty.iter() {
            let mask = masks.get(id).copied().unwrap_or(0) & active_mask_prev;
            if mask != 0 {
                region_dirty[mask.trailing_zeros() as usize] = true;
            }
        }
        for (r, (frozen_r, quiet_r)) in self.frozen.iter_mut().zip(&mut self.quiet).enumerate() {
            if *frozen_r {
                continue;
            }
            if region_dirty[r] {
                *quiet_r = 0;
            } else {
                *quiet_r += 1;
                if *quiet_r >= QUIET_ITERS {
                    *frozen_r = true;
                }
            }
        }
        if self.any_frozen() {
            let active_mask = active_region_mask(&self.frozen);
            // Freeze classes reachable from frozen roots only; shared
            // classes (and classes reachable from no root) stay active.
            for (&id, &mask) in &masks {
                if mask != 0 && mask & active_mask == 0 {
                    frozen_classes.insert(id);
                }
            }
            dirty.retain(|id| !frozen_classes.contains(id));
        }
        self.masks = Some((fingerprint, masks));
        frozen_classes
    }
}

/// Equality-saturation runner with limits and statistics.
pub struct Runner<L: Language, A: Analysis<L>> {
    pub egraph: EGraph<L, A>,
    pub roots: Vec<Id>,
    pub iterations: Vec<Iteration>,
    pub stop_reason: Option<StopReason>,
    scheduler: Scheduler,
    /// Per-rule backoff (on by default).
    backoff: bool,
    /// Static explosiveness priors: initial fruitless-streak seed per
    /// rule name (see [`Runner::with_rule_priors`]).
    rule_priors: Option<FxHashMap<String, u32>>,
    /// Delta (dirty-class) search between full sweeps (on by default).
    delta: bool,
    /// Per-region freezing over the roots (see [`RegionConfig`]).
    regions: bool,
    parallel: ParallelConfig,
    /// Which e-matching backend the search phase runs (structural
    /// machine or relational generic join). Never changes results —
    /// only how much work a sweep does.
    matching: MatchingMode,
    iter_limit: usize,
    node_limit: usize,
    time_limit: Duration,
}

impl<L: Language, A: Analysis<L> + Default> Default for Runner<L, A> {
    fn default() -> Self {
        Runner::new(A::default())
    }
}

impl<L: Language, A: Analysis<L>> Runner<L, A> {
    pub fn new(analysis: A) -> Self {
        Runner {
            egraph: EGraph::new(analysis),
            roots: Vec::new(),
            iterations: Vec::new(),
            stop_reason: None,
            scheduler: Scheduler::default(),
            backoff: true,
            rule_priors: None,
            delta: true,
            regions: false,
            parallel: ParallelConfig::default(),
            matching: MatchingMode::default(),
            iter_limit: 30,
            node_limit: 50_000,
            time_limit: Duration::from_secs(10),
        }
    }

    /// Add a root expression to optimize.
    pub fn with_expr(mut self, expr: &RecExpr<L>) -> Self {
        let id = self.egraph.add_expr(expr);
        self.roots.push(id);
        self
    }

    pub fn with_scheduler(mut self, scheduler: Scheduler) -> Self {
        self.scheduler = scheduler;
        self
    }

    /// Disable per-rule backoff: search every rule every iteration
    /// (the reference run differential tests compare against).
    pub fn without_backoff(mut self) -> Self {
        self.backoff = false;
        self
    }

    /// Seed each named rule's backoff with an initial fruitless-streak
    /// count (typically the static explosiveness priors computed by
    /// `spores-ruleaudit`). A rule with prior `k` gets its first mute
    /// lengthened as if it had already sat out `k` fruitless streaks, so
    /// statically explosive rules (AC permutations, self-feeding
    /// expanders) are paced down sooner. Pacing only: muting delays
    /// *when* a rule is searched, never whether its matches are
    /// eventually applied, so the saturation fixpoint is unchanged.
    /// Rules absent from the map start at the usual zero. No-op when
    /// backoff is disabled.
    pub fn with_rule_priors(mut self, priors: FxHashMap<String, u32>) -> Self {
        self.rule_priors = Some(priors);
        self
    }

    /// Disable delta (dirty-class) search: every unmuted rule does a
    /// full sweep every iteration (the pre-incremental behaviour, kept
    /// for differential tests and benches).
    pub fn without_delta_search(mut self) -> Self {
        self.delta = false;
        self
    }

    /// Enable per-region convergence freezing over this runner's roots
    /// (workload mode). No-op for single-root runs; region tracking
    /// needs ≤ 64 roots (beyond that only the match-limit scaling
    /// applies, with every region considered active).
    pub fn with_regions(mut self, _regions: RegionConfig) -> Self {
        self.regions = true;
        self
    }

    /// Set the parallel-search configuration (defaults to
    /// [`ParallelConfig::default`]: `SPORES_THREADS` or the host's
    /// available parallelism). Thread count never changes results.
    pub fn with_parallel(mut self, parallel: ParallelConfig) -> Self {
        self.parallel = parallel;
        self
    }

    /// Pick the e-matching backend for the search phase (structural by
    /// default). Matches, stats, and plans are bit-identical either
    /// way; relational mode trades per-sweep join-plan construction for
    /// guard-pruned class scans.
    pub fn with_matching(mut self, matching: MatchingMode) -> Self {
        self.matching = matching;
        self
    }

    pub fn with_iter_limit(mut self, limit: usize) -> Self {
        self.iter_limit = limit;
        self
    }

    pub fn with_node_limit(mut self, limit: usize) -> Self {
        self.node_limit = limit;
        self
    }

    pub fn with_time_limit(mut self, limit: Duration) -> Self {
        self.time_limit = limit;
        self
    }

    /// Did the run stop because the rules were exhausted?
    pub fn saturated(&self) -> bool {
        matches!(self.stop_reason, Some(StopReason::Saturated))
    }

    /// Run saturation to convergence or until a limit trips.
    ///
    /// One iteration is: limits → region bookkeeping (`Regions::observe`)
    /// → per-rule search plan (`Pacing::plan`), shuffled when capped →
    /// search ([`search_rules_parallel`]) → sample + apply → rebuild →
    /// backoff bookkeeping (`Pacing::record`) → stop decision.
    ///
    /// Search is *incremental*: each iteration takes the e-graph's
    /// dirty-class set (everything touched since the previous
    /// iteration, closed over parents) and each rule only re-searches
    /// those classes ([`SearchPlan::Delta`]). A rule full-sweeps only
    /// on its first search and on verification sweeps; while muted it
    /// *banks* the dirty snapshots it sleeps through and delta-searches
    /// the accumulated set on re-admission, so no delta is ever missed.
    /// Under [`Scheduler::Sampling`] a rule's search is also *capped*
    /// ([`SearchBound::Capped`]): it stops once it holds the matches
    /// the sampler will apply, and a productive rule re-marks the
    /// candidates it cut off. [`StopReason::Saturated`] is only declared
    /// on a zero-union full, uncapped sweep with every rule active and
    /// no region frozen; a zero-union iteration of a partial view makes
    /// the next iteration search without a cap, and re-admits every
    /// rule for full sweeps (region-tracked runs instead let the quiet
    /// counters tick and stop on [`StopReason::RegionsConverged`] once
    /// every statement region has individually stalled).
    ///
    /// Each iteration is two-phase: phase 1 searches all unmuted rules
    /// against the immutable e-graph — an exhaustive search fanned
    /// across a scoped thread pool per [`ParallelConfig`], a capped one
    /// inline — and phase 2 drains the merged
    /// match buffers through the exclusive apply path and a single
    /// rebuild. The `Sync` bounds let phase 1 share `&EGraph` across
    /// threads; they are vacuous for any analysis built from plain
    /// data.
    pub fn run(mut self, rules: &[Rewrite<L, A>]) -> Self
    where
        L: Sync,
        A: Sync,
        A::Data: Sync,
    {
        let start = Instant::now();
        if !self.egraph.is_clean() {
            self.egraph.rebuild();
        }
        let mut pacing = Pacing::new(rules, self.backoff, self.delta, self.rule_priors.as_ref());
        let mut regions = Regions::new(self.roots.len(), self.regions);
        // The previous iteration made no union: this one verifies the
        // fixpoint with an exhaustive search.
        let mut verify = false;
        let mut rule_counters = Vec::new();

        loop {
            if let Some(limit) = self.limit_reached(start) {
                self.stop_reason = Some(limit);
                break;
            }
            let mut iter = Iteration::default();
            let iter_ix = self.iterations.len();

            // Changes applied from here on accumulate into a fresh dirty
            // set for the next iteration.
            let mut dirty = self.egraph.take_dirty();
            let frozen_classes = regions.observe(&self.egraph, &self.roots, &mut dirty);
            if regions.enabled {
                iter.frozen_regions = regions.frozen.clone();
            }
            // The workload is done: the per-statement pipelines would
            // each have stopped on exactly this per-region stall.
            if regions.all_frozen() {
                self.stop_reason = Some(StopReason::RegionsConverged);
                break;
            }

            // The iteration span opens here, after the early-stop checks
            // above, so every `saturation.iter` span contains exactly one
            // search/apply/rebuild triple (the trace checker and the ML
            // integration test rely on those counts being equal).
            let mut iter_span = spores_telemetry::span!("saturation.iter", iter = iter_ix);

            // --- phase 1: search (read-only) -------------------------
            let search_span = spores_telemetry::span!("saturation.search");
            let t = Instant::now();
            let mut plan = pacing.plan(&self.egraph, rules, iter_ix, &dirty, &frozen_classes);
            // Each rule's RNG stream, keyed by (seed, iteration, rule
            // name): it shuffles a capped search's visit order, then
            // draws the sample (see `sample_and_apply`).
            let mut rngs: Vec<StdRng> = match self.scheduler {
                Scheduler::Sampling { seed, .. } => rules
                    .iter()
                    .map(|rule| rule_rng(seed, iter_ix as u64, &rule.name))
                    .collect(),
                Scheduler::DepthFirst => Vec::new(),
            };
            let bound = self.search_bound(&regions, verify);
            if bound != SearchBound::Exhaustive {
                for (rule_plan, rng) in plan.iter_mut().zip(&mut rngs) {
                    rule_plan.shuffle(rng);
                }
            }
            let searched = search_rules_parallel(
                &self.egraph,
                rules,
                &plan,
                regions.masks(),
                self.parallel,
                self.matching,
                bound,
            );
            let searched = record_matches(rules, &plan, searched, &mut iter);
            iter.search_time = t.elapsed();
            drop(search_span);

            // --- phase 2: sample + apply, then one rebuild -----------
            let apply_span = spores_telemetry::span!("saturation.apply");
            let t = Instant::now();
            self.sample_and_apply(rules, searched, rngs, &regions, &mut iter);
            iter.apply_time = t.elapsed();
            drop(apply_span);

            let rebuild_span = spores_telemetry::span!("saturation.rebuild");
            let t = Instant::now();
            iter.unions += self.egraph.rebuild();
            iter.rebuild_time = t.elapsed();
            drop(rebuild_span);

            let any_muted = pacing.record(iter_ix, &iter.rules);
            iter.egraph_nodes = self.egraph.total_number_of_nodes();
            iter.egraph_classes = self.egraph.number_of_classes();
            iter_span.arg("unions", iter.unions);
            iter_span.arg("nodes", iter.egraph_nodes);
            drop(iter_span);
            publish_rule_counters(&iter.rules, &mut rule_counters);

            // --- stop decision ---------------------------------------
            let fixpoint = iter.unions == 0;
            // Muted rules, frozen regions, delta-restricted candidates
            // (delta can also have dropped sampled-out matches), or a
            // search the match cap cut short: a fixpoint of such a view
            // proves nothing about the whole.
            let partial_view = any_muted
                || regions.any_frozen()
                || iter.rules.iter().any(|r| r.delta || r.truncated);
            self.iterations.push(iter);
            verify = fixpoint;
            if fixpoint && !partial_view {
                self.stop_reason = Some(StopReason::Saturated);
                break;
            }
            // Workload mode converges *per region*: the freeze
            // accounting decides when each statement is done, so a
            // zero-union iteration just lets the quiet counters tick —
            // a global verification sweep here would refill every
            // drained match pool right as the workload finishes.
            if fixpoint && !regions.tracked {
                pacing.readmit_all();
            }
        }
        // Report canonical roots.
        for root in &mut self.roots {
            *root = self.egraph.find(*root);
        }
        self
    }

    /// The limit this run has hit, if any.
    fn limit_reached(&self, start: Instant) -> Option<StopReason> {
        if self.iterations.len() >= self.iter_limit {
            Some(StopReason::IterationLimit(self.iter_limit))
        } else if self.egraph.total_number_of_nodes() > self.node_limit {
            Some(StopReason::NodeLimit(self.node_limit))
        } else if start.elapsed() > self.time_limit {
            Some(StopReason::TimeLimit(self.time_limit))
        } else {
            None
        }
    }

    /// The per-lane match cap of this iteration's search: the sampler's
    /// budget under [`Scheduler::Sampling`] — per anchor region with
    /// tracked regions, pooled over the regions without — and
    /// exhaustive for depth-first runs and for a verification
    /// iteration.
    fn search_bound(&self, regions: &Regions, verify: bool) -> SearchBound {
        match self.scheduler {
            Scheduler::Sampling { match_limit, .. } if !verify => SearchBound::Capped {
                cap: self.sample_limit(regions, match_limit),
                chunk: SEARCH_CHUNK,
            },
            _ => SearchBound::Exhaustive,
        }
    }

    /// Matches applied per rule per sampling bucket: `match_limit` per
    /// tracked region, or — more than 64 roots cannot budget per region
    /// — one pooled cap scaled by the number of regions.
    fn sample_limit(&self, regions: &Regions, match_limit: usize) -> usize {
        if regions.enabled && !regions.tracked {
            match_limit.saturating_mul(regions.frozen.len())
        } else {
            match_limit
        }
    }

    /// Phase 2 of the iteration: pick each rule's applications under the
    /// scheduler and apply them, rule by rule in rule order. `rngs`
    /// holds each rule's stream under [`Scheduler::Sampling`] (empty
    /// depth-first).
    fn sample_and_apply(
        &mut self,
        rules: &[Rewrite<L, A>],
        searched: Vec<Found>,
        rngs: Vec<StdRng>,
        regions: &Regions,
        iter: &mut Iteration,
    ) {
        let n_regions = regions.frozen.len();
        let mut rngs = rngs.into_iter();
        for ((rule, (mut instances, unvisited)), stats) in
            rules.iter().zip(searched).zip(&mut iter.rules)
        {
            let mut dropped: Vec<(Id, Subst)> = Vec::new();
            if let Scheduler::Sampling { match_limit, .. } = self.scheduler {
                // Each rule samples from its own RNG stream derived from
                // the seed, the iteration, and the rule *name*, so which
                // matches a rule applies is stable under rule
                // reordering. With tracked regions the cap applies to
                // each statement region separately, so every statement
                // progresses at the per-statement pipeline's application
                // rate and no hot region can consume a pooled multiple.
                let mut rng = rngs.next().expect("one RNG per rule when sampling");
                let limit = self.sample_limit(regions, match_limit);
                dropped = match regions.masks() {
                    Some(masks) => {
                        sample_per_region(&mut instances, masks, n_regions, limit, &mut rng)
                    }
                    None => sample_in_place(&mut instances, limit, &mut rng),
                };
            }
            // The anchor regions this rule made a union in (one bucket
            // without region tracking).
            let masks = regions.masks();
            let bucket = |id: Id| masks.map_or(0, |masks| anchor_region(masks, id));
            let mut productive = 0u128;
            let mut rule_unions = 0;
            for (class, subst) in &instances {
                let unions = rule.apply_match(&mut self.egraph, *class, subst);
                if unions > 0 {
                    productive |= 1 << bucket(*class);
                }
                rule_unions += unions;
            }
            // Sampled-out matches and cut-off candidates are pending,
            // not gone, where the rule is *productive*: re-mark their
            // root classes so the next delta sweep re-finds them (full
            // re-search used to give every match a fresh chance each
            // iteration). Where the rule's whole sample applied without
            // one union the pool is stale — its drops decay instead of
            // re-marking, so a converging run's dirt dies out rather
            // than self-sustaining (the information lost is exactly
            // what the pre-incremental sampled stall also lost, and a
            // verification iteration searches everything again). With
            // tracked regions this is judged per anchor region, the
            // partition the sample is drawn by: a rule still productive
            // in one statement keeps no other statement's stale pool
            // awake.
            for class in dropped.into_iter().map(|(class, _)| class).chain(unvisited) {
                if productive & 1 << bucket(class) != 0 {
                    self.egraph.mark_dirty(class);
                }
            }
            stats.applied = instances.len();
            stats.unions = rule_unions;
            iter.matches_applied += instances.len();
            iter.unions += rule_unions;
        }
    }
}

/// One rule's search, flattened: its `(class, subst)` instances and the
/// candidates the cap cut off.
type Found = (Vec<(Id, Subst)>, Vec<Id>);

/// Flatten each rule's search result to `(class, subst)` instances —
/// paired with the candidates the cap cut off — and open the rule's
/// stats row for this iteration.
fn record_matches<L: Language, A: Analysis<L>>(
    rules: &[Rewrite<L, A>],
    plan: &[SearchPlan],
    searched: Vec<Option<RuleSearch>>,
    iter: &mut Iteration,
) -> Vec<Found> {
    let mut per_rule = Vec::with_capacity(rules.len());
    for ((rule, plan), result) in rules.iter().zip(plan).zip(searched) {
        let result = result.unwrap_or_default();
        let instances: Vec<(Id, Subst)> = result
            .matches
            .into_iter()
            .flat_map(|m| m.substs.into_iter().map(move |s| (m.eclass, s)))
            .collect();
        iter.matches_found += instances.len();
        iter.rules.push(RuleIterStats {
            rule: rule.name.clone(),
            candidates: result.visited,
            matches: instances.len(),
            muted: matches!(plan, SearchPlan::Muted),
            delta: matches!(plan, SearchPlan::Delta(_)),
            truncated: !result.unvisited.is_empty(),
            ..RuleIterStats::default()
        });
        per_rule.push((instances, result.unvisited));
    }
    per_rule
}

/// Mirror one iteration's `RuleIterStats` into the metrics registry,
/// labeled by rule name, so the text exposition can attribute
/// candidate/match volume without walking `Runner::iterations`.
/// `counters` holds each rule's four counters, looked up on the first
/// call of a run: a registry lookup formats its key under a lock, and
/// four per rule per iteration cost a short saturation several percent.
fn publish_rule_counters(rules: &[RuleIterStats], counters: &mut Vec<[Arc<Counter>; 4]>) {
    if !spores_telemetry::enabled() {
        return;
    }
    if counters.is_empty() {
        let registry = spores_telemetry::global().registry();
        counters.extend(rules.iter().map(|r| {
            let labels = [("rule", r.rule.as_str())];
            [
                "saturation.rule.candidates",
                "saturation.rule.matches",
                "saturation.rule.applied",
                "saturation.rule.unions",
            ]
            .map(|name| registry.counter_labeled(name, &labels))
        }));
    }
    for (r, [candidates, matches, applied, unions]) in rules.iter().zip(counters.iter()) {
        candidates.add(r.candidates as u64);
        matches.add(r.matches as u64);
        applied.add(r.applied as u64);
        unions.add(r.unions as u64);
    }
}

/// Phase 1 of the two-phase iteration: search every unmuted rule
/// against the immutable `&EGraph`: one pool task per rule when the
/// search is exhaustive, every rule inline when it is capped (a capped
/// search stops after a few chunks per rule, and a scoped pool costs
/// more to start than that).
///
/// `plan[i]` is rule `i`'s candidate id list in visit order
/// ([`SearchPlan::Muted`] rules are skipped and yield `None`). With
/// region `masks`, a rule's candidates are split into one lane per
/// anchor region — the lowest-numbered root that reaches the class,
/// the partition the sampler buckets matches by — keeping plan order
/// within each lane; without masks the whole list is one lane. Under
/// [`SearchBound::Exhaustive`] each rule returns exactly what
/// [`Rewrite::search_ids`] over its whole list returns. Under
/// [`SearchBound::Capped`] each lane visits its candidates a chunk at a
/// time and stops at the first chunk boundary where it holds `cap`
/// matches; the rest of the lane is reported as unvisited.
///
/// Results are the same at any thread count: a rule's lanes are
/// searched serially by one task and each is cut by its own match
/// count, never by timing; matches are sorted by root class (each class
/// is one candidate of one lane, and its substitution order is
/// canonical); and nothing downstream is keyed by task or thread — the
/// shuffle and the sampling RNG stay a function of (seed, iteration,
/// rule name).
pub fn search_rules_parallel<L, A>(
    egraph: &EGraph<L, A>,
    rules: &[Rewrite<L, A>],
    plan: &[SearchPlan],
    masks: Option<&FxHashMap<Id, u64>>,
    cfg: ParallelConfig,
    matching: MatchingMode,
    bound: SearchBound,
) -> Vec<Option<RuleSearch>>
where
    L: Language + Sync,
    A: Analysis<L> + Sync,
    A::Data: Sync,
{
    assert_eq!(rules.len(), plan.len());
    let threads = match bound {
        SearchBound::Exhaustive => cfg.threads.max(1),
        SearchBound::Capped { .. } => 1,
    };
    spores_pool::scoped_map(threads, plan.len(), |i| {
        let ids = plan[i].ids()?;
        if ids.is_empty() {
            return Some(RuleSearch::default());
        }
        let rule = &rules[i];
        let _span = spores_telemetry::span!(
            "saturation.search.rule",
            rule = rule.name.as_str(),
            candidates = ids.len(),
        );
        let mut out = match bound {
            SearchBound::Exhaustive => {
                let (matches, visited) = rule.search_ids(egraph, ids, matching);
                RuleSearch {
                    matches,
                    visited,
                    unvisited: Vec::new(),
                }
            }
            SearchBound::Capped { cap, chunk } => {
                search_capped(rule, egraph, ids, masks, matching, cap, chunk.max(1))
            }
        };
        out.matches.sort_unstable_by_key(|m| m.eclass);
        Some(out)
    })
}

/// One rule's capped search (see [`SearchBound::Capped`]): candidates
/// are dealt, in plan order, to their anchor region's lane; a lane
/// searches each `chunk` it fills while it holds fewer than `cap`
/// matches, and sends every later candidate to `unvisited`. Lanes never
/// read each other's counts, so the cut is the one a separate pass over
/// each region's candidates would make.
fn search_capped<L: Language, A: Analysis<L>>(
    rule: &Rewrite<L, A>,
    egraph: &EGraph<L, A>,
    ids: &[Id],
    masks: Option<&FxHashMap<Id, u64>>,
    matching: MatchingMode,
    cap: usize,
    chunk: usize,
) -> RuleSearch {
    let mut out = RuleSearch::default();
    let mut search = |chunk_ids: &[Id], found: &mut usize| {
        let (matches, visited) = rule.search_ids(egraph, chunk_ids, matching);
        *found += matches.iter().map(|m| m.substs.len()).sum::<usize>();
        out.matches.extend(matches);
        out.visited += visited;
    };
    // Per anchor region (mask 0 / absent is region 64): the chunk being
    // filled and the matches found so far.
    let mut lanes: Vec<(Vec<Id>, usize)> = vec![(Vec::new(), 0); 65];
    let mut unvisited = Vec::new();
    for &id in ids {
        let (pending, found) = &mut lanes[masks.map_or(0, |masks| anchor_region(masks, id))];
        if *found >= cap {
            unvisited.push(id);
            continue;
        }
        pending.push(id);
        if pending.len() == chunk {
            search(pending, found);
            pending.clear();
        }
    }
    for (pending, found) in &mut lanes {
        if !pending.is_empty() {
            search(pending, found);
        }
    }
    out.unvisited = unvisited;
    out
}

/// Deterministic RNG stream for one rule in one iteration: a hash of the
/// scheduler seed, the iteration number, and the rule name. Independent
/// of the rule's position in the rule list.
fn rule_rng(seed: u64, iteration: u64, name: &str) -> StdRng {
    use std::hash::Hasher;
    let mut h = crate::hash::FxHasher::default();
    h.write(name.as_bytes());
    h.write_u64(seed);
    h.write_u64(iteration);
    StdRng::seed_from_u64(h.finish())
}

/// The anchor region of a class: the lowest-numbered root reaching it,
/// or 64 when none does.
fn anchor_region(masks: &FxHashMap<Id, u64>, id: Id) -> usize {
    masks.get(&id).copied().unwrap_or(0).trailing_zeros() as usize
}

/// Per-region sampling: bucket instances by the lowest-numbered region
/// of their root class (classes reachable from no root share one extra
/// bucket), keep a uniform sample of `limit` per bucket, and return the
/// dropped remainder.
///
/// The bucketing is a *fairness partition*, deliberately independent of
/// freeze state: a shared class keeps its anchor bucket even when that
/// anchor region freezes, so the shared core's application budget stays
/// stable as exclusive fringes converge (re-anchoring shared matches to
/// the lowest *active* region was tried and measurably starves the
/// remaining hot statements' own buckets on ALS). A frozen region still
/// loses the budget of its *exclusive* classes — they are excluded from
/// every candidate set, so no instances land in any bucket for them.
/// The freeze accounting in `Regions::observe` charges dirt to the
/// lowest *active* region instead, because convergence must never be
/// attributed to a region that is no longer searched.
fn sample_per_region(
    instances: &mut Vec<(Id, Subst)>,
    masks: &FxHashMap<Id, u64>,
    n_regions: usize,
    limit: usize,
    rng: &mut StdRng,
) -> Vec<(Id, Subst)> {
    let mut buckets: Vec<Vec<(Id, Subst)>> = vec![Vec::new(); n_regions + 1];
    for inst in instances.drain(..) {
        buckets[anchor_region(masks, inst.0).min(n_regions)].push(inst);
    }
    let mut dropped = Vec::new();
    for mut bucket in buckets {
        dropped.extend(sample_in_place(&mut bucket, limit, rng));
        instances.extend(bucket);
    }
    dropped
}

/// Keep a uniform sample of `limit` elements of `v` (partial
/// Fisher-Yates), returning the dropped remainder.
fn sample_in_place<T>(v: &mut Vec<T>, limit: usize, rng: &mut StdRng) -> Vec<T> {
    if v.len() <= limit {
        return Vec::new();
    }
    for i in 0..limit {
        let j = rng.random_range(i..v.len());
        v.swap(i, j);
    }
    v.split_off(limit)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::language::parse_rec_expr;
    use crate::language::test_lang::Arith;

    fn rules() -> Vec<Rewrite<Arith, ()>> {
        vec![
            Rewrite::new("comm-add", "(+ ?a ?b)", "(+ ?b ?a)").unwrap(),
            Rewrite::new("comm-mul", "(* ?a ?b)", "(* ?b ?a)").unwrap(),
            Rewrite::new("assoc-add", "(+ (+ ?a ?b) ?c)", "(+ ?a (+ ?b ?c))").unwrap(),
            Rewrite::new("distribute", "(* ?a (+ ?b ?c))", "(+ (* ?a ?b) (* ?a ?c))").unwrap(),
            Rewrite::new("factor", "(+ (* ?a ?b) (* ?a ?c))", "(* ?a (+ ?b ?c))").unwrap(),
        ]
    }

    #[test]
    fn rule_priors_never_change_the_fixpoint() {
        let expr = parse_rec_expr("(* (+ x y) (+ y z))").unwrap();
        let plain = Runner::<Arith, ()>::default()
            .with_expr(&expr)
            .with_scheduler(Scheduler::DepthFirst)
            .run(&rules());
        let mut priors = crate::hash::FxHashMap::default();
        priors.insert("comm-add".to_owned(), 3);
        priors.insert("distribute".to_owned(), 2);
        let primed = Runner::<Arith, ()>::default()
            .with_expr(&expr)
            .with_scheduler(Scheduler::DepthFirst)
            .with_rule_priors(priors)
            .run(&rules());
        assert!(plain.saturated() && primed.saturated());
        assert_eq!(
            plain.egraph.number_of_classes(),
            primed.egraph.number_of_classes()
        );
        assert_eq!(
            plain.egraph.total_number_of_nodes(),
            primed.egraph.total_number_of_nodes()
        );
    }

    #[test]
    fn saturates_small_input() {
        let expr = parse_rec_expr("(+ x y)").unwrap();
        let runner = Runner::<Arith, ()>::default()
            .with_expr(&expr)
            .with_scheduler(Scheduler::DepthFirst)
            .run(&rules());
        assert!(runner.saturated(), "{:?}", runner.stop_reason);
        let flipped = parse_rec_expr::<Arith>("(+ y x)").unwrap();
        assert_eq!(runner.egraph.lookup_expr(&flipped), Some(runner.roots[0]));
    }

    #[test]
    fn proves_distributivity_composition() {
        // (x + y) * z == x*z + y*z requires comm + distribute
        let lhs = parse_rec_expr("(* (+ x y) z)").unwrap();
        let rhs = parse_rec_expr::<Arith>("(+ (* x z) (* y z))").unwrap();
        let runner = Runner::<Arith, ()>::default()
            .with_expr(&lhs)
            .with_scheduler(Scheduler::DepthFirst)
            .run(&rules());
        assert_eq!(
            runner
                .egraph
                .lookup_expr(&rhs)
                .map(|id| runner.egraph.find(id)),
            Some(runner.roots[0])
        );
    }

    #[test]
    fn iteration_limit_respected() {
        let expr = parse_rec_expr("(+ (+ (+ a b) (+ c d)) (+ (+ e f) (+ g h)))").unwrap();
        let runner = Runner::<Arith, ()>::default()
            .with_expr(&expr)
            .with_iter_limit(2)
            .run(&rules());
        assert!(runner.iterations.len() <= 2);
    }

    #[test]
    fn node_limit_stops_explosion() {
        let expr =
            parse_rec_expr("(* (* (* (* (* (* a b) c) d) e) f) (* (* g h) (* i j)))").unwrap();
        let runner = Runner::<Arith, ()>::default()
            .with_expr(&expr)
            .with_node_limit(200)
            .with_scheduler(Scheduler::DepthFirst)
            .run(&rules());
        assert!(matches!(
            runner.stop_reason,
            Some(StopReason::NodeLimit(_)) | Some(StopReason::Saturated)
        ));
    }

    #[test]
    fn sampling_still_converges_on_small_input() {
        // §4.3: "sampling always preserves convergence in practice"
        let expr = parse_rec_expr("(* (+ x y) z)").unwrap();
        let rhs = parse_rec_expr::<Arith>("(+ (* x z) (* y z))").unwrap();
        let runner = Runner::<Arith, ()>::default()
            .with_expr(&expr)
            .with_scheduler(Scheduler::Sampling {
                match_limit: 4,
                seed: 7,
            })
            .with_iter_limit(100)
            .run(&rules());
        assert!(runner.saturated());
        assert_eq!(
            runner
                .egraph
                .lookup_expr(&rhs)
                .map(|id| runner.egraph.find(id)),
            Some(runner.roots[0])
        );
    }

    #[test]
    fn stats_are_recorded() {
        let expr = parse_rec_expr("(* (+ x y) z)").unwrap();
        let runner = Runner::<Arith, ()>::default()
            .with_expr(&expr)
            .run(&rules());
        assert!(!runner.iterations.is_empty());
        let last = runner.iterations.last().unwrap();
        assert!(last.egraph_nodes > 0);
        assert_eq!(last.unions, 0, "last iteration must be a fixpoint");
    }

    #[test]
    fn per_rule_stats_are_recorded() {
        let expr = parse_rec_expr("(* (+ x y) z)").unwrap();
        let rules = rules();
        let runner = Runner::<Arith, ()>::default()
            .with_expr(&expr)
            .with_scheduler(Scheduler::DepthFirst)
            .run(&rules);
        let first = &runner.iterations[0];
        assert_eq!(first.rules.len(), rules.len());
        for (stat, rule) in first.rules.iter().zip(&rules) {
            assert_eq!(stat.rule, rule.name);
            if stat.matches > 0 {
                assert!(stat.candidates > 0, "matches require candidates");
            }
            assert_eq!(
                stat.applied, stat.matches,
                "depth-first applies every match"
            );
        }
        // (* (+ x y) z): one class matches comm-mul, one comm-add
        assert_eq!(first.rules[0].matches, 1, "comm-add");
        assert_eq!(first.rules[1].matches, 1, "comm-mul");
        let total: usize = first.rules.iter().map(|r| r.matches).sum();
        assert_eq!(total, first.matches_found);
    }

    /// The default rules plus an identity rewrite: it matches every `+`
    /// class each iteration and never produces a union — exactly the
    /// fruitless-but-matching shape backoff exists to mute.
    fn rules_with_identity() -> Vec<Rewrite<Arith, ()>> {
        let mut rs = rules();
        rs.push(Rewrite::new("identity-add", "(+ ?a ?b)", "(+ ?a ?b)").unwrap());
        rs
    }

    #[test]
    fn backoff_mutes_fruitless_rules_and_saturation_is_preserved() {
        let expr = parse_rec_expr("(+ (+ (+ a b) (+ c d)) (+ (+ e f) (+ g h)))").unwrap();
        let runner = Runner::<Arith, ()>::default()
            .with_expr(&expr)
            .with_scheduler(Scheduler::DepthFirst)
            .with_iter_limit(50)
            .run(&rules_with_identity());
        assert!(runner.saturated(), "{:?}", runner.stop_reason);
        let muted_iters: usize = runner
            .iterations
            .iter()
            .flat_map(|it| &it.rules)
            .filter(|r| r.muted)
            .count();
        assert!(muted_iters > 0, "backoff never muted any rule");
        // the final iteration must be a full-rule fixpoint: nothing muted
        let last = runner.iterations.last().unwrap();
        assert!(last.rules.iter().all(|r| !r.muted));
        assert_eq!(last.unions, 0);
        // and the e-graph is the same closure the no-backoff run reaches
        let plain = Runner::<Arith, ()>::default()
            .with_expr(&expr)
            .with_scheduler(Scheduler::DepthFirst)
            .without_backoff()
            .with_iter_limit(50)
            .run(&rules_with_identity());
        assert!(plain.saturated());
        assert_eq!(
            runner.egraph.total_number_of_nodes(),
            plain.egraph.total_number_of_nodes()
        );
        assert_eq!(
            runner.egraph.number_of_classes(),
            plain.egraph.number_of_classes()
        );
    }

    #[test]
    fn mute_length_doubles_from_the_base_up_to_the_cap() {
        let ladder: Vec<usize> = (0..7).map(mute_len).collect();
        assert_eq!(ladder, [4, 8, 16, 32, 64, 64, 64]);
        assert_eq!(mute_len(u32::MAX), 64, "the shift is clamped");
    }

    #[test]
    fn muted_rules_skip_search_work() {
        let expr = parse_rec_expr("(+ (+ (+ a b) (+ c d)) (+ (+ e f) (+ g h)))").unwrap();
        let runner = Runner::<Arith, ()>::default()
            .with_expr(&expr)
            .with_scheduler(Scheduler::DepthFirst)
            .with_iter_limit(50)
            .run(&rules_with_identity());
        assert!(
            runner
                .iterations
                .iter()
                .flat_map(|it| &it.rules)
                .any(|r| r.muted),
            "the ladder never muted a rule"
        );
        for it in &runner.iterations {
            for r in &it.rules {
                if r.muted {
                    assert_eq!(r.candidates, 0, "muted rule searched candidates");
                    assert_eq!(r.matches, 0);
                    assert_eq!(r.applied, 0);
                }
            }
        }
    }

    /// `candidates_visited` must aggregate consistently across search
    /// modes: every rule appears exactly once per iteration (no
    /// double-count when an un-mute's catch-up search and a later
    /// verification sweep land in different iterations), muted rules
    /// report zero visits, and a delta-mode run never visits more
    /// candidates than the same run with delta disabled (full sweeps
    /// every iteration), while reaching the same exact closure
    /// (depth-first, so `Saturated` is the genuine closure either way).
    #[test]
    fn delta_candidate_counts_are_consistent_with_full_sweeps() {
        let expr = parse_rec_expr("(+ (+ a b) (+ (+ c d) (+ e f)))").unwrap();
        let run = |delta: bool| -> Runner<Arith, ()> {
            let runner = Runner::<Arith, ()>::default()
                .with_expr(&expr)
                .with_scheduler(Scheduler::DepthFirst)
                .with_iter_limit(2000)
                .with_node_limit(100_000);
            let runner = if delta {
                runner
            } else {
                runner.without_delta_search()
            };
            runner.run(&rules_with_identity())
        };
        let with_delta = run(true);
        let without = run(false);
        assert!(with_delta.saturated(), "{:?}", with_delta.stop_reason);
        assert!(without.saturated(), "{:?}", without.stop_reason);
        // same exact closure either way
        assert_eq!(
            with_delta.egraph.total_number_of_nodes(),
            without.egraph.total_number_of_nodes()
        );
        let n_rules = rules_with_identity().len();
        for it in &with_delta.iterations {
            // one stats row per rule per iteration — a mode switch never
            // records (and so never counts) a rule twice
            assert_eq!(it.rules.len(), n_rules);
            let mut names: Vec<&str> = it.rules.iter().map(|r| r.rule.as_str()).collect();
            names.sort_unstable();
            names.dedup();
            assert_eq!(names.len(), n_rules, "duplicate rule rows in iteration");
            for r in &it.rules {
                if r.muted {
                    assert_eq!(r.candidates, 0, "muted rule visited candidates");
                    assert!(!r.delta, "muted rows are not delta rows");
                }
                // candidates are counted at search time; egraph_classes
                // after rebuild, where each union merges away a class
                assert!(
                    r.candidates <= it.egraph_classes + it.unions,
                    "visited more candidates than classes existed at search time"
                );
            }
        }
        // both modes actually exercised: the delta run mixes delta rows
        // and full-sweep rows (first search, verification sweeps), the
        // no-delta run records none — and the aggregate is the plain
        // row sum either way, so BENCH_* numbers aggregate identically
        // across modes
        let rows = |r: &Runner<Arith, ()>, delta: bool| -> usize {
            r.iterations
                .iter()
                .flat_map(|it| &it.rules)
                .filter(|row| row.delta == delta && !row.muted)
                .count()
        };
        assert!(rows(&with_delta, true) > 0, "delta mode never used");
        assert!(rows(&with_delta, false) > 0, "no full sweeps recorded");
        assert_eq!(rows(&without, true), 0, "no-delta run recorded delta rows");
        // a delta row visits at most the classes the full sweep of the
        // same iteration would have visited — spot-check the identity
        // rule, which matches every `+` class on a full sweep
        for it in &with_delta.iterations {
            let full_add: Option<usize> = it
                .rules
                .iter()
                .find(|r| r.rule == "comm-add" && !r.delta && !r.muted)
                .map(|r| r.candidates);
            if let (Some(full), Some(delta_row)) = (
                full_add,
                it.rules
                    .iter()
                    .find(|r| r.rule == "identity-add" && r.delta),
            ) {
                assert!(
                    delta_row.candidates <= full,
                    "delta visited more + classes than a same-iteration full sweep"
                );
            }
        }
    }

    /// Per-region convergence freezing (workload mode): with one root
    /// that saturates almost immediately and one that needs many
    /// sampled iterations, the fast region must freeze — visibly, in
    /// `Iteration::frozen_regions` — and stay frozen to the end, the
    /// run must stop on `RegionsConverged`, and the extracted best
    /// terms must match a run without region tracking (freezing does
    /// not change the plans).
    #[test]
    fn converged_region_freezes_and_plans_are_unchanged() {
        let fast = parse_rec_expr("(+ p q)").unwrap();
        // AC-heavy with redundant double negations: the best term is
        // strictly smaller than the input, so plan equality below is
        // not vacuous.
        let slow =
            parse_rec_expr("(+ (+ a (neg (neg b))) (+ (+ c d) (+ (neg (neg e)) f)))").unwrap();
        let mut rules = rules();
        rules.push(Rewrite::new("neg-neg", "(neg (neg ?a))", "?a").unwrap());
        let run = |regions: bool| -> Runner<Arith, ()> {
            let runner = Runner::<Arith, ()>::default()
                .with_expr(&fast)
                .with_expr(&slow)
                .with_scheduler(Scheduler::Sampling {
                    match_limit: 2,
                    seed: 11,
                })
                .with_iter_limit(400)
                .with_node_limit(100_000);
            let runner = if regions {
                runner.with_regions(RegionConfig::default())
            } else {
                runner
            };
            runner.run(&rules)
        };
        let frozen_run = run(true);
        assert_eq!(
            frozen_run.stop_reason,
            Some(StopReason::RegionsConverged),
            "every region must converge"
        );
        // the fast region freezes while the slow one still works …
        let first_freeze = frozen_run
            .iterations
            .iter()
            .position(|it| it.frozen_regions == vec![true, false])
            .expect("fast region must freeze before the slow one");
        // … and never thaws (region mode has no unfreeze-retry)
        for it in &frozen_run.iterations[first_freeze..] {
            assert!(it.frozen_regions[0], "fast region thawed");
        }
        // after the freeze, the fast region's exclusive classes are out
        // of every candidate set: no candidate total may exceed the
        // graph minus that region's exclusive classes
        let masks = frozen_run.egraph.reachability_masks(&frozen_run.roots);
        let fast_exclusive = masks.values().filter(|&&m| m == 0b01).count();
        assert!(fast_exclusive > 0, "fast region has exclusive classes");
        for it in &frozen_run.iterations[first_freeze..] {
            for r in &it.rules {
                assert!(
                    r.candidates <= it.egraph_classes - fast_exclusive.min(it.egraph_classes),
                    "a rule searched a frozen region: {} candidates, {} classes, {} frozen",
                    r.candidates,
                    it.egraph_classes,
                    fast_exclusive
                );
            }
        }
        // freezing changes how much is searched, not what is extracted:
        // the fast root's best term is identical, and the slow root's
        // best cost matches (AC tie-breaking between equal-size trees
        // may differ; both runs must find the neg-neg-free minimum)
        let plain = run(false);
        let best = |r: &Runner<Arith, ()>| -> Vec<(f64, String)> {
            let ext = crate::extract::Extractor::new(&r.egraph, crate::extract::AstSize);
            r.roots
                .iter()
                .map(|&root| {
                    let (cost, term) = ext.find_best(root).expect("extractable");
                    (cost, term.to_string())
                })
                .collect()
        };
        let (frozen_best, plain_best) = (best(&frozen_run), best(&plain));
        assert_eq!(frozen_best[0], plain_best[0], "fast plan changed");
        assert_eq!(frozen_best[1].0, plain_best[1].0, "slow plan cost changed");
        // 6 leaves under + (11 nodes), both neg-negs rewritten away
        assert_eq!(frozen_best[1].0, 11.0, "double negations survived");
        // and the total matching work is strictly lower with freezing
        let visits = |r: &Runner<Arith, ()>| -> usize {
            r.iterations
                .iter()
                .flat_map(|it| &it.rules)
                .map(|r| r.candidates)
                .sum()
        };
        assert!(visits(&frozen_run) < visits(&plain));
    }

    #[test]
    fn per_rule_unions_sum_to_apply_unions() {
        let expr = parse_rec_expr("(* (+ x y) z)").unwrap();
        let runner = Runner::<Arith, ()>::default()
            .with_expr(&expr)
            .with_scheduler(Scheduler::DepthFirst)
            .run(&rules());
        for it in &runner.iterations {
            let per_rule: usize = it.rules.iter().map(|r| r.unions).sum();
            assert!(per_rule <= it.unions, "rebuild can only add unions");
        }
    }

    /// Which flipped `(+ b a)` forms exist after one sampled iteration —
    /// the observable trace of *which* matches the sampler picked.
    fn sampled_flips(rule_order: &[Rewrite<Arith, ()>]) -> Vec<String> {
        let mut runner = Runner::<Arith, ()>::default().with_scheduler(Scheduler::Sampling {
            match_limit: 2,
            seed: 99,
        });
        let pairs = [
            ("a", "b"),
            ("c", "d"),
            ("e", "f"),
            ("g", "h"),
            ("i", "j"),
            ("k", "l"),
        ];
        for (l, r) in pairs {
            let e = parse_rec_expr(&format!("(+ {l} {r})")).unwrap();
            runner = runner.with_expr(&e);
        }
        let runner = runner.with_iter_limit(1).run(rule_order);
        let mut flipped = Vec::new();
        for (l, r) in pairs {
            let e = parse_rec_expr::<Arith>(&format!("(+ {r} {l})")).unwrap();
            if runner.egraph.lookup_expr(&e).is_some() {
                flipped.push(format!("(+ {r} {l})"));
            }
        }
        flipped
    }

    #[test]
    fn sampling_is_deterministic_per_rule_under_reordering() {
        let fwd = rules();
        let mut rev = rules();
        rev.reverse();
        let a = sampled_flips(&fwd);
        let b = sampled_flips(&rev);
        assert!(!a.is_empty(), "match_limit 2 of 6 must flip something");
        assert!(
            a.len() < 6,
            "sampling must not apply every comm-add match in one iteration"
        );
        assert_eq!(
            a, b,
            "which matches a rule samples must not depend on rule order"
        );
        // and repeated runs are identical outright
        assert_eq!(a, sampled_flips(&fwd));
    }

    /// A capped search that makes no union proves nothing: the run must
    /// not stop as `Saturated` on it, and the iteration after it must
    /// search every candidate. An identity rule over a 40-leaf sum has
    /// 39 `+` candidates (more than one chunk), matches every one and
    /// never unions, so its first, capped sweep is exactly such an
    /// iteration.
    #[test]
    fn zero_union_capped_iteration_is_verified_exhaustively() {
        let sum = (1..40).fold("a0".to_owned(), |acc, i| format!("(+ a{i} {acc})"));
        let expr = parse_rec_expr(&sum).unwrap();
        let rules = vec![Rewrite::new("identity-add", "(+ ?a ?b)", "(+ ?a ?b)").unwrap()];
        let runner = Runner::<Arith, ()>::default()
            .with_expr(&expr)
            .with_scheduler(Scheduler::Sampling {
                match_limit: 2,
                seed: 3,
            })
            .with_iter_limit(20)
            .run(&rules);
        let first = &runner.iterations[0].rules[0];
        assert!(first.truncated && !first.delta, "{first:?}");
        assert_eq!(
            first.candidates, SEARCH_CHUNK,
            "cut at the first chunk boundary"
        );
        assert_eq!(runner.iterations[0].unions, 0);
        assert_eq!(runner.stop_reason, Some(StopReason::Saturated));
        let (last, earlier) = runner.iterations.split_last().unwrap();
        assert!(!earlier.is_empty(), "stopped on the capped iteration");
        let verified = &last.rules[0];
        assert!(!verified.truncated && !verified.delta && !verified.muted);
        assert_eq!(
            verified.candidates, 39,
            "verification visits every candidate"
        );
        for (ix, it) in earlier.iter().enumerate() {
            if it.unions == 0 {
                let next = &runner.iterations[ix + 1].rules[0];
                assert!(
                    !next.truncated,
                    "iteration {} after a fixpoint was capped",
                    ix + 1
                );
            }
        }
    }

    /// A rule's leftover matches are re-marked only in the regions it was
    /// productive in. Region 0 holds `(+ x y)`, which `comm-add` turns
    /// into a union; region 1 holds sums whose commuted forms are
    /// already there, so there the rule only re-finds what exists and
    /// its one-match budget drops the rest. Nothing may leave region 1
    /// dirty for the next iteration.
    #[test]
    fn stale_regions_are_not_re_marked_by_another_regions_union() {
        let mut runner = Runner::<Arith, ()>::default()
            .with_scheduler(Scheduler::Sampling {
                match_limit: 1,
                seed: 9,
            })
            .with_regions(RegionConfig::default())
            .with_iter_limit(1);
        let eg = &mut runner.egraph;
        let fast = eg.add_expr(&parse_rec_expr("(+ x y)").unwrap());
        let mut sums = Vec::new();
        for (a, b) in [("a", "b"), ("c", "d"), ("e", "f"), ("g", "h")] {
            let ab = eg.add_expr(&parse_rec_expr(&format!("(+ {a} {b})")).unwrap());
            let ba = eg.add_expr(&parse_rec_expr(&format!("(+ {b} {a})")).unwrap());
            eg.union(ab, ba);
            sums.push(ab);
        }
        let stale = sums
            .into_iter()
            .reduce(|acc, s| runner.egraph.add(Arith::Mul([acc, s])))
            .unwrap();
        runner.egraph.rebuild();
        runner.roots = vec![fast, stale];
        let rules = vec![Rewrite::new("comm-add", "(+ ?a ?b)", "(+ ?b ?a)").unwrap()];
        let runner = runner.run(&rules);
        let it = &runner.iterations[0].rules[0];
        assert!(it.unions > 0 && it.matches > it.applied, "{it:?}");
        let masks = runner.egraph.reachability_masks(&runner.roots);
        let stale_dirty: Vec<Id> = runner
            .egraph
            .dirty_classes()
            .iter()
            .copied()
            .filter(|id| masks.get(id) == Some(&0b10))
            .collect();
        assert!(
            stale_dirty.is_empty(),
            "region 1 re-marked: {stale_dirty:?}"
        );
    }

    /// Workload mode's per-region budget survives the capped search:
    /// for every rule in every round, the sample holds exactly
    /// `min(match_limit, live)` matches of each anchor region, where
    /// `live` is what an exhaustive search finds there — no region
    /// exceeds its cap, and none with live matches is starved by
    /// another region's cut.
    #[test]
    fn capped_search_keeps_every_region_budget() {
        let mut egraph: EGraph<Arith, ()> = EGraph::default();
        let roots: Vec<Id> = [
            "(+ (+ a b) (+ c (+ d e)))",
            "(+ (+ a b) (* f (+ g (+ h i))))",
            "(* (+ j k) (+ (+ l m) (+ n o)))",
            "(+ p q)",
        ]
        .iter()
        .map(|src| egraph.add_expr(&parse_rec_expr(src).unwrap()))
        .collect();
        egraph.rebuild();
        let mut rules = rules();
        rules.push(Rewrite::new("identity-add", "(+ ?a ?b)", "(+ ?a ?b)").unwrap());
        let limit = 2;
        let n_regions = roots.len();
        let mut cuts = 0;
        for round in 0..4u64 {
            let masks = egraph.reachability_masks(&roots);
            let bucket = |id: &Id| {
                (masks.get(id).copied().unwrap_or(0).trailing_zeros() as usize).min(n_regions)
            };
            let none = FxHashSet::default();
            let full: Vec<SearchPlan> = rules
                .iter()
                .map(|rule| SearchPlan::Full(rule.except_candidate_ids(&egraph, &none)))
                .collect();
            let search = |plan: &[SearchPlan], bound| {
                let cfg = ParallelConfig::serial();
                let mode = MatchingMode::Structural;
                search_rules_parallel(&egraph, &rules, plan, Some(&masks), cfg, mode, bound)
            };
            let exhaustive = search(&full, SearchBound::Exhaustive);
            for chunk in [1, SEARCH_CHUNK] {
                let mut plan = full.clone();
                let mut rngs: Vec<StdRng> =
                    rules.iter().map(|r| rule_rng(5, round, &r.name)).collect();
                for (rule_plan, rng) in plan.iter_mut().zip(&mut rngs) {
                    rule_plan.shuffle(rng);
                }
                let capped = search(&plan, SearchBound::Capped { cap: limit, chunk });
                for ((all, got), rng) in exhaustive.iter().zip(capped).zip(&mut rngs) {
                    let (all, got) = (all.as_ref().unwrap(), got.unwrap());
                    cuts += usize::from(!got.unvisited.is_empty());
                    let mut live = vec![0; n_regions + 1];
                    for m in &all.matches {
                        live[bucket(&m.eclass)] += m.substs.len();
                    }
                    let mut sample: Vec<(Id, Subst)> = got
                        .matches
                        .into_iter()
                        .flat_map(|m| m.substs.into_iter().map(move |s| (m.eclass, s)))
                        .collect();
                    sample_per_region(&mut sample, &masks, n_regions, limit, rng);
                    let mut applied = vec![0; n_regions + 1];
                    for (class, _) in &sample {
                        applied[bucket(class)] += 1;
                    }
                    let want: Vec<usize> = live.iter().map(|&n| n.min(limit)).collect();
                    assert_eq!(applied, want, "round {round}, chunk {chunk}");
                }
            }
            // grow the graph for the next round
            for (rule, found) in rules.iter().zip(&exhaustive) {
                for m in &found.as_ref().unwrap().matches {
                    for subst in m.substs.iter().take(1) {
                        rule.apply_match(&mut egraph, m.eclass, subst);
                    }
                }
            }
            egraph.rebuild();
        }
        assert!(cuts > 0, "no search was ever cut: the test is vacuous");
    }
}
