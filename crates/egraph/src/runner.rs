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
//!   the graph".
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
use std::time::{Duration, Instant};

/// Match application strategy (§3.1 "Dealing with Expansive Rules").
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Scheduler {
    /// Apply all matches of all rules every iteration.
    DepthFirst,
    /// Apply at most `match_limit` sampled matches per rule per iteration.
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
/// `threads == 1` runs search inline on the caller's thread — no task
/// materialization, no pool, byte-for-byte the historical serial path.
/// Results are **bit-identical at any thread count**: every rule's
/// candidate list is enumerated serially in ascending id order, shards
/// partition that list, per-shard match buffers are merged back into
/// ascending-class order, and the sampling RNG stays keyed by (seed,
/// iteration, rule name) — never by shard or thread (see
/// [`search_rules_parallel`]).
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct ParallelConfig {
    /// Worker threads for the search phase (clamped to ≥ 1).
    pub threads: usize,
    /// Rules with at most this many candidates run as a single task, so
    /// tiny searches never pay fan-out overhead; larger candidate lists
    /// are split into shards of at least this size.
    pub min_shard_size: usize,
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
            min_shard_size: 64,
        }
    }
}

impl ParallelConfig {
    /// Single-threaded search, ignoring the environment.
    pub fn serial() -> Self {
        ParallelConfig {
            threads: 1,
            min_shard_size: 64,
        }
    }
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
    /// Classes the op-head index proposed for this rule's lhs (the
    /// classes actually visited by the compiled matcher).
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

/// What one rule searches in one iteration: the exact candidate ids a
/// serial search would visit, in ascending order.
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
    /// set seeded with all classes" base case, which also covers
    /// e-graphs passed in via `with_egraph` whose dirty set an earlier
    /// run already took — and after a fixpoint of a partial view.
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
            // (a zero budget) went untried, which is not fruitless.
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

    pub fn with_egraph(mut self, egraph: EGraph<L, A>) -> Self {
        self.egraph = egraph;
        self
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
    /// → per-rule search plan (`Pacing::plan`) → search
    /// ([`search_rules_parallel`]) → sample + apply → rebuild → backoff
    /// bookkeeping (`Pacing::record`) → stop decision.
    ///
    /// Search is *incremental*: each iteration takes the e-graph's
    /// dirty-class set (everything touched since the previous
    /// iteration, closed over parents) and each rule only re-searches
    /// those classes ([`SearchPlan::Delta`]). A rule full-sweeps only
    /// on its first search and on verification sweeps; while muted it
    /// *banks* the dirty snapshots it sleeps through and delta-searches
    /// the accumulated set on re-admission, so no delta is ever missed.
    /// [`StopReason::Saturated`] is only declared on a zero-union full
    /// sweep with every rule active and no region frozen; a zero-union
    /// iteration of a partial view re-admits every rule and retries
    /// with full sweeps (region-tracked runs instead let the quiet
    /// counters tick and stop on [`StopReason::RegionsConverged`] once
    /// every statement region has individually stalled).
    ///
    /// Each iteration is two-phase: phase 1 searches all unmuted rules
    /// against the immutable e-graph — fanned across a scoped thread
    /// pool per [`ParallelConfig`] — and phase 2 drains the merged
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
            let plan = pacing.plan(&self.egraph, rules, iter_ix, &dirty, &frozen_classes);
            let searched = search_rules_parallel(
                &self.egraph,
                rules,
                &plan,
                regions.masks(),
                self.parallel,
                self.matching,
            );
            let instances = record_matches(rules, &plan, searched, &mut iter);
            iter.search_time = t.elapsed();
            drop(search_span);

            // --- phase 2: sample + apply, then one rebuild -----------
            let apply_span = spores_telemetry::span!("saturation.apply");
            let t = Instant::now();
            self.sample_and_apply(rules, instances, &regions, iter_ix, &mut iter);
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
            publish_rule_counters(&iter.rules);

            // --- stop decision ---------------------------------------
            let fixpoint = iter.unions == 0;
            // Muted rules, frozen regions, or delta-restricted candidates
            // (delta can also have dropped sampled-out matches): a
            // fixpoint of such a view proves nothing about the whole.
            let partial_view =
                any_muted || regions.any_frozen() || iter.rules.iter().any(|r| r.delta);
            self.iterations.push(iter);
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

    /// Phase 2 of the iteration: pick each rule's applications under the
    /// scheduler and apply them, rule by rule in rule order.
    fn sample_and_apply(
        &mut self,
        rules: &[Rewrite<L, A>],
        instances: Vec<Vec<(Id, Subst)>>,
        regions: &Regions,
        iter_ix: usize,
        iter: &mut Iteration,
    ) {
        let n_regions = regions.frozen.len();
        for ((rule, mut instances), stats) in rules.iter().zip(instances).zip(&mut iter.rules) {
            let mut dropped: Vec<(Id, Subst)> = Vec::new();
            if let Scheduler::Sampling { match_limit, seed } = self.scheduler {
                // Each rule samples from its own RNG stream derived from
                // the seed, the iteration, and the rule *name*, so which
                // matches a rule applies is stable under rule
                // reordering. With tracked regions the cap applies to
                // each statement region separately, so every statement
                // progresses at the per-statement pipeline's application
                // rate and no hot region can consume a pooled multiple.
                let mut rng = rule_rng(seed, iter_ix as u64, &rule.name);
                dropped = match regions.masks() {
                    Some(masks) => {
                        sample_per_region(&mut instances, masks, n_regions, match_limit, &mut rng)
                    }
                    None => {
                        // >64 roots cannot budget per region: one pooled
                        // cap, scaled by the number of regions.
                        let scale = if regions.enabled { n_regions } else { 1 };
                        let limit = match_limit.saturating_mul(scale);
                        sample_in_place(&mut instances, limit, &mut rng)
                    }
                };
            }
            let mut rule_unions = 0;
            for (class, subst) in &instances {
                rule_unions += rule.apply_match(&mut self.egraph, *class, subst);
            }
            // Sampled-out matches of a *productive* rule are pending,
            // not gone: re-mark their root classes so the next delta
            // sweep re-finds them (full re-search used to give every
            // match a fresh chance each iteration). A rule whose whole
            // sample applied without one union signals a stale pool —
            // its drops decay instead of re-marking, so a converging
            // run's dirt dies out rather than self-sustaining (the
            // information lost is exactly what the pre-incremental
            // sampled stall also lost).
            if rule_unions > 0 {
                for (class, _) in dropped {
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

/// Flatten each rule's search result to `(class, subst)` instances and
/// open the rule's stats row for this iteration.
fn record_matches<L: Language, A: Analysis<L>>(
    rules: &[Rewrite<L, A>],
    plan: &[SearchPlan],
    searched: Vec<Option<(Vec<SearchMatches>, usize)>>,
    iter: &mut Iteration,
) -> Vec<Vec<(Id, Subst)>> {
    let mut per_rule = Vec::with_capacity(rules.len());
    for ((rule, plan), result) in rules.iter().zip(plan).zip(searched) {
        let (matches, candidates) = result.unwrap_or_default();
        let instances: Vec<(Id, Subst)> = matches
            .into_iter()
            .flat_map(|m| m.substs.into_iter().map(move |s| (m.eclass, s)))
            .collect();
        iter.matches_found += instances.len();
        iter.rules.push(RuleIterStats {
            rule: rule.name.clone(),
            candidates,
            matches: instances.len(),
            muted: matches!(plan, SearchPlan::Muted),
            delta: matches!(plan, SearchPlan::Delta(_)),
            ..RuleIterStats::default()
        });
        per_rule.push(instances);
    }
    per_rule
}

/// Mirror one iteration's `RuleIterStats` into the metrics registry,
/// labeled by rule name, so the text exposition can attribute
/// candidate/match volume without walking `Runner::iterations`.
fn publish_rule_counters(rules: &[RuleIterStats]) {
    if !spores_telemetry::enabled() {
        return;
    }
    let registry = spores_telemetry::global().registry();
    for r in rules {
        let labels = [("rule", r.rule.as_str())];
        for (name, value) in [
            ("saturation.rule.candidates", r.candidates),
            ("saturation.rule.matches", r.matches),
            ("saturation.rule.applied", r.applied),
            ("saturation.rule.unions", r.unions),
        ] {
            registry.counter_labeled(name, &labels).add(value as u64);
        }
    }
}

/// Phase 1 of the two-phase iteration: run every (rule ×
/// candidate-shard) search task against the immutable `&EGraph` and
/// merge the per-shard match buffers back into serial order.
///
/// `plan[i]` is rule `i`'s candidate id list in ascending order
/// ([`SearchPlan::Muted`] rules are skipped and yield `None`). Returns,
/// per rule, exactly what [`Rewrite::search_ids`] over the unsharded
/// list returns, at any thread count and under any shard structure:
///
/// * shards partition an ascending candidate list and each class's
///   matches stay inside one shard, so re-sorting the concatenated
///   shard buffers by root class restores the serial match order
///   (per-class substitution order is computed within a shard and
///   already canonical);
/// * visited counts sum over a partition, so per-rule candidate totals
///   are exact, not approximate;
/// * nothing downstream is keyed by shard or thread — the sampling RNG
///   stays a function of (seed, iteration, rule name).
///
/// With `threads == 1` no tasks are materialized and every rule runs
/// inline — the serial fast path single-core hosts take.
pub fn search_rules_parallel<L, A>(
    egraph: &EGraph<L, A>,
    rules: &[Rewrite<L, A>],
    plan: &[SearchPlan],
    masks: Option<&FxHashMap<Id, u64>>,
    cfg: ParallelConfig,
    matching: MatchingMode,
) -> Vec<Option<(Vec<SearchMatches>, usize)>>
where
    L: Language + Sync,
    A: Analysis<L> + Sync,
    A::Data: Sync,
{
    assert_eq!(rules.len(), plan.len());
    let threads = cfg.threads.max(1);
    if threads == 1 {
        return rules
            .iter()
            .zip(plan)
            .map(|(rule, plan)| {
                plan.ids().map(|ids| {
                    let _span = spores_telemetry::span!(
                        "saturation.search.shard",
                        rule = rule.name.as_str(),
                        candidates = ids.len(),
                    );
                    rule.search_ids(egraph, ids, matching)
                })
            })
            .collect();
    }
    // Materialize the (rule, shard) task list, then fan it out.
    let mut tasks: Vec<(usize, Vec<Id>)> = Vec::new();
    let mut shards_of: Vec<std::ops::Range<usize>> = Vec::with_capacity(plan.len());
    for (i, rule_plan) in plan.iter().enumerate() {
        let start = tasks.len();
        if let Some(ids) = rule_plan.ids() {
            for shard in shard_candidates(ids, masks, threads, cfg.min_shard_size) {
                tasks.push((i, shard));
            }
        }
        shards_of.push(start..tasks.len());
    }
    let results = spores_pool::scoped_map(threads, tasks.len(), |t| {
        let (rule_ix, ids) = &tasks[t];
        let _span = spores_telemetry::span!(
            "saturation.search.shard",
            rule = rules[*rule_ix].name.as_str(),
            candidates = ids.len(),
        );
        rules[*rule_ix].search_ids(egraph, ids, matching)
    });
    let mut results = results.into_iter();
    let mut out = Vec::with_capacity(plan.len());
    for (rule_plan, range) in plan.iter().zip(shards_of) {
        if rule_plan.ids().is_none() {
            out.push(None);
            continue;
        }
        let mut matches: Vec<SearchMatches> = Vec::new();
        let mut visited = 0usize;
        for _ in range {
            let (m, v) = results.next().expect("one result per task");
            matches.extend(m);
            visited += v;
        }
        matches.sort_unstable_by_key(|m| m.eclass);
        out.push(Some((matches, visited)));
    }
    out
}

/// Split one rule's candidate list into search shards.
///
/// In workload mode candidates are grouped by *anchor region* first —
/// the lowest-numbered root that reaches the class, the same partition
/// [`sample_per_region`] buckets matches by — so a shard's classes
/// mostly belong to one statement region and traverse that statement's
/// slice of the graph. Single-root runs (no masks) just chunk the
/// ascending candidate list. Either way shards partition the input and
/// the caller re-sorts merged matches, so shard structure never leaks
/// into results; the grouping only exists for locality.
fn shard_candidates(
    ids: &[Id],
    masks: Option<&FxHashMap<Id, u64>>,
    threads: usize,
    min_shard_size: usize,
) -> Vec<Vec<Id>> {
    if ids.is_empty() {
        return Vec::new();
    }
    let min_shard = min_shard_size.max(1);
    if ids.len() <= min_shard {
        return vec![ids.to_vec()];
    }
    let mut ordered = ids.to_vec();
    if let Some(masks) = masks {
        // Stable sort: ascending id order is preserved within each
        // region bucket (mask 0 / absent sorts last as bucket 64).
        ordered.sort_by_key(|id| masks.get(id).copied().unwrap_or(0).trailing_zeros());
    }
    // About two tasks per thread so work stealing can balance uneven
    // shard costs, but never shards smaller than the configured floor.
    let target = min_shard.max(ordered.len().div_ceil(threads * 2));
    ordered.chunks(target).map(|c| c.to_vec()).collect()
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
        let mask = masks.get(&inst.0).copied().unwrap_or(0);
        let b = if mask == 0 {
            n_regions
        } else {
            mask.trailing_zeros() as usize
        };
        buckets[b].push(inst);
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
}
