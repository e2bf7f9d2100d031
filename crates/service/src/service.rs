//! The concurrent optimizer front-end — a **two-tier** serving stack.
//!
//! Request lifecycle, the same for a statement ([`OptimizerService::optimize`])
//! and a whole bundle ([`OptimizerService::optimize_workload`]):
//!
//! ```text
//! request ── fingerprint ──► cache hit? ── verdict remembered? ──yes──► instantiate ──► serve (µs)
//!                │ miss                         │ no
//!                │                              ▼
//!                │                 instantiate + cost re-check ──pass──► remember ──► serve (µs)
//!                │                              │ fail
//!                ▼                              │
//!        in-flight already? ◄───────────────────┘
//!                │ no        └──yes──► ticket (coalesce)
//!                ▼
//!        bounded worker queue ──full──► reject (retry-after) / run inline
//!                │ enqueued
//!                ▼
//!        worker ── translate → saturate → extract → lower ──► cache + wake tickets (ms)
//! ```
//!
//! * **Tier 1 — the synchronous fast path.** Warm hits run entirely on
//!   the caller's thread: fingerprint, a *read-locked* probe of the
//!   sharded cache, α-instantiation and — unless the entry remembers a
//!   verdict for this exact metadata — the cost re-check. They never
//!   touch the worker queue, the inflight table, or any exclusive lock —
//!   provable from telemetry: a 100%-hit run records zero
//!   `service.queue_wait` spans.
//! * **Tier 2 — the non-blocking slow path.** Misses register in a
//!   *striped* single-flight table (same sharding arity as the cache)
//!   and enter a **bounded** worker queue. [`OptimizerService::try_optimize`]
//!   never blocks: it returns the hit, a [`Ticket`] to poll/wait on, or —
//!   when the queue is full — a typed [`ServiceError::Overloaded`]
//!   rejection with a retry-after hint, so one thread can keep thousands
//!   of requests in flight and overload degrades into explicit
//!   backpressure instead of unbounded buffering. The blocking entry
//!   points keep their total API by running the pipeline inline when the
//!   queue is full (caller-runs throttling).
//! * **Hits** never run saturation: the cached template is α-instantiated
//!   with the caller's symbols and re-priced under the caller's concrete
//!   metadata ([`spores_core::plan_cost`], summed over the roots); if the
//!   template prices worse than the caller's own input plan (beyond a
//!   small slack for estimator drift, `COST_SLACK`) — possible when
//!   sizes drifted within a sparsity bucket — the hit is rejected and the
//!   request falls through to the full pipeline, so a hit is never
//!   meaningfully worse than what greedy re-optimization would have
//!   returned for the input. Each entry remembers its accepted verdicts
//!   per exact request metadata (seeded with the producing request's
//!   own), so a repeated request skips the re-check and costs fingerprint
//!   + probe + α-instantiation.
//! * **Single-flight**: concurrent identical fingerprints run the
//!   pipeline once; the rest wait on the same computation. A panicking
//!   pipeline resolves every waiter with a typed
//!   [`ServiceError::WorkerPanic`] and drains its inflight entry — no
//!   leaked senders, no permanently wedged key.
//! * **Size-pinned templates** (plans that embed concrete dimension
//!   constants, see [`spores_core::Optimized::size_polymorphic`]) are
//!   only reused at exactly the sizes they were optimized for.

use crate::cache::{CachedPlan, ShardedCache, VerdictKey, Verdicts};
use crate::stats::{ServiceStats, StatsSnapshot};
use crate::workload::{ServedWorkload, WorkloadRequest};
use spores_core::translate::TranslateError;
use spores_core::{
    plan_cost, workload_plan_cost, Optimizer, OptimizerConfig, PhaseTimings, SaturationStats,
    VarMeta,
};
use spores_ir::{
    fingerprint, fingerprint_workload, ExprArena, Fingerprint, LeafClass, NodeId, Shape, Symbol,
};
use spores_pool::{TrySubmitError, WorkerPool};
use std::collections::HashMap;
use std::fmt;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender, TryRecvError};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Relative slack for the hit-path cost re-check. The re-check exists to
/// catch *regime-crossing* staleness — a cached plan that materializes
/// something huge at the caller's sizes prices orders of magnitude worse
/// than the caller's own plan. It must tolerate estimator-context drift:
/// the pipeline prices plans against the saturated e-graph's merged
/// (tightest) sparsity estimates, while the re-check prices against a
/// fresh graph, which can legitimately disagree by a fraction of a
/// percent on an optimal plan.
const COST_SLACK: f64 = 0.02;
const COST_EPS: f64 = 1e-6;

/// Configuration of an [`OptimizerService`].
#[derive(Clone, Debug)]
pub struct ServiceConfig {
    /// Pipeline configuration used for cache misses.
    pub optimizer: OptimizerConfig,
    /// Cache shards (read-locked contention domains); also the stripe
    /// count of the single-flight table.
    pub shards: usize,
    /// Total cached plan templates across shards, statements and bundles
    /// together.
    pub capacity: usize,
    /// Worker threads running the pipeline for misses.
    pub workers: usize,
    /// Bounded miss-queue capacity (jobs buffered beyond the workers).
    /// When full, [`OptimizerService::try_optimize`] rejects with
    /// [`ServiceError::Overloaded`] and the blocking entry points run the
    /// pipeline inline on the caller's thread.
    pub queue_capacity: usize,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            optimizer: OptimizerConfig::default(),
            shards: 8,
            capacity: 1024,
            workers: 4,
            queue_capacity: 256,
        }
    }
}

/// One optimization request.
#[derive(Clone, Debug)]
pub struct Request {
    pub arena: ExprArena,
    pub root: NodeId,
    pub vars: HashMap<Symbol, VarMeta>,
}

impl Request {
    pub fn new(arena: ExprArena, root: NodeId, vars: HashMap<Symbol, VarMeta>) -> Request {
        Request { arena, root, vars }
    }
}

/// How a request was satisfied.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum PlanSource {
    /// Served from the plan cache.
    Hit,
    /// Ran the full pipeline.
    Miss,
    /// Waited on an identical in-flight optimization.
    Coalesced,
}

impl PlanSource {
    /// The value of a request span's `source` argument.
    fn label(self) -> &'static str {
        match self {
            PlanSource::Hit => "hit",
            PlanSource::Miss => "miss",
            PlanSource::Coalesced => "coalesced",
        }
    }
}

/// A served plan.
#[derive(Clone, Debug)]
pub struct Served {
    pub arena: ExprArena,
    pub root: NodeId,
    /// `NnzCost` estimate of the served plan. For misses this is the
    /// pipeline's estimate (priced against the saturated e-graph's merged
    /// sparsity bounds); for hits it is the re-check's fresh-graph
    /// estimate under the caller's metadata. The two can differ by a
    /// fraction of a percent on the same plan. A hit at exactly the
    /// metadata of the request that produced the entry reports the
    /// pipeline's estimate, like the miss did.
    pub cost: f64,
    pub source: PlanSource,
    /// End-to-end service latency for this request.
    pub latency: Duration,
    /// Pipeline phase timings (of the cached run, for hits).
    pub timings: PhaseTimings,
    /// Saturation facts of the producing pipeline run (cached, for hits):
    /// fixpoint reached, wall-clock budget tripped, e-graph size.
    pub converged: bool,
    pub timed_out: bool,
    pub e_nodes: usize,
}

/// Service-level failure.
#[derive(Clone, Debug)]
pub enum ServiceError {
    /// The request could not be fingerprinted or optimized.
    Invalid(String),
    /// The worker pool is gone (service shut down mid-request).
    Shutdown,
    /// The bounded miss queue is full — explicit backpressure. Retry
    /// after the hint (a heuristic: current depth × a typical per-job
    /// compile time), or fall back to [`OptimizerService::optimize`],
    /// which absorbs overload by running the pipeline inline.
    Overloaded {
        /// Jobs queued (but not yet running) at rejection time.
        queue_depth: usize,
        /// The configured queue capacity.
        capacity: usize,
        /// Suggested backoff before retrying.
        retry_after: Duration,
    },
    /// The pipeline run for this request (or its coalesced leader)
    /// panicked. The inflight entry has been drained — an immediate retry
    /// starts a fresh flight.
    WorkerPanic(String),
}

impl fmt::Display for ServiceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServiceError::Invalid(m) => write!(f, "invalid request: {m}"),
            ServiceError::Shutdown => write!(f, "optimizer service shut down"),
            ServiceError::Overloaded {
                queue_depth,
                capacity,
                retry_after,
            } => write!(
                f,
                "optimizer service overloaded ({queue_depth}/{capacity} queued); retry after {retry_after:?}"
            ),
            ServiceError::WorkerPanic(m) => write!(f, "optimizer worker panicked: {m}"),
        }
    }
}

impl std::error::Error for ServiceError {}

/// One unit of work: a statement or a whole bundle. Everything below the
/// entry points runs on this, and only these methods know which of the
/// two it holds.
#[derive(Clone)]
enum Work {
    Statement(Request),
    Bundle(WorkloadRequest),
}

/// A pipeline run's plan in the caller's symbols, one root per request
/// root, with the cost its kind reports.
struct Run {
    arena: ExprArena,
    roots: Vec<NodeId>,
    cost: f64,
    timings: PhaseTimings,
    saturation: SaturationStats,
    fell_back: bool,
    size_polymorphic: bool,
}

impl Work {
    fn vars(&self) -> &HashMap<Symbol, VarMeta> {
        match self {
            Work::Statement(r) => &r.vars,
            Work::Bundle(r) => &r.vars,
        }
    }

    /// The cache key: the bundle's canonical form extends the statement
    /// one with per-root markers, so the two kinds never share a key.
    fn fingerprint(&self) -> Result<Fingerprint, ServiceError> {
        let classes: HashMap<Symbol, LeafClass> = self
            .vars()
            .iter()
            .map(|(&s, m)| (s, LeafClass::classify(m.shape, m.sparsity)))
            .collect();
        match self {
            Work::Statement(r) => fingerprint(&r.arena, r.root, &classes),
            Work::Bundle(r) => fingerprint_workload(&r.workload.arena, &r.workload.roots, &classes),
        }
        .map_err(|e| ServiceError::Invalid(e.to_string()))
    }

    /// Run the full pipeline. A statement reports the pipeline's own
    /// estimate; a bundle the summed `plan_cost` of its roots.
    fn pipeline(&self, optimizer: &Optimizer) -> Result<Run, TranslateError> {
        Ok(match self {
            Work::Statement(r) => {
                let o = optimizer.optimize(&r.arena, r.root, &r.vars)?;
                Run {
                    arena: o.arena,
                    roots: vec![o.root],
                    cost: o.cost_after,
                    timings: o.timings,
                    saturation: o.saturation,
                    fell_back: o.fell_back,
                    size_polymorphic: o.size_polymorphic,
                }
            }
            Work::Bundle(r) => {
                let o = optimizer.optimize_workload(&r.workload, &r.vars)?;
                Run {
                    cost: workload_plan_cost(&o.arena, &o.roots, &r.vars)?,
                    roots: o.roots.iter().map(|&(_, root)| root).collect(),
                    arena: o.arena,
                    timings: o.timings,
                    saturation: o.saturation,
                    fell_back: o.fell_back,
                    size_polymorphic: o.size_polymorphic,
                }
            }
        })
    }

    /// Summed `plan_cost` of the input's roots under the caller's
    /// metadata: what a hit's re-check compares the template against.
    fn input_cost(&self) -> Option<f64> {
        match self {
            Work::Statement(r) => plan_cost(&r.arena, r.root, &r.vars),
            Work::Bundle(r) => workload_plan_cost(&r.workload.arena, &r.workload.roots, &r.vars),
        }
        .ok()
    }

    /// The caller's root names, in request order (a statement has none).
    fn root_names(&self) -> impl Iterator<Item = Symbol> + '_ {
        let roots: &[(Symbol, NodeId)] = match self {
            Work::Statement(_) => &[],
            Work::Bundle(r) => &r.workload.roots,
        };
        roots.iter().map(|&(name, _)| name)
    }
}

/// A plan served for one unit of work, before the entry point gives it
/// its public shape ([`Served`] or [`ServedWorkload`]).
struct Outcome {
    arena: ExprArena,
    /// One plan root per request root, in request order.
    roots: Vec<NodeId>,
    cost: f64,
    /// Source and latency are stamped once the request concludes.
    source: PlanSource,
    latency: Duration,
    /// The entry it was instantiated from: provenance of the producing run.
    plan: Arc<CachedPlan>,
}

impl Outcome {
    /// The one-root projection: a statement's plan.
    fn served(self) -> Served {
        Served {
            arena: self.arena,
            root: self.roots[0],
            cost: self.cost,
            source: self.source,
            latency: self.latency,
            timings: self.plan.timings,
            converged: self.plan.converged,
            timed_out: self.plan.timed_out,
            e_nodes: self.plan.e_nodes,
        }
    }
}

/// How an in-flight pipeline run concluded for its waiters.
#[derive(Clone, Debug)]
enum FlightError {
    /// The pipeline returned an error.
    Failed(String),
    /// The pipeline panicked; the worker survived, the flight did not.
    Panicked(String),
    /// The flight was never enqueued: the bounded queue was full and the
    /// submitter rejected, bouncing any waiters that coalesced onto it.
    Rejected,
}

type FlightResult = Result<Arc<CachedPlan>, FlightError>;
type InflightStripe = Mutex<HashMap<String, Vec<Sender<FlightResult>>>>;

/// One request's claim on an in-flight pipeline run.
struct Flight {
    fp: Fingerprint,
    rx: Receiver<FlightResult>,
    /// Joined another request's flight rather than starting one.
    coalesced: bool,
    /// When the request started: its latency clock.
    t0: Instant,
}

/// Where an entry point stands once the caller's thread is done with it.
enum Started {
    Hit(Outcome),
    Flying(Flight),
}

struct Job {
    work: Work,
    fp: Fingerprint,
}

struct Inner {
    config: ServiceConfig,
    /// The one plan cache, statements and bundles alike.
    cache: ShardedCache,
    stats: ServiceStats,
    /// canon → waiters (single-flight registry), striped by fingerprint
    /// hash like the cache shards so concurrent misses on different
    /// shapes don't serialize on one global mutex. The submitting
    /// request's own sender is registered too, so the flight resolves
    /// everyone the same way.
    inflight: Vec<InflightStripe>,
    /// Test hook: panic inside the next N pipeline runs (see
    /// [`OptimizerService::inject_pipeline_panics`]).
    panic_injections: AtomicU32,
}

impl Inner {
    fn stripe(&self, fp: &Fingerprint) -> &InflightStripe {
        &self.inflight[(fp.hash() as usize) % self.inflight.len()]
    }

    /// Lock an inflight stripe, recovering from poisoning: the table
    /// only sees plain map/vec operations while locked, so state behind
    /// a poisoned lock is structurally sound — a panicked flight must
    /// degrade its stripe, not wedge every future miss that hashes here.
    fn lock_stripe<'a>(
        stripe: &'a InflightStripe,
    ) -> std::sync::MutexGuard<'a, HashMap<String, Vec<Sender<FlightResult>>>> {
        stripe.lock().unwrap_or_else(|p| p.into_inner())
    }

    /// Run the full pipeline and package the outcome as a cacheable plan.
    fn run_pipeline(&self, work: &Work, fp: &Fingerprint) -> Result<Arc<CachedPlan>, String> {
        if self.panic_injections.load(Ordering::Relaxed) > 0
            && self
                .panic_injections
                .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |n| n.checked_sub(1))
                .is_ok()
        {
            panic!("injected pipeline panic (test hook)");
        }
        let _span = spores_telemetry::span!("service.compile");
        let optimizer = Optimizer::new(self.config.optimizer.clone());
        let run = work.pipeline(&optimizer).map_err(|e| e.to_string())?;
        // α-rename the optimized plan into template space ($0, $1, …)
        let (arena, roots) = run
            .arena
            .rename_vars_multi(&run.roots, &fp.to_template_map());
        let plan = Arc::new(CachedPlan {
            arena,
            roots,
            cost: run.cost,
            timings: run.timings,
            converged: run.saturation.converged,
            timed_out: matches!(
                run.saturation.stop_reason,
                Some(spores_egraph::StopReason::TimeLimit(_))
            ),
            e_nodes: run.saturation.e_nodes,
            size_polymorphic: run.size_polymorphic,
            slot_shapes: slot_shapes(fp, work.vars()),
            // the miss serves this plan to this request unchecked, so a
            // repeat of it may be served the same way
            verdicts: Verdicts::seeded(verdict_key(fp, work.vars()), run.cost),
        });
        if !run.fell_back {
            self.cache.insert(fp, plan.clone());
        }
        Ok(plan)
    }

    /// Run one flight to its end, on a worker or (caller-runs) on the
    /// submitter's thread. A panicking pipeline must still resolve the
    /// in-flight entry — otherwise the submitter and every coalesced
    /// waiter block on their receivers forever — so it is caught and
    /// surfaced to them as a typed [`FlightError::Panicked`].
    fn fly(&self, work: &Work, fp: &Fingerprint) {
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            self.run_pipeline(work, fp).map_err(FlightError::Failed)
        }))
        .unwrap_or_else(|panic| {
            let msg = panic
                .downcast_ref::<&str>()
                .map(|s| s.to_string())
                .or_else(|| panic.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "optimizer pipeline panicked".to_string());
            self.stats.worker_panics.inc();
            Err(FlightError::Panicked(msg))
        });
        self.resolve(fp, &result);
    }

    /// Resolve the in-flight entry for this fingerprint, waking every
    /// waiter and removing the key — including after a panic, so the
    /// flight's coalesced waiters are drained rather than leaked.
    fn resolve(&self, fp: &Fingerprint, result: &FlightResult) {
        let waiters = Self::lock_stripe(self.stripe(fp)).remove(fp.canon());
        for tx in waiters.into_iter().flatten() {
            // a waiter that gave up (dropped its receiver) is fine to miss
            let _ = tx.send(result.clone());
        }
    }
}

/// A thread-safe, memoizing optimizer front-end. See the module docs.
pub struct OptimizerService {
    inner: Arc<Inner>,
    pool: WorkerPool<Job>,
}

/// Per-slot concrete shapes of a request, in fingerprint slot order.
fn slot_shapes(fp: &Fingerprint, vars: &HashMap<Symbol, VarMeta>) -> Vec<Shape> {
    fp.slots()
        .iter()
        .map(|s| vars.get(s).map_or(Shape::scalar(), |m| m.shape))
        .collect()
}

/// Exact per-slot metadata of a request, in fingerprint slot order: the
/// key its entry's remembered verdicts are looked up by.
fn verdict_key(fp: &Fingerprint, vars: &HashMap<Symbol, VarMeta>) -> VerdictKey {
    fp.slots()
        .iter()
        .map(|s| {
            let m = vars.get(s).copied().unwrap_or_else(VarMeta::scalar);
            (m.shape, m.sparsity.to_bits())
        })
        .collect()
}

impl OptimizerService {
    pub fn new(mut config: ServiceConfig) -> OptimizerService {
        let workers = config.workers.max(1);
        // Each pipeline run may itself fan rule search across a scoped
        // pool; clamp its thread budget so `workers` concurrent
        // saturations don't oversubscribe the host.
        let host = std::thread::available_parallelism().map_or(1, |n| n.get());
        let budget = (host / workers).max(1);
        config.optimizer.parallel.threads = config.optimizer.parallel.threads.min(budget);
        // the queue must at least fit one job per worker or the pool
        // could idle while try_optimize rejects
        let queue_capacity = config.queue_capacity.max(workers);
        let stats = ServiceStats::default();
        let stripes = config.shards.max(1);
        let inner = Arc::new(Inner {
            cache: ShardedCache::new(config.shards, config.capacity, stats.cache_instruments()),
            stats,
            inflight: (0..stripes).map(|_| Mutex::new(HashMap::new())).collect(),
            panic_injections: AtomicU32::new(0),
            config,
        });
        let pool = {
            let inner = inner.clone();
            WorkerPool::bounded("spores-opt", workers, queue_capacity, move |job: Job| {
                inner.fly(&job.work, &job.fp);
            })
        };
        OptimizerService { inner, pool }
    }

    /// Live counters.
    pub fn stats(&self) -> StatsSnapshot {
        self.inner
            .stats
            .snapshot(self.inner.cache.evictions(), self.pool.queue_depth())
    }

    /// Latency quantile (µs upper bound) over all served requests.
    pub fn latency_quantile_us(&self, q: f64) -> u64 {
        self.inner.stats.latency.quantile_us(q)
    }

    /// Prometheus-style text exposition of the service metrics:
    /// hits/misses/coalesced/cost-rejections/evictions,
    /// `spores_service_recheck_memo_hits` (hits that skipped the cost
    /// re-check on a remembered verdict), the backpressure
    /// gauges (`spores_service_queue_depth`, backpressure
    /// `spores_service_rejections`, `spores_service_inline_runs`), the
    /// cache contention instruments
    /// (`spores_service_cache_probe_contended`,
    /// `spores_service_shard_lock_wait_us`,
    /// `spores_service_cache_shard_poisoned`) plus the request latency
    /// histogram with explicit `le="<µs>"` bucket bounds. Serve this as
    /// a scrape endpoint body or dump it for ad-hoc inspection.
    pub fn metrics_text(&self) -> String {
        self.inner
            .stats
            .render_text(self.inner.cache.evictions(), self.pool.queue_depth())
    }

    /// Number of cached plan templates, statements and bundles together.
    pub fn cached_plans(&self) -> usize {
        self.inner.cache.len()
    }

    /// Jobs waiting in the bounded miss queue right now.
    pub fn queue_depth(&self) -> usize {
        self.pool.queue_depth()
    }

    /// Capacity of the bounded miss queue.
    pub fn queue_capacity(&self) -> usize {
        self.pool.capacity()
    }

    /// Test hook: make the next `n` pipeline runs panic (on whichever
    /// thread executes them) to exercise worker-panic containment.
    #[doc(hidden)]
    pub fn inject_pipeline_panics(&self, n: u32) {
        self.inner.panic_injections.store(n, Ordering::Relaxed);
    }

    /// Optimize one request, consulting the plan cache. Blocking: a miss
    /// waits for the pipeline; when the bounded queue is full the
    /// pipeline runs inline on this thread (caller-runs backpressure).
    pub fn optimize(&self, request: Request) -> Result<Served, ServiceError> {
        let mut req_span = spores_telemetry::span!("service.request");
        let out = self.serve(&Work::Statement(request))?;
        req_span.arg("source", out.source.label());
        Ok(out.served())
    }

    /// Optimize a whole workload bundle as ONE unit, through the same
    /// flow as [`OptimizerService::optimize`]: a single workload-level
    /// fingerprint keys the cache, a hit re-instantiates the entire
    /// multi-root template (µs), and a miss runs the shared one-pass
    /// pipeline ([`spores_core::Optimizer::optimize_workload`]) on the
    /// worker pool and caches the α-renamed result.
    pub fn optimize_workload(
        &self,
        request: WorkloadRequest,
    ) -> Result<ServedWorkload, ServiceError> {
        let mut req_span = spores_telemetry::span!(
            "service.request",
            kind = "workload",
            roots = request.workload.roots.len(),
        );
        let work = Work::Bundle(request);
        let out = self.serve(&work)?;
        req_span.arg("source", out.source.label());
        Ok(ServedWorkload {
            roots: work.root_names().zip(out.roots).collect(),
            arena: out.arena,
            cost: out.cost,
            source: out.source,
            latency: out.latency,
            timings: out.plan.timings,
            converged: out.plan.converged,
            timed_out: out.plan.timed_out,
            e_nodes: out.plan.e_nodes,
        })
    }

    /// Non-blocking front door: returns the hit synchronously, a
    /// [`Ticket`] for an in-flight miss, or a typed
    /// [`ServiceError::Overloaded`] rejection when the bounded queue is
    /// full. One thread can hold any number of outstanding tickets and
    /// poll them, which is what lets a single front-end thread multiplex
    /// thousands of in-flight requests.
    pub fn try_optimize(&self, request: Request) -> Result<TryOptimize<'_>, ServiceError> {
        let work = Work::Statement(request);
        match self.start(&work, true)? {
            Started::Hit(out) => {
                // synchronous completion: give the hit its request span here
                // (pending tickets conclude later, outside any span scope)
                let mut req_span = spores_telemetry::span!("service.request");
                req_span.arg("source", "hit");
                Ok(TryOptimize::Ready(out.served()))
            }
            Started::Flying(flight) => Ok(TryOptimize::Pending(Ticket {
                svc: self,
                work,
                flight,
                done: false,
            })),
        }
    }

    /// Optimize a whole workload: hits are served inline, misses fan out
    /// across the worker pool concurrently (instead of one blocking
    /// round-trip per statement).
    pub fn optimize_batch(&self, requests: Vec<Request>) -> Vec<Result<Served, ServiceError>> {
        // One span for the whole batch: per-request spans would
        // interleave begin/ends on this thread (all submits, then all
        // waits), breaking the stack discipline the trace format needs.
        let _span = spores_telemetry::span!("service.batch", requests = requests.len());
        // every request starts (its own latency clock included) before
        // any miss is waited on
        let started: Vec<_> = requests
            .into_iter()
            .map(|request| {
                let work = Work::Statement(request);
                self.start(&work, false).map(|s| (work, s))
            })
            .collect();
        started
            .into_iter()
            .map(|s| match s? {
                (_, Started::Hit(out)) => Ok(out.served()),
                (work, Started::Flying(flight)) => self.finish(&work, &flight).map(Outcome::served),
            })
            .collect()
    }

    // ---- request plumbing -----------------------------------------------

    /// The blocking flow of one unit of work.
    fn serve(&self, work: &Work) -> Result<Outcome, ServiceError> {
        match self.start(work, false)? {
            Started::Hit(out) => Ok(out),
            Started::Flying(flight) => self.finish(work, &flight),
        }
    }

    /// The caller's-thread half of every entry point: a hit, or a claim
    /// on a flight. A miss registers in the striped single-flight table;
    /// the first registrant enqueues the job. On a full queue the
    /// non-blocking door rejects (`reject_when_full`) and the blocking
    /// ones run the flight inline.
    fn start(&self, work: &Work, reject_when_full: bool) -> Result<Started, ServiceError> {
        let t0 = Instant::now();
        let fp = work.fingerprint()?;
        if let Some(hit) = self.try_hit(work, &fp, t0) {
            return Ok(Started::Hit(hit));
        }
        let (tx, rx) = channel::<FlightResult>();
        let coalesced = {
            let mut stripe = Inner::lock_stripe(self.inner.stripe(&fp));
            match stripe.get_mut(fp.canon()) {
                Some(waiters) => {
                    waiters.push(tx);
                    true
                }
                None => {
                    stripe.insert(fp.canon().to_string(), vec![tx]);
                    false
                }
            }
        };
        if !coalesced {
            let job = Job {
                work: work.clone(),
                fp: fp.clone(),
            };
            match self.pool.try_submit(job) {
                Ok(()) => {}
                Err(TrySubmitError::Full(_)) if reject_when_full => {
                    // reject-with-retry-after: drain our entry and
                    // bounce any waiters that coalesced onto it in the
                    // registration window
                    self.inner.stats.rejections.inc();
                    self.inner.resolve(&fp, &Err(FlightError::Rejected));
                    return Err(self.overloaded());
                }
                Err(TrySubmitError::Shutdown(_)) if reject_when_full => {
                    // dropping the entry disconnects racing waiters,
                    // whose recv then reports Shutdown too
                    Inner::lock_stripe(self.inner.stripe(&fp)).remove(fp.canon());
                    return Err(ServiceError::Shutdown);
                }
                Err(full_or_shutdown) => {
                    // caller-runs backpressure: our entry stays in the
                    // table so racing duplicates coalesce onto this
                    // inline run, which resolves them and us alike
                    if matches!(full_or_shutdown, TrySubmitError::Full(_)) {
                        self.inner.stats.inline_runs.inc();
                    }
                    self.inner.fly(work, &fp);
                }
            }
        }
        Ok(Started::Flying(Flight {
            fp,
            rx,
            coalesced,
            t0,
        }))
    }

    /// The cache-hit fast path: a read-locked cache probe, then
    /// instantiate + cost re-check, all on the caller's thread. No
    /// worker queue, no inflight table, no exclusive lock.
    fn try_hit(&self, work: &Work, fp: &Fingerprint, t0: Instant) -> Option<Outcome> {
        let mut probe_span = spores_telemetry::span!("service.cache_probe");
        let shapes = slot_shapes(fp, work.vars());
        let plan = self.inner.cache.get(fp, &shapes)?;
        match self.instantiate(work, fp, plan) {
            Ok(out) => {
                probe_span.arg("outcome", "hit");
                Some(self.tally(out, PlanSource::Hit, t0))
            }
            Err(RejectedHit) => {
                probe_span.arg("outcome", "rejected");
                self.inner.stats.cost_rejections.add(1);
                None
            }
        }
    }

    /// α-instantiate a template for this request's symbols, at the
    /// template's own cost.
    fn materialize(plan: Arc<CachedPlan>, fp: &Fingerprint) -> Outcome {
        let (arena, roots) = plan
            .arena
            .rename_vars_multi(&plan.roots, &fp.from_template_map());
        Outcome {
            arena,
            roots,
            cost: plan.cost,
            source: PlanSource::Miss,
            latency: Duration::ZERO,
            plan,
        }
    }

    /// Instantiate a cached template for this request and re-check its
    /// cost against the caller's own plan at the caller's metadata.
    fn instantiate(
        &self,
        work: &Work,
        fp: &Fingerprint,
        plan: Arc<CachedPlan>,
    ) -> Result<Outcome, RejectedHit> {
        let mut out = Self::materialize(plan, fp);
        let vars = work.vars();
        out.cost = self.verdict(&out.plan.verdicts, verdict_key(fp, vars), || {
            let roots = out.roots.iter();
            let cost = roots
                .map(|&root| plan_cost(&out.arena, root, vars).ok())
                .sum::<Option<f64>>()?;
            Some((cost, work.input_cost()?))
        })?;
        Ok(out)
    }

    /// The cost to serve a cached plan at, or a rejection. A verdict the
    /// entry remembered for exactly this metadata is reused as is;
    /// otherwise `price` gives `(plan cost, input cost)` at the caller's
    /// metadata and an accept is remembered.
    fn verdict(
        &self,
        verdicts: &Verdicts,
        key: VerdictKey,
        price: impl FnOnce() -> Option<(f64, f64)>,
    ) -> Result<f64, RejectedHit> {
        if let Some(cost) = verdicts.get(&key) {
            self.inner.stats.recheck_memo_hits.inc();
            return Ok(cost);
        }
        // a template priced worse than the caller's own input plan (or
        // one that no longer type-checks) must not be served
        let (cost, input_cost) = price().ok_or(RejectedHit)?;
        if cost > input_cost * (1.0 + COST_SLACK) + COST_EPS {
            return Err(RejectedHit);
        }
        verdicts.record(key, cost);
        Ok(cost)
    }

    /// Count a concluded request under its source and stamp its latency.
    fn tally(&self, mut out: Outcome, source: PlanSource, t0: Instant) -> Outcome {
        let stats = &self.inner.stats;
        match source {
            PlanSource::Hit => stats.hits.add(1),
            PlanSource::Miss => stats.misses.add(1),
            PlanSource::Coalesced => stats.coalesced.add(1),
        }
        out.source = source;
        out.latency = t0.elapsed();
        stats.latency.record(out.latency);
        out
    }

    /// Typed backpressure error with the current queue state.
    fn overloaded(&self) -> ServiceError {
        let queue_depth = self.pool.queue_depth();
        // heuristic retry hint: assume a few ms per queued compile
        let retry_after = Duration::from_millis(((queue_depth as u64 + 1) * 2).min(100));
        ServiceError::Overloaded {
            queue_depth,
            capacity: self.queue_capacity(),
            retry_after,
        }
    }

    /// Wait for the in-flight computation and serve its result.
    fn finish(&self, work: &Work, flight: &Flight) -> Result<Outcome, ServiceError> {
        let wait_span = spores_telemetry::span!("service.queue_wait", coalesced = flight.coalesced);
        let result = flight.rx.recv().map_err(|_| ServiceError::Shutdown)?;
        drop(wait_span);
        self.conclude_miss(work, flight, result)
    }

    /// Run the pipeline on the caller's thread and serve it as a miss —
    /// the shared tail of every degraded path (rejected hit, bounced
    /// flight).
    fn run_inline_miss(
        &self,
        work: &Work,
        fp: &Fingerprint,
        t0: Instant,
    ) -> Result<Outcome, ServiceError> {
        let plan = self
            .inner
            .run_pipeline(work, fp)
            .map_err(ServiceError::Invalid)?;
        Ok(self.tally(Self::materialize(plan, fp), PlanSource::Miss, t0))
    }

    /// Turn a pipeline result into a served plan for *this* request.
    fn conclude_miss(
        &self,
        work: &Work,
        flight: &Flight,
        result: FlightResult,
    ) -> Result<Outcome, ServiceError> {
        let Flight { fp, t0, .. } = flight;
        let plan = match result {
            Ok(plan) => plan,
            // Our flight leader hit a full queue and bounced us. Only the
            // *leader* (a try_optimize caller) surfaces Overloaded;
            // waiters keep their contract — a plan, at caller-runs cost.
            Err(FlightError::Rejected) => {
                self.inner.stats.inline_runs.inc();
                return self.run_inline_miss(work, fp, *t0);
            }
            Err(FlightError::Failed(m)) => return Err(ServiceError::Invalid(m)),
            Err(FlightError::Panicked(m)) => return Err(ServiceError::WorkerPanic(m)),
        };
        // The submitter's result was computed from this very request by
        // the (deterministic) pipeline — serve it as-is; re-checking it
        // could only trigger a pointless identical re-run. A *coalesced*
        // waiter shares a result computed at the submitter's sizes, so it
        // reuses it only under the same admission + cost re-check rule as
        // a cache hit; otherwise it runs its own pipeline inline (the
        // cache now likely holds the template, so this is rare).
        if !flight.coalesced {
            return Ok(self.tally(Self::materialize(plan, fp), PlanSource::Miss, *t0));
        }
        let shapes = slot_shapes(fp, work.vars());
        match Some(plan)
            .filter(|plan| plan.admits(&shapes))
            .map(|plan| self.instantiate(work, fp, plan))
        {
            Some(Ok(out)) => Ok(self.tally(out, PlanSource::Coalesced, *t0)),
            _ => {
                self.inner.stats.cost_rejections.add(1);
                self.run_inline_miss(work, fp, *t0)
            }
        }
    }
}

/// Outcome of [`OptimizerService::try_optimize`]: either the request
/// completed synchronously on the caller's thread (a warm hit), or it is
/// in flight and the caller holds a [`Ticket`].
#[allow(clippy::large_enum_variant)]
pub enum TryOptimize<'s> {
    /// Completed synchronously (cache hit, served in µs).
    Ready(Served),
    /// In flight: poll or wait on the ticket.
    Pending(Ticket<'s>),
}

/// A claim on an in-flight optimization. Obtained from
/// [`OptimizerService::try_optimize`]; completed by [`Ticket::poll`]
/// (non-blocking) or [`Ticket::wait`] (blocking). Dropping a ticket
/// abandons the request — the flight still completes and populates the
/// cache, the result is simply not delivered.
pub struct Ticket<'s> {
    svc: &'s OptimizerService,
    work: Work,
    flight: Flight,
    done: bool,
}

impl Ticket<'_> {
    /// Did this ticket coalesce onto an identical in-flight request?
    pub fn coalesced(&self) -> bool {
        self.flight.coalesced
    }

    /// Non-blocking completion check: `None` while the flight is still
    /// running, `Some(result)` exactly once when it concludes (later
    /// polls return `None` again — use the first `Some`).
    pub fn poll(&mut self) -> Option<Result<Served, ServiceError>> {
        if self.done {
            return None;
        }
        let result = match self.flight.rx.try_recv() {
            Ok(result) => self.svc.conclude_miss(&self.work, &self.flight, result),
            Err(TryRecvError::Empty) => return None,
            Err(TryRecvError::Disconnected) => Err(ServiceError::Shutdown),
        };
        self.done = true;
        Some(result.map(Outcome::served))
    }

    /// Block until the flight concludes. Records a `service.queue_wait`
    /// span for the blocked interval — the span warm hits must never
    /// produce.
    pub fn wait(self) -> Result<Served, ServiceError> {
        if self.done {
            return Err(ServiceError::Shutdown);
        }
        self.svc
            .finish(&self.work, &self.flight)
            .map(Outcome::served)
    }
}

/// Marker: a cached template failed the hit admission/cost re-check.
struct RejectedHit;
