//! The concurrent optimizer front-end — a **two-tier** serving stack.
//!
//! Request lifecycle:
//!
//! ```text
//! request ── fingerprint ──► cache hit? ── verdict remembered? ──yes──► instantiate ──► serve (µs)
//!                │ miss                         │ no
//!                │                              ▼
//!                │                 instantiate + cost re-check ──pass──► remember ──► serve (µs)
//!                │                              │ fail
//!                ▼                              ▼
//!        in-flight already? ──yes──► ticket (coalesce)     inline pipeline
//!                │ no
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
//!   backpressure instead of unbounded buffering. The blocking
//!   [`OptimizerService::optimize`] keeps its total API by running the
//!   pipeline inline when the queue is full (caller-runs throttling).
//! * **Hits** never run saturation: the cached template is α-instantiated
//!   with the caller's symbols and re-priced under the caller's concrete
//!   metadata ([`spores_core::plan_cost`]); if the template prices worse
//!   than the caller's own input plan (beyond a small slack for
//!   estimator drift, [`COST_SLACK`]) — possible when sizes drifted
//!   within a sparsity bucket — the hit is rejected and the request falls
//!   through to the full pipeline, so a hit is never meaningfully worse
//!   than what greedy re-optimization would have returned for the input.
//!   Each entry remembers its accepted verdicts per exact request
//!   metadata (seeded with the producing request's own), so a repeated
//!   request skips the re-check and costs fingerprint + probe +
//!   α-instantiation.
//! * **Single-flight**: concurrent identical fingerprints run the
//!   pipeline once; the rest wait on the same computation. A panicking
//!   pipeline resolves every waiter with a typed
//!   [`ServiceError::WorkerPanic`] and drains its inflight entry — no
//!   leaked senders, no permanently wedged key.
//! * **Size-pinned templates** (plans that embed concrete dimension
//!   constants, see [`spores_core::Optimized::size_polymorphic`]) are
//!   only reused at exactly the sizes they were optimized for.

use crate::cache::{CacheEntry, CachedPlan, PlanTemplate, ShardedCache, VerdictKey, Verdicts};
use crate::stats::{ServiceStats, StatsSnapshot};
use crate::workload::{CachedWorkloadPlan, ServedWorkload, WorkloadRequest};
use spores_core::{
    plan_cost, workload_plan_cost, Optimized, Optimizer, OptimizerConfig, PhaseTimings, VarMeta,
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
    /// Total cached plan templates across shards.
    pub capacity: usize,
    /// Worker threads running the pipeline for misses.
    pub workers: usize,
    /// Size-pinned variants kept per canonical fingerprint.
    pub max_variants: usize,
    /// Bounded miss-queue capacity (jobs buffered beyond the workers).
    /// When full, [`OptimizerService::try_optimize`] rejects with
    /// [`ServiceError::Overloaded`] and [`OptimizerService::optimize`]
    /// runs the pipeline inline on the caller's thread.
    pub queue_capacity: usize,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            optimizer: OptimizerConfig::default(),
            shards: 8,
            capacity: 1024,
            workers: 4,
            max_variants: 8,
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
    /// The worker running this request's (or its coalesced leader's)
    /// pipeline panicked. The inflight entry has been drained — an
    /// immediate retry starts a fresh flight.
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

struct Job {
    request: Request,
    fp: Fingerprint,
}

struct Inner {
    config: ServiceConfig,
    cache: ShardedCache,
    /// Workload-level plan cache: one entry per whole statement bundle.
    workload_cache: ShardedCache<CachedWorkloadPlan>,
    stats: ServiceStats,
    /// canon → waiters (single-flight registry), striped by fingerprint
    /// hash like the cache shards so concurrent misses on different
    /// shapes don't serialize on one global mutex. The submitting
    /// request's own sender is registered too, so the worker resolves
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
    fn run_pipeline(&self, request: &Request, fp: &Fingerprint) -> Result<Arc<CachedPlan>, String> {
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
        let got: Optimized = optimizer
            .optimize(&request.arena, request.root, &request.vars)
            .map_err(|e| e.to_string())?;
        // α-rename the optimized plan into template space ($0, $1, …)
        let (tpl_arena, tpl_root) = got.arena.rename_vars(got.root, &fp.to_template_map());
        let plan = Arc::new(CachedPlan {
            template: PlanTemplate {
                arena: tpl_arena,
                root: tpl_root,
            },
            cost: got.cost_after,
            timings: got.timings,
            converged: got.saturation.converged,
            timed_out: matches!(
                got.saturation.stop_reason,
                Some(spores_egraph::StopReason::TimeLimit(_))
            ),
            e_nodes: got.saturation.e_nodes,
            size_polymorphic: got.size_polymorphic,
            slot_shapes: slot_shapes(fp, &request.vars),
            // the miss serves this plan to this request unchecked, so a
            // repeat of it may be served the same way
            verdicts: Verdicts::seeded(verdict_key(fp, &request.vars), got.cost_after),
        });
        if !got.fell_back {
            self.cache.insert(fp, plan.clone());
        }
        Ok(plan)
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
        let instruments = stats.cache_instruments();
        let stripes = config.shards.max(1);
        let inner = Arc::new(Inner {
            cache: ShardedCache::new(config.shards, config.capacity, config.max_variants)
                .with_instruments(instruments.clone()),
            workload_cache: ShardedCache::new(config.shards, config.capacity, config.max_variants)
                .with_instruments(instruments),
            stats,
            inflight: (0..stripes).map(|_| Mutex::new(HashMap::new())).collect(),
            panic_injections: AtomicU32::new(0),
            config,
        });
        let pool = {
            let inner = inner.clone();
            WorkerPool::bounded("spores-opt", workers, queue_capacity, move |job: Job| {
                // A panicking pipeline must still resolve the in-flight
                // entry — otherwise the submitter and every coalesced
                // waiter block on their receivers forever. The panic is
                // surfaced to them as a typed FlightError::Panicked.
                let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    inner
                        .run_pipeline(&job.request, &job.fp)
                        .map_err(FlightError::Failed)
                }))
                .unwrap_or_else(|panic| {
                    let msg = panic
                        .downcast_ref::<&str>()
                        .map(|s| s.to_string())
                        .or_else(|| panic.downcast_ref::<String>().cloned())
                        .unwrap_or_else(|| "optimizer pipeline panicked".to_string());
                    inner.stats.worker_panics.inc();
                    Err(FlightError::Panicked(msg))
                });
                inner.resolve(&job.fp, &result);
            })
        };
        OptimizerService { inner, pool }
    }

    /// Live counters (evictions summed over both plan caches).
    pub fn stats(&self) -> StatsSnapshot {
        self.inner.stats.snapshot(
            self.inner.cache.evictions() + self.inner.workload_cache.evictions(),
            self.pool.queue_depth(),
        )
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
        self.inner.stats.render_text(
            self.inner.cache.evictions() + self.inner.workload_cache.evictions(),
            self.pool.queue_depth(),
        )
    }

    /// Write the process-global telemetry journal as Chrome trace-event
    /// JSON to `path`, draining it (collection must have been enabled,
    /// e.g. via `OptimizerConfig::telemetry` on this service's
    /// pipeline config). Load the file in `chrome://tracing` or
    /// <https://ui.perfetto.dev>.
    pub fn dump_trace(&self, path: &std::path::Path) -> std::io::Result<()> {
        spores_telemetry::dump_chrome_trace(path)
    }

    /// Number of cached plan templates.
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
        let result = self.optimize_inner(request);
        if let Ok(served) = &result {
            req_span.arg(
                "source",
                match served.source {
                    PlanSource::Hit => "hit",
                    PlanSource::Miss => "miss",
                    PlanSource::Coalesced => "coalesced",
                },
            );
        }
        result
    }

    fn optimize_inner(&self, request: Request) -> Result<Served, ServiceError> {
        let t0 = Instant::now();
        let fp = self.fingerprint_request(&request)?;

        if let Some(served) = self.try_hit(&request, &fp, t0) {
            return Ok(served);
        }

        match self.submit_blocking(&request, &fp) {
            Submission::Wait { rx, coalesced } => self.finish(&request, &fp, rx, coalesced, t0),
            Submission::Inline => {
                let result = self
                    .inner
                    .run_pipeline(&request, &fp)
                    .map_err(FlightError::Failed);
                self.inner.resolve(&fp, &result);
                self.conclude_miss(&request, &fp, result, PlanSource::Miss, t0)
            }
        }
    }

    /// Non-blocking front door: returns the hit synchronously, a
    /// [`Ticket`] for an in-flight miss, or a typed
    /// [`ServiceError::Overloaded`] rejection when the bounded queue is
    /// full. One thread can hold any number of outstanding tickets and
    /// poll them, which is what lets a single front-end thread multiplex
    /// thousands of in-flight requests.
    pub fn try_optimize(&self, request: Request) -> Result<TryOptimize<'_>, ServiceError> {
        let t0 = Instant::now();
        let fp = self.fingerprint_request(&request)?;

        if let Some(served) = self.try_hit(&request, &fp, t0) {
            // synchronous completion: give the hit its request span here
            // (pending tickets conclude later, outside any span scope)
            let mut req_span = spores_telemetry::span!("service.request");
            req_span.arg("source", "hit");
            return Ok(TryOptimize::Ready(served));
        }

        match self.register(&fp) {
            Registration::Coalesced(rx) => Ok(TryOptimize::Pending(Ticket {
                svc: self,
                request,
                fp,
                rx,
                coalesced: true,
                t0,
                done: false,
            })),
            Registration::First(rx) => {
                let job = Job {
                    request: request.clone(),
                    fp: fp.clone(),
                };
                match self.pool.try_submit(job) {
                    Ok(()) => Ok(TryOptimize::Pending(Ticket {
                        svc: self,
                        request,
                        fp,
                        rx,
                        coalesced: false,
                        t0,
                        done: false,
                    })),
                    Err(TrySubmitError::Full(_)) => {
                        // reject-with-retry-after: drain our entry and
                        // bounce any waiters that coalesced onto it in
                        // the registration window
                        self.inner.stats.rejections.inc();
                        self.inner.resolve(&fp, &Err(FlightError::Rejected));
                        Err(self.overloaded())
                    }
                    Err(TrySubmitError::Shutdown(_)) => {
                        // dropping the entry disconnects racing waiters,
                        // whose recv then reports Shutdown too
                        Inner::lock_stripe(self.inner.stripe(&fp)).remove(fp.canon());
                        Err(ServiceError::Shutdown)
                    }
                }
            }
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
        enum Pending {
            Done(Result<Served, ServiceError>),
            Wait {
                request: Request,
                fp: Fingerprint,
                rx: Receiver<FlightResult>,
                coalesced: bool,
                t0: Instant,
            },
        }
        let pending: Vec<Pending> = requests
            .into_iter()
            .map(|request| {
                // per-request clock: a request's latency spans from when
                // *it* starts processing (not from batch start) to when
                // its result is ready — for waiters that includes the
                // in-flight pipeline run they queue behind
                let t0 = Instant::now();
                let fp = match self.fingerprint_request(&request) {
                    Ok(fp) => fp,
                    Err(e) => return Pending::Done(Err(e)),
                };
                if let Some(served) = self.try_hit(&request, &fp, t0) {
                    return Pending::Done(Ok(served));
                }
                match self.submit_blocking(&request, &fp) {
                    Submission::Wait { rx, coalesced } => Pending::Wait {
                        request,
                        fp,
                        rx,
                        coalesced,
                        t0,
                    },
                    Submission::Inline => {
                        let result = self
                            .inner
                            .run_pipeline(&request, &fp)
                            .map_err(FlightError::Failed);
                        self.inner.resolve(&fp, &result);
                        Pending::Done(self.conclude_miss(
                            &request,
                            &fp,
                            result,
                            PlanSource::Miss,
                            t0,
                        ))
                    }
                }
            })
            .collect();
        pending
            .into_iter()
            .map(|p| match p {
                Pending::Done(r) => r,
                Pending::Wait {
                    request,
                    fp,
                    rx,
                    coalesced,
                    t0,
                } => self.finish(&request, &fp, rx, coalesced, t0),
            })
            .collect()
    }

    /// Optimize a whole workload bundle as ONE unit: a single
    /// workload-level fingerprint keys the cache, a hit re-instantiates
    /// the entire multi-root template (µs), and a miss runs the shared
    /// one-pass pipeline ([`spores_core::Optimizer::optimize_workload`])
    /// inline and caches the α-renamed result.
    pub fn optimize_workload(
        &self,
        request: WorkloadRequest,
    ) -> Result<ServedWorkload, ServiceError> {
        let mut req_span = spores_telemetry::span!(
            "service.request",
            kind = "workload",
            roots = request.workload.roots.len(),
        );
        let t0 = Instant::now();
        let classes: HashMap<Symbol, LeafClass> = request
            .vars
            .iter()
            .map(|(&s, m)| (s, LeafClass::classify(m.shape, m.sparsity)))
            .collect();
        let fp = fingerprint_workload(&request.workload.arena, &request.workload.roots, &classes)
            .map_err(|e| ServiceError::Invalid(e.to_string()))?;
        let shapes = slot_shapes(&fp, &request.vars);

        if let Some(plan) = self.inner.workload_cache.get(&fp, &shapes) {
            let probe_span = spores_telemetry::span!("service.cache_probe", kind = "workload");
            let outcome = self.instantiate_workload(&request, &fp, &plan);
            drop(probe_span);
            match outcome {
                Ok(mut served) => {
                    self.inner.stats.hits.add(1);
                    req_span.arg("source", "hit");
                    served.latency = t0.elapsed();
                    self.inner.stats.latency.record(served.latency);
                    return Ok(served);
                }
                Err(RejectedHit) => {
                    self.inner.stats.cost_rejections.add(1);
                }
            }
        }

        // miss: run the shared pipeline inline (workload compiles are
        // whole-program requests — rare and heavyweight enough that the
        // per-statement worker pool's coalescing matters little here).
        // The pipeline's own output is served directly; only the cache
        // keeps the α-renamed template copy.
        let (plan, arena, roots) = self.run_workload_pipeline(&request, &fp, &shapes)?;
        self.inner.stats.misses.add(1);
        req_span.arg("source", "miss");
        let latency = t0.elapsed();
        self.inner.stats.latency.record(latency);
        Ok(ServedWorkload {
            arena,
            roots,
            cost: plan.cost,
            source: PlanSource::Miss,
            latency,
            timings: plan.timings,
            converged: plan.converged,
            timed_out: plan.timed_out,
            e_nodes: plan.e_nodes,
        })
    }

    /// Run the workload pipeline, cache the α-renamed multi-root
    /// template, and return it along with the pipeline's direct output
    /// (already in the caller's symbols — no re-instantiation needed).
    #[allow(clippy::type_complexity)]
    fn run_workload_pipeline(
        &self,
        request: &WorkloadRequest,
        fp: &Fingerprint,
        shapes: &[Shape],
    ) -> Result<(Arc<CachedWorkloadPlan>, ExprArena, Vec<(Symbol, NodeId)>), ServiceError> {
        let _span = spores_telemetry::span!("service.compile", kind = "workload");
        let optimizer = Optimizer::new(self.inner.config.optimizer.clone());
        let got = optimizer
            .optimize_workload(&request.workload, &request.vars)
            .map_err(|e| ServiceError::Invalid(e.to_string()))?;
        let root_ids: Vec<NodeId> = got.roots.iter().map(|&(_, id)| id).collect();
        let (tpl_arena, tpl_roots) = got
            .arena
            .rename_vars_multi(&root_ids, &fp.to_template_map());
        let cost = workload_plan_cost(&got.arena, &got.roots, &request.vars)
            .map_err(|e| ServiceError::Invalid(e.to_string()))?;
        let plan = Arc::new(CachedWorkloadPlan {
            arena: tpl_arena,
            roots: tpl_roots,
            cost,
            timings: got.timings,
            converged: got.saturation.converged,
            timed_out: matches!(
                got.saturation.stop_reason,
                Some(spores_egraph::StopReason::TimeLimit(_))
            ),
            e_nodes: got.saturation.e_nodes,
            size_polymorphic: got.size_polymorphic,
            slot_shapes: shapes.to_vec(),
            verdicts: Verdicts::seeded(verdict_key(fp, &request.vars), cost),
        });
        if !got.fell_back {
            self.inner.workload_cache.insert(fp, plan.clone());
        }
        Ok((plan, got.arena, got.roots))
    }

    /// α-instantiate a workload template for this request's symbols; the
    /// caller's root names are re-attached positionally.
    fn materialize_workload(
        plan: &CachedWorkloadPlan,
        request: &WorkloadRequest,
        fp: &Fingerprint,
    ) -> (ExprArena, Vec<(Symbol, NodeId)>) {
        let (arena, roots) = plan
            .arena
            .rename_vars_multi(&plan.roots, &fp.from_template_map());
        let named = request
            .workload
            .roots
            .iter()
            .map(|&(name, _)| name)
            .zip(roots)
            .collect();
        (arena, named)
    }

    /// Instantiate a cached workload template and re-check its summed
    /// cost against the caller's own statements at the caller's metadata.
    fn instantiate_workload(
        &self,
        request: &WorkloadRequest,
        fp: &Fingerprint,
        plan: &CachedWorkloadPlan,
    ) -> Result<ServedWorkload, RejectedHit> {
        let (arena, roots) = Self::materialize_workload(plan, request, fp);
        let cost = self.verdict(&plan.verdicts, verdict_key(fp, &request.vars), || {
            let input = &request.workload;
            Some((
                workload_plan_cost(&arena, &roots, &request.vars).ok()?,
                workload_plan_cost(&input.arena, &input.roots, &request.vars).ok()?,
            ))
        })?;
        Ok(ServedWorkload {
            arena,
            roots,
            cost,
            source: PlanSource::Hit,
            latency: Duration::ZERO,
            timings: plan.timings,
            converged: plan.converged,
            timed_out: plan.timed_out,
            e_nodes: plan.e_nodes,
        })
    }

    // ---- request plumbing -----------------------------------------------

    fn fingerprint_request(&self, request: &Request) -> Result<Fingerprint, ServiceError> {
        let classes: HashMap<Symbol, LeafClass> = request
            .vars
            .iter()
            .map(|(&s, m)| (s, LeafClass::classify(m.shape, m.sparsity)))
            .collect();
        fingerprint(&request.arena, request.root, &classes)
            .map_err(|e| ServiceError::Invalid(e.to_string()))
    }

    /// The cache-hit fast path: a read-locked cache probe, then
    /// instantiate + cost re-check, all on the caller's thread. No
    /// worker queue, no inflight table, no exclusive lock.
    fn try_hit(&self, request: &Request, fp: &Fingerprint, t0: Instant) -> Option<Served> {
        let mut probe_span = spores_telemetry::span!("service.cache_probe");
        let shapes = slot_shapes(fp, &request.vars);
        let plan = self.inner.cache.get(fp, &shapes)?;
        match self.instantiate(request, fp, &plan) {
            Ok(served) => {
                probe_span.arg("outcome", "hit");
                self.inner.stats.hits.add(1);
                let latency = t0.elapsed();
                self.inner.stats.latency.record(latency);
                Some(Served {
                    latency,
                    source: PlanSource::Hit,
                    ..served
                })
            }
            Err(RejectedHit) => {
                probe_span.arg("outcome", "rejected");
                self.inner.stats.cost_rejections.add(1);
                None
            }
        }
    }

    /// α-instantiate a template for this request's symbols.
    fn materialize(plan: &CachedPlan, fp: &Fingerprint) -> (ExprArena, NodeId) {
        plan.template
            .arena
            .rename_vars(plan.template.root, &fp.from_template_map())
    }

    /// Package a materialized plan with the template's provenance facts
    /// (latency is stamped by the caller once the request concludes).
    fn served(
        plan: &CachedPlan,
        arena: ExprArena,
        root: NodeId,
        cost: f64,
        source: PlanSource,
    ) -> Served {
        Served {
            arena,
            root,
            cost,
            source,
            latency: Duration::ZERO,
            timings: plan.timings,
            converged: plan.converged,
            timed_out: plan.timed_out,
            e_nodes: plan.e_nodes,
        }
    }

    /// Instantiate a cached template for this request and re-check its
    /// cost against the caller's own plan at the caller's metadata.
    fn instantiate(
        &self,
        request: &Request,
        fp: &Fingerprint,
        plan: &CachedPlan,
    ) -> Result<Served, RejectedHit> {
        let (arena, root) = Self::materialize(plan, fp);
        let cost = self.verdict(&plan.verdicts, verdict_key(fp, &request.vars), || {
            Some((
                plan_cost(&arena, root, &request.vars).ok()?,
                plan_cost(&request.arena, request.root, &request.vars).ok()?,
            ))
        })?;
        Ok(Self::served(plan, arena, root, cost, PlanSource::Hit))
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

    /// Register this fingerprint in the striped single-flight table.
    fn register(&self, fp: &Fingerprint) -> Registration {
        let (tx, rx) = channel::<FlightResult>();
        let mut stripe = Inner::lock_stripe(self.inner.stripe(fp));
        match stripe.get_mut(fp.canon()) {
            Some(waiters) => {
                waiters.push(tx);
                Registration::Coalesced(rx)
            }
            None => {
                stripe.insert(fp.canon().to_string(), vec![tx]);
                Registration::First(rx)
            }
        }
    }

    /// Register in the single-flight table and enqueue if first, for the
    /// blocking entry points: a full (or shut down) queue degrades to
    /// running the pipeline inline on the caller's thread.
    fn submit_blocking(&self, request: &Request, fp: &Fingerprint) -> Submission {
        match self.register(fp) {
            Registration::Coalesced(rx) => Submission::Wait {
                rx,
                coalesced: true,
            },
            Registration::First(rx) => {
                let job = Job {
                    request: request.clone(),
                    fp: fp.clone(),
                };
                match self.pool.try_submit(job) {
                    Ok(()) => Submission::Wait {
                        rx,
                        coalesced: false,
                    },
                    Err(TrySubmitError::Full(_)) => {
                        // caller-runs backpressure: our entry stays in
                        // the table so racing duplicates coalesce onto
                        // this inline run; resolve() wakes them
                        self.inner.stats.inline_runs.inc();
                        Submission::Inline
                    }
                    Err(TrySubmitError::Shutdown(_)) => Submission::Inline,
                }
            }
        }
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
    fn finish(
        &self,
        request: &Request,
        fp: &Fingerprint,
        rx: Receiver<FlightResult>,
        coalesced: bool,
        t0: Instant,
    ) -> Result<Served, ServiceError> {
        let wait_span = spores_telemetry::span!("service.queue_wait", coalesced = coalesced);
        let result = match rx.recv() {
            Ok(r) => r,
            Err(_) => return Err(ServiceError::Shutdown),
        };
        drop(wait_span);
        let source = if coalesced {
            PlanSource::Coalesced
        } else {
            PlanSource::Miss
        };
        self.conclude_miss(request, fp, result, source, t0)
    }

    /// Run the pipeline on the caller's thread and serve it as a miss —
    /// the shared tail of every degraded path (rejected hit, bounced
    /// flight).
    fn run_inline_miss(
        &self,
        request: &Request,
        fp: &Fingerprint,
        t0: Instant,
    ) -> Result<Served, ServiceError> {
        let plan = self
            .inner
            .run_pipeline(request, fp)
            .map_err(ServiceError::Invalid)?;
        let (arena, root) = Self::materialize(&plan, fp);
        self.inner.stats.misses.add(1);
        let latency = t0.elapsed();
        self.inner.stats.latency.record(latency);
        Ok(Served {
            latency,
            ..Self::served(&plan, arena, root, plan.cost, PlanSource::Miss)
        })
    }

    /// Turn a pipeline result into a served plan for *this* request.
    fn conclude_miss(
        &self,
        request: &Request,
        fp: &Fingerprint,
        result: FlightResult,
        source: PlanSource,
        t0: Instant,
    ) -> Result<Served, ServiceError> {
        let plan = match result {
            Ok(plan) => plan,
            // Our flight leader hit a full queue and bounced us. Only the
            // *leader* (a try_optimize caller) surfaces Overloaded;
            // waiters keep their contract — a plan, at caller-runs cost.
            Err(FlightError::Rejected) => {
                self.inner.stats.inline_runs.inc();
                return self.run_inline_miss(request, fp, t0);
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
        let my_shapes = slot_shapes(fp, &request.vars);
        let served = if source != PlanSource::Coalesced {
            let (arena, root) = Self::materialize(&plan, fp);
            Ok(Self::served(&plan, arena, root, plan.cost, source))
        } else if plan.admits(&my_shapes) {
            self.instantiate(request, fp, &plan)
        } else {
            Err(RejectedHit)
        };
        match served {
            Ok(served) => {
                match source {
                    PlanSource::Coalesced => self.inner.stats.coalesced.add(1),
                    _ => self.inner.stats.misses.add(1),
                };
                let latency = t0.elapsed();
                self.inner.stats.latency.record(latency);
                Ok(Served {
                    latency,
                    source,
                    ..served
                })
            }
            Err(RejectedHit) => {
                self.inner.stats.cost_rejections.add(1);
                self.run_inline_miss(request, fp, t0)
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
    request: Request,
    fp: Fingerprint,
    rx: Receiver<FlightResult>,
    coalesced: bool,
    t0: Instant,
    done: bool,
}

impl Ticket<'_> {
    /// Did this ticket coalesce onto an identical in-flight request?
    pub fn coalesced(&self) -> bool {
        self.coalesced
    }

    /// Non-blocking completion check: `None` while the flight is still
    /// running, `Some(result)` exactly once when it concludes (later
    /// polls return `None` again — use the first `Some`).
    pub fn poll(&mut self) -> Option<Result<Served, ServiceError>> {
        if self.done {
            return None;
        }
        match self.rx.try_recv() {
            Ok(result) => {
                self.done = true;
                Some(self.conclude(result))
            }
            Err(TryRecvError::Empty) => None,
            Err(TryRecvError::Disconnected) => {
                self.done = true;
                Some(Err(ServiceError::Shutdown))
            }
        }
    }

    /// Block until the flight concludes. Records a `service.queue_wait`
    /// span for the blocked interval — the span warm hits must never
    /// produce.
    pub fn wait(mut self) -> Result<Served, ServiceError> {
        if self.done {
            return Err(ServiceError::Shutdown);
        }
        let wait_span = spores_telemetry::span!("service.queue_wait", coalesced = self.coalesced);
        let result = match self.rx.recv() {
            Ok(r) => r,
            Err(_) => return Err(ServiceError::Shutdown),
        };
        drop(wait_span);
        self.done = true;
        self.conclude(result)
    }

    fn conclude(&self, result: FlightResult) -> Result<Served, ServiceError> {
        let source = if self.coalesced {
            PlanSource::Coalesced
        } else {
            PlanSource::Miss
        };
        self.svc
            .conclude_miss(&self.request, &self.fp, result, source, self.t0)
    }
}

enum Registration {
    /// An identical request is already in flight; we are a waiter.
    Coalesced(Receiver<FlightResult>),
    /// We are the first; our sender is registered alongside any future
    /// coalescers, and we own submitting the job.
    First(Receiver<FlightResult>),
}

enum Submission {
    Wait {
        rx: Receiver<FlightResult>,
        coalesced: bool,
    },
    Inline,
}

/// Marker: a cached template failed the hit admission/cost re-check.
struct RejectedHit;
