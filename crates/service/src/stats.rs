//! Service counters and the request-latency histogram, backed by a
//! private `spores_telemetry::Registry`.
//!
//! The counters used to be loose `AtomicU64` fields and the histogram a
//! hand-rolled log2 array; both now live in one per-service metrics
//! registry so the same instruments drive the snapshot API *and* the
//! Prometheus-style text exposition
//! ([`crate::OptimizerService::metrics_text`]). The registry is owned
//! per [`ServiceStats`] (not the process-global one), so concurrent
//! services in one process never mix their counters.

use crate::cache::CacheInstruments;
use spores_telemetry::{Counter, Gauge, Log2Histogram, Registry};
use std::sync::Arc;
use std::time::Duration;

/// Number of power-of-two latency buckets (µs) in [`LatencyHistogram`]
/// snapshots: bucket `k` counts requests with `latency_us` in
/// `[2^k, 2^(k+1))` (bucket 0 also takes sub-µs requests, the last
/// bucket everything beyond).
pub const LATENCY_BUCKETS: usize = 32;

/// Histogram over request latencies, log₂-spaced in microseconds — a
/// view over the registry's [`Log2Histogram`] that keeps the historical
/// 32-bucket snapshot shape (the underlying instrument spans all 64
/// power-of-two buckets; the text exposition renders those directly).
pub struct LatencyHistogram {
    inner: Arc<Log2Histogram>,
}

impl LatencyHistogram {
    pub fn record(&self, latency: Duration) {
        self.inner.record_duration(latency);
    }

    /// Bucket counts, index `k` covering `[2^k, 2^(k+1))` µs; counts
    /// beyond the last bucket's range fold into it.
    pub fn snapshot(&self) -> [u64; LATENCY_BUCKETS] {
        let full = self.inner.snapshot();
        let mut out = [0u64; LATENCY_BUCKETS];
        for (k, &c) in full.iter().enumerate() {
            out[k.min(LATENCY_BUCKETS - 1)] += c;
        }
        out
    }

    /// Explicit inclusive `(lower, upper)` µs bounds of snapshot bucket
    /// `k` — the semantics the text exposition's `le="..."` labels use.
    pub fn bucket_bounds_us(k: usize) -> (u64, u64) {
        assert!(k < LATENCY_BUCKETS);
        if k == LATENCY_BUCKETS - 1 {
            // the fold-in tail bucket is unbounded above
            (1u64 << k, u64::MAX)
        } else {
            Log2Histogram::bucket_bounds(k)
        }
    }

    /// Human-readable bound label for snapshot bucket `k`, e.g.
    /// `"512..1023us"`.
    pub fn bucket_label(k: usize) -> String {
        let (lo, hi) = Self::bucket_bounds_us(k);
        if hi == u64::MAX {
            format!("{lo}..+Infus")
        } else {
            format!("{lo}..{hi}us")
        }
    }

    /// Total recorded observations.
    pub fn count(&self) -> u64 {
        self.inner.count()
    }

    /// Approximate quantile (bucket upper bound), `q` in `[0, 1]`.
    pub fn quantile_us(&self, q: f64) -> u64 {
        self.inner.quantile(q)
    }
}

/// Live counters of an [`crate::OptimizerService`].
pub struct ServiceStats {
    registry: Registry,
    /// Requests served from the cache (template instantiated).
    pub hits: Arc<Counter>,
    /// Requests that ran the full pipeline.
    pub misses: Arc<Counter>,
    /// Requests that piggybacked on an identical in-flight optimization.
    pub coalesced: Arc<Counter>,
    /// Cache hits rejected by the cost re-check (the cached template
    /// priced worse than the caller's own plan at their sizes) and
    /// re-optimized from scratch.
    pub cost_rejections: Arc<Counter>,
    /// Hits (statement and workload) served on a verdict the entry
    /// remembered for this exact metadata, skipping the cost re-check.
    pub recheck_memo_hits: Arc<Counter>,
    /// `try_optimize` submissions rejected because the bounded miss
    /// queue was full (explicit backpressure).
    pub rejections: Arc<Counter>,
    /// Blocking calls that found the queue full and ran the pipeline
    /// inline on the caller's thread (caller-runs throttling).
    pub inline_runs: Arc<Counter>,
    /// Pipeline flights that panicked, on a worker or inline (the thread
    /// survived; every waiter got a typed `WorkerPanic` error).
    pub worker_panics: Arc<Counter>,
    /// Cache probes that found their shard's read lock contended
    /// (`try_read` would have blocked). A rising rate under a warm
    /// workload is the early-warning sign of the scaling collapse this
    /// instrument was added to catch.
    pub probe_contended: Arc<Counter>,
    /// Time spent blocked on a contended cache-shard lock, µs.
    pub shard_lock_wait: Arc<Log2Histogram>,
    /// Cache probes that found their shard poisoned and degraded to a
    /// miss instead of crashing.
    pub shard_poisoned: Arc<Counter>,
    /// End-to-end request latencies (hits and misses alike).
    pub latency: LatencyHistogram,
    /// Evictions live on the plan cache, not here; this gauge mirrors
    /// them into the exposition at render time.
    evictions: Arc<Gauge>,
    /// Jobs waiting in the bounded miss queue; mirrored from the worker
    /// pool at render/snapshot time like `evictions`.
    queue_depth: Arc<Gauge>,
}

impl Default for ServiceStats {
    fn default() -> Self {
        let registry = Registry::new();
        let hits = registry.counter("spores.service.hits");
        let misses = registry.counter("spores.service.misses");
        let coalesced = registry.counter("spores.service.coalesced");
        let cost_rejections = registry.counter("spores.service.cost_rejections");
        let recheck_memo_hits = registry.counter("spores.service.recheck_memo_hits");
        let rejections = registry.counter("spores.service.rejections");
        let inline_runs = registry.counter("spores.service.inline_runs");
        let worker_panics = registry.counter("spores.service.worker_panics");
        let probe_contended = registry.counter("spores.service.cache_probe_contended");
        let shard_lock_wait = registry.histogram("spores.service.shard_lock_wait_us");
        let shard_poisoned = registry.counter("spores.service.cache_shard_poisoned");
        let evictions = registry.gauge("spores.service.evictions");
        let queue_depth = registry.gauge("spores.service.queue_depth");
        let latency = LatencyHistogram {
            inner: registry.histogram("spores.service.latency_us"),
        };
        ServiceStats {
            registry,
            hits,
            misses,
            coalesced,
            cost_rejections,
            recheck_memo_hits,
            rejections,
            inline_runs,
            worker_panics,
            probe_contended,
            shard_lock_wait,
            shard_poisoned,
            latency,
            evictions,
            queue_depth,
        }
    }
}

impl ServiceStats {
    /// The instrument handles the plan cache records into — same
    /// registry, so contention shows up in `metrics_text()`.
    pub(crate) fn cache_instruments(&self) -> CacheInstruments {
        CacheInstruments {
            contended: self.probe_contended.clone(),
            lock_wait_us: self.shard_lock_wait.clone(),
            poisoned: self.shard_poisoned.clone(),
        }
    }

    /// Point-in-time copy of the counters. Evictions live on the cache
    /// and queue depth on the worker pool, not here — both are filled in
    /// by the snapshot's caller ([`crate::OptimizerService::stats`]).
    pub fn snapshot(&self, evictions: u64, queue_depth: usize) -> StatsSnapshot {
        StatsSnapshot {
            hits: self.hits.get(),
            misses: self.misses.get(),
            coalesced: self.coalesced.get(),
            evictions,
            cost_rejections: self.cost_rejections.get(),
            rejections: self.rejections.get(),
            inline_runs: self.inline_runs.get(),
            worker_panics: self.worker_panics.get(),
            probe_contended: self.probe_contended.get(),
            shard_poisoned: self.shard_poisoned.get(),
            queue_depth: queue_depth as u64,
            latency_p50_us: self.latency.quantile_us(0.5),
            latency_p99_us: self.latency.quantile_us(0.99),
        }
    }

    /// Prometheus-style text exposition of every service metric:
    /// `spores_service_{hits,misses,coalesced,cost_rejections,evictions}`,
    /// `spores_service_recheck_memo_hits` (hits that skipped the re-check),
    /// the backpressure instruments (`spores_service_rejections`,
    /// `spores_service_inline_runs`, `spores_service_queue_depth`), the
    /// contention/robustness instruments
    /// (`spores_service_cache_probe_contended`,
    /// `spores_service_shard_lock_wait_us`,
    /// `spores_service_cache_shard_poisoned`,
    /// `spores_service_worker_panics`) plus the
    /// `spores_service_latency_us` histogram with explicit `le="<µs>"`
    /// bucket bounds (the same log2 bounds
    /// [`LatencyHistogram::bucket_bounds_us`] documents).
    pub fn render_text(&self, evictions: u64, queue_depth: usize) -> String {
        self.evictions.set(evictions as i64);
        self.queue_depth.set(queue_depth as i64);
        self.registry.render_text()
    }
}

/// Plain-value view of [`ServiceStats`].
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct StatsSnapshot {
    pub hits: u64,
    pub misses: u64,
    pub coalesced: u64,
    pub evictions: u64,
    pub cost_rejections: u64,
    /// Backpressure rejections issued by `try_optimize`.
    pub rejections: u64,
    /// Blocking `optimize` calls that ran the pipeline inline on a full
    /// queue.
    pub inline_runs: u64,
    /// Pipeline panics contained on worker threads.
    pub worker_panics: u64,
    /// Cache probes that found their shard's lock contended.
    pub probe_contended: u64,
    /// Cache probes degraded to a miss by a poisoned shard.
    pub shard_poisoned: u64,
    /// Bounded miss-queue depth at snapshot time.
    pub queue_depth: u64,
    pub latency_p50_us: u64,
    pub latency_p99_us: u64,
}

impl StatsSnapshot {
    pub fn requests(&self) -> u64 {
        self.hits + self.misses + self.coalesced
    }

    /// Fraction of requests that avoided the full pipeline.
    pub fn hit_rate(&self) -> f64 {
        let served = self.hits + self.coalesced;
        let total = self.requests();
        if total == 0 {
            0.0
        } else {
            served as f64 / total as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_buckets_are_log2_us() {
        let s = ServiceStats::default();
        let h = &s.latency;
        h.record(Duration::from_micros(1));
        h.record(Duration::from_micros(3));
        h.record(Duration::from_micros(1000));
        let snap = h.snapshot();
        assert_eq!(snap[0], 1); // [1, 2) µs
        assert_eq!(snap[1], 1); // [2, 4) µs
        assert_eq!(snap[9], 1); // [512, 1024) µs
        assert_eq!(h.count(), 3);
    }

    #[test]
    fn quantiles_are_monotone() {
        let s = ServiceStats::default();
        let h = &s.latency;
        for us in [1u64, 2, 4, 8, 16, 500, 1000, 100_000] {
            h.record(Duration::from_micros(us));
        }
        assert!(h.quantile_us(0.5) <= h.quantile_us(0.99));
        assert!(h.quantile_us(0.99) >= 100_000);
    }

    #[test]
    fn bucket_bounds_match_snapshot_semantics() {
        assert_eq!(LatencyHistogram::bucket_bounds_us(0), (0, 1));
        assert_eq!(LatencyHistogram::bucket_bounds_us(9), (512, 1023));
        assert_eq!(
            LatencyHistogram::bucket_bounds_us(LATENCY_BUCKETS - 1),
            (1 << (LATENCY_BUCKETS - 1), u64::MAX),
            "the tail bucket absorbs everything beyond"
        );
        assert_eq!(LatencyHistogram::bucket_label(9), "512..1023us");
        // A sample beyond the 32-bucket range folds into the tail bucket
        // of the snapshot view.
        let s = ServiceStats::default();
        s.latency.record(Duration::from_secs(1 << 40));
        assert_eq!(s.latency.snapshot()[LATENCY_BUCKETS - 1], 1);
    }

    #[test]
    fn hit_rate() {
        let s = ServiceStats::default();
        s.hits.add(3);
        s.misses.add(1);
        let snap = s.snapshot(0, 0);
        assert_eq!(snap.requests(), 4);
        assert!((snap.hit_rate() - 0.75).abs() < 1e-12);
    }

    #[test]
    fn render_text_exposes_all_counters_with_labeled_buckets() {
        let s = ServiceStats::default();
        s.hits.add(5);
        s.misses.add(2);
        s.coalesced.add(1);
        s.cost_rejections.add(1);
        s.recheck_memo_hits.add(3);
        s.rejections.add(4);
        s.inline_runs.add(2);
        s.worker_panics.add(1);
        s.probe_contended.add(3);
        s.shard_poisoned.add(1);
        s.latency.record(Duration::from_micros(700));
        let text = s.render_text(9, 6);
        for line in [
            "spores_service_hits 5",
            "spores_service_misses 2",
            "spores_service_coalesced 1",
            "spores_service_cost_rejections 1",
            "spores_service_recheck_memo_hits 3",
            "spores_service_rejections 4",
            "spores_service_inline_runs 2",
            "spores_service_worker_panics 1",
            "spores_service_cache_probe_contended 3",
            "spores_service_cache_shard_poisoned 1",
            "spores_service_queue_depth 6",
            "spores_service_evictions 9",
            "spores_service_latency_us_bucket{le=\"1023\"} 1",
            "spores_service_latency_us_bucket{le=\"+Inf\"} 1",
            "spores_service_latency_us_count 1",
        ] {
            assert!(text.contains(line), "missing '{line}' in:\n{text}");
        }
    }

    #[test]
    fn stats_registries_are_isolated_per_service() {
        let a = ServiceStats::default();
        let b = ServiceStats::default();
        a.hits.add(7);
        assert_eq!(b.snapshot(0, 0).hits, 0);
        assert!(b.render_text(0, 0).contains("spores_service_hits 0"));
    }
}
