//! Sharded LRU plan cache keyed by canonical fingerprints.
//!
//! The cache maps a [`Fingerprint`]'s canonical form to a small set of
//! *variants*: one size-polymorphic template (valid for any concrete
//! dimensions of the same shape classes) and/or several size-pinned
//! templates (plans whose lowering embedded concrete dimension constants,
//! keyed by the exact per-slot shapes they were optimized for).
//!
//! Statements and bundles share the one cache and its capacity: an entry
//! holds one template root per request root. Their keys cannot collide,
//! because every bundle's canonical form ends in per-root markers
//! ([`spores_ir::fingerprint_workload`]) that no statement's has.
//!
//! # Warm-path lock discipline
//!
//! Probes are the service's hot path: a warm fleet hammers [`ShardedCache::get`]
//! from every serving thread. Each shard is a [`RwLock`], so concurrent
//! probes share read locks and only inserts/evictions take the exclusive
//! write lock. LRU recency is kept without a read-side RMW: each shard
//! carries an epoch counter bumped (by 2) per insert, and a probe stamps
//! its entry with `epoch + 1` via a plain relaxed store — skipped
//! entirely when the stamp is already current, so steady-state warm hits
//! issue no shared writes beyond the read-lock word and the returned
//! `Arc`'s refcount. The resulting order is *epoch-approximate* LRU:
//! untouched entries age out first, entries probed since the last insert
//! rank together, and a fresh insert always outranks them.
//!
//! # Poison degradation
//!
//! A thread that panics while holding a shard's write lock poisons only
//! that shard. Probes treat a poisoned shard as a miss (counted on
//! [`CacheInstruments::poisoned`]) instead of propagating the panic into
//! every subsequent request, and the next insert clears and re-seeds the
//! shard, so a single panic degrades one shard temporarily rather than
//! taking the service down.
//!
//! # Remembered verdicts
//!
//! Each entry carries a small `Verdicts` table: the hit-path cost
//! re-checks it has *accepted*, keyed by the request's exact per-slot
//! metadata. The table is part of the entry, so eviction and replacement
//! drop it with the plan — nothing else ever invalidates it.

use spores_core::PhaseTimings;
use spores_ir::{ExprArena, Fingerprint, NodeId, Shape};
use spores_telemetry::{Counter, Log2Histogram};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock, RwLock, TryLockError};
use std::time::Instant;

/// Verdicts remembered per entry; past this, re-checks run every time.
const VERDICT_SLOTS: usize = 16;

/// Size-pinned variants kept per canonical fingerprint.
const MAX_VARIANTS: usize = 8;

/// A request's exact per-slot metadata, `(shape, sparsity bits)` in
/// fingerprint slot order: the key of a [`Verdicts`] table. Symbols are
/// left out — slot order already pairs each leaf with its template slot.
pub(crate) type VerdictKey = Vec<(Shape, u64)>;

/// Accepted hit re-check verdicts of one cache entry: exact request
/// metadata → the cost to report. Append-only and lock-free: each slot
/// is written once, so a probe reads it with plain atomic loads.
/// Rejections are never recorded (they replace the entry instead).
#[derive(Clone, Debug, Default)]
pub(crate) struct Verdicts {
    slots: [OnceLock<(VerdictKey, f64)>; VERDICT_SLOTS],
}

impl Verdicts {
    /// A table holding one verdict — the producing request's own.
    pub(crate) fn seeded(key: VerdictKey, cost: f64) -> Verdicts {
        let verdicts = Verdicts::default();
        verdicts.record(key, cost);
        verdicts
    }

    /// The cost remembered for exactly this metadata, if any.
    pub(crate) fn get(&self, key: &[(Shape, u64)]) -> Option<f64> {
        self.slots
            .iter()
            .filter_map(OnceLock::get)
            .find(|(k, _)| k == key)
            .map(|&(_, cost)| cost)
    }

    /// Remember an accepted verdict in the first free slot (a no-op once
    /// the key is present or the table is full).
    pub(crate) fn record(&self, key: VerdictKey, cost: f64) {
        let mut pending = (key, cost);
        for slot in &self.slots {
            match slot.set(pending) {
                Ok(()) => return,
                Err(back) => pending = back,
            }
            if slot.get().is_some_and(|(k, _)| *k == pending.0) {
                return;
            }
        }
    }
}

/// One cache entry: a plan template over α-slot leaves (`$0`, `$1`, …),
/// ready to be re-instantiated against a caller's symbols, plus the
/// facts needed to decide whether (and how cheaply) a later request may
/// reuse it.
#[derive(Debug)]
pub(crate) struct CachedPlan {
    pub(crate) arena: ExprArena,
    /// One template root per request root, in request order.
    pub(crate) roots: Vec<NodeId>,
    /// The cost the producing request was served at.
    pub(crate) cost: f64,
    /// Pipeline phase timings of the run that produced the template.
    pub(crate) timings: PhaseTimings,
    /// Did the producing run's saturation reach a fixpoint?
    pub(crate) converged: bool,
    /// Did the producing run's saturation hit its wall-clock budget?
    pub(crate) timed_out: bool,
    /// E-graph size of the producing run.
    pub(crate) e_nodes: usize,
    /// Valid for any concrete sizes within the fingerprint's classes.
    pub(crate) size_polymorphic: bool,
    /// Concrete per-slot shapes the template was optimized for (the
    /// exact-match key when `size_polymorphic` is false).
    pub(crate) slot_shapes: Vec<Shape>,
    /// Accepted re-check verdicts, seeded with the producing request's.
    pub(crate) verdicts: Verdicts,
}

impl CachedPlan {
    /// May a request with these per-slot shapes reuse this entry?
    pub(crate) fn admits(&self, slot_shapes: &[Shape]) -> bool {
        self.size_polymorphic || self.slot_shapes == slot_shapes
    }
}

struct Entry {
    plan: Arc<CachedPlan>,
    /// Epoch-approximate recency stamp (see the module docs): written
    /// under the shard *read* lock by probes, so it must be atomic.
    last_used: AtomicU64,
}

#[derive(Default)]
struct ShardMap {
    entries: HashMap<String, Vec<Entry>>,
    len: usize,
}

#[derive(Default)]
struct Shard {
    map: RwLock<ShardMap>,
    /// Per-shard LRU epoch: bumped by 2 on insert; probes stamp
    /// `epoch + 1` so a fresh insert always outranks probed entries.
    epoch: AtomicU64,
}

/// Contention/degradation instruments a cache reports into, injected by
/// the owning service so they live in *its* metrics registry.
#[derive(Clone)]
pub(crate) struct CacheInstruments {
    /// Probes that found their shard lock held and had to block.
    pub(crate) contended: Arc<Counter>,
    /// Time (µs) probes spent blocked on a contended shard lock.
    pub(crate) lock_wait_us: Arc<Log2Histogram>,
    /// Probes/inserts that found their shard poisoned by a panic.
    pub(crate) poisoned: Arc<Counter>,
}

/// Sharded LRU over `canon → [variants]`. See the module docs for the
/// read-mostly lock discipline and poison semantics.
pub(crate) struct ShardedCache {
    shards: Vec<Shard>,
    /// Per-shard capacity (total capacity / shard count, at least 1).
    shard_capacity: usize,
    evictions: AtomicU64,
    instruments: CacheInstruments,
}

impl ShardedCache {
    pub(crate) fn new(
        shards: usize,
        capacity: usize,
        instruments: CacheInstruments,
    ) -> ShardedCache {
        let shards = shards.max(1);
        ShardedCache {
            shard_capacity: (capacity / shards).max(1),
            shards: (0..shards).map(|_| Shard::default()).collect(),
            evictions: AtomicU64::new(0),
            instruments,
        }
    }

    fn shard(&self, fp: &Fingerprint) -> &Shard {
        &self.shards[(fp.hash() as usize) % self.shards.len()]
    }

    /// Fetch a template admitting these per-slot shapes, updating LRU
    /// state. Read-locks one shard; a poisoned shard degrades to a miss.
    pub(crate) fn get(&self, fp: &Fingerprint, slot_shapes: &[Shape]) -> Option<Arc<CachedPlan>> {
        let shard = self.shard(fp);
        let map = match shard.map.try_read() {
            Ok(guard) => guard,
            Err(TryLockError::WouldBlock) => {
                // contended probe: count it and time the blocking wait so
                // shard-lock contention shows up in metrics_text()
                self.instruments.contended.inc();
                let t0 = Instant::now();
                match shard.map.read() {
                    Ok(guard) => {
                        self.instruments.lock_wait_us.record_duration(t0.elapsed());
                        guard
                    }
                    Err(_) => {
                        self.instruments.poisoned.inc();
                        return None;
                    }
                }
            }
            Err(TryLockError::Poisoned(_)) => {
                // a panic poisoned this shard: degrade to a miss rather
                // than crashing every request that hashes here
                self.instruments.poisoned.inc();
                return None;
            }
        };
        let variants = map.entries.get(fp.canon())?;
        let entry = variants.iter().find(|e| e.plan.admits(slot_shapes))?;
        // stamp recency with this epoch's probe rank; skip the store when
        // already current so hot-key probes issue no shared write
        let stamp = shard.epoch.load(Ordering::Relaxed) + 1;
        if entry.last_used.load(Ordering::Relaxed) != stamp {
            entry.last_used.store(stamp, Ordering::Relaxed);
        }
        Some(entry.plan.clone())
    }

    /// Insert (or replace) the variant for this fingerprint + shape key,
    /// evicting least-recently-used entries beyond the shard capacity.
    /// Takes the caller's `Arc` so cached plans are shared, not copied.
    /// Write-locks one shard; a poisoned shard is cleared and re-seeded.
    pub(crate) fn insert(&self, fp: &Fingerprint, plan: Arc<CachedPlan>) {
        let shard = self.shard(fp);
        let tick = shard.epoch.fetch_add(2, Ordering::Relaxed) + 2;
        let mut map = match shard.map.write() {
            Ok(guard) => guard,
            Err(poisoned) => {
                // self-heal: drop whatever half-updated state the panic
                // left behind and start the shard fresh
                self.instruments.poisoned.inc();
                let mut guard = poisoned.into_inner();
                guard.entries.clear();
                guard.len = 0;
                shard.map.clear_poison();
                guard
            }
        };
        let mut grew = 0isize;
        let mut variant_evictions = 0u64;
        {
            let variants = map.entries.entry(fp.canon().to_string()).or_default();
            // replace the variant with the same reuse key, if any
            let same_key = variants.iter_mut().find(|e| {
                e.plan.size_polymorphic == plan.size_polymorphic
                    && (plan.size_polymorphic || e.plan.slot_shapes == plan.slot_shapes)
            });
            match same_key {
                Some(entry) => {
                    entry.plan = plan;
                    entry.last_used.store(tick, Ordering::Relaxed);
                }
                None => {
                    if variants.len() >= MAX_VARIANTS {
                        // too many size-pinned variants: drop the stalest
                        variants.remove(stalest(variants));
                        grew -= 1;
                        variant_evictions += 1;
                    }
                    variants.push(Entry {
                        plan,
                        last_used: AtomicU64::new(tick),
                    });
                    grew += 1;
                }
            }
        }
        map.len = (map.len as isize + grew) as usize;
        self.evictions
            .fetch_add(variant_evictions, Ordering::Relaxed);
        while map.len > self.shard_capacity {
            evict_lru(&mut map);
            self.evictions.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Total cached templates across all shards (poisoned shards count 0).
    pub(crate) fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.map.read().map_or(0, |m| m.len))
            .sum()
    }

    /// Entries displaced by the LRU policy so far.
    pub(crate) fn evictions(&self) -> u64 {
        self.evictions.load(Ordering::Relaxed)
    }
}

/// Index of the least recently used of one canonical form's variants.
fn stalest(variants: &[Entry]) -> usize {
    variants
        .iter()
        .enumerate()
        .min_by_key(|(_, e)| e.last_used.load(Ordering::Relaxed))
        .map(|(i, _)| i)
        .expect("variants non-empty")
}

fn evict_lru(map: &mut ShardMap) {
    let victim = map
        .entries
        .iter()
        .min_by_key(|(_, variants)| {
            variants[stalest(variants)]
                .last_used
                .load(Ordering::Relaxed)
        })
        .map(|(canon, _)| canon.clone());
    let Some(canon) = victim else { return };
    let variants = map.entries.get_mut(&canon).expect("victim exists");
    variants.remove(stalest(variants));
    map.len -= 1;
    if variants.is_empty() {
        map.entries.remove(&canon);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spores_ir::{fingerprint, LeafClass, Symbol};

    fn fp_of(src: &str, rows: u64, cols: u64) -> (Fingerprint, ExprArena, NodeId) {
        let mut a = ExprArena::new();
        let root = spores_ir::parse_expr(&mut a, src).unwrap();
        let classes: HashMap<Symbol, LeafClass> = a
            .free_vars(root)
            .into_iter()
            .map(|v| (v, LeafClass::classify(Shape::new(rows, cols), 1.0)))
            .collect();
        let fp = fingerprint(&a, root, &classes).unwrap();
        (fp, a, root)
    }

    fn cache(shards: usize, capacity: usize) -> ShardedCache {
        let instruments = crate::stats::ServiceStats::default().cache_instruments();
        ShardedCache::new(shards, capacity, instruments)
    }

    fn plan(
        arena: &ExprArena,
        root: NodeId,
        poly: bool,
        shapes: Vec<Shape>,
    ) -> std::sync::Arc<CachedPlan> {
        std::sync::Arc::new(CachedPlan {
            arena: arena.clone(),
            roots: vec![root],
            cost: 1.0,
            timings: PhaseTimings::default(),
            converged: true,
            timed_out: false,
            e_nodes: 0,
            size_polymorphic: poly,
            slot_shapes: shapes,
            verdicts: Verdicts::default(),
        })
    }

    #[test]
    fn verdicts_remember_exact_keys_up_to_the_bound() {
        let key = |rows: u64, sparsity: f64| vec![(Shape::new(rows, 10), sparsity.to_bits())];
        let verdicts = Verdicts::seeded(key(10, 0.1), 7.0);
        assert_eq!(verdicts.get(&key(10, 0.1)), Some(7.0));
        // other sizes or sparsities are other keys
        assert_eq!(verdicts.get(&key(11, 0.1)), None);
        assert_eq!(verdicts.get(&key(10, 0.2)), None);
        // a key already present keeps its first verdict and its one slot
        verdicts.record(key(10, 0.1), 8.0);
        assert_eq!(verdicts.get(&key(10, 0.1)), Some(7.0));
        for rows in 100..100 + VERDICT_SLOTS as u64 {
            verdicts.record(key(rows, 0.1), rows as f64);
        }
        // the seed took one slot, so the last key found the table full
        let last = 100 + VERDICT_SLOTS as u64 - 1;
        assert_eq!(verdicts.get(&key(last - 1, 0.1)), Some((last - 1) as f64));
        assert_eq!(verdicts.get(&key(last, 0.1)), None);
    }

    #[test]
    fn polymorphic_entry_admits_any_sizes() {
        let cache = cache(4, 16);
        let (fp, a, root) = fp_of("X + Y", 10, 10);
        cache.insert(&fp, plan(&a, root, true, vec![Shape::new(10, 10); 2]));
        assert!(cache
            .get(&fp, &[Shape::new(99, 77), Shape::new(99, 77)])
            .is_some());
    }

    #[test]
    fn pinned_entry_requires_exact_shapes() {
        let cache = cache(4, 16);
        let (fp, a, root) = fp_of("X + Y", 10, 10);
        let shapes = vec![Shape::new(10, 10); 2];
        cache.insert(&fp, plan(&a, root, false, shapes.clone()));
        assert!(cache.get(&fp, &shapes).is_some());
        assert!(cache
            .get(&fp, &[Shape::new(99, 77), Shape::new(99, 77)])
            .is_none());
        // a second size becomes its own variant
        let other = vec![Shape::new(99, 77); 2];
        cache.insert(&fp, plan(&a, root, false, other.clone()));
        assert!(cache.get(&fp, &other).is_some());
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn reinsert_replaces_same_key() {
        let cache = cache(1, 16);
        let (fp, a, root) = fp_of("X + Y", 10, 10);
        cache.insert(&fp, plan(&a, root, true, vec![Shape::new(10, 10); 2]));
        cache.insert(&fp, plan(&a, root, true, vec![Shape::new(10, 10); 2]));
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn lru_evicts_the_stalest_entry() {
        let cache = cache(1, 2);
        let (fp1, a1, r1) = fp_of("X + Y", 10, 10);
        let (fp2, a2, r2) = fp_of("X * Y", 10, 10);
        let (fp3, a3, r3) = fp_of("X %*% Y", 10, 10);
        let shapes = vec![Shape::new(10, 10); 2];
        cache.insert(&fp1, plan(&a1, r1, true, shapes.clone()));
        cache.insert(&fp2, plan(&a2, r2, true, shapes.clone()));
        // touch fp1 so fp2 is the LRU victim
        assert!(cache.get(&fp1, &shapes).is_some());
        cache.insert(&fp3, plan(&a3, r3, true, shapes.clone()));
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.evictions(), 1);
        assert!(cache.get(&fp1, &shapes).is_some());
        assert!(cache.get(&fp2, &shapes).is_none());
        assert!(cache.get(&fp3, &shapes).is_some());
    }

    #[test]
    fn pinned_variants_are_capped_per_canonical_form() {
        let cache = cache(1, 64);
        let (fp, a, root) = fp_of("X + Y", 10, 10);
        for rows in 0..=MAX_VARIANTS as u64 {
            cache.insert(&fp, plan(&a, root, false, vec![Shape::new(rows, 10); 2]));
        }
        assert_eq!(cache.len(), MAX_VARIANTS);
        assert_eq!(cache.evictions(), 1);
        // the first size was the stalest
        assert!(cache.get(&fp, &[Shape::new(0, 10); 2]).is_none());
    }
}
