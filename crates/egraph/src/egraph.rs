//! The e-graph: a congruence-closed union of expression DAGs.
//!
//! This is a from-scratch implementation of the data structure the paper
//! adopts from `egg` [Willsey 2020]: e-classes of equivalent e-nodes,
//! hash-consing (`memo`), and *deferred* congruence-closure maintenance —
//! unions only record work, and [`EGraph::rebuild`] restores the
//! invariants in one batched pass. Figure 8/9 of the paper give the
//! `saturate`/`add` pseudo-code this realizes.

use crate::analysis::Analysis;
use crate::hash::{FxHashMap, FxHashSet};
use crate::language::{Id, Language, OpKey, RecExpr};
use crate::relational::RelIndex;
use crate::unionfind::UnionFind;
use std::fmt;
use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::OnceLock;

/// Cached `SPORES_AUDIT` gate: 0 = not yet read, 1 = off, 2 = on.
static AUDIT_GATE: AtomicU8 = AtomicU8::new(0);

/// Should every [`EGraph::rebuild`] finish with a full
/// [`EGraph::check_invariants`] sweep (congruence, memo, op-index,
/// dirty set)?
///
/// Driven by the `SPORES_AUDIT` environment variable (`1`/`true` enables;
/// read once and cached) or [`set_rebuild_audit`]. Off by default: the
/// audit is O(graph) per rebuild and exists for CI/proptest runs, where
/// one matrix job sets `SPORES_AUDIT=1` so the invariant sweep runs after
/// every rebuild of every suite.
pub fn audit_enabled() -> bool {
    match AUDIT_GATE.load(Ordering::Relaxed) {
        0 => {
            let on = matches!(
                std::env::var("SPORES_AUDIT").as_deref(),
                Ok("1") | Ok("true")
            );
            AUDIT_GATE.store(if on { 2 } else { 1 }, Ordering::Relaxed);
            on
        }
        2 => true,
        _ => false,
    }
}

/// Force the rebuild audit on or off, overriding the environment (for
/// tests that exercise the audit path deterministically).
pub fn set_rebuild_audit(on: bool) {
    AUDIT_GATE.store(if on { 2 } else { 1 }, Ordering::Relaxed);
}

/// An equivalence class of e-nodes.
#[derive(Clone, Debug)]
pub struct EClass<L, D> {
    /// The canonical id of this class (stable only between rebuilds).
    pub id: Id,
    /// The e-nodes in this class. Canonical after [`EGraph::rebuild`].
    pub nodes: Vec<L>,
    /// The analysis data ("class invariant") attached to this class.
    pub data: D,
    /// Parent e-nodes (as inserted) and the class they belong to.
    pub(crate) parents: Vec<(L, Id)>,
}

impl<L: Language, D> EClass<L, D> {
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    pub fn iter(&self) -> impl Iterator<Item = &L> {
        self.nodes.iter()
    }
}

/// The e-graph. See the module docs.
#[derive(Clone)]
pub struct EGraph<L: Language, A: Analysis<L>> {
    /// The user analysis (consulted for merges).
    pub analysis: A,
    unionfind: UnionFind,
    /// canonicalized e-node -> e-class at time of insertion
    memo: FxHashMap<L, Id>,
    classes: FxHashMap<Id, EClass<L, A::Data>>,
    /// (parent node, its class) pairs whose memo entries may be stale
    pending: Vec<(L, Id)>,
    /// (node, its class) pairs whose analysis data must be re-made
    analysis_pending: Vec<(L, Id)>,
    /// op head -> sorted canonical ids of classes containing a node
    /// with that head. The e-matching index: `Pattern::search` only
    /// visits the classes listed under its root operator instead of
    /// every class. [`EGraph::add`] appends (fresh ids are strictly
    /// increasing, so vectors stay sorted); [`EGraph::rebuild`]
    /// recomputes. Between a union and the next rebuild the index may
    /// list merged-away ids, which is fine: search requires a clean
    /// graph.
    op_index: FxHashMap<OpKey, Vec<Id>>,
    /// (op, arity, child-slot) -> sorted canonical ids of classes
    /// appearing in that child position — the relational e-matching
    /// index ([`crate::relational`]). Built on first read by
    /// [`RelIndex::rebuild_from`] over the class nodes and dropped by
    /// [`EGraph::add`] and [`EGraph::rebuild`], the two operations that
    /// change the node set (a union only moves nodes between classes),
    /// so structural search never pays for it and parallel search
    /// threads share one build per clean graph.
    rel_index: OnceLock<RelIndex>,
    /// Classes touched since the last [`EGraph::take_dirty`]: fresh
    /// classes from [`EGraph::add`], the surviving root of every
    /// [`EGraph::union`] (including congruence unions), and — closed
    /// over at the end of [`EGraph::rebuild`] — every transitive
    /// *ancestor* (via the parent relation) of a touched class, so that
    /// a pattern match whose sub-term changed is re-findable from its
    /// root. On a clean graph all ids are canonical and the set is
    /// closed under parents; delta e-matching
    /// ([`crate::Pattern::delta_candidate_ids`]) restricts the
    /// op-head candidates to this set.
    dirty: FxHashSet<Id>,
    n_unions: usize,
    clean: bool,
}

impl<L: Language, A: Analysis<L> + Default> Default for EGraph<L, A> {
    fn default() -> Self {
        EGraph::new(A::default())
    }
}

impl<L: Language, A: Analysis<L>> EGraph<L, A> {
    pub fn new(analysis: A) -> Self {
        EGraph {
            analysis,
            unionfind: UnionFind::default(),
            memo: FxHashMap::default(),
            classes: FxHashMap::default(),
            pending: Vec::new(),
            analysis_pending: Vec::new(),
            op_index: FxHashMap::default(),
            rel_index: OnceLock::new(),
            dirty: FxHashSet::default(),
            n_unions: 0,
            clean: true,
        }
    }

    /// Canonical id of `id`'s class.
    pub fn find(&self, id: Id) -> Id {
        self.unionfind.find_immutable(id)
    }

    /// Number of e-classes.
    pub fn number_of_classes(&self) -> usize {
        self.classes.len()
    }

    /// Total number of e-nodes across all classes.
    pub fn total_number_of_nodes(&self) -> usize {
        self.classes.values().map(|c| c.nodes.len()).sum()
    }

    /// Total unions performed since creation (including congruence-induced).
    pub fn n_unions(&self) -> usize {
        self.n_unions
    }

    /// Is the graph clean (rebuilt since the last union)?
    pub fn is_clean(&self) -> bool {
        self.clean
    }

    /// Iterate over all e-classes.
    pub fn classes(&self) -> impl Iterator<Item = &EClass<L, A::Data>> {
        self.classes.values()
    }

    /// The ids of all e-classes (canonical).
    pub fn class_ids(&self) -> Vec<Id> {
        let mut ids: Vec<Id> = self.classes.keys().copied().collect();
        ids.sort();
        ids
    }

    /// Access a class by (possibly non-canonical) id.
    pub fn class(&self, id: Id) -> &EClass<L, A::Data> {
        let id = self.find(id);
        self.classes
            .get(&id)
            .unwrap_or_else(|| panic!("no class for id {id}"))
    }

    /// Access a class by *canonical* id, skipping the union-find lookup.
    /// The compiled matcher's hot path: on a clean graph every id it
    /// handles (op-index candidates and rebuilt classes' node children)
    /// is already canonical, so the `find` in [`EGraph::class`] is pure
    /// overhead there.
    pub(crate) fn class_canonical(&self, id: Id) -> &EClass<L, A::Data> {
        debug_assert_eq!(id, self.find(id), "class_canonical needs a canonical id");
        self.classes
            .get(&id)
            .unwrap_or_else(|| panic!("no class for id {id}"))
    }

    fn canonicalize(&self, node: L) -> L {
        node.map_children(|c| self.find(c))
    }

    /// The canonical ids of classes containing a node whose head matches
    /// `key` — the candidate set indexed e-matching visits. Sorted for
    /// deterministic iteration order. Only meaningful on a clean graph.
    pub fn classes_with_op(&self, key: OpKey) -> &[Id] {
        self.op_index.get(&key).map_or(&[], |ids| ids.as_slice())
    }

    /// The sorted canonical ids of classes appearing at child position
    /// `slot` of some node with head `op` and `arity` children — one
    /// column of the relational e-matching index. Empty for absent
    /// keys. Only meaningful on a clean graph.
    pub fn classes_with_op_child(&self, op: OpKey, arity: usize, slot: usize) -> &[Id] {
        self.rel_index().column(op, arity, slot)
    }

    /// The full relational index, built now if the node set changed
    /// since the last build (search goes through
    /// [`EGraph::classes_with_op_child`]).
    pub fn rel_index(&self) -> &RelIndex {
        self.rel_index
            .get_or_init(|| RelIndex::rebuild_from(self.classes.values().flat_map(|c| &c.nodes)))
    }

    /// Look up the class containing `enode` without inserting it.
    pub fn lookup(&self, enode: L) -> Option<Id> {
        let enode = self.canonicalize(enode);
        self.memo.get(&enode).map(|&id| self.find(id))
    }

    /// Add an e-node (Figure 9 of the paper). Returns its class id,
    /// reusing an existing class when the node is already present.
    pub fn add(&mut self, enode: L) -> Id {
        let enode = self.canonicalize(enode);
        if let Some(&existing) = self.memo.get(&enode) {
            return self.find(existing);
        }
        let id = self.unionfind.make_set();
        let ids = self.op_index.entry(enode.op_key()).or_default();
        debug_assert!(ids.last() < Some(&id), "fresh ids keep the index sorted");
        ids.push(id);
        self.rel_index.take();
        // A fresh class only ever gains parents that are themselves
        // fresh (later) adds, so marking just `id` keeps the dirty set
        // closed under parents without a propagation pass here.
        self.dirty.insert(id);
        let data = A::make(self, &enode);
        let class = EClass {
            id,
            nodes: vec![enode.clone()],
            data,
            parents: Vec::new(),
        };
        self.classes.insert(id, class);
        for &child in enode.children() {
            let child = self.find(child);
            self.classes
                .get_mut(&child)
                .expect("child class exists")
                .parents
                .push((enode.clone(), id));
        }
        self.memo.insert(enode, id);
        A::modify(self, id);
        id
    }

    /// Add every node of `expr`, returning the class of its root.
    pub fn add_expr(&mut self, expr: &RecExpr<L>) -> Id {
        let mut ids: Vec<Id> = Vec::with_capacity(expr.len());
        for node in expr.nodes() {
            let node = node.clone().map_children(|c| ids[c.index()]);
            ids.push(self.add(node));
        }
        *ids.last().expect("non-empty expr")
    }

    /// Look up the class of `expr`'s root without inserting anything.
    pub fn lookup_expr(&self, expr: &RecExpr<L>) -> Option<Id> {
        let mut ids: Vec<Id> = Vec::with_capacity(expr.len());
        for node in expr.nodes() {
            let node = node.clone().map_children(|c| ids[c.index()]);
            ids.push(self.lookup(node)?);
        }
        ids.last().copied()
    }

    /// Assert `a` and `b` equal, merging their classes.
    /// Returns the surviving canonical id and whether anything changed.
    pub fn union(&mut self, a: Id, b: Id) -> (Id, bool) {
        let a = self.find(a);
        let b = self.find(b);
        if a == b {
            return (a, false);
        }
        self.n_unions += 1;
        self.clean = false;

        // Keep the class with more parents as root to move less data.
        let (root, other) = if self.classes[&a].parents.len() >= self.classes[&b].parents.len() {
            (a, b)
        } else {
            (b, a)
        };
        self.unionfind.union(root, other);
        // The surviving class's node set changes; ancestors are marked
        // by the parent-closure pass at the end of `rebuild`.
        self.dirty.insert(root);

        let other_class = self.classes.remove(&other).expect("class exists");
        // op_index is NOT updated here: it is only read on clean graphs,
        // and rebuild recomputes it wholesale, so per-union repointing
        // would be pure overhead in the congruence-repair hot loop.
        // The merged-away class's parents may now be congruent with other
        // nodes; queue them for memo repair.
        self.pending.extend(other_class.parents.iter().cloned());

        let root_class = self.classes.get_mut(&root).expect("class exists");
        let did = self.analysis.merge(&mut root_class.data, other_class.data);
        if did.0 {
            // root data changed: its parents' data may need re-making
            self.analysis_pending
                .extend(root_class.parents.iter().cloned());
        }
        if did.1 {
            self.analysis_pending
                .extend(other_class.parents.iter().cloned());
        }
        root_class.nodes.extend(other_class.nodes);
        root_class.parents.extend(other_class.parents);

        A::modify(self, root);
        (root, true)
    }

    /// Restore congruence closure and analysis consistency after unions
    /// ("propagates the congruent closure", paper §3.1).
    pub fn rebuild(&mut self) -> usize {
        let n_unions_before = self.n_unions;
        while !self.pending.is_empty() || !self.analysis_pending.is_empty() {
            while let Some((node, class)) = self.pending.pop() {
                let node = self.canonicalize(node);
                let class = self.find(class);
                if let Some(prev) = self.memo.insert(node, class) {
                    let prev = self.find(prev);
                    if prev != class {
                        // congruence: two nodes became identical
                        self.union(prev, class);
                    }
                }
            }
            while let Some((node, class)) = self.analysis_pending.pop() {
                let class = self.find(class);
                let node = self.canonicalize(node);
                let new_data = A::make(self, &node);
                let eclass = self.classes.get_mut(&class).expect("class exists");
                let did = self.analysis.merge(&mut eclass.data, new_data);
                if did.0 {
                    let parents = eclass.parents.clone();
                    self.analysis_pending.extend(parents);
                    A::modify(self, class);
                }
            }
        }
        self.rebuild_classes();
        self.refresh_dirty();
        self.clean = true;
        if audit_enabled() {
            self.check_invariants();
        }
        self.n_unions - n_unions_before
    }

    /// Canonicalize the dirty set and close it over the parent relation:
    /// a match whose *sub*-term changed must be re-found from its root,
    /// so every transitive ancestor of a touched class is dirty too.
    /// Runs after `rebuild_classes`, when parent lists are canonical.
    fn refresh_dirty(&mut self) {
        let old = std::mem::take(&mut self.dirty);
        let mut work: Vec<Id> = old.into_iter().map(|id| self.find(id)).collect();
        let mut dirty = FxHashSet::default();
        while let Some(id) = work.pop() {
            if !dirty.insert(id) {
                continue;
            }
            for &(_, pid) in &self.classes[&id].parents {
                let pid = self.find(pid);
                if !dirty.contains(&pid) {
                    work.push(pid);
                }
            }
        }
        self.dirty = dirty;
    }

    /// The classes touched since the last [`EGraph::take_dirty`]
    /// (canonical and closed under parents on a clean graph). See the
    /// `dirty` field docs.
    pub fn dirty_classes(&self) -> &FxHashSet<Id> {
        &self.dirty
    }

    /// Take (and clear) the dirty set. The saturation driver calls this
    /// once per iteration: the returned snapshot is the delta-search
    /// candidate universe, and changes made afterwards accumulate into
    /// a fresh set for the next iteration.
    pub fn take_dirty(&mut self) -> FxHashSet<Id> {
        std::mem::take(&mut self.dirty)
    }

    /// Explicitly mark a class dirty for the next delta sweep. The
    /// saturation driver uses this to keep *pending* work visible: a
    /// match the sampling scheduler found but did not apply re-marks its
    /// root class, so delta search re-finds it next iteration instead of
    /// losing it until the next full sweep.
    pub fn mark_dirty(&mut self, id: Id) {
        let id = self.find(id);
        self.dirty.insert(id);
    }

    /// Per-root reachability over a clean graph: canonical class id →
    /// bitmask over `roots` (bit `r` set iff `roots[r]` reaches the
    /// class through some chain of e-node children). At most 64 roots.
    /// This is the region map workload-mode convergence freezing uses:
    /// a statement's "region" is everything its root can realize.
    pub fn reachability_masks(&self, roots: &[Id]) -> FxHashMap<Id, u64> {
        assert!(self.clean, "reachability requires a rebuilt e-graph");
        assert!(roots.len() <= 64, "at most 64 roots for bitmask regions");
        let mut masks: FxHashMap<Id, u64> = FxHashMap::default();
        let mut stack: Vec<Id> = Vec::new();
        for (r, &root) in roots.iter().enumerate() {
            let bit = 1u64 << r;
            stack.push(self.find(root));
            while let Some(id) = stack.pop() {
                let mask = masks.entry(id).or_insert(0);
                if *mask & bit != 0 {
                    continue;
                }
                *mask |= bit;
                for node in &self.classes[&id].nodes {
                    for &c in node.children() {
                        stack.push(self.find(c));
                    }
                }
            }
        }
        masks
    }

    /// Canonicalize and dedup every class's node and parent lists.
    fn rebuild_classes(&mut self) {
        let uf = &self.unionfind;
        for class in self.classes.values_mut() {
            for node in &mut class.nodes {
                for c in node.children_mut() {
                    *c = uf.find_immutable(*c);
                }
            }
            class.nodes.sort_unstable();
            class.nodes.dedup();

            for (node, id) in &mut class.parents {
                for c in node.children_mut() {
                    *c = uf.find_immutable(*c);
                }
                *id = uf.find_immutable(*id);
            }
            class.parents.sort_unstable();
            class.parents.dedup();
        }

        // Recompute the op-head index from the canonicalized classes.
        // This drops ids of merged-away classes and keys whose nodes
        // were deduplicated, keeping the index exactly in sync.
        self.op_index.clear();
        for (&id, class) in &self.classes {
            for node in &class.nodes {
                self.op_index.entry(node.op_key()).or_default().push(id);
            }
        }
        for ids in self.op_index.values_mut() {
            ids.sort_unstable();
            ids.dedup();
        }

        self.rel_index.take();
    }

    /// Debug validation of the e-graph invariants; panics on violation.
    /// Only intended for tests.
    pub fn check_invariants(&self) {
        assert!(self.clean, "must rebuild before checking invariants");
        for (&id, class) in &self.classes {
            assert_eq!(id, self.find(id), "class key must be canonical");
            assert!(!class.nodes.is_empty(), "class {id} is empty");
            for node in &class.nodes {
                let canon = self.canonicalize(node.clone());
                assert_eq!(&canon, node, "node in class {id} is not canonical");
                let memo_id = self
                    .memo
                    .get(&canon)
                    .unwrap_or_else(|| panic!("node {node:?} of class {id} not in memo"));
                assert_eq!(
                    self.find(*memo_id),
                    id,
                    "memo maps node {node:?} to the wrong class"
                );
            }
        }
        // congruence: canonical nodes must be unique across classes
        let mut seen: FxHashMap<&L, Id> = FxHashMap::default();
        for (&id, class) in &self.classes {
            for node in &class.nodes {
                if let Some(&other) = seen.get(node) {
                    panic!("congruence violated: {node:?} in classes {other} and {id}");
                }
                seen.insert(node, id);
            }
        }
        // op-head index: must map each head to exactly the canonical
        // classes containing a node with that head, sorted
        let mut want: FxHashMap<OpKey, Vec<Id>> = FxHashMap::default();
        for (&id, class) in &self.classes {
            for node in &class.nodes {
                want.entry(node.op_key()).or_default().push(id);
            }
        }
        for ids in want.values_mut() {
            ids.sort_unstable();
            ids.dedup();
        }
        for (key, ids) in &want {
            let got = self
                .op_index
                .get(key)
                .unwrap_or_else(|| panic!("op index is missing key {key:?} (classes {ids:?})"));
            assert_eq!(got, ids, "op index for {key:?} disagrees with the classes");
        }
        for (key, ids) in &self.op_index {
            if !ids.is_empty() {
                assert!(
                    want.contains_key(key),
                    "op index has stale key {key:?} -> {ids:?}"
                );
            }
        }
        // dirty set: only canonical, live class ids (no merged-away ids
        // lingering), every dirty class discoverable through the op-head
        // index (each of its nodes' buckets lists it — otherwise delta
        // search could never visit it), and closed under the parent
        // relation (a clean parent of a dirty child would hide matches
        // whose sub-term changed).
        for &id in &self.dirty {
            assert_eq!(id, self.find(id), "dirty set holds non-canonical id {id}");
            let class = self
                .classes
                .get(&id)
                .unwrap_or_else(|| panic!("dirty set holds dead class {id}"));
            for node in &class.nodes {
                assert!(
                    self.classes_with_op(node.op_key()).contains(&id),
                    "dirty class {id} missing from op bucket for {:?}",
                    node.op_key()
                );
            }
            for &(_, pid) in &class.parents {
                let pid = self.find(pid);
                assert!(
                    self.dirty.contains(&pid),
                    "dirty set not parent-closed: {id} dirty but parent {pid} clean"
                );
            }
        }
    }
}

impl<L: Language, A: Analysis<L>> fmt::Debug for EGraph<L, A> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "EGraph {{ classes: {}, nodes: {} }}",
            self.number_of_classes(),
            self.total_number_of_nodes()
        )?;
        for id in self.class_ids() {
            let class = self.class(id);
            write!(f, "  {id}: [")?;
            for (i, n) in class.nodes.iter().enumerate() {
                if i > 0 {
                    write!(f, ", ")?;
                }
                if n.is_leaf() {
                    write!(f, "{}", n.op_display())?;
                } else {
                    write!(f, "({}", n.op_display())?;
                    for c in n.children() {
                        write!(f, " {c}")?;
                    }
                    write!(f, ")")?;
                }
            }
            writeln!(f, "]")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::language::parse_rec_expr;
    use crate::language::test_lang::Arith;

    type EG = EGraph<Arith, ()>;

    fn add_str(eg: &mut EG, s: &str) -> Id {
        let e = parse_rec_expr(s).unwrap();
        eg.add_expr(&e)
    }

    #[test]
    fn add_is_hash_consing() {
        let mut eg = EG::default();
        let a = add_str(&mut eg, "(+ x y)");
        let b = add_str(&mut eg, "(+ x y)");
        assert_eq!(a, b);
        assert_eq!(eg.number_of_classes(), 3);
        assert_eq!(eg.total_number_of_nodes(), 3);
    }

    #[test]
    fn rebuild_audit_gate_sweeps_invariants() {
        // With the gate forced on, every rebuild ends in a full
        // check_invariants sweep (this is what SPORES_AUDIT=1 turns on
        // for a whole test run). Restore the off state afterwards so
        // other tests in this binary keep the default fast path.
        set_rebuild_audit(true);
        let mut eg = EG::default();
        let a = add_str(&mut eg, "(+ x y)");
        let b = add_str(&mut eg, "(+ y x)");
        eg.union(a, b);
        eg.rebuild();
        assert!(audit_enabled());
        set_rebuild_audit(false);
        assert!(!audit_enabled());
    }

    #[test]
    fn union_merges_classes() {
        let mut eg = EG::default();
        let a = add_str(&mut eg, "(+ x y)");
        let b = add_str(&mut eg, "(+ y x)");
        assert_ne!(eg.find(a), eg.find(b));
        eg.union(a, b);
        eg.rebuild();
        assert_eq!(eg.find(a), eg.find(b));
        assert_eq!(eg.class(a).len(), 2);
        eg.check_invariants();
    }

    #[test]
    fn congruence_closure_propagates() {
        // Paper §3.1: when A+A is merged with 2*A, (A+A)^2 must merge
        // with (2*A)^2. Modeled here with neg as the outer operator.
        let mut eg = EG::default();
        let x = add_str(&mut eg, "x");
        let y = add_str(&mut eg, "y");
        let nx = add_str(&mut eg, "(neg x)");
        let ny = add_str(&mut eg, "(neg y)");
        assert_ne!(eg.find(nx), eg.find(ny));
        eg.union(x, y);
        eg.rebuild();
        assert_eq!(eg.find(nx), eg.find(ny), "congruence must merge parents");
        eg.check_invariants();
    }

    #[test]
    fn deep_congruence_chain() {
        let mut eg = EG::default();
        let a = add_str(&mut eg, "(neg (neg (neg (neg x))))");
        let b = add_str(&mut eg, "(neg (neg (neg (neg y))))");
        let x = add_str(&mut eg, "x");
        let y = add_str(&mut eg, "y");
        eg.union(x, y);
        eg.rebuild();
        assert_eq!(eg.find(a), eg.find(b));
        eg.check_invariants();
    }

    #[test]
    fn lookup_does_not_insert() {
        let mut eg = EG::default();
        add_str(&mut eg, "(+ x y)");
        let n = eg.total_number_of_nodes();
        let expr = parse_rec_expr::<Arith>("(* x y)").unwrap();
        assert_eq!(eg.lookup_expr(&expr), None);
        assert_eq!(eg.total_number_of_nodes(), n);
        let expr2 = parse_rec_expr::<Arith>("(+ x y)").unwrap();
        assert!(eg.lookup_expr(&expr2).is_some());
    }

    #[test]
    fn equivs_after_union() {
        let mut eg = EG::default();
        let a = add_str(&mut eg, "(* (+ x y) z)");
        let b = add_str(&mut eg, "(* z (+ x y))");
        eg.union(a, b);
        eg.rebuild();
        let ea = parse_rec_expr::<Arith>("(* (+ x y) z)").unwrap();
        let eb = parse_rec_expr::<Arith>("(* z (+ x y))").unwrap();
        assert_eq!(eg.lookup_expr(&ea), Some(eg.find(a)));
        assert_eq!(eg.lookup_expr(&eb), Some(eg.find(a)));
        eg.check_invariants();
    }

    #[test]
    fn self_union_is_noop() {
        let mut eg = EG::default();
        let a = add_str(&mut eg, "(+ x y)");
        let (_, changed) = eg.union(a, a);
        assert!(!changed);
        assert!(eg.is_clean());
    }

    #[test]
    fn unions_count() {
        let mut eg = EG::default();
        let x = add_str(&mut eg, "x");
        let y = add_str(&mut eg, "y");
        let z = add_str(&mut eg, "z");
        eg.union(x, y);
        eg.union(y, z);
        eg.rebuild();
        assert_eq!(eg.n_unions(), 2);
        assert_eq!(eg.number_of_classes(), 1);
    }
}
