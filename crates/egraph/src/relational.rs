//! Relational (generic-join) e-matching.
//!
//! The paper frames equality saturation itself as a relational problem
//! (§4); this module takes that seriously on the *matching* side, after
//! "Relational E-Matching" (Zhang et al.): e-nodes are rows of per-op
//! relations, and a multi-node pattern is a conjunctive query over them.
//!
//! Two pieces:
//!
//! * [`RelIndex`] — the relation store. For every `(op, arity, child
//!   slot)` triple it keeps the **sorted** canonical ids of classes that
//!   appear in that child position of some node with that head.
//!   Maintained incrementally: [`RelIndex::insert_node`] at
//!   [`crate::EGraph::add`] (sorted insert — fresh nodes may point at
//!   any existing class) and [`RelIndex::canonicalize`] at rebuild
//!   (remap every entry through the union-find; columns whose entries
//!   were all fixed points skip the re-sort). `check_invariants` audits
//!   it against [`RelIndex::rebuild_from`], the from-scratch oracle.
//! * [`RelQuery`] / [`RelPlan`] — the query side. A pattern compiles
//!   once into a `RelQuery` (its e-node *atoms* and variable occurrence
//!   lists); sweeps of at least [`PLANNED_SWEEP_MIN`] candidates
//!   instantiate a `RelPlan` against the current e-graph: a
//!   generic-join instruction list whose variable-elimination order is
//!   chosen per sweep by estimated selectivity (relation
//!   cardinalities), with per-atom **guard columns** — sorted-merge
//!   intersections of the parent's child column with the atom's op-head
//!   column — that prune bindings by binary search before any class
//!   node scan, and short-circuit the whole sweep when empty. Smaller
//!   sweeps skip per-sweep planning and run the query's precompiled
//!   static plan (slot-ordered, guard-free), where the planner's column
//!   lookups and merges would cost more than the sweep itself.
//!
//! The plan's match *results* are bit-identical to the structural
//! machine's (both run under [`crate::Pattern::search_ids`]): guards are
//! necessary conditions (`matches ⟹ op_key equal ⟹ head-column
//! membership`), every surviving binding is still verified by scanning
//! the class's nodes, and the shared `finish_matches` normalization
//! makes per-class substitution sets order-insensitive. Which backend
//! runs is picked by [`MatchingMode`], threaded from
//! `OptimizerConfig.matching` through the runner's search funnel.

use crate::analysis::Analysis;
use crate::egraph::EGraph;
use crate::hash::FxHashMap;
use crate::language::{Id, Language, OpKey, RecExpr};
use crate::pattern::{ENodeOrVar, Subst, Var};
use crate::unionfind::UnionFind;
use std::collections::VecDeque;

/// Which e-matching backend a search uses. Both produce bit-identical
/// matches and visited-candidate counts; they differ only in how much
/// work a sweep does. The structural machine and the interpreted
/// `naive_search` stay as the two differential oracles.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq, Hash)]
pub enum MatchingMode {
    /// The compiled bind/compare machine over the op-head index (PR 1):
    /// child positions are verified by scanning class node vectors.
    #[default]
    Structural,
    /// Generic join over the `(op, arity, slot)` relational index:
    /// child positions are pre-filtered by sorted-column membership and
    /// sweeps with an empty guard intersection are skipped outright.
    Relational,
}

/// Key of one relational column: nodes with head `op` and `arity`
/// children contribute their child at position `slot`.
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug)]
pub struct SlotKey {
    pub op: OpKey,
    pub arity: u32,
    pub slot: u32,
}

/// The `(op, arity, child-slot) → sorted class-id column` index — the
/// relation store of relational e-matching. Lives alongside the op-head
/// index on [`crate::EGraph`]; see the module docs for the maintenance
/// protocol.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct RelIndex {
    cols: FxHashMap<SlotKey, Vec<Id>>,
}

impl RelIndex {
    /// The sorted canonical class ids appearing at child position `slot`
    /// of some node with head `op` and the given arity. Empty slice for
    /// absent keys. Only meaningful on a clean graph.
    pub fn column(&self, op: OpKey, arity: usize, slot: usize) -> &[Id] {
        let key = SlotKey {
            op,
            arity: arity as u32,
            slot: slot as u32,
        };
        self.cols.get(&key).map_or(&[], |col| col.as_slice())
    }

    /// Number of distinct `(op, arity, slot)` columns.
    pub fn n_columns(&self) -> usize {
        self.cols.len()
    }

    /// Total ids stored across all columns.
    pub fn total_entries(&self) -> usize {
        self.cols.values().map(Vec::len).sum()
    }

    /// Index a freshly added node's (already canonical) children. Unlike
    /// the op-head index — where fresh class ids are strictly increasing
    /// and a push keeps the vector sorted — a fresh node's children can
    /// be *any* existing classes, so each column takes a sorted insert.
    /// This runs at [`crate::EGraph::add`] because adds keep the graph
    /// clean: a search may follow without any rebuild in between.
    pub(crate) fn insert_node<L: Language>(&mut self, node: &L) {
        let children = node.children();
        if children.is_empty() {
            return;
        }
        let op = node.op_key();
        let arity = children.len() as u32;
        for (slot, &child) in children.iter().enumerate() {
            let col = self
                .cols
                .entry(SlotKey {
                    op,
                    arity,
                    slot: slot as u32,
                })
                .or_default();
            if let Err(pos) = col.binary_search(&child) {
                col.insert(pos, child);
            }
        }
    }

    /// Incremental maintenance at rebuild: remap every entry to its
    /// canonical representative, re-sorting and deduplicating only the
    /// columns where something actually moved. Nodes are never deleted
    /// and canonicalization only *merges* ids, so remapping the
    /// incrementally accumulated columns lands on exactly the same sets
    /// as rebuilding from the canonicalized class nodes — the property
    /// `check_invariants` asserts against [`RelIndex::rebuild_from`].
    pub(crate) fn canonicalize(&mut self, uf: &UnionFind) {
        for col in self.cols.values_mut() {
            let mut changed = false;
            for id in col.iter_mut() {
                let root = uf.find_immutable(*id);
                if root != *id {
                    *id = root;
                    changed = true;
                }
            }
            if changed {
                col.sort_unstable();
                col.dedup();
            }
        }
    }

    /// From-scratch construction over an e-graph's (canonical) nodes —
    /// the oracle the incremental maintenance is audited against.
    pub fn rebuild_from<'a, L: Language + 'a>(nodes: impl Iterator<Item = &'a L>) -> RelIndex {
        let mut cols: FxHashMap<SlotKey, Vec<Id>> = FxHashMap::default();
        for node in nodes {
            let children = node.children();
            if children.is_empty() {
                continue;
            }
            let op = node.op_key();
            let arity = children.len() as u32;
            for (slot, &child) in children.iter().enumerate() {
                cols.entry(SlotKey {
                    op,
                    arity,
                    slot: slot as u32,
                })
                .or_default()
                .push(child);
            }
        }
        for col in cols.values_mut() {
            col.sort_unstable();
            col.dedup();
        }
        RelIndex { cols }
    }
}

/// One e-node atom of a compiled relational query.
#[derive(Clone, Debug)]
struct RelAtom<L> {
    /// Register holding the class this atom's node must inhabit.
    reg: usize,
    /// Head template (pattern-internal child ids are never read at run
    /// time — only the head is consulted, exactly like `Insn::Bind`).
    node: L,
    /// First register of this atom's contiguous child block.
    out: usize,
    /// Link to the parent atom: `(parent atom index, child slot)`.
    /// `None` for the root atom.
    parent: Option<(usize, usize)>,
    /// This atom's e-node children as `(slot, atom index)`.
    enode_children: Vec<(usize, usize)>,
}

/// A pattern compiled for relational execution: its atom tree plus the
/// register occurrences of every pattern variable. Built once per
/// pattern ([`crate::Pattern::new`]); per-sweep state lives in
/// [`RelPlan`]. Registers use the same layout as the structural
/// machine: register 0 is the candidate root, every atom owns a
/// contiguous block for its children.
#[derive(Clone, Debug)]
pub(crate) struct RelQuery<L> {
    /// Atom 0 is the pattern root (empty when the root is a variable).
    atoms: Vec<RelAtom<L>>,
    /// Each variable with the registers of all its occurrences.
    var_occ: Vec<(Var, Vec<usize>)>,
    n_regs: usize,
    /// Precompiled static plan: slot-ordered DFS, no guards. Small
    /// sweeps execute this directly — per-sweep planning (column
    /// lookups, selectivity estimates, guard merges) costs more than it
    /// saves below [`PLANNED_SWEEP_MIN`] candidates.
    static_insns: Vec<RelInsn<L>>,
    /// Variable → binding register for the static plan.
    static_subst_regs: Vec<(Var, usize)>,
}

/// BFS worklist entry of [`RelQuery::compile`]: pattern node, its
/// register, and the `(parent atom, slot)` it hangs off (root: `None`).
type CompileItem = (Id, usize, Option<(usize, usize)>);

impl<L: Language> RelQuery<L> {
    /// Lower `ast` breadth-first into the atom tree (same traversal as
    /// the structural `Program::compile`, so the register files of the
    /// two machines line up instruction-for-instruction).
    pub(crate) fn compile(ast: &RecExpr<ENodeOrVar<L>>) -> RelQuery<L> {
        let mut atoms: Vec<RelAtom<L>> = Vec::new();
        let mut var_occ: Vec<(Var, Vec<usize>)> = Vec::new();
        let mut n_regs = 1usize;
        let mut work: VecDeque<CompileItem> = VecDeque::from([(ast.root(), 0, None)]);
        while let Some((pat, reg, parent)) = work.pop_front() {
            match ast.node(pat) {
                ENodeOrVar::Var(v) => match var_occ.iter_mut().find(|(u, _)| u == v) {
                    Some((_, occ)) => occ.push(reg),
                    None => var_occ.push((*v, vec![reg])),
                },
                ENodeOrVar::ENode(n) => {
                    let ix = atoms.len();
                    let out = n_regs;
                    n_regs += n.children().len();
                    atoms.push(RelAtom {
                        reg,
                        node: n.clone(),
                        out,
                        parent,
                        enode_children: Vec::new(),
                    });
                    if let Some((p, slot)) = parent {
                        atoms[p].enode_children.push((slot, ix));
                    }
                    for (i, &child) in n.children().iter().enumerate() {
                        work.push_back((child, out + i, Some((ix, i))));
                    }
                }
            }
        }
        let (static_insns, static_subst_regs) = emit_plan(&atoms, &var_occ, n_regs, None);
        RelQuery {
            atoms,
            var_occ,
            n_regs,
            static_insns,
            static_subst_regs,
        }
    }

    /// Execute the precompiled static plan with `eclass` (canonical) as
    /// the candidate root. Same scratch-buffer contract as
    /// [`RelPlan::run_into`]; bit-identical results to the planned path
    /// (plan shape only affects the work done, never the match set —
    /// `finish_matches` normalizes substitution order downstream).
    pub(crate) fn run_static_into<A: Analysis<L>>(
        &self,
        egraph: &EGraph<L, A>,
        eclass: Id,
        regs: &mut Vec<Id>,
        out: &mut Vec<Subst>,
    ) {
        debug_assert!(out.is_empty());
        regs.clear();
        regs.resize(self.n_regs, eclass);
        exec(
            &self.static_insns,
            &[],
            &self.static_subst_regs,
            egraph,
            0,
            regs,
            out,
        );
    }

    /// Semi-join impossibility precheck: `true` when some non-root atom
    /// has an empty op-head column or an empty (parent op, arity, slot)
    /// child column, which proves no candidate anywhere can match —
    /// every match must bind that atom to a class carrying its operator
    /// that also appears in the parent's child column. O(#atoms) hash
    /// lookups against [`RelIndex`], no allocation: cheap enough to run
    /// before *every* sweep, letting inapplicable rules skip execution
    /// entirely (the structural machine has no index over inner
    /// operators and must fail candidate by candidate).
    pub(crate) fn sweep_is_impossible<A: Analysis<L>>(&self, egraph: &EGraph<L, A>) -> bool {
        self.atoms.iter().any(|atom| {
            let Some((p, slot)) = atom.parent else {
                return false;
            };
            let parent = &self.atoms[p];
            egraph.classes_with_op(atom.node.op_key()).is_empty()
                || egraph
                    .classes_with_op_child(parent.node.op_key(), parent.node.children().len(), slot)
                    .is_empty()
        })
    }
}

/// Emit the DFS instruction list over `atoms`. With `guarded =
/// Some((atom_est, atom_guard))`, each atom's e-node children are
/// visited in ascending selectivity order and a `Guard` precedes every
/// descent (the planned generic join); with `None`, children stay in
/// slot order and no guards are emitted (the static plan). Returns the
/// instructions and each variable's binding register (its first
/// occurrence in execution order — later occurrences are
/// `Compare`-checked equal, so any of them would produce the same
/// substitution).
fn emit_plan<L: Language>(
    atoms: &[RelAtom<L>],
    var_occ: &[(Var, Vec<usize>)],
    n_regs: usize,
    guarded: Option<(&[usize], &[Option<usize>])>,
) -> (Vec<RelInsn<L>>, Vec<(Var, usize)>) {
    let mut insns: Vec<RelInsn<L>> = Vec::new();
    let mut first_bound: Vec<Option<usize>> = vec![None; var_occ.len()];
    // reg → index into var_occ, for occurrence registers only.
    let mut reg_var: Vec<Option<usize>> = vec![None; n_regs];
    for (vi, (_, occ)) in var_occ.iter().enumerate() {
        for &r in occ {
            reg_var[r] = Some(vi);
        }
    }
    if atoms.is_empty() {
        // Root is a bare variable: every candidate matches itself.
        if let Some(vi) = reg_var[0] {
            first_bound[vi] = Some(0);
        }
    } else {
        let mut stack: Vec<usize> = vec![0];
        while let Some(ix) = stack.pop() {
            let atom = &atoms[ix];
            let arity = atom.node.children().len();
            insns.push(RelInsn::Scan {
                reg: atom.reg,
                node: atom.node.clone(),
                out: atom.out,
            });
            for (r, rv) in reg_var.iter().enumerate().skip(atom.out).take(arity) {
                if let Some(vi) = *rv {
                    match first_bound[vi] {
                        Some(first) => insns.push(RelInsn::Compare { a: first, b: r }),
                        None => first_bound[vi] = Some(r),
                    }
                }
            }
            // `enode_children` is built in slot order; re-sort only for
            // the selectivity-planned variant (tie-break on slot keeps
            // the order deterministic).
            let mut children = atom.enode_children.clone();
            if let Some((atom_est, atom_guard)) = guarded {
                children.sort_by_key(|&(slot, child)| (atom_est[child], slot));
                for &(slot, child) in &children {
                    insns.push(RelInsn::Guard {
                        reg: atom.out + slot,
                        col: atom_guard[child].expect("non-root atom has a guard"),
                    });
                }
            }
            // LIFO stack: push in reverse so the first-ordered (most
            // selective, or lowest-slot) subtree is scanned first.
            for &(_, child) in children.iter().rev() {
                stack.push(child);
            }
        }
    }
    let subst_regs = var_occ
        .iter()
        .enumerate()
        .map(|(vi, (var, _))| {
            (
                *var,
                first_bound[vi].expect("every variable occurrence is bound by some scan"),
            )
        })
        .collect();
    (insns, subst_regs)
}

/// A guard column of an instantiated plan: either the op-head column
/// borrowed straight from the e-graph (lazy — membership in the
/// parent's child column is implied by construction, because every
/// binding a `Scan` produces came out of that very column), or the
/// owned sorted-merge intersection of the two (eager — tighter, and
/// computed only when the sweep is large enough to amortize the merge).
enum GuardCol<'g> {
    Borrowed(&'g [Id]),
    Owned(Vec<Id>),
}

impl GuardCol<'_> {
    fn as_slice(&self) -> &[Id] {
        match self {
            GuardCol::Borrowed(ids) => ids,
            GuardCol::Owned(ids) => ids,
        }
    }
}

/// Sorted-merge intersection of two sorted id columns.
fn intersect_sorted(a: &[Id], b: &[Id]) -> Vec<Id> {
    let mut out = Vec::with_capacity(a.len().min(b.len()));
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                out.push(a[i]);
                i += 1;
                j += 1;
            }
        }
    }
    out
}

/// One instruction of an instantiated join plan.
#[derive(Clone, Debug)]
enum RelInsn<L> {
    /// For each node of the class in `reg` matching `node`, write its
    /// children into `out..` and continue — the only backtracking point
    /// (identical semantics to the structural `Insn::Bind`).
    Scan { reg: usize, node: L, out: usize },
    /// Continue iff registers `a` and `b` hold the same class
    /// (repeated pattern variable).
    Compare { a: usize, b: usize },
    /// Continue iff the class in `reg` is a member of guard column
    /// `col` (binary search) — the sorted-column intersection step of
    /// the generic join, applied before descending into the child atom.
    Guard { reg: usize, col: usize },
}

/// Sweeps at least this large get a per-sweep [`RelPlan`]:
/// selectivity-ordered scans plus eager guard intersections. Below it
/// (delta sweeps, small shards, tiny graphs) planning itself — column
/// lookups, estimates, O(|column|) merges, span bookkeeping — costs
/// more than the sweep, so the precompiled static plan runs instead.
/// Purely a performance switch: both plans accept exactly the same
/// bindings, so results never depend on the threshold.
pub(crate) const PLANNED_SWEEP_MIN: usize = 32;

/// A [`RelQuery`] instantiated against one e-graph snapshot: the
/// selectivity-ordered instruction list plus the guard columns it
/// binary-searches. Built once per (rule, shard) sweep; `'g` borrows
/// the e-graph's index columns.
pub(crate) struct RelPlan<'g, L> {
    insns: Vec<RelInsn<L>>,
    guards: Vec<GuardCol<'g>>,
    /// Register holding each variable's binding (its first occurrence
    /// in execution order — later occurrences are `Compare`-checked
    /// equal, so any of them would produce the same substitution).
    subst_regs: Vec<(Var, usize)>,
    n_regs: usize,
    /// Some guard is provably empty: no candidate anywhere can match,
    /// so execution is skipped for the whole sweep (visited counts are
    /// unaffected — the funnel still counts every candidate).
    impossible: bool,
}

impl<'g, L: Language> RelPlan<'g, L> {
    /// Instantiate `query` against `egraph` for a sweep of `sweep_len`
    /// candidates. Deterministic: depends only on the e-graph snapshot
    /// and the query, never on thread or shard identity.
    pub(crate) fn build<A: Analysis<L>>(
        query: &RelQuery<L>,
        egraph: &'g EGraph<L, A>,
        sweep_len: usize,
    ) -> RelPlan<'g, L> {
        let _span = spores_telemetry::span!(
            "saturation.search.join_plan",
            atoms = query.atoms.len(),
            sweep = sweep_len,
        );
        let mut guards: Vec<GuardCol<'g>> = Vec::new();
        // Per-atom guard column index and selectivity estimate (root has
        // no guard: its candidates already come from the op-head index).
        let mut atom_guard: Vec<Option<usize>> = vec![None; query.atoms.len()];
        let mut atom_est: Vec<usize> = vec![usize::MAX; query.atoms.len()];
        let mut impossible = false;
        let eager = sweep_len >= PLANNED_SWEEP_MIN;
        for (ix, atom) in query.atoms.iter().enumerate() {
            let Some((p, slot)) = atom.parent else {
                continue;
            };
            let parent = &query.atoms[p];
            let head = egraph.classes_with_op(atom.node.op_key());
            let child_col = egraph.classes_with_op_child(
                parent.node.op_key(),
                parent.node.children().len(),
                slot,
            );
            let mut est = head.len().min(child_col.len());
            let col = if eager && est > 0 {
                let merged = intersect_sorted(head, child_col);
                est = merged.len();
                GuardCol::Owned(merged)
            } else {
                GuardCol::Borrowed(head)
            };
            if est == 0 {
                impossible = true;
            }
            atom_est[ix] = est;
            atom_guard[ix] = Some(guards.len());
            guards.push(col);
        }

        // Emit depth-first from the root, visiting each atom's e-node
        // children in ascending selectivity order. After each `Scan`,
        // repeated variables are `Compare`d and every child atom's
        // guard is checked before any descent — fail-fast on cheap
        // filters.
        let (insns, subst_regs) = emit_plan(
            &query.atoms,
            &query.var_occ,
            query.n_regs,
            Some((&atom_est, &atom_guard)),
        );
        RelPlan {
            insns,
            guards,
            subst_regs,
            n_regs: query.n_regs,
            impossible,
        }
    }

    /// Can any candidate match under this plan? False when a guard
    /// column is empty — the caller may skip executions for the whole
    /// sweep (while still counting candidates as visited).
    pub(crate) fn is_impossible(&self) -> bool {
        self.impossible
    }

    /// Run the plan with `eclass` (canonical) as the candidate root,
    /// appending one [`Subst`] per successful join path to `out`.
    /// Scratch-buffer contract identical to the structural
    /// `Program::run_into`.
    pub(crate) fn run_into<A: Analysis<L>>(
        &self,
        egraph: &EGraph<L, A>,
        eclass: Id,
        regs: &mut Vec<Id>,
        out: &mut Vec<Subst>,
    ) {
        debug_assert!(out.is_empty());
        if self.impossible {
            return;
        }
        regs.clear();
        regs.resize(self.n_regs, eclass);
        exec(
            &self.insns,
            &self.guards,
            &self.subst_regs,
            egraph,
            0,
            regs,
            out,
        );
    }
}

/// The join-plan interpreter, shared by the planned and static paths
/// (the static path passes no guards and its instruction list contains
/// no `Guard` insns).
fn exec<L: Language, A: Analysis<L>>(
    insns: &[RelInsn<L>],
    guards: &[GuardCol<'_>],
    subst_regs: &[(Var, usize)],
    egraph: &EGraph<L, A>,
    pc: usize,
    regs: &mut [Id],
    out: &mut Vec<Subst>,
) {
    let Some(insn) = insns.get(pc) else {
        let mut subst = Subst::default();
        for &(var, reg) in subst_regs {
            subst.insert(var, regs[reg]);
        }
        out.push(subst);
        return;
    };
    match insn {
        RelInsn::Scan { reg, node, out: o } => {
            let class = egraph.class_canonical(regs[*reg]);
            let arity = node.children().len();
            for enode in class.iter() {
                if !node.matches(enode) {
                    continue;
                }
                debug_assert_eq!(enode.children().len(), arity);
                regs[*o..*o + arity].copy_from_slice(enode.children());
                exec(insns, guards, subst_regs, egraph, pc + 1, regs, out);
            }
        }
        RelInsn::Compare { a, b } => {
            if regs[*a] == regs[*b] {
                exec(insns, guards, subst_regs, egraph, pc + 1, regs, out);
            }
        }
        RelInsn::Guard { reg, col } => {
            if guards[*col].as_slice().binary_search(&regs[*reg]).is_ok() {
                exec(insns, guards, subst_regs, egraph, pc + 1, regs, out);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::language::parse_rec_expr;
    use crate::language::test_lang::Arith;

    type EG = EGraph<Arith, ()>;

    fn add_str(eg: &mut EG, s: &str) -> Id {
        eg.add_expr(&parse_rec_expr(s).unwrap())
    }

    /// A full sweep on one backend, with its visited-candidate count.
    fn full_sweep(
        p: &crate::Pattern<Arith>,
        eg: &EG,
        mode: MatchingMode,
    ) -> (Vec<crate::SearchMatches>, usize) {
        p.search_ids(eg, &p.except_candidate_ids(eg, &Default::default()), mode)
    }

    /// From-scratch oracle over the live class nodes.
    fn from_scratch(eg: &EG) -> RelIndex {
        RelIndex::rebuild_from(eg.classes().flat_map(|c| c.nodes.iter()))
    }

    #[test]
    fn columns_reflect_child_positions() {
        let mut eg = EG::default();
        let root = add_str(&mut eg, "(* x (+ y 2))");
        eg.rebuild();
        let mul = Arith::Mul([root, root]).op_key();
        let add = Arith::Add([root, root]).op_key();
        let x = eg.lookup_expr(&parse_rec_expr("x").unwrap()).unwrap();
        let plus = eg.lookup_expr(&parse_rec_expr("(+ y 2)").unwrap()).unwrap();
        assert_eq!(eg.classes_with_op_child(mul, 2, 0), &[x]);
        assert_eq!(eg.classes_with_op_child(mul, 2, 1), &[plus]);
        assert_eq!(eg.classes_with_op_child(add, 2, 1).len(), 1);
        // arity participates in the key: no (mul, 3, _) columns exist
        assert!(eg.classes_with_op_child(mul, 3, 0).is_empty());
        assert_eq!(eg.rel_index(), &from_scratch(&eg));
    }

    #[test]
    fn index_is_searchable_without_rebuild_after_adds() {
        // `add` keeps the graph clean, so the relational index must be
        // correct immediately — a search may run before any rebuild.
        let mut eg = EG::default();
        add_str(&mut eg, "(+ (neg x) y)");
        assert!(eg.is_clean());
        assert_eq!(eg.rel_index(), &from_scratch(&eg));
        // sorted even though children were added before their parents
        // (sorted insert, not append)
        let add = Arith::Add([Id::from(0usize), Id::from(0usize)]).op_key();
        let col = eg.classes_with_op_child(add, 2, 0);
        assert!(col.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn union_rebuild_remaps_columns() {
        let mut eg = EG::default();
        let x = add_str(&mut eg, "x");
        let y = add_str(&mut eg, "y");
        add_str(&mut eg, "(+ x a)");
        add_str(&mut eg, "(+ y b)");
        eg.rebuild();
        let add = Arith::Add([x, y]).op_key();
        assert_eq!(eg.classes_with_op_child(add, 2, 0).len(), 2);
        eg.union(x, y);
        eg.rebuild();
        // the two slot-0 occurrences collapse to one canonical id
        let col = eg.classes_with_op_child(add, 2, 0);
        assert_eq!(col, &[eg.find(x)]);
        assert_eq!(eg.rel_index(), &from_scratch(&eg));
        eg.check_invariants();
    }

    /// Satellite: incremental maintenance equals from-scratch
    /// construction after random interleaved add/union/rebuild
    /// sequences, and `check_invariants` (which embeds the same audit)
    /// stays green throughout.
    #[test]
    fn incremental_equals_from_scratch_under_random_mutation() {
        let mut state = 0x5EED_u64;
        let mut next = move |n: u64| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) % n
        };
        for round in 0..20 {
            let mut eg = EG::default();
            let mut ids: Vec<Id> = (0..4)
                .map(|i| eg.add(Arith::Num(i as i64 + round)))
                .collect();
            for step in 0..60 {
                match next(10) {
                    0..=4 => {
                        let a = ids[next(ids.len() as u64) as usize];
                        let b = ids[next(ids.len() as u64) as usize];
                        let node = match next(3) {
                            0 => Arith::Add([a, b]),
                            1 => Arith::Mul([a, b]),
                            _ => Arith::Neg(a),
                        };
                        ids.push(eg.add(node));
                    }
                    5..=6 => {
                        let a = ids[next(ids.len() as u64) as usize];
                        let b = ids[next(ids.len() as u64) as usize];
                        eg.union(a, b);
                    }
                    7 => {
                        ids.push(eg.add(Arith::Num(100 + step)));
                    }
                    _ => {
                        eg.rebuild();
                        assert_eq!(
                            eg.rel_index(),
                            &from_scratch(&eg),
                            "incremental index diverged (round {round}, step {step})"
                        );
                        eg.check_invariants();
                    }
                }
            }
            eg.rebuild();
            assert_eq!(
                eg.rel_index(),
                &from_scratch(&eg),
                "final state, round {round}"
            );
            eg.check_invariants();
        }
    }

    #[test]
    fn empty_guard_short_circuits_but_counts_visits() {
        // Enough `*` classes that the sweep crosses PLANNED_SWEEP_MIN
        // and actually builds a plan (small sweeps run the unguarded
        // static plan, which cannot short-circuit).
        let mut eg = EG::default();
        for i in 0..40 {
            add_str(&mut eg, &format!("(* s{i} s{})", (i + 1) % 40));
        }
        eg.rebuild();
        let n_mul = 40;
        // (* (+ ?a ?b) ?c): `*` classes exist but no `+` node anywhere,
        // so the inner atom's guard is empty and the plan is impossible.
        let p: crate::Pattern<Arith> = "(* (+ ?a ?b) ?c)".parse().unwrap();
        let (matches, visited) = full_sweep(&p, &eg, MatchingMode::Relational);
        assert!(matches.is_empty());
        let (smatches, svisited) = full_sweep(&p, &eg, MatchingMode::Structural);
        assert!(smatches.is_empty());
        assert_eq!(visited, svisited, "visited counts identical across modes");
        assert_eq!(visited, n_mul, "every * class counts as visited");
    }

    #[test]
    fn plan_results_match_structural_on_nested_patterns() {
        let mut eg = EG::default();
        let a = add_str(&mut eg, "(* x (+ y 2))");
        let b = add_str(&mut eg, "(+ (neg x) (* x 2))");
        add_str(&mut eg, "(+ 1 (neg (neg y)))");
        eg.union(a, b);
        eg.rebuild();
        let x = add_str(&mut eg, "x");
        let y = add_str(&mut eg, "y");
        eg.union(x, y);
        eg.rebuild();
        for src in [
            "?a",
            "(+ ?a ?b)",
            "(+ ?a ?a)",
            "(* ?a (+ ?b ?c))",
            "(+ (neg ?a) ?b)",
            "(neg (neg ?a))",
            "(+ 1 ?x)",
            "(* ?a 2)",
            "(+ (neg ?a) (* ?a ?b))",
            "x",
            "7",
        ] {
            let p: crate::Pattern<Arith> = src.parse().unwrap();
            let (rel, rel_visited) = full_sweep(&p, &eg, MatchingMode::Relational);
            let (structural, s_visited) = full_sweep(&p, &eg, MatchingMode::Structural);
            assert_eq!(rel_visited, s_visited, "pattern {src}");
            assert_eq!(rel.len(), structural.len(), "pattern {src}");
            for (r, s) in rel.iter().zip(&structural) {
                assert_eq!(r.eclass, s.eclass, "pattern {src}");
                assert_eq!(r.substs, s.substs, "pattern {src}");
            }
        }
    }

    #[test]
    fn planned_and_static_plans_accept_the_same_bindings() {
        // Build a graph with > PLANNED_SWEEP_MIN candidate classes so a
        // full sweep takes the planned (selectivity-ordered, eager
        // guards) path, then compare against per-class sweeps (len 1,
        // always the precompiled static plan).
        let mut eg = EG::default();
        for i in 0..40 {
            add_str(&mut eg, &format!("(+ (neg s{i}) s{})", (i + 1) % 40));
        }
        eg.rebuild();
        let p: crate::Pattern<Arith> = "(+ (neg ?a) ?b)".parse().unwrap();
        let (eager, visited) = full_sweep(&p, &eg, MatchingMode::Relational);
        assert_eq!(visited, 40);
        let mut lazy = Vec::new();
        for id in eg.class_ids() {
            let bucket = eg.classes_with_op(Arith::Add([id, id]).op_key());
            if !bucket.contains(&id) {
                continue;
            }
            let (m, v) = p.search_ids(&eg, &[id], MatchingMode::Relational);
            assert_eq!(v, 1);
            lazy.extend(m);
        }
        assert_eq!(eager.len(), lazy.len());
        for (e, l) in eager.iter().zip(&lazy) {
            assert_eq!(e.eclass, l.eclass);
            assert_eq!(e.substs, l.substs);
        }
    }
}
