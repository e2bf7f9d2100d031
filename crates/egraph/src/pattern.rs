//! Patterns and e-matching.
//!
//! A pattern is a term with holes (`?a`, `?b`, …). Searching matches the
//! pattern against every e-class (the `match` of Figure 8 in the paper);
//! applying instantiates the pattern under a substitution and inserts it.

use crate::analysis::Analysis;
use crate::egraph::EGraph;
use crate::language::{Id, Language, OpKey, RecExpr};
use crate::relational::{MatchingMode, RelPlan, RelQuery};
use spores_ir::{SExp, Symbol};
use std::borrow::Cow;
use std::collections::VecDeque;
use std::fmt;

/// A pattern variable, e.g. `?a`.
#[derive(Copy, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Var(Symbol);

impl Var {
    /// Make a variable from its spelling (with or without leading `?`).
    pub fn new(name: &str) -> Var {
        let name = name.strip_prefix('?').unwrap_or(name);
        Var(Symbol::new(name))
    }

    pub fn symbol(self) -> Symbol {
        self.0
    }
}

impl fmt::Display for Var {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "?{}", self.0)
    }
}

impl fmt::Debug for Var {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "?{}", self.0)
    }
}

/// A substitution from pattern variables to e-class ids.
#[derive(Clone, Default, PartialEq, Eq, Debug)]
pub struct Subst {
    vec: Vec<(Var, Id)>,
}

impl Subst {
    pub fn get(&self, var: Var) -> Option<Id> {
        self.vec.iter().find(|(v, _)| *v == var).map(|&(_, id)| id)
    }

    pub fn insert(&mut self, var: Var, id: Id) {
        debug_assert!(self.get(var).is_none(), "{var} already bound");
        self.vec.push((var, id));
    }

    /// Canonical ordering so equal substitutions compare equal.
    fn normalize(&mut self) {
        self.vec.sort_unstable();
    }

    pub fn iter(&self) -> impl Iterator<Item = (Var, Id)> + '_ {
        self.vec.iter().copied()
    }
}

/// One node of a pattern: either a language node or a hole.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum ENodeOrVar<L> {
    ENode(L),
    Var(Var),
}

impl<L: Language> Language for ENodeOrVar<L> {
    fn children(&self) -> &[Id] {
        match self {
            ENodeOrVar::ENode(n) => n.children(),
            ENodeOrVar::Var(_) => &[],
        }
    }

    fn children_mut(&mut self) -> &mut [Id] {
        match self {
            ENodeOrVar::ENode(n) => n.children_mut(),
            ENodeOrVar::Var(_) => &mut [],
        }
    }

    fn matches(&self, other: &Self) -> bool {
        match (self, other) {
            (ENodeOrVar::ENode(a), ENodeOrVar::ENode(b)) => a.matches(b),
            (ENodeOrVar::Var(a), ENodeOrVar::Var(b)) => a == b,
            _ => false,
        }
    }

    fn op_display(&self) -> String {
        match self {
            ENodeOrVar::ENode(n) => n.op_display(),
            ENodeOrVar::Var(v) => v.to_string(),
        }
    }

    fn from_op(op: &str, children: Vec<Id>) -> Result<Self, String> {
        if let Some(rest) = op.strip_prefix('?') {
            if !children.is_empty() {
                return Err(format!("pattern variable ?{rest} cannot have children"));
            }
            Ok(ENodeOrVar::Var(Var::new(rest)))
        } else {
            L::from_op(op, children).map(ENodeOrVar::ENode)
        }
    }

    fn op_key(&self) -> OpKey {
        match self {
            // Delegate so a pattern head keys identically to the e-nodes
            // it matches (the default would hash ENodeOrVar's own
            // discriminant instead of the inner language's).
            ENodeOrVar::ENode(n) => n.op_key(),
            // Variables never consult the op index; any stable key works.
            ENodeOrVar::Var(v) => {
                use std::hash::{Hash, Hasher};
                let mut h = crate::hash::FxHasher::default();
                v.hash(&mut h);
                OpKey::from_raw(h.finish())
            }
        }
    }
}

/// One instruction of the compiled pattern machine. Registers hold
/// e-class ids; `Bind` is the only backtracking point.
#[derive(Clone, Debug)]
enum Insn<L> {
    /// For each e-node of the class in register `reg` whose head matches
    /// `node`, write its children into registers `out..out + arity` and
    /// continue; exhausting the nodes backtracks.
    Bind { reg: usize, node: L, out: usize },
    /// Backtrack unless registers `a` and `b` hold the same class
    /// (non-linear patterns such as `(* ?x ?x)`).
    Compare { a: usize, b: usize },
}

/// A pattern lowered once into a flat instruction sequence, executed
/// directly against each candidate class's node vector. Replaces the
/// per-match recursive interpretation of the AST: no recursion over
/// pattern nodes, no re-canonicalization of already-canonical children,
/// and head tests against pre-extracted operator templates.
#[derive(Clone, Debug)]
struct Program<L> {
    insns: Vec<Insn<L>>,
    /// Register holding each pattern variable's binding, in first-occurrence order.
    subst_regs: Vec<(Var, usize)>,
    n_regs: usize,
}

impl<L: Language> Program<L> {
    /// Lower `ast` breadth-first: register 0 is the candidate root class;
    /// every `Bind` allocates a contiguous block for its children, so all
    /// registers are written before any instruction reads them.
    fn compile(ast: &RecExpr<ENodeOrVar<L>>) -> Program<L> {
        let mut insns = Vec::new();
        let mut subst_regs: Vec<(Var, usize)> = Vec::new();
        let mut n_regs = 1usize;
        let mut work: VecDeque<(Id, usize)> = VecDeque::from([(ast.root(), 0)]);
        while let Some((pat, reg)) = work.pop_front() {
            match ast.node(pat) {
                ENodeOrVar::Var(v) => match subst_regs.iter().find(|(u, _)| u == v) {
                    Some(&(_, bound)) => insns.push(Insn::Compare { a: bound, b: reg }),
                    None => subst_regs.push((*v, reg)),
                },
                ENodeOrVar::ENode(n) => {
                    let out = n_regs;
                    n_regs += n.children().len();
                    insns.push(Insn::Bind {
                        reg,
                        node: n.clone(),
                        out,
                    });
                    for (i, &child) in n.children().iter().enumerate() {
                        work.push_back((child, out + i));
                    }
                }
            }
        }
        Program {
            insns,
            subst_regs,
            n_regs,
        }
    }

    /// Run the program with `eclass` (canonical) in the root register,
    /// appending one [`Subst`] per successful execution path to `out`
    /// (which must be empty on entry). The scratch buffers are the
    /// caller's: the search loop visits thousands of candidate classes
    /// per iteration and most produce no match, so allocating a fresh
    /// register file (and output vector) per class would dominate the
    /// cheap executions.
    fn run_into<A: Analysis<L>>(
        &self,
        egraph: &EGraph<L, A>,
        eclass: Id,
        regs: &mut Vec<Id>,
        out: &mut Vec<Subst>,
    ) {
        debug_assert!(out.is_empty());
        regs.clear();
        regs.resize(self.n_regs, eclass);
        self.exec(egraph, 0, regs, out);
    }

    fn exec<A: Analysis<L>>(
        &self,
        egraph: &EGraph<L, A>,
        pc: usize,
        regs: &mut [Id],
        out: &mut Vec<Subst>,
    ) {
        let Some(insn) = self.insns.get(pc) else {
            let mut subst = Subst::default();
            for &(var, reg) in &self.subst_regs {
                subst.insert(var, regs[reg]);
            }
            out.push(subst);
            return;
        };
        match insn {
            Insn::Bind { reg, node, out: o } => {
                // Every register is canonical on a clean graph: the root
                // comes from a canonical candidate stream, and bound
                // children are canonical after rebuild — so the per-Bind
                // union-find lookup is skipped entirely.
                let class = egraph.class_canonical(regs[*reg]);
                let arity = node.children().len();
                for enode in class.iter() {
                    if !node.matches(enode) {
                        continue;
                    }
                    debug_assert_eq!(enode.children().len(), arity);
                    regs[*o..*o + arity].copy_from_slice(enode.children());
                    self.exec(egraph, pc + 1, regs, out);
                }
            }
            Insn::Compare { a, b } => {
                debug_assert_eq!(regs[*a], egraph.find(regs[*a]));
                debug_assert_eq!(regs[*b], egraph.find(regs[*b]));
                if regs[*a] == regs[*b] {
                    self.exec(egraph, pc + 1, regs, out);
                }
            }
        }
    }
}

/// A compiled pattern: the s-expression AST plus its lowered [`Program`].
///
/// Both fields are private so they cannot drift apart: the only way to
/// build a `Pattern` is [`Pattern::new`]/[`Pattern::parse`], which
/// compile the program from the AST.
#[derive(Clone, Debug)]
pub struct Pattern<L> {
    ast: RecExpr<ENodeOrVar<L>>,
    program: Program<L>,
    /// The same pattern lowered for the relational (generic-join)
    /// backend; which lowering runs is the caller's [`MatchingMode`].
    relational: RelQuery<L>,
}

/// All matches of a pattern inside one e-class.
#[derive(Clone, Debug)]
pub struct SearchMatches {
    pub eclass: Id,
    pub substs: Vec<Subst>,
}

impl<L: Language> Pattern<L> {
    pub fn new(ast: RecExpr<ENodeOrVar<L>>) -> Self {
        let program = Program::compile(&ast);
        let relational = RelQuery::compile(&ast);
        Pattern {
            ast,
            program,
            relational,
        }
    }

    /// The pattern's abstract syntax tree.
    pub fn ast(&self) -> &RecExpr<ENodeOrVar<L>> {
        &self.ast
    }

    /// Parse a pattern from s-expression syntax, e.g. `(* ?a (+ ?b ?c))`.
    pub fn parse(src: &str) -> Result<Self, String> {
        let sexp = spores_ir::parse_sexp(src).map_err(|e| e.to_string())?;
        let mut ast = RecExpr::default();
        add_pattern_sexp::<L>(&sexp, &mut ast)?;
        Ok(Pattern::new(ast))
    }

    /// The variables appearing in this pattern.
    pub fn vars(&self) -> Vec<Var> {
        let mut vars = Vec::new();
        for node in self.ast.nodes() {
            if let ENodeOrVar::Var(v) = node {
                if !vars.contains(v) {
                    vars.push(*v);
                }
            }
        }
        vars
    }

    /// The candidate classes the op-head index yields for this pattern:
    /// classes containing a node with the pattern root's head, or every
    /// class when the root is a variable. Sorted (deterministic order).
    fn candidates<'g, A: Analysis<L>>(&self, egraph: &'g EGraph<L, A>) -> Cow<'g, [Id]> {
        match self.ast.node(self.ast.root()) {
            ENodeOrVar::ENode(n) => Cow::Borrowed(egraph.classes_with_op(n.op_key())),
            ENodeOrVar::Var(_) => Cow::Owned(egraph.class_ids()),
        }
    }

    /// Full sweep on the structural backend: search the classes the
    /// op-head index proposes for the pattern root (not every e-class).
    /// This is [`Pattern::search_ids`] over
    /// [`Pattern::except_candidate_ids`] with nothing excluded.
    pub fn search<A: Analysis<L>>(&self, egraph: &EGraph<L, A>) -> Vec<SearchMatches> {
        self.search_candidates(egraph, &self.candidates(egraph)).0
    }

    /// The exact candidate list delta search visits: the op-head
    /// candidates for the pattern root intersected with the dirty set,
    /// in ascending id order. `dirty_sorted` must be sorted and
    /// deduplicated; the saturation driver sorts each iteration's dirty
    /// snapshot once and shares it across every rule, and the parallel
    /// search phase shards the returned list across its pool.
    ///
    /// Because the e-graph closes the dirty set over the parent
    /// relation ([`EGraph::dirty_classes`]), a match is new only if its
    /// *root* class is dirty — a change at any bound child position
    /// dirties every ancestor, so the root-level intersection already
    /// covers sub-term changes and no per-child dirty test is needed.
    /// Matches rooted in clean classes are exactly the matches the
    /// previous full sweep already returned (modulo id canonicalization),
    /// which is the property `tests/proptest_delta.rs` checks
    /// differentially against [`Pattern::naive_search`].
    pub fn delta_candidate_ids<A: Analysis<L>>(
        &self,
        egraph: &EGraph<L, A>,
        dirty_sorted: &[Id],
    ) -> Vec<Id> {
        debug_assert!(dirty_sorted.windows(2).all(|w| w[0] < w[1]));
        match self.ast.node(self.ast.root()) {
            ENodeOrVar::ENode(n) => {
                let bucket = egraph.classes_with_op(n.op_key());
                // Intersect from the smaller side; either way the
                // candidates come out in ascending id order, so match
                // order is deterministic and mode-independent.
                if dirty_sorted.len() < bucket.len() {
                    dirty_sorted
                        .iter()
                        .copied()
                        .filter(|id| bucket.binary_search(id).is_ok())
                        .collect()
                } else {
                    bucket
                        .iter()
                        .copied()
                        .filter(|id| dirty_sorted.binary_search(id).is_ok())
                        .collect()
                }
            }
            ENodeOrVar::Var(_) => {
                // Canonicalize + dedup: a banked dirty set can hold a
                // merged-away id alongside its canonical survivor (the
                // ENode arm is screened by the rebuilt op-index, this
                // arm is not), and visiting both would duplicate the
                // class's matches.
                let mut ids: Vec<Id> = dirty_sorted.iter().map(|&id| egraph.find(id)).collect();
                ids.sort_unstable();
                ids.dedup();
                ids
            }
        }
    }

    /// The exact candidate list a full sweep visits (ascending class
    /// ids), minus the classes in `excluded` (workload mode's frozen
    /// regions).
    pub fn except_candidate_ids<A: Analysis<L>>(
        &self,
        egraph: &EGraph<L, A>,
        excluded: &crate::hash::FxHashSet<Id>,
    ) -> Vec<Id> {
        let candidates = self.candidates(egraph);
        if excluded.is_empty() {
            return candidates.into_owned();
        }
        candidates
            .iter()
            .copied()
            .filter(|id| !excluded.contains(id))
            .collect()
    }

    /// Run the matcher over an explicit candidate id list — the one
    /// funnel every search goes through, full or delta sweep, whole
    /// list or one parallel shard — reporting the matches and how many
    /// classes were visited. The ids must be canonical and on a clean
    /// graph, as produced by [`Pattern::delta_candidate_ids`] /
    /// [`Pattern::except_candidate_ids`]. Both backends visit exactly
    /// the ids given (identical `visited` counts) and return
    /// bit-identical matches; see `tests/proptest_relational.rs`.
    pub fn search_ids<A: Analysis<L>>(
        &self,
        egraph: &EGraph<L, A>,
        ids: &[Id],
        mode: MatchingMode,
    ) -> (Vec<SearchMatches>, usize) {
        match mode {
            MatchingMode::Structural => self.search_candidates(egraph, ids),
            MatchingMode::Relational => self.search_candidates_relational(egraph, ids),
        }
    }

    /// The relational twin of [`Pattern::search_candidates`]: build one
    /// generic-join plan for the sweep (the candidate count picks lazy
    /// vs eager guard columns), then run it per candidate with the same
    /// visited accounting, scratch reuse, and `finish_matches`
    /// normalization. A plan with an empty guard column proves no
    /// candidate can match: the executor returns immediately, but every
    /// id still counts as visited — `candidates_visited` must stay
    /// comparable across modes.
    fn search_candidates_relational<A: Analysis<L>>(
        &self,
        egraph: &EGraph<L, A>,
        ids: &[Id],
    ) -> (Vec<SearchMatches>, usize) {
        debug_assert!(egraph.is_clean(), "search requires a rebuilt e-graph");
        // Adaptive planning: sweeps too small to amortize per-sweep
        // selectivity planning run the query's precompiled static plan.
        // Purely a cost decision — both paths accept identical bindings
        // (see `relational::PLANNED_SWEEP_MIN`).
        let plan = if ids.len() >= crate::relational::PLANNED_SWEEP_MIN {
            let plan = RelPlan::build(&self.relational, egraph, ids.len());
            if plan.is_impossible() {
                return (Vec::new(), ids.len());
            }
            Some(plan)
        } else {
            // Semi-join precheck against the index columns: an
            // inapplicable pattern skips the sweep after O(#atoms) hash
            // lookups, while still reporting every candidate as visited.
            if self.relational.sweep_is_impossible(egraph) {
                return (Vec::new(), ids.len());
            }
            None
        };
        let mut visited = 0;
        let mut matches = Vec::new();
        let mut regs: Vec<Id> = Vec::new();
        let mut raw: Vec<Subst> = Vec::new();
        for &id in ids {
            visited += 1;
            debug_assert_eq!(id, egraph.find(id), "candidate ids are canonical");
            match &plan {
                Some(plan) => plan.run_into(egraph, id, &mut regs, &mut raw),
                None => self
                    .relational
                    .run_static_into(egraph, id, &mut regs, &mut raw),
            }
            if raw.is_empty() {
                continue;
            }
            if let Some(m) = Self::finish_matches(id, std::mem::take(&mut raw)) {
                matches.push(m);
            }
        }
        (matches, visited)
    }

    /// Run the compiled machine over `ids`, reporting the matches and
    /// how many classes were visited (`visited` counts identically in
    /// full, delta, and frozen-filtered sweeps).
    fn search_candidates<A: Analysis<L>>(
        &self,
        egraph: &EGraph<L, A>,
        ids: &[Id],
    ) -> (Vec<SearchMatches>, usize) {
        debug_assert!(egraph.is_clean(), "search requires a rebuilt e-graph");
        let mut visited = 0;
        let mut matches = Vec::new();
        // One register file and one raw-subst buffer for the whole
        // sweep: most candidates produce no match, and those executions
        // must not pay any allocation.
        let mut regs: Vec<Id> = Vec::new();
        let mut raw: Vec<Subst> = Vec::new();
        for &id in ids {
            visited += 1;
            debug_assert_eq!(id, egraph.find(id), "candidate ids are canonical");
            self.program.run_into(egraph, id, &mut regs, &mut raw);
            if raw.is_empty() {
                continue;
            }
            if let Some(m) = Self::finish_matches(id, std::mem::take(&mut raw)) {
                matches.push(m);
            }
        }
        (matches, visited)
    }

    /// Search every e-class with the interpreted matcher — the reference
    /// implementation the compiled machine is differentially tested (and
    /// benchmarked) against. Prefer [`Pattern::search`].
    pub fn naive_search<A: Analysis<L>>(&self, egraph: &EGraph<L, A>) -> Vec<SearchMatches> {
        debug_assert!(egraph.is_clean(), "search requires a rebuilt e-graph");
        let mut out = Vec::new();
        for id in egraph.class_ids() {
            if let Some(m) = self.naive_search_eclass(egraph, id) {
                out.push(m);
            }
        }
        out
    }

    /// Search one e-class by interpreting the pattern AST (see
    /// [`Pattern::naive_search`]).
    fn naive_search_eclass<A: Analysis<L>>(
        &self,
        egraph: &EGraph<L, A>,
        eclass: Id,
    ) -> Option<SearchMatches> {
        let substs = self.match_id(egraph, self.ast.root(), eclass, Subst::default());
        Self::finish_matches(egraph.find(eclass), substs)
    }

    /// Normalize, order, and dedup raw substitutions into a
    /// [`SearchMatches`] (shared by both matchers so their outputs are
    /// directly comparable).
    fn finish_matches(eclass: Id, mut substs: Vec<Subst>) -> Option<SearchMatches> {
        for s in &mut substs {
            s.normalize();
        }
        substs.sort_unstable_by(|a, b| a.vec.cmp(&b.vec));
        substs.dedup();
        if substs.is_empty() {
            None
        } else {
            Some(SearchMatches { eclass, substs })
        }
    }

    fn match_id<A: Analysis<L>>(
        &self,
        egraph: &EGraph<L, A>,
        pat: Id,
        eclass: Id,
        subst: Subst,
    ) -> Vec<Subst> {
        let eclass = egraph.find(eclass);
        match self.ast.node(pat) {
            ENodeOrVar::Var(v) => match subst.get(*v) {
                Some(bound) => {
                    if egraph.find(bound) == eclass {
                        vec![subst]
                    } else {
                        vec![]
                    }
                }
                None => {
                    let mut s = subst;
                    s.insert(*v, eclass);
                    vec![s]
                }
            },
            ENodeOrVar::ENode(pnode) => {
                let mut out = Vec::new();
                for enode in egraph.class(eclass).iter() {
                    if !pnode.matches(enode) {
                        continue;
                    }
                    debug_assert_eq!(pnode.children().len(), enode.children().len());
                    let mut partial = vec![subst.clone()];
                    for (&pc, &ec) in pnode.children().iter().zip(enode.children()) {
                        let mut next = Vec::new();
                        for s in partial {
                            next.extend(self.match_id(egraph, pc, ec, s));
                        }
                        partial = next;
                        if partial.is_empty() {
                            break;
                        }
                    }
                    out.extend(partial);
                }
                out
            }
        }
    }

    /// Instantiate the pattern under `subst`, inserting it into the graph.
    /// Returns the class of the instantiated root.
    pub fn apply<A: Analysis<L>>(&self, egraph: &mut EGraph<L, A>, subst: &Subst) -> Id {
        let mut ids: Vec<Id> = Vec::with_capacity(self.ast.len());
        for node in self.ast.nodes() {
            let id = match node {
                ENodeOrVar::Var(v) => subst
                    .get(*v)
                    .unwrap_or_else(|| panic!("unbound pattern variable {v}")),
                ENodeOrVar::ENode(n) => {
                    let n = n.clone().map_children(|c| ids[c.index()]);
                    egraph.add(n)
                }
            };
            ids.push(id);
        }
        *ids.last().expect("non-empty pattern")
    }

    /// Instantiate the pattern into a concrete [`RecExpr`] using a mapping
    /// from variables to concrete sub-expressions.
    pub fn instantiate(&self, bindings: &dyn Fn(Var) -> RecExpr<L>) -> RecExpr<L> {
        let mut out = RecExpr::default();
        let mut ids: Vec<Id> = Vec::with_capacity(self.ast.len());
        for node in self.ast.nodes() {
            let id = match node {
                ENodeOrVar::Var(v) => {
                    let sub = bindings(*v);
                    let mut map = Vec::with_capacity(sub.len());
                    for n in sub.nodes() {
                        let n = n.clone().map_children(|c| map[c.index()]);
                        map.push(out.add(n));
                    }
                    *map.last().expect("non-empty binding")
                }
                ENodeOrVar::ENode(n) => {
                    let n = n.clone().map_children(|c| ids[c.index()]);
                    out.add(n)
                }
            };
            ids.push(id);
        }
        out
    }
}

impl<L: Language> fmt::Display for Pattern<L> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.ast)
    }
}

impl<L: Language> std::str::FromStr for Pattern<L> {
    type Err = String;
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        Pattern::parse(s)
    }
}

fn add_pattern_sexp<L: Language>(
    sexp: &SExp,
    ast: &mut RecExpr<ENodeOrVar<L>>,
) -> Result<Id, String> {
    match sexp {
        SExp::Atom(a) => {
            let node = ENodeOrVar::from_op(a, vec![])?;
            Ok(ast.add(node))
        }
        SExp::List(items) => {
            let (op, rest) = items
                .split_first()
                .ok_or_else(|| "empty list in pattern".to_owned())?;
            let op = op
                .as_atom()
                .ok_or_else(|| format!("operator must be an atom, got {op}"))?;
            let children = rest
                .iter()
                .map(|c| add_pattern_sexp(c, ast))
                .collect::<Result<Vec<_>, _>>()?;
            let node = ENodeOrVar::from_op(op, children)?;
            Ok(ast.add(node))
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

    /// A full structural sweep with its visited-candidate count.
    fn full_sweep(p: &Pattern<Arith>, eg: &EG) -> (Vec<SearchMatches>, usize) {
        let ids = p.except_candidate_ids(eg, &Default::default());
        p.search_ids(eg, &ids, MatchingMode::Structural)
    }

    #[test]
    fn parse_and_vars() {
        let p: Pattern<Arith> = "(* ?a (+ ?b ?a))".parse().unwrap();
        assert_eq!(p.to_string(), "(* ?a (+ ?b ?a))");
        assert_eq!(p.vars().len(), 2);
    }

    #[test]
    fn simple_match() {
        let mut eg = EG::default();
        let root = add_str(&mut eg, "(* x (+ y 2))");
        eg.rebuild();
        let p: Pattern<Arith> = "(* ?a (+ ?b ?c))".parse().unwrap();
        let matches = p.search(&eg);
        assert_eq!(matches.len(), 1);
        assert_eq!(matches[0].eclass, eg.find(root));
        assert_eq!(matches[0].substs.len(), 1);
    }

    #[test]
    fn nonlinear_pattern_requires_same_class() {
        let mut eg = EG::default();
        add_str(&mut eg, "(* x x)");
        add_str(&mut eg, "(* x y)");
        eg.rebuild();
        let p: Pattern<Arith> = "(* ?a ?a)".parse().unwrap();
        let matches = p.search(&eg);
        assert_eq!(matches.len(), 1, "only (* x x) matches (* ?a ?a)");
    }

    #[test]
    fn nonlinear_matches_after_union() {
        let mut eg = EG::default();
        let x = add_str(&mut eg, "x");
        let y = add_str(&mut eg, "y");
        add_str(&mut eg, "(* x y)");
        let p: Pattern<Arith> = "(* ?a ?a)".parse().unwrap();
        eg.rebuild();
        assert_eq!(p.search(&eg).len(), 0);
        eg.union(x, y);
        eg.rebuild();
        assert_eq!(p.search(&eg).len(), 1, "x=y makes (* x y) match (* ?a ?a)");
    }

    #[test]
    fn multiple_substs_in_one_class() {
        let mut eg = EG::default();
        let a = add_str(&mut eg, "(+ x y)");
        let b = add_str(&mut eg, "(+ y x)");
        eg.union(a, b);
        eg.rebuild();
        let p: Pattern<Arith> = "(+ ?a ?b)".parse().unwrap();
        let (m, _) = p.search_ids(&eg, &[eg.find(a)], MatchingMode::Structural);
        assert_eq!(m[0].substs.len(), 2);
    }

    #[test]
    fn apply_inserts_instantiation() {
        let mut eg = EG::default();
        let root = add_str(&mut eg, "(* x (+ y 2))");
        eg.rebuild();
        let lhs: Pattern<Arith> = "(* ?a (+ ?b ?c))".parse().unwrap();
        let rhs: Pattern<Arith> = "(+ (* ?a ?b) (* ?a ?c))".parse().unwrap();
        let m = &lhs.search(&eg)[0];
        let new = rhs.apply(&mut eg, &m.substs[0]);
        eg.union(root, new);
        eg.rebuild();
        let want = parse_rec_expr::<Arith>("(+ (* x y) (* x 2))").unwrap();
        assert_eq!(eg.lookup_expr(&want), Some(eg.find(root)));
        eg.check_invariants();
    }

    #[test]
    fn leaf_patterns_match_constants() {
        let mut eg = EG::default();
        add_str(&mut eg, "(+ 1 x)");
        eg.rebuild();
        let p: Pattern<Arith> = "(+ 1 ?x)".parse().unwrap();
        assert_eq!(p.search(&eg).len(), 1);
        let p2: Pattern<Arith> = "(+ 2 ?x)".parse().unwrap();
        assert_eq!(p2.search(&eg).len(), 0);
    }

    #[test]
    fn instantiate_to_recexpr() {
        let p: Pattern<Arith> = "(+ ?a (* ?a 2))".parse().unwrap();
        let x: RecExpr<Arith> = parse_rec_expr("(neg z)").unwrap();
        let e = p.instantiate(&|_| x.clone());
        assert_eq!(e.to_string(), "(+ (neg z) (* (neg z) 2))");
    }

    /// The patterns the compiled/indexed matcher is checked against the
    /// interpreted reference on, across all unit-test graph shapes.
    fn differential_patterns() -> Vec<Pattern<Arith>> {
        [
            "?a",
            "(+ ?a ?b)",
            "(+ ?a ?a)",
            "(* ?a (+ ?b ?c))",
            "(+ (neg ?a) ?b)",
            "(neg (neg ?a))",
            "(+ 1 ?x)",
            "(* ?a 2)",
            "x",
            "7",
        ]
        .iter()
        .map(|s| s.parse().unwrap())
        .collect()
    }

    #[test]
    fn compiled_matcher_agrees_with_naive() {
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
        for p in differential_patterns() {
            let (indexed, candidates) = full_sweep(&p, &eg);
            let naive = p.naive_search(&eg);
            assert_eq!(indexed.len(), naive.len(), "pattern {p}");
            for (i, n) in indexed.iter().zip(&naive) {
                assert_eq!(i.eclass, n.eclass, "pattern {p}");
                assert_eq!(i.substs, n.substs, "pattern {p}");
            }
            assert!(candidates <= eg.number_of_classes(), "pattern {p}");
        }
    }

    #[test]
    fn index_narrows_candidates_for_nonvar_roots() {
        let mut eg = EG::default();
        add_str(&mut eg, "(* (+ x y) (neg z))");
        eg.rebuild();
        // exactly one class holds a `+` node; the index must propose
        // only that class, not all six
        let p: Pattern<Arith> = "(+ ?a ?b)".parse().unwrap();
        let (matches, candidates) = full_sweep(&p, &eg);
        assert_eq!(candidates, 1);
        assert_eq!(matches.len(), 1);
        // a variable root cannot be narrowed: every class is a candidate
        let pv: Pattern<Arith> = "?a".parse().unwrap();
        let (_, all) = full_sweep(&pv, &eg);
        assert_eq!(all, eg.number_of_classes());
        // a head that occurs nowhere proposes nothing
        let pm: Pattern<Arith> = "(* (* ?a ?b) ?c)".parse().unwrap();
        let (none, multiplies) = full_sweep(&pm, &eg);
        assert_eq!(multiplies, 1, "one class holds a `*` node");
        assert!(none.is_empty());
    }

    #[test]
    fn index_stays_consistent_across_union_rebuild() {
        let mut eg = EG::default();
        let a = add_str(&mut eg, "(+ x y)");
        let b = add_str(&mut eg, "(* x y)");
        let p: Pattern<Arith> = "(+ ?a ?b)".parse().unwrap();
        eg.rebuild();
        assert_eq!(p.search(&eg).len(), 1);
        // merging the + class into the * class must leave the + head
        // discoverable under the merged class id
        eg.union(a, b);
        eg.rebuild();
        let m = p.search(&eg);
        assert_eq!(m.len(), 1);
        assert_eq!(m[0].eclass, eg.find(a));
        assert_eq!(m[0].eclass, eg.find(b));
        eg.check_invariants();
    }
}
