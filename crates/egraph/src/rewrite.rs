//! Rewrite rules: a searcher pattern, an applier, and optional conditions.
//!
//! Conditions implement the paper's schema-guarded rules (§3.2): e.g. rule
//! 3 of Figure 3 only applies when index `i` is not in the schema of the
//! matched sub-expression, which a plain syntactic pattern cannot express.
//!
//! Each condition carries a [`ConditionMeta`] describing *what* it checks
//! in machine-readable form, alongside the closure that checks it at
//! rewrite time. Static analyses (the `spores-ruleaudit` crate) consume
//! the metadata to prove that every rule whose schemas only unify under a
//! hypothesis actually declares the matching hypothesis; the runtime only
//! ever evaluates the closure. A rule built through [`Rewrite::with_condition`]
//! gets [`ConditionMeta::Opaque`] metadata, which the auditor reports as
//! unanalyzable rather than silently trusting.

use crate::analysis::Analysis;
use crate::egraph::EGraph;
use crate::language::{Id, Language};
use crate::pattern::{Pattern, SearchMatches, Subst, Var};
use std::fmt;
use std::sync::Arc;

/// A side condition evaluated against the matched class and substitution.
pub type Condition<L, A> = dyn Fn(&EGraph<L, A>, Id, &Subst) -> bool + Send + Sync;

/// Which side of a rewrite a diagnostic refers to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PatternSide {
    Lhs,
    Rhs,
}

impl fmt::Display for PatternSide {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PatternSide::Lhs => write!(f, "lhs"),
            PatternSide::Rhs => write!(f, "rhs"),
        }
    }
}

/// Typed error from [`Rewrite`] construction and ruleset validation.
///
/// Shared with the static auditor so CLI diagnostics and library errors
/// agree on shape and wording.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RewriteError {
    /// A pattern side failed to parse.
    Parse {
        rule: String,
        side: PatternSide,
        message: String,
    },
    /// An rhs variable is not bound by the lhs.
    UnboundVar { rule: String, var: Var },
    /// Two rules in one ruleset share a name.
    DuplicateName { name: String },
}

impl fmt::Display for RewriteError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RewriteError::Parse {
                rule,
                side,
                message,
            } => {
                write!(f, "rule {rule}, {side}: {message}")
            }
            RewriteError::UnboundVar { rule, var } => {
                write!(f, "rule {rule}: rhs variable {var} not bound by lhs")
            }
            RewriteError::DuplicateName { name } => {
                write!(f, "duplicate rule name {name}")
            }
        }
    }
}

impl std::error::Error for RewriteError {}

/// Machine-readable description of what a side condition checks.
///
/// The vocabulary covers the paper's §3.2 schema guards: index-freeness
/// (`i ∉ Attr(A)`, Figure 3 rules 3/6), schema containment and additive
/// zeros (the sparsity-driven `A + 0ᵣₑₗ = A` closure rule). Conditions
/// attached through [`Rewrite::with_condition`] are [`ConditionMeta::Opaque`].
/// The e-graph never interprets this metadata; it exists for static
/// analysis and reporting.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ConditionMeta {
    /// `σ(index) ∉ Attr(σ(of))`: the index bound to `index` does not occur
    /// in the schema of the expression bound to `of`.
    IndexNotInSchema { index: Var, of: Var },
    /// `Attr(σ(sub)) ⊆ Attr(σ(sup))`: schema containment between two
    /// matched sub-expressions.
    SchemaSubset { sub: Var, sup: Var },
    /// `σ(var)` is the additive zero (e.g. a relation of sparsity 0).
    IsZero { var: Var },
    /// A closure with no declared semantics. The auditor reports rules
    /// carrying one of these as not statically analyzable.
    Opaque { description: String },
}

impl fmt::Display for ConditionMeta {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConditionMeta::IndexNotInSchema { index, of } => {
                write!(f, "{index} ∉ Attr({of})")
            }
            ConditionMeta::SchemaSubset { sub, sup } => {
                write!(f, "Attr({sub}) ⊆ Attr({sup})")
            }
            ConditionMeta::IsZero { var } => write!(f, "{var} = 0"),
            ConditionMeta::Opaque { description } => write!(f, "<opaque: {description}>"),
        }
    }
}

/// A side condition: the runtime closure plus its declared metadata.
pub struct DeclaredCondition<L: Language, A: Analysis<L>> {
    pub meta: ConditionMeta,
    pub check: Arc<Condition<L, A>>,
}

impl<L: Language, A: Analysis<L>> Clone for DeclaredCondition<L, A> {
    fn clone(&self) -> Self {
        DeclaredCondition {
            meta: self.meta.clone(),
            check: Arc::clone(&self.check),
        }
    }
}

/// Something that can produce new ids to union with a matched class.
pub trait Applier<L: Language, A: Analysis<L>>: Send + Sync {
    /// Instantiate for one match; return the ids to union with `eclass`.
    fn apply_one(&self, egraph: &mut EGraph<L, A>, eclass: Id, subst: &Subst) -> Vec<Id>;

    /// For diagnostics.
    fn describe(&self) -> String {
        "<dynamic applier>".to_owned()
    }

    /// The rhs pattern, when this applier is a plain pattern
    /// instantiation. Dynamic appliers return `None` and are reported as
    /// unanalyzable by static passes.
    fn as_pattern(&self) -> Option<&Pattern<L>> {
        None
    }
}

impl<L: Language + Send + Sync, A: Analysis<L>> Applier<L, A> for Pattern<L> {
    fn apply_one(&self, egraph: &mut EGraph<L, A>, _eclass: Id, subst: &Subst) -> Vec<Id> {
        vec![self.apply(egraph, subst)]
    }

    fn describe(&self) -> String {
        self.to_string()
    }

    fn as_pattern(&self) -> Option<&Pattern<L>> {
        Some(self)
    }
}

/// A named rewrite rule.
pub struct Rewrite<L: Language, A: Analysis<L>> {
    pub name: String,
    pub searcher: Pattern<L>,
    pub applier: Arc<dyn Applier<L, A>>,
    pub conditions: Vec<DeclaredCondition<L, A>>,
    /// True when a repeated lhs variable (a non-linear pattern such as
    /// `(* ?x ?x)`) is intentional. The linearity audit flags repeated
    /// lhs variables on rules that do not declare this.
    nonlinear_lhs: bool,
}

impl<L: Language, A: Analysis<L>> Clone for Rewrite<L, A> {
    fn clone(&self) -> Self {
        Rewrite {
            name: self.name.clone(),
            searcher: self.searcher.clone(),
            applier: Arc::clone(&self.applier),
            conditions: self.conditions.clone(),
            nonlinear_lhs: self.nonlinear_lhs,
        }
    }
}

impl<L: Language, A: Analysis<L>> fmt::Debug for Rewrite<L, A> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}: {} => {}",
            self.name,
            self.searcher,
            self.applier.describe()
        )
    }
}

impl<L: Language + Send + Sync + 'static, A: Analysis<L>> Rewrite<L, A> {
    /// Build a `lhs => rhs` rule from pattern strings.
    pub fn new(name: impl Into<String>, lhs: &str, rhs: &str) -> Result<Self, RewriteError> {
        let name = name.into();
        let searcher: Pattern<L> = lhs.parse().map_err(|e| RewriteError::Parse {
            rule: name.clone(),
            side: PatternSide::Lhs,
            message: e,
        })?;
        let applier: Pattern<L> = rhs.parse().map_err(|e| RewriteError::Parse {
            rule: name.clone(),
            side: PatternSide::Rhs,
            message: e,
        })?;
        // every rhs variable must be bound by the lhs
        let lhs_vars = searcher.vars();
        for v in applier.vars() {
            if !lhs_vars.contains(&v) {
                return Err(RewriteError::UnboundVar { rule: name, var: v });
            }
        }
        Ok(Rewrite {
            name,
            searcher,
            applier: Arc::new(applier),
            conditions: Vec::new(),
            nonlinear_lhs: false,
        })
    }

    /// Add an undeclared side condition; the rule only fires when it
    /// returns true. Prefer [`Rewrite::with_declared_condition`]: rules
    /// built through this method carry [`ConditionMeta::Opaque`] metadata
    /// and cannot be statically audited.
    pub fn with_condition(
        self,
        cond: impl Fn(&EGraph<L, A>, Id, &Subst) -> bool + Send + Sync + 'static,
    ) -> Self {
        self.with_declared_condition(
            ConditionMeta::Opaque {
                description: "<dynamic condition>".to_owned(),
            },
            cond,
        )
    }

    /// Add a side condition together with machine-readable metadata
    /// stating what it checks. The closure remains the runtime authority;
    /// the metadata is what static analysis cross-checks.
    pub fn with_declared_condition(
        mut self,
        meta: ConditionMeta,
        cond: impl Fn(&EGraph<L, A>, Id, &Subst) -> bool + Send + Sync + 'static,
    ) -> Self {
        self.conditions.push(DeclaredCondition {
            meta,
            check: Arc::new(cond),
        });
        self
    }

    /// Declare that this rule's repeated lhs variables are intentional
    /// equality constraints (e.g. `(+ ?x ?x) => (* 2 ?x)`).
    pub fn with_nonlinear_lhs(mut self) -> Self {
        self.nonlinear_lhs = true;
        self
    }

    /// Replace the applier with a dynamic one (for rules that must compute
    /// their output rather than instantiate a pattern).
    pub fn with_applier(mut self, applier: impl Applier<L, A> + 'static) -> Self {
        self.applier = Arc::new(applier);
        self
    }
}

impl<L: Language, A: Analysis<L>> Rewrite<L, A> {
    /// Declared metadata of every side condition, in evaluation order.
    pub fn condition_metas(&self) -> impl Iterator<Item = &ConditionMeta> {
        self.conditions.iter().map(|c| &c.meta)
    }

    /// Whether repeated lhs variables were declared intentional.
    pub fn nonlinear_lhs_declared(&self) -> bool {
        self.nonlinear_lhs
    }

    /// The rhs as a pattern, when the applier is a plain pattern.
    pub fn rhs_pattern(&self) -> Option<&Pattern<L>> {
        self.applier.as_pattern()
    }

    /// Search the whole e-graph for matches of this rule's lhs.
    pub fn search(&self, egraph: &EGraph<L, A>) -> Vec<SearchMatches> {
        self.searcher.search(egraph)
    }

    /// The candidate list a delta search of this rule visits.
    /// See [`Pattern::delta_candidate_ids`].
    pub fn delta_candidate_ids(&self, egraph: &EGraph<L, A>, dirty_sorted: &[Id]) -> Vec<Id> {
        self.searcher.delta_candidate_ids(egraph, dirty_sorted)
    }

    /// The candidate list a frozen-filtered full sweep of this rule
    /// visits. See [`Pattern::except_candidate_ids`].
    pub fn except_candidate_ids(
        &self,
        egraph: &EGraph<L, A>,
        excluded: &crate::hash::FxHashSet<Id>,
    ) -> Vec<Id> {
        self.searcher.except_candidate_ids(egraph, excluded)
    }

    /// Run this rule's matcher over an explicit candidate id list (a
    /// whole sweep or one search shard). See [`Pattern::search_ids`].
    pub fn search_ids(
        &self,
        egraph: &EGraph<L, A>,
        ids: &[Id],
        mode: crate::relational::MatchingMode,
    ) -> (Vec<SearchMatches>, usize) {
        self.searcher.search_ids(egraph, ids, mode)
    }

    /// Apply this rule to one (class, subst) match. Returns the number of
    /// unions actually performed.
    pub fn apply_match(&self, egraph: &mut EGraph<L, A>, eclass: Id, subst: &Subst) -> usize {
        for cond in &self.conditions {
            if !(cond.check)(egraph, eclass, subst) {
                return 0;
            }
        }
        let ids = self.applier.apply_one(egraph, eclass, subst);
        let mut unions = 0;
        for id in ids {
            let (_, changed) = egraph.union(eclass, id);
            unions += usize::from(changed);
        }
        unions
    }
}

/// Validate that every rule in a set has a distinct name.
///
/// Duplicate names would make scheduler statistics, backoff priors, and
/// audit reports ambiguous; both the runner's callers and the static
/// auditor check through this one helper.
pub fn check_unique_names<L: Language, A: Analysis<L>>(
    rules: &[Rewrite<L, A>],
) -> Result<(), RewriteError> {
    let mut seen = crate::hash::FxHashSet::default();
    for r in rules {
        if !seen.insert(r.name.as_str()) {
            return Err(RewriteError::DuplicateName {
                name: r.name.clone(),
            });
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::language::parse_rec_expr;
    use crate::language::test_lang::Arith;

    type EG = EGraph<Arith, ()>;

    #[test]
    fn rule_applies_and_unions() {
        let mut eg = EG::default();
        let root = eg.add_expr(&parse_rec_expr("(+ x y)").unwrap());
        eg.rebuild();
        let rule: Rewrite<Arith, ()> = Rewrite::new("comm-add", "(+ ?a ?b)", "(+ ?b ?a)").unwrap();
        let matches = rule.search(&eg);
        assert_eq!(matches.len(), 1);
        let unions = rule.apply_match(&mut eg, matches[0].eclass, &matches[0].substs[0]);
        assert_eq!(unions, 1);
        eg.rebuild();
        let flipped = parse_rec_expr::<Arith>("(+ y x)").unwrap();
        assert_eq!(eg.lookup_expr(&flipped), Some(eg.find(root)));
    }

    #[test]
    fn unbound_rhs_var_rejected() {
        let r: Result<Rewrite<Arith, ()>, _> = Rewrite::new("bad", "(+ ?a ?b)", "(+ ?a ?c)");
        match r {
            Err(RewriteError::UnboundVar { rule, var }) => {
                assert_eq!(rule, "bad");
                assert_eq!(var, Var::new("c"));
            }
            other => panic!("expected UnboundVar, got {other:?}"),
        }
    }

    #[test]
    fn parse_error_is_typed() {
        let r: Result<Rewrite<Arith, ()>, _> = Rewrite::new("bad", "(+ ?a", "?a");
        match r {
            Err(RewriteError::Parse { rule, side, .. }) => {
                assert_eq!(rule, "bad");
                assert_eq!(side, PatternSide::Lhs);
            }
            other => panic!("expected Parse error, got {other:?}"),
        }
    }

    #[test]
    fn duplicate_names_detected() {
        let r: Rewrite<Arith, ()> = Rewrite::new("same", "(+ ?a ?b)", "(+ ?b ?a)").unwrap();
        let rules = vec![r.clone(), r];
        match check_unique_names(&rules) {
            Err(RewriteError::DuplicateName { name }) => assert_eq!(name, "same"),
            other => panic!("expected DuplicateName, got {other:?}"),
        }
    }

    #[test]
    fn condition_blocks_application() {
        let mut eg = EG::default();
        eg.add_expr(&parse_rec_expr("(+ x y)").unwrap());
        eg.rebuild();
        let rule: Rewrite<Arith, ()> = Rewrite::new("comm-add", "(+ ?a ?b)", "(+ ?b ?a)")
            .unwrap()
            .with_condition(|_, _, _| false);
        let matches = rule.search(&eg);
        let unions = rule.apply_match(&mut eg, matches[0].eclass, &matches[0].substs[0]);
        assert_eq!(unions, 0);
        // undeclared closures surface as opaque metadata
        assert!(matches!(
            rule.condition_metas().next(),
            Some(ConditionMeta::Opaque { .. })
        ));
    }

    #[test]
    fn declared_condition_metadata_is_introspectable() {
        let rule: Rewrite<Arith, ()> = Rewrite::new("guarded", "(+ ?a ?b)", "(+ ?b ?a)")
            .unwrap()
            .with_declared_condition(
                ConditionMeta::IndexNotInSchema {
                    index: Var::new("i"),
                    of: Var::new("a"),
                },
                |_, _, _| true,
            );
        let metas: Vec<_> = rule.condition_metas().collect();
        assert_eq!(metas.len(), 1);
        assert_eq!(metas[0].to_string(), "?i ∉ Attr(?a)");
        assert!(rule.rhs_pattern().is_some());
        assert!(!rule.nonlinear_lhs_declared());
    }

    #[test]
    fn reapplying_is_idempotent() {
        let mut eg = EG::default();
        eg.add_expr(&parse_rec_expr("(+ x y)").unwrap());
        eg.rebuild();
        let rule: Rewrite<Arith, ()> = Rewrite::new("comm-add", "(+ ?a ?b)", "(+ ?b ?a)").unwrap();
        for _ in 0..3 {
            let matches = rule.search(&eg);
            for m in matches {
                for s in &m.substs {
                    rule.apply_match(&mut eg, m.eclass, s);
                }
            }
            eg.rebuild();
        }
        // (+ x y) and (+ y x) in one class; x, y separate: 3 classes
        assert_eq!(eg.number_of_classes(), 3);
        assert_eq!(eg.total_number_of_nodes(), 4);
    }
}
