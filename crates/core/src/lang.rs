//! The unified LA + RA term language of SPORES (Table 1 of the paper).
//!
//! One [`Math`] language hosts:
//!
//! * the three **RA** operators — join `*`, union `+`, aggregate `sum` —
//!   over K-relations, plus `dim` (the size of an index, rule 5 of
//!   Figure 3) and the `b`/`ub` bind/unbind conversion operators;
//! * the seven **LA** operators of Table 1 (`l+`, `l*`, `m*`, `t`,
//!   `srow`, `scol`, `sall`) plus the element-wise extensions SystemML
//!   supports (`l-`, `l/`, `pow`, comparisons);
//! * **point-wise scalar functions** (`exp`, `sqrt`, `sprop`, …) which the
//!   paper treats as custom functions with their own equations (§3.3) —
//!   they apply cell-wise in LA and multiplicity-wise on K-relations, so
//!   they are valid in both realms;
//! * leaves: literals, symbols (matrix names *and* index names — the
//!   analysis distinguishes them by context), and `_` (the missing index
//!   of a vector/scalar bind).

use spores_egraph::{Id, Language};
use spores_ir::{Num, Symbol};

/// An e-node of the unified language. See the module docs.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum Math {
    // ---- RA operators (the RPlan of §2.1) -------------------------------
    /// Union of K-relations (point-wise `+`): `(+ a b)`.
    Add([Id; 2]),
    /// Natural join of K-relations (point-wise `*`): `(* a b)`.
    Mul([Id; 2]),
    /// Group-by aggregate `Σ_i e`: `(sum i e)`.
    Agg([Id; 2]),
    /// The size of an index, as a scalar: `(dim i)`.
    Dim(Id),
    /// Bind a matrix into a relation: `(b i j A)` (`_` for missing dims).
    Bind([Id; 3]),
    /// Unbind a relation back into a matrix: `(ub i j A)`.
    Unbind([Id; 3]),

    // ---- LA operators (Table 1 + SystemML element-wise extensions) ------
    /// Element-wise add: `(l+ a b)` (broadcasting).
    LAdd([Id; 2]),
    /// Element-wise subtract: `(l- a b)`.
    LSub([Id; 2]),
    /// Element-wise multiply: `(l* a b)` (broadcasting).
    LMul([Id; 2]),
    /// Element-wise divide: `(l/ a b)`.
    LDiv([Id; 2]),
    /// Matrix multiply: `(m* a b)`.
    MMul([Id; 2]),
    /// Transpose: `(t a)`.
    LTrs(Id),
    /// Row aggregate `rowSums`: `(srow a)`, `M×N → M×1`.
    Srow(Id),
    /// Column aggregate `colSums`: `(scol a)`, `M×N → 1×N`.
    Scol(Id),
    /// Full aggregate `sum`: `(sall a)`, `M×N → 1×1`.
    Sall(Id),

    // ---- point-wise scalar functions (custom functions, §3.3) -----------
    /// Element-wise power `(pow a k)` with scalar exponent.
    Pow([Id; 2]),
    /// Element-wise reciprocal `1/x` (division is `a * inv(b)`).
    Inv(Id),
    Exp(Id),
    Log(Id),
    Sqrt(Id),
    Abs(Id),
    Sign(Id),
    /// `1/(1+exp(-x))`, SystemML's fused sigmoid.
    Sigmoid(Id),
    /// `p*(1-p)`, SystemML's fused sample-proportion operator.
    Sprop(Id),
    Gt([Id; 2]),
    Lt([Id; 2]),
    Ge([Id; 2]),
    Le([Id; 2]),
    BMin([Id; 2]),
    BMax([Id; 2]),

    // ---- leaves ----------------------------------------------------------
    /// Scalar constant.
    Lit(Num),
    /// A matrix variable or an index name; the analysis resolves the role
    /// from its registered environment (matrix env vs index env).
    Sym(Symbol),
    /// The missing index (`_`) in a vector/scalar bind.
    NoIdx,
}

impl Math {
    /// A literal node for `v`.
    pub fn lit(v: f64) -> Math {
        Math::Lit(Num::new(v))
    }

    /// A symbol node for `name`.
    pub fn sym(name: impl Into<Symbol>) -> Math {
        Math::Sym(name.into())
    }

    /// Is this one of the LA operators of Table 1?
    pub fn is_la_op(&self) -> bool {
        matches!(
            self,
            Math::LAdd(_)
                | Math::LSub(_)
                | Math::LMul(_)
                | Math::LDiv(_)
                | Math::MMul(_)
                | Math::LTrs(_)
                | Math::Srow(_)
                | Math::Scol(_)
                | Math::Sall(_)
        )
    }
}

impl Language for Math {
    fn children(&self) -> &[Id] {
        use Math::*;
        match self {
            Add(c) | Mul(c) | Agg(c) | LAdd(c) | LSub(c) | LMul(c) | LDiv(c) | MMul(c) | Pow(c)
            | Gt(c) | Lt(c) | Ge(c) | Le(c) | BMin(c) | BMax(c) => c,
            Bind(c) | Unbind(c) => c,
            Dim(c) | LTrs(c) | Srow(c) | Scol(c) | Sall(c) | Inv(c) | Exp(c) | Log(c) | Sqrt(c)
            | Abs(c) | Sign(c) | Sigmoid(c) | Sprop(c) => std::slice::from_ref(c),
            Lit(_) | Sym(_) | NoIdx => &[],
        }
    }

    fn children_mut(&mut self) -> &mut [Id] {
        use Math::*;
        match self {
            Add(c) | Mul(c) | Agg(c) | LAdd(c) | LSub(c) | LMul(c) | LDiv(c) | MMul(c) | Pow(c)
            | Gt(c) | Lt(c) | Ge(c) | Le(c) | BMin(c) | BMax(c) => c,
            Bind(c) | Unbind(c) => c,
            Dim(c) | LTrs(c) | Srow(c) | Scol(c) | Sall(c) | Inv(c) | Exp(c) | Log(c) | Sqrt(c)
            | Abs(c) | Sign(c) | Sigmoid(c) | Sprop(c) => std::slice::from_mut(c),
            Lit(_) | Sym(_) | NoIdx => &mut [],
        }
    }

    fn matches(&self, other: &Self) -> bool {
        use Math::*;
        match (self, other) {
            (Lit(a), Lit(b)) => a == b,
            (Sym(a), Sym(b)) => a == b,
            _ => std::mem::discriminant(self) == std::mem::discriminant(other),
        }
    }

    fn op_display(&self) -> String {
        use Math::*;
        match self {
            Add(_) => "+".into(),
            Mul(_) => "*".into(),
            Agg(_) => "sum".into(),
            Dim(_) => "dim".into(),
            Bind(_) => "b".into(),
            Unbind(_) => "ub".into(),
            LAdd(_) => "l+".into(),
            LSub(_) => "l-".into(),
            LMul(_) => "l*".into(),
            LDiv(_) => "l/".into(),
            MMul(_) => "m*".into(),
            LTrs(_) => "t".into(),
            Srow(_) => "srow".into(),
            Scol(_) => "scol".into(),
            Sall(_) => "sall".into(),
            Pow(_) => "pow".into(),
            Inv(_) => "inv".into(),
            Exp(_) => "exp".into(),
            Log(_) => "log".into(),
            Sqrt(_) => "sqrt".into(),
            Abs(_) => "abs".into(),
            Sign(_) => "sign".into(),
            Sigmoid(_) => "sigmoid".into(),
            Sprop(_) => "sprop".into(),
            Gt(_) => "gt".into(),
            Lt(_) => "lt".into(),
            Ge(_) => "ge".into(),
            Le(_) => "le".into(),
            BMin(_) => "bmin".into(),
            BMax(_) => "bmax".into(),
            Lit(n) => format!("{}", n.get()),
            Sym(s) => s.to_string(),
            NoIdx => "_".into(),
        }
    }

    fn from_op(op: &str, children: Vec<Id>) -> Result<Self, String> {
        use Math::*;
        let c2 = |children: Vec<Id>| -> Result<[Id; 2], String> {
            <[Id; 2]>::try_from(children)
                .map_err(|c| format!("{op} expects 2 args, got {}", c.len()))
        };
        let c1 = |children: Vec<Id>| -> Result<Id, String> {
            if children.len() == 1 {
                Ok(children[0])
            } else {
                Err(format!("{op} expects 1 arg, got {}", children.len()))
            }
        };
        match op {
            "+" => Ok(Add(c2(children)?)),
            "*" => Ok(Mul(c2(children)?)),
            "sum" => Ok(Agg(c2(children)?)),
            "dim" => Ok(Dim(c1(children)?)),
            "b" | "ub" => {
                let c: [Id; 3] = <[Id; 3]>::try_from(children)
                    .map_err(|c| format!("{op} expects 3 args, got {}", c.len()))?;
                Ok(if op == "b" { Bind(c) } else { Unbind(c) })
            }
            "l+" => Ok(LAdd(c2(children)?)),
            "l-" => Ok(LSub(c2(children)?)),
            "l*" => Ok(LMul(c2(children)?)),
            "l/" => Ok(LDiv(c2(children)?)),
            "m*" => Ok(MMul(c2(children)?)),
            "t" => Ok(LTrs(c1(children)?)),
            "srow" => Ok(Srow(c1(children)?)),
            "scol" => Ok(Scol(c1(children)?)),
            "sall" => Ok(Sall(c1(children)?)),
            "pow" => Ok(Pow(c2(children)?)),
            "inv" => Ok(Inv(c1(children)?)),
            "exp" => Ok(Exp(c1(children)?)),
            "log" => Ok(Log(c1(children)?)),
            "sqrt" => Ok(Sqrt(c1(children)?)),
            "abs" => Ok(Abs(c1(children)?)),
            "sign" => Ok(Sign(c1(children)?)),
            "sigmoid" => Ok(Sigmoid(c1(children)?)),
            "sprop" => Ok(Sprop(c1(children)?)),
            "gt" => Ok(Gt(c2(children)?)),
            "lt" => Ok(Lt(c2(children)?)),
            "ge" => Ok(Ge(c2(children)?)),
            "le" => Ok(Le(c2(children)?)),
            "bmin" => Ok(BMin(c2(children)?)),
            "bmax" => Ok(BMax(c2(children)?)),
            "_" => {
                if children.is_empty() {
                    Ok(NoIdx)
                } else {
                    Err("`_` takes no children".into())
                }
            }
            _ => {
                if !children.is_empty() {
                    return Err(format!("unknown operator `{op}`"));
                }
                if let Ok(v) = op.parse::<f64>() {
                    Ok(Math::lit(v))
                } else {
                    Ok(Math::sym(op))
                }
            }
        }
    }
}

/// A [`spores_egraph::RecExpr`] over [`Math`].
pub type MathExpr = spores_egraph::RecExpr<Math>;

/// Parse an s-expression term, e.g. `(sum i (* (b i j X) (b i _ v)))`.
pub fn parse_math(src: &str) -> Result<MathExpr, String> {
    spores_egraph::parse_rec_expr(src)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_display_roundtrip() {
        for src in [
            "(sum i (* (b i j X) (b j _ v)))",
            "(+ (b i j X) (* -1 (b i j Y)))",
            "(l- X (m* U (t V)))",
            "(sall (pow (l- X (m* U (t V))) 2))",
            "(sigmoid (b i _ x))",
            "(dim i)",
        ] {
            let e = parse_math(src).unwrap();
            assert_eq!(e.to_string(), src);
        }
    }

    #[test]
    fn numbers_and_symbols() {
        let e = parse_math("(* 2.5 X)").unwrap();
        assert!(matches!(
            e.node(spores_egraph::Id::from(0usize)),
            Math::Lit(_)
        ));
        assert!(matches!(
            e.node(spores_egraph::Id::from(1usize)),
            Math::Sym(_)
        ));
    }

    #[test]
    fn arity_errors() {
        assert!(parse_math("(sum i)").is_err());
        assert!(parse_math("(b i X)").is_err());
        assert!(parse_math("(t X Y)").is_err());
        assert!(parse_math("(frobnicate X Y)").is_err());
    }

    #[test]
    fn realm_classification() {
        let add = Math::Add([Id::from(0usize), Id::from(0usize)]);
        let ladd = Math::LAdd([Id::from(0usize), Id::from(0usize)]);
        assert!(!add.is_la_op());
        assert!(ladd.is_la_op());
    }

    #[test]
    fn matches_distinguishes_payload() {
        use spores_egraph::Language;
        assert!(!Math::lit(1.0).matches(&Math::lit(2.0)));
        assert!(!Math::sym("X").matches(&Math::sym("Y")));
        assert!(Math::sym("X").matches(&Math::sym("X")));
    }
}
