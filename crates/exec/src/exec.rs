//! The LA plan interpreter.
//!
//! Evaluates [`spores_ir::ExprArena`] DAGs over [`spores_matrix::Matrix`]
//! values with:
//!
//! * DAG-aware memoization (shared subexpressions computed once, like
//!   SystemML's common-subexpression reuse),
//! * representation-aware kernels (sparse paths where the inputs allow),
//! * **fused operators** detected structurally before generic dispatch,
//!   mirroring SystemML's runtime operator selection (§3.3, §4.2):
//!   - `wsloss`: `sum((X ± U %*% t(V))^2)` streams without materializing
//!     the dense `U Vᵀ` intermediate,
//!   - `mmchain`: matrix-multiply chains are associated by the classic
//!     dynamic program over dimensions before execution,
//!   - `sprop`: `P * (1 - P)` / `P - P*P` in one pass,
//!   - `sigmoid`: `1/(1+exp(-X))` in one pass,
//! * FLOP / allocation accounting ([`crate::stats::ExecStats`]).
//!
//! Values are **shared, never copied**: a variable read borrows the
//! binding, a kernel result is reference-counted, so reading a variable,
//! inserting into the memo table and hitting it are O(1), and a root's
//! value is moved out once the memo table is gone. The interpreter adds
//! no allocation of its own on top of the kernels' outputs;
//! [`ExecStats::cells_copied`] counts the one exception (a root that is
//! only another name for an existing value).

use crate::env::Bindings;
use crate::stats::ExecStats;
use spores_ir::{BinOp, ExprArena, LaNode, NodeId, Symbol, UnOp};
use spores_matrix::{Dense, Matrix};
use std::borrow::Cow;
use std::collections::HashMap;
use std::ops::Deref;
use std::rc::Rc;

/// Executor configuration.
#[derive(Copy, Clone, Debug)]
pub struct ExecConfig {
    /// Detect and run fused operators (disable to model SystemML's
    /// level-1 "base" configuration).
    pub fusion: bool,
}

impl Default for ExecConfig {
    fn default() -> Self {
        ExecConfig { fusion: true }
    }
}

/// Executes LA plans; accumulates [`ExecStats`] across calls.
#[derive(Debug, Default)]
pub struct Executor {
    pub config: ExecConfig,
    pub stats: ExecStats,
}

/// Execution failure (unbound variable / shape mismatch).
#[derive(Clone, Debug)]
pub struct ExecError(pub String);

impl std::fmt::Display for ExecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "execution error: {}", self.0)
    }
}

impl std::error::Error for ExecError {}

/// Memoized sub-DAG re-reads across all executors in the process — the
/// work `run_many`'s shared memo table saves (one registry entry; the
/// handle is a no-op while telemetry is disabled).
static MEMO_HITS: spores_telemetry::CounterHandle =
    spores_telemetry::CounterHandle::new("exec.memo_hits");

/// A value in flight: an input borrowed from the bindings or a computed
/// matrix shared by reference count. Cloning one never copies cells.
#[derive(Clone)]
enum Val<'e> {
    Input(&'e Matrix),
    Computed(Rc<Matrix>),
}

impl Deref for Val<'_> {
    type Target = Matrix;

    fn deref(&self) -> &Matrix {
        match self {
            Val::Input(m) => m,
            Val::Computed(m) => m,
        }
    }
}

impl From<Matrix> for Val<'_> {
    fn from(m: Matrix) -> Self {
        Val::Computed(Rc::new(m))
    }
}

impl Val<'_> {
    /// Take a root's value out once its pass (and with it the memo
    /// table's references) is gone. A computed value then has one owner
    /// left and is moved; only a root that is another name for an input
    /// or for an earlier root (a bare variable, or one node bound twice)
    /// has to be copied.
    fn into_owned(self, stats: &mut ExecStats) -> Matrix {
        let owned = match self {
            Val::Computed(rc) => Rc::try_unwrap(rc).map_err(Val::Computed),
            input => Err(input),
        };
        owned.unwrap_or_else(|aliased| {
            stats.cells_copied += cells(&aliased);
            Matrix::clone(&aliased)
        })
    }
}

/// The state of one evaluation pass: the bindings it reads, the roots it
/// has finished (visible to later roots under their names, shadowing the
/// bindings) and the memo table shared by all its roots.
struct Pass<'e> {
    env: &'e dyn Bindings,
    roots: Vec<(Symbol, Val<'e>)>,
    memo: HashMap<NodeId, Val<'e>>,
}

impl<'e> Pass<'e> {
    fn new(env: &'e dyn Bindings) -> Pass<'e> {
        Pass {
            env,
            roots: Vec::new(),
            memo: HashMap::new(),
        }
    }

    fn var(&self, name: Symbol) -> Option<Val<'e>> {
        let root = self.roots.iter().rev().find(|(n, _)| *n == name);
        root.map(|(_, v)| v.clone())
            .or_else(|| self.env.lookup(name).map(Val::Input))
    }

    /// End the pass: drop the memo table, hand the roots out as owned
    /// values.
    fn into_roots(self, stats: &mut ExecStats) -> Vec<(Symbol, Matrix)> {
        drop(self.memo);
        let own = |(name, value): (Symbol, Val<'e>)| (name, value.into_owned(stats));
        self.roots.into_iter().map(own).collect()
    }
}

/// Cells a matrix stores (a sparse cell is an index and a value).
fn cells(m: &Matrix) -> u64 {
    match m {
        Matrix::Dense(d) => (d.rows * d.cols) as u64,
        Matrix::Sparse(s) => 2 * s.nnz() as u64,
    }
}

/// A dense view of a fused operator's operand: borrowed when the value
/// is dense already, materialized only for a sparse one. Deref it to a
/// `&Dense` once, outside the per-cell loops: left to every `get`, the
/// borrowed-or-owned check cost the PNMF plan a quarter of its run time.
fn dense(m: &Matrix) -> Cow<'_, Dense> {
    match m {
        Matrix::Dense(d) => Cow::Borrowed(d),
        Matrix::Sparse(s) => Cow::Owned(s.to_dense()),
    }
}

impl Executor {
    pub fn new(config: ExecConfig) -> Executor {
        Executor {
            config,
            stats: ExecStats::default(),
        }
    }

    /// Evaluate the DAG rooted at `root`.
    pub fn run<E: Bindings>(
        &mut self,
        arena: &ExprArena,
        root: NodeId,
        env: &E,
    ) -> Result<Matrix, ExecError> {
        let mut pass = Pass::new(env);
        let value = self.eval(arena, root, &mut pass)?;
        drop(pass);
        Ok(value.into_owned(&mut self.stats))
    }

    /// Evaluate a multi-root shared plan: the roots are evaluated in
    /// order with ONE memo table, so subplans shared across roots (the
    /// workload optimizer binds them once in the arena) are computed
    /// exactly once per pass; each root's value is visible under its
    /// name to the roots after it, so later statements can read earlier
    /// results as leaf variables.
    ///
    /// The bundle must be in SSA form (no root's name read at or before
    /// its own definition) — the shape `spores_ir::WorkloadExpr`
    /// validates — or earlier memoized leaf reads would go stale.
    ///
    /// `env` is only read while the roots evaluate; when the last one is
    /// done the per-root values are moved into it under the root names
    /// (no extra copies; callers that need them read `env`). On an error
    /// `env` is left as it was.
    pub fn run_many<E: Bindings>(
        &mut self,
        arena: &ExprArena,
        roots: &[(Symbol, NodeId)],
        env: &mut E,
    ) -> Result<(), ExecError> {
        let mut pass = Pass::new(&*env);
        for &(name, root) in roots {
            let mut span = spores_telemetry::span!("exec.root", root = name.to_string());
            let value = self.eval(arena, root, &mut pass)?;
            span.arg("memo_entries", pass.memo.len());
            drop(span);
            pass.roots.push((name, value));
        }
        for (name, value) in pass.into_roots(&mut self.stats) {
            env.bind(name, value);
        }
        Ok(())
    }

    fn alloc(&mut self, m: &Matrix) {
        self.stats.intermediates += 1;
        self.stats.cells_allocated += cells(m);
    }

    fn eval<'e>(
        &mut self,
        arena: &ExprArena,
        id: NodeId,
        pass: &mut Pass<'e>,
    ) -> Result<Val<'e>, ExecError> {
        if let Some(v) = pass.memo.get(&id) {
            MEMO_HITS.add(1);
            return Ok(v.clone());
        }
        let fused = if self.config.fusion {
            self.try_fused(arena, id, pass)?
        } else {
            None
        };
        let value = match fused {
            Some(v) => v,
            None => match arena.node(id) {
                LaNode::Var(v) => pass
                    .var(*v)
                    .ok_or_else(|| ExecError(format!("unbound variable {v}")))?,
                LaNode::Scalar(n) => Matrix::scalar(n.get()).into(),
                LaNode::Fill(n, r, c) => {
                    let m = Matrix::filled(*r as usize, *c as usize, n.get());
                    self.alloc(&m);
                    m.into()
                }
                LaNode::Un(op, a) => {
                    let a = self.eval(arena, *a, pass)?;
                    self.unary(*op, &a).into()
                }
                LaNode::Bin(op, a, b) => {
                    let a = self.eval(arena, *a, pass)?;
                    let b = self.eval(arena, *b, pass)?;
                    self.binary(*op, &a, &b)?.into()
                }
            },
        };
        pass.memo.insert(id, value.clone());
        Ok(value)
    }

    fn unary(&mut self, op: UnOp, a: &Matrix) -> Matrix {
        let work_cells = if a.is_sparse() {
            a.nnz() as u64
        } else {
            (a.rows() * a.cols()) as u64
        };
        let out = match op {
            UnOp::T => {
                self.stats.flops += work_cells;
                a.transpose()
            }
            UnOp::RowSums => {
                self.stats.flops += work_cells;
                a.row_sums()
            }
            UnOp::ColSums => {
                self.stats.flops += work_cells;
                a.col_sums()
            }
            UnOp::Sum => {
                self.stats.flops += work_cells;
                Matrix::scalar(a.sum())
            }
            UnOp::Neg => {
                self.stats.flops += work_cells;
                a.scale(-1.0)
            }
            UnOp::Sqrt => self.map_stats(a, true, f64::sqrt),
            UnOp::Abs => self.map_stats(a, true, f64::abs),
            UnOp::Sign => self.map_stats(a, true, f64::signum),
            UnOp::Sprop => {
                self.stats.fused_ops += 1;
                self.map_stats(a, true, |x| x * (1.0 - x))
            }
            UnOp::Exp => self.map_stats(a, false, f64::exp),
            UnOp::Log => self.map_stats(a, false, f64::ln),
            UnOp::Sigmoid => {
                self.stats.fused_ops += 1;
                self.map_stats(a, false, |x| 1.0 / (1.0 + (-x).exp()))
            }
        };
        self.alloc(&out);
        out
    }

    fn map_stats(&mut self, a: &Matrix, zero_preserving: bool, f: impl Fn(f64) -> f64) -> Matrix {
        let cells = if a.is_sparse() && zero_preserving {
            a.nnz() as u64
        } else {
            (a.rows() * a.cols()) as u64
        };
        self.stats.flops += cells;
        a.map(zero_preserving, f)
    }

    fn binary(&mut self, op: BinOp, a: &Matrix, b: &Matrix) -> Result<Matrix, ExecError> {
        let out = match op {
            BinOp::MatMul => {
                if a.cols() != b.rows() {
                    return Err(ExecError(format!(
                        "matmul shape mismatch {}x{} vs {}x{}",
                        a.rows(),
                        a.cols(),
                        b.rows(),
                        b.cols()
                    )));
                }
                self.stats.flops += self.matmul_flops(a, b);
                a.matmul(b)
            }
            BinOp::Mul => {
                self.stats.flops += a.nnz().min(b.nnz()) as u64;
                a.mul(b)
            }
            BinOp::Add => {
                self.stats.flops += (a.nnz() + b.nnz()) as u64;
                a.add(b)
            }
            BinOp::Sub => {
                self.stats.flops += (a.nnz() + b.nnz()) as u64;
                a.sub(b)
            }
            BinOp::Div => {
                self.stats.flops += a.nnz() as u64;
                a.div(b)
            }
            BinOp::Pow => {
                self.stats.flops += a.nnz() as u64;
                // x^k with scalar k: zero-preserving for k > 0
                if b.is_scalar() {
                    let k = b.as_scalar();
                    if k > 0.0 {
                        a.map(true, |x| x.powf(k))
                    } else {
                        a.map(false, |x| x.powf(k))
                    }
                } else {
                    a.zip(b, f64::powf)
                }
            }
            BinOp::Min => {
                self.stats.flops += (a.rows().max(b.rows()) * a.cols().max(b.cols())) as u64;
                a.zip(b, f64::min)
            }
            BinOp::Max => {
                self.stats.flops += (a.rows().max(b.rows()) * a.cols().max(b.cols())) as u64;
                a.zip(b, f64::max)
            }
            BinOp::Gt => self.compare(a, b, |x, y| f64::from(x > y)),
            BinOp::Lt => self.compare(a, b, |x, y| f64::from(x < y)),
            BinOp::Ge => self.compare(a, b, |x, y| f64::from(x >= y)),
            BinOp::Le => self.compare(a, b, |x, y| f64::from(x <= y)),
        };
        self.alloc(&out);
        Ok(out)
    }

    fn compare(&mut self, a: &Matrix, b: &Matrix, f: impl Fn(f64, f64) -> f64) -> Matrix {
        self.stats.flops += (a.rows().max(b.rows()) * a.cols().max(b.cols())) as u64;
        a.zip(b, f)
    }

    fn matmul_flops(&self, a: &Matrix, b: &Matrix) -> u64 {
        match (a, b) {
            (Matrix::Sparse(s), _) => 2 * (s.nnz() * b.cols()) as u64,
            (_, Matrix::Sparse(s)) => 2 * (s.nnz() * a.rows()) as u64,
            _ => 2 * (a.rows() * a.cols() * b.cols()) as u64,
        }
    }

    // ----- fused operators ------------------------------------------------

    fn try_fused<'e>(
        &mut self,
        arena: &ExprArena,
        id: NodeId,
        pass: &mut Pass<'e>,
    ) -> Result<Option<Val<'e>>, ExecError> {
        if let Some(v) = self.try_wsloss(arena, id, pass)? {
            return Ok(Some(v));
        }
        if let Some(v) = self.try_wcemm(arena, id, pass)? {
            return Ok(Some(v));
        }
        if let Some(v) = self.try_wdivmm(arena, id, pass)? {
            return Ok(Some(v));
        }
        if let Some(v) = self.try_sprop(arena, id, pass)? {
            return Ok(Some(v));
        }
        if let Some(v) = self.try_mmchain(arena, id, pass)? {
            return Ok(Some(v));
        }
        Ok(None)
    }

    /// `X / (W %*% H)` with sparse X — SystemML's `wdivmm`: the dense
    /// product is never materialized; each stored cell of X divides by
    /// one rank-r dot product.
    fn try_wdivmm<'e>(
        &mut self,
        arena: &ExprArena,
        id: NodeId,
        pass: &mut Pass<'e>,
    ) -> Result<Option<Val<'e>>, ExecError> {
        let LaNode::Bin(BinOp::Div, x_id, mm_id) = arena.node(id) else {
            return Ok(None);
        };
        let LaNode::Bin(BinOp::MatMul, w_id, h_id) = arena.node(*mm_id) else {
            return Ok(None);
        };
        let (x_id, w_id, h_id) = (*x_id, *w_id, *h_id);
        let x = self.eval(arena, x_id, pass)?;
        let Matrix::Sparse(xs) = &*x else {
            return Ok(None); // dense X: generic path
        };
        let w = self.eval(arena, w_id, pass)?;
        let h = self.eval(arena, h_id, pass)?;
        let (w, h) = (dense(&w), dense(&h));
        let (w, h): (&Dense, &Dense) = (&w, &h);
        if w.cols != h.rows || xs.rows != w.rows || xs.cols != h.cols {
            return Ok(None);
        }
        let r = w.cols;
        let out = xs.map_row_col(|i, j, v| {
            let mut dot = 0.0;
            for k in 0..r {
                dot += w.get(i, k) * h.get(k, j);
            }
            v / dot
        });
        self.stats.flops += (xs.nnz() * (2 * r + 1)) as u64;
        self.stats.fused_ops += 1;
        let out = Matrix::Sparse(out);
        self.alloc(&out);
        Ok(Some(out.into()))
    }

    /// `sum(X * log(W %*% H))` with sparse X — SystemML's `wcemm`
    /// (weighted cross-entropy): streams over X's non-zeros.
    fn try_wcemm<'e>(
        &mut self,
        arena: &ExprArena,
        id: NodeId,
        pass: &mut Pass<'e>,
    ) -> Result<Option<Val<'e>>, ExecError> {
        let LaNode::Un(UnOp::Sum, prod) = arena.node(id) else {
            return Ok(None);
        };
        let LaNode::Bin(BinOp::Mul, a, b) = arena.node(*prod) else {
            return Ok(None);
        };
        // X * log(mm) in either order
        let (x_id, log_id) = if matches!(arena.node(*b), LaNode::Un(UnOp::Log, _)) {
            (*a, *b)
        } else if matches!(arena.node(*a), LaNode::Un(UnOp::Log, _)) {
            (*b, *a)
        } else {
            return Ok(None);
        };
        let LaNode::Un(UnOp::Log, mm_id) = arena.node(log_id) else {
            return Ok(None);
        };
        let LaNode::Bin(BinOp::MatMul, w_id, h_id) = arena.node(*mm_id) else {
            return Ok(None);
        };
        let (w_id, h_id) = (*w_id, *h_id);
        let x = self.eval(arena, x_id, pass)?;
        let Matrix::Sparse(xs) = &*x else {
            return Ok(None);
        };
        let w = self.eval(arena, w_id, pass)?;
        let h = self.eval(arena, h_id, pass)?;
        let (w, h) = (dense(&w), dense(&h));
        let (w, h): (&Dense, &Dense) = (&w, &h);
        if w.cols != h.rows || xs.rows != w.rows || xs.cols != h.cols {
            return Ok(None);
        }
        let r = w.cols;
        let mut acc = 0.0;
        for i in 0..xs.rows {
            for (j, v) in xs.row(i) {
                let mut dot = 0.0;
                for k in 0..r {
                    dot += w.get(i, k) * h.get(k, j);
                }
                acc += v * dot.ln();
            }
        }
        self.stats.flops += (xs.nnz() * (2 * r + 2)) as u64;
        self.stats.fused_ops += 1;
        Ok(Some(Matrix::scalar(acc).into()))
    }

    /// `sum((X ± A %*% t(B))^2)` — weighted-squared-loss style streaming.
    fn try_wsloss<'e>(
        &mut self,
        arena: &ExprArena,
        id: NodeId,
        pass: &mut Pass<'e>,
    ) -> Result<Option<Val<'e>>, ExecError> {
        let LaNode::Un(UnOp::Sum, sq) = arena.node(id) else {
            return Ok(None);
        };
        let LaNode::Bin(BinOp::Pow, diff, two) = arena.node(*sq) else {
            return Ok(None);
        };
        if !matches!(arena.node(*two), LaNode::Scalar(n) if n.get() == 2.0) {
            return Ok(None);
        }
        let (x_id, mm_id, sign) = match arena.node(*diff) {
            LaNode::Bin(BinOp::Sub, a, b) => (*a, *b, -1.0),
            LaNode::Bin(BinOp::Add, a, b) => (*a, *b, 1.0),
            _ => return Ok(None),
        };
        let LaNode::Bin(BinOp::MatMul, u_id, vt_id) = arena.node(mm_id) else {
            return Ok(None);
        };
        let (u_id, vt_id) = (*u_id, *vt_id);
        let x = self.eval(arena, x_id, pass)?;
        let u = self.eval(arena, u_id, pass)?;
        let vt = self.eval(arena, vt_id, pass)?;
        if u.cols() != vt.rows() || x.rows() != u.rows() || x.cols() != vt.cols() {
            return Ok(None);
        }
        // stream: Σ_ij (X_ij + sign·Σ_k U_ik Vt_kj)², no m×n intermediate
        let (m, n, r) = (x.rows(), x.cols(), u.cols());
        let (ud, vtd) = (dense(&u), dense(&vt));
        let (ud, vtd): (&Dense, &Dense) = (&ud, &vtd);
        let mut acc = 0.0;
        for i in 0..m {
            for j in 0..n {
                let mut dot = 0.0;
                for k in 0..r {
                    dot += ud.get(i, k) * vtd.get(k, j);
                }
                let cell = x.get(i, j) + sign * dot;
                acc += cell * cell;
            }
        }
        self.stats.flops += (2 * m * n * r + 3 * m * n) as u64;
        self.stats.fused_ops += 1;
        Ok(Some(Matrix::scalar(acc).into()))
    }

    /// `P * (1 - P)` or `P - P*P` fused into one pass.
    fn try_sprop<'e>(
        &mut self,
        arena: &ExprArena,
        id: NodeId,
        pass: &mut Pass<'e>,
    ) -> Result<Option<Val<'e>>, ExecError> {
        let p_id = match arena.node(id) {
            // P * (1 - P)  /  (1 - P) * P
            LaNode::Bin(BinOp::Mul, a, b) => {
                let one_minus = |arena: &ExprArena, n: NodeId, p: NodeId| -> bool {
                    matches!(arena.node(n), LaNode::Bin(BinOp::Sub, one, q)
                        if *q == p && matches!(arena.node(*one), LaNode::Scalar(v) if v.get() == 1.0))
                };
                if one_minus(arena, *b, *a) {
                    Some(*a)
                } else if one_minus(arena, *a, *b) {
                    Some(*b)
                } else {
                    None
                }
            }
            // P - P*P  /  P - P^2
            LaNode::Bin(BinOp::Sub, p, q) => match arena.node(*q) {
                LaNode::Bin(BinOp::Mul, x, y) if x == y && x == p => Some(*p),
                LaNode::Bin(BinOp::Pow, x, k)
                    if x == p && matches!(arena.node(*k), LaNode::Scalar(v) if v.get() == 2.0) =>
                {
                    Some(*p)
                }
                _ => None,
            },
            _ => None,
        };
        let Some(p_id) = p_id else { return Ok(None) };
        let p = self.eval(arena, p_id, pass)?;
        let out = p.map(true, |x| x * (1.0 - x));
        self.stats.flops += p.nnz() as u64;
        self.stats.fused_ops += 1;
        self.alloc(&out);
        Ok(Some(out.into()))
    }

    /// Matrix-multiply chains: associate by the classic dynamic program
    /// before executing (SystemML's `mmchain`).
    fn try_mmchain<'e>(
        &mut self,
        arena: &ExprArena,
        id: NodeId,
        pass: &mut Pass<'e>,
    ) -> Result<Option<Val<'e>>, ExecError> {
        // collect the left-leaning (or arbitrary) matmul chain
        fn collect(arena: &ExprArena, id: NodeId, out: &mut Vec<NodeId>) {
            match arena.node(id) {
                LaNode::Bin(BinOp::MatMul, a, b) => {
                    collect(arena, *a, out);
                    collect(arena, *b, out);
                }
                _ => out.push(id),
            }
        }
        if !matches!(arena.node(id), LaNode::Bin(BinOp::MatMul, _, _)) {
            return Ok(None);
        }
        let mut leaves = Vec::new();
        collect(arena, id, &mut leaves);
        if leaves.len() < 3 {
            return Ok(None); // plain matmul: generic path
        }
        let values: Vec<Val<'e>> = leaves
            .iter()
            .map(|&l| self.eval(arena, l, pass))
            .collect::<Result<_, _>>()?;
        // dims p0 x p1 x ... x pn
        let mut dims = Vec::with_capacity(values.len() + 1);
        dims.push(values[0].rows());
        for v in &values {
            dims.push(v.cols());
        }
        // matrix chain order DP
        let n = values.len();
        let mut cost = vec![vec![0u64; n]; n];
        let mut split = vec![vec![0usize; n]; n];
        for len in 2..=n {
            for i in 0..=n - len {
                let j = i + len - 1;
                cost[i][j] = u64::MAX;
                for k in i..j {
                    let c =
                        cost[i][k] + cost[k + 1][j] + (dims[i] * dims[k + 1] * dims[j + 1]) as u64;
                    if c < cost[i][j] {
                        cost[i][j] = c;
                        split[i][j] = k;
                    }
                }
            }
        }
        fn multiply<'e>(
            exec: &mut Executor,
            values: &[Val<'e>],
            split: &[Vec<usize>],
            i: usize,
            j: usize,
        ) -> Val<'e> {
            if i == j {
                return values[i].clone();
            }
            let k = split[i][j];
            let a = multiply(exec, values, split, i, k);
            let b = multiply(exec, values, split, k + 1, j);
            exec.stats.flops += exec.matmul_flops(&a, &b);
            let out = a.matmul(&b);
            exec.alloc(&out);
            out.into()
        }
        self.stats.fused_ops += 1;
        Ok(Some(multiply(self, &values, &split, 0, n - 1)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spores_ir::parse_expr;
    use spores_matrix::gen;

    fn env(list: Vec<(&str, Matrix)>) -> HashMap<Symbol, Matrix> {
        list.into_iter().map(|(n, m)| (Symbol::new(n), m)).collect()
    }

    fn run(src: &str, e: &HashMap<Symbol, Matrix>) -> (Matrix, ExecStats) {
        let mut arena = ExprArena::new();
        let root = parse_expr(&mut arena, src).unwrap();
        let mut exec = Executor::default();
        let out = exec.run(&arena, root, e).unwrap();
        (out, exec.stats)
    }

    fn run_unfused(src: &str, e: &HashMap<Symbol, Matrix>) -> (Matrix, ExecStats) {
        let mut arena = ExprArena::new();
        let root = parse_expr(&mut arena, src).unwrap();
        let mut exec = Executor::new(ExecConfig { fusion: false });
        let out = exec.run(&arena, root, e).unwrap();
        (out, exec.stats)
    }

    #[test]
    fn basic_arithmetic() {
        let mut r = gen::rng(1);
        let e = env(vec![
            ("X", gen::rand_dense(4, 5, -1.0, 1.0, &mut r)),
            ("Y", gen::rand_dense(4, 5, -1.0, 1.0, &mut r)),
        ]);
        let (out, _) = run("sum(X * Y + X)", &e);
        let x = e[&Symbol::new("X")].to_dense();
        let y = e[&Symbol::new("Y")].to_dense();
        let want: f64 = x.data.iter().zip(&y.data).map(|(a, b)| a * b + a).sum();
        assert!((out.as_scalar() - want).abs() < 1e-9);
    }

    #[test]
    fn run_many_shares_work_and_binds_roots() {
        let mut r = gen::rng(7);
        let mut e = env(vec![
            ("W", gen::rand_dense(12, 3, 0.1, 1.0, &mut r)),
            ("H", gen::rand_dense(3, 10, 0.1, 1.0, &mut r)),
        ]);
        // two roots sharing the product node, the second reading the
        // first root's binding as a leaf
        let mut arena = ExprArena::new();
        let w = arena.var("W");
        let h = arena.var("H");
        let wh = arena.matmul(w, h);
        let s1 = arena.sum(wh);
        let g = arena.var("g");
        let s2 = {
            let prod_sum = arena.row_sums(wh);
            let total = arena.sum(prod_sum);
            arena.mul(total, g)
        };
        let roots = vec![(Symbol::new("g"), s1), (Symbol::new("out"), s2)];

        let mut exec = Executor::default();
        exec.run_many(&arena, &roots, &mut e)
            .expect("workload evaluates");
        // shared product computed once: one matmul's worth of allocation
        // plus the aggregates — strictly fewer intermediates than two
        // independent runs
        let shared_intermediates = exec.stats.intermediates;
        let mut solo = Executor::default();
        let base = env(vec![
            ("W", e[&Symbol::new("W")].clone()),
            ("H", e[&Symbol::new("H")].clone()),
        ]);
        solo.run(&arena, s1, &base).unwrap();
        let mut with_g = base.clone();
        with_g.insert(Symbol::new("g"), e[&Symbol::new("g")].clone());
        solo.run(&arena, s2, &with_g).unwrap();
        assert!(
            shared_intermediates < solo.stats.intermediates,
            "shared pass must reuse the product: {} vs {}",
            shared_intermediates,
            solo.stats.intermediates
        );
        // the env now carries both bindings;
        // semantics: out = sum(WH) * g where g = sum(WH)
        let total = e[&Symbol::new("g")].as_scalar();
        assert!((e[&Symbol::new("out")].as_scalar() - total * total).abs() < 1e-9);
    }

    #[test]
    fn wsloss_fusion_matches_unfused() {
        let mut r = gen::rng(2);
        let e = env(vec![
            ("X", gen::rand_sparse(30, 20, 0.1, -1.0, 1.0, &mut r)),
            ("U", gen::rand_dense(30, 3, -1.0, 1.0, &mut r)),
            ("V", gen::rand_dense(20, 3, -1.0, 1.0, &mut r)),
        ]);
        let src = "sum((X - U %*% t(V))^2)";
        let (fused, fs) = run(src, &e);
        let (plain, ps) = run_unfused(src, &e);
        assert!((fused.as_scalar() - plain.as_scalar()).abs() < 1e-6);
        assert!(fs.fused_ops >= 1, "wsloss should fuse");
        assert!(
            fs.cells_allocated < ps.cells_allocated,
            "fusion must allocate less: {} vs {}",
            fs.cells_allocated,
            ps.cells_allocated
        );
    }

    #[test]
    fn sprop_fusion_matches_unfused() {
        let mut r = gen::rng(3);
        let e = env(vec![("P", gen::rand_dense(50, 1, 0.0, 1.0, &mut r))]);
        for src in ["P * (1 - P)", "P - P*P", "P - P^2", "sprop(P)"] {
            let (fused, fs) = run(src, &e);
            let (plain, _) = run_unfused("P * (1 - P)", &e);
            assert!(fused.approx_eq(&plain, 1e-12), "{src}");
            assert!(fs.fused_ops >= 1, "{src} should fuse");
        }
    }

    #[test]
    fn mmchain_orders_optimally() {
        // (tall × skinny) chain: A(1000×2) B(2×1000) C(1000×2) —
        // left-to-right costs 1000·2·1000 + 1000·1000·2 ≈ 4M mults;
        // optimal associates B·C first: 2·1000·2 + 1000·2·2 ≈ 8k.
        let mut r = gen::rng(4);
        let e = env(vec![
            ("A", gen::rand_dense(1000, 2, -1.0, 1.0, &mut r)),
            ("B", gen::rand_dense(2, 1000, -1.0, 1.0, &mut r)),
            ("C", gen::rand_dense(1000, 2, -1.0, 1.0, &mut r)),
        ]);
        let (out, fs) = run("A %*% B %*% C", &e);
        let (want, ps) = run_unfused("A %*% B %*% C", &e);
        assert!(out.approx_eq(&want, 1e-6));
        assert!(fs.fused_ops == 1);
        assert!(
            fs.flops * 10 < ps.flops,
            "chain DP should save flops: {} vs {}",
            fs.flops,
            ps.flops
        );
    }

    #[test]
    fn sparse_matmul_flops_scale_with_nnz() {
        let mut r = gen::rng(5);
        let sparse_env = env(vec![
            ("X", gen::rand_sparse(500, 400, 0.01, -1.0, 1.0, &mut r)),
            ("v", gen::rand_dense(400, 1, -1.0, 1.0, &mut r)),
        ]);
        let (_, s) = run("X %*% v", &sparse_env);
        let dense_env = env(vec![
            ("X", gen::rand_dense(500, 400, -1.0, 1.0, &mut r)),
            ("v", gen::rand_dense(400, 1, -1.0, 1.0, &mut r)),
        ]);
        let (_, d) = run("X %*% v", &dense_env);
        assert!(
            s.flops * 10 < d.flops,
            "sparse {} vs dense {}",
            s.flops,
            d.flops
        );
    }

    #[test]
    fn agrees_with_reference_evaluator() {
        let mut r = gen::rng(6);
        let e = env(vec![
            ("X", gen::rand_sparse(8, 6, 0.3, -2.0, 2.0, &mut r)),
            ("Y", gen::rand_dense(8, 6, -1.0, 1.0, &mut r)),
            ("u", gen::rand_dense(8, 1, -1.0, 1.0, &mut r)),
            ("v", gen::rand_dense(6, 1, -1.0, 1.0, &mut r)),
        ]);
        for src in [
            "X + Y",
            "X - Y",
            "X * Y",
            "X / (Y + 10)",
            "t(X) %*% X",
            "X %*% v",
            "t(u) %*% X",
            "rowSums(X * Y)",
            "colSums(X)",
            "sum((X - u %*% t(v))^2)",
            "sigmoid(Y)",
            "abs(X)",
            "sign(X) * abs(X)",
            "(X > 0) - (X < 0)",
            "min(X, Y)",
            "exp(Y)",
            "sum(u) * sum(v)",
            "matrix(2, 8, 6) * X",
        ] {
            let (got, _) = run(src, &e);
            let (want, _) = run_unfused(src, &e);
            assert!(got.approx_eq(&want, 1e-9), "{src}");
        }
    }

    #[test]
    fn shared_subexpressions_computed_once() {
        let mut r = gen::rng(7);
        let e = env(vec![("X", gen::rand_dense(100, 100, -1.0, 1.0, &mut r))]);
        // X %*% X used twice: memo must reuse it
        let (_, s) = run_unfused("(X %*% X) + (X %*% X)", &e);
        let (_, s1) = run_unfused("X %*% X", &e);
        // one matmul + one add, not two matmuls
        assert!(s.flops < 2 * s1.flops + 100 * 100 * 4);
    }

    #[test]
    fn unbound_variable_errors() {
        let e = env(vec![]);
        let mut arena = ExprArena::new();
        let root = parse_expr(&mut arena, "Q + 1").unwrap();
        assert!(Executor::default().run(&arena, root, &e).is_err());
    }
}
