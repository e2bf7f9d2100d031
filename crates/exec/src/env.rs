//! The variable bindings a plan runs against.
//!
//! The executor only ever *reads* bindings while it evaluates (values
//! are borrowed, never copied) and *writes* the roots of a multi-root
//! plan once evaluation is over, so any store with those two operations
//! can sit under it: a plain map, or an [`Overlay`] that leaves a large
//! borrowed input map untouched.

use spores_ir::Symbol;
use spores_matrix::Matrix;
use std::collections::HashMap;

/// A store of named matrix values.
pub trait Bindings {
    /// The value bound to `name`.
    fn lookup(&self, name: Symbol) -> Option<&Matrix>;
    /// Bind `name` to `value`, replacing an earlier binding.
    fn bind(&mut self, name: Symbol, value: Matrix);
}

impl Bindings for HashMap<Symbol, Matrix> {
    fn lookup(&self, name: Symbol) -> Option<&Matrix> {
        self.get(&name)
    }

    fn bind(&mut self, name: Symbol, value: Matrix) {
        self.insert(name, value);
    }
}

/// Bindings assigned on top of a borrowed base map: reads fall through
/// to the base, writes shadow it. A program that loops over its inputs
/// and reassigns some of them runs against the inputs in place instead
/// of against a copy.
#[derive(Debug)]
pub struct Overlay<'a> {
    base: &'a HashMap<Symbol, Matrix>,
    assigned: HashMap<Symbol, Matrix>,
}

impl<'a> Overlay<'a> {
    pub fn new(base: &'a HashMap<Symbol, Matrix>) -> Overlay<'a> {
        Overlay {
            base,
            assigned: HashMap::new(),
        }
    }

    /// Take an assigned binding out (the base is never changed, so a
    /// shadowed base binding becomes visible again).
    pub fn unbind(&mut self, name: Symbol) -> Option<Matrix> {
        self.assigned.remove(&name)
    }

    /// Every visible binding, in no particular order.
    pub fn iter(&self) -> impl Iterator<Item = (Symbol, &Matrix)> {
        let unshadowed = self
            .base
            .iter()
            .filter(|(name, _)| !self.assigned.contains_key(name));
        unshadowed.chain(&self.assigned).map(|(&name, m)| (name, m))
    }
}

impl Bindings for Overlay<'_> {
    fn lookup(&self, name: Symbol) -> Option<&Matrix> {
        self.assigned.get(&name).or_else(|| self.base.get(&name))
    }

    fn bind(&mut self, name: Symbol, value: Matrix) {
        self.assigned.insert(name, value);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn overlay_shadows_the_base_without_changing_it() {
        let x = Symbol::new("x");
        let y = Symbol::new("y");
        let base = HashMap::from([(x, Matrix::scalar(1.0)), (y, Matrix::scalar(2.0))]);
        let mut env = Overlay::new(&base);
        env.bind(x, Matrix::scalar(10.0));
        env.bind(Symbol::new("z"), Matrix::scalar(3.0));
        assert_eq!(env.lookup(x).map(Matrix::as_scalar), Some(10.0));
        assert_eq!(env.lookup(y).map(Matrix::as_scalar), Some(2.0));
        let mut seen: Vec<f64> = env.iter().map(|(_, m)| m.as_scalar()).collect();
        seen.sort_by(f64::total_cmp);
        assert_eq!(seen, vec![2.0, 3.0, 10.0]);
        assert_eq!(env.unbind(x).map(|m| m.as_scalar()), Some(10.0));
        assert_eq!(env.lookup(x).map(Matrix::as_scalar), Some(1.0));
        assert_eq!(base[&x].as_scalar(), 1.0);
    }
}
