//! Schemas and interned symbols.
//!
//! Variables and relation names are interned into [`Sym`]s (a `u32` into a
//! process-global table), so schema manipulation — which happens constantly
//! during query analysis and view-tree construction — is integer work, and
//! symbols render back to their names in debug output.

use crate::hash::FxHashMap;
use std::fmt;
use std::sync::{Arc, Mutex, OnceLock};

/// An interned symbol: a variable or relation name.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Sym(u32);

struct Interner {
    names: Vec<String>,
    ids: FxHashMap<String, u32>,
}

fn interner() -> &'static Mutex<Interner> {
    static INTERNER: OnceLock<Mutex<Interner>> = OnceLock::new();
    INTERNER.get_or_init(|| {
        Mutex::new(Interner {
            names: Vec::new(),
            ids: FxHashMap::default(),
        })
    })
}

/// Intern a name, returning its symbol. Idempotent.
pub fn sym(name: &str) -> Sym {
    let mut i = interner().lock().expect("interner poisoned");
    if let Some(&id) = i.ids.get(name) {
        return Sym(id);
    }
    let id = u32::try_from(i.names.len()).expect("interner overflow");
    i.names.push(name.to_string());
    i.ids.insert(name.to_string(), id);
    Sym(id)
}

/// Intern several names at once: `vars(["A", "B"])`.
pub fn vars<const N: usize>(names: [&str; N]) -> [Sym; N] {
    names.map(sym)
}

impl Sym {
    /// The interned name.
    pub fn name(self) -> String {
        interner().lock().expect("interner poisoned").names[self.0 as usize].clone()
    }
}

impl fmt::Debug for Sym {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.name())
    }
}

impl fmt::Display for Sym {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.name())
    }
}

/// An ordered schema: a tuple of variables, also usable as a set.
///
/// Immutable once built, so its variables are shared: a clone — every
/// relation, and every output delta an engine returns, owns one — costs
/// a reference count, not an allocation.
#[derive(Clone, PartialEq, Eq, Hash, Default)]
pub struct Schema(Arc<[Sym]>);

impl Schema {
    /// The empty schema (no allocation).
    pub fn empty() -> Self {
        Schema::default()
    }

    /// Build from variables; panics on duplicates (schemas are sets).
    pub fn new(vars: impl IntoIterator<Item = Sym>) -> Self {
        let v: Vec<Sym> = vars.into_iter().collect();
        for (i, a) in v.iter().enumerate() {
            assert!(
                !v[..i].contains(a),
                "duplicate variable {a} in schema {v:?}"
            );
        }
        Schema::from_vec(v)
    }

    /// Wrap distinct variables.
    fn from_vec(v: Vec<Sym>) -> Self {
        if v.is_empty() {
            Schema::empty()
        } else {
            Schema(v.into())
        }
    }

    /// Number of variables.
    pub fn arity(&self) -> usize {
        self.0.len()
    }

    /// Whether the schema is empty.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// The variables in order.
    pub fn vars(&self) -> &[Sym] {
        &self.0
    }

    /// Whether `v` occurs in this schema.
    pub fn contains(&self, v: Sym) -> bool {
        self.0.contains(&v)
    }

    /// Position of `v`, if present.
    pub fn position(&self, v: Sym) -> Option<usize> {
        self.0.iter().position(|&x| x == v)
    }

    /// Positions of `target`'s variables within `self`.
    ///
    /// # Panics
    /// Panics if some variable of `target` is absent from `self` — that is
    /// a query-compilation bug, not a data error.
    pub fn positions_of(&self, target: &Schema) -> Vec<usize> {
        target
            .vars()
            .iter()
            .map(|&v| {
                self.position(v)
                    .unwrap_or_else(|| panic!("variable {v} not in schema {self:?}"))
            })
            .collect()
    }

    /// Set intersection, ordered as in `self`.
    pub fn intersect(&self, other: &Schema) -> Schema {
        Schema::from_vec(
            self.0
                .iter()
                .copied()
                .filter(|&v| other.contains(v))
                .collect(),
        )
    }

    /// Set union: `self`'s variables followed by `other`'s new ones.
    pub fn union(&self, other: &Schema) -> Schema {
        let mut out = self.0.to_vec();
        for &v in other.vars() {
            if !out.contains(&v) {
                out.push(v);
            }
        }
        Schema::from_vec(out)
    }

    /// Set difference, ordered as in `self`.
    pub fn difference(&self, other: &Schema) -> Schema {
        Schema::from_vec(
            self.0
                .iter()
                .copied()
                .filter(|&v| !other.contains(v))
                .collect(),
        )
    }

    /// Whether `self ⊆ other` as sets.
    pub fn subset_of(&self, other: &Schema) -> bool {
        self.0.iter().all(|&v| other.contains(v))
    }
}

impl FromIterator<Sym> for Schema {
    fn from_iter<T: IntoIterator<Item = Sym>>(iter: T) -> Self {
        Schema::new(iter)
    }
}

impl<const N: usize> From<[Sym; N]> for Schema {
    fn from(vars: [Sym; N]) -> Self {
        Schema::new(vars)
    }
}

impl fmt::Debug for Schema {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[")?;
        for (i, v) in self.0.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{v}")?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interning_is_idempotent() {
        assert_eq!(sym("A"), sym("A"));
        assert_ne!(sym("A"), sym("B"));
        assert_eq!(sym("A").name(), "A");
    }

    #[test]
    fn schema_set_ops() {
        let [a, b, c, d] = vars(["sa", "sb", "sc", "sd"]);
        let s1 = Schema::from([a, b, c]);
        let s2 = Schema::from([b, c, d]);
        assert_eq!(s1.intersect(&s2), Schema::from([b, c]));
        assert_eq!(s1.union(&s2), Schema::from([a, b, c, d]));
        assert_eq!(s1.difference(&s2), Schema::from([a]));
        assert!(Schema::from([b]).subset_of(&s1));
        assert!(!s1.subset_of(&s2));
    }

    #[test]
    fn positions_of_resolves_order() {
        let [a, b, c] = vars(["pa", "pb", "pc"]);
        let s = Schema::from([a, b, c]);
        assert_eq!(s.positions_of(&Schema::from([c, a])), vec![2, 0]);
    }

    #[test]
    #[should_panic(expected = "duplicate variable")]
    fn duplicate_vars_rejected() {
        let a = sym("dup");
        let _ = Schema::from([a, a]);
    }

    #[test]
    #[should_panic(expected = "not in schema")]
    fn positions_of_missing_var_panics() {
        let [a, b] = vars(["ma", "mb"]);
        Schema::from([a]).positions_of(&Schema::from([b]));
    }
}
