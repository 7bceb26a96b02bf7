//! Query abstract syntax.
//!
//! The query language of Sec. 2:
//!
//! ```text
//! Q(X1, …, Xf) = Σ_{X_{f+1}} … Σ_{X_m}  Π_{i ∈ [n]} R_i(S_i)
//! ```
//!
//! natural joins with group-by aggregates; conjunctive queries are the case
//! where aggregation is projection. Queries with *free access patterns*
//! (Sec. 4.3) additionally split the free variables into input and output:
//! `Q(O | I)`.

use ivm_data::{Schema, Sym};
use std::fmt;

/// A relational atom `R_i(S_i)`.
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct Atom {
    /// Relation name.
    pub name: Sym,
    /// Schema (tuple of variables).
    pub schema: Schema,
    /// Whether the relation receives updates (Sec. 4.5). Defaults to `true`;
    /// static relations support the mixed static-dynamic dichotomy.
    pub dynamic: bool,
}

impl Atom {
    /// A dynamic atom.
    pub fn new(name: Sym, schema: impl Into<Schema>) -> Self {
        Atom {
            name,
            schema: schema.into(),
            dynamic: true,
        }
    }

    /// A static atom (never updated).
    pub fn new_static(name: Sym, schema: impl Into<Schema>) -> Self {
        Atom {
            name,
            schema: schema.into(),
            dynamic: false,
        }
    }
}

impl fmt::Debug for Atom {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}{}{:?}",
            self.name,
            if self.dynamic { "" } else { "ˢ" },
            self.schema
        )
    }
}

/// A conjunctive query with group-by aggregates and (optionally) an access
/// pattern.
#[derive(Clone, PartialEq, Eq)]
pub struct Query {
    /// Query name, for diagnostics.
    pub name: Sym,
    /// Free (group-by) variables, in output order. For CQAPs this is the
    /// concatenation of output and input variables.
    pub free: Schema,
    /// Input variables (for CQAPs): `input ⊆ free`. Empty for plain queries.
    pub input: Schema,
    /// The atoms.
    pub atoms: Vec<Atom>,
}

impl Query {
    /// Build a plain query (no access pattern).
    pub fn new(name: &str, free: impl Into<Schema>, atoms: Vec<Atom>) -> Self {
        let q = Query {
            name: ivm_data::sym(name),
            free: free.into(),
            input: Schema::empty(),
            atoms,
        };
        q.validate();
        q
    }

    /// Build a CQAP `Q(output | input)`.
    pub fn with_access_pattern(
        name: &str,
        output: impl Into<Schema>,
        input: impl Into<Schema>,
        atoms: Vec<Atom>,
    ) -> Self {
        let output = output.into();
        let input = input.into();
        let q = Query {
            name: ivm_data::sym(name),
            free: output.union(&input),
            input,
            atoms,
        };
        q.validate();
        q
    }

    fn validate(&self) {
        assert!(!self.atoms.is_empty(), "query {} has no atoms", self.name);
        let all = self.variables();
        assert!(
            self.free.subset_of(&all),
            "free variables {:?} of {} must occur in some atom {:?}",
            self.free,
            self.name,
            all
        );
        assert!(
            self.input.subset_of(&self.free),
            "input variables must be free"
        );
    }

    /// All variables, in first-occurrence order.
    pub fn variables(&self) -> Schema {
        let mut s = Schema::empty();
        for a in &self.atoms {
            s = s.union(&a.schema);
        }
        s
    }

    /// Bound (aggregated-away) variables.
    pub fn bound(&self) -> Schema {
        self.variables().difference(&self.free)
    }

    /// Output variables (free minus input).
    pub fn output(&self) -> Schema {
        self.free.difference(&self.input)
    }

    /// Whether `v` is free.
    pub fn is_free(&self, v: Sym) -> bool {
        self.free.contains(v)
    }

    /// Whether `v` is an input variable.
    pub fn is_input(&self, v: Sym) -> bool {
        self.input.contains(v)
    }

    /// The most atom occurrences a query may have: sets of atoms are `u64`
    /// masks, here ([`Self::atoms_of`]) and in the multiway join's delta
    /// terms.
    pub const MAX_ATOMS: usize = 64;

    /// Refuse a query with more than [`Self::MAX_ATOMS`] atom occurrences,
    /// or one that names a relation at two arities, saying why — engine
    /// constructors return this as an error rather than overflow a mask
    /// or store one relation under two schemas.
    pub fn check_atoms(&self) -> Result<(), String> {
        if self.atoms.len() > Self::MAX_ATOMS {
            return Err(format!(
                "{} has {} atom occurrences; at most {} are supported",
                self.name,
                self.atoms.len(),
                Self::MAX_ATOMS
            ));
        }
        for (i, a) in self.atoms.iter().enumerate() {
            let clash = self.atoms[..i]
                .iter()
                .find(|b| b.name == a.name && b.schema.arity() != a.schema.arity());
            if let Some(b) = clash {
                return Err(format!(
                    "{} names relation {} at arity {} and at arity {}",
                    self.name,
                    a.name,
                    b.schema.arity(),
                    a.schema.arity()
                ));
            }
        }
        Ok(())
    }

    /// `atoms(X)`: the indices of atoms whose schema contains `X`, as a
    /// bitmask (at most [`Self::MAX_ATOMS`] atoms).
    pub fn atoms_of(&self, v: Sym) -> u64 {
        assert!(
            self.atoms.len() <= Self::MAX_ATOMS,
            "more than 64 atoms unsupported"
        );
        let mut mask = 0u64;
        for (i, a) in self.atoms.iter().enumerate() {
            if a.schema.contains(v) {
                mask |= 1 << i;
            }
        }
        mask
    }

    /// Whether the query has no repeated relation symbols.
    pub fn is_self_join_free(&self) -> bool {
        for (i, a) in self.atoms.iter().enumerate() {
            if self.atoms[..i].iter().any(|b| b.name == a.name) {
                return false;
            }
        }
        true
    }

    /// Whether the query is Boolean (no free variables).
    pub fn is_boolean(&self) -> bool {
        self.free.is_empty()
    }

    /// The atom with the given relation name, if unique.
    pub fn atom(&self, name: Sym) -> Option<&Atom> {
        let mut found = None;
        for a in &self.atoms {
            if a.name == name {
                if found.is_some() {
                    return None;
                }
                found = Some(a);
            }
        }
        found
    }

    /// Indices of dynamic atoms.
    pub fn dynamic_atoms(&self) -> Vec<usize> {
        (0..self.atoms.len())
            .filter(|&i| self.atoms[i].dynamic)
            .collect()
    }
}

impl fmt::Debug for Query {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}(", self.name)?;
        let out = self.output();
        for (i, v) in out.vars().iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{v}")?;
        }
        if !self.input.is_empty() {
            write!(f, " | ")?;
            for (i, v) in self.input.vars().iter().enumerate() {
                if i > 0 {
                    write!(f, ", ")?;
                }
                write!(f, "{v}")?;
            }
        }
        write!(f, ") = ")?;
        for (i, a) in self.atoms.iter().enumerate() {
            if i > 0 {
                write!(f, " · ")?;
            }
            write!(f, "{a:?}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ivm_data::vars;

    #[test]
    fn variables_and_bound() {
        let [a, b, c] = vars(["ast_A", "ast_B", "ast_C"]);
        let q = Query::new(
            "ast_q1",
            [a],
            vec![
                Atom::new(ivm_data::sym("ast_R"), [a, b]),
                Atom::new(ivm_data::sym("ast_S"), [b, c]),
            ],
        );
        assert_eq!(q.variables(), Schema::from([a, b, c]));
        assert_eq!(q.bound(), Schema::from([b, c]));
        assert!(q.is_free(a));
        assert!(!q.is_free(b));
    }

    #[test]
    fn atoms_of_bitmask() {
        let [a, b] = vars(["ast_A2", "ast_B2"]);
        let q = Query::new(
            "ast_q2",
            [a, b],
            vec![
                Atom::new(ivm_data::sym("ast_R2"), [a, b]),
                Atom::new(ivm_data::sym("ast_S2"), [b]),
            ],
        );
        assert_eq!(q.atoms_of(a), 0b01);
        assert_eq!(q.atoms_of(b), 0b11);
    }

    #[test]
    fn self_join_detection() {
        let [a, b, c] = vars(["ast_A3", "ast_B3", "ast_C3"]);
        let e = ivm_data::sym("ast_E");
        let q = Query::new(
            "ast_tri",
            [],
            vec![
                Atom::new(e, [a, b]),
                Atom::new(e, [b, c]),
                Atom::new(e, [c, a]),
            ],
        );
        assert!(!q.is_self_join_free());
        assert!(q.is_boolean());
    }

    #[test]
    fn access_pattern_split() {
        let [a, b] = vars(["ast_A4", "ast_B4"]);
        let q = Query::with_access_pattern(
            "ast_cqap",
            [a],
            [b],
            vec![Atom::new(ivm_data::sym("ast_S4"), [a, b])],
        );
        assert_eq!(q.output(), Schema::from([a]));
        assert_eq!(q.input, Schema::from([b]));
        assert_eq!(q.free, Schema::from([a, b]));
    }

    #[test]
    #[should_panic(expected = "must occur in some atom")]
    fn free_var_must_occur() {
        let [a, z] = vars(["ast_A5", "ast_Z5"]);
        Query::new(
            "ast_bad",
            [z],
            vec![Atom::new(ivm_data::sym("ast_R5"), [a])],
        );
    }
}
