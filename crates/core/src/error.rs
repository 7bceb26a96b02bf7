//! Engine errors.

use ivm_data::Sym;
use ivm_query::VarOrderError;
use std::fmt;

/// Why an engine could not be built or an operation was rejected.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum EngineError {
    /// The chosen maintenance strategy requires a q-hierarchical query
    /// (or a variable order with the stated properties) and the query is
    /// not one.
    NotSupported(String),
    /// The variable order is invalid for the query.
    VarOrder(VarOrderError),
    /// Updates must target a known dynamic relation.
    UnknownRelation(Sym),
    /// The relation is declared static (Sec. 4.5) and cannot be updated.
    StaticRelation(Sym),
    /// An update carries a tuple whose arity is not its relation's.
    ArityMismatch {
        /// The updated relation.
        relation: Sym,
        /// The arity the query declares for it.
        declared: usize,
        /// The arity of the tuple the update carries.
        got: usize,
    },
    /// View trees require globally unique relation names (self-join-free).
    DuplicateRelation(Sym),
    /// A single-tuple update on this atom would not propagate in constant
    /// time under the chosen variable order.
    NonConstantUpdate {
        /// The offending relation.
        relation: Sym,
        /// Human-readable reason (which view key is not covered).
        detail: String,
    },
    /// A shard worker of a parallel engine died (panicked or hung up)
    /// before reporting its delta; the engine's state is unrecoverable.
    ShardFailure(String),
    /// The durable store behind a session failed (journal I/O, a corrupt
    /// snapshot, a mismatched recovery). Stringified because the
    /// underlying `io::Error` is neither `Clone` nor `Eq`.
    Store(String),
}

impl fmt::Display for EngineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EngineError::NotSupported(m) => write!(f, "not supported: {m}"),
            EngineError::VarOrder(e) => write!(f, "invalid variable order: {e}"),
            EngineError::UnknownRelation(r) => write!(f, "unknown relation {r}"),
            EngineError::StaticRelation(r) => write!(f, "relation {r} is static"),
            EngineError::ArityMismatch {
                relation,
                declared,
                got,
            } => write!(
                f,
                "update to {relation} carries a tuple of arity {got}, but the \
                 relation is declared with arity {declared}"
            ),
            EngineError::DuplicateRelation(r) => {
                write!(f, "relation {r} occurs in several atoms (self-join)")
            }
            EngineError::NonConstantUpdate { relation, detail } => {
                write!(f, "updates to {relation} are not constant-time: {detail}")
            }
            EngineError::ShardFailure(m) => write!(f, "shard worker failed: {m}"),
            EngineError::Store(m) => write!(f, "durable store: {m}"),
        }
    }
}

impl std::error::Error for EngineError {}

impl From<VarOrderError> for EngineError {
    fn from(e: VarOrderError) -> Self {
        EngineError::VarOrder(e)
    }
}
