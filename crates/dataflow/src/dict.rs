//! The multiway join's value dictionary: [`Value`] ↔ dense `u32` id.
//!
//! A multiway node encodes each delta tuple once, when it receives it, and
//! from then on its stores, index keys, candidate sets and search binding
//! hold only ids: four bytes that hash with one multiply and compare with
//! one instruction, where a [`Value`] is a 24-byte tagged enum. Values are
//! decoded only at a full binding, for the lifts and the output key.
//!
//! Ids are reference-counted by the resident tuples that hold them (one
//! count per column occurrence). An id whose count is zero at the end of
//! an operation — a value that only passed through a batch, or whose last
//! resident tuple left — is freed by [`Dict::sweep`] and reused by the
//! next new value, so a stream over ever-fresh values keeps the dictionary
//! at its live distinct-value count. Freeing is deferred to the sweep
//! because a batch is encoded before it is applied: an id that drops to
//! zero mid-batch may still be re-added by a later tuple of the batch.

use ivm_data::{FxHashMap, Value};

/// A dense id, the dictionary's code for one [`Value`].
pub(crate) type Id = u32;

/// The bidirectional map between values and ids, with per-id reference
/// counts and a free list.
#[derive(Default)]
pub(crate) struct Dict {
    ids: FxHashMap<Value, Id>,
    /// By id; `None` for a freed id.
    values: Vec<Option<Value>>,
    /// By id: the resident tuple columns holding it.
    refs: Vec<u32>,
    /// Freed ids, reused before the id space grows.
    free: Vec<Id>,
    /// Ids that may have no reference left: new ones, and released ones
    /// whose count reached zero.
    unswept: Vec<Id>,
}

impl Dict {
    /// The id of `v`, assigned (with no references) if `v` is new.
    pub(crate) fn encode(&mut self, v: &Value) -> Id {
        if let Some(&id) = self.ids.get(v) {
            return id;
        }
        let id = match self.free.pop() {
            Some(id) => {
                self.values[id as usize] = Some(v.clone());
                id
            }
            None => {
                let id = Id::try_from(self.values.len())
                    .expect("at most 2^32 distinct values are live at once");
                self.values.push(Some(v.clone()));
                self.refs.push(0);
                id
            }
        };
        self.ids.insert(v.clone(), id);
        self.unswept.push(id);
        id
    }

    /// The ids of `vals`, in order, assembled in `buf`.
    pub(crate) fn encode_all<'b>(&mut self, vals: &[Value], buf: &'b mut Vec<Id>) -> &'b [Id] {
        buf.clear();
        buf.extend(vals.iter().map(|v| self.encode(v)));
        buf
    }

    /// The value `id` encodes. `id` must be live.
    pub(crate) fn value(&self, id: Id) -> &Value {
        self.values[id as usize]
            .as_ref()
            .expect("a stored id is never freed")
    }

    /// Count one more resident column holding `id`.
    pub(crate) fn retain(&mut self, id: Id) {
        let n = &mut self.refs[id as usize];
        *n = n
            .checked_add(1)
            .expect("an id's count is bounded by 2^32 resident tuple columns holding one value");
    }

    /// Count one resident column holding `id` less.
    pub(crate) fn release(&mut self, id: Id) {
        let n = &mut self.refs[id as usize];
        *n -= 1;
        if *n == 0 {
            self.unswept.push(id);
        }
    }

    /// Free every id no resident tuple holds. Called at the end of each
    /// operation that encoded or released ids.
    pub(crate) fn sweep(&mut self) {
        for id in self.unswept.drain(..) {
            if self.refs[id as usize] != 0 {
                continue;
            }
            // An id can be listed twice; only its first listing frees it.
            if let Some(v) = self.values[id as usize].take() {
                self.ids.remove(&v);
                self.free.push(id);
            }
        }
    }

    /// Number of live ids.
    #[cfg(test)]
    pub(crate) fn live(&self) -> usize {
        self.ids.len()
    }

    /// Ids ever assigned: the high-water mark of the id space.
    #[cfg(test)]
    pub(crate) fn capacity(&self) -> usize {
        self.values.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unreferenced_ids_are_freed_and_reused() {
        let mut d = Dict::default();
        let a = d.encode(&Value::Int(7));
        let b = d.encode(&Value::str("x"));
        assert_eq!(d.encode(&Value::Int(7)), a);
        d.retain(a);
        d.sweep();
        // `b` passed through without a reference.
        assert_eq!((d.live(), d.value(a)), (1, &Value::Int(7)));
        let c = d.encode(&Value::Int(8));
        assert_eq!(c, b, "a freed id is reused");
        d.release(a);
        d.retain(a);
        d.sweep();
        assert_eq!(d.value(a), &Value::Int(7), "re-retained before the sweep");
        d.release(a);
        d.sweep();
        assert_eq!((d.live(), d.capacity()), (0, 2));
    }

    #[test]
    #[should_panic(expected = "bounded by 2^32 resident tuple columns")]
    fn reference_count_overflow_panics() {
        let mut d = Dict::default();
        let a = d.encode(&Value::Int(1));
        d.refs[a as usize] = u32::MAX;
        d.retain(a);
    }
}
