//! Small typed-index arenas used throughout the IR.
//!
//! Every IR entity (function, block, instruction, global) is referred to by a
//! lightweight copyable id that indexes into a `PrimaryMap`. This mirrors
//! the `entity` pattern used by production compilers (e.g. Cranelift) and
//! keeps the IR free of reference cycles, which makes cloning and rewriting
//! tasks — the bread and butter of the DAE transformation — trivial.

use std::fmt;
use std::hash::Hash;
use std::marker::PhantomData;

/// A typed index into one of the IR's entity arenas.
pub trait EntityId: Copy + Eq + Hash + fmt::Debug + 'static {
    /// Builds an id from a raw index.
    fn from_index(idx: usize) -> Self;
    /// Returns the raw index of this id.
    fn index(self) -> usize;
}

/// Declares a new entity id type.
///
/// ```
/// dae_ir::entity_id!(pub struct DemoId, "demo");
/// let id = <DemoId as dae_ir::entity::EntityId>::from_index(3);
/// assert_eq!(format!("{id}"), "demo3");
/// ```
#[macro_export]
macro_rules! entity_id {
    ($vis:vis struct $name:ident, $prefix:literal) => {
        /// A typed index referring to one IR entity.
        #[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
        $vis struct $name($vis u32);

        impl $crate::entity::EntityId for $name {
            fn from_index(idx: usize) -> Self {
                debug_assert!(idx <= u32::MAX as usize);
                $name(idx as u32)
            }
            fn index(self) -> usize {
                self.0 as usize
            }
        }

        impl ::std::fmt::Debug for $name {
            fn fmt(&self, f: &mut ::std::fmt::Formatter<'_>) -> ::std::fmt::Result {
                write!(f, concat!($prefix, "{}"), self.0)
            }
        }

        impl ::std::fmt::Display for $name {
            fn fmt(&self, f: &mut ::std::fmt::Formatter<'_>) -> ::std::fmt::Result {
                ::std::fmt::Debug::fmt(self, f)
            }
        }
    };
}

/// An append-only arena mapping ids of type `K` to values of type `V`.
///
/// Ids are dense: the `n`-th pushed element has index `n`.
#[derive(Clone, PartialEq, Eq)]
pub(crate) struct PrimaryMap<K: EntityId, V> {
    items: Vec<V>,
    _marker: PhantomData<K>,
}

impl<K: EntityId, V> PrimaryMap<K, V> {
    /// Creates an empty map.
    pub(crate) fn new() -> Self {
        PrimaryMap { items: Vec::new(), _marker: PhantomData }
    }

    /// Appends `value`, returning its id.
    pub(crate) fn push(&mut self, value: V) -> K {
        let id = K::from_index(self.items.len());
        self.items.push(value);
        id
    }

    /// Number of entities allocated.
    pub(crate) fn len(&self) -> usize {
        self.items.len()
    }

    /// Makes room for `additional` more entities without reallocating.
    pub(crate) fn reserve(&mut self, additional: usize) {
        self.items.reserve_exact(additional);
    }

    /// Iterates over `(id, &value)` pairs in allocation order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = (K, &V)> {
        self.items.iter().enumerate().map(|(i, v)| (K::from_index(i), v))
    }

    /// Iterates over all ids in allocation order.
    pub(crate) fn keys(&self) -> impl Iterator<Item = K> + 'static {
        (0..self.items.len()).map(K::from_index)
    }

    /// Iterates over values in allocation order.
    pub(crate) fn values(&self) -> impl Iterator<Item = &V> {
        self.items.iter()
    }
}

impl<K: EntityId, V> Default for PrimaryMap<K, V> {
    fn default() -> Self {
        Self::new()
    }
}

impl<K: EntityId, V> std::ops::Index<K> for PrimaryMap<K, V> {
    type Output = V;
    fn index(&self, key: K) -> &V {
        &self.items[key.index()]
    }
}

impl<K: EntityId, V> std::ops::IndexMut<K> for PrimaryMap<K, V> {
    fn index_mut(&mut self, key: K) -> &mut V {
        &mut self.items[key.index()]
    }
}

impl<K: EntityId, V: fmt::Debug> fmt::Debug for PrimaryMap<K, V> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_map().entries(self.iter()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    entity_id!(struct TestId, "t");

    #[test]
    fn push_and_index() {
        let mut m: PrimaryMap<TestId, &str> = PrimaryMap::new();
        let a = m.push("a");
        let b = m.push("b");
        assert_eq!(m[a], "a");
        assert_eq!(m[b], "b");
        assert_eq!(m.len(), 2);
        assert_eq!(a.index(), 0);
        assert_eq!(b.index(), 1);
    }

    #[test]
    fn keys_are_dense_and_ordered() {
        let mut m: PrimaryMap<TestId, i32> = PrimaryMap::new();
        for i in 0..5 {
            m.push(i);
        }
        let keys: Vec<usize> = m.keys().map(|k| k.index()).collect();
        assert_eq!(keys, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn display_uses_prefix() {
        let id = TestId::from_index(7);
        assert_eq!(format!("{id}"), "t7");
        assert_eq!(format!("{id:?}"), "t7");
    }
}
