//! Small typed-index arenas used throughout the IR.
//!
//! Every IR entity (function, block, instruction, global) is referred to by a
//! lightweight copyable id that indexes into a [`PrimaryMap`]. This mirrors
//! the `entity` pattern used by production compilers (e.g. Cranelift) and
//! keeps the IR free of reference cycles, which makes cloning and rewriting
//! tasks — the bread and butter of the DAE transformation — trivial.

use std::fmt;
use std::hash::Hash;
use std::marker::PhantomData;

/// A key type usable with [`PrimaryMap`] and [`SecondaryMap`].
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
    (pub struct $name:ident, $prefix:literal) => {
        /// A typed index referring to one IR entity.
        #[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
        pub struct $name(pub u32);

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
pub struct PrimaryMap<K: EntityId, V> {
    items: Vec<V>,
    _marker: PhantomData<K>,
}

impl<K: EntityId, V> PrimaryMap<K, V> {
    /// Creates an empty map.
    pub fn new() -> Self {
        PrimaryMap { items: Vec::new(), _marker: PhantomData }
    }

    /// Appends `value`, returning its id.
    pub fn push(&mut self, value: V) -> K {
        let id = K::from_index(self.items.len());
        self.items.push(value);
        id
    }

    /// Number of entities allocated.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// Makes room for `additional` more entities without reallocating.
    pub fn reserve(&mut self, additional: usize) {
        self.items.reserve_exact(additional);
    }

    /// True when no entity has been allocated.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// The id the next `push` will return.
    pub fn next_id(&self) -> K {
        K::from_index(self.items.len())
    }

    /// Iterates over `(id, &value)` pairs in allocation order.
    pub fn iter(&self) -> impl Iterator<Item = (K, &V)> {
        self.items.iter().enumerate().map(|(i, v)| (K::from_index(i), v))
    }

    /// Iterates over all ids in allocation order.
    pub fn keys(&self) -> impl Iterator<Item = K> + 'static {
        (0..self.items.len()).map(K::from_index)
    }

    /// Iterates over values in allocation order.
    pub fn values(&self) -> impl Iterator<Item = &V> {
        self.items.iter()
    }

    /// Checks whether `key` refers to an allocated entity.
    pub fn contains(&self, key: K) -> bool {
        key.index() < self.items.len()
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

/// A dense side-table associating a `V` with every entity of a [`PrimaryMap`].
///
/// Missing entries read back as `V::default()`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SecondaryMap<K: EntityId, V: Clone + Default> {
    items: Vec<V>,
    default: V,
    _marker: PhantomData<K>,
}

impl<K: EntityId, V: Clone + Default> SecondaryMap<K, V> {
    /// Creates an empty side-table.
    pub fn new() -> Self {
        SecondaryMap { items: Vec::new(), default: V::default(), _marker: PhantomData }
    }

    /// Creates a side-table pre-sized for `len` entities.
    pub fn with_capacity(len: usize) -> Self {
        SecondaryMap { items: vec![V::default(); len], default: V::default(), _marker: PhantomData }
    }

    fn ensure(&mut self, key: K) {
        if key.index() >= self.items.len() {
            self.items.resize(key.index() + 1, V::default());
        }
    }
}

impl<K: EntityId, V: Clone + Default> Default for SecondaryMap<K, V> {
    fn default() -> Self {
        Self::new()
    }
}

impl<K: EntityId, V: Clone + Default> std::ops::Index<K> for SecondaryMap<K, V> {
    type Output = V;
    fn index(&self, key: K) -> &V {
        self.items.get(key.index()).unwrap_or(&self.default)
    }
}

impl<K: EntityId, V: Clone + Default> std::ops::IndexMut<K> for SecondaryMap<K, V> {
    fn index_mut(&mut self, key: K) -> &mut V {
        self.ensure(key);
        &mut self.items[key.index()]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    entity_id!(pub struct TestId, "t");

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

    #[test]
    fn secondary_map_defaults() {
        let mut m: PrimaryMap<TestId, i32> = PrimaryMap::new();
        let a = m.push(1);
        let b = m.push(2);
        let mut side: SecondaryMap<TestId, bool> = SecondaryMap::new();
        assert!(!side[a]);
        side[b] = true;
        assert!(side[b]);
        assert!(!side[a]);
    }

    #[test]
    fn next_id_matches_push() {
        let mut m: PrimaryMap<TestId, i32> = PrimaryMap::new();
        let predicted = m.next_id();
        let actual = m.push(42);
        assert_eq!(predicted, actual);
    }
}
