//! A radix tree over `u64` keys, used to index cached data objects.
//!
//! "Internally, the radix tree is used to index cached data objects. Due
//! to the large cache entry size, it is very likely to have a shallow
//! depth allowing for faster lookups." (§III-D)
//!
//! Fanout is 16 (4 bits per level); the tree grows in height only as far
//! as the largest inserted key requires, so a file's low chunk indexes
//! stay one or two hops from the root.

const FANOUT: usize = 16;
const BITS: u32 = 4;

#[derive(Debug)]
enum Slot<V> {
    Inner(Box<Node<V>>),
    Leaf(V),
}

#[derive(Debug)]
struct Node<V> {
    slots: [Option<Slot<V>>; FANOUT],
}

impl<V> Node<V> {
    fn new() -> Box<Self> {
        Box::new(Node {
            slots: Default::default(),
        })
    }

    fn is_empty(&self) -> bool {
        self.slots.iter().all(Option::is_none)
    }
}

/// A sparse map from `u64` to `V` with shallow-radix lookups.
#[derive(Debug)]
pub struct RadixTree<V> {
    root: Box<Node<V>>,
    /// Number of 4-bit digits currently representable.
    height: u32,
    len: usize,
}

impl<V> Default for RadixTree<V> {
    fn default() -> Self {
        RadixTree {
            root: Node::new(),
            height: 1,
            len: 0,
        }
    }
}

impl<V> RadixTree<V> {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn len(&self) -> usize {
        self.len
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Keys representable at the current height.
    fn capacity(&self) -> u128 {
        1u128 << (BITS * self.height)
    }

    fn digit(key: u64, level: u32) -> usize {
        ((key >> (BITS * (level - 1))) & (FANOUT as u64 - 1)) as usize
    }

    /// Grow the tree until `key` fits.
    fn grow_for(&mut self, key: u64) {
        while (key as u128) >= self.capacity() {
            let old = std::mem::replace(&mut self.root, Node::new());
            self.root.slots[0] = Some(Slot::Inner(old));
            self.height += 1;
        }
    }

    /// Insert or replace; returns the previous value if any.
    pub fn insert(&mut self, key: u64, value: V) -> Option<V> {
        self.grow_for(key);
        let mut node = &mut *self.root;
        let mut level = self.height;
        while level > 1 {
            let d = Self::digit(key, level);
            let slot = &mut node.slots[d];
            match slot {
                Some(Slot::Inner(_)) => {}
                Some(Slot::Leaf(_)) => unreachable!("leaf above level 1"),
                None => *slot = Some(Slot::Inner(Node::new())),
            }
            node = match slot {
                Some(Slot::Inner(n)) => n,
                _ => unreachable!(),
            };
            level -= 1;
        }
        let d = Self::digit(key, 1);
        let prev = node.slots[d].replace(Slot::Leaf(value));
        match prev {
            Some(Slot::Leaf(v)) => Some(v),
            Some(Slot::Inner(_)) => unreachable!("inner node at leaf level"),
            None => {
                self.len += 1;
                None
            }
        }
    }

    pub fn get(&self, key: u64) -> Option<&V> {
        if (key as u128) >= self.capacity() {
            return None;
        }
        let mut node = &*self.root;
        let mut level = self.height;
        while level > 1 {
            match &node.slots[Self::digit(key, level)] {
                Some(Slot::Inner(n)) => node = n,
                _ => return None,
            }
            level -= 1;
        }
        match &node.slots[Self::digit(key, 1)] {
            Some(Slot::Leaf(v)) => Some(v),
            _ => None,
        }
    }

    pub fn get_mut(&mut self, key: u64) -> Option<&mut V> {
        if (key as u128) >= self.capacity() {
            return None;
        }
        let mut node = &mut *self.root;
        let mut level = self.height;
        while level > 1 {
            match &mut node.slots[Self::digit(key, level)] {
                Some(Slot::Inner(n)) => node = n,
                _ => return None,
            }
            level -= 1;
        }
        match &mut node.slots[Self::digit(key, 1)] {
            Some(Slot::Leaf(v)) => Some(v),
            _ => None,
        }
    }

    pub fn contains(&self, key: u64) -> bool {
        self.get(key).is_some()
    }

    /// Remove a key, pruning any inner nodes it leaves empty.
    pub fn remove(&mut self, key: u64) -> Option<V> {
        if (key as u128) >= self.capacity() {
            return None;
        }
        let height = self.height;
        let removed = Self::remove_rec(&mut self.root, key, height);
        if removed.is_some() {
            self.len -= 1;
        }
        removed
    }

    fn remove_rec(node: &mut Node<V>, key: u64, level: u32) -> Option<V> {
        let d = Self::digit(key, level);
        if level == 1 {
            return match node.slots[d].take() {
                Some(Slot::Leaf(v)) => Some(v),
                other => {
                    node.slots[d] = other;
                    None
                }
            };
        }
        let removed = match &mut node.slots[d] {
            Some(Slot::Inner(child)) => Self::remove_rec(child, key, level - 1),
            _ => return None,
        };
        if removed.is_some() {
            if let Some(Slot::Inner(child)) = &node.slots[d] {
                if child.is_empty() {
                    node.slots[d] = None;
                }
            }
        }
        removed
    }

    /// In-order iteration over `(key, &value)`.
    pub fn iter(&self) -> impl Iterator<Item = (u64, &V)> {
        let mut out = Vec::with_capacity(self.len);
        Self::collect(&self.root, 0, &mut out);
        out.into_iter()
    }

    fn collect<'a>(node: &'a Node<V>, prefix: u64, out: &mut Vec<(u64, &'a V)>) {
        for (d, slot) in node.slots.iter().enumerate() {
            let key = (prefix << BITS) | d as u64;
            match slot {
                Some(Slot::Inner(n)) => Self::collect(n, key, out),
                Some(Slot::Leaf(v)) => out.push((key, v)),
                None => {}
            }
        }
    }

    /// Remove every entry with `key >= from` (truncate support). Returns
    /// the removed values.
    pub fn split_off(&mut self, from: u64) -> Vec<(u64, V)> {
        let keys: Vec<u64> = self.iter().map(|(k, _)| k).filter(|&k| k >= from).collect();
        keys.into_iter()
            .map(|k| (k, self.remove(k).expect("key listed by iter must exist")))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use arkfs_simkit::hash::HashMap;
    use proptest::prelude::*;

    #[test]
    fn insert_get_remove() {
        let mut t = RadixTree::new();
        assert!(t.is_empty());
        assert_eq!(t.insert(0, "a"), None);
        assert_eq!(t.insert(15, "b"), None);
        assert_eq!(t.insert(16, "c"), None); // forces growth
        assert_eq!(t.insert(1_000_000, "d"), None);
        assert_eq!(t.len(), 4);
        assert_eq!(t.get(0), Some(&"a"));
        assert_eq!(t.get(15), Some(&"b"));
        assert_eq!(t.get(16), Some(&"c"));
        assert_eq!(t.get(1_000_000), Some(&"d"));
        assert_eq!(t.get(17), None);
        assert_eq!(t.remove(16), Some("c"));
        assert_eq!(t.remove(16), None);
        assert_eq!(t.len(), 3);
        assert!(t.contains(0));
        assert!(!t.contains(16));
    }

    #[test]
    fn insert_replaces() {
        let mut t = RadixTree::new();
        assert_eq!(t.insert(7, 1), None);
        assert_eq!(t.insert(7, 2), Some(1));
        assert_eq!(t.len(), 1);
        assert_eq!(t.get(7), Some(&2));
        *t.get_mut(7).unwrap() = 9;
        assert_eq!(t.get(7), Some(&9));
        assert_eq!(t.get_mut(8), None);
    }

    #[test]
    fn huge_keys_work() {
        let mut t = RadixTree::new();
        t.insert(u64::MAX, "max");
        t.insert(0, "zero");
        assert_eq!(t.get(u64::MAX), Some(&"max"));
        assert_eq!(t.get(0), Some(&"zero"));
        assert_eq!(t.remove(u64::MAX), Some("max"));
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn out_of_capacity_lookups_are_none() {
        let mut t: RadixTree<u32> = RadixTree::new();
        t.insert(3, 3);
        // Height 1 covers 0..16; larger keys must not panic.
        assert_eq!(t.get(1 << 40), None);
        assert_eq!(t.remove(1 << 40), None);
    }

    #[test]
    fn iter_is_ordered() {
        let mut t = RadixTree::new();
        for k in [300u64, 1, 40, 2, 1000] {
            t.insert(k, k * 10);
        }
        let got: Vec<u64> = t.iter().map(|(k, _)| k).collect();
        assert_eq!(got, vec![1, 2, 40, 300, 1000]);
        let vals: Vec<u64> = t.iter().map(|(_, v)| *v).collect();
        assert_eq!(vals, vec![10, 20, 400, 3000, 10000]);
    }

    #[test]
    fn split_off_truncates() {
        let mut t = RadixTree::new();
        for k in 0..20u64 {
            t.insert(k, k);
        }
        let removed = t.split_off(10);
        assert_eq!(removed.len(), 10);
        assert!(removed.iter().all(|(k, _)| *k >= 10));
        assert_eq!(t.len(), 10);
        assert!(t.contains(9));
        assert!(!t.contains(10));
    }

    proptest! {
        #[test]
        fn behaves_like_a_hashmap(ops in prop::collection::vec(
            (0u64..10_000, 0u8..3, any::<u32>()), 1..300)) {
            let mut tree = RadixTree::new();
            let mut model: HashMap<u64, u32> = HashMap::default();
            for (key, op, val) in ops {
                match op {
                    0 => {
                        prop_assert_eq!(tree.insert(key, val), model.insert(key, val));
                    }
                    1 => {
                        prop_assert_eq!(tree.remove(key), model.remove(&key));
                    }
                    _ => {
                        prop_assert_eq!(tree.get(key), model.get(&key));
                    }
                }
                prop_assert_eq!(tree.len(), model.len());
            }
            // Full scan agrees with the model, in sorted order.
            let mut expect: Vec<(u64, u32)> = model.into_iter().collect();
            expect.sort();
            let got: Vec<(u64, u32)> = tree.iter().map(|(k, v)| (k, *v)).collect();
            prop_assert_eq!(got, expect);
        }
    }
}
