//! An in-memory B-tree map used for the primary-key indexes and the
//! declared secondary indexes of the engine and of [`crate::Table`].
//!
//! Classic CLRS shape: minimum degree `B`, preemptive root/child
//! splits on the way down, a binary search within nodes. Point
//! lookups and ordered prefix scans are O(log n) in the number of
//! keys; iteration is in key order. Each node search compares with the
//! node's last key first: a key inserted in ascending order (experiment
//! rows, named `{campaign}/{index:05}`) lands past it and skips the
//! binary search, except in the nodes whose last key is a larger one
//! inserted earlier (the campaign's `{campaign}/ref` row). Key
//! *removal* is intentionally not implemented — both users model
//! deletion by emptying/clearing the value (and rebuild the tree on
//! compaction), which keeps the structure append-only and trivially
//! correct.

use std::cmp::Ordering;

/// Minimum degree: nodes hold `B-1 ..= 2B-1` keys (root exempt).
const B: usize = 16;
const MAX_KEYS: usize = 2 * B - 1;

#[derive(Clone)]
struct Node<K, V> {
    keys: Vec<K>,
    vals: Vec<V>,
    children: Vec<Node<K, V>>,
}

/// Where a probe falls among a node's sorted `keys`, as
/// `binary_search_by` answers for `cmp` (a key's order against the
/// probe). The last key is compared first, and the binary search runs
/// only when the probe is not past it.
fn search<K>(keys: &[K], mut cmp: impl FnMut(&K) -> Ordering) -> Result<usize, usize> {
    match keys.last().map(&mut cmp) {
        None | Some(Ordering::Less) => Err(keys.len()),
        Some(Ordering::Equal) => Ok(keys.len() - 1),
        Some(Ordering::Greater) => keys[..keys.len() - 1].binary_search_by(cmp),
    }
}

impl<K, V> Node<K, V> {
    fn empty() -> Node<K, V> {
        Node {
            keys: Vec::new(),
            vals: Vec::new(),
            children: Vec::new(),
        }
    }

    fn is_leaf(&self) -> bool {
        self.children.is_empty()
    }
}

/// An ordered map backed by a B-tree.
#[derive(Clone)]
pub struct BTree<K, V> {
    root: Box<Node<K, V>>,
    len: usize,
}

impl<K, V> std::fmt::Debug for BTree<K, V> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BTree").field("len", &self.len).finish()
    }
}

impl<K: Ord, V> BTree<K, V> {
    /// An empty tree.
    pub fn new() -> BTree<K, V> {
        BTree {
            root: Box::new(Node::empty()),
            len: 0,
        }
    }

    /// Number of keys in the tree.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the tree holds no keys.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Inserts `key` → `val`, returning the previous value if the key
    /// was already present.
    pub fn insert(&mut self, key: K, val: V) -> Option<V> {
        let mut val = Some(val);
        let slot = self.get_or_insert_with(key, || val.take().expect("called at most once"));
        val.map(|v| std::mem::replace(slot, v))
    }

    fn split_child(parent: &mut Node<K, V>, i: usize) {
        let (mid_key, mid_val, right) = {
            let left = &mut parent.children[i];
            let right_keys = left.keys.split_off(B);
            let right_vals = left.vals.split_off(B);
            let right_children = if left.is_leaf() {
                Vec::new()
            } else {
                left.children.split_off(B)
            };
            let mid_key = left.keys.pop().expect("left half keeps B keys");
            let mid_val = left.vals.pop().expect("left half keeps B vals");
            (
                mid_key,
                mid_val,
                Node {
                    keys: right_keys,
                    vals: right_vals,
                    children: right_children,
                },
            )
        };
        parent.keys.insert(i, mid_key);
        parent.vals.insert(i, mid_val);
        parent.children.insert(i + 1, right);
    }

    /// The value under `key`, inserting `f()` first when the key is
    /// absent. The tree's one insertion descent: [`BTree::insert`] is
    /// built on it.
    pub fn get_or_insert_with(&mut self, key: K, f: impl FnOnce() -> V) -> &mut V {
        if self.root.keys.len() == MAX_KEYS {
            let old_root = std::mem::replace(&mut self.root, Box::new(Node::empty()));
            self.root.children.push(*old_root);
            Self::split_child(&mut self.root, 0);
        }
        let (val, inserted) = Self::entry_nonfull(&mut self.root, key, f);
        self.len += usize::from(inserted);
        val
    }

    fn entry_nonfull(node: &mut Node<K, V>, key: K, f: impl FnOnce() -> V) -> (&mut V, bool) {
        match search(&node.keys, |k| k.cmp(&key)) {
            Ok(i) => (&mut node.vals[i], false),
            Err(mut i) => {
                if node.is_leaf() {
                    node.keys.insert(i, key);
                    node.vals.insert(i, f());
                    return (&mut node.vals[i], true);
                }
                if node.children[i].keys.len() == MAX_KEYS {
                    Self::split_child(node, i);
                    match key.cmp(&node.keys[i]) {
                        Ordering::Equal => return (&mut node.vals[i], false),
                        Ordering::Greater => i += 1,
                        Ordering::Less => {}
                    }
                }
                Self::entry_nonfull(&mut node.children[i], key, f)
            }
        }
    }

    /// Point lookup.
    pub fn get(&self, key: &K) -> Option<&V> {
        self.get_by(|k| k.cmp(key))
    }

    /// Point lookup of the key for which `cmp` (a key's order against
    /// the probe, consistent with `K`'s order) answers `Equal`, so a
    /// caller can probe with a borrowed form of the key.
    pub fn get_by(&self, mut cmp: impl FnMut(&K) -> Ordering) -> Option<&V> {
        let mut node = &*self.root;
        loop {
            match search(&node.keys, &mut cmp) {
                Ok(i) => return Some(&node.vals[i]),
                Err(i) => {
                    if node.is_leaf() {
                        return None;
                    }
                    node = &node.children[i];
                }
            }
        }
    }

    /// Mutable point lookup.
    pub fn get_mut(&mut self, key: &K) -> Option<&mut V> {
        let mut node = &mut *self.root;
        loop {
            match search(&node.keys, |k| k.cmp(key)) {
                Ok(i) => return Some(&mut node.vals[i]),
                Err(i) => {
                    if node.is_leaf() {
                        return None;
                    }
                    node = &mut node.children[i];
                }
            }
        }
    }

    /// In-order visit of every entry.
    pub fn for_each<'a>(&'a self, f: &mut impl FnMut(&'a K, &'a V)) {
        fn walk<'a, K, V>(node: &'a Node<K, V>, f: &mut impl FnMut(&'a K, &'a V)) {
            for j in 0..node.keys.len() {
                if !node.is_leaf() {
                    walk(&node.children[j], f);
                }
                f(&node.keys[j], &node.vals[j]);
            }
            if !node.is_leaf() {
                walk(&node.children[node.keys.len()], f);
            }
        }
        walk(&self.root, f);
    }

    /// In-order visit starting at the first key `>= start`, continuing
    /// while `f` returns `true` — the ordered prefix/range scan the
    /// secondary indexes use.
    pub fn for_each_from<'a>(&'a self, start: &K, f: &mut impl FnMut(&'a K, &'a V) -> bool) {
        fn walk_all<'a, K, V>(
            node: &'a Node<K, V>,
            f: &mut impl FnMut(&'a K, &'a V) -> bool,
        ) -> bool {
            for j in 0..node.keys.len() {
                if !node.is_leaf() && !walk_all(&node.children[j], f) {
                    return false;
                }
                if !f(&node.keys[j], &node.vals[j]) {
                    return false;
                }
            }
            if !node.is_leaf() {
                return walk_all(&node.children[node.keys.len()], f);
            }
            true
        }
        fn walk_from<'a, K: Ord, V>(
            node: &'a Node<K, V>,
            start: &K,
            f: &mut impl FnMut(&'a K, &'a V) -> bool,
        ) -> bool {
            let (i, descend) = match search(&node.keys, |k| k.cmp(start)) {
                Ok(i) => (i, false),
                Err(i) => (i, true),
            };
            if descend && !node.is_leaf() && !walk_from(&node.children[i], start, f) {
                return false;
            }
            for j in i..node.keys.len() {
                if !f(&node.keys[j], &node.vals[j]) {
                    return false;
                }
                if !node.is_leaf() && !walk_all(&node.children[j + 1], f) {
                    return false;
                }
            }
            true
        }
        walk_from(&self.root, start, f);
    }
}

impl<K: Ord, V> Default for BTree<K, V> {
    fn default() -> Self {
        BTree::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// Inserts and lookups, through the last-key check, agree with
        /// `BTreeMap` whatever the insertion order: ascending (every key
        /// past the last), descending, random, and an ascending run
        /// behind a larger key already in the tree (experiment rows
        /// behind their campaign's `ref` row). Probes go below, at and
        /// above the largest key.
        #[test]
        fn last_key_check_matches_btreemap(
            order in 0u8..4,
            n in 1usize..700,
            seed in any::<u64>(),
            probes in proptest::collection::vec(any::<u16>(), 1..40),
        ) {
            let mut x = seed | 1;
            let mut random = move || {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x
            };
            let keys: Vec<u32> = match order {
                0 => (0..n as u32).map(|k| k * 3).collect(),
                1 => (0..n as u32).rev().map(|k| k * 3).collect(),
                2 => (0..n).map(|_| (random() % 4096) as u32).collect(),
                _ => std::iter::once(1 << 20)
                    .chain((0..n as u32).map(|k| k * 3))
                    .collect(),
            };
            let (mut tree, mut model) = (BTree::new(), std::collections::BTreeMap::new());
            for (i, &k) in keys.iter().enumerate() {
                // An earlier key again, through the entry path: found,
                // not replaced.
                let again = keys[i / 3];
                prop_assert_eq!(tree.insert(k, i), model.insert(k, i));
                prop_assert_eq!(
                    *tree.get_or_insert_with(again, || usize::MAX),
                    *model.entry(again).or_insert(usize::MAX)
                );
            }
            prop_assert_eq!(tree.len(), model.len());
            let max = *model.keys().next_back().expect("n >= 1");
            let near_max = [max.saturating_sub(1), max, max + 1, 0, u32::MAX];
            for probe in probes.iter().map(|&p| u32::from(p)).chain(near_max) {
                prop_assert_eq!(tree.get(&probe), model.get(&probe));
                prop_assert_eq!(tree.get_by(|k| k.cmp(&probe)), model.get(&probe));
                prop_assert_eq!(tree.get_mut(&probe).copied(), model.get(&probe).copied());
            }
            let mut got = Vec::new();
            tree.for_each(&mut |k, v| got.push((*k, *v)));
            prop_assert_eq!(got, model.into_iter().collect::<Vec<_>>());
        }
    }

    #[test]
    fn insert_get_and_order_match_btreemap() {
        let mut tree = BTree::new();
        let mut reference = std::collections::BTreeMap::new();
        // Deterministic pseudo-random insertion order.
        let mut x: u64 = 0x2545_F491_4F6C_DD1D;
        for _ in 0..2000 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let k = (x % 700) as i64;
            tree.insert(k, k * 10);
            reference.insert(k, k * 10);
        }
        assert_eq!(tree.len(), reference.len());
        for (k, v) in &reference {
            assert_eq!(tree.get(k), Some(v));
        }
        let mut got = Vec::new();
        tree.for_each(&mut |k, v| got.push((*k, *v)));
        let want: Vec<_> = reference.iter().map(|(k, v)| (*k, *v)).collect();
        assert_eq!(got, want);
    }

    #[test]
    fn insert_replaces_and_reports_previous() {
        let mut tree = BTree::new();
        assert_eq!(tree.insert("k", 1), None);
        assert_eq!(tree.insert("k", 2), Some(1));
        assert_eq!(tree.len(), 1);
        *tree.get_mut(&"k").unwrap() += 5;
        assert_eq!(tree.get(&"k"), Some(&7));
    }

    #[test]
    fn for_each_from_scans_suffix_in_order() {
        let mut tree = BTree::new();
        for k in (0..500).rev() {
            tree.insert(k, ());
        }
        let mut seen = Vec::new();
        tree.for_each_from(&123, &mut |k, _| {
            if *k >= 130 {
                return false;
            }
            seen.push(*k);
            true
        });
        assert_eq!(seen, (123..130).collect::<Vec<_>>());
        // Start key absent from the tree.
        let mut tree = BTree::new();
        for k in (0..500).filter(|k| k % 2 == 0) {
            tree.insert(k, ());
        }
        let mut seen = Vec::new();
        tree.for_each_from(&101, &mut |k, _| {
            seen.push(*k);
            seen.len() < 3
        });
        assert_eq!(seen, vec![102, 104, 106]);
    }
}
