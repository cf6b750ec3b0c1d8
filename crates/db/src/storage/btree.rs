//! An in-memory B-tree map used for the primary-key indexes and the
//! declared secondary indexes of the engine and of [`crate::Table`].
//!
//! Classic CLRS shape: minimum degree `B`, preemptive root/child
//! splits on the way down, `binary_search` within nodes. Point
//! lookups and ordered prefix scans are O(log n) in the number of
//! keys; iteration is in key order. Key *removal* is intentionally
//! not implemented — both users model deletion by emptying/clearing
//! the value (and rebuild the tree on compaction), which keeps the
//! structure append-only and trivially correct.

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
        match node.keys.binary_search(&key) {
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
        let mut node = &*self.root;
        loop {
            match node.keys.binary_search(key) {
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
            match node.keys.binary_search(key) {
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
            let (i, descend) = match node.keys.binary_search(start) {
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
