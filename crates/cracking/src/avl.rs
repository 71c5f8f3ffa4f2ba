//! Arena-allocated AVL tree used as the cracker index.
//!
//! The paper attaches an AVL tree to every cracker column / cracker map /
//! chunk to record how crack values partition the physical array. We need
//! a few operations beyond a stock ordered map, which is why this is a
//! bespoke implementation:
//!
//! * `floor` / `ceil` neighbour queries to locate the piece a value falls
//!   into;
//! * in-order piece walks (the index doubles as a *self-organizing
//!   histogram*, §3.3);
//! * **lazy deletion** (§4.1): when a chunk is dropped, its boundary nodes
//!   are only marked deleted so the partitioning knowledge can be revived
//!   if the chunk is recreated;
//! * the ripple walk ([`AvlTree::ripple_walk`]): ripple updates grow or
//!   shrink the underlying array by one tuple and move every boundary
//!   above the update by one slot, in one reverse in-order pass.
//!
//! Nodes live in a per-column [`Arena`] and link by `u32` slot index, so
//! each index is one contiguous allocation: lookups walk a single
//! cache-friendly buffer (no `Box` pointer chasing), and insertion is
//! iterative over an explicit path stack — no recursion in the hot path.

use crate::arena::{Arena, SlotId, NO_SLOT};
use std::cmp::Ordering;

/// Index of a node inside the arena.
type NodeId = SlotId;
const NIL: NodeId = NO_SLOT;

/// Deepest possible path through the tree: AVL height is below
/// `1.44 * log2(n)` and node ids are `u32`, so 64 frames always fit.
const MAX_HEIGHT: usize = 64;

/// An AVL tree mapping ordered keys `K` to a payload position, with lazy
/// deletion marks.
#[derive(Debug, Clone)]
pub struct AvlTree<K: Ord + Copy> {
    nodes: Arena<Node<K>>,
    root: NodeId,
    live: usize,
}

#[derive(Debug, Clone)]
struct Node<K> {
    key: K,
    /// Payload: position of this boundary in the cracked array.
    pos: usize,
    deleted: bool,
    left: NodeId,
    right: NodeId,
    height: i32,
}

impl<K: Ord + Copy> Default for AvlTree<K> {
    fn default() -> Self {
        Self::new()
    }
}

impl<K: Ord + Copy> AvlTree<K> {
    /// Empty tree.
    pub fn new() -> Self {
        AvlTree {
            nodes: Arena::new(),
            root: NIL,
            live: 0,
        }
    }

    /// Number of live (non-deleted) boundaries.
    pub fn len(&self) -> usize {
        self.live
    }

    /// `true` when no live boundary exists.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Total nodes including lazily deleted ones.
    pub fn total_nodes(&self) -> usize {
        self.nodes.slots().len()
    }

    fn height(&self, n: NodeId) -> i32 {
        if n == NIL {
            0
        } else {
            self.nodes.get(n).height
        }
    }

    fn update_height(&mut self, n: NodeId) {
        let node = self.nodes.get(n);
        let (l, r) = (node.left, node.right);
        let h = 1 + self.height(l).max(self.height(r));
        self.nodes.get_mut(n).height = h;
    }

    fn balance_factor(&self, n: NodeId) -> i32 {
        let node = self.nodes.get(n);
        self.height(node.left) - self.height(node.right)
    }

    fn rotate_right(&mut self, y: NodeId) -> NodeId {
        let x = self.nodes.get(y).left;
        let t2 = self.nodes.get(x).right;
        self.nodes.get_mut(x).right = y;
        self.nodes.get_mut(y).left = t2;
        self.update_height(y);
        self.update_height(x);
        x
    }

    fn rotate_left(&mut self, x: NodeId) -> NodeId {
        let y = self.nodes.get(x).right;
        let t2 = self.nodes.get(y).left;
        self.nodes.get_mut(y).left = x;
        self.nodes.get_mut(x).right = t2;
        self.update_height(x);
        self.update_height(y);
        y
    }

    fn rebalance(&mut self, n: NodeId) -> NodeId {
        self.update_height(n);
        let bf = self.balance_factor(n);
        if bf > 1 {
            if self.balance_factor(self.nodes.get(n).left) < 0 {
                let l = self.nodes.get(n).left;
                let new_l = self.rotate_left(l);
                self.nodes.get_mut(n).left = new_l;
            }
            return self.rotate_right(n);
        }
        if bf < -1 {
            if self.balance_factor(self.nodes.get(n).right) > 0 {
                let r = self.nodes.get(n).right;
                let new_r = self.rotate_right(r);
                self.nodes.get_mut(n).right = new_r;
            }
            return self.rotate_left(n);
        }
        n
    }

    /// Insert `key` with payload `pos`. If the key exists (even lazily
    /// deleted), it is revived/overwritten with the new position.
    ///
    /// Iterative: the descent records the root-to-leaf path in a
    /// fixed-size stack (AVL height never exceeds [`MAX_HEIGHT`]) and
    /// the rebalancing walk replays it bottom-up — no recursion, no
    /// per-level call frames.
    pub fn insert(&mut self, key: K, pos: usize) {
        let fresh = |key, pos| Node {
            key,
            pos,
            deleted: false,
            left: NIL,
            right: NIL,
            height: 1,
        };
        if self.root == NIL {
            self.root = self.nodes.alloc(fresh(key, pos));
            self.live += 1;
            return;
        }
        let mut path = [NIL; MAX_HEIGHT];
        let mut depth = 0usize;
        let mut n = self.root;
        loop {
            path[depth] = n;
            depth += 1;
            let node = self.nodes.get(n);
            match key.cmp(&node.key) {
                Ordering::Less => {
                    let l = node.left;
                    if l == NIL {
                        let new = self.nodes.alloc(fresh(key, pos));
                        self.live += 1;
                        self.nodes.get_mut(n).left = new;
                        break;
                    }
                    n = l;
                }
                Ordering::Greater => {
                    let r = node.right;
                    if r == NIL {
                        let new = self.nodes.alloc(fresh(key, pos));
                        self.live += 1;
                        self.nodes.get_mut(n).right = new;
                        break;
                    }
                    n = r;
                }
                Ordering::Equal => {
                    let node = self.nodes.get_mut(n);
                    if node.deleted {
                        node.deleted = false;
                        self.live += 1;
                    }
                    node.pos = pos;
                    return;
                }
            }
        }
        // Bottom-up rebalance along the recorded path, reattaching any
        // rotated subtree root to its parent (or the tree root).
        for i in (0..depth).rev() {
            let at = path[i];
            let new_at = self.rebalance(at);
            if new_at != at {
                if i == 0 {
                    self.root = new_at;
                } else {
                    let parent = self.nodes.get_mut(path[i - 1]);
                    if parent.left == at {
                        parent.left = new_at;
                    } else {
                        parent.right = new_at;
                    }
                }
            }
        }
    }

    /// Exact lookup of a live key; returns its position.
    pub fn get(&self, key: &K) -> Option<usize> {
        let mut n = self.root;
        while n != NIL {
            let node = self.nodes.get(n);
            match key.cmp(&node.key) {
                Ordering::Less => n = node.left,
                Ordering::Greater => n = node.right,
                Ordering::Equal => {
                    return if node.deleted { None } else { Some(node.pos) };
                }
            }
        }
        None
    }

    /// Exact lookup including lazily deleted nodes; returns
    /// `(pos, deleted)`.
    pub fn get_any(&self, key: &K) -> Option<(usize, bool)> {
        let mut n = self.root;
        while n != NIL {
            let node = self.nodes.get(n);
            match key.cmp(&node.key) {
                Ordering::Less => n = node.left,
                Ordering::Greater => n = node.right,
                Ordering::Equal => return Some((node.pos, node.deleted)),
            }
        }
        None
    }

    /// Greatest live key strictly less than `key`.
    pub fn floor_strict(&self, key: &K) -> Option<(K, usize)> {
        let mut best = None;
        let mut n = self.root;
        while n != NIL {
            let node = self.nodes.get(n);
            if node.key < *key {
                if !node.deleted {
                    best = Some((node.key, node.pos));
                    n = node.right;
                } else {
                    // Deleted node: its left subtree may still hold a live
                    // candidate, as may its right subtree (keys < `key`
                    // can live on both sides). Fall back to scanning via
                    // the right child first; correctness is kept because
                    // we only tighten `best`.
                    if let Some(b) = self.max_live_below(node.right, key) {
                        best = match best {
                            Some(cur) if cur.0 >= b.0 => Some(cur),
                            _ => Some(b),
                        };
                        break;
                    }
                    n = node.left;
                }
            } else {
                n = node.left;
            }
        }
        best
    }

    /// Smallest live key strictly greater than `key`.
    pub fn ceil_strict(&self, key: &K) -> Option<(K, usize)> {
        let mut best = None;
        let mut n = self.root;
        while n != NIL {
            let node = self.nodes.get(n);
            if node.key > *key {
                if !node.deleted {
                    best = Some((node.key, node.pos));
                    n = node.left;
                } else {
                    if let Some(b) = self.min_live_above(node.left, key) {
                        best = match best {
                            Some(cur) if cur.0 <= b.0 => Some(cur),
                            _ => Some(b),
                        };
                        break;
                    }
                    n = node.right;
                }
            } else {
                n = node.right;
            }
        }
        best
    }

    fn max_live_below(&self, n: NodeId, key: &K) -> Option<(K, usize)> {
        let mut best = None;
        self.walk_live(n, &mut |k, p| {
            if k < *key {
                best = match best {
                    Some((bk, _)) if bk >= k => best,
                    _ => Some((k, p)),
                };
            }
        });
        best
    }

    fn min_live_above(&self, n: NodeId, key: &K) -> Option<(K, usize)> {
        let mut best = None;
        self.walk_live(n, &mut |k, p| {
            if k > *key {
                best = match best {
                    Some((bk, _)) if bk <= k => best,
                    _ => Some((k, p)),
                };
            }
        });
        best
    }

    fn walk_live<F: FnMut(K, usize)>(&self, n: NodeId, f: &mut F) {
        if n == NIL {
            return;
        }
        let node = self.nodes.get(n);
        self.walk_live(node.left, f);
        if !node.deleted {
            f(node.key, node.pos);
        }
        self.walk_live(node.right, f);
    }

    /// Smallest live key, found by an in-order walk that stops at the
    /// first live node: one root-to-leaf descent unless lazily deleted
    /// nodes sit at the left edge.
    pub fn first_live(&self) -> Option<(K, usize)> {
        let mut path = [NIL; MAX_HEIGHT];
        let mut depth = 0usize;
        let mut n = self.root;
        loop {
            while n != NIL {
                path[depth] = n;
                depth += 1;
                n = self.nodes.get(n).left;
            }
            if depth == 0 {
                return None;
            }
            depth -= 1;
            let node = self.nodes.get(path[depth]);
            if !node.deleted {
                return Some((node.key, node.pos));
            }
            n = node.right;
        }
    }

    /// In-order traversal of live `(key, pos)` pairs.
    pub fn iter_live(&self) -> Vec<(K, usize)> {
        let mut out = Vec::with_capacity(self.live);
        self.walk_live(self.root, &mut |k, p| out.push((k, p)));
        out
    }

    /// Lazily delete a key: the node stays in the tree, marked deleted,
    /// and can be revived by a future [`insert`](Self::insert).
    pub fn mark_deleted(&mut self, key: &K) -> bool {
        let mut n = self.root;
        while n != NIL {
            let node = self.nodes.get_mut(n);
            match key.cmp(&node.key) {
                Ordering::Less => n = node.left,
                Ordering::Greater => n = node.right,
                Ordering::Equal => {
                    if !node.deleted {
                        node.deleted = true;
                        self.live -= 1;
                        return true;
                    }
                    return false;
                }
            }
        }
        false
    }

    /// Lazily delete every live key (used when a whole chunk or map is
    /// dropped but its partitioning knowledge should be reusable).
    pub fn mark_all_deleted(&mut self) {
        for node in self.nodes.slots_mut() {
            node.deleted = true;
        }
        self.live = 0;
    }

    /// Ripple walk: visit the live nodes `above` accepts, largest key
    /// first, and replace each position with what `shift` returns for
    /// it. `above` sees a live node's key and position and must be
    /// monotone over the live nodes in key order — false on a prefix,
    /// true on the rest (a key threshold, or a position threshold, since
    /// live positions ascend with their keys). The walk stops at the
    /// first live node `above` rejects: one descent to the largest key
    /// plus the nodes it passes. Lazily deleted nodes on the way are
    /// passed through: their positions are stale, so they are neither
    /// tested nor shifted.
    pub fn ripple_walk(
        &mut self,
        mut above: impl FnMut(&K, usize) -> bool,
        mut shift: impl FnMut(usize) -> usize,
    ) {
        let mut path = [NIL; MAX_HEIGHT];
        let mut depth = 0usize;
        let mut n = self.root;
        loop {
            while n != NIL {
                path[depth] = n;
                depth += 1;
                n = self.nodes.get(n).right;
            }
            if depth == 0 {
                return;
            }
            depth -= 1;
            let node = self.nodes.get_mut(path[depth]);
            if !node.deleted {
                if !above(&node.key, node.pos) {
                    // Every node left of here has a smaller key.
                    return;
                }
                node.pos = shift(node.pos);
            }
            n = node.left;
        }
    }

    /// Remove everything, including lazily deleted nodes.
    pub fn clear(&mut self) {
        self.nodes.clear();
        self.root = NIL;
        self.live = 0;
    }

    /// Verify AVL invariants (test / debug helper).
    #[doc(hidden)]
    pub fn check_invariants(&self) {
        fn rec<K: Ord + Copy>(t: &AvlTree<K>, n: NodeId, lo: Option<K>, hi: Option<K>) -> i32 {
            if n == NIL {
                return 0;
            }
            let node = t.nodes.get(n);
            if let Some(l) = lo {
                assert!(node.key > l, "BST order violated");
            }
            if let Some(h) = hi {
                assert!(node.key < h, "BST order violated");
            }
            let hl = rec(t, node.left, lo, Some(node.key));
            let hr = rec(t, node.right, Some(node.key), hi);
            assert!((hl - hr).abs() <= 1, "AVL balance violated");
            let h = 1 + hl.max(hr);
            assert_eq!(h, node.height, "stale height");
            h
        }
        rec(self, self.root, None, None);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_and_get() {
        let mut t = AvlTree::new();
        for (i, k) in [50, 20, 70, 10, 30, 60, 80].iter().enumerate() {
            t.insert(*k, i);
        }
        t.check_invariants();
        assert_eq!(t.len(), 7);
        assert_eq!(t.get(&30), Some(4));
        assert_eq!(t.get(&31), None);
    }

    #[test]
    fn sequential_insert_stays_balanced() {
        let mut t = AvlTree::new();
        for i in 0..1000 {
            t.insert(i, i as usize);
        }
        t.check_invariants();
        assert_eq!(t.len(), 1000);
        assert_eq!(t.get(&999), Some(999));
    }

    #[test]
    fn floor_and_ceil() {
        let mut t = AvlTree::new();
        for k in [10, 20, 30, 40] {
            t.insert(k, k as usize);
        }
        assert_eq!(t.floor_strict(&25), Some((20, 20)));
        assert_eq!(t.floor_strict(&20), Some((10, 10)));
        assert_eq!(t.floor_strict(&10), None);
        assert_eq!(t.ceil_strict(&25), Some((30, 30)));
        assert_eq!(t.ceil_strict(&30), Some((40, 40)));
        assert_eq!(t.ceil_strict(&40), None);
    }

    #[test]
    fn lazy_deletion_skips_in_queries() {
        let mut t = AvlTree::new();
        for k in [10, 20, 30] {
            t.insert(k, k as usize);
        }
        assert!(t.mark_deleted(&20));
        assert!(!t.mark_deleted(&20));
        assert_eq!(t.len(), 2);
        assert_eq!(t.get(&20), None);
        assert_eq!(t.get_any(&20), Some((20, true)));
        assert_eq!(t.floor_strict(&25), Some((10, 10)));
        assert_eq!(t.ceil_strict(&15), Some((30, 30)));
    }

    #[test]
    fn revive_deleted_key() {
        let mut t = AvlTree::new();
        t.insert(5, 100);
        t.mark_deleted(&5);
        t.insert(5, 200);
        assert_eq!(t.len(), 1);
        assert_eq!(t.get(&5), Some(200));
    }

    #[test]
    fn iter_live_in_order() {
        let mut t = AvlTree::new();
        for k in [30, 10, 20, 40] {
            t.insert(k, 0);
        }
        t.mark_deleted(&20);
        let keys: Vec<_> = t.iter_live().into_iter().map(|(k, _)| k).collect();
        assert_eq!(keys, vec![10, 30, 40]);
    }

    #[test]
    fn ripple_walk_shifts_the_live_suffix() {
        let mut t = AvlTree::new();
        for k in 0..20 {
            t.insert(k, 10 * k as usize);
        }
        t.mark_deleted(&15);
        t.mark_deleted(&3);
        let mut seen = Vec::new();
        t.ripple_walk(
            |&k, _| k >= 8,
            |pos| {
                seen.push(pos);
                pos + 1
            },
        );
        // Largest key first; the deleted node is passed, not visited.
        let want: Vec<usize> = (8..20).rev().filter(|&k| k != 15).map(|k| 10 * k).collect();
        assert_eq!(seen, want);
        assert_eq!(t.get(&8), Some(81));
        assert_eq!(t.get(&7), Some(70));
        assert_eq!(t.get_any(&15), Some((150, true)), "stale position kept");
        // A position threshold, shifting down.
        t.ripple_walk(|_, pos| pos > 100, |pos| pos - 1);
        assert_eq!(t.get(&10), Some(100));
        assert_eq!(t.get(&11), Some(110));
        assert_eq!(t.get(&19), Some(190));
        assert_eq!(t.get_any(&3), Some((30, true)));
        t.check_invariants();
    }

    #[test]
    fn mark_all_deleted_then_revive() {
        let mut t = AvlTree::new();
        for k in 0..10 {
            t.insert(k, k as usize);
        }
        t.mark_all_deleted();
        assert!(t.is_empty());
        assert_eq!(t.total_nodes(), 10);
        t.insert(3, 33);
        assert_eq!(t.len(), 1);
        assert_eq!(t.get(&3), Some(33));
    }

    #[test]
    fn floor_ceil_with_many_deletions() {
        let mut t = AvlTree::new();
        for k in 0..100 {
            t.insert(k, k as usize);
        }
        for k in (0..100).filter(|k| k % 2 == 0) {
            t.mark_deleted(&k);
        }
        assert_eq!(t.floor_strict(&50).map(|x| x.0), Some(49));
        assert_eq!(t.ceil_strict(&50).map(|x| x.0), Some(51));
        assert_eq!(t.floor_strict(&1).map(|x| x.0), None);
        assert_eq!(t.ceil_strict(&99).map(|x| x.0), None);
    }

    #[test]
    fn random_ops_match_btreemap() {
        use std::collections::BTreeMap;
        let mut avl = AvlTree::new();
        let mut reference = BTreeMap::new();
        let mut state = 12345u64;
        let mut rng = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) as i64
        };
        for _ in 0..2000 {
            let k = rng() % 500;
            let op = rng() % 3;
            match op {
                0 => {
                    let p = (rng() % 10_000) as usize;
                    avl.insert(k, p);
                    reference.insert(k, p);
                }
                1 => {
                    avl.mark_deleted(&k);
                    reference.remove(&k);
                }
                _ => {
                    assert_eq!(avl.get(&k), reference.get(&k).copied(), "get({k})");
                    let f = reference.range(..k).next_back().map(|(a, b)| (*a, *b));
                    assert_eq!(avl.floor_strict(&k), f, "floor({k})");
                    let c = reference
                        .range((std::ops::Bound::Excluded(k), std::ops::Bound::Unbounded))
                        .next()
                        .map(|(a, b)| (*a, *b));
                    assert_eq!(avl.ceil_strict(&k), c, "ceil({k})");
                }
            }
        }
        avl.check_invariants();
    }
}
