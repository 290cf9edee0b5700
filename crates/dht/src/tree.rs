//! Implicit DHT aggregation trees (paper Section 3.2, Figure 3).
//!
//! For a key `k`, the union of every node's overlay route toward `k` forms
//! a tree spanning all nodes, rooted at `k`'s owner. Because each node's
//! parent is simply its Pastry next hop toward `k`, the tree requires no
//! maintenance messages — it is *implicit* in the DHT routing state, which
//! is why the paper charges no maintenance cost to global trees.
//!
//! [`TreeTopology`] materializes this tree for the simulator: parents are
//! computed per node via [`Ring::next_hop_at`] and inverted into child
//! lists. On a real deployment the child lists are discovered lazily (a
//! node learns a child exists when the child's first status update or
//! reply arrives); materializing them up front is equivalent because the
//! parent relation itself is fully determined by the routing state.
//!
//! The tree is built over the ring's sorted *positions* (member `i` is
//! `ring.ids()[i]`), so every step is an array index: no id is hashed, and
//! ascending positions are ring-id order.

use std::cmp::Ordering;

use crate::id::Id;
use crate::ring::Ring;

/// Marks "no position" in the parent and depth arrays.
const NONE: u32 = u32::MAX;

/// The aggregation tree induced by DHT routing toward one key.
#[derive(Clone, Debug)]
pub struct TreeTopology {
    key: Id,
    /// The members, sorted: position `i` below is `ids[i]`.
    ids: Vec<Id>,
    root: usize,
    /// Each position's parent position (`NONE` for the root).
    parent: Vec<u32>,
    /// `children[first[i]..first[i + 1]]` are position `i`'s children,
    /// ascending (ring-id order).
    first: Vec<u32>,
    children: Vec<u32>,
    depth: Vec<u32>,
    /// Subtree sizes, the node itself included.
    size: Vec<u64>,
}

impl TreeTopology {
    /// Builds the tree for `key` over the given membership.
    ///
    /// # Panics
    ///
    /// Panics if the ring is empty, or (debug builds) if the induced parent
    /// relation is not a tree — which would indicate a routing bug.
    pub fn build(ring: &Ring, key: Id) -> TreeTopology {
        assert!(!ring.is_empty(), "cannot build a tree over an empty ring");
        let ids = ring.ids().to_vec();
        let n = ids.len();
        let root = ring.owner_at(key);
        let mut parent = vec![NONE; n];
        for (i, p) in parent.iter_mut().enumerate() {
            match ring.next_hop_at(i, key) {
                Some(j) => *p = j as u32,
                None => debug_assert_eq!(
                    i, root,
                    "non-root node {} has no next hop for {key}",
                    ids[i]
                ),
            }
        }
        // Compute depths. Routing is loop-free in all but pathological
        // id configurations (the prefix rule and the numeric fallback can
        // disagree about direction); if a cycle is found, re-parent the
        // chain member numerically closest to the key directly to the root
        // — the moral equivalent of Pastry's final leaf-set delivery hop.
        let mut depth = vec![NONE; n];
        depth[root] = 0;
        let mut chain: Vec<usize> = Vec::new();
        for start in 0..n {
            'walk: loop {
                chain.clear();
                let mut cur = start;
                while depth[cur] == NONE {
                    if chain.contains(&cur) {
                        // Cycle: repair and restart this walk.
                        let fix = *chain
                            .iter()
                            .min_by(|&&a, &&b| {
                                if ids[a].closer_to(key, ids[b]) {
                                    Ordering::Less
                                } else {
                                    Ordering::Greater
                                }
                            })
                            .expect("non-empty cycle");
                        parent[fix] = root as u32;
                        continue 'walk;
                    }
                    chain.push(cur);
                    let p = parent[cur];
                    assert!(p != NONE, "orphan node {} in tree for {key}", ids[cur]);
                    cur = p as usize;
                }
                let mut d = depth[cur];
                for &link in chain.iter().rev() {
                    d += 1;
                    depth[link] = d;
                }
                break;
            }
        }
        // Invert to child lists only after any cycle repairs: bucket by
        // parent, filling each bucket in ascending position order.
        let mut first = vec![0u32; n + 1];
        for &p in &parent {
            if p != NONE {
                first[p as usize + 1] += 1;
            }
        }
        for i in 0..n {
            first[i + 1] += first[i];
        }
        let mut next = first[..n].to_vec();
        let mut children = vec![0u32; first[n] as usize];
        for (i, &p) in parent.iter().enumerate() {
            if p != NONE {
                children[next[p as usize] as usize] = i as u32;
                next[p as usize] += 1;
            }
        }
        // Subtree sizes, accumulated leaves-first: breadth-first order
        // from the root, read backwards.
        let mut order = Vec::with_capacity(n);
        order.push(root);
        let mut k = 0;
        while k < order.len() {
            let i = order[k];
            order.extend(
                children[first[i] as usize..first[i + 1] as usize]
                    .iter()
                    .map(|&c| c as usize),
            );
            k += 1;
        }
        let mut size = vec![1u64; n];
        for &i in order.iter().rev() {
            if parent[i] != NONE {
                size[parent[i] as usize] += size[i];
            }
        }
        TreeTopology {
            key,
            ids,
            root,
            parent,
            first,
            children,
            depth,
            size,
        }
    }

    /// The key this tree aggregates toward.
    pub fn key(&self) -> Id {
        self.key
    }

    /// The tree root (the key's owner).
    pub fn root(&self) -> Id {
        self.ids[self.root]
    }

    /// Number of nodes in the tree (== ring size at build time).
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// True if the tree is empty (never: `build` panics on an empty ring).
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    fn position(&self, node: Id) -> Option<usize> {
        self.ids.binary_search(&node).ok()
    }

    /// The parent of `node`, or `None` for the root and for non-members.
    pub fn parent(&self, node: Id) -> Option<Id> {
        let p = self.parent_at(self.position(node)?)?;
        Some(self.ids[p])
    }

    /// The children of `node` in ring-id order (none for leaves).
    pub fn children(&self, node: Id) -> impl ExactSizeIterator<Item = Id> + '_ {
        let kids = self.position(node).map_or(&[][..], |i| self.children_at(i));
        kids.iter().map(|&c| self.ids[c as usize])
    }

    /// Depth of `node` (root = 0), or `None` if not a member.
    pub fn depth_of(&self, node: Id) -> Option<u32> {
        Some(self.depth[self.position(node)?])
    }

    /// The height of the tree.
    pub fn max_depth(&self) -> u32 {
        self.depth.iter().copied().max().unwrap_or(0)
    }

    /// Iterates over all member ids, in ring-id order.
    pub fn nodes(&self) -> impl Iterator<Item = Id> + '_ {
        self.ids.iter().copied()
    }

    /// The parent of the member at ring position `i` (`None` for the
    /// root), as a position.
    pub fn parent_at(&self, i: usize) -> Option<usize> {
        let p = self.parent[i];
        (p != NONE).then_some(p as usize)
    }

    /// The children of the member at ring position `i`, as ascending
    /// positions (ring-id order).
    pub fn children_at(&self, i: usize) -> &[u32] {
        &self.children[self.first[i] as usize..self.first[i + 1] as usize]
    }

    /// The size of the subtree under ring position `i`, itself included.
    pub fn size_at(&self, i: usize) -> u64 {
        self.size[i]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::HashMap;

    /// The same tree built by ids, as the reference: one `Ring::next_hop`
    /// per node into hash maps, the same cycle repair, children sorted by
    /// id.
    fn reference(ring: &Ring, key: Id) -> (HashMap<Id, Id>, HashMap<Id, Vec<Id>>) {
        let root = ring.owner(key);
        let mut parent: HashMap<Id, Id> = HashMap::new();
        for &n in ring.ids() {
            if let Some(p) = ring.next_hop(n, key) {
                parent.insert(n, p);
            }
        }
        let mut depth = HashMap::new();
        depth.insert(root, 0u32);
        for &n in ring.ids() {
            loop {
                let mut chain = Vec::new();
                let mut cur = n;
                let mut cycled = false;
                while !depth.contains_key(&cur) {
                    if chain.contains(&cur) {
                        let fix = *chain
                            .iter()
                            .min_by(|a: &&Id, b: &&Id| {
                                if a.closer_to(key, **b) {
                                    Ordering::Less
                                } else {
                                    Ordering::Greater
                                }
                            })
                            .unwrap();
                        parent.insert(fix, root);
                        cycled = true;
                        break;
                    }
                    chain.push(cur);
                    cur = parent[&cur];
                }
                if cycled {
                    continue;
                }
                let mut d = depth[&cur];
                for &link in chain.iter().rev() {
                    d += 1;
                    depth.insert(link, d);
                }
                break;
            }
        }
        let mut children: HashMap<Id, Vec<Id>> = HashMap::new();
        for (&c, &p) in &parent {
            children.entry(p).or_default().push(c);
        }
        for c in children.values_mut() {
            c.sort_unstable();
        }
        (parent, children)
    }

    fn subtree_size(tree: &TreeTopology, id: Id) -> u64 {
        1 + tree
            .children(id)
            .map(|c| subtree_size(tree, c))
            .sum::<u64>()
    }

    #[test]
    fn tree_spans_all_nodes_and_roots_at_owner() {
        let ring = Ring::with_random_ids(128, 4, 21);
        let key = Id::of_attribute("ServiceX");
        let tree = TreeTopology::build(&ring, key);
        assert_eq!(tree.len(), 128);
        assert_eq!(tree.root(), ring.owner(key));
        assert_eq!(tree.parent(tree.root()), None);
        assert_eq!(tree.depth_of(tree.root()), Some(0));
    }

    #[test]
    fn children_invert_parents() {
        let ring = Ring::with_random_ids(64, 4, 5);
        let tree = TreeTopology::build(&ring, Id(12345));
        let mut via_children = 0;
        for n in ring.ids() {
            for c in tree.children(*n) {
                assert_eq!(tree.parent(c), Some(*n));
                via_children += 1;
            }
        }
        assert_eq!(via_children, 63); // every non-root appears exactly once
    }

    #[test]
    fn depth_increases_along_parent_edges() {
        let ring = Ring::with_random_ids(100, 4, 77);
        let tree = TreeTopology::build(&ring, Id(999));
        for &n in ring.ids() {
            if let Some(p) = tree.parent(n) {
                assert_eq!(tree.depth_of(n).unwrap(), tree.depth_of(p).unwrap() + 1);
            }
        }
        assert!(tree.max_depth() >= 1);
    }

    #[test]
    fn one_bit_prefix_tree_matches_paper_figure3_shape() {
        // Paper Figure 3: 8 nodes with 3-bit ids 000..111, one-bit digits,
        // key prefix 000. With ids spread across the top octants of the
        // space, the root is the 000-prefixed node.
        let ids: Vec<Id> = (0u64..8).map(|i| Id(i << 61)).collect();
        let ring = Ring::from_ids(ids.clone(), 1).with_leaf_half(1);
        let key = Id(0); // prefix 000...
        let tree = TreeTopology::build(&ring, key);
        assert_eq!(tree.root(), Id(0));
        // All 8 nodes present, and the tree respects prefix routing: a
        // node's parent always shares at least as long a prefix with the
        // key (strictly longer unless reached via a leaf-set hop).
        assert_eq!(tree.len(), 8);
        for id in ids {
            if let Some(p) = tree.parent(id) {
                assert!(
                    p.prefix_len(key, 1) >= id.prefix_len(key, 1)
                        || p.ring_distance(key) < id.ring_distance(key)
                );
            }
        }
    }

    proptest! {
        #[test]
        fn tree_property_holds_for_random_rings(seed in 0u64..200, n in 1usize..120, key in any::<u64>()) {
            let ring = Ring::with_random_ids(n, 4, seed);
            let tree = TreeTopology::build(&ring, Id(key));
            prop_assert_eq!(tree.len(), n);
            // Exactly one root, everyone else has a parent, no cycles
            // (build() would have panicked), depths bounded.
            let roots = ring.ids().iter().filter(|&&id| tree.parent(id).is_none()).count();
            prop_assert_eq!(roots, 1);
            prop_assert!(tree.max_depth() as usize <= n);
        }

        #[test]
        fn rebuild_after_failure_excludes_failed_node(seed in 0u64..50, n in 3usize..80) {
            let mut ring = Ring::with_random_ids(n, 4, seed);
            let key = Id::of_attribute("Mem-Free");
            let victim = ring.ids()[1];
            ring.remove(victim);
            let tree = TreeTopology::build(&ring, key);
            prop_assert_eq!(tree.len(), n - 1);
            prop_assert!(tree.depth_of(victim).is_none());
            for &id in ring.ids() {
                prop_assert!(tree.parent(id) != Some(victim));
            }
        }

        #[test]
        fn positional_build_matches_the_id_keyed_reference(
            seed in 0u64..300,
            n in 1usize..160,
            key in any::<u64>(),
            bits in (0usize..4).prop_map(|i| [1u32, 2, 4, 8][i]),
            half in 1usize..9,
        ) {
            let ring = Ring::with_random_ids(n, bits, seed).with_leaf_half(half);
            let key = Id(key);
            let tree = TreeTopology::build(&ring, key);
            let (parent, children) = reference(&ring, key);
            for (i, &id) in ring.ids().iter().enumerate() {
                prop_assert_eq!(tree.parent(id), parent.get(&id).copied());
                let kids: Vec<Id> = tree.children(id).collect();
                prop_assert_eq!(kids, children.get(&id).cloned().unwrap_or_default());
                prop_assert_eq!(tree.size_at(i), subtree_size(&tree, id));
            }
        }
    }
}
