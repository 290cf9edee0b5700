//! Global overlay membership — the "oracle bootstrap".
//!
//! The FreePastry simulator used by the paper maintains every node's
//! routing state from global knowledge of the membership, rather than by
//! exchanging join messages; [`Ring`] plays the same role here. It answers
//! the *identical* next-hop question as a [`RouterState`] whose tables were
//! built from complete membership — this equivalence is property-tested —
//! but does so with binary searches over the sorted membership instead of
//! materializing `O(n)` state per node, which is what makes the paper's
//! 16 384-node bandwidth simulations tractable.
//!
//! Joins and leaves are incremental ([`Ring::add`] / [`Ring::remove`]),
//! standing in for Pastry's join and failure-repair protocols: after a
//! membership change, all subsequent routing reflects the new membership,
//! exactly as FreePastry's repair converges to.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::id::{Id, ID_BITS};
use crate::routing::RouterState;

/// Sorted global membership of the overlay, with Pastry-equivalent routing
/// decisions computed on demand.
#[derive(Clone, Debug)]
pub struct Ring {
    bits: u32,
    half: usize,
    /// Sorted, distinct member ids.
    ids: Vec<Id>,
}

/// Default leaf-set half-size (8 per side = 16 leaves, FreePastry default).
pub const DEFAULT_LEAF_HALF: usize = 8;

impl Ring {
    /// An empty ring with `bits` bits per routing digit.
    pub fn new(bits: u32) -> Ring {
        assert!(
            bits > 0 && ID_BITS.is_multiple_of(bits),
            "bits must divide 64"
        );
        Ring {
            bits,
            half: DEFAULT_LEAF_HALF,
            ids: Vec::new(),
        }
    }

    /// A ring populated with the given member ids (deduplicated).
    pub fn from_ids(ids: impl IntoIterator<Item = Id>, bits: u32) -> Ring {
        let mut r = Ring::new(bits);
        let mut v: Vec<Id> = ids.into_iter().collect();
        v.sort_unstable();
        v.dedup();
        r.ids = v;
        r
    }

    /// A ring of `n` nodes with ids drawn uniformly at random (collisions
    /// re-drawn), deterministic in `seed`.
    pub fn with_random_ids(n: usize, bits: u32, seed: u64) -> Ring {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut ids = std::collections::BTreeSet::new();
        while ids.len() < n {
            ids.insert(Id(rng.gen::<u64>()));
        }
        Ring::from_ids(ids, bits)
    }

    /// Overrides the leaf-set half-size (entries per side).
    pub fn with_leaf_half(mut self, half: usize) -> Ring {
        assert!(half > 0);
        self.half = half;
        self
    }

    /// Bits per routing digit.
    pub fn bits(&self) -> u32 {
        self.bits
    }

    /// Leaf-set half-size.
    pub fn leaf_half(&self) -> usize {
        self.half
    }

    /// Number of members.
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// True if the ring has no members.
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// The sorted member ids.
    pub fn ids(&self) -> &[Id] {
        &self.ids
    }

    /// Whether `id` is a member.
    pub fn contains(&self, id: Id) -> bool {
        self.ids.binary_search(&id).is_ok()
    }

    /// Adds a member (a node join). Returns false if already present.
    pub fn add(&mut self, id: Id) -> bool {
        match self.ids.binary_search(&id) {
            Ok(_) => false,
            Err(pos) => {
                self.ids.insert(pos, id);
                true
            }
        }
    }

    /// Removes a member (a node leave/failure). Returns false if absent.
    pub fn remove(&mut self, id: Id) -> bool {
        match self.ids.binary_search(&id) {
            Ok(pos) => {
                self.ids.remove(pos);
                true
            }
            Err(_) => false,
        }
    }

    /// The position of member `id` in [`Ring::ids`], if it is a member.
    pub fn position(&self, id: Id) -> Option<usize> {
        self.ids.binary_search(&id).ok()
    }

    /// The position `i` steps from position 0, wrapping around the ring.
    fn wrap(&self, i: isize) -> usize {
        i.rem_euclid(self.ids.len() as isize) as usize
    }

    /// The key's root: the member numerically closest to `key` (ties broken
    /// toward the smaller id, making ownership unique).
    ///
    /// # Panics
    ///
    /// Panics on an empty ring.
    pub fn owner(&self, key: Id) -> Id {
        self.ids[self.owner_at(key)]
    }

    /// [`Ring::owner`], as a position in [`Ring::ids`].
    ///
    /// # Panics
    ///
    /// Panics on an empty ring.
    pub fn owner_at(&self, key: Id) -> usize {
        assert!(!self.ids.is_empty(), "owner() on empty ring");
        let pos = match self.ids.binary_search(&key) {
            Ok(p) => return p,
            Err(p) => p as isize,
        };
        let succ = self.wrap(pos);
        let pred = self.wrap(pos - 1);
        if self.ids[pred].closer_to(key, self.ids[succ]) {
            pred
        } else {
            succ
        }
    }

    /// The position of the member of `[lo, lo + span)` closest to `anchor`
    /// (ties toward the smaller id) — the slot-representative rule shared
    /// with [`RoutingTable`]'s `consider`. `None` if the range has no
    /// members.
    fn rep_in_range(&self, lo: u64, span: u128, anchor: u64) -> Option<usize> {
        let hi = (lo as u128).saturating_add(span);
        let start = self.ids.partition_point(|id| id.0 < lo);
        let end = self.ids.partition_point(|id| (id.0 as u128) < hi);
        if start == end {
            return None;
        }
        let ins = self.ids[start..end].partition_point(|id| id.0 < anchor) + start;
        let mut best: Option<usize> = None;
        for i in [ins.wrapping_sub(1), ins] {
            if i < start || i >= end {
                continue;
            }
            best = match best {
                Some(b) if crate::routing::closer_anchor(self.ids[b], self.ids[i], anchor) => {
                    Some(b)
                }
                _ => Some(i),
            };
        }
        best
    }

    /// Positions of the leaf-set members of position `own` (within ±half,
    /// deduplicated).
    fn leaf_members(&self, own: usize) -> Vec<usize> {
        let n = self.ids.len();
        let each = self.half.min(n.saturating_sub(1));
        let mut v = Vec::with_capacity(2 * each);
        for d in 1..=each as isize {
            for cand in [self.wrap(own as isize - d), self.wrap(own as isize + d)] {
                if cand != own && !v.contains(&cand) {
                    v.push(cand);
                }
            }
        }
        v
    }

    /// Pastry's next-hop decision for a message at `from` heading to `key`,
    /// computed from global membership. `None` means `from` is the key's
    /// root. Produces the identical answer to a [`RouterState`] built from
    /// complete membership (property-tested).
    ///
    /// # Panics
    ///
    /// Panics if `from` is not a member.
    pub fn next_hop(&self, from: Id, key: Id) -> Option<Id> {
        let i = self.position(from).expect("id is a ring member");
        self.next_hop_at(i, key).map(|j| self.ids[j])
    }

    /// [`Ring::next_hop`] for the member at position `i` of [`Ring::ids`],
    /// answered as a position too.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn next_hop_at(&self, i: usize, key: Id) -> Option<usize> {
        let n = self.ids.len();
        let from = self.ids[i];
        if key == from {
            return None;
        }
        // Leaf-set rule. Fewer members than the combined leaf capacity
        // means the leaf set spans the whole ring (matches
        // `LeafSet::covers`'s not-full / overlapping-sides cases).
        let half = self.half as isize;
        let covered = if n - 1 < 2 * self.half {
            true
        } else {
            let lo = self.ids[self.wrap(i as isize - half)];
            let hi = self.ids[self.wrap(i as isize + half)];
            lo.clockwise_distance(key) <= lo.clockwise_distance(hi)
        };
        if covered {
            // `closer_to` is a total order, so visiting a leaf twice (or
            // `from` itself, in a small ring) cannot change the winner.
            let mut best = i;
            for d in 1..=half.min(n as isize - 1) {
                for m in [self.wrap(i as isize - d), self.wrap(i as isize + d)] {
                    if self.ids[m].closer_to(key, self.ids[best]) {
                        best = m;
                    }
                }
            }
            return (best != i).then_some(best);
        }
        // Prefix rule: the slot representative is the range member closest
        // to this node's slot anchor (matching `RoutingTable::consider`).
        let bits = self.bits;
        let row = from.prefix_len(key, bits);
        let (base, span) = prefix_range(key.0, row + 1, bits);
        let anchor = crate::routing::slot_anchor(from.0, row, key.digit(row, bits), bits);
        if let Some(rep) = self.rep_in_range(base, span, anchor) {
            return Some(rep);
        }
        // Rare case: scan the nodes this router would know (leaf set plus
        // all routing-table representatives) for one at least as close in
        // prefix and strictly closer numerically.
        let mut cands = self.leaf_members(i);
        let digits = ID_BITS / bits;
        for r in 0..digits {
            for c in 0..(1u64 << bits) as u32 {
                if c == from.digit(r, bits) {
                    continue; // that region shares > r digits with `from`
                }
                let (b, sp) = slot_range(from.0, r, c, bits);
                let a = crate::routing::slot_anchor(from.0, r, c, bits);
                if let Some(rep) = self.rep_in_range(b, sp, a) {
                    if rep != i && !cands.contains(&rep) {
                        cands.push(rep);
                    }
                }
            }
        }
        let closest = |eligible: &dyn Fn(Id) -> bool| {
            let mut best: Option<usize> = None;
            for &cand in &cands {
                let id = self.ids[cand];
                if eligible(id) && id.closer_to(key, from) {
                    best = match best {
                        Some(b) if self.ids[b].closer_to(key, id) => Some(b),
                        _ => Some(cand),
                    };
                }
            }
            best
        };
        closest(&|id| id.prefix_len(key, bits) >= row)
            // Last resort (as in FreePastry): any known node numerically
            // strictly closer to the key, prefix notwithstanding.
            .or_else(|| closest(&|_| true))
    }

    /// The full overlay route from `from` to the root of `key`.
    ///
    /// # Panics
    ///
    /// Panics if the route exceeds 256 hops, which would indicate a routing
    /// loop (cannot happen: each hop strictly increases the shared prefix or
    /// strictly decreases numeric distance).
    pub fn route_path(&self, from: Id, key: Id) -> Vec<Id> {
        let mut path = vec![from];
        let mut cur = from;
        while let Some(next) = self.next_hop(cur, key) {
            path.push(next);
            cur = next;
            assert!(path.len() <= 256, "routing loop detected");
        }
        path
    }

    /// Materializes the explicit Pastry routing state for `own` from the
    /// full membership — used by tests to validate [`Ring::next_hop`] and by
    /// small-scale deployments.
    pub fn router_state(&self, own: Id) -> RouterState {
        let mut rs = RouterState::new(own, self.bits, self.half);
        for &id in &self.ids {
            rs.consider(id);
        }
        rs
    }
}

/// The id range `[base, base + span)` of all ids sharing the top
/// `digits_kept` digits with `of` (`digits_kept >= 1`).
fn prefix_range(of: u64, digits_kept: u32, bits: u32) -> (u64, u128) {
    debug_assert!(digits_kept >= 1 && digits_kept * bits <= ID_BITS);
    let shift = ID_BITS - bits * digits_kept;
    let span = 1u128 << shift;
    let low_mask = (span - 1) as u64;
    (of & !low_mask, span)
}

/// The id range of routing-table slot (row `r`, column `c`) for node `own`:
/// ids sharing exactly `r` digits with `own` whose digit `r` is `c`.
fn slot_range(own: u64, r: u32, c: u32, bits: u32) -> (u64, u128) {
    let shift = ID_BITS - bits * (r + 1);
    let span = 1u128 << shift;
    let keep = if r == 0 {
        0
    } else {
        let keep_mask = !(((1u128 << (ID_BITS - bits * r)) - 1) as u64);
        own & keep_mask
    };
    (keep | ((c as u64) << shift), span)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn prefix_range_masks_low_bits() {
        let (base, span) = prefix_range(0xABCD_0000_0000_1234, 2, 4);
        assert_eq!(base, 0xAB00_0000_0000_0000);
        assert_eq!(span, 1u128 << 56);
        let (base, span) = prefix_range(0xFFFF_FFFF_FFFF_FFFF, 16, 4);
        assert_eq!(base, 0xFFFF_FFFF_FFFF_FFFF);
        assert_eq!(span, 1);
    }

    #[test]
    fn slot_range_combines_prefix_and_column() {
        // own = 0xAB.., row 1 col 0xC: ids 0xAC00.. to 0xACFF..
        let (base, span) = slot_range(0xAB00_0000_0000_0000, 1, 0xC, 4);
        assert_eq!(base, 0xAC00_0000_0000_0000);
        assert_eq!(span, 1u128 << 56);
        // row 0: keep nothing.
        let (base, _) = slot_range(0xAB00_0000_0000_0000, 0, 3, 4);
        assert_eq!(base, 0x3000_0000_0000_0000);
    }

    #[test]
    fn owner_is_numerically_closest() {
        let ring = Ring::from_ids([Id(10), Id(100), Id(1000)], 4);
        assert_eq!(ring.owner(Id(10)), Id(10));
        assert_eq!(ring.owner(Id(54)), Id(10)); // 44 vs 46
        assert_eq!(ring.owner(Id(56)), Id(100));
        assert_eq!(ring.owner(Id(u64::MAX)), Id(10)); // wraps
    }

    #[test]
    fn owner_tie_breaks_to_smaller_id() {
        let ring = Ring::from_ids([Id(10), Id(20)], 4);
        assert_eq!(ring.owner(Id(15)), Id(10));
    }

    #[test]
    fn add_remove_membership() {
        let mut ring = Ring::new(4);
        assert!(ring.add(Id(5)));
        assert!(!ring.add(Id(5)));
        assert!(ring.contains(Id(5)));
        assert!(ring.remove(Id(5)));
        assert!(!ring.remove(Id(5)));
        assert!(ring.is_empty());
    }

    #[test]
    fn single_node_is_root_of_everything() {
        let ring = Ring::from_ids([Id(42)], 4);
        assert_eq!(ring.next_hop(Id(42), Id(0)), None);
        assert_eq!(ring.route_path(Id(42), Id(999)), vec![Id(42)]);
    }

    #[test]
    fn routes_terminate_at_owner() {
        let ring = Ring::with_random_ids(200, 4, 3);
        let keys = [Id(0), Id(u64::MAX / 3), Id::of_attribute("ServiceX")];
        for key in keys {
            let owner = ring.owner(key);
            for &from in ring.ids().iter().step_by(17) {
                let path = ring.route_path(from, key);
                assert_eq!(*path.last().unwrap(), owner, "from {from} key {key}");
            }
        }
    }

    #[test]
    fn route_length_is_logarithmic() {
        let ring = Ring::with_random_ids(1024, 4, 9);
        let key = Id::of_attribute("CPU-Util");
        let max_hops = ring
            .ids()
            .iter()
            .map(|&f| ring.route_path(f, key).len() - 1)
            .max()
            .unwrap();
        // log_16(1024) ≈ 2.5; leaf hops and rare cases add a few.
        assert!(max_hops <= 10, "max hops {max_hops}");
    }

    proptest! {
        #[test]
        fn oracle_matches_explicit_router_state(
            seed in 0u64..500,
            n in 2usize..60,
            key in any::<u64>(),
        ) {
            let ring = Ring::with_random_ids(n, 4, seed).with_leaf_half(4);
            let key = Id(key);
            for &from in ring.ids().iter().take(12) {
                let explicit = ring.router_state(from).next_hop(key);
                let oracle = ring.next_hop(from, key);
                prop_assert_eq!(explicit, oracle, "from={} key={}", from, key);
            }
        }

        #[test]
        fn every_route_reaches_owner(seed in 0u64..100, n in 1usize..150, key in any::<u64>()) {
            let ring = Ring::with_random_ids(n, 4, seed);
            let key = Id(key);
            let owner = ring.owner(key);
            for &from in ring.ids().iter().step_by(7) {
                let path = ring.route_path(from, key);
                prop_assert_eq!(*path.last().unwrap(), owner);
                // No repeated nodes: loop-freedom.
                let set: std::collections::HashSet<_> = path.iter().collect();
                prop_assert_eq!(set.len(), path.len());
            }
        }

        #[test]
        fn membership_change_keeps_routing_sound(seed in 0u64..50, n in 3usize..80) {
            let mut ring = Ring::with_random_ids(n, 4, seed);
            let key = Id::of_attribute("Apache");
            let victim = ring.ids()[n / 2];
            ring.remove(victim);
            let owner = ring.owner(key);
            for &from in ring.ids().iter().step_by(5) {
                prop_assert_eq!(*ring.route_path(from, key).last().unwrap(), owner);
            }
        }
    }
}
