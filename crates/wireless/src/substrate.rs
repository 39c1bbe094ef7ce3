//! The shared universal-tree substrate: network + cost-sorted CSR
//! children, built once and served to any number of multicast groups.
//!
//! Before this layer existed, every [`crate::universal::UniversalTree`]
//! owned its `WirelessNetwork` by value and rebuilt (and re-sorted) a
//! nested `Vec<Vec<usize>>` of children on every construction, so a
//! workload of G concurrent groups over one station universe paid G
//! copies of an `O(n²)` cost matrix and G sorts — and a session borrowed
//! one tree for one group. A [`TreeSubstrate`] is the immutable,
//! cache-friendly form of everything those consumers share:
//!
//! * the [`WirelessNetwork`] (stations, symmetric costs, source);
//! * the spanning [`RootedTree`] `T(S\{s})`;
//! * its children in flat **CSR** form, each station's slice sorted by
//!   ascending edge cost — the order used by the Shapley split, the
//!   efficient-set DP and the incremental engines;
//! * a dense parent array, the cached tree-edge costs `c(parent(v), v)`
//!   and a cached BFS order — the hot-path walks every engine repeats.
//!
//! **Memory diet (the million-station refactor):** all id arrays are
//! struct-of-arrays over the 4-byte [`NodeId`] (CSR offsets and
//! positions are plain `u32`), exactly one flat allocation per array —
//! ≈ 32 bytes/station of id state plus one `f64` per station of cached
//! edge costs, so a 10⁶-station substrate fits comfortably in RAM
//! (where the former `usize` layout paid 8 bytes per id and the dense
//! cost matrix alone would need terabytes — pair this layout with
//! [`WirelessNetwork::euclidean_lazy`]). Construction asserts
//! `n < u32::MAX`; [`TreeSubstrate::memory_bytes`] reports the resident
//! footprint the `substrate_build` bench tracks.
//!
//! Substrates are shared behind [`Arc`](std::sync::Arc): a
//! [`UniversalTree`] is a thin
//! handle (`Arc<TreeSubstrate>`), so cloning one is `O(1)` and the
//! multi-group service layer ([`crate::service`]) runs thousands of warm
//! per-group sessions against a single allocation of the expensive
//! state. Experiment T12 pins the resulting per-group byte-identity,
//! and the served-workload benchmark (`perfbench/`) measures the
//! throughput.
//!
//! Construction goes through [`crate::builder::SubstrateBuilder`] — the
//! single place a network is moved or cloned and the single choice
//! point between the dense and spatial backends. The former
//! free-standing constructors are gone; the `forbidden-api` audit
//! analysis keeps them out under any import spelling.
//!
//! [`UniversalTree`]: crate::universal::UniversalTree

use crate::network::WirelessNetwork;
use wmcs_graph::RootedTree;

/// Sentinel for "no station" in dense `usize` parent/sibling arrays.
pub const NO_STATION: usize = usize::MAX;

/// Make room for `len` entries in a grow-only warm array, leaving at
/// most `len / 8` spare capacity (doubling growth would leave up to
/// `len`, and a shrink pass per reprice would reallocate on every
/// growth epoch).
pub(crate) fn reserve_bounded<T>(v: &mut Vec<T>, len: usize) {
    if v.capacity() < len {
        v.reserve_exact(len + len / 8 - v.len());
    }
}

/// Resize a grow-only warm array to `len` entries, new ones `fill`, with
/// [`reserve_bounded`]'s slack.
pub(crate) fn grow_to<T: Clone>(v: &mut Vec<T>, len: usize, fill: T) {
    reserve_bounded(v, len);
    v.resize(len, fill);
}

/// A 4-byte station id — the unit of the substrate's memory diet.
///
/// All substrate-resident arrays store `NodeId` (or raw `u32` offsets)
/// instead of `usize`, halving id memory on 64-bit targets. The value
/// [`NodeId::NONE`] (`u32::MAX`) is the in-band "no station" sentinel,
/// which is why construction asserts `n < u32::MAX`.
///
/// **This is the one sanctioned `usize → u32` narrowing point** for
/// station ids (the `wmcs-audit` lossy-cast rule bans `as` narrowing
/// everywhere): build ids with the checked [`TryFrom<usize>`] impl, or
/// [`NodeId::from_index`] where the substrate's `n < u32::MAX`
/// invariant already guarantees fit. Widening back is [`NodeId::index`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[repr(transparent)]
pub struct NodeId(u32);

impl NodeId {
    /// In-band "no station" sentinel (`u32::MAX`).
    pub const NONE: NodeId = NodeId(u32::MAX);

    /// Narrow a station index known to satisfy the substrate invariant
    /// `n < u32::MAX`. Panics (never truncates) if it does not.
    pub fn from_index(v: usize) -> NodeId {
        NodeId::try_from(v).expect("station id fits in u32 (substrates assert n < u32::MAX)")
    }

    /// Widen back to a `usize` station index. The sentinel widens to
    /// `u32::MAX as usize`, *not* [`NO_STATION`] — test
    /// [`NodeId::is_none`] first where the sentinel can occur.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Is this the [`NodeId::NONE`] sentinel?
    #[inline]
    pub fn is_none(self) -> bool {
        self == NodeId::NONE
    }
}

impl TryFrom<usize> for NodeId {
    type Error = std::num::TryFromIntError;

    /// The sanctioned checked narrowing from station index to id.
    fn try_from(v: usize) -> Result<Self, Self::Error> {
        u32::try_from(v).map(NodeId)
    }
}

impl std::fmt::Display for NodeId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.is_none() {
            write!(f, "∅")
        } else {
            write!(f, "{}", self.0)
        }
    }
}

/// The immutable shared substrate of a universal broadcast tree: the
/// network, the spanning tree, and the cost-sorted CSR children —
/// everything that is per-*universe* rather than per-*group*, in the
/// struct-of-arrays [`NodeId`] layout described in the module docs.
#[derive(Debug)]
pub struct TreeSubstrate {
    net: WirelessNetwork,
    tree: RootedTree,
    /// CSR row starts: children of `x` are
    /// `child_array[offsets[x]..offsets[x+1]]`. Length `n + 1`.
    offsets: Vec<u32>,
    /// All children, per parent, each slice in ascending edge-cost
    /// order (ties by ascending id). Length `n − 1` (spanning tree).
    child_array: Vec<NodeId>,
    /// Index of `v` within its parent's slice (0 for the source).
    pos_in_parent: Vec<u32>,
    /// Parent of `v` ([`NodeId::NONE`] for the source), dense.
    parent: Vec<NodeId>,
    /// Cached tree-edge cost `c(parent(v), v)` (0.0 for the source) —
    /// saves a cost-matrix probe / lazy distance evaluation on every
    /// hot-path edge walk.
    parent_cost: Vec<f64>,
    /// BFS order from the source, children visited in cost order.
    bfs: Vec<NodeId>,
}

impl TreeSubstrate {
    /// Build the substrate from an owned network and an explicit spanning
    /// tree rooted at the source. `O(n log n)` (one CSR build + one sort
    /// per child slice) — paid **once** per universe, not per group.
    /// Crate-internal: [`crate::SubstrateBuilder`] is the public entry point.
    pub(crate) fn build(net: WirelessNetwork, tree: RootedTree) -> Self {
        assert_eq!(
            tree.root(),
            net.source(),
            "tree must be rooted at the source"
        );
        assert_eq!(
            tree.node_count(),
            net.n_stations(),
            "universal trees span all stations"
        );
        let n = net.n_stations();
        assert!(
            n < u32::MAX as usize,
            "substrates cap the universe below u32::MAX stations (NodeId memory diet)"
        );
        // Counting-sort CSR, one flat allocation per array.
        let mut offsets = vec![0u32; n + 1];
        for v in 0..n {
            if let Some(p) = tree.parent(v) {
                offsets[p + 1] += 1;
            }
        }
        for v in 0..n {
            offsets[v + 1] += offsets[v];
        }
        let mut cursor: Vec<u32> = offsets[..n].to_vec();
        let mut child_array = vec![NodeId::NONE; n - 1];
        for v in 0..n {
            if let Some(p) = tree.parent(v) {
                child_array[cursor[p] as usize] = NodeId::from_index(v);
                cursor[p] += 1;
            }
        }
        drop(cursor);
        // Sort every slice by ascending edge cost, ties by id — the one
        // canonical child order every consumer shares.
        for x in 0..n {
            let (lo, hi) = (offsets[x] as usize, offsets[x + 1] as usize);
            child_array[lo..hi].sort_by(|&a, &b| {
                net.cost(x, a.index())
                    .total_cmp(&net.cost(x, b.index()))
                    .then(a.cmp(&b))
            });
        }
        let mut pos_in_parent = vec![0u32; n];
        for x in 0..n {
            let (lo, hi) = (offsets[x] as usize, offsets[x + 1] as usize);
            for (j, &c) in child_array[lo..hi].iter().enumerate() {
                pos_in_parent[c.index()] =
                    u32::try_from(j).expect("child positions are bounded by n < u32::MAX");
            }
        }
        let mut parent = vec![NodeId::NONE; n];
        let mut parent_cost = vec![0.0f64; n];
        for v in 0..n {
            if let Some(p) = tree.parent(v) {
                parent[v] = NodeId::from_index(p);
                parent_cost[v] = net.cost(p, v);
            }
        }
        // BFS from the source through the freshly sorted CSR.
        let mut bfs = Vec::with_capacity(n);
        bfs.push(NodeId::from_index(net.source()));
        let mut head = 0usize;
        while head < bfs.len() {
            let v = bfs[head].index();
            head += 1;
            let (lo, hi) = (offsets[v] as usize, offsets[v + 1] as usize);
            bfs.extend_from_slice(&child_array[lo..hi]);
        }
        Self {
            net,
            tree,
            offsets,
            child_array,
            pos_in_parent,
            parent,
            parent_cost,
            bfs,
        }
    }

    /// The underlying network.
    pub fn network(&self) -> &WirelessNetwork {
        &self.net
    }

    /// The underlying spanning tree.
    pub fn tree(&self) -> &RootedTree {
        &self.tree
    }

    /// Children of station `x` in ascending edge-cost order.
    #[inline]
    pub fn sorted_children(&self, x: usize) -> &[NodeId] {
        &self.child_array[self.offsets[x] as usize..self.offsets[x + 1] as usize]
    }

    /// Parent of `v` as a `usize`, or [`NO_STATION`] for the source.
    #[inline]
    pub fn parent_of(&self, v: usize) -> usize {
        let p = self.parent[v];
        if p.is_none() {
            NO_STATION
        } else {
            p.index()
        }
    }

    /// Cached tree-edge cost `c(parent(v), v)`; 0.0 for the source.
    /// Bit-identical to `network().cost(parent_of(v), v)` (it is cached
    /// from exactly that call at build time).
    #[inline]
    pub fn parent_cost(&self, v: usize) -> f64 {
        self.parent_cost[v]
    }

    /// Index of `v` within its parent's cost-sorted child slice (0 for
    /// the source).
    #[inline]
    pub fn pos_in_parent(&self, v: usize) -> usize {
        self.pos_in_parent[v] as usize
    }

    /// Total number of tree edges (`n − 1`).
    #[inline]
    pub fn n_edges(&self) -> usize {
        self.child_array.len()
    }

    /// Cached BFS order from the source (children in cost order);
    /// reversing it visits children before parents.
    pub fn bfs_order(&self) -> &[NodeId] {
        &self.bfs
    }

    /// Resident heap bytes of everything this substrate keeps alive:
    /// the struct-of-arrays id/cost state, the spanning tree's parent
    /// array, and the network payload (points, and the dense cost
    /// matrix when one is materialised — the dominant term outside the
    /// lazy regime). The `substrate_build` bench reports this per node.
    pub fn memory_bytes(&self) -> usize {
        use std::mem::size_of;
        let mut bytes = self.offsets.capacity() * size_of::<u32>()
            + self.child_array.capacity() * size_of::<NodeId>()
            + self.pos_in_parent.capacity() * size_of::<u32>()
            + self.parent.capacity() * size_of::<NodeId>()
            + self.parent_cost.capacity() * size_of::<f64>()
            + self.bfs.capacity() * size_of::<NodeId>();
        bytes += self.tree.universe() * size_of::<Option<usize>>();
        if let Some(pts) = self.net.points() {
            let dim = pts.first().map_or(0, |p| p.dim());
            bytes += pts.len() * (size_of::<wmcs_geom::Point>() + dim * size_of::<f64>());
        }
        if let Some(m) = self.net.try_costs() {
            bytes += m.len() * m.len() * size_of::<f64>();
        }
        bytes
    }
}

/// A compact **local-id frame** over the path closure of a station
/// subset — the index space of every warm engine
/// ([`crate::incremental`]).
///
/// A multicast group touches only the union of its members' root paths
/// in the shared [`TreeSubstrate`] (the Steiner subtree `T(R_g)` plus
/// any stations that ever belonged to it), which is typically a few
/// hundred stations out of a 10⁵-station universe. A `Subframe` gives
/// exactly those stations dense **local** `u32` ids so that every
/// per-session engine array (`rb`, sibling links, the net-worth DP
/// state, …) can be `Vec` over local ids instead of universe-sized:
/// per-group warm memory becomes `O(|frame|)`, the prerequisite for the
/// G × n all-to-all regime (ROADMAP item 5).
///
/// * local id 0 is always the source (the frame's root);
/// * ids are **append-only**: [`Subframe::ensure`] splices the
///   out-of-frame suffix of a station's root path top-down, so new ids
///   are always deeper than existing ones (a parent's id is below its
///   children's) and engines grow their parallel arrays by comparing
///   `len()` before/after — the frame never shrinks (a group's closure
///   is grow-only; leaves just zero state). Every frame and engine array
///   grows with at most 1/8 spare capacity (`grow_to`), so warm bytes
///   stay near the exact closure footprint without a shrink pass;
/// * per local station the frame caches the parent link, the global
///   cost-sorted child *position* and the tree-edge cost bit-for-bit
///   from the substrate, and the **in-frame children in ascending global
///   cost order** — the restriction of the substrate's cost-sorted child
///   slice to the closure, which is what keeps every local traversal
///   order-identical to a walk of the whole tree (the byte-identity
///   argument in DESIGN.md §2f).
///
/// Building the closure of a member set costs `O(Σ new path)` expected:
/// the global→local index is a closure-sized open-addressing table of
/// local ids (a fixed multiplicative hash and no iteration, so it is
/// deterministic; no `HashMap`, per the audit's determinism rules). The
/// sentinel for "no local station" is [`Subframe::NONE`].
#[derive(Debug, Clone)]
pub struct Subframe {
    /// Local → global station id; index = local id, `global[0]` = source.
    global: Vec<NodeId>,
    /// Global → local index: a power-of-two table of local ids keyed by
    /// `global[local]`, linear probing, at most 3/4 full
    /// ([`Subframe::NONE`] marks an empty slot).
    index: Vec<u32>,
    /// Local parent id ([`Subframe::NONE`] for the source at local 0).
    parent: Vec<u32>,
    /// Cached tree-edge cost `c(parent(v), v)` per local id — copied
    /// bit-for-bit from [`TreeSubstrate::parent_cost`].
    parent_cost: Vec<f64>,
    /// The station's position within its parent's **global** cost-sorted
    /// child slice, per local id (0 for the source).
    pos: Vec<u32>,
    /// First in-frame child per local id ([`Subframe::NONE`] when none).
    /// Together with `next_kid` this is an intrusive singly-linked child
    /// list in ascending global cost order — the substrate child order
    /// restricted to the closure, at 8 bytes/station instead of a
    /// `Vec<Vec<u32>>`'s 24-byte header plus allocation per station.
    first_kid: Vec<u32>,
    /// Next in-frame sibling per local id in the parent's cost order.
    next_kid: Vec<u32>,
}

impl Subframe {
    /// In-band "no local station" sentinel (`u32::MAX`).
    pub const NONE: u32 = u32::MAX;
    /// The source's local id (the frame root).
    pub const ROOT: u32 = 0;

    /// An empty frame over `sub`: just the source at local id 0.
    pub fn new(sub: &TreeSubstrate) -> Self {
        let s = NodeId::from_index(sub.network().source());
        let mut index = vec![Self::NONE; 4];
        index[Self::home(s, 4)] = Self::ROOT;
        Self {
            global: vec![s],
            index,
            parent: vec![Self::NONE],
            parent_cost: vec![0.0],
            pos: vec![0],
            first_kid: vec![Self::NONE],
            next_kid: vec![Self::NONE],
        }
    }

    /// The home slot of `station` in an index of `slots` (a power of
    /// two): Fibonacci hashing, the top bits of a 64-bit product.
    fn home(station: NodeId, slots: usize) -> usize {
        let h = (station.index() as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        (h >> (64 - slots.trailing_zeros())) as usize
    }

    /// Record local `l` in the index, doubling the table first when it
    /// would pass 3/4 full.
    fn index_insert(&mut self, l: u32) {
        if 4 * self.global.len() > 3 * self.index.len() {
            self.index = vec![Self::NONE; 2 * self.index.len()];
            for k in 0..self.global.len() - 1 {
                self.index_place(u32::try_from(k).expect("frame ids fit in u32"));
            }
        }
        self.index_place(l);
    }

    /// Put local `l` in the first free slot from its home.
    fn index_place(&mut self, l: u32) {
        let mask = self.index.len() - 1;
        let mut i = Self::home(self.global[l as usize], self.index.len());
        while self.index[i] != Self::NONE {
            i = (i + 1) & mask;
        }
        self.index[i] = l;
    }

    /// Bring `station`'s whole root path into the frame and return the
    /// station's local id. Already-present stations return in `O(1)`
    /// expected; otherwise the out-of-frame path suffix is spliced in
    /// **top-down** (so appended ids are always below existing ones),
    /// each new station inserted into its parent's in-frame child list at
    /// its global cost-order position. `O(path)` expected.
    pub fn ensure(&mut self, sub: &TreeSubstrate, station: usize) -> u32 {
        if let Some(l) = self.local_of(station) {
            return l;
        }
        // Collect the out-of-frame suffix of the root path, deepest
        // first; the walk terminates because the source is always local 0.
        let mut suffix = vec![station];
        let anchor = loop {
            let p = sub.parent_of(*suffix.last().expect("suffix is non-empty"));
            debug_assert!(p != NO_STATION, "the source is always in the frame");
            if let Some(l) = self.local_of(p) {
                break l;
            }
            suffix.push(p);
        };
        let len = self.global.len() + suffix.len();
        reserve_bounded(&mut self.global, len);
        reserve_bounded(&mut self.parent, len);
        reserve_bounded(&mut self.parent_cost, len);
        reserve_bounded(&mut self.pos, len);
        reserve_bounded(&mut self.first_kid, len);
        reserve_bounded(&mut self.next_kid, len);
        let mut parent = anchor;
        for &w in suffix.iter().rev() {
            let l = u32::try_from(self.global.len())
                .expect("frame ids fit in u32 (the universe is capped below u32::MAX)");
            self.global.push(NodeId::from_index(w));
            self.index_insert(l);
            self.parent.push(parent);
            self.parent_cost.push(sub.parent_cost(w));
            let pos = u32::try_from(sub.pos_in_parent(w))
                .expect("child positions are bounded by n < u32::MAX");
            self.pos.push(pos);
            // Keep the parent's in-frame child list in global cost order:
            // positions within one parent are distinct, so the insertion
            // point is unique. Frame degrees are the substrate's
            // restricted to the closure, so the walk is `O(deg)`.
            let mut prev = Self::NONE;
            let mut cur = self.first_kid[parent as usize];
            while cur != Self::NONE && self.pos[cur as usize] < pos {
                prev = cur;
                cur = self.next_kid[cur as usize];
            }
            self.first_kid.push(Self::NONE);
            self.next_kid.push(cur);
            if prev == Self::NONE {
                self.first_kid[parent as usize] = l;
            } else {
                self.next_kid[prev as usize] = l;
            }
            parent = l;
        }
        parent
    }

    /// Number of local stations (closure size, including the source).
    pub fn len(&self) -> usize {
        self.global.len()
    }

    /// Is the frame just the source?
    pub fn is_empty(&self) -> bool {
        self.global.len() == 1
    }

    /// Local id of a global station, if it is in the closure.
    pub fn local_of(&self, station: usize) -> Option<u32> {
        let key = NodeId::from_index(station);
        let mask = self.index.len() - 1;
        let mut i = Self::home(key, self.index.len());
        loop {
            match self.index[i] {
                Self::NONE => return None,
                l if self.global[l as usize] == key => return Some(l),
                _ => i = (i + 1) & mask,
            }
        }
    }

    /// Global station index of a local id.
    #[inline]
    pub fn global_of(&self, local: u32) -> usize {
        self.global[local as usize].index()
    }

    /// Local parent id ([`Subframe::NONE`] for the source).
    #[inline]
    pub fn parent_local(&self, local: u32) -> u32 {
        self.parent[local as usize]
    }

    /// Cached tree-edge cost `c(parent(v), v)` — bit-identical to the
    /// substrate's (copied at splice time); 0.0 for the source.
    #[inline]
    pub fn parent_cost(&self, local: u32) -> f64 {
        self.parent_cost[local as usize]
    }

    /// The station's position in its parent's **global** cost-sorted
    /// child slice (0 for the source).
    #[inline]
    pub fn pos_in_parent(&self, local: u32) -> u32 {
        self.pos[local as usize]
    }

    /// In-frame children of a local station, ascending global cost order
    /// (a walk of the intrusive sibling list — `O(1)` per child).
    #[inline]
    pub fn children(&self, local: u32) -> impl Iterator<Item = u32> + '_ {
        let mut cur = self.first_kid[local as usize];
        std::iter::from_fn(move || {
            if cur == Self::NONE {
                return None;
            }
            let c = cur;
            cur = self.next_kid[cur as usize];
            Some(c)
        })
    }

    /// Resident heap bytes of the frame: its arrays and the index.
    pub fn memory_bytes(&self) -> usize {
        use std::mem::size_of;
        self.global.capacity() * size_of::<NodeId>()
            + (self.parent.capacity()
                + self.pos.capacity()
                + self.first_kid.capacity()
                + self.next_kid.capacity()
                + self.index.capacity())
                * size_of::<u32>()
            + self.parent_cost.capacity() * size_of::<f64>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::{SubstrateBuilder, TreeKind};
    use rand::{rngs::SmallRng, Rng, SeedableRng};
    use wmcs_geom::{Point, PowerModel};

    fn random_net(seed: u64, n: usize) -> WirelessNetwork {
        let mut rng = SmallRng::seed_from_u64(seed);
        let pts: Vec<Point> = (0..n)
            .map(|_| Point::xy(rng.gen_range(0.0..10.0), rng.gen_range(0.0..10.0)))
            .collect();
        WirelessNetwork::euclidean(pts, PowerModel::free_space(), 0)
    }

    #[test]
    fn children_are_cost_sorted_and_positions_invert() {
        for seed in 0..8 {
            let net = random_net(seed, 16);
            let sub = SubstrateBuilder::new(&net).tree(TreeKind::Spt).build();
            for x in 0..16 {
                let kids = sub.sorted_children(x);
                for w in kids.windows(2) {
                    assert!(
                        sub.network().cost(x, w[0].index()) <= sub.network().cost(x, w[1].index())
                    );
                }
                for (j, &c) in kids.iter().enumerate() {
                    assert_eq!(sub.pos_in_parent(c.index()), j);
                    assert_eq!(sub.parent_of(c.index()), x);
                    assert_eq!(
                        sub.parent_cost(c.index()).to_bits(),
                        sub.network().cost(x, c.index()).to_bits()
                    );
                }
            }
            assert_eq!(sub.parent_of(sub.network().source()), NO_STATION);
            assert_eq!(sub.parent_cost(sub.network().source()), 0.0);
            assert_eq!(sub.n_edges(), 15);
        }
    }

    #[test]
    fn bfs_order_spans_all_stations_children_after_parents() {
        let net = random_net(3, 20);
        let sub = SubstrateBuilder::new(&net).tree(TreeKind::Mst).build();
        let order = sub.bfs_order();
        assert_eq!(order.len(), 20);
        let pos: Vec<usize> = {
            let mut p = vec![0; 20];
            for (i, &v) in order.iter().enumerate() {
                p[v.index()] = i;
            }
            p
        };
        for v in 0..20 {
            if sub.parent_of(v) != NO_STATION {
                assert!(pos[sub.parent_of(v)] < pos[v]);
            }
        }
    }

    #[test]
    fn node_id_round_trips_and_flags_the_sentinel() {
        assert_eq!(NodeId::from_index(7).index(), 7);
        assert_eq!(NodeId::try_from(3usize).map(NodeId::index), Ok(3));
        assert!(NodeId::try_from(usize::MAX).is_err());
        assert!(NodeId::NONE.is_none());
        assert!(!NodeId::from_index(0).is_none());
        assert_eq!(format!("{}", NodeId::from_index(42)), "42");
        assert_eq!(format!("{}", NodeId::NONE), "∅");
    }

    #[test]
    fn memory_bytes_counts_the_soa_arrays() {
        let net = random_net(1, 32);
        let sub = SubstrateBuilder::new(&net).tree(TreeKind::Spt).build();
        let b = sub.memory_bytes();
        // At least the six SoA arrays + the dense matrix must be counted.
        assert!(b >= 32 * 32 * 8, "dense matrix missing from {b}");
        // CSR arrays are exactly one allocation each: capacity == len.
        assert!(b < 32 * 32 * 8 + 32 * 200, "overcounted: {b}");
    }

    #[test]
    fn subframe_splices_path_closures_in_cost_order() {
        for seed in 0..8 {
            let net = random_net(seed, 24);
            let sub = SubstrateBuilder::new(&net).tree(TreeKind::Spt).build();
            let mut frame = Subframe::new(&sub);
            assert!(frame.is_empty());
            assert_eq!(frame.global_of(Subframe::ROOT), net.source());
            let mut rng = SmallRng::seed_from_u64(seed ^ 0xf4a);
            let mut joined: Vec<usize> = Vec::new();
            for _ in 0..10 {
                let v = rng.gen_range(1..24);
                let l = frame.ensure(&sub, v);
                assert_eq!(frame.global_of(l), v);
                assert_eq!(frame.local_of(v), Some(l));
                // Idempotent: a second ensure neither grows nor re-ids.
                let len = frame.len();
                assert_eq!(frame.ensure(&sub, v), l);
                assert_eq!(frame.len(), len);
                joined.push(v);
            }
            // The frame is exactly the path closure of the joined set.
            let mut closure = [false; 24];
            for &v in &joined {
                let mut w = v;
                while w != NO_STATION {
                    closure[w] = true;
                    w = sub.parent_of(w);
                }
            }
            assert_eq!(frame.len(), closure.iter().filter(|&&b| b).count());
            // The index misses exactly the stations outside the closure.
            for (g, &inside) in closure.iter().enumerate() {
                assert_eq!(frame.local_of(g).is_some(), inside, "station {g}");
            }
            for l in 0..frame.len() {
                let l = u32::try_from(l).expect("test frame is small");
                let g = frame.global_of(l);
                assert!(closure[g]);
                // Parent links, edge costs and positions mirror the
                // substrate bit for bit.
                if l == Subframe::ROOT {
                    assert_eq!(frame.parent_local(l), Subframe::NONE);
                } else {
                    let p = frame.parent_local(l);
                    assert_eq!(frame.global_of(p), sub.parent_of(g));
                    assert_eq!(frame.parent_cost(l).to_bits(), sub.parent_cost(g).to_bits());
                    assert_eq!(frame.pos_in_parent(l) as usize, sub.pos_in_parent(g));
                }
                // In-frame children are the substrate slice restricted to
                // the closure, in the same (cost) order.
                let expect: Vec<usize> = sub
                    .sorted_children(g)
                    .iter()
                    .map(|c| c.index())
                    .filter(|&c| closure[c])
                    .collect();
                let got: Vec<usize> = frame.children(l).map(|c| frame.global_of(c)).collect();
                assert_eq!(got, expect, "seed {seed}, station {g}");
            }
            assert!(frame.memory_bytes() > 0);
        }
    }

    #[test]
    #[should_panic(expected = "span all stations")]
    fn partial_tree_rejected() {
        let net = random_net(0, 4);
        let tree = RootedTree::from_parents(0, vec![None, Some(0), None, None]);
        let _ = TreeSubstrate::build(net, tree);
    }
}
