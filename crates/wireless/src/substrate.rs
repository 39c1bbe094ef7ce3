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
//! * the spanning tree `T(S\{s})` as children in flat **CSR** form, each
//!   station's slice sorted by ascending edge cost — the order used by
//!   the Shapley split, the efficient-set DP and the incremental engines;
//! * each station's position in its parent's slice, a dense parent
//!   array and the cached tree-edge costs `c(parent(v), v)`.
//!
//! The tree is stored once, in those arrays. The reference oracles that
//! want a `RootedTree` or a BFS order derive it on each call
//! ([`crate::universal::UniversalTree::multicast_subtree`],
//! [`TreeSubstrate::bfs_order`]); no serving path does.
//!
//! **Memory diet (the million-station refactor):** all id arrays are
//! struct-of-arrays over the 4-byte [`NodeId`] (CSR offsets and
//! positions are plain `u32`), exactly one flat allocation per array —
//! 16 bytes/station of id state plus one `f64` per station of cached
//! edge costs. A lazy 2-D network stores its stations as one flat
//! [`wmcs_geom::PointSet`], 16 bytes of coordinates per station, so the
//! substrate holds 40 bytes/station and a 10⁶-station substrate fits
//! comfortably in RAM (where the former `usize` layout paid 8 bytes per
//! id, a `Vec<Point>` ~54 resident bytes per station, and the dense cost
//! matrix alone would need terabytes — pair this layout with
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
//! single place a network is moved or cloned and the one place that
//! picks a network's growth path (grid or dense scan). The former
//! free-standing constructors are gone; the `forbidden-api` audit
//! analysis keeps them out under any import spelling.
//!
//! [`UniversalTree`]: crate::universal::UniversalTree

use crate::network::WirelessNetwork;

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

/// Merge two sequences, each ascending by `key`, into one ascending
/// sequence (`a` first on equal keys).
pub(crate) fn merge_by_key<T, K: Ord>(
    a: impl Iterator<Item = T>,
    b: impl Iterator<Item = T>,
    key: impl Fn(&T) -> K,
) -> impl Iterator<Item = T> {
    let (mut a, mut b) = (a.peekable(), b.peekable());
    std::iter::from_fn(move || match (a.peek(), b.peek()) {
        (Some(x), Some(y)) if key(y) < key(x) => b.next(),
        (Some(_), _) => a.next(),
        (None, _) => b.next(),
    })
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
/// network and the spanning tree as cost-sorted CSR children, parents
/// and edge costs — everything that is per-*universe* rather than
/// per-*group*, in the struct-of-arrays [`NodeId`] layout described in
/// the module docs.
#[derive(Debug)]
pub struct TreeSubstrate {
    net: WirelessNetwork,
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
    /// Does any tree edge cost exactly `0.0` (duplicate points)? When
    /// none does, no station has a zero-cost child to look for.
    zero_cost_edges: bool,
}

impl TreeSubstrate {
    /// Build the substrate from an owned network and the parent array of
    /// a spanning tree rooted at the source (`parent[v]` is `v`'s parent,
    /// `None` exactly at the source). `O(n log n)` (one CSR build + one
    /// sort per child slice) — paid **once** per universe, not per group.
    /// Crate-internal: [`crate::SubstrateBuilder`] is the public entry
    /// point, and it passes only acyclic arrays (grown trees or validated
    /// [`wmcs_graph::RootedTree`]s); this checks that the tree covers
    /// exactly the network's stations.
    pub(crate) fn build(net: WirelessNetwork, parent: Vec<Option<usize>>) -> Self {
        let (n, source) = (net.n_stations(), net.source());
        assert!(
            n < u32::MAX as usize,
            "substrates cap the universe below u32::MAX stations (NodeId memory diet)"
        );
        assert_eq!(
            parent.len(),
            n,
            "universal trees span all stations: a tree over {} vertices for {n} stations",
            parent.len()
        );
        assert!(
            parent[source].is_none(),
            "tree must be rooted at the source"
        );
        let edges = parent.iter().flatten().count();
        assert_eq!(
            edges,
            n - 1,
            "universal trees span all stations: {edges} of the {} non-source stations have a parent",
            n - 1
        );
        // Counting-sort CSR, one flat allocation per array.
        let mut offsets = vec![0u32; n + 1];
        for p in parent.iter().flatten() {
            offsets[p + 1] += 1;
        }
        for v in 0..n {
            offsets[v + 1] += offsets[v];
        }
        let mut cursor: Vec<u32> = offsets[..n].to_vec();
        let mut child_array = vec![NodeId::NONE; n - 1];
        for (v, p) in parent.iter().enumerate() {
            if let Some(p) = *p {
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
        let mut parent_id = vec![NodeId::NONE; n];
        let mut parent_cost = vec![0.0f64; n];
        let mut zero_cost_edges = false;
        for (v, p) in parent.iter().enumerate() {
            if let Some(p) = *p {
                parent_id[v] = NodeId::from_index(p);
                parent_cost[v] = net.cost(p, v);
                zero_cost_edges |= parent_cost[v] == 0.0;
            }
        }
        Self {
            net,
            offsets,
            child_array,
            pos_in_parent,
            parent: parent_id,
            parent_cost,
            zero_cost_edges,
        }
    }

    /// The underlying network.
    pub fn network(&self) -> &WirelessNetwork {
        &self.net
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

    /// The children of `x` whose edge costs exactly `0.0` (duplicate
    /// points), which lead its cost-sorted slice. When no tree edge costs
    /// `0.0` — a flag set at build time — this is empty without reading
    /// the slice.
    #[inline]
    pub fn zero_cost_children(&self, x: usize) -> impl Iterator<Item = NodeId> + '_ {
        let kids = if self.zero_cost_edges {
            self.sorted_children(x)
        } else {
            &[]
        };
        kids.iter()
            .copied()
            .take_while(|y| self.parent_cost(y.index()) == 0.0)
    }

    /// Total number of tree edges (`n − 1`).
    #[inline]
    pub fn n_edges(&self) -> usize {
        self.child_array.len()
    }

    /// BFS order from the source, children in cost order; reversing it
    /// visits children before parents. Walks the CSR on each call
    /// (`O(n)`) — for the reference oracles and tests, not the serving
    /// path.
    pub fn bfs_order(&self) -> Vec<NodeId> {
        let mut order = Vec::with_capacity(self.parent.len());
        order.push(NodeId::from_index(self.net.source()));
        let mut head = 0;
        while let Some(&v) = order.get(head) {
            head += 1;
            order.extend_from_slice(self.sorted_children(v.index()));
        }
        order
    }

    /// Resident heap bytes of everything this substrate keeps alive:
    /// the struct-of-arrays id/cost state and the network payload
    /// (points, and the dense cost matrix when one is materialised —
    /// the dominant term outside the lazy regime). The
    /// `substrate_build` bench reports this per node.
    pub fn memory_bytes(&self) -> usize {
        use std::mem::size_of;
        let mut bytes = self.offsets.capacity() * size_of::<u32>()
            + self.child_array.capacity() * size_of::<NodeId>()
            + self.pos_in_parent.capacity() * size_of::<u32>()
            + self.parent.capacity() * size_of::<NodeId>()
            + self.parent_cost.capacity() * size_of::<f64>();
        if let Some(pts) = self.net.points() {
            bytes += pts.memory_bytes();
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
/// per-session engine array (`rb`, `down`, the net-worth DP state, …)
/// can be `Vec` over local ids instead of universe-sized: per-group
/// warm memory becomes `O(|frame|)`, the prerequisite for serving many
/// groups over one large universe (the many-session regime of Liu &
/// Andrews, PAPERS.md).
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
/// * per local station the frame stores its station (4 B) and its local
///   parent (4 B); the global→local index adds 4 B per slot. Per-station
///   facts of the universe are read from the substrate by the local's
///   station where they are needed: both engines read a framed child's
///   tree-edge cost as `sub.parent_cost(frame.global_of(l))`, the bits
///   every walk of the whole tree reads. The MC engine, whose forward
///   pass, selection and kernel read a station's position in its
///   parent's global child slice per node, keeps its own copy of it
///   ([`crate::incremental::NetWorth`]);
/// * the **in-frame children in ascending global cost order** — the
///   restriction of the substrate's cost-sorted child slice to the
///   closure, which keeps every local traversal order-identical to a
///   walk of the whole tree (the byte-identity argument in DESIGN.md
///   §2f) — are mostly implicit. Each splice appends one **run**: a
///   root-path suffix whose local `l + 1` is the child of `l`, and stays
///   `l`'s only one until a later splice anchors at `l`. One **link
///   byte** per local says which: a leaf, a run local (its one child is
///   `l + 1`), or *linked*. Only a local that anchors a later run not
///   starting at `l + 1` — a branch point, or a leaf that a later run
///   hangs off — is linked: its byte is its rank among the linked
///   locals of its block of 128, and with one rank count per block it
///   indexes a compact CSR of the linked locals' cost-ordered children,
///   4 B per linked local and per listed child. A splice only records
///   its new link; the next pass merges the recorded links into the CSR
///   ([`Subframe::merge_links`]), as it merges the station order, so
///   [`Subframe::children`] is `O(1)` at every local, branch points
///   included;
/// * the frame also keeps its locals in **ascending global station id**
///   ([`Subframe::by_station`]), the order in which the engines sum
///   `C_T(R)`, and MC lists its in-frame receivers, with no sort.
///   Appended locals are merged in by the first ordered pass after
///   growth ([`Subframe::merge_by_station`]), not per `ensure`.
///
/// Building the closure of a member set costs `O(Σ new path)` expected:
/// the global→local index is a closure-sized open-addressing table of
/// local ids (a fixed multiplicative hash and no iteration, so it is
/// deterministic; no `HashMap`, which clippy's `disallowed_types` bans).
/// The sentinel for "no local station" is [`Subframe::NONE`].
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
    /// Per local: [`Subframe::LEAF`] (no child), [`Subframe::RUN`] (one
    /// child, `l + 1`), or — linked, as of the last
    /// [`Subframe::merge_links`] — [`Subframe::LINKED`] plus the number of
    /// linked locals before it in its block of [`Subframe::BLOCK`].
    link: Vec<u8>,
    /// Linked locals before each block of `link`.
    rank: Vec<u32>,
    /// The linked local of rank `r` has children
    /// `kids[kid_start[r]..kid_start[r + 1]]`, in ascending global cost
    /// order (empty while no local is linked).
    kid_start: Vec<u32>,
    /// Every linked local's children, one list after another.
    kids: Vec<u32>,
    /// `(anchor, head)` for each run spliced since the last
    /// [`Subframe::merge_links`] whose head is not `anchor + 1`.
    fresh: Vec<(u32, u32)>,
    /// Locals in ascending global station id. Covers locals
    /// `0..order.len()`; locals appended since are merged in by the next
    /// [`Subframe::merge_by_station`].
    order: Vec<u32>,
}

/// The in-frame children of one local, ascending global cost order
/// ([`Subframe::children`]).
#[derive(Debug, Clone, Copy)]
pub enum Children<'a> {
    /// An unlinked local's children: the first `len` of `next`.
    Run {
        /// `[l + 1]`, the next local of the run.
        next: [u32; 1],
        /// 1 when `l + 1` is `l`'s child, 0 at a leaf.
        len: usize,
    },
    /// A linked local's listed children.
    Listed(&'a [u32]),
}

impl Children<'_> {
    /// The children as one slice, whichever the kind.
    #[inline]
    pub fn as_slice(&self) -> &[u32] {
        match self {
            Children::Run { next, len } => &next[..*len],
            Children::Listed(kids) => kids,
        }
    }
}

impl Subframe {
    /// In-band "no local station" sentinel (`u32::MAX`).
    pub const NONE: u32 = u32::MAX;
    /// The source's local id (the frame root).
    pub const ROOT: u32 = 0;
    /// Locals per rank block: a linked local's `link` byte counts the
    /// linked locals before it in its block, which fits a byte.
    const BLOCK: usize = 128;
    /// Link byte of a local with no in-frame child.
    const LEAF: u8 = 0;
    /// Link byte of a local whose one child is the next local.
    const RUN: u8 = 1;
    /// Link byte of the first linked local of a block.
    const LINKED: u8 = 2;

    /// An empty frame over `sub`: just the source at local id 0.
    pub fn new(sub: &TreeSubstrate) -> Self {
        let s = NodeId::from_index(sub.network().source());
        let mut index = vec![Self::NONE; 4];
        index[Self::home(s, 4)] = Self::ROOT;
        Self {
            global: vec![s],
            index,
            parent: vec![Self::NONE],
            link: vec![Self::LEAF],
            rank: Vec::new(),
            kid_start: Vec::new(),
            kids: Vec::new(),
            fresh: Vec::new(),
            order: Vec::new(),
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
    /// expected; otherwise the out-of-frame path suffix is appended
    /// **top-down** as one run (so appended ids are always below existing
    /// ones). The run's head hangs off its in-frame anchor: implicitly
    /// when the anchor is the last local, and otherwise by a recorded
    /// link that the next [`Subframe::merge_links`] files at its global
    /// cost-order position. `O(path)` expected.
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
        let head = u32::try_from(self.global.len())
            .expect("frame ids fit in u32 (the universe is capped below u32::MAX)");
        if anchor + 1 == head {
            // The last local, a leaf until now, continues its run.
            self.link[anchor as usize] = Self::RUN;
        } else {
            self.fresh.push((anchor, head));
        }
        let len = self.global.len() + suffix.len();
        reserve_bounded(&mut self.global, len);
        reserve_bounded(&mut self.parent, len);
        reserve_bounded(&mut self.link, len);
        let mut parent = anchor;
        for &w in suffix.iter().rev() {
            let l = u32::try_from(self.global.len()).expect("frame ids fit in u32");
            self.global.push(NodeId::from_index(w));
            self.index_insert(l);
            self.parent.push(parent);
            self.link.push(Self::RUN);
            parent = l;
        }
        // The run ends in a leaf.
        self.link[parent as usize] = Self::LEAF;
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

    /// The listed children of each linked local, ascending by local (a
    /// list's local is its first child's parent).
    pub fn linked_lists(&self) -> impl Iterator<Item = &[u32]> + '_ {
        self.kid_start
            .windows(2)
            .map(|row| &self.kids[row[0] as usize..row[1] as usize])
    }

    /// In-frame children of a local station, ascending global cost order,
    /// in `O(1)`: one link byte says leaf, run (`[l + 1]`) or linked, and
    /// a linked local's byte and its block's rank count find its list.
    /// Reads the links as of the last [`Subframe::merge_links`], which a
    /// pass over children calls first.
    #[inline(always)]
    pub fn children(&self, local: u32) -> Children<'_> {
        debug_assert!(self.fresh.is_empty(), "merge_links before a pass");
        let l = local as usize;
        match self.link[l] {
            b @ (Self::LEAF | Self::RUN) => Children::Run {
                next: [local + 1],
                len: usize::from(b),
            },
            b => {
                let r = self.rank[l / Self::BLOCK] as usize + usize::from(b - Self::LINKED);
                let (lo, hi) = (self.kid_start[r] as usize, self.kid_start[r + 1] as usize);
                Children::Listed(&self.kids[lo..hi])
            }
        }
    }

    /// File the links recorded since the last call into the children
    /// lists: a newly linked local's list starts from its implicit child
    /// `l + 1`, if any, and every list stays in ascending global cost
    /// order (positions read from `sub`). Rebuilds the CSR exactly sized
    /// and renumbers the link bytes, `O(|frame| + listed children + k log
    /// k)` after `k` new links and `O(1)` when there are none — so a
    /// growing frame pays it once, on its first pass over children after
    /// growth, and no [`Subframe::ensure`] pays for it.
    pub fn merge_links(&mut self, sub: &TreeSubstrate) {
        if self.fresh.is_empty() {
            return;
        }
        let mut fresh = std::mem::take(&mut self.fresh);
        let pos = |l: u32| sub.pos_in_parent(self.global_of(l));
        fresh.sort_unstable_by_key(|&(anchor, head)| (anchor, pos(head)));
        let linked_before = self.kid_start.len().saturating_sub(1);
        (self.kid_start, self.kids) = self.relisted(&fresh, pos);
        self.renumber(&fresh, linked_before);
    }

    /// The CSR with the sorted links `fresh` filed in: the rows of the
    /// locals that gain no link are copied as they are, and each anchor's
    /// row — its old list, or its implicit child if it had one — is
    /// merged with its new heads by position. Exactly sized.
    fn relisted(&self, fresh: &[(u32, u32)], pos: impl Fn(u32) -> usize) -> (Vec<u32>, Vec<u32>) {
        let offset = |k: usize| u32::try_from(k).expect("frame ids fit in u32");
        let rows = self.kid_start.len().saturating_sub(1);
        let (mut new_rows, mut new_kids) = (0, fresh.len());
        for (i, &(x, _)) in fresh.iter().enumerate() {
            if (i == 0 || fresh[i - 1].0 != x) && self.link[x as usize] < Self::LINKED {
                new_rows += 1;
                new_kids += usize::from(self.link[x as usize] == Self::RUN);
            }
        }
        let mut kid_start = Vec::with_capacity(rows + new_rows + 1);
        let mut kids = Vec::with_capacity(self.kids.len() + new_kids);
        // Old rows `from..to`, shifted to the end of the new lists.
        let copy = |from: usize, to: usize, kid_start: &mut Vec<u32>, kids: &mut Vec<u32>| {
            if from == to {
                return;
            }
            let (lo, hi) = (self.kid_start[from] as usize, self.kid_start[to] as usize);
            let base = kids.len();
            kid_start.extend(
                self.kid_start[from..to]
                    .iter()
                    .map(|&k| offset(k as usize - lo + base)),
            );
            kids.extend_from_slice(&self.kids[lo..hi]);
        };
        let row_local = |r: usize| self.parent[self.kids[self.kid_start[r] as usize] as usize];
        let (mut r, mut f) = (0, 0);
        while let Some(&(x, _)) = fresh.get(f) {
            let end = f + fresh[f..].iter().take_while(|&&(a, _)| a == x).count();
            let from = r;
            while r < rows && row_local(r) < x {
                r += 1;
            }
            copy(from, r, &mut kid_start, &mut kids);
            let listed = if self.link[x as usize] >= Self::LINKED {
                r += 1;
                &self.kids[self.kid_start[r - 1] as usize..self.kid_start[r] as usize]
            } else {
                &[][..]
            };
            let run = (self.link[x as usize] == Self::RUN).then_some(x + 1);
            kid_start.push(offset(kids.len()));
            kids.extend(merge_by_key(
                run.into_iter().chain(listed.iter().copied()),
                fresh[f..end].iter().map(|&(_, head)| head),
                |&l| pos(l),
            ));
            f = end;
        }
        copy(r, rows, &mut kid_start, &mut kids);
        kid_start.push(offset(kids.len()));
        (kid_start, kids)
    }

    /// Mark the anchors of `fresh` linked and renumber the blocks that
    /// hold one; every later block's rank count grows by the locals
    /// linked before it (`linked_before` were linked already, all in
    /// blocks that `rank` covers). `O(blocks + k + BLOCK · blocks
    /// touched)`.
    fn renumber(&mut self, fresh: &[(u32, u32)], linked_before: usize) {
        let blocks = self.link.len().div_ceil(Self::BLOCK);
        let linked_before = u32::try_from(linked_before).expect("frame ids fit in u32");
        reserve_bounded(&mut self.rank, blocks);
        self.rank.resize(blocks, linked_before);
        let (mut added, mut f) = (0, 0);
        for b in fresh[0].0 as usize / Self::BLOCK..blocks {
            self.rank[b] += added;
            let block = b * Self::BLOCK..((b + 1) * Self::BLOCK).min(self.link.len());
            let mut touched = false;
            while let Some(&(a, _)) = fresh
                .get(f)
                .filter(|&&(a, _)| block.contains(&(a as usize)))
            {
                if self.link[a as usize] < Self::LINKED {
                    self.link[a as usize] = Self::LINKED;
                    added += 1;
                    touched = true;
                }
                f += 1;
            }
            if touched {
                let linked = self.link[block].iter_mut().filter(|b| **b >= Self::LINKED);
                for (byte, number) in linked.zip(Self::LINKED..) {
                    *byte = number;
                }
            }
        }
    }

    /// Merge the locals appended since the last call into the station
    /// order: sort the new ones by station, then merge the two sorted
    /// runs. `O(|frame| + k log k)` after `k` new locals, `O(1)` when the
    /// frame has not grown — so a growing frame pays it once, on its
    /// first ordered pass after growth, not per [`Subframe::ensure`].
    pub fn merge_by_station(&mut self) {
        let (merged, len) = (self.order.len(), self.global.len());
        if merged == len {
            return;
        }
        let global = &self.global;
        let station = |&l: &u32| global[l as usize];
        let mut fresh: Vec<u32> = (merged..len)
            .map(|l| u32::try_from(l).expect("frame ids fit in u32"))
            .collect();
        fresh.sort_unstable_by_key(station);
        let mut order = Vec::new();
        reserve_bounded(&mut order, len);
        order.extend(merge_by_key(
            self.order.drain(..),
            fresh.into_iter(),
            station,
        ));
        self.order = order;
    }

    /// Every local in ascending global station id, the source included —
    /// as of the last [`Subframe::merge_by_station`], which an ordered
    /// pass calls first.
    pub fn by_station(&self) -> &[u32] {
        debug_assert_eq!(
            self.order.len(),
            self.global.len(),
            "merge_by_station before an ordered pass"
        );
        &self.order
    }

    /// Heap bytes of the parent links and the children lists: what a
    /// frame spends on its shape.
    fn link_bytes(&self) -> usize {
        use std::mem::size_of;
        (self.parent.capacity()
            + self.rank.capacity()
            + self.kid_start.capacity()
            + self.kids.capacity())
            * size_of::<u32>()
            + self.link.capacity() * size_of::<u8>()
            + self.fresh.capacity() * size_of::<(u32, u32)>()
    }

    /// Resident heap bytes of the frame: its arrays and the index.
    pub fn memory_bytes(&self) -> usize {
        use std::mem::size_of;
        self.global.capacity() * size_of::<NodeId>()
            + (self.order.capacity() + self.index.capacity()) * size_of::<u32>()
            + self.link_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::{SubstrateBuilder, TreeKind};
    use crate::fixtures::random_net;
    use rand::{rngs::SmallRng, Rng, SeedableRng};
    use wmcs_geom::{LayoutFamily, Point, PowerModel, Scenario};

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
        // At least the five SoA arrays + the dense matrix must be counted.
        assert!(b >= 32 * 32 * 8, "dense matrix missing from {b}");
        // CSR arrays are exactly one allocation each: capacity == len.
        assert!(b < 32 * 32 * 8 + 32 * 200, "overcounted: {b}");
    }

    /// The substrates the splice property runs on: the five layout
    /// families (SPT and MST in turn), a chain, a star, and uniform
    /// stations with every third one copied onto the one before it
    /// (zero-cost edges).
    fn splice_substrates(n: usize) -> Vec<(&'static str, std::sync::Arc<TreeSubstrate>)> {
        let mut subs = Vec::new();
        for (i, family) in LayoutFamily::ALL.into_iter().enumerate() {
            let sc = Scenario::new(family, n, 2, 2.0);
            let net = WirelessNetwork::euclidean(sc.points(i as u64), sc.power_model(), 0);
            let kind = [TreeKind::Spt, TreeKind::Mst][i % 2];
            subs.push((
                family.name(),
                SubstrateBuilder::from_owned(net).tree(kind).build(),
            ));
        }
        let explicit = |parent: Vec<Option<usize>>| {
            SubstrateBuilder::from_owned(random_net(9, n))
                .explicit_tree(wmcs_graph::RootedTree::from_parents(0, parent))
                .build()
        };
        subs.push((
            "chain",
            explicit((0..n).map(|v| v.checked_sub(1)).collect()),
        ));
        subs.push((
            "star",
            explicit((0..n).map(|v| (v > 0).then_some(0)).collect()),
        ));
        let mut pts = Scenario::new(LayoutFamily::UniformBox, n, 2, 2.0).points(5);
        for v in (2..n).step_by(3) {
            pts[v] = pts[v - 1].clone();
        }
        let net = WirelessNetwork::euclidean(pts, PowerModel::free_space(), 0);
        subs.push((
            "duplicated points",
            SubstrateBuilder::from_owned(net)
                .tree(TreeKind::Spt)
                .build(),
        ));
        subs
    }

    /// `frame` (links merged) is exactly the path closure `closure`, and
    /// each local's parent and children — both directions — are the
    /// substrate's parent and cost-sorted child slice restricted to the
    /// closure. Each local's edge cost as the engines read it,
    /// `sub.parent_cost(frame.global_of(l))`, is the network's cost from
    /// its framed parent's station, bit for bit.
    fn assert_frame_is_the_closure(frame: &Subframe, sub: &TreeSubstrate, closure: &[bool]) {
        assert_eq!(frame.len(), closure.iter().filter(|&&b| b).count());
        for (g, &inside) in closure.iter().enumerate() {
            assert_eq!(frame.local_of(g).is_some(), inside, "station {g}");
        }
        for l in 0..frame.len() {
            let l = u32::try_from(l).expect("test frame is small");
            let g = frame.global_of(l);
            if l == Subframe::ROOT {
                assert_eq!(frame.parent_local(l), Subframe::NONE);
            } else {
                let p = frame.parent_local(l);
                assert_eq!(frame.global_of(p), sub.parent_of(g), "station {g}");
                assert_eq!(
                    sub.parent_cost(frame.global_of(l)).to_bits(),
                    sub.network().cost(frame.global_of(p), g).to_bits(),
                    "station {g}"
                );
            }
            let expect: Vec<usize> = sub
                .sorted_children(g)
                .iter()
                .map(|c| c.index())
                .filter(|&c| closure[c])
                .collect();
            let kids = frame.children(l);
            let got: Vec<usize> = kids
                .as_slice()
                .iter()
                .map(|&c| frame.global_of(c))
                .collect();
            assert_eq!(got, expect, "station {g}");
            // Only a local with a child other than `l + 1` is listed.
            let implicit = expect.is_empty() || got == [frame.global_of(l + 1)];
            assert_eq!(
                matches!(kids, Children::Listed(_)),
                !implicit,
                "station {g}"
            );
        }
    }

    /// Random splice sequences on every substrate of
    /// [`splice_substrates`]: after every `ensure` (links merged on a
    /// copy) and after each merge of a random batch of them, the frame's
    /// parent links and its children — implicit inside runs, listed at
    /// linked locals — are the substrate's restricted to the closure.
    /// The sequences anchor runs at the last local, mid-run (a local
    /// with an implicit child), at the root and at a leaf that a later
    /// run hangs off; each kind occurs.
    #[test]
    fn subframe_splices_path_closures_in_cost_order() {
        let n = 96;
        // Runs anchored at: the last local, a local with children, the
        // root, a leaf below the last local; and mid-run anchors.
        let (mut last, mut branching, mut root, mut leaf, mut mid_run) = (0, 0, 0, 0, 0);
        for (label, sub) in splice_substrates(n) {
            for seed in 0..6 {
                let mut rng = SmallRng::seed_from_u64(seed ^ 0xf4a);
                let mut frame = Subframe::new(&sub);
                assert!(frame.is_empty());
                assert_eq!(frame.global_of(Subframe::ROOT), sub.network().source());
                let mut closure = vec![false; n];
                closure[sub.network().source()] = true;
                let mut settled = frame.clone();
                for _ in 0..40 {
                    let v = rng.gen_range(0..n);
                    if !closure[v] {
                        let mut w = v;
                        while !closure[w] {
                            w = sub.parent_of(w);
                        }
                        let anchor = settled.local_of(w).expect("closure stations are framed");
                        match settled.children(anchor).as_slice().len() {
                            _ if anchor == Subframe::ROOT => root += 1,
                            _ if anchor as usize + 1 == settled.len() => last += 1,
                            0 => leaf += 1,
                            _ => branching += 1,
                        }
                        mid_run += usize::from(matches!(
                            settled.children(anchor),
                            Children::Run { len: 1, .. }
                        ));
                    }
                    let l = frame.ensure(&sub, v);
                    assert_eq!(frame.global_of(l), v);
                    assert_eq!(frame.local_of(v), Some(l));
                    // Idempotent: a second ensure neither grows nor re-ids.
                    let len = frame.len();
                    assert_eq!(frame.ensure(&sub, v), l);
                    assert_eq!(frame.len(), len);
                    let mut w = v;
                    while w != NO_STATION {
                        closure[w] = true;
                        w = sub.parent_of(w);
                    }
                    settled = frame.clone();
                    settled.merge_links(&sub);
                    assert_frame_is_the_closure(&settled, &sub, &closure);
                    if rng.gen_bool(0.3) {
                        frame.merge_links(&sub);
                        assert_frame_is_the_closure(&frame, &sub, &closure);
                        // A merge with nothing recorded changes nothing.
                        let bytes = frame.memory_bytes();
                        frame.merge_links(&sub);
                        assert_eq!(frame.memory_bytes(), bytes, "{label}");
                    }
                }
            }
        }
        for (count, anchor) in [
            (last, "the last local"),
            (branching, "a local with children"),
            (root, "the root"),
            (leaf, "a leaf below the last local"),
            (mid_run, "a run's interior"),
        ] {
            assert!(count > 0, "no run anchored at {anchor}");
        }
    }

    /// A frame's parent links and children lists cost at most 13 bytes
    /// per station on a star (every station a listed child of the root)
    /// and on a random tree, every station framed in random order — under
    /// the 12 B (plus up to 1/8 slack) of a parent link and two sibling
    /// links per station — and its per-local link state one byte (plus
    /// the frame's 1/8 growth slack), with a 4 B rank count per block of
    /// 128 locals.
    #[test]
    fn link_bytes_per_station_stay_bounded() {
        let n = 2048;
        let star = SubstrateBuilder::from_owned(random_net(3, n))
            .explicit_tree(wmcs_graph::RootedTree::from_parents(
                0,
                (0..n).map(|v| (v > 0).then_some(0)).collect(),
            ))
            .build();
        let random = SubstrateBuilder::new(&random_net(4, n))
            .tree(TreeKind::Mst)
            .build();
        for (label, sub) in [("star", star), ("random tree", random)] {
            let mut rng = SmallRng::seed_from_u64(0x11c5);
            let mut joins: Vec<usize> = (1..n).collect();
            for i in (1..joins.len()).rev() {
                joins.swap(i, rng.gen_range(0..=i));
            }
            let mut frame = Subframe::new(&sub);
            for (k, &v) in joins.iter().enumerate() {
                frame.ensure(&sub, v);
                if k % 64 == 0 {
                    frame.merge_links(&sub);
                }
            }
            frame.merge_links(&sub);
            let per_station = |bytes: usize| bytes as f64 / frame.len() as f64;
            let links = per_station(frame.link_bytes());
            assert_eq!(
                frame.link.len(),
                frame.len(),
                "{label}: one link byte per local"
            );
            let state = per_station(frame.link.capacity());
            let ranks = per_station(frame.rank.capacity() * 4);
            assert!(links <= 13.0, "{label}: {links:.2} link bytes per station");
            assert!(state <= 1.125, "{label}: {state:.3} link bytes per station");
            assert!(
                ranks <= 1.125 * 4.0 / 128.0,
                "{label}: {ranks:.3} rank bytes per station"
            );
        }
    }

    #[test]
    fn station_order_merges_every_appended_local_once() {
        // Random growth with ordered passes interleaved: after each merge
        // the order is exactly the locals sorted by station — each local
        // once, the appended ones included — and the frame's byte count
        // grows by exactly the order array's.
        for seed in 0..8 {
            let net = random_net(seed, 64);
            let kind = [TreeKind::Spt, TreeKind::Mst][seed as usize % 2];
            let sub = SubstrateBuilder::new(&net).tree(kind).build();
            let mut frame = Subframe::new(&sub);
            let mut rng = SmallRng::seed_from_u64(seed ^ 0x0bde);
            for _ in 0..40 {
                for _ in 0..rng.gen_range(0..4) {
                    frame.ensure(&sub, rng.gen_range(1..64));
                }
                if rng.gen_bool(0.6) {
                    let (bytes, order_cap) = (frame.memory_bytes(), frame.order.capacity());
                    frame.merge_by_station();
                    let mut expect: Vec<u32> = (0..frame.len())
                        .map(|l| u32::try_from(l).expect("test frame is small"))
                        .collect();
                    expect.sort_by_key(|&l| frame.global_of(l));
                    assert_eq!(frame.by_station(), &expect[..], "seed {seed}");
                    assert_eq!(
                        frame.memory_bytes() - bytes,
                        (frame.order.capacity() - order_cap) * std::mem::size_of::<u32>()
                    );
                    // A pass with no growth in between changes nothing.
                    frame.merge_by_station();
                    assert_eq!(frame.by_station(), &expect[..], "seed {seed}");
                }
            }
        }
    }

    #[test]
    fn lazy_substrate_stores_40_bytes_per_station() {
        // 16 B of ids (offsets, children, positions, parents) and 8 B of
        // edge cost per station, plus the lazy network's two flat
        // coordinates.
        for (n, kind) in [
            (1, TreeKind::Spt),
            (37, TreeKind::Mst),
            (300, TreeKind::Spt),
        ] {
            let mut rng = SmallRng::seed_from_u64(n as u64);
            let pts: Vec<Point> = (0..n)
                .map(|_| Point::xy(rng.gen_range(0.0..10.0), rng.gen_range(0.0..10.0)))
                .collect();
            let net = WirelessNetwork::euclidean_lazy(pts, PowerModel::free_space(), 0);
            let sub = SubstrateBuilder::from_owned(net).tree(kind).build();
            assert_eq!(sub.memory_bytes(), 40 * n, "n = {n}");
        }
    }

    #[test]
    #[should_panic(expected = "span all stations")]
    fn partial_tree_rejected() {
        let net = random_net(0, 4);
        let tree = wmcs_graph::RootedTree::from_parents(0, vec![None, Some(0), None, None]);
        let _ = SubstrateBuilder::from_owned(net)
            .explicit_tree(tree)
            .build();
    }

    #[test]
    #[should_panic(expected = "a tree over 5 vertices for 4 stations")]
    fn tree_over_more_vertices_than_stations_rejected() {
        // Members 0, 1, 2 and 4 make four, but station 3 has no parent:
        // accepted, it would be orphaned and its first join would walk
        // off the root.
        let net = random_net(0, 4);
        let tree =
            wmcs_graph::RootedTree::from_parents(0, vec![None, Some(0), Some(0), None, Some(0)]);
        let _ = SubstrateBuilder::from_owned(net)
            .explicit_tree(tree)
            .build();
    }
}
