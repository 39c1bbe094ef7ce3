//! Rooted trees over a vertex universe `0..n`.
//!
//! Multicast trees `T(R)`, universal broadcast trees (§2.1), Steiner trees
//! and the directed trees produced by the MEMT↔NWST reduction (§2.2.1) are
//! all rooted trees that span a *subset* of the vertices, so membership is
//! explicit: a vertex is in the tree iff it is the root or has a parent.

/// A rooted tree spanning a subset of `0..n`.
#[derive(Debug, Clone, PartialEq)]
pub struct RootedTree {
    n: usize,
    root: usize,
    parent: Vec<Option<usize>>,
}

impl RootedTree {
    /// Tree containing only the root.
    pub fn new(n: usize, root: usize) -> Self {
        assert!(root < n);
        Self {
            n,
            root,
            parent: vec![None; n],
        }
    }

    /// Build from a parent array (`parent[root]` must be `None`; vertices
    /// with `None` other than the root are simply not in the tree).
    /// Panics on cycles or edges into absent parents.
    pub fn from_parents(root: usize, parent: Vec<Option<usize>>) -> Self {
        let t = Self {
            n: parent.len(),
            root,
            parent,
        };
        assert!(t.parent[root].is_none(), "root cannot have a parent");
        // Validate in O(n): every member's parent chain reaches the root
        // acyclically. Each vertex is walked at most once — a chain stops
        // as soon as it hits a vertex already proven good (state 2), and
        // meeting the current walk (state 1) is a cycle.
        let mut state = vec![0u8; t.n];
        state[root] = 2;
        let mut chain = Vec::new();
        for v in 0..t.n {
            if state[v] != 0 || t.parent[v].is_none() {
                continue;
            }
            let mut cur = v;
            loop {
                match state[cur] {
                    2 => break,
                    1 => panic!("cycle detected in parent array"),
                    _ => {}
                }
                state[cur] = 1;
                chain.push(cur);
                match t.parent[cur] {
                    Some(p) => cur = p,
                    None => panic!("vertex {v} does not reach the root"),
                }
            }
            for &w in &chain {
                state[w] = 2;
            }
            chain.clear();
        }
        t
    }

    /// Universe size `n`.
    pub fn universe(&self) -> usize {
        self.n
    }

    /// The root vertex.
    pub fn root(&self) -> usize {
        self.root
    }

    /// Parent of `v` (None for the root or for non-members).
    pub fn parent(&self, v: usize) -> Option<usize> {
        self.parent[v]
    }

    /// True if `v` belongs to the tree.
    pub fn contains(&self, v: usize) -> bool {
        v == self.root || self.parent[v].is_some()
    }

    /// Attach `child` under `parent`; `parent` must already be a member.
    pub fn attach(&mut self, parent: usize, child: usize) {
        assert!(self.contains(parent), "parent {parent} not in tree");
        assert!(!self.contains(child), "child {child} already in tree");
        assert!(child != self.root);
        self.parent[child] = Some(parent);
    }

    /// Members of the tree, ascending.
    pub fn nodes(&self) -> Vec<usize> {
        (0..self.n).filter(|&v| self.contains(v)).collect()
    }

    /// Number of members.
    pub fn node_count(&self) -> usize {
        (0..self.n).filter(|&v| self.contains(v)).count()
    }

    /// Directed edges `(parent, child)`.
    pub fn edges(&self) -> Vec<(usize, usize)> {
        (0..self.n)
            .filter_map(|v| self.parent[v].map(|p| (p, v)))
            .collect()
    }

    /// Children lists in flat CSR form, each in ascending vertex order.
    fn csr_children(&self) -> CsrChildren {
        CsrChildren::from_parents(&self.parent)
    }

    /// Path from the root to `v` (inclusive). Panics if `v` is absent.
    pub fn path_from_root(&self, v: usize) -> Vec<usize> {
        assert!(self.contains(v), "vertex {v} not in tree");
        let mut path = vec![v];
        let mut cur = v;
        while let Some(p) = self.parent[cur] {
            path.push(p);
            cur = p;
        }
        path.reverse();
        path
    }

    /// Breadth-first order from the root; also the "BFS numbering" used by
    /// the reduction of §2.2.1 to orient NWST solutions into multicast trees.
    /// Children are visited in ascending vertex order.
    pub fn bfs_order(&self) -> Vec<usize> {
        let ch = self.csr_children();
        let mut order = vec![self.root];
        let mut head = 0;
        while let Some(&v) = order.get(head) {
            head += 1;
            order.extend_from_slice(ch.children(v));
        }
        order
    }

    /// Vertices of the subtree rooted at `v` (including `v`).
    pub fn subtree(&self, v: usize) -> Vec<usize> {
        assert!(self.contains(v));
        let ch = self.csr_children();
        let mut out = Vec::new();
        let mut stack = vec![v];
        while let Some(u) = stack.pop() {
            out.push(u);
            stack.extend(ch.children(u).iter().copied());
        }
        out.sort_unstable();
        out
    }

    /// Depth of `v` (root has depth 0).
    pub fn depth(&self, v: usize) -> usize {
        self.path_from_root(v).len() - 1
    }

    /// The sub-tree of `self` induced by the union of root-paths of
    /// `targets` — exactly the paper's `T(R)` obtained from a universal tree
    /// `T(S\{s})` (§2.1): keep a vertex iff it lies on a path from the root
    /// to some target.
    pub fn steiner_subtree(&self, targets: &[usize]) -> RootedTree {
        let mut keep = vec![false; self.n];
        keep[self.root] = true;
        for &t in targets {
            for v in self.path_from_root(t) {
                keep[v] = true;
            }
        }
        let parent = (0..self.n)
            .map(|v| if keep[v] { self.parent[v] } else { None })
            .collect();
        RootedTree::from_parents(self.root, parent)
    }

    /// Root an undirected edge set at `root` (the edges must form a forest;
    /// only the component containing `root` is kept).
    pub fn from_undirected_edges(n: usize, root: usize, edges: &[(usize, usize)]) -> RootedTree {
        let mut adj = vec![Vec::new(); n];
        for &(u, v) in edges {
            adj[u].push(v);
            adj[v].push(u);
        }
        let mut parent = vec![None; n];
        let mut visited = vec![false; n];
        visited[root] = true;
        let mut queue = std::collections::VecDeque::from([root]);
        while let Some(v) = queue.pop_front() {
            for &u in &adj[v] {
                if !visited[u] {
                    visited[u] = true;
                    parent[u] = Some(v);
                    queue.push_back(u);
                }
            }
        }
        RootedTree::from_parents(root, parent)
    }
}

/// Children lists of a rooted tree in flat CSR (compressed sparse row)
/// form: the children of vertex `v` are the contiguous slice
/// `child_array[offsets[v]..offsets[v+1]]`, in ascending vertex order.
/// One allocation per field instead of a nested `Vec<Vec<usize>>`; the
/// walks of [`RootedTree::bfs_order`] and [`RootedTree::subtree`] read it.
#[derive(Debug)]
struct CsrChildren {
    /// `offsets[v]..offsets[v+1]` delimits `v`'s children; length `n+1`.
    offsets: Vec<usize>,
    /// All children, concatenated per parent; length = number of edges.
    child_array: Vec<usize>,
}

impl CsrChildren {
    /// Build from a parent array (the representation [`RootedTree`]
    /// stores). Two counting passes, `O(n)`.
    fn from_parents(parent: &[Option<usize>]) -> Self {
        let n = parent.len();
        let mut offsets = vec![0usize; n + 1];
        for p in parent.iter().flatten() {
            offsets[p + 1] += 1;
        }
        for v in 0..n {
            offsets[v + 1] += offsets[v];
        }
        let mut cursor = offsets.clone();
        let mut child_array = vec![0usize; offsets[n]];
        for (v, p) in parent.iter().enumerate() {
            if let Some(p) = *p {
                child_array[cursor[p]] = v;
                cursor[p] += 1;
            }
        }
        Self {
            offsets,
            child_array,
        }
    }

    /// The children of `v`, as a contiguous slice.
    fn children(&self, v: usize) -> &[usize] {
        &self.child_array[self.offsets[v]..self.offsets[v + 1]]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A small fixture:      0
    ///                      / \
    ///                     1   2
    ///                    / \
    ///                   3   4
    fn fixture() -> RootedTree {
        RootedTree::from_parents(0, vec![None, Some(0), Some(0), Some(1), Some(1), None])
    }

    #[test]
    fn membership_and_counts() {
        let t = fixture();
        assert!(t.contains(0));
        assert!(t.contains(4));
        assert!(!t.contains(5));
        assert_eq!(t.node_count(), 5);
        assert_eq!(t.nodes(), vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn edges_and_children() {
        let t = fixture();
        assert_eq!(t.edges(), vec![(0, 1), (0, 2), (1, 3), (1, 4)]);
        let ch = t.csr_children();
        assert_eq!(ch.children(0), &[1, 2]);
        assert_eq!(ch.children(1), &[3, 4]);
        assert!(ch.children(3).is_empty());
    }

    #[test]
    fn csr_form_matches_the_parent_array() {
        let t = fixture();
        let ch = t.csr_children();
        // The child slices partition the members below the root, each
        // under its parent.
        let mut seen = [0usize; 6];
        for v in 0..6 {
            for &c in ch.children(v) {
                assert_eq!(t.parent(c), Some(v));
                seen[c] += 1;
            }
        }
        for v in 0..6 {
            let below_root = t.contains(v) && v != t.root();
            assert_eq!(seen[v], usize::from(below_root), "vertex {v}");
        }
        assert!(ch.children(5).is_empty());
    }

    #[test]
    fn paths_and_depths() {
        let t = fixture();
        assert_eq!(t.path_from_root(4), vec![0, 1, 4]);
        assert_eq!(t.depth(4), 2);
        assert_eq!(t.depth(0), 0);
    }

    #[test]
    fn bfs_starts_at_root_and_respects_levels() {
        let t = fixture();
        let order = t.bfs_order();
        assert_eq!(order[0], 0);
        let pos = |v: usize| {
            order
                .iter()
                .position(|&x| x == v)
                .expect("BFS order visits every vertex of the fixture")
        };
        assert!(pos(1) < pos(3));
        assert!(pos(2) < pos(4) || pos(1) < pos(4));
        assert_eq!(order.len(), 5);
    }

    #[test]
    fn subtree_collects_descendants() {
        let t = fixture();
        assert_eq!(t.subtree(1), vec![1, 3, 4]);
        assert_eq!(t.subtree(0), vec![0, 1, 2, 3, 4]);
        assert_eq!(t.subtree(2), vec![2]);
    }

    #[test]
    fn steiner_subtree_is_union_of_root_paths() {
        let t = fixture();
        let sub = t.steiner_subtree(&[3]);
        assert_eq!(sub.nodes(), vec![0, 1, 3]);
        let sub2 = t.steiner_subtree(&[3, 2]);
        assert_eq!(sub2.nodes(), vec![0, 1, 2, 3]);
        let empty = t.steiner_subtree(&[]);
        assert_eq!(empty.nodes(), vec![0]);
    }

    #[test]
    fn attach_grows_tree() {
        let mut t = RootedTree::new(4, 2);
        t.attach(2, 0);
        t.attach(0, 1);
        assert_eq!(t.path_from_root(1), vec![2, 0, 1]);
        assert!(!t.contains(3));
    }

    #[test]
    fn from_undirected_edges_orients_toward_root() {
        let t = RootedTree::from_undirected_edges(5, 2, &[(0, 1), (1, 2), (3, 2)]);
        assert_eq!(t.parent(1), Some(2));
        assert_eq!(t.parent(0), Some(1));
        assert_eq!(t.parent(3), Some(2));
        assert_eq!(t.root(), 2);
    }

    #[test]
    fn from_undirected_edges_drops_other_components() {
        let t = RootedTree::from_undirected_edges(5, 0, &[(0, 1), (3, 4)]);
        assert!(t.contains(1));
        assert!(!t.contains(3));
        assert!(!t.contains(4));
    }

    #[test]
    #[should_panic(expected = "cycle")]
    fn cycles_rejected() {
        // 1 -> 2 -> 3 -> 1 cycle detached from root 0.
        let _ = RootedTree::from_parents(0, vec![None, Some(3), Some(1), Some(2)]);
    }

    #[test]
    #[should_panic(expected = "already in tree")]
    fn double_attach_rejected() {
        let mut t = RootedTree::new(3, 0);
        t.attach(0, 1);
        t.attach(0, 1);
    }
}
