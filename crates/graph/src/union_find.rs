//! Disjoint-set forest (union–find) with union by rank and path compression.
//!
//! Used by Kruskal's MST, the Goemans–Williamson moat growing, and the
//! spider-shrinking loop of the NWST algorithm.

/// Disjoint-set forest over `0..n`.
#[derive(Debug, Clone)]
pub struct UnionFind {
    parent: Vec<usize>,
    rank: Vec<u8>,
    components: usize,
}

impl UnionFind {
    /// `n` singleton sets.
    pub fn new(n: usize) -> Self {
        Self {
            parent: (0..n).collect(),
            rank: vec![0; n],
            components: n,
        }
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.parent.len()
    }

    /// True if the structure tracks no elements.
    pub fn is_empty(&self) -> bool {
        self.parent.is_empty()
    }

    /// Representative of `x`'s set (with path compression).
    pub fn find(&mut self, x: usize) -> usize {
        let mut root = x;
        while self.parent[root] != root {
            root = self.parent[root];
        }
        let mut cur = x;
        while self.parent[cur] != root {
            let next = self.parent[cur];
            self.parent[cur] = root;
            cur = next;
        }
        root
    }

    /// Merge the sets containing `a` and `b`. Returns `true` if they were
    /// previously distinct.
    pub fn union(&mut self, a: usize, b: usize) -> bool {
        let (ra, rb) = (self.find(a), self.find(b));
        if ra == rb {
            return false;
        }
        let (hi, lo) = if self.rank[ra] >= self.rank[rb] {
            (ra, rb)
        } else {
            (rb, ra)
        };
        self.parent[lo] = hi;
        if self.rank[hi] == self.rank[lo] {
            self.rank[hi] += 1;
        }
        self.components -= 1;
        true
    }

    /// True if `a` and `b` are in the same set.
    pub fn connected(&mut self, a: usize, b: usize) -> bool {
        self.find(a) == self.find(b)
    }

    /// Number of disjoint sets remaining.
    pub fn component_count(&self) -> usize {
        self.components
    }

    /// Groups the elements by representative. The groups are sorted by their
    /// smallest element for determinism.
    pub fn groups(&mut self) -> Vec<Vec<usize>> {
        let n = self.len();
        let mut by_root: std::collections::BTreeMap<usize, Vec<usize>> = Default::default();
        for x in 0..n {
            let r = self.find(x);
            by_root.entry(r).or_default().push(x);
        }
        let mut gs: Vec<Vec<usize>> = by_root.into_values().collect();
        gs.sort_by_key(|g| g[0]);
        gs
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn starts_as_singletons() {
        let mut uf = UnionFind::new(4);
        assert_eq!(uf.component_count(), 4);
        for i in 0..4 {
            assert_eq!(uf.find(i), i);
        }
    }

    #[test]
    fn union_merges_and_counts() {
        let mut uf = UnionFind::new(5);
        assert!(uf.union(0, 1));
        assert!(uf.union(1, 2));
        assert!(!uf.union(0, 2));
        assert_eq!(uf.component_count(), 3);
        assert!(uf.connected(0, 2));
        assert!(!uf.connected(0, 3));
    }

    #[test]
    fn groups_partition_elements() {
        let mut uf = UnionFind::new(6);
        uf.union(0, 3);
        uf.union(4, 5);
        let gs = uf.groups();
        assert_eq!(gs, vec![vec![0, 3], vec![1], vec![2], vec![4, 5]]);
    }

    #[test]
    fn empty_structure() {
        let uf = UnionFind::new(0);
        assert!(uf.is_empty());
        assert_eq!(uf.component_count(), 0);
    }

    proptest! {
        #[test]
        fn component_count_is_n_minus_successful_unions(
            ops in proptest::collection::vec((0usize..20, 0usize..20), 0..60)
        ) {
            let mut uf = UnionFind::new(20);
            let mut successes = 0;
            for (a, b) in ops {
                if uf.union(a, b) {
                    successes += 1;
                }
            }
            prop_assert_eq!(uf.component_count(), 20 - successes);
        }

        #[test]
        fn connectivity_is_equivalence(
            ops in proptest::collection::vec((0usize..12, 0usize..12), 0..40),
            probe in (0usize..12, 0usize..12, 0usize..12)
        ) {
            let mut uf = UnionFind::new(12);
            for (a, b) in ops {
                uf.union(a, b);
            }
            let (x, y, z) = probe;
            // transitivity
            if uf.connected(x, y) && uf.connected(y, z) {
                prop_assert!(uf.connected(x, z));
            }
            // symmetry + reflexivity
            prop_assert!(uf.connected(x, x));
            prop_assert_eq!(uf.connected(x, y), uf.connected(y, x));
        }
    }
}
