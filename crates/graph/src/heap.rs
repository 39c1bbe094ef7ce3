//! Indexed binary min-heap with decrease-key.
//!
//! `std::collections::BinaryHeap` offers no decrease-key, which Dijkstra and
//! Prim want; this heap tracks element positions so priorities can be lowered
//! in `O(log n)` without lazy-deletion churn. Keys are `f64` by default;
//! any [`HeapKey`] order works, such as the spatial tree growth's
//! `(key, via, station)` triples.

/// A priority [`IndexedMinHeap`] orders by. `Default` only fills the
/// slots of absent elements, which are never compared.
pub trait HeapKey: Copy + Default {
    /// True when `self` must pop before `other`: a strict weak order.
    fn precedes(&self, other: &Self) -> bool;
}

impl HeapKey for f64 {
    fn precedes(&self, other: &Self) -> bool {
        self < other
    }
}

/// Min-heap over element ids `0..capacity` with keys of type `K` (by
/// default `f64`) and decrease-key.
#[derive(Debug, Clone)]
pub struct IndexedMinHeap<K = f64> {
    /// Heap array of element ids.
    heap: Vec<usize>,
    /// `pos[e]` = index of element `e` in `heap`, or `usize::MAX` if absent.
    pos: Vec<usize>,
    /// Current key per element (valid only while the element is present).
    key: Vec<K>,
}

const ABSENT: usize = usize::MAX;

impl<K: HeapKey> IndexedMinHeap<K> {
    /// Empty heap able to hold element ids `0..capacity`.
    pub fn new(capacity: usize) -> Self {
        Self {
            heap: Vec::with_capacity(capacity),
            pos: vec![ABSENT; capacity],
            key: vec![K::default(); capacity],
        }
    }

    /// Number of elements currently queued.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// True if no elements are queued.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// True if element `e` is currently queued.
    pub fn contains(&self, e: usize) -> bool {
        self.pos[e] != ABSENT
    }

    /// Current key of a queued element.
    pub fn key_of(&self, e: usize) -> Option<K> {
        self.contains(e).then(|| self.key[e])
    }

    /// The minimum-key element and its key, without removing it.
    pub fn peek(&self) -> Option<(usize, K)> {
        self.heap.first().map(|&e| (e, self.key[e]))
    }

    /// Insert `e` with the given key, or lower its key if already queued
    /// with one that `k` precedes. Returns `true` if the stored key changed.
    pub fn push_or_decrease(&mut self, e: usize, k: K) -> bool {
        if self.contains(e) {
            if k.precedes(&self.key[e]) {
                self.key[e] = k;
                self.sift_up(self.pos[e]);
                true
            } else {
                false
            }
        } else {
            self.key[e] = k;
            self.pos[e] = self.heap.len();
            self.heap.push(e);
            self.sift_up(self.heap.len() - 1);
            true
        }
    }

    /// Pop the minimum-key element.
    pub fn pop(&mut self) -> Option<(usize, K)> {
        if self.heap.is_empty() {
            return None;
        }
        let top = self.heap[0];
        let k = self.key[top];
        let last = self.heap.pop().expect("non-empty");
        self.pos[top] = ABSENT;
        if !self.heap.is_empty() {
            self.heap[0] = last;
            self.pos[last] = 0;
            self.sift_down(0);
        }
        Some((top, k))
    }

    /// True when the element at heap slot `i` must pop before slot `j`'s.
    fn before(&self, i: usize, j: usize) -> bool {
        self.key[self.heap[i]].precedes(&self.key[self.heap[j]])
    }

    fn sift_up(&mut self, mut i: usize) {
        while i > 0 {
            let parent = (i - 1) / 2;
            if self.before(i, parent) {
                self.swap(i, parent);
                i = parent;
            } else {
                break;
            }
        }
    }

    fn sift_down(&mut self, mut i: usize) {
        loop {
            let (l, r) = (2 * i + 1, 2 * i + 2);
            let mut smallest = i;
            if l < self.heap.len() && self.before(l, smallest) {
                smallest = l;
            }
            if r < self.heap.len() && self.before(r, smallest) {
                smallest = r;
            }
            if smallest == i {
                break;
            }
            self.swap(i, smallest);
            i = smallest;
        }
    }

    fn swap(&mut self, i: usize, j: usize) {
        self.heap.swap(i, j);
        self.pos[self.heap[i]] = i;
        self.pos[self.heap[j]] = j;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn pops_in_key_order() {
        let mut h = IndexedMinHeap::new(5);
        h.push_or_decrease(0, 3.0);
        h.push_or_decrease(1, 1.0);
        h.push_or_decrease(2, 2.0);
        assert_eq!(h.pop(), Some((1, 1.0)));
        assert_eq!(h.pop(), Some((2, 2.0)));
        assert_eq!(h.pop(), Some((0, 3.0)));
        assert_eq!(h.pop(), None);
    }

    #[test]
    fn decrease_key_reorders() {
        let mut h = IndexedMinHeap::new(3);
        h.push_or_decrease(0, 10.0);
        h.push_or_decrease(1, 5.0);
        assert!(h.push_or_decrease(0, 1.0));
        assert_eq!(h.pop(), Some((0, 1.0)));
    }

    #[test]
    fn increase_attempt_is_ignored() {
        let mut h = IndexedMinHeap::new(2);
        h.push_or_decrease(0, 1.0);
        assert!(!h.push_or_decrease(0, 5.0));
        assert_eq!(h.key_of(0), Some(1.0));
    }

    #[test]
    fn contains_tracks_membership() {
        let mut h = IndexedMinHeap::new(2);
        assert!(!h.contains(1));
        h.push_or_decrease(1, 0.5);
        assert!(h.contains(1));
        h.pop();
        assert!(!h.contains(1));
        assert!(h.is_empty());
    }

    /// A lexicographic `(key, tag)` order: equal `f64` keys pop by tag,
    /// and decrease-key accepts a key that only lowers the tag.
    #[derive(Debug, Default, Clone, Copy, PartialEq)]
    struct Tagged(f64, u32);

    impl HeapKey for Tagged {
        fn precedes(&self, other: &Self) -> bool {
            self.0.total_cmp(&other.0).then(self.1.cmp(&other.1)) == std::cmp::Ordering::Less
        }
    }

    #[test]
    fn custom_key_orders_ties_and_decreases() {
        let mut h: IndexedMinHeap<Tagged> = IndexedMinHeap::new(4);
        h.push_or_decrease(0, Tagged(1.0, 9));
        h.push_or_decrease(1, Tagged(1.0, 3));
        h.push_or_decrease(2, Tagged(0.5, 7));
        assert!(!h.push_or_decrease(2, Tagged(0.5, 8)));
        assert!(h.push_or_decrease(0, Tagged(1.0, 2)));
        assert_eq!(h.peek(), Some((2, Tagged(0.5, 7))));
        let order: Vec<usize> = std::iter::from_fn(|| h.pop().map(|(e, _)| e)).collect();
        assert_eq!(order, [2, 0, 1]);
    }

    proptest! {
        #[test]
        fn heap_sorts_arbitrary_keys(keys in proptest::collection::vec(0.0..1000.0f64, 1..60)) {
            let mut h = IndexedMinHeap::new(keys.len());
            for (i, &k) in keys.iter().enumerate() {
                h.push_or_decrease(i, k);
            }
            let mut popped = Vec::new();
            while let Some((_, k)) = h.pop() {
                popped.push(k);
            }
            let mut sorted = keys.clone();
            sorted.sort_by(f64::total_cmp);
            prop_assert_eq!(popped, sorted);
        }

        #[test]
        fn random_decreases_preserve_order(
            keys in proptest::collection::vec(10.0..1000.0f64, 1..40),
            dec in proptest::collection::vec((0usize..40, 0.0..10.0f64), 0..40)
        ) {
            let n = keys.len();
            let mut h = IndexedMinHeap::new(n);
            let mut reference = keys.clone();
            for (i, &k) in keys.iter().enumerate() {
                h.push_or_decrease(i, k);
            }
            for (e, k) in dec {
                let e = e % n;
                if k < reference[e] {
                    reference[e] = k;
                }
                h.push_or_decrease(e, k);
            }
            let mut popped = Vec::new();
            while let Some((_, k)) = h.pop() {
                popped.push(k);
            }
            reference.sort_by(f64::total_cmp);
            prop_assert_eq!(popped, reference);
        }
    }
}
