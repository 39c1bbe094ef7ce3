//! Indexed binary min-heap with decrease-key.
//!
//! `std::collections::BinaryHeap` offers no decrease-key, which Dijkstra and
//! Prim want; this heap tracks element positions so priorities can be lowered
//! in `O(log n)` without lazy-deletion churn. Keys are `f64` by default;
//! any [`HeapKey`] order works, such as the spatial tree growth's
//! `(key, via, station)` triples.

/// A priority [`IndexedMinHeap`] orders by.
pub trait HeapKey: Copy {
    /// True when `self` must pop before `other`: a strict weak order.
    fn precedes(&self, other: &Self) -> bool;
}

impl HeapKey for f64 {
    fn precedes(&self, other: &Self) -> bool {
        self < other
    }
}

/// Min-heap over element ids `0..capacity` with keys of type `K` (by
/// default `f64`) and decrease-key. A queued element's key sits beside
/// its id in the heap array, so the heap keeps 4 B per possible id (its
/// position) plus one entry per queued element: a queue that holds a
/// few of many ids, as the spatial growth's does, stays small.
#[derive(Debug, Clone)]
pub struct IndexedMinHeap<K = f64> {
    /// Heap array of `(key, element id)` entries.
    heap: Vec<(K, u32)>,
    /// `pos[e]` = index of element `e` in `heap`, or [`ABSENT`].
    pos: Vec<u32>,
}

/// The position of an element that is not queued.
const ABSENT: u32 = u32::MAX;

/// An element id or heap index as stored: both are below the capacity,
/// which [`IndexedMinHeap::new`] keeps below `u32::MAX`.
fn narrow(i: usize) -> u32 {
    u32::try_from(i).expect("heap ids and positions fit u32 (capacity < u32::MAX)")
}

impl<K: HeapKey> IndexedMinHeap<K> {
    /// Empty heap able to hold element ids `0..capacity`; panics unless
    /// `capacity < u32::MAX`.
    pub fn new(capacity: usize) -> Self {
        assert!(
            capacity < ABSENT as usize,
            "an IndexedMinHeap holds fewer than u32::MAX ids, asked for {capacity}"
        );
        Self {
            heap: Vec::new(),
            pos: vec![ABSENT; capacity],
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
        self.contains(e).then(|| self.heap[self.pos[e] as usize].0)
    }

    /// The minimum-key element and its key, without removing it.
    pub fn peek(&self) -> Option<(usize, K)> {
        self.heap.first().map(|&(k, e)| (e as usize, k))
    }

    /// Insert `e` with the given key, or lower its key if already queued
    /// with one that `k` precedes. Returns `true` if the stored key changed.
    pub fn push_or_decrease(&mut self, e: usize, k: K) -> bool {
        if self.contains(e) {
            let i = self.pos[e] as usize;
            if k.precedes(&self.heap[i].0) {
                self.heap[i].0 = k;
                self.sift_up(i);
                true
            } else {
                false
            }
        } else {
            let i = self.heap.len();
            self.pos[e] = narrow(i);
            self.heap.push((k, narrow(e)));
            self.sift_up(i);
            true
        }
    }

    /// Pop the minimum-key element.
    pub fn pop(&mut self) -> Option<(usize, K)> {
        if self.heap.is_empty() {
            return None;
        }
        // The last entry moves to the root and sifts down.
        let (k, top) = self.heap.swap_remove(0);
        self.pos[top as usize] = ABSENT;
        if let Some(&(_, moved)) = self.heap.first() {
            self.pos[moved as usize] = 0;
            self.sift_down(0);
        }
        Some((top as usize, k))
    }

    /// True when the element at heap slot `i` must pop before slot `j`'s.
    fn before(&self, i: usize, j: usize) -> bool {
        self.heap[i].0.precedes(&self.heap[j].0)
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
        self.pos[self.heap[i].1 as usize] = narrow(i);
        self.pos[self.heap[j].1 as usize] = narrow(j);
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
    #[derive(Debug, Clone, Copy, PartialEq)]
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
