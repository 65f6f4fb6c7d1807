//! An intrusive doubly-linked recency list over pool slots.
//!
//! Used by HiNFS as the global **LRW** (least recently written) list and by
//! the block-based baselines as the page cache's **LRU** list. Links are
//! slot indices into a fixed pool, so every operation is O(1) and
//! allocation-free. The *tail* is the eviction end (least recent); the
//! *head* is the most recent.

/// Sentinel for "no slot".
pub const NIL: u32 = u32::MAX;

/// Intrusive doubly-linked recency list.
#[derive(Debug)]
pub struct RecencyList {
    prev: Vec<u32>,
    next: Vec<u32>,
    head: u32,
    tail: u32,
    len: usize,
}

impl RecencyList {
    /// Creates a list over a pool of `capacity` slots, all unlinked.
    pub fn new(capacity: usize) -> RecencyList {
        RecencyList {
            prev: vec![NIL; capacity],
            next: vec![NIL; capacity],
            head: NIL,
            tail: NIL,
            len: 0,
        }
    }

    /// Extends the pool to `capacity` slots, the new ones unlinked.
    pub fn grow(&mut self, capacity: usize) {
        self.prev.resize(capacity, NIL);
        self.next.resize(capacity, NIL);
    }

    /// Number of linked slots.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no slot is linked.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The least-recent slot (eviction candidate), if any.
    pub fn tail(&self) -> Option<u32> {
        (self.tail != NIL).then_some(self.tail)
    }

    /// The most-recent slot, if any.
    pub fn head(&self) -> Option<u32> {
        (self.head != NIL).then_some(self.head)
    }

    fn assert_unlinked(&self, slot: u32) {
        debug_assert!(
            self.prev[slot as usize] == NIL
                && self.next[slot as usize] == NIL
                && self.head != slot
                && self.tail != slot,
            "slot {slot} already linked"
        );
    }

    /// Links `slot` at the most-recent end.
    pub fn push_head(&mut self, slot: u32) {
        self.assert_unlinked(slot);
        self.prev[slot as usize] = NIL;
        self.next[slot as usize] = self.head;
        if self.head != NIL {
            self.prev[self.head as usize] = slot;
        }
        self.head = slot;
        if self.tail == NIL {
            self.tail = slot;
        }
        self.len += 1;
    }

    /// Unlinks `slot` from wherever it is.
    pub fn unlink(&mut self, slot: u32) {
        let p = self.prev[slot as usize];
        let n = self.next[slot as usize];
        if p != NIL {
            self.next[p as usize] = n;
        } else {
            debug_assert_eq!(self.head, slot, "unlinking a slot that is not linked");
            self.head = n;
        }
        if n != NIL {
            self.prev[n as usize] = p;
        } else {
            debug_assert_eq!(self.tail, slot, "unlinking a slot that is not linked");
            self.tail = p;
        }
        self.prev[slot as usize] = NIL;
        self.next[slot as usize] = NIL;
        self.len -= 1;
    }

    /// Moves `slot` to the most-recent end (it must be linked).
    pub fn touch(&mut self, slot: u32) {
        if self.head == slot {
            return;
        }
        self.unlink(slot);
        self.push_head(slot);
    }

    /// Iterates slots from least-recent to most-recent.
    pub fn iter_from_tail(&self) -> RecencyIter<'_> {
        RecencyIter {
            list: self,
            cur: self.tail,
        }
    }

    /// The slot one step more recent than `slot`, if any.
    pub fn more_recent(&self, slot: u32) -> Option<u32> {
        let p = self.prev[slot as usize];
        (p != NIL).then_some(p)
    }
}

/// Iterator from the least-recent end towards the most-recent.
pub struct RecencyIter<'a> {
    list: &'a RecencyList,
    cur: u32,
}

impl Iterator for RecencyIter<'_> {
    type Item = u32;

    fn next(&mut self) -> Option<u32> {
        if self.cur == NIL {
            return None;
        }
        let out = self.cur;
        self.cur = self.list.prev[self.cur as usize];
        Some(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_order_is_recency_order() {
        let mut l = RecencyList::new(8);
        l.push_head(0);
        l.push_head(1);
        l.push_head(2);
        assert_eq!(l.tail(), Some(0));
        assert_eq!(l.head(), Some(2));
        assert_eq!(l.iter_from_tail().collect::<Vec<_>>(), vec![0, 1, 2]);
    }

    #[test]
    fn touch_moves_to_head() {
        let mut l = RecencyList::new(8);
        for s in 0..4 {
            l.push_head(s);
        }
        l.touch(0);
        assert_eq!(l.tail(), Some(1));
        assert_eq!(l.head(), Some(0));
        assert_eq!(l.iter_from_tail().collect::<Vec<_>>(), vec![1, 2, 3, 0]);
        l.touch(0);
        assert_eq!(l.len(), 4);
    }

    #[test]
    fn unlink_middle_head_tail() {
        let mut l = RecencyList::new(8);
        for s in 0..5 {
            l.push_head(s);
        }
        l.unlink(2);
        l.unlink(0);
        l.unlink(4);
        assert_eq!(l.iter_from_tail().collect::<Vec<_>>(), vec![1, 3]);
        assert_eq!(l.len(), 2);
        l.push_head(0);
        assert_eq!(l.head(), Some(0));
    }

    #[test]
    fn single_element_lifecycle() {
        let mut l = RecencyList::new(2);
        assert!(l.is_empty());
        assert_eq!(l.tail(), None);
        l.push_head(1);
        assert_eq!(l.tail(), Some(1));
        assert_eq!(l.head(), Some(1));
        l.unlink(1);
        assert!(l.is_empty());
    }

    #[test]
    fn more_recent_walks_towards_head() {
        let mut l = RecencyList::new(4);
        l.push_head(3);
        l.push_head(1);
        l.push_head(2);
        assert_eq!(l.more_recent(3), Some(1));
        assert_eq!(l.more_recent(1), Some(2));
        assert_eq!(l.more_recent(2), None);
    }
}
