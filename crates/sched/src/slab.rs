//! [`SeqSlab`]: a sequence-indexed slab for in-flight pipeline state
//! (the simulator core's in-flight table and the [`WakeFabric`]'s
//! entries).
//!
//! [`WakeFabric`]: crate::WakeFabric
//!
//! The core assigns sequence numbers densely and monotonically at rename
//! and retires them from exactly two ends: commit removes the *oldest*
//! entries and squash removes the *youngest*. That access pattern means a
//! `HashMap<u64, Inflight>` — which the seed simulator used — pays for
//! hashing, probing, and pointer-chasing on every one of the several
//! lookups the pipeline does per μop per cycle, while the live keys are
//! always (nearly) one contiguous range.
//!
//! `SeqSlab` exploits the pattern directly: entries live in a `VecDeque`
//! at offset `seq - base`, so every lookup is one bounds check plus one
//! indexed load. The only discontiguity arises after a memory-order
//! squash, when the flushed tail's sequence numbers are never reissued
//! (the core keeps `next_seq` monotonic so age comparisons stay valid
//! everywhere); the first insert after a squash back-fills the gap with
//! empty slots, bounded by the ROB size and amortized over the squash
//! penalty itself.

use std::collections::VecDeque;

/// A slab keyed by dense, monotonically allocated sequence numbers.
///
/// Insertions must be in increasing `seq` order (gaps allowed); removals
/// may target any live entry but in practice hit the two ends. Lookup is
/// O(1); removal is O(1) plus end compaction.
#[derive(Debug)]
pub struct SeqSlab<T> {
    /// Sequence number of `slots[0]`.
    base: u64,
    slots: VecDeque<Option<T>>,
    live: usize,
}

impl<T> Default for SeqSlab<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> SeqSlab<T> {
    /// Creates an empty slab.
    pub fn new() -> Self {
        SeqSlab {
            base: 0,
            slots: VecDeque::new(),
            live: 0,
        }
    }

    /// Number of live entries.
    pub fn len(&self) -> usize {
        self.live
    }

    /// Whether the slab holds no entries.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    fn index_of(&self, seq: u64) -> Option<usize> {
        if seq < self.base {
            return None;
        }
        let idx = (seq - self.base) as usize;
        (idx < self.slots.len()).then_some(idx)
    }

    /// Whether `seq` maps to a live entry.
    #[inline]
    pub fn contains(&self, seq: u64) -> bool {
        self.index_of(seq).is_some_and(|i| self.slots[i].is_some())
    }

    /// Shared access to the entry for `seq`.
    #[inline]
    pub fn get(&self, seq: u64) -> Option<&T> {
        self.index_of(seq).and_then(|i| self.slots[i].as_ref())
    }

    /// Mutable access to the entry for `seq`.
    #[inline]
    pub fn get_mut(&mut self, seq: u64) -> Option<&mut T> {
        match self.index_of(seq) {
            Some(i) => self.slots[i].as_mut(),
            None => None,
        }
    }

    /// Inserts `value` at `seq`.
    ///
    /// # Panics
    ///
    /// Panics if `seq` is not strictly above every sequence number ever
    /// inserted (the slab relies on monotonic allocation).
    pub fn insert(&mut self, seq: u64, value: T) {
        if self.slots.is_empty() {
            self.base = seq;
        }
        let next = self.base + self.slots.len() as u64;
        assert!(
            seq >= next,
            "SeqSlab insert out of order: seq {seq} < next {next}"
        );
        // Back-fill the post-squash gap (flushed seqs are never reused).
        for _ in next..seq {
            self.slots.push_back(None);
        }
        self.slots.push_back(Some(value));
        self.live += 1;
    }

    /// Iterates over live entries in sequence order.
    pub fn values(&self) -> impl Iterator<Item = &T> {
        self.slots.iter().filter_map(Option::as_ref)
    }

    /// Iterates over live `(seq, entry)` pairs in sequence order.
    pub fn iter(&self) -> impl Iterator<Item = (u64, &T)> {
        let base = self.base;
        self.slots
            .iter()
            .enumerate()
            .filter_map(move |(i, s)| s.as_ref().map(|v| (base + i as u64, v)))
    }

    /// The youngest live sequence number (end compaction keeps the last
    /// slot live).
    pub fn last_seq(&self) -> Option<u64> {
        (self.live > 0).then(|| self.base + self.slots.len() as u64 - 1)
    }

    /// Removes and returns the entry for `seq`, compacting empty slots at
    /// both ends so the slab tracks the live window.
    pub fn remove(&mut self, seq: u64) -> Option<T> {
        let idx = self.index_of(seq)?;
        let value = self.slots[idx].take()?;
        self.live -= 1;
        self.compact();
        Some(value)
    }

    /// Removes the entry for `seq`, dropping it in place instead of
    /// moving it out. Callers that have already copied the fields they
    /// need (commit) avoid moving the whole entry off the slab. Returns
    /// whether an entry was removed.
    pub fn discard(&mut self, seq: u64) -> bool {
        let Some(idx) = self.index_of(seq) else {
            return false;
        };
        if self.slots[idx].is_none() {
            return false;
        }
        self.slots[idx] = None;
        self.live -= 1;
        self.compact();
        true
    }

    fn compact(&mut self) {
        while matches!(self.slots.front(), Some(None)) {
            self.slots.pop_front();
            self.base += 1;
        }
        while matches!(self.slots.back(), Some(None)) {
            self.slots.pop_back();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_get_remove_fifo() {
        let mut s = SeqSlab::new();
        for seq in 1..=8u64 {
            s.insert(seq, seq * 10);
        }
        assert_eq!(s.len(), 8);
        assert_eq!(s.get(3), Some(&30));
        assert!(s.contains(8));
        assert!(!s.contains(0));
        assert!(!s.contains(9));
        for seq in 1..=8u64 {
            assert_eq!(s.remove(seq), Some(seq * 10));
            assert_eq!(s.remove(seq), None);
        }
        assert!(s.is_empty());
    }

    #[test]
    fn squash_gap_backfills() {
        let mut s = SeqSlab::new();
        for seq in 1..=10u64 {
            s.insert(seq, seq);
        }
        // Squash: remove the youngest 6 (seqs 5..=10), as a ROB walk does.
        for seq in (5..=10u64).rev() {
            assert_eq!(s.remove(seq), Some(seq));
        }
        assert_eq!(s.len(), 4);
        // Refetched work gets fresh seqs; 5..=10 are dead forever.
        s.insert(11, 11);
        for seq in 5..=10u64 {
            assert!(!s.contains(seq), "flushed seq {seq} must stay dead");
            assert_eq!(s.get(seq), None);
        }
        assert_eq!(s.get(11), Some(&11));
        assert_eq!(s.get(4), Some(&4));
        assert_eq!(s.last_seq(), Some(11));
        let live: Vec<u64> = s.iter().map(|(seq, &v)| seq ^ v).collect();
        assert_eq!(live, [0; 5], "iter pairs each entry with its seq");
        // Oldest-first commits drain across the gap.
        for seq in 1..=4u64 {
            assert_eq!(s.remove(seq), Some(seq));
        }
        assert_eq!(s.remove(11), Some(11));
        assert!(s.is_empty());
        assert_eq!(s.last_seq(), None);
    }

    #[test]
    fn mutation_through_get_mut() {
        let mut s = SeqSlab::new();
        s.insert(7, String::from("a"));
        s.get_mut(7).unwrap().push('b');
        assert_eq!(s.get(7).map(String::as_str), Some("ab"));
        assert!(s.get_mut(6).is_none());
    }

    #[test]
    fn drain_then_reuse_keeps_old_seqs_dead() {
        let mut s = SeqSlab::new();
        s.insert(1, 1);
        s.insert(2, 2);
        s.remove(2);
        s.remove(1);
        assert!(s.is_empty());
        s.insert(40, 40);
        assert!(!s.contains(1));
        assert!(!s.contains(2));
        assert!(s.contains(40));
    }

    #[test]
    fn matches_reference_hashmap_under_pipeline_pattern() {
        use ballerino_isa::rng::Rng64;
        use std::collections::HashMap;
        let mut rng = Rng64::new(99);
        let mut s = SeqSlab::new();
        let mut model: HashMap<u64, u64> = HashMap::new();
        let mut next_seq = 1u64;
        let mut live: VecDeque<u64> = VecDeque::new();
        for _ in 0..20_000 {
            match rng.index(4) {
                // Allocate (dispatch).
                0 | 1 => {
                    let seq = next_seq;
                    next_seq += 1;
                    s.insert(seq, seq ^ 0xABCD);
                    model.insert(seq, seq ^ 0xABCD);
                    live.push_back(seq);
                }
                // Commit the oldest.
                2 => {
                    if let Some(seq) = live.pop_front() {
                        assert_eq!(s.remove(seq), model.remove(&seq));
                    }
                }
                // Squash a random-length tail.
                _ => {
                    let n = rng.index(4) + 1;
                    for _ in 0..n {
                        let Some(seq) = live.pop_back() else { break };
                        assert_eq!(s.remove(seq), model.remove(&seq));
                    }
                }
            }
            assert_eq!(s.len(), model.len());
            let probe = rng.below(next_seq.max(2));
            assert_eq!(s.get(probe), model.get(&probe));
        }
    }
}
