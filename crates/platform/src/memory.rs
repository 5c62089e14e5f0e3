//! Per-GPU memory management: residency, pinning, LRU bookkeeping and
//! eviction.
//!
//! Each data item is, per GPU, in one of three states: **absent** (only in
//! host memory), **loading** (a bus transfer is in flight) or **resident**.
//! Loading data and data pinned by the running / head task cannot be
//! evicted — this enforces the paper's `V(k,i) ∩ D(σ(k,i)) = ∅` rule and
//! keeps the simulation deadlock-free (a running task always completes and
//! releases its pins).
//!
//! Residency queries and victim selection are incremental: an intrusive
//! doubly-linked list keeps resident items in LRU order (a load appends
//! at the tail, a touch moves to it in O(1), the victim walk starts at
//! the head and only skips pinned items), and a resident-id bitset serves
//! [`resident`] iteration one 64-id word at a time instead of one state
//! per id, with O(1) insert and remove on every load and eviction. The
//! list is the only record of recency: no timestamps are kept. The
//! full-scan [`resident_scan`] is kept for differential tests, and the
//! tests check the list against a recency order kept on the side.
//!
//! [`resident`]: GpuMemory::resident
//! [`resident_scan`]: GpuMemory::resident_scan

use memsched_model::DataId;

/// Residency state of one data item on one GPU.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum Residency {
    /// Only in host memory.
    #[default]
    Absent,
    /// Host→GPU transfer in flight.
    Loading,
    /// Usable by tasks on this GPU.
    Resident,
}

/// Sentinel for "no neighbour" in the intrusive LRU list.
const NIL: u32 = u32::MAX;

/// Memory manager of a single GPU.
#[derive(Clone, Debug)]
pub struct GpuMemory {
    capacity: u64,
    /// Residency state per data id.
    state: Vec<Residency>,
    /// Pin count per data id (running/head-task uses + loading).
    pins: Vec<u32>,
    /// Bytes resident plus bytes reserved by in-flight loads.
    used_bytes: u64,
    /// Intrusive LRU list over **resident** items, in the order of their
    /// last load or touch: `lru_head` is the least recently used,
    /// `lru_tail` the most. A data item is linked if and only if it is
    /// `Resident`.
    lru_prev: Vec<u32>,
    lru_next: Vec<u32>,
    lru_head: u32,
    lru_tail: u32,
    /// Resident data ids as a bitset: id `i` is bit `i % 64` of word
    /// `i / 64`, so walking the words in order yields ascending ids (the
    /// iteration order of [`GpuMemory::resident`] is part of the
    /// deterministic tie-break contract relied on by the golden traces).
    resident_bits: Vec<u64>,
}

impl GpuMemory {
    /// A memory of `capacity` bytes tracking `num_data` data items.
    pub fn new(capacity: u64, num_data: usize) -> Self {
        Self {
            capacity,
            state: vec![Residency::Absent; num_data],
            pins: vec![0; num_data],
            used_bytes: 0,
            lru_prev: vec![NIL; num_data],
            lru_next: vec![NIL; num_data],
            lru_head: NIL,
            lru_tail: NIL,
            resident_bits: vec![0; num_data.div_ceil(64)],
        }
    }

    /// Capacity in bytes.
    pub fn capacity(&self) -> u64 {
        self.capacity
    }

    /// Change the capacity (fault-induced shrink / later recovery). The
    /// caller must first evict down to the new bound: shrinking below
    /// `used_bytes` would make `free_bytes` underflow.
    pub fn set_capacity(&mut self, new_capacity: u64) {
        debug_assert!(
            new_capacity >= self.used_bytes,
            "set_capacity({new_capacity}) below used_bytes ({})",
            self.used_bytes
        );
        self.capacity = new_capacity;
    }

    /// Bytes resident or reserved by in-flight transfers.
    pub fn used_bytes(&self) -> u64 {
        self.used_bytes
    }

    /// Bytes available for new loads without eviction.
    pub fn free_bytes(&self) -> u64 {
        self.capacity - self.used_bytes
    }

    /// Residency state of a data item.
    pub fn residency(&self, d: DataId) -> Residency {
        self.state[d.index()]
    }

    /// True if the data is usable by a task right now.
    pub fn is_resident(&self, d: DataId) -> bool {
        self.state[d.index()] == Residency::Resident
    }

    /// True if the data is resident or being transferred.
    pub fn is_resident_or_loading(&self, d: DataId) -> bool {
        self.state[d.index()] != Residency::Absent
    }

    /// Pin a data item (input of a running or imminent task).
    pub fn pin(&mut self, d: DataId) {
        self.pins[d.index()] += 1;
    }

    /// Release one pin.
    pub fn unpin(&mut self, d: DataId) {
        let p = &mut self.pins[d.index()];
        debug_assert!(*p > 0, "unpin of unpinned data {d}");
        *p = p.saturating_sub(1);
    }

    /// True if the data may not be evicted (pinned or in flight).
    pub fn is_pinned(&self, d: DataId) -> bool {
        self.pins[d.index()] > 0 || self.state[d.index()] == Residency::Loading
    }

    /// Unlink `i` from the LRU list. Caller guarantees `i` is linked.
    fn lru_unlink(&mut self, i: usize) {
        let (prev, next) = (self.lru_prev[i], self.lru_next[i]);
        if prev == NIL {
            self.lru_head = next;
        } else {
            self.lru_next[prev as usize] = next;
        }
        if next == NIL {
            self.lru_tail = prev;
        } else {
            self.lru_prev[next as usize] = prev;
        }
        self.lru_prev[i] = NIL;
        self.lru_next[i] = NIL;
    }

    /// Append `i` at the list tail (the most-recently-used end).
    fn lru_link_tail(&mut self, i: usize) {
        self.lru_prev[i] = self.lru_tail;
        self.lru_next[i] = NIL;
        if self.lru_tail == NIL {
            self.lru_head = i as u32;
        } else {
            self.lru_next[self.lru_tail as usize] = i as u32;
        }
        self.lru_tail = i as u32;
    }

    /// Record a use of the data (LRU bookkeeping): moves a resident item
    /// to the most-recently-used end in O(1).
    pub fn touch(&mut self, d: DataId) {
        let i = d.index();
        if self.state[i] == Residency::Resident {
            self.lru_unlink(i);
            self.lru_link_tail(i);
        }
    }

    /// Begin a host→GPU transfer: reserves the bytes and marks the data
    /// `Loading`. The caller must have ensured `free_bytes() >= size`.
    pub fn begin_load(&mut self, d: DataId, size: u64) {
        debug_assert_eq!(self.state[d.index()], Residency::Absent);
        debug_assert!(self.free_bytes() >= size, "begin_load without room");
        self.state[d.index()] = Residency::Loading;
        self.used_bytes += size;
    }

    /// Complete a transfer: the data becomes `Resident`, as the most
    /// recently used item.
    pub fn finish_load(&mut self, d: DataId) {
        let i = d.index();
        assert!(
            self.state[i] == Residency::Loading,
            "finish_load of data {d} not in flight"
        );
        self.state[i] = Residency::Resident;
        self.resident_bits[i / 64] |= 1 << (i % 64);
        self.lru_link_tail(i);
    }

    /// Evict a resident, unpinned data item, freeing its bytes.
    pub fn evict(&mut self, d: DataId, size: u64) {
        let i = d.index();
        assert!(
            self.state[i] == Residency::Resident,
            "evicting data {d} that is not resident"
        );
        debug_assert!(!self.is_pinned(d), "evicting pinned data {d}");
        self.state[i] = Residency::Absent;
        self.resident_bits[i / 64] &= !(1 << (i % 64));
        self.lru_unlink(i);
        self.used_bytes -= size;
    }

    /// The LRU victim among resident, unpinned data items: the one loaded
    /// or touched least recently. `None` when everything is pinned or
    /// absent. Walks the intrusive list from the oldest end, skipping
    /// pinned items.
    pub fn lru_victim(&self) -> Option<DataId> {
        self.lru_victim_where(|_| true)
    }

    /// The LRU victim among resident, unpinned data items also satisfying
    /// `keep` (used by the engine to protect the inputs of queued tasks).
    pub fn lru_victim_where(&self, keep: impl Fn(DataId) -> bool) -> Option<DataId> {
        let mut cur = self.lru_head;
        while cur != NIL {
            let d = DataId(cur);
            if self.pins[cur as usize] == 0 && keep(d) {
                return Some(d);
            }
            cur = self.lru_next[cur as usize];
        }
        None
    }

    /// Iterate over the resident data ids in ascending id order (part of
    /// the deterministic tie-break contract: schedulers that scan the
    /// resident set break score ties towards the smallest id).
    pub fn resident(&self) -> impl Iterator<Item = DataId> + '_ {
        ResidentIter {
            words: self.resident_bits.iter(),
            bits: 0,
            base: 0,
            next_base: 0,
        }
    }

    /// Reference implementation of [`resident`](Self::resident): full scan
    /// over all data states. Kept for differential tests.
    pub fn resident_scan(&self) -> impl Iterator<Item = DataId> + '_ {
        self.state
            .iter()
            .enumerate()
            .filter(|(_, &s)| s == Residency::Resident)
            .map(|(i, _)| DataId::from_usize(i))
    }

    /// Number of resident data items.
    pub fn resident_count(&self) -> usize {
        self.resident_bits
            .iter()
            .map(|w| w.count_ones() as usize)
            .sum()
    }
}

/// Ascending walk over the set bits of a resident-id bitset.
struct ResidentIter<'a> {
    /// Words not yet loaded.
    words: std::slice::Iter<'a, u64>,
    /// Unvisited bits of the current word.
    bits: u64,
    /// Id of bit 0 of the current word.
    base: usize,
    /// Id of bit 0 of the next word.
    next_base: usize,
}

impl Iterator for ResidentIter<'_> {
    type Item = DataId;

    #[inline]
    fn next(&mut self) -> Option<DataId> {
        while self.bits == 0 {
            self.bits = *self.words.next()?;
            self.base = self.next_base;
            self.next_base += 64;
        }
        let b = self.bits.trailing_zeros() as usize;
        self.bits &= self.bits - 1;
        Some(DataId::from_usize(self.base + b))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn d(i: u32) -> DataId {
        DataId(i)
    }

    /// Load `ids` in order.
    fn loaded(capacity: u64, num_data: usize, ids: impl IntoIterator<Item = u32>) -> GpuMemory {
        let mut m = GpuMemory::new(capacity, num_data);
        for i in ids {
            m.begin_load(d(i), 10);
            m.finish_load(d(i));
        }
        m
    }

    #[test]
    fn load_lifecycle() {
        let mut m = GpuMemory::new(100, 4);
        assert_eq!(m.residency(d(0)), Residency::Absent);
        m.begin_load(d(0), 40);
        assert_eq!(m.residency(d(0)), Residency::Loading);
        assert!(m.is_pinned(d(0)), "loading data is not evictable");
        assert_eq!(m.free_bytes(), 60);
        m.finish_load(d(0));
        assert!(m.is_resident(d(0)));
        assert_eq!(m.used_bytes(), 40);
        m.evict(d(0), 40);
        assert_eq!(m.residency(d(0)), Residency::Absent);
        assert_eq!(m.free_bytes(), 100);
    }

    #[test]
    fn pins_block_lru_victim() {
        let mut m = loaded(100, 3, 0..3);
        m.pin(d(0));
        assert_eq!(m.lru_victim(), Some(d(1)), "oldest unpinned");
        m.pin(d(1));
        assert_eq!(m.lru_victim(), Some(d(2)));
        m.pin(d(2));
        assert_eq!(m.lru_victim(), None);
        m.unpin(d(1));
        assert_eq!(m.lru_victim(), Some(d(1)));
    }

    #[test]
    fn touch_updates_lru_order() {
        let mut m = loaded(100, 2, [0, 1]);
        assert_eq!(m.lru_victim(), Some(d(0)));
        m.touch(d(0));
        assert_eq!(m.lru_victim(), Some(d(1)));
    }

    #[test]
    fn victims_follow_touch_order() {
        let m = loaded(100, 2, [1, 0]);
        // d(1) finished loading first, so it is the least recently used.
        assert_eq!(m.lru_victim(), Some(d(1)));
    }

    #[test]
    fn resident_iterator_and_count() {
        let mut m = loaded(100, 4, [2]);
        m.begin_load(d(0), 10);
        assert_eq!(m.resident_count(), 1);
        let ids: Vec<_> = m.resident().collect();
        assert_eq!(ids, vec![d(2)]);
    }

    #[test]
    fn resident_iterates_in_ascending_id_order() {
        let m = loaded(100, 5, [3, 0, 4, 1]);
        let ids: Vec<_> = m.resident().map(|x| x.0).collect();
        assert_eq!(ids, vec![0, 1, 3, 4]);
        let scan: Vec<_> = m.resident_scan().map(|x| x.0).collect();
        assert_eq!(ids, scan);
    }

    #[test]
    fn victim_walk_matches_scan_under_churn() {
        // Deterministic mixed workload: loads, touches, pins and evictions
        // interleaved. `recency` is the LRU order kept independently of
        // the intrusive list, oldest first; the list's victim must be its
        // first unpinned entry throughout. 130 ids span three bitset
        // words, the last one partial, and room for 100 of them keeps
        // loads competing with evictions.
        const N: u32 = 130;
        let mut m = GpuMemory::new(1000, N as usize);
        let mut recency: Vec<u32> = Vec::new();
        let mut last_word_used = false;
        for step in 0u32..2000 {
            let i = (step * 7 + 3) % N;
            match m.residency(d(i)) {
                Residency::Absent if m.free_bytes() >= 10 => {
                    m.begin_load(d(i), 10);
                    m.finish_load(d(i));
                    recency.push(i);
                }
                Residency::Resident => {
                    if step % 5 == 0 && !m.is_pinned(d(i)) {
                        m.evict(d(i), 10);
                        recency.retain(|&x| x != i);
                    } else if step % 3 == 0 {
                        m.touch(d(i));
                        recency.retain(|&x| x != i);
                        recency.push(i);
                    } else if step % 7 == 0 {
                        m.pin(d(i));
                    }
                }
                _ => {}
            }
            if step % 11 == 10 {
                // Release one arbitrary pin if any.
                if let Some(j) = (0..N as usize).find(|&j| m.pins[j] > 0) {
                    m.unpin(d(j as u32));
                }
            }
            let oldest_unpinned = recency.iter().map(|&x| d(x)).find(|&x| !m.is_pinned(x));
            assert_eq!(m.lru_victim(), oldest_unpinned, "step {step}");
            let fast: Vec<_> = m.resident().collect();
            let slow: Vec<_> = m.resident_scan().collect();
            assert_eq!(fast, slow, "step {step}");
            assert_eq!(m.resident_count(), slow.len(), "step {step}");
            assert_eq!(recency.len(), slow.len(), "step {step}");
            last_word_used |= slow.last().is_some_and(|x| x.0 >= 128);
        }
        assert!(last_word_used, "the partial last word was never walked");
    }

    #[test]
    #[should_panic(expected = "not in flight")]
    fn double_finish_load_panics() {
        let mut m = loaded(100, 1, [0]);
        m.finish_load(d(0));
    }

    #[test]
    #[should_panic(expected = "not resident")]
    fn evicting_absent_data_panics() {
        let mut m = GpuMemory::new(100, 1);
        m.evict(d(0), 10);
    }

    #[test]
    fn lru_victim_where_respects_filter() {
        let m = loaded(100, 3, 0..3);
        assert_eq!(m.lru_victim_where(|_| true), Some(d(0)));
        assert_eq!(m.lru_victim_where(|x| x != d(0)), Some(d(1)));
        assert_eq!(m.lru_victim_where(|x| x == d(2)), Some(d(2)));
        assert_eq!(m.lru_victim_where(|_| false), None);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "begin_load without room")]
    fn over_reserving_panics_in_debug() {
        let mut m = GpuMemory::new(10, 1);
        m.begin_load(d(0), 20);
    }
}
