//! The engine's event queue: an adaptive calendar (bucket-wheel) queue.
//!
//! The discrete-event loop pops the globally minimal `(time, seq)` pair and
//! pushes events at or after the current time. A binary heap does this in
//! O(log n) with a comparison-heavy inner loop; the calendar queue does it
//! in amortized O(1) by hashing each event's timestamp into a power-of-two
//! ring of buckets of width `2^shift` nanoseconds and draining buckets in
//! time order. The implementation here is tuned for determinism first:
//!
//! * **Total order.** Items are `(time, seq, payload)` with a unique,
//!   monotonically increasing `seq`, so `(time, seq)` is a total order and
//!   the payload never participates in comparisons — exactly the order the
//!   pre-refactor `BinaryHeap<Reverse<_>>` produced. The differential
//!   proptests in this module and in `tests/differential_naive.rs` pin the
//!   two implementations to identical pop streams.
//!
//! * **Ordering argument.** Every ring item lives in an absolute bucket
//!   `b = time >> shift` within the cursor window `[cur, cur + nslots)`;
//!   two in-window buckets can never share a slot (they would differ by
//!   `nslots`, which puts one outside the window), so draining slots in
//!   cursor order visits buckets in increasing time order. The cursor slot
//!   itself is lazily sorted descending by `(time, seq)` and popped from
//!   the back; pushes that land in the already-sorted cursor slot are
//!   binary-search inserted. Items at or beyond the window's end go to an
//!   unsorted overflow list whose minimal `(time, seq)` is tracked on
//!   push; the ring minimum is the global minimum as long as the cursor
//!   sits strictly below the overflow minimum's bucket. A pop rebuilds
//!   when the ring has drained. Otherwise it finds the next occupied slot
//!   at or after the cursor's, in ring order, from a one-bit-per-slot
//!   occupancy bitmap, and jumps the cursor to that slot's bucket — the
//!   bucket a walk through the empty slots one at a time would stop at.
//!   If the overflow minimum's bucket is at or before that bucket, the
//!   walk would have reached it first, so the pop rebuilds instead of
//!   jumping. `rebuild` gathers ring and overflow alike and redistributes
//!   them around a freshly chosen `(nslots, shift)` sized so the whole
//!   time spread fits inside the new window (leaving the overflow empty).
//!   The overflow check is what makes the overflow safe: a push *after*
//!   the cursor has advanced may land in a ring bucket beyond an overflow
//!   item's bucket, so overflow timestamps do not in general exceed ring
//!   timestamps — but the cursor must pass the overflow minimum's bucket
//!   before reaching any such ring item, and the rebuild fires exactly
//!   there.
//!
//! * **Past-due pushes.** A push whose bucket falls below the cursor
//!   (possible when the cursor bucket is partially drained) is clamped
//!   into the cursor slot; its timestamp is below `(cur + 1) << shift`, so
//!   sorted insertion keeps it ahead of every later bucket and correctly
//!   ordered within the cursor slot.
//!
//! Slot vectors are recycled across pushes and pops, so the steady-state
//! engine loop performs no allocation at all; perfbench's `host.allocs`
//! metric counts what a whole run allocates.

use crate::spec::Nanos;

/// Queue item: `(time, seq, payload)`, ordered by `(time, seq)`.
pub(crate) type Item<T> = (Nanos, u64, T);

const MIN_SLOTS: usize = 256;
const MAX_SLOTS: usize = 1 << 16;

/// The engine's event queue. Runtime-selects the pre-refactor binary heap
/// (compiled in by the `naive` feature) or the calendar queue; both pop
/// the identical `(time, seq)` stream.
pub(crate) struct EventQueue<T> {
    imp: Imp<T>,
}

enum Imp<T> {
    Calendar(Calendar<T>),
    #[cfg(feature = "naive")]
    Heap(std::collections::BinaryHeap<std::cmp::Reverse<Item<T>>>),
}

impl<T: Copy + Ord> EventQueue<T> {
    pub(crate) fn new(naive: bool) -> Self {
        #[cfg(feature = "naive")]
        if naive {
            return Self {
                imp: Imp::Heap(std::collections::BinaryHeap::new()),
            };
        }
        #[cfg(not(feature = "naive"))]
        let _ = naive;
        Self {
            imp: Imp::Calendar(Calendar::new()),
        }
    }

    #[inline]
    pub(crate) fn push(&mut self, at: Nanos, seq: u64, payload: T) {
        let it = (at, seq, payload);
        match &mut self.imp {
            Imp::Calendar(c) => c.push(it),
            #[cfg(feature = "naive")]
            Imp::Heap(h) => h.push(std::cmp::Reverse(it)),
        }
    }

    #[inline]
    pub(crate) fn pop(&mut self) -> Option<Item<T>> {
        match &mut self.imp {
            Imp::Calendar(c) => c.pop(),
            #[cfg(feature = "naive")]
            Imp::Heap(h) => h.pop().map(|std::cmp::Reverse(it)| it),
        }
    }
}

struct Calendar<T> {
    /// Power-of-two ring of buckets; slot vectors are recycled, never freed.
    slots: Vec<Vec<Item<T>>>,
    /// One bit per slot, set while the slot holds an item: slot `i` is
    /// bit `i % 64` of word `i / 64`. The ring has at least 64 slots, so
    /// the words cover it exactly.
    occupied: Vec<u64>,
    mask: u64,
    /// Bucket width is `2^shift` nanoseconds.
    shift: u32,
    /// Absolute bucket index of the cursor: every ring item's bucket lies
    /// in `[cur, cur + slots.len())`.
    cur: u64,
    /// Whether the cursor's slot has been sorted (descending by
    /// `(time, seq)`, popped from the back).
    cur_sorted: bool,
    /// Items currently in the ring (the rest are in `overflow`).
    ring_len: usize,
    /// Items at or beyond the window's end, redistributed on `rebuild`.
    overflow: Vec<Item<T>>,
    /// Minimal `(time, seq)` in `overflow`; sentinel `MAX` when empty.
    overflow_min: (Nanos, u64),
    len: usize,
}

impl<T: Copy> Calendar<T> {
    fn new() -> Self {
        Self {
            slots: (0..MIN_SLOTS).map(|_| Vec::new()).collect(),
            occupied: vec![0; MIN_SLOTS / 64],
            mask: MIN_SLOTS as u64 - 1,
            // ~4µs buckets until the first adaptive rebuild re-derives the
            // width from the live time spread.
            shift: 12,
            cur: 0,
            cur_sorted: false,
            ring_len: 0,
            overflow: Vec::new(),
            overflow_min: (Nanos::MAX, u64::MAX),
            len: 0,
        }
    }

    fn push(&mut self, it: Item<T>) {
        self.len += 1;
        let b = (it.0 >> self.shift).max(self.cur);
        if b >= self.cur + self.slots.len() as u64 {
            self.overflow_min = self.overflow_min.min((it.0, it.1));
            self.overflow.push(it);
            return;
        }
        let idx = (b & self.mask) as usize;
        self.occupied[idx / 64] |= 1 << (idx % 64);
        let slot = &mut self.slots[idx];
        if b == self.cur && self.cur_sorted {
            let pos = slot.partition_point(|x| (x.0, x.1) > (it.0, it.1));
            slot.insert(pos, it);
        } else {
            slot.push(it);
        }
        self.ring_len += 1;
    }

    fn pop(&mut self) -> Option<Item<T>> {
        if self.len == 0 {
            return None;
        }
        if self.ring_len == 0 {
            self.rebuild();
        }
        // Jump to the bucket of the next occupied slot, unless the
        // overflow minimum's bucket comes first: from there on a ring pop
        // could overtake an overflow item (see the module ordering
        // argument). A rebuild leaves the minimum in the cursor's slot.
        let mut next = self.cur + self.next_occupied();
        if self.overflow_min.0 >> self.shift <= next {
            self.rebuild();
            next = self.cur;
        }
        if next != self.cur {
            self.cur = next;
            self.cur_sorted = false;
        }
        let idx = (self.cur & self.mask) as usize;
        let slot = &mut self.slots[idx];
        if !self.cur_sorted {
            slot.sort_unstable_by_key(|it| std::cmp::Reverse((it.0, it.1)));
            self.cur_sorted = true;
        }
        let it = slot.pop().expect("cursor slot is non-empty");
        if slot.is_empty() {
            self.occupied[idx / 64] &= !(1 << (idx % 64));
        }
        self.ring_len -= 1;
        self.len -= 1;
        Some(it)
    }

    /// How many slots past the cursor's the next occupied slot lies, in
    /// ring order (0 when the cursor's slot is occupied). The ring must
    /// hold an item.
    fn next_occupied(&self) -> u64 {
        let idx = (self.cur & self.mask) as usize;
        let first = idx / 64;
        let ahead = self.occupied[first] & (!0u64 << (idx % 64));
        if ahead != 0 {
            return (first * 64 + ahead.trailing_zeros() as usize - idx) as u64;
        }
        // The other words in ring order, then the bits of the first word
        // below the cursor's (those at or above it are clear).
        let words = self.occupied.len();
        let n = self.slots.len();
        (1..=words)
            .map(|i| (first + i) % words)
            .find_map(|w| {
                let bits = self.occupied[w];
                (bits != 0)
                    .then(|| ((w * 64 + bits.trailing_zeros() as usize + n - idx) % n) as u64)
            })
            .expect("the ring holds an item")
    }

    /// Gather every live item (ring and overflow) and re-center the wheel
    /// on them, re-deriving the slot count from the item count and
    /// widening buckets until the time spread fits strictly inside the
    /// window — so the overflow is empty afterwards. Rebuilding lazily on
    /// drain or overflow-due (instead of on occupancy thresholds) keeps
    /// the steady state reshuffle-free. The gathering vector is the
    /// overflow's own buffer, drained and handed back, so later overflow
    /// pushes reuse its capacity.
    fn rebuild(&mut self) {
        debug_assert!(self.len > 0 && !self.overflow.is_empty());
        let mut items = std::mem::take(&mut self.overflow);
        self.overflow_min = (Nanos::MAX, u64::MAX);
        if self.ring_len > 0 {
            for slot in &mut self.slots {
                items.append(slot);
            }
        }
        let mut min_t = Nanos::MAX;
        let mut max_t = 0;
        for it in &items {
            min_t = min_t.min(it.0);
            max_t = max_t.max(it.0);
        }
        let want = items.len().next_power_of_two().clamp(MIN_SLOTS, MAX_SLOTS);
        if want > self.slots.len() {
            self.slots.resize_with(want, Vec::new);
        } else {
            self.slots.truncate(want);
        }
        self.occupied.clear();
        self.occupied.resize(want / 64, 0);
        self.mask = want as u64 - 1;
        let n = want as u64;
        let mut shift = 0u32;
        while (max_t >> shift) - (min_t >> shift) >= n - 1 {
            shift += 1;
        }
        self.shift = shift;
        self.cur = min_t >> shift;
        self.cur_sorted = false;
        for it in items.drain(..) {
            let b = it.0 >> shift;
            debug_assert!(b >= self.cur && b < self.cur + n);
            let idx = (b & self.mask) as usize;
            self.occupied[idx / 64] |= 1 << (idx % 64);
            self.slots[idx].push(it);
        }
        self.overflow = items;
        self.ring_len = self.len;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Reference model: pop the minimal `(time, seq)` from a flat vector.
    struct Model(Vec<Item<u32>>);

    impl Model {
        fn push(&mut self, it: Item<u32>) {
            self.0.push(it);
        }
        fn pop(&mut self) -> Option<Item<u32>> {
            let i = self
                .0
                .iter()
                .enumerate()
                .min_by_key(|(_, it)| (it.0, it.1))?
                .0;
            Some(self.0.swap_remove(i))
        }
    }

    fn check_stream(ops: &[(bool, Nanos)]) {
        let mut q = Calendar::new();
        let mut model = Model(Vec::new());
        let mut seq = 0u64;
        let mut now = 0u64;
        for &(push, dt) in ops {
            if push {
                seq += 1;
                // The engine never schedules into the past.
                q.push((now + dt, seq, seq as u32));
                model.push((now + dt, seq, seq as u32));
            } else {
                let got = q.pop();
                let want = model.pop();
                assert_eq!(got, want);
                if let Some((t, _, _)) = got {
                    now = t;
                }
            }
        }
        loop {
            let got = q.pop();
            let want = model.pop();
            assert_eq!(got, want);
            if got.is_none() {
                break;
            }
        }
    }

    #[test]
    fn interleaved_matches_model() {
        // Near-term, far-future (overflow + rebuild), and same-time ties.
        let ops: Vec<(bool, Nanos)> = vec![
            (true, 5),
            (true, 5),
            (true, 0),
            (false, 0),
            (true, 1 << 30),
            (true, 3),
            (false, 0),
            (false, 0),
            (true, 1 << 40),
            (false, 0),
            (true, 2),
            (true, 2),
            (false, 0),
            (false, 0),
            (false, 0),
        ];
        check_stream(&ops);
    }

    #[test]
    fn empty_pops_none() {
        let mut q: Calendar<u32> = Calendar::new();
        assert_eq!(q.pop(), None);
        q.push((7, 1, 9));
        assert_eq!(q.pop(), Some((7, 1, 9)));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn rebuild_recenters_far_future() {
        let mut q: Calendar<u32> = Calendar::new();
        // Spread far beyond the initial 256-slot / 4µs window.
        for i in 0..1000u64 {
            q.push((i * 10_000_000, i + 1, i as u32));
        }
        for i in 0..1000u64 {
            assert_eq!(q.pop(), Some((i * 10_000_000, i + 1, i as u32)));
        }
        assert_eq!(q.pop(), None);
    }

    /// Regression: an overflow item must not be overtaken by ring items
    /// pushed after the cursor advanced past the original window.
    #[test]
    fn overflow_item_not_overtaken_by_later_ring_pushes() {
        let mut q: Calendar<u32> = Calendar::new();
        // Initial wheel: 256 slots × 2^12 ns, window [0, 256). Bucket 200
        // lands in the ring, bucket 400 in the overflow.
        q.push((200 << 12, 1, 0));
        q.push((400 << 12, 2, 1));
        assert_eq!(q.pop(), Some((200 << 12, 1, 0)));
        // Window [200, 456): bucket 300 enters the ring, and popping it
        // moves the cursor to slot 44 without a rebuild.
        q.push((300 << 12, 3, 2));
        assert_eq!(q.pop(), Some((300 << 12, 3, 2)));
        // Window [300, 556): bucket 450 sits in slot 194, ahead of the
        // cursor's slot without wrapping, and beyond the overflow item's
        // bucket 400, which must still pop first.
        q.push((450 << 12, 4, 3));
        assert_eq!(q.pop(), Some((400 << 12, 2, 1)));
        assert_eq!(q.pop(), Some((450 << 12, 4, 3)));
        assert_eq!(q.pop(), None);
    }

    /// The cursor jumps over empty slots, wrapping around the ring, and
    /// stops for a rebuild where the overflow minimum's bucket comes
    /// before the next occupied slot.
    #[test]
    fn jump_wraps_around_and_stops_at_the_overflow_minimum() {
        let mut q: Calendar<u32> = Calendar::new();
        // Initial wheel: 256 slots × 2^12 ns, window [0, 256). Bucket
        // 600 goes to the overflow.
        q.push((250 << 12, 1, 0));
        q.push((600 << 12, 2, 1));
        assert_eq!(q.pop(), Some((250 << 12, 1, 0)));
        // Window [250, 506): bucket 500 sits in slot 244, below the
        // cursor's slot 250, so the jump wraps around the ring.
        q.push((500 << 12, 3, 2));
        assert_eq!(q.pop(), Some((500 << 12, 3, 2)));
        // Window [500, 756): bucket 650 enters the ring beyond the
        // overflow item's bucket 600, which must still pop first.
        q.push((650 << 12, 4, 3));
        assert_eq!(q.pop(), Some((600 << 12, 2, 1)));
        assert_eq!(q.pop(), Some((650 << 12, 4, 3)));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn past_due_push_after_partial_drain() {
        let mut q: Calendar<u32> = Calendar::new();
        // Two items in the same bucket; drain one, then push between them.
        q.push((100, 1, 0));
        q.push((300, 2, 1));
        assert_eq!(q.pop(), Some((100, 1, 0)));
        q.push((200, 3, 2));
        assert_eq!(q.pop(), Some((200, 3, 2)));
        assert_eq!(q.pop(), Some((300, 2, 1)));
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(64))]

        #[test]
        fn calendar_matches_model(
            ops in proptest::collection::vec(
                (proptest::prelude::any::<bool>(), 0u64..1 << 34), 1..400)
        ) {
            check_stream(&ops);
        }
    }
}
