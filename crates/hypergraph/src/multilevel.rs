//! Multilevel bisection: heavy-connectivity coarsening, randomized greedy
//! initial partitioning and Fiduccia–Mattheyses refinement.
//!
//! This is the classic hMETIS recipe (Karypis & Kumar): repeatedly contract
//! pairs of vertices that share many nets until the hypergraph is small,
//! bisect the small hypergraph, then project the bisection back level by
//! level, running FM at each level to repair the cut.
//!
//! The default [`bisect`] is index-accelerated but **decision-equivalent**
//! to the original implementation (kept compilable behind the `naive`
//! feature as [`bisect_naive`], proved by the partition differential
//! proptests in the workspace root):
//!
//! * FM persists `side_pins` / part weights across passes and rolls the
//!   rejected move tail back by counter deltas instead of rebuilding both
//!   from scratch every pass; exact per-vertex gains are maintained with
//!   the standard FM boundary-case delta rules (only nets whose side
//!   counts cross 0/1/2 touch their pins), so each pass starts its heap
//!   from stored gains and the pop loop re-pushes an entry only when the
//!   vertex's gain actually changed — value-identical to the naive
//!   unconditional pushes, whose extra entries are duplicates of live
//!   ones and therefore indistinguishable to the heap. Only boundary
//!   nets are scanned for those pushes unless a net above
//!   `MAX_MATCH_NET` pins moved a gain earlier in the pass, the one way a
//!   queued gain can go stale outside the net being updated. Its vectors
//!   are allocated once per bisection, for the finest level;
//! * FM ends a pass once no later prefix can beat the best one. Nets with
//!   locked pins on both sides stay cut until the pass ends, since locked
//!   vertices (moved, or held in place by the balance caps) do not move
//!   again; so every later prefix gains at most the pass-start cut minus
//!   their weight. When that bound is no more than the best gain, no
//!   later prefix can replace the best, which takes a strictly larger
//!   gain. The rollback restores that same prefix either way, and the
//!   heap, `cached` and `locked` are rebuilt every pass, so the next pass
//!   starts from the same state;
//! * `coarsen_once` reuses its scratch across levels and the level stack
//!   does not clone each coarse hypergraph. It picks each partner by one
//!   of two paths, both exact, and reads the level's [`LevelSetup`] (net
//!   weights, path and index), which depends on the hypergraph alone, so
//!   `partition` builds its top level's once for all restarts;
//! * on a *sparse* level it indexes the pairs of nets of at most
//!   `MAX_MATCH_NET` pins (*small* nets) that share two or more vertices,
//!   listing those vertices. The partner of `v` is then the largest
//!   `(score, u)` among two candidate sets: per small net `e` of `v`,
//!   `(match_weight(e), highest unmatched pin of e other than v)`, from a
//!   pointer that walks `e`'s ascending row down past matched pins; and
//!   each unmatched `u ≠ v` listed by a pair of `v`'s small nets, with its
//!   exact score, summed over the nets of `u` stamped as `v`'s. That is
//!   the scan's partner. A neighbour sharing two or more small nets with
//!   `v` lies in the list of a pair of them, with its exact score. One
//!   sharing a single net `e` scores `match_weight(e)`, and `e`'s pointer
//!   candidate has that score and a pin at least as large. And no
//!   candidate's key exceeds the exact key of its own pin. On a *linear*
//!   level (no two small nets share two vertices), such as the finest
//!   level of every task hypergraph the figures partition, the index is
//!   empty and matching is the pointer walk alone, `O(pins)` per level
//!   instead of `O(Σ |e|²)`. A level is sparse when building the index
//!   reads no more net ids (`Σ deg(v)²` bounds it) than a full-pin scan
//!   reads pins (`Σ |e|²` over small nets), which keeps high-degree graphs
//!   off it, and when its lists hold no more vertices than the level has
//!   pins, the size of the scan's pin copy; the build falls back to the
//!   scan as soon as it outgrows that;
//! * the index build indexes the small nets in ascending id and each
//!   vertex's nets ascend, so the nets of pin `v` after the net `f` being
//!   indexed are a suffix of `v`'s list, which a per-vertex cursor finds
//!   without reading the nets before `f` again. The lists are filled from
//!   the `(net, pin)` incidences that walk recorded, in the order a
//!   second walk would meet them, so every list is the same;
//! * once a level of a bisection takes the scan, the coarser levels take
//!   it without building an index. Both paths pick the scan's partner, so
//!   this changes only the work: on the `gemm2d_hmetis` input the levels
//!   after the first scan each built an index only to abandon it;
//! * on a dense level `coarsen_once` scores neighbours over a per-level
//!   pin copy whose rows hold only unmatched pins: a vertex leaves the
//!   rows of its small nets as soon as it is matched, each time replaced
//!   by its row's last pin, through a map from each incidence to its
//!   pin's place in the copy and back. The loop has no data-dependent
//!   branch: every pin, `v` included, adds the net's weight and joins the
//!   touched list on its first score, and the partner is the largest
//!   `(score, u)` over the touched vertices other than `v`. The weight
//!   still uses the net's full pin count, scores are sums (order-free)
//!   and keys are unique, so neither the rows' order nor the touched
//!   list's changes the partner, which is the one the full-pin scan
//!   picks;
//! * contraction appends each coarse vertex, in ascending id, to the rows
//!   of its members' nets, so every row comes out ascending, and a row
//!   that already holds the coarse vertex being appended ends with it, so
//!   its last entry dedups it. That gives each net's sorted distinct
//!   coarse pins, what `build_coarse` gets by mapping, sorting and
//!   deduplicating every net; nets left with fewer than two pins are
//!   dropped in net order by both;
//! * `greedy_initial` filters a persistent candidate pool in place
//!   (`retain` keeps the same ascending order and length as the rebuilt
//!   vector, so every RNG draw is identical). Its frontier is a stack of
//!   `(net, pins left)` segments, one pushed per small net of each added
//!   vertex; a pop takes the next pin from the top segment's end and
//!   skips pins already in part 0. That pops the pins the naive stack
//!   holds, in the same order: the naive push drops pins in part 0, and a
//!   pin in part 0 at push time is still there at pop time, as part 0
//!   only grows. An added vertex costs its degree plus the pins popped
//!   instead of the pins of all its small nets.

use crate::hg::Hypergraph;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{RngExt, SeedableRng};
use std::collections::BinaryHeap;

/// Stop coarsening below this many vertices.
const COARSEN_TARGET: usize = 160;
/// Give up coarsening when a level shrinks less than this factor.
const MIN_SHRINK: f64 = 0.95;
/// Nets larger than this are ignored during matching (they carry little
/// locality signal and make matching quadratic).
const MAX_MATCH_NET: usize = 256;
/// FM passes per level.
const MAX_FM_PASSES: usize = 8;

/// One coarsening level: the coarse hypergraph plus the fine→coarse map.
struct Level {
    coarse: Hypergraph,
    map: Vec<u32>,
}

/// Bisect `hg` into parts of target weights `(w0, w1)` (best effort,
/// tolerance `eps` as a fraction of total weight). Returns the part vector
/// and its connectivity−1 cost.
pub fn bisect(hg: &Hypergraph, w0: u64, w1: u64, eps: f64, seed: u64) -> (Vec<u32>, u64) {
    bisect_with(hg, None, w0, w1, eps, seed)
}

/// [`bisect`] with `finest`, the setup of `hg`'s own level, when the
/// caller has built it once for many bisections of `hg`.
pub(crate) fn bisect_with(
    hg: &Hypergraph,
    finest: Option<&LevelSetup>,
    w0: u64,
    w1: u64,
    eps: f64,
    seed: u64,
) -> (Vec<u32>, u64) {
    let mut rng = StdRng::seed_from_u64(seed);
    // Coarsen. The current hypergraph is borrowed from the level stack
    // (or is `hg` itself) instead of cloned, and one matching scratch and
    // one level setup serve every level. They are dropped before
    // refinement, which needs neither. Once a level takes the scan, the
    // coarser ones take it without trying the index.
    let mut levels: Vec<Level> = Vec::new();
    {
        let mut scratch = CoarsenScratch::default();
        let mut setup = LevelSetup::default();
        let mut try_index = true;
        loop {
            let current = levels.last().map_or(hg, |l| &l.coarse);
            if current.num_vertices() <= COARSEN_TARGET {
                break;
            }
            let level = match finest {
                Some(finest) if levels.is_empty() => finest,
                _ => {
                    setup.build(current, try_index, &mut scratch.index);
                    &setup
                }
            };
            try_index = level.indexed;
            let (coarse, map) = coarsen_once(current, level, &mut rng, &mut scratch);
            let shrink = coarse.num_vertices() as f64 / current.num_vertices() as f64;
            levels.push(Level { coarse, map });
            if shrink > MIN_SHRINK {
                break;
            }
        }
    }

    // Initial partition on the coarsest level.
    let current = levels.last().map_or(hg, |l| &l.coarse);
    let total = current.total_vweight();
    let max0 = target_cap(w0, total, eps);
    let max1 = target_cap(w1, total, eps);
    let mut fm = FmScratch::for_finest(hg);
    let mut parts = greedy_initial(current, w0, w1, &mut rng);
    fm_refine(current, &mut parts, max0, max1, MAX_FM_PASSES, &mut fm);

    // Uncoarsen with refinement.
    for idx in (0..levels.len()).rev() {
        let level = &levels[idx];
        let fine_n = level.map.len();
        let mut fine_parts = vec![0u32; fine_n];
        for (v, &c) in level.map.iter().enumerate() {
            fine_parts[v] = parts[c as usize];
        }
        parts = fine_parts;
        let fine_hg = if idx == 0 {
            hg
        } else {
            &levels[idx - 1].coarse
        };
        fm_refine(fine_hg, &mut parts, max0, max1, MAX_FM_PASSES, &mut fm);
    }

    let cost = bisection_cost(hg, &parts);
    (parts, cost)
}

fn target_cap(target: u64, total: u64, eps: f64) -> u64 {
    target + (total as f64 * eps) as u64
}

/// Connectivity−1 of a bisection (λ ∈ {1, 2}, so this equals the cut).
fn bisection_cost(hg: &Hypergraph, parts: &[u32]) -> u64 {
    let mut cost = 0;
    for n in 0..hg.num_nets() {
        let pins = hg.pins(n);
        let first = parts[pins[0] as usize];
        if pins.iter().any(|&p| parts[p as usize] != first) {
            cost += hg.nweight(n);
        }
    }
    cost
}

/// Matching scratch reused across coarsening levels.
#[derive(Default)]
struct CoarsenScratch {
    order: Vec<u32>,
    /// Byte-per-vertex matched flag of the current level.
    taken: Vec<bool>,
    /// Index path: per-net pointer into the ascending pin row; every pin
    /// at or above it is matched. Scan path: live row lengths.
    live_len: Vec<u32>,
    /// Index path: the last vertex that stamped each net as one of its
    /// own.
    net_stamp: Vec<u32>,
    /// Scan path: neighbour scores, all zero between vertices.
    score: Vec<u64>,
    /// Scan path: the vertices scored for the current vertex. The scan
    /// writes one slot past them, so it is kept longer than the level
    /// has vertices.
    touched: Vec<u32>,
    /// Scan path: a per-level copy of the pin CSR. Row `n` starts at the
    /// net's own offset and holds its unmatched pins as its first
    /// `live_len[n]` entries, in no particular order.
    live_pins: Vec<u32>,
    /// Scan path: per incidence (the nets of vertex 0, then those of
    /// vertex 1, …), the position of its pin in `live_pins`.
    pin_slot: Vec<u32>,
    /// Scan path: per position in `live_pins`, the incidence of its pin.
    slot_pin: Vec<u32>,
    /// The fine vertices of each coarse vertex, the second `NO_PARTNER`
    /// for a vertex matched alone.
    members: Vec<[u32; 2]>,
    /// Per net: the length of its coarse row during contraction.
    row_len: Vec<u32>,
    /// The coarse rows during contraction, each at its fine row's offset.
    rows: Vec<u32>,
    index: IndexScratch,
}

/// The second member of a coarse vertex matched alone.
const NO_PARTNER: u32 = u32::MAX;

/// What matching reads of a level besides the hypergraph: each net's
/// `match_weight` and, on a sparse level, the net-pair index. It depends
/// on the hypergraph alone, so `partition` builds the setup of its top
/// level once and every restart reads it.
#[derive(Default)]
pub(crate) struct LevelSetup {
    /// `match_weight` of each net; 0 for the nets above `MAX_MATCH_NET`
    /// pins, which matching ignores.
    weight: Vec<u64>,
    index: PairIndex,
    /// The level takes the index path: the index was cheap to build and
    /// stayed within its budget.
    indexed: bool,
    /// The index build ran (and was abandoned unless `indexed`).
    #[cfg(test)]
    index_tried: bool,
}

impl LevelSetup {
    /// The setup of `hg`'s level.
    pub(crate) fn new(hg: &Hypergraph) -> Self {
        let mut setup = Self::default();
        setup.build(hg, true, &mut IndexScratch::default());
        setup
    }

    /// Set `hg`'s level up in place. Without `try_index` the level takes
    /// the scan and builds no index.
    fn build(&mut self, hg: &Hypergraph, try_index: bool, scratch: &mut IndexScratch) {
        net_weights(hg, &mut self.weight);
        let tried = try_index && index_is_cheap(hg);
        #[cfg(test)]
        {
            self.index_tried = tried;
            self.index.nets_read = 0;
        }
        self.indexed = tried && self.index.build(hg, &self.weight, hg.num_pins(), scratch);
    }
}

/// The net-pair index of one level: each pair of nets of at most
/// `MAX_MATCH_NET` pins that share two or more vertices, with those
/// vertices, and for each vertex the pairs that list it.
#[derive(Default)]
struct PairIndex {
    /// Pair `p` lists its shared vertices at
    /// `verts[offsets[p]..offsets[p + 1]]`.
    offsets: Vec<u32>,
    verts: Vec<u32>,
    /// Vertex `v` is listed by the pairs
    /// `pairs[vert_offsets[v]..vert_offsets[v + 1]]`. Empty when no pair
    /// is indexed.
    vert_offsets: Vec<u32>,
    pairs: Vec<u32>,
    /// Net ids the last build read.
    #[cfg(test)]
    nets_read: u64,
}

/// Scratch of [`PairIndex::build`].
#[derive(Default)]
struct IndexScratch {
    /// Per net: the pins it shares with the net being indexed, then its
    /// list's write cursor (`u32::MAX` for no list).
    slot: Vec<u32>,
    /// The later small nets the net being indexed meets.
    met: Vec<u32>,
    /// Per vertex: how many of its nets the build has passed.
    cursor: Vec<u32>,
    /// `(g, v)`: the net being indexed meets the later small net `g` at
    /// its pin `v`, in the order the walk met them.
    seen: Vec<(u32, u32)>,
}

impl PairIndex {
    /// Index `hg`, ignoring nets of `weight` 0. Each small net `f`, in
    /// turn, counts the pins it shares with every later small net and
    /// lists them for each net it shares two or more with. Returns false
    /// as soon as the lists would hold more than `budget` vertices.
    ///
    /// Nets are indexed in ascending id and each vertex's nets ascend, so
    /// a per-vertex cursor finds `f` among its pin's nets and the walk
    /// reads only the nets after it. The lists are filled from the
    /// incidences that walk recorded.
    fn build(
        &mut self,
        hg: &Hypergraph,
        weight: &[u64],
        budget: usize,
        scratch: &mut IndexScratch,
    ) -> bool {
        const NO_LIST: u32 = u32::MAX;
        let IndexScratch {
            slot,
            met,
            cursor,
            seen,
        } = scratch;
        self.offsets.clear();
        self.offsets.push(0);
        self.verts.clear();
        self.vert_offsets.clear();
        slot.clear();
        slot.resize(hg.num_nets(), 0);
        cursor.clear();
        cursor.resize(hg.num_vertices(), 0);
        met.reserve(hg.num_nets());
        for f in 0..hg.num_nets() {
            if weight[f] == 0 {
                continue;
            }
            met.clear();
            seen.clear();
            for &v in hg.pins(f) {
                let nets = hg.nets_of(v as usize);
                // The cursor passes `f` and the nets before it that
                // matching ignores, which no earlier net passed.
                let from = cursor[v as usize] as usize;
                let at = from
                    + nets[from..]
                        .iter()
                        .position(|&g| g as usize == f)
                        .expect("a pin's nets include its net");
                cursor[v as usize] = at as u32 + 1;
                #[cfg(test)]
                {
                    self.nets_read += (nets.len() - from) as u64;
                }
                for &g in &nets[at + 1..] {
                    let gi = g as usize;
                    if weight[gi] != 0 {
                        if slot[gi] == 0 {
                            met.push(g);
                        }
                        slot[gi] += 1;
                        seen.push((g, v));
                    }
                }
            }
            let mut end = self.verts.len();
            for &g in met.iter() {
                let slot = &mut slot[g as usize];
                if *slot >= 2 {
                    let shared = *slot as usize;
                    *slot = end as u32;
                    end += shared;
                } else {
                    *slot = NO_LIST;
                }
            }
            if end > budget {
                return false;
            }
            if end > self.verts.len() {
                self.verts.resize(end, 0);
                for &(g, v) in seen.iter() {
                    let slot = &mut slot[g as usize];
                    if *slot != NO_LIST {
                        self.verts[*slot as usize] = v;
                        *slot += 1;
                    }
                }
            }
            // Each cursor now ends its list; the lists follow `met`.
            for &g in met.iter() {
                let slot = &mut slot[g as usize];
                if *slot != NO_LIST {
                    self.offsets.push(*slot);
                }
                *slot = 0;
            }
        }
        if self.verts.is_empty() {
            return true;
        }
        // Transpose: count each vertex's pairs, turn the counts into list
        // ends, then place each entry by decrementing its vertex's end,
        // which leaves every offset at its list's start.
        self.vert_offsets.resize(hg.num_vertices() + 1, 0);
        for &v in &self.verts {
            self.vert_offsets[v as usize] += 1;
        }
        let mut end = 0;
        for o in &mut self.vert_offsets {
            end += *o;
            *o = end;
        }
        self.pairs.clear();
        self.pairs.resize(self.verts.len(), 0);
        for (p, w) in self.offsets.windows(2).enumerate() {
            for &v in &self.verts[w[0] as usize..w[1] as usize] {
                let o = &mut self.vert_offsets[v as usize];
                *o -= 1;
                self.pairs[*o as usize] = p as u32;
            }
        }
        true
    }

    /// The pairs whose lists hold `v`.
    fn pairs_of(&self, v: u32) -> &[u32] {
        match self.vert_offsets.get(v as usize..v as usize + 2) {
            Some(&[start, end]) => &self.pairs[start as usize..end as usize],
            _ => &[],
        }
    }

    /// The vertices pair `p` shares.
    fn list(&self, p: u32) -> &[u32] {
        let p = p as usize;
        &self.verts[self.offsets[p] as usize..self.offsets[p + 1] as usize]
    }
}

/// Heavy-connectivity weight of a net with `size` pins: `w/(size−1)`,
/// the standard normalization, scaled by 256 to stay integral (at least
/// 1 for every net of at most `MAX_MATCH_NET` pins).
fn match_weight(hg: &Hypergraph, net: usize, size: usize) -> u64 {
    hg.nweight(net).max(1) * 256 / (size as u64 - 1).max(1)
}

/// `match_weight` of every net of `hg` into `weight`, 0 for the nets
/// matching ignores: those above `MAX_MATCH_NET` pins (and empty ones).
fn net_weights(hg: &Hypergraph, weight: &mut Vec<u64>) {
    weight.clear();
    weight.extend((0..hg.num_nets()).map(|e| match hg.pins(e).len() {
        size @ 1..=MAX_MATCH_NET => match_weight(hg, e, size),
        _ => 0,
    }));
}

/// Whether building the net-pair index reads no more net ids
/// (`Σ deg(v)²` bounds it) than a full-pin scan of the small nets reads
/// pins (`Σ |e|²`). Graphs of high degree, such as one 2-pin net per
/// pair of cells sharing a row or column of a grid, fail this and keep
/// the scan.
fn index_is_cheap(hg: &Hypergraph) -> bool {
    let walk: u64 = (0..hg.num_vertices())
        .map(|v| (hg.nets_of(v).len() as u64).pow(2))
        .sum();
    let scan: u64 = (0..hg.num_nets())
        .map(|e| hg.pins(e).len() as u64)
        .filter(|&size| size <= MAX_MATCH_NET as u64)
        .map(|size| size * size)
        .sum();
    walk <= scan
}

/// One level of heavy-connectivity matching: each unmatched vertex `v`, in
/// a random order, is paired with the unmatched neighbour `u` of highest
/// `(score, u)`, its score being the summed `match_weight` of the nets of
/// at most `MAX_MATCH_NET` pins that hold both.
///
/// A sparse level (see [`index_is_cheap`] and [`PairIndex::build`]) takes
/// the partner from per-net pointers and the net-pair index; a dense one
/// scores its neighbours over the live rows. The module doc gives the
/// argument that both pick the full-pin scan's partner. `setup` is the
/// level's [`LevelSetup`].
fn coarsen_once(
    hg: &Hypergraph,
    setup: &LevelSetup,
    rng: &mut StdRng,
    scratch: &mut CoarsenScratch,
) -> (Hypergraph, Vec<u32>) {
    let n = hg.num_vertices();
    let CoarsenScratch {
        order,
        taken,
        live_len,
        net_stamp,
        score,
        touched,
        live_pins,
        pin_slot,
        slot_pin,
        members,
        row_len,
        rows,
        index: _,
    } = scratch;
    let (weight, index, indexed) = (&setup.weight, &setup.index, setup.indexed);
    order.clear();
    order.extend(0..n as u32);
    order.shuffle(rng);

    let mut matched = vec![u32::MAX; n]; // coarse id per fine vertex
    members.clear();
    taken.clear();
    taken.resize(n, false);
    let (offsets, pins) = hg.pin_csr();
    let (vert_offsets, vert_nets) = hg.net_csr();
    live_len.clear();
    live_len.extend(offsets.windows(2).map(|w| w[1] - w[0]));
    if indexed {
        net_stamp.clear();
        net_stamp.resize(hg.num_nets(), u32::MAX);
    } else {
        live_pins.clear();
        live_pins.extend_from_slice(pins);
        // Link each pin of the copy with its incidence, both ways.
        // Incidences are numbered as the vertex → nets CSR lists them, and
        // the copy holds the nets in ascending id, so a cursor per vertex
        // meets that vertex's incidences in order.
        pin_slot.clear();
        pin_slot.resize(pins.len(), 0);
        slot_pin.clear();
        slot_pin.resize(pins.len(), 0);
        let mut next = vert_offsets[..n].to_vec();
        for (p, &x) in pins.iter().enumerate() {
            let i = next[x as usize] as usize;
            next[x as usize] += 1;
            pin_slot[i] = p as u32;
            slot_pin[p] = i as u32;
        }
        // `score` is all-zero between vertices (reset via `touched`), so
        // growing it keeps the invariant.
        if score.len() < n {
            score.resize(n, 0);
        }
        if touched.len() <= n {
            touched.resize(n + 1, 0);
        }
    }
    #[cfg(test)]
    let mut count = tests::MatchCount {
        indexed,
        index_abandoned: setup.index_tried && !indexed,
        index_nets_read: index.nets_read,
        index_len: if indexed { index.verts.len() as u64 } else { 0 },
        ..Default::default()
    };

    for &v in order.iter() {
        if taken[v as usize] {
            continue;
        }
        // Best `(score, u)` so far; scores are at least 1, so a zero
        // score means no unmatched neighbour.
        let mut best = (0u64, 0u32);
        if indexed {
            // Pointer candidates. Each net's pointer walks its row down
            // past matched pins and `v`, which is matched below, so
            // across the level it passes each pin once. The walk stamps
            // `v`'s small nets for the scores below.
            for &net in hg.nets_of(v as usize) {
                let ni = net as usize;
                let w = weight[ni];
                if w == 0 {
                    continue;
                }
                net_stamp[ni] = v;
                let row = &pins[offsets[ni] as usize..offsets[ni + 1] as usize];
                let mut top = live_len[ni] as usize;
                while top > 0 && (taken[row[top - 1] as usize] || row[top - 1] == v) {
                    top -= 1;
                }
                #[cfg(test)]
                {
                    count.visits += 1;
                    count.pins_read += (live_len[ni] as usize - top + (top > 0) as usize) as u64;
                }
                live_len[ni] = top as u32;
                if top > 0 {
                    best = best.max((w, row[top - 1]));
                }
            }
            // Multi-net candidates, with their exact scores.
            for &p in index.pairs_of(v) {
                for &u in index.list(p) {
                    if u == v || taken[u as usize] {
                        continue;
                    }
                    let s: u64 = hg
                        .nets_of(u as usize)
                        .iter()
                        .map(|&g| weight[g as usize] * (net_stamp[g as usize] == v) as u64)
                        .sum();
                    #[cfg(test)]
                    {
                        count.scored += 1;
                    }
                    best = best.max((s, u));
                }
            }
        } else {
            // Score every pin of `v`'s small nets, `v` included: the rows
            // hold unmatched vertices only.
            let mut touched_len = 0;
            for &net in hg.nets_of(v as usize) {
                let ni = net as usize;
                let w = weight[ni];
                if w == 0 {
                    continue;
                }
                let row = &live_pins[offsets[ni] as usize..][..live_len[ni] as usize];
                #[cfg(test)]
                {
                    count.visits += 1;
                    count.pins_read += row.len() as u64;
                }
                for &u in row {
                    let s = &mut score[u as usize];
                    touched[touched_len] = u;
                    touched_len += (*s == 0) as usize;
                    *s += w;
                }
            }
            for &u in &touched[..touched_len] {
                if u != v {
                    best = best.max((score[u as usize], u));
                }
                score[u as usize] = 0;
            }
        }
        let cid = members.len() as u32;
        matched[v as usize] = cid;
        taken[v as usize] = true;
        let mut partner = NO_PARTNER;
        if best.0 > 0 {
            partner = best.1;
            matched[partner as usize] = cid;
            taken[partner as usize] = true;
        }
        members.push([v, partner]);
        if !indexed {
            // Both leave the rows of their small nets: each is replaced
            // by its row's last live pin.
            for x in [v, partner] {
                if x == NO_PARTNER {
                    continue;
                }
                for i in vert_offsets[x as usize]..vert_offsets[x as usize + 1] {
                    let e = vert_nets[i as usize] as usize;
                    if weight[e] == 0 {
                        continue;
                    }
                    live_len[e] -= 1;
                    let last = (offsets[e] + live_len[e]) as usize;
                    let p = pin_slot[i as usize] as usize;
                    let j = slot_pin[last];
                    live_pins[p] = live_pins[last];
                    slot_pin[p] = j;
                    pin_slot[j as usize] = p as u32;
                }
            }
        }
    }
    #[cfg(test)]
    tests::MATCH_COUNTS.with(|c| c.borrow_mut().push(count));
    (contract(hg, members, row_len, rows), matched)
}

/// Contract `hg` along a matching in which coarse vertex `c` merges the
/// fine vertices `members[c]`: vertex weights add up, each net keeps its
/// distinct coarse pins in ascending order, and nets left with fewer than
/// 2 pins are dropped. This is the hypergraph `build_coarse` builds.
///
/// Coarse vertices are appended to the rows of their members' nets in
/// ascending id, so every row comes out ascending, and a row that already
/// holds `c` ends with it: that last entry is the net's stamp, so no row
/// is sorted or deduplicated. Each row is built at its fine row's offset,
/// which it cannot outgrow, and copied out in net order afterwards.
fn contract(
    hg: &Hypergraph,
    members: &[[u32; 2]],
    row_len: &mut Vec<u32>,
    rows: &mut Vec<u32>,
) -> Hypergraph {
    let offsets = hg.pin_csr().0;
    row_len.clear();
    row_len.resize(hg.num_nets(), 0);
    rows.resize(hg.num_pins(), 0);
    let mut cweights = Vec::with_capacity(members.len());
    for (c, &[a, b]) in members.iter().enumerate() {
        let c = c as u32;
        let mut w = hg.vweight(a as usize);
        for &e in hg.nets_of(a as usize) {
            let e = e as usize;
            rows[(offsets[e] + row_len[e]) as usize] = c;
            row_len[e] += 1;
        }
        if b != NO_PARTNER {
            w += hg.vweight(b as usize);
            for &e in hg.nets_of(b as usize) {
                let e = e as usize;
                let end = (offsets[e] + row_len[e]) as usize;
                if row_len[e] == 0 || rows[end - 1] != c {
                    rows[end] = c;
                    row_len[e] += 1;
                }
            }
        }
        cweights.push(w);
    }
    // Every level's hypergraph lives until refinement ends, so its
    // vectors get exactly the size they need.
    let kept = || (0..hg.num_nets()).filter(|&e| row_len[e] >= 2);
    let mut pins = Vec::with_capacity(kept().map(|e| row_len[e] as usize).sum());
    let mut net_offsets = Vec::with_capacity(kept().count() + 1);
    net_offsets.push(0);
    let mut nweights = Vec::with_capacity(kept().count());
    for e in kept() {
        pins.extend_from_slice(&rows[offsets[e] as usize..][..row_len[e] as usize]);
        net_offsets.push(pins.len() as u32);
        nweights.push(hg.nweight(e));
    }
    Hypergraph::from_csr(members.len(), net_offsets, pins, cweights, nweights)
}

/// Contract `hg` along `matched` (coarse id per fine vertex, ids
/// `0..cn`): vertex weights add up, each net maps to its sorted distinct
/// coarse pins, and nets left with fewer than 2 pins are dropped. Returns
/// the coarse hypergraph and `matched` as the fine→coarse map. The naive
/// path's contraction, and the reference `contract` is tested against.
#[cfg(any(test, feature = "naive"))]
fn build_coarse(
    hg: &Hypergraph,
    matched: Vec<u32>,
    cn: usize,
    buf: &mut Vec<u32>,
) -> (Hypergraph, Vec<u32>) {
    let mut cweights = vec![0u64; cn];
    for (v, &c) in matched.iter().enumerate() {
        cweights[c as usize] += hg.vweight(v);
    }
    let mut offsets: Vec<u32> = Vec::with_capacity(hg.num_nets() + 1);
    offsets.push(0);
    let mut pins: Vec<u32> = Vec::with_capacity(hg.num_pins());
    let mut nweights: Vec<u64> = Vec::with_capacity(hg.num_nets());
    for net in 0..hg.num_nets() {
        buf.clear();
        buf.extend(hg.pins(net).iter().map(|&p| matched[p as usize]));
        buf.sort_unstable();
        buf.dedup();
        if buf.len() >= 2 {
            pins.extend_from_slice(buf);
            offsets.push(pins.len() as u32);
            nweights.push(hg.nweight(net));
        }
    }
    (
        Hypergraph::from_csr(cn, offsets, pins, cweights, nweights),
        matched,
    )
}

/// Randomized greedy growth: grow part 0 from a random seed along nets
/// until it reaches `w0 / (w0 + w1)` of the total weight.
///
/// The seed pool is a persistent vector filtered in place: `retain` keeps
/// the surviving candidates in the same ascending order (and count) as the
/// naive per-draw rebuild, so the RNG sees identical ranges and the drawn
/// vertex is identical. The frontier holds `(net, pins left)` segments
/// instead of pins; the module doc gives the argument that it pops the
/// same vertices.
fn greedy_initial(hg: &Hypergraph, w0: u64, w1: u64, rng: &mut StdRng) -> Vec<u32> {
    let n = hg.num_vertices();
    let total = hg.total_vweight();
    let target0 = (total as u128 * w0 as u128 / (w0 + w1).max(1) as u128) as u64;
    let mut parts = vec![1u32; n];
    let mut weight0 = 0u64;
    let mut frontier: Vec<(u32, u32)> = Vec::new();
    let mut in_part0 = vec![false; n];
    let mut pool: Vec<u32> = (0..n as u32).collect();
    #[cfg(test)]
    let mut pins_read = 0u64;

    while weight0 < target0 {
        let v = match frontier.last_mut() {
            Some((_, 0)) => {
                frontier.pop();
                continue;
            }
            Some((net, left)) => {
                *left -= 1;
                #[cfg(test)]
                {
                    pins_read += 1;
                }
                let u = hg.pins(*net as usize)[*left as usize];
                if in_part0[u as usize] {
                    continue;
                }
                u
            }
            None => {
                // New random seed among remaining vertices.
                pool.retain(|&v| !in_part0[v as usize]);
                if pool.is_empty() {
                    break;
                }
                pool[rng.random_range(0..pool.len())]
            }
        };
        in_part0[v as usize] = true;
        parts[v as usize] = 0;
        weight0 += hg.vweight(v as usize);
        for &net in hg.nets_of(v as usize) {
            let size = hg.pins(net as usize).len();
            if size <= MAX_MATCH_NET {
                frontier.push((net, size as u32));
            }
        }
    }
    #[cfg(test)]
    tests::GREEDY_READS.with(|g| g.borrow_mut().push(pins_read));
    parts
}

/// Exact FM gain of moving `v` to the other side.
fn gain_of(hg: &Hypergraph, v: usize, parts: &[u32], side_pins: &[[u32; 2]]) -> i64 {
    let s = parts[v] as usize;
    let mut gain = 0i64;
    for &net in hg.nets_of(v) {
        let sp = &side_pins[net as usize];
        let w = hg.nweight(net as usize) as i64;
        if sp[s] == 1 {
            gain += w; // net leaves the cut
        }
        if sp[1 - s] == 0 {
            gain -= w; // net enters the cut
        }
    }
    gain
}

/// FM state reused across the levels of one bisection. It is sized for
/// the finest level, the largest, so no level reallocates it.
#[derive(Default)]
struct FmScratch {
    /// Pins per net and side.
    side_pins: Vec<[u32; 2]>,
    /// Locked pins per net and side in the current pass.
    locked_pins: Vec<[u32; 2]>,
    /// Exact gain per vertex.
    gain: Vec<i64>,
    /// Gain value each vertex is currently queued under in the heap.
    cached: Vec<i64>,
    locked: Vec<bool>,
    moves: Vec<u32>,
    heap_vec: Vec<(i64, u32)>,
}

impl FmScratch {
    fn for_finest(hg: &Hypergraph) -> Self {
        let (n, nets) = (hg.num_vertices(), hg.num_nets());
        Self {
            side_pins: Vec::with_capacity(nets),
            locked_pins: Vec::with_capacity(nets),
            gain: Vec::with_capacity(n),
            cached: Vec::with_capacity(n),
            locked: Vec::with_capacity(n),
            moves: Vec::with_capacity(n),
            heap_vec: Vec::with_capacity(n),
        }
    }
}

/// Fiduccia–Mattheyses refinement of a bisection under per-part caps.
///
/// `side_pins`, part weights and per-vertex gains are built once and then
/// maintained by deltas — through accepted moves and through the rollback
/// of each pass's rejected tail — so later passes skip the full rebuild.
/// Gains change only when a net's side count crosses 0/1/2 (the classic FM
/// boundary cases), which bounds the update work per move by the pins of
/// its boundary nets; `v`'s own gain simply flips sign. The gain heap is
/// still rebuilt per pass (every vertex unlocks), but during the pop loop
/// an entry is pushed only when the vertex's gain differs from the value
/// it is currently queued under (`cached`): the naive code pushes
/// unconditionally, but its extra entries equal live queued tuples, and
/// equal tuples are indistinguishable to a binary heap — so the accepted
/// move sequence is identical (see `tests/differential_naive.rs`).
/// Only boundary nets are scanned for such pushes, until a net too big to
/// requeue has updated gains in the pass (`drift`); after that every
/// small net is scanned, as before.
///
/// A pass stops as soon as no later prefix can beat the best one; the
/// module doc gives the argument that this keeps every decision.
fn fm_refine(
    hg: &Hypergraph,
    parts: &mut [u32],
    max0: u64,
    max1: u64,
    passes: usize,
    scratch: &mut FmScratch,
) {
    let n = hg.num_vertices();
    if n == 0 {
        return;
    }
    let caps = [max0, max1];
    let FmScratch {
        side_pins,
        locked_pins,
        gain,
        cached,
        locked,
        moves,
        heap_vec,
    } = scratch;

    side_pins.clear();
    side_pins.resize(hg.num_nets(), [0, 0]);
    for v in 0..n {
        for &net in hg.nets_of(v) {
            side_pins[net as usize][parts[v] as usize] += 1;
        }
    }
    let mut weights = [0u64, 0];
    for v in 0..n {
        weights[parts[v] as usize] += hg.vweight(v);
    }
    // Exact gain per vertex, maintained for the rest of the call (locked
    // vertices included — their stored gain seeds the next pass's heap).
    gain.clear();
    gain.extend((0..n).map(|v| gain_of(hg, v, parts, side_pins)));
    cached.clear();
    cached.resize(n, 0);
    locked.clear();
    locked.resize(n, false);
    locked_pins.clear();
    locked_pins.resize(hg.num_nets(), [0, 0]);
    // Cut weight at the start of the current pass.
    let mut cut: i64 = side_pins
        .iter()
        .enumerate()
        .filter(|(_, sp)| sp[0] > 0 && sp[1] > 0)
        .map(|(net, _)| hg.nweight(net) as i64)
        .sum();

    for _ in 0..passes {
        heap_vec.clear();
        for v in 0..n {
            cached[v] = gain[v];
            heap_vec.push((gain[v], v as u32));
        }
        let mut heap = BinaryHeap::from(std::mem::take(heap_vec));
        locked.fill(false);
        locked_pins.fill([0, 0]);
        moves.clear();
        let mut best_prefix = 0usize;
        let mut cur_delta = 0i64;
        let mut best_delta = 0i64;
        // Weight of the nets with locked pins on both sides: they stay
        // cut for the rest of the pass.
        let mut locked_cut = 0i64;
        // Set once a net above MAX_MATCH_NET updates gains this pass: its
        // pins are not requeued, so from then on an unlocked vertex's gain
        // may differ from `cached` outside a net just updated.
        let mut drift = false;

        // A later prefix gains at most `cut − locked_cut`; once that
        // cannot beat `best_delta`, the rest of the pass would be rolled
        // back anyway.
        while cut - locked_cut > best_delta {
            let Some((g, v)) = heap.pop() else {
                break;
            };
            let vu = v as usize;
            if locked[vu] {
                continue;
            }
            let real = gain[vu];
            if real != g {
                // Stale: requeue at the true gain like the naive lazy
                // reinsert, unless `cached` says that entry is queued
                // already. An entry other than `cached` is not skipped
                // unread: after big-net drift the gain can return to an
                // older queued value, and the naive code moves on it.
                if real != cached[vu] {
                    cached[vu] = real;
                    heap.push((real, v));
                }
                continue;
            }
            let s = parts[vu] as usize;
            let t = 1 - s;
            if weights[t] + hg.vweight(vu) > caps[t] {
                // Cannot move without breaking balance; lock in place.
                locked[vu] = true;
                locked_cut += lock_on(hg, vu, s, locked_pins);
                continue;
            }
            // Apply the move. Moving flips every leave-term of v's gain
            // into the mirrored enter-term, so the gain negates.
            locked[vu] = true;
            locked_cut += lock_on(hg, vu, t, locked_pins);
            parts[vu] = t as u32;
            weights[s] -= hg.vweight(vu);
            weights[t] += hg.vweight(vu);
            gain[vu] = -gain[vu];
            for &net in hg.nets_of(vu) {
                let ni = net as usize;
                let f = side_pins[ni][s];
                let tc = side_pins[ni][t];
                let pins = hg.pins(ni);
                // Boundary-case delta rules: pin gains change only when
                // the source count drops to 1 or the destination count
                // leaves {0, 1}.
                let boundary = f <= 2 || tc <= 1;
                if boundary {
                    let w = hg.nweight(ni) as i64;
                    for &u in pins {
                        let uu = u as usize;
                        if uu == vu {
                            continue;
                        }
                        if parts[uu] as usize == s {
                            gain[uu] += w * ((f == 2) as i64 + (tc == 0) as i64);
                        } else {
                            gain[uu] -= w * ((tc == 1) as i64 + (f == 1) as i64);
                        }
                    }
                    drift |= pins.len() > MAX_MATCH_NET;
                }
                side_pins[ni][s] = f - 1;
                side_pins[ni][t] = tc + 1;
                // Neighbors requeue at their updated gains, net by net —
                // the same program points (and therefore the same values)
                // as the naive per-net pushes. A non-boundary net changed
                // no gain, so its scan can only find drift left by a big
                // net; without any, the scan would push nothing.
                if pins.len() <= MAX_MATCH_NET && (boundary || drift) {
                    for &u in pins {
                        let uu = u as usize;
                        if !locked[uu] && gain[uu] != cached[uu] {
                            cached[uu] = gain[uu];
                            heap.push((gain[uu], u));
                        }
                    }
                }
            }
            cur_delta += real;
            moves.push(v);
            if cur_delta > best_delta {
                best_delta = cur_delta;
                best_prefix = moves.len();
            }
        }

        // Roll back the tail beyond the best prefix by deltas, keeping
        // side_pins / weights / gains exact for the next pass.
        for &v in &moves[best_prefix..] {
            let vu = v as usize;
            let s = parts[vu] as usize;
            let t = 1 - s;
            parts[vu] = t as u32;
            weights[s] -= hg.vweight(vu);
            weights[t] += hg.vweight(vu);
            gain[vu] = -gain[vu];
            for &net in hg.nets_of(vu) {
                let ni = net as usize;
                let f = side_pins[ni][s];
                let tc = side_pins[ni][t];
                if f <= 2 || tc <= 1 {
                    let w = hg.nweight(ni) as i64;
                    for &u in hg.pins(ni) {
                        let uu = u as usize;
                        if uu == vu {
                            continue;
                        }
                        if parts[uu] as usize == s {
                            gain[uu] += w * ((f == 2) as i64 + (tc == 0) as i64);
                        } else {
                            gain[uu] -= w * ((tc == 1) as i64 + (f == 1) as i64);
                        }
                    }
                }
                side_pins[ni][s] = f - 1;
                side_pins[ni][t] = tc + 1;
            }
        }
        #[cfg(test)]
        tests::FM_MOVES.with(|m| m.borrow_mut().push(moves.len() as u64));
        *heap_vec = heap.into_vec();
        cut -= best_delta;
        if best_delta <= 0 {
            break;
        }
    }
}

/// Record that `v` is locked on side `s` for the rest of the FM pass, and
/// return the weight of the nets that now hold locked pins on both sides
/// (and so stay cut until the pass ends).
fn lock_on(hg: &Hypergraph, v: usize, s: usize, locked_pins: &mut [[u32; 2]]) -> i64 {
    let mut newly_cut = 0;
    for &net in hg.nets_of(v) {
        let lp = &mut locked_pins[net as usize];
        lp[s] += 1;
        if lp[s] == 1 && lp[1 - s] > 0 {
            newly_cut += hg.nweight(net as usize) as i64;
        }
    }
    newly_cut
}

// ---------------------------------------------------------------------------
// Naive reference (the original implementation, feature-gated)
// ---------------------------------------------------------------------------

/// The original [`bisect`]: full-pin matching scans, per-pass rebuilds
/// in FM, per-draw candidate rebuilds in the greedy start, cloned level
/// stack. Kept as the decision-equivalence reference for the differential
/// proptests and for `--paper-timing` style comparisons.
#[cfg(feature = "naive")]
pub fn bisect_naive(hg: &Hypergraph, w0: u64, w1: u64, eps: f64, seed: u64) -> (Vec<u32>, u64) {
    let mut rng = StdRng::seed_from_u64(seed);
    // Coarsen.
    let mut levels: Vec<Level> = Vec::new();
    let mut current = hg.clone();
    while current.num_vertices() > COARSEN_TARGET {
        let (coarse, map) = coarsen_once_naive(&current, &mut rng);
        let shrink = coarse.num_vertices() as f64 / current.num_vertices() as f64;
        let stop = shrink > MIN_SHRINK;
        levels.push(Level {
            coarse: coarse.clone(),
            map,
        });
        current = coarse;
        if stop {
            break;
        }
    }

    // Initial partition on the coarsest level.
    let total = current.total_vweight();
    let max0 = target_cap(w0, total, eps);
    let max1 = target_cap(w1, total, eps);
    let mut parts = greedy_initial_naive(&current, w0, w1, &mut rng);
    fm_refine_naive(&current, &mut parts, max0, max1, MAX_FM_PASSES);

    // Uncoarsen with refinement.
    for idx in (0..levels.len()).rev() {
        let level = &levels[idx];
        let fine_n = level.map.len();
        let mut fine_parts = vec![0u32; fine_n];
        for (v, &c) in level.map.iter().enumerate() {
            fine_parts[v] = parts[c as usize];
        }
        parts = fine_parts;
        let fine_hg = if idx == 0 {
            hg
        } else {
            &levels[idx - 1].coarse
        };
        fm_refine_naive(fine_hg, &mut parts, max0, max1, MAX_FM_PASSES);
    }

    let cost = bisection_cost(hg, &parts);
    (parts, cost)
}

/// Original matching: every scan walks all pins of each small net,
/// matched ones included.
#[cfg(feature = "naive")]
fn coarsen_once_naive(hg: &Hypergraph, rng: &mut StdRng) -> (Hypergraph, Vec<u32>) {
    let n = hg.num_vertices();
    let mut order: Vec<u32> = (0..n as u32).collect();
    order.shuffle(rng);

    let mut matched = vec![u32::MAX; n]; // coarse id per fine vertex
    let mut next_coarse = 0u32;
    let mut score = vec![0u64; n];
    let mut touched: Vec<u32> = Vec::new();
    for &v in &order {
        if matched[v as usize] != u32::MAX {
            continue;
        }
        // Score unmatched neighbors by shared-net weight.
        touched.clear();
        for &net in hg.nets_of(v as usize) {
            let pins = hg.pins(net as usize);
            if pins.len() > MAX_MATCH_NET {
                continue;
            }
            let w = match_weight(hg, net as usize, pins.len());
            for &u in pins {
                if u == v || matched[u as usize] != u32::MAX {
                    continue;
                }
                if score[u as usize] == 0 {
                    touched.push(u);
                }
                score[u as usize] += w;
            }
        }
        let best = touched
            .iter()
            .copied()
            .max_by_key(|&u| (score[u as usize], u));
        let cid = next_coarse;
        next_coarse += 1;
        matched[v as usize] = cid;
        if let Some(u) = best {
            matched[u as usize] = cid;
        }
        for &u in &touched {
            score[u as usize] = 0;
        }
    }
    build_coarse(hg, matched, next_coarse as usize, &mut Vec::new())
}

/// Original greedy growth: rebuilds the candidate vector of unassigned
/// vertices on every empty-frontier draw.
#[cfg(feature = "naive")]
fn greedy_initial_naive(hg: &Hypergraph, w0: u64, w1: u64, rng: &mut StdRng) -> Vec<u32> {
    let n = hg.num_vertices();
    let total = hg.total_vweight();
    let target0 = (total as u128 * w0 as u128 / (w0 + w1).max(1) as u128) as u64;
    let mut parts = vec![1u32; n];
    let mut weight0 = 0u64;
    let mut frontier: Vec<u32> = Vec::new();
    let mut in_part0 = vec![false; n];

    while weight0 < target0 {
        let v = match frontier.pop() {
            Some(v) if !in_part0[v as usize] => v,
            Some(_) => continue,
            None => {
                // New random seed among remaining vertices.
                let candidates: Vec<u32> =
                    (0..n as u32).filter(|&v| !in_part0[v as usize]).collect();
                if candidates.is_empty() {
                    break;
                }
                candidates[rng.random_range(0..candidates.len())]
            }
        };
        in_part0[v as usize] = true;
        parts[v as usize] = 0;
        weight0 += hg.vweight(v as usize);
        for &net in hg.nets_of(v as usize) {
            let pins = hg.pins(net as usize);
            if pins.len() > MAX_MATCH_NET {
                continue;
            }
            for &u in pins {
                if !in_part0[u as usize] {
                    frontier.push(u);
                }
            }
        }
    }
    parts
}

/// Original FM: rebuilds `side_pins`, weights and the full gain heap from
/// scratch every pass and recomputes every pushed gain pairwise.
#[cfg(feature = "naive")]
fn fm_refine_naive(hg: &Hypergraph, parts: &mut [u32], max0: u64, max1: u64, passes: usize) {
    let n = hg.num_vertices();
    let caps = [max0, max1];
    for _ in 0..passes {
        // Pin counts per side for every net.
        let mut side_pins = vec![[0u32; 2]; hg.num_nets()];
        for v in 0..n {
            for &net in hg.nets_of(v) {
                side_pins[net as usize][parts[v] as usize] += 1;
            }
        }
        let mut weights = [0u64, 0];
        for v in 0..n {
            weights[parts[v] as usize] += hg.vweight(v);
        }

        // Lazy max-heap of (gain, vertex).
        let mut heap: BinaryHeap<(i64, u32)> = (0..n)
            .map(|v| (gain_of(hg, v, parts, &side_pins), v as u32))
            .collect();
        let mut locked = vec![false; n];
        let mut moves: Vec<u32> = Vec::new();
        let mut best_prefix = 0usize;
        let mut cur_delta = 0i64;
        let mut best_delta = 0i64;

        while let Some((g, v)) = heap.pop() {
            let vu = v as usize;
            if locked[vu] {
                continue;
            }
            let real = gain_of(hg, vu, parts, &side_pins);
            if real != g {
                heap.push((real, v)); // stale entry, reinsert
                continue;
            }
            let s = parts[vu] as usize;
            let t = 1 - s;
            if weights[t] + hg.vweight(vu) > caps[t] {
                // Cannot move without breaking balance; lock in place.
                locked[vu] = true;
                continue;
            }
            // Apply the move.
            locked[vu] = true;
            parts[vu] = t as u32;
            weights[s] -= hg.vweight(vu);
            weights[t] += hg.vweight(vu);
            for &net in hg.nets_of(vu) {
                side_pins[net as usize][s] -= 1;
                side_pins[net as usize][t] += 1;
                // Neighbors' gains changed; push fresh entries lazily.
                let pins = hg.pins(net as usize);
                if pins.len() <= MAX_MATCH_NET {
                    for &u in pins {
                        if !locked[u as usize] {
                            heap.push((gain_of(hg, u as usize, parts, &side_pins), u));
                        }
                    }
                }
            }
            cur_delta += real;
            moves.push(v);
            if cur_delta > best_delta {
                best_delta = cur_delta;
                best_prefix = moves.len();
            }
        }

        // Roll back the tail beyond the best prefix.
        for &v in &moves[best_prefix..] {
            parts[v as usize] ^= 1;
        }
        if best_delta <= 0 {
            break;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hg::{evaluate, grid2};
    use std::cell::RefCell;

    /// Work of one `coarsen_once` call.
    #[derive(Clone, Copy, Debug, Default, PartialEq)]
    pub(super) struct MatchCount {
        /// The level took the index path (per-net pointers and the
        /// net-pair index), not the scan.
        pub(super) indexed: bool,
        /// The level built an index and abandoned it for the scan when
        /// its lists outgrew the budget.
        pub(super) index_abandoned: bool,
        /// Net ids the level's index build read (0 when it built none).
        pub(super) index_nets_read: u64,
        /// Vertices the index lists, over all its pairs (0 on the scan).
        pub(super) index_len: u64,
        /// `(vertex, net)` pairs matching visited: one per net of at
        /// most `MAX_MATCH_NET` pins of each vertex it matched from.
        pub(super) visits: u64,
        /// Pins those visits read.
        pub(super) pins_read: u64,
        /// Multi-net candidates the index path scored.
        pub(super) scored: u64,
    }

    thread_local! {
        /// One entry per coarsening level run on this thread.
        pub(super) static MATCH_COUNTS: RefCell<Vec<MatchCount>> = const { RefCell::new(Vec::new()) };
        /// Moves made (before the rollback) per FM pass run on this thread.
        pub(super) static FM_MOVES: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
        /// Frontier pins read per `greedy_initial` call run on this thread.
        pub(super) static GREEDY_READS: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
    }

    /// The row and column nets of an n×n task grid.
    fn grid_nets(n: usize) -> Vec<Vec<u32>> {
        let mut nets = Vec::new();
        for i in 0..n {
            nets.push((0..n).map(|j| (i * n + j) as u32).collect());
        }
        for j in 0..n {
            nets.push((0..n).map(|i| (i * n + j) as u32).collect());
        }
        nets
    }

    /// An n×n grid hypergraph (task grid with row/column nets).
    fn grid(n: usize) -> Hypergraph {
        Hypergraph::unit(n * n, grid_nets(n))
    }

    /// `grid(n)` plus one more unit net.
    fn grid_with(n: usize, extra: Vec<u32>) -> Hypergraph {
        let mut nets = grid_nets(n);
        nets.push(extra);
        Hypergraph::unit(n * n, nets)
    }

    /// A rows × cols grid with a net per row, per column and per 2×2
    /// block (cut short at odd edges; one-cell nets dropped), cells
    /// numbered in an order drawn from `rng`, vertex and net weights
    /// 1–3. Cells of one row and block share two nets, so the level is
    /// sparse but not linear.
    fn block_grid(rows: usize, cols: usize, rng: &mut StdRng) -> Hypergraph {
        let mut id: Vec<u32> = (0..(rows * cols) as u32).collect();
        id.shuffle(rng);
        let cell = |i: usize, j: usize| id[i * cols + j];
        let mut nets: Vec<Vec<u32>> = Vec::new();
        nets.extend((0..rows).map(|i| (0..cols).map(|j| cell(i, j)).collect()));
        nets.extend((0..cols).map(|j| (0..rows).map(|i| cell(i, j)).collect()));
        for bi in (0..rows).step_by(2) {
            for bj in (0..cols).step_by(2) {
                let block: Vec<u32> = (bi..rows.min(bi + 2))
                    .flat_map(|i| (bj..cols.min(bj + 2)).map(move |j| (i, j)))
                    .map(|(i, j)| cell(i, j))
                    .collect();
                if block.len() >= 2 {
                    nets.push(block);
                }
            }
        }
        let nweights = (0..nets.len()).map(|_| rng.random_range(1u64..4)).collect();
        let vweights = (0..rows * cols)
            .map(|_| rng.random_range(1u64..4))
            .collect();
        Hypergraph::new(rows * cols, nets, vweights, nweights)
    }

    /// `grid(n)` plus `big` unit nets of `size` cells each, drawn from
    /// `rng`. Matching ignores nets above `MAX_MATCH_NET` pins, but they
    /// count in the degrees that decide whether the index is cheap, and
    /// contraction shrinks them below the cap, where any two of them share
    /// many vertices.
    fn grid_with_big_nets(n: usize, big: usize, size: usize, rng: &mut StdRng) -> Hypergraph {
        let mut nets = grid_nets(n);
        for _ in 0..big {
            let mut cells: Vec<u32> = (0..(n * n) as u32).collect();
            cells.shuffle(rng);
            cells.truncate(size);
            nets.push(cells);
        }
        Hypergraph::unit(n * n, nets)
    }

    /// The lists of `hg`'s net-pair index, or `None` when the build
    /// outgrows `hg`'s pin count.
    fn index_lists(hg: &Hypergraph) -> Option<Vec<Vec<u32>>> {
        let mut weight = Vec::new();
        net_weights(hg, &mut weight);
        let mut index = PairIndex::default();
        if !index.build(hg, &weight, hg.num_pins(), &mut IndexScratch::default()) {
            return None;
        }
        let lists: Vec<Vec<u32>> = (0..index.offsets.len() as u32 - 1)
            .map(|p| index.list(p).to_vec())
            .collect();
        // Every listed vertex names the pair that lists it, once.
        for v in 0..hg.num_vertices() as u32 {
            let mut mine: Vec<u32> = index.pairs_of(v).to_vec();
            mine.sort_unstable();
            let listing: Vec<u32> = (0..lists.len() as u32)
                .filter(|&p| lists[p as usize].contains(&v))
                .collect();
            assert_eq!(mine, listing, "pairs of vertex {v}");
        }
        Some(lists)
    }

    #[test]
    fn grids_have_an_empty_index() {
        for n in [2, 5, 12] {
            assert_eq!(index_lists(&grid(n)), Some(vec![]), "grid({n})");
        }
        assert_eq!(index_lists(&grid2()), Some(vec![]));
    }

    #[test]
    fn a_second_net_through_two_cells_of_a_row_is_indexed() {
        // Cells 1 and 3 both lie in row 0 of the 5×5 grid.
        assert_eq!(
            index_lists(&grid_with(5, vec![1, 3, 17])),
            Some(vec![vec![1, 3]])
        );
        // A duplicate of a column net shares all its pins with it.
        assert_eq!(
            index_lists(&grid_with(5, vec![2, 7, 12, 17, 22])),
            Some(vec![vec![2, 7, 12, 17, 22]])
        );
        // One cell per row and column: a diagonal leaves the index empty.
        assert_eq!(
            index_lists(&grid_with(5, vec![0, 6, 12, 18, 24])),
            Some(vec![])
        );
    }

    /// Matching ignores nets above `MAX_MATCH_NET` pins, so the index
    /// does too: a net over every cell of a 17×17 grid (289 pins) holds
    /// whole rows and lists nothing, while the same cells cut to
    /// `MAX_MATCH_NET` pins share 17 cells with each of the first 15
    /// rows, one with the 16th, 16 with the first column and 15 with each
    /// other column.
    #[test]
    fn nets_above_the_matching_cap_are_not_indexed() {
        let all: Vec<u32> = (0..17 * 17).collect();
        assert_eq!(index_lists(&grid_with(17, all.clone())), Some(vec![]));
        let capped = all[..MAX_MATCH_NET].to_vec();
        let lists = index_lists(&grid_with(17, capped)).expect("within budget");
        assert_eq!(lists.len(), 15 + 17);
        assert_eq!(
            lists.iter().map(Vec::len).sum::<usize>(),
            15 * 17 + 16 + 16 * 15
        );
    }

    /// On a block grid every 2×2 block shares two cells with each of its
    /// two rows and two columns: 8 listed vertices per block, against 12
    /// pins.
    #[test]
    fn block_grids_index_every_row_and_column_of_a_block() {
        let hg = block_grid(6, 8, &mut StdRng::seed_from_u64(1));
        let lists = index_lists(&hg).expect("within budget");
        assert_eq!(lists.len(), 4 * 12);
        assert!(lists.iter().all(|l| l.len() == 2));
    }

    /// Windows of 6 consecutive vertices out of 200: building the index
    /// is cheap (no vertex lies on more than 6 nets), but each window
    /// shares 2–5 vertices with 8 others, so the lists would outgrow the
    /// pins and the level keeps the scan.
    #[test]
    fn an_index_over_the_pin_budget_falls_back_to_the_scan() {
        let nets: Vec<Vec<u32>> = (0..195).map(|s| (s..s + 6).collect()).collect();
        let hg = Hypergraph::unit(200, nets);
        assert!(index_is_cheap(&hg));
        assert_eq!(index_lists(&hg), None);
        MATCH_COUNTS.with(|c| c.borrow_mut().clear());
        coarsen_once(
            &hg,
            &LevelSetup::new(&hg),
            &mut StdRng::seed_from_u64(3),
            &mut CoarsenScratch::default(),
        );
        let counts = MATCH_COUNTS.with(|c| c.take());
        assert!(!counts[0].indexed);
    }

    /// One 2-pin net per pair of cells sharing a row or column of a
    /// 12×12 grid has an empty index (no two nets share two vertices),
    /// but its build would read `Σ deg²` net ids against `4·edges` pins
    /// for a full-pin scan, so it keeps the scan.
    #[test]
    fn dense_graphs_keep_the_scan() {
        let mut pairs: Vec<Vec<u32>> = Vec::new();
        for net in grid_nets(12) {
            for (i, &a) in net.iter().enumerate() {
                pairs.extend(net[i + 1..].iter().map(|&b| vec![a, b]));
            }
        }
        let graph = Hypergraph::unit(12 * 12, pairs);
        assert_eq!(index_lists(&graph), Some(vec![]));
        assert!(!index_is_cheap(&graph));
        assert!(index_is_cheap(&grid(12)));
        MATCH_COUNTS.with(|c| c.borrow_mut().clear());
        coarsen_once(
            &graph,
            &LevelSetup::new(&graph),
            &mut StdRng::seed_from_u64(3),
            &mut CoarsenScratch::default(),
        );
        let counts = MATCH_COUNTS.with(|c| c.take());
        assert!(!counts[0].indexed);
    }

    /// Exact work counts of one bisection: matching work per level, FM
    /// moves per pass and the pins greedy growth reads.
    fn work_counts(hg: &Hypergraph, seed: u64) -> (Vec<MatchCount>, Vec<u64>, Vec<u64>) {
        MATCH_COUNTS.with(|c| c.borrow_mut().clear());
        FM_MOVES.with(|m| m.borrow_mut().clear());
        GREEDY_READS.with(|g| g.borrow_mut().clear());
        let w = hg.total_vweight() / 2;
        bisect(hg, w, hg.total_vweight() - w, 0.02, seed);
        (
            MATCH_COUNTS.with(|c| c.take()),
            FM_MOVES.with(|m| m.take()),
            GREEDY_READS.with(|g| g.take()),
        )
    }

    /// Exact work counts of one bisection of a 40×40 grid, a 20×20 block
    /// grid and the 40×40 grid with 40 nets above the matching cap. The
    /// grid's levels take the paths the benchmark input's take: the index
    /// on the finest, linear level, whose lists are empty, so each net's
    /// pointer passes each pin once, plus one read per visit that finds a
    /// partner; the index with lists on the next two; an index abandoned
    /// for the scan on the last. The block grid's finest level has a list
    /// per block row and column. The big nets leave the third input's
    /// finest level linear, then fall below the cap and overrun the
    /// second level's budget; its two coarser levels take the scan
    /// without building an index, as the benchmark input's levels 4–6 do.
    /// An index build reads each pin's nets after the net being indexed
    /// once: 4,800 net ids on the grid's finest level, against 6,400 for a
    /// walk of all of each pin's nets. The scan reads unmatched pins only.
    /// A re-scan, a scan that reads matched pins, an index built after a
    /// level took the scan, a second walk of a pin's nets, the index on a
    /// level that outgrows its budget, greedy growth that reads every pin
    /// of every net, or an FM cut-off that never fires changes these
    /// numbers.
    #[test]
    fn bisect_work_counts_are_pinned() {
        let hg = grid(40);
        let (counts, moves, greedy) = work_counts(&hg, 9);
        let level0 = counts[0];
        assert!(
            level0.indexed && level0.pins_read <= hg.num_pins() as u64 + 2 * level0.visits,
            "{level0:?}"
        );
        assert_eq!(
            counts,
            [
                MatchCount {
                    indexed: true,
                    index_abandoned: false,
                    index_nets_read: 4800,
                    index_len: 0,
                    visits: 1604,
                    pins_read: 3754,
                    scored: 0
                },
                MatchCount {
                    indexed: true,
                    index_abandoned: false,
                    index_nets_read: 4800,
                    index_len: 467,
                    visits: 1209,
                    pins_read: 3129,
                    scored: 239
                },
                MatchCount {
                    indexed: true,
                    index_abandoned: false,
                    index_nets_read: 5524,
                    index_len: 1813,
                    visits: 960,
                    pins_read: 2395,
                    scored: 997
                },
                MatchCount {
                    indexed: false,
                    index_abandoned: true,
                    index_nets_read: 2308,
                    index_len: 0,
                    visits: 814,
                    pins_read: 11493,
                    scored: 0
                }
            ],
            "grid matching counts"
        );
        assert_eq!(
            moves,
            [32, 31, 32, 78, 60, 165, 358, 822],
            "grid FM moves per pass"
        );
        assert_eq!(greedy, [294], "grid greedy pins read");

        let hg = block_grid(20, 20, &mut StdRng::seed_from_u64(5));
        let (counts, moves, greedy) = work_counts(&hg, 9);
        assert_eq!(
            counts,
            [
                MatchCount {
                    indexed: true,
                    index_abandoned: false,
                    index_nets_read: 2400,
                    index_len: 800,
                    visits: 600,
                    pins_read: 1281,
                    scored: 300
                },
                MatchCount {
                    indexed: true,
                    index_abandoned: false,
                    index_nets_read: 2000,
                    index_len: 600,
                    visits: 400,
                    pins_read: 849,
                    scored: 808
                }
            ],
            "block grid matching counts"
        );
        assert_eq!(moves, [13, 12, 25, 44], "block grid FM moves per pass");
        assert_eq!(greedy, [375], "block grid greedy pins read");

        let hg = grid_with_big_nets(40, 40, 264, &mut StdRng::seed_from_u64(4));
        let (counts, moves, greedy) = work_counts(&hg, 9);
        assert_eq!(
            counts,
            [
                MatchCount {
                    indexed: true,
                    index_abandoned: false,
                    index_nets_read: 25920,
                    index_len: 0,
                    visits: 1604,
                    pins_read: 3754,
                    scored: 0
                },
                MatchCount {
                    indexed: false,
                    index_abandoned: true,
                    index_nets_read: 14553,
                    index_len: 0,
                    visits: 5639,
                    pins_read: 549451,
                    scored: 0
                },
                MatchCount {
                    indexed: false,
                    index_abandoned: false,
                    index_nets_read: 0,
                    index_len: 0,
                    visits: 4651,
                    pins_read: 361991,
                    scored: 0
                },
                MatchCount {
                    indexed: false,
                    index_abandoned: false,
                    index_nets_read: 0,
                    index_len: 0,
                    visits: 3660,
                    pins_read: 210298,
                    scored: 0
                }
            ],
            "big-net grid matching counts"
        );
        assert_eq!(
            moves,
            [26, 22, 19, 17, 85, 47, 41, 119, 243, 597],
            "big-net grid FM moves per pass"
        );
        assert_eq!(greedy, [1295], "big-net grid greedy pins read");
    }

    #[test]
    fn bisect_tiny_grid_is_balanced() {
        let hg = grid2();
        let (parts, cost) = bisect(&hg, 2, 2, 0.01, 7);
        let q = evaluate(&hg, &parts, 2);
        assert_eq!(q.max_part_weight, 2);
        assert_eq!(q.min_part_weight, 2);
        // Optimal bisection cuts exactly 2 of the 4 nets.
        assert_eq!(cost, 2);
    }

    #[test]
    fn bisect_grid_finds_row_or_column_split() {
        let n = 8;
        let hg = grid(n);
        let (parts, cost) = bisect(&hg, (n * n / 2) as u64, (n * n / 2) as u64, 0.02, 3);
        let q = evaluate(&hg, &parts, 2);
        // Perfect split cuts n nets (all columns or all rows).
        assert!(cost <= (2 * n) as u64, "cost = {cost}");
        assert!(q.max_part_weight <= (n * n / 2 + n) as u64);
        assert_eq!(q.max_part_weight + q.min_part_weight, (n * n) as u64);
    }

    /// Whether `a` and `b` have the same vertices, nets, pin rows and
    /// weights.
    fn same_hypergraph(a: &Hypergraph, b: &Hypergraph) -> bool {
        a.num_vertices() == b.num_vertices()
            && a.num_nets() == b.num_nets()
            && a.pin_csr() == b.pin_csr()
            && a.net_csr() == b.net_csr()
            && (0..a.num_vertices()).all(|v| a.vweight(v) == b.vweight(v))
            && (0..a.num_nets()).all(|e| a.nweight(e) == b.nweight(e))
    }

    /// A random hypergraph for `seed` and a random matching of it, as
    /// `(members, matched)`: coarse vertex `c` merges `members[c]`, in
    /// either order or alone, and `matched` maps fine to coarse. A tenth
    /// of the nets are empty, a tenth have one pin and, on more than
    /// `MAX_MATCH_NET` vertices, a tenth have more pins than that.
    fn random_matching(seed: u64) -> (Hypergraph, Vec<[u32; 2]>, Vec<u32>) {
        let mut rng = StdRng::seed_from_u64(seed);
        let n = rng.random_range(1usize..400);
        let nets: Vec<Vec<u32>> = (0..rng.random_range(0usize..60))
            .map(|_| {
                let size = match rng.random_range(0u32..10) {
                    0 => 0,
                    1 => 1,
                    2 if n > MAX_MATCH_NET => rng.random_range(MAX_MATCH_NET + 1..n + 1),
                    _ => 1 + rng.random_range(0..n.min(12)),
                };
                let mut pins: Vec<u32> = (0..n as u32).collect();
                pins.shuffle(&mut rng);
                pins.truncate(size);
                pins
            })
            .collect();
        let nweights = (0..nets.len()).map(|_| rng.random_range(1u64..4)).collect();
        let vweights = (0..n).map(|_| rng.random_range(1u64..4)).collect();
        let hg = Hypergraph::new(n, nets, vweights, nweights);
        let mut order: Vec<u32> = (0..n as u32).collect();
        order.shuffle(&mut rng);
        let mut members = Vec::new();
        let mut matched = vec![u32::MAX; n];
        let mut rest = &order[..];
        while let [v, tail @ ..] = rest {
            let pair = match tail {
                [u, ..] if rng.random_range(0u32..3) > 0 => [*v, *u],
                _ => [*v, NO_PARTNER],
            };
            for x in pair.into_iter().filter(|&x| x != NO_PARTNER) {
                matched[x as usize] = members.len() as u32;
            }
            rest = &rest[1 + (pair[1] != NO_PARTNER) as usize..];
            members.push(pair);
        }
        (hg, members, matched)
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(256))]

        /// The sort-free contraction builds the hypergraph the map, sort
        /// and dedup of `build_coarse` builds.
        #[test]
        fn contract_matches_build_coarse(seed in proptest::prelude::any::<u64>()) {
            let (hg, members, matched) = random_matching(seed);
            let (reference, map) = build_coarse(&hg, matched.clone(), members.len(), &mut Vec::new());
            let coarse = contract(&hg, &members, &mut Vec::new(), &mut Vec::new());
            proptest::prop_assert!(same_hypergraph(&coarse, &reference), "seed {seed}");
            proptest::prop_assert_eq!(map, matched);
        }
    }

    #[test]
    fn coarsening_shrinks_and_projects() {
        let hg = grid(12);
        let mut rng = StdRng::seed_from_u64(1);
        let mut scratch = CoarsenScratch::default();
        let (coarse, map) = coarsen_once(&hg, &LevelSetup::new(&hg), &mut rng, &mut scratch);
        assert!(coarse.num_vertices() < hg.num_vertices());
        assert!(coarse.num_vertices() >= hg.num_vertices() / 2);
        assert_eq!(map.len(), hg.num_vertices());
        assert_eq!(coarse.total_vweight(), hg.total_vweight());
    }

    #[test]
    fn unbalanced_targets_are_respected() {
        let n = 6;
        let hg = grid(n);
        // 1:2 split (e.g. bisecting for 3 GPUs).
        let (parts, _) = bisect(&hg, 12, 24, 0.05, 11);
        let q = evaluate(&hg, &parts, 2);
        assert!(q.min_part_weight >= 8, "min = {}", q.min_part_weight);
        assert!(q.max_part_weight <= 28, "max = {}", q.max_part_weight);
    }

    #[test]
    fn deterministic_per_seed() {
        let hg = grid(6);
        let (p1, c1) = bisect(&hg, 18, 18, 0.01, 5);
        let (p2, c2) = bisect(&hg, 18, 18, 0.01, 5);
        assert_eq!(p1, p2);
        assert_eq!(c1, c2);
    }

    /// FM's delta-maintained gains must agree with a from-scratch
    /// `gain_of` after a bisection completes (exercised indirectly by
    /// `bisect`; this asserts the public outcome on several seeds).
    #[test]
    fn fm_maintains_exact_state_across_many_seeds() {
        let hg = grid(10);
        for seed in 0..8 {
            let (parts, cost) = bisect(&hg, 50, 50, 0.02, seed);
            assert_eq!(cost, bisection_cost(&hg, &parts), "seed {seed}");
            let q = evaluate(&hg, &parts, 2);
            assert_eq!(q.max_part_weight + q.min_part_weight, 100);
        }
    }

    /// FM alone, started with a net above `MAX_MATCH_NET` uncut: the first
    /// move of one of its pins raises every other pin's gain without a
    /// requeue. Matching the naive moves then takes both the scans of
    /// non-boundary nets (`drift`) and the pop rule that acts on any entry
    /// equal to the current gain, since later big-net updates can return a
    /// gain to a value queued before the latest push.
    #[cfg(feature = "naive")]
    #[test]
    fn fm_matches_naive_after_big_net_drift() {
        let mut rng = StdRng::seed_from_u64(17);
        let mut scratch = FmScratch::default();
        for case in 0..64 {
            let nv = 600;
            let mut nets: Vec<Vec<u32>> = (0..nv)
                .map(|_| {
                    let len = rng.random_range(2usize..13);
                    (0..len).map(|_| rng.random_range(0..nv as u32)).collect()
                })
                .collect();
            let mut nweights: Vec<u64> =
                (0..nets.len()).map(|_| rng.random_range(1u64..4)).collect();
            nets.push((0..nv as u32 / 2).collect());
            nweights.push(rng.random_range(4u64..33));
            let vweights: Vec<u64> = (0..nv).map(|_| rng.random_range(1u64..4)).collect();
            let hg = Hypergraph::new(nv, nets, vweights, nweights);
            let cap = hg.total_vweight() / 2 + 20;
            let mut fast: Vec<u32> = (0..nv).map(|v| (v >= nv / 2) as u32).collect();
            let mut naive = fast.clone();
            fm_refine(&hg, &mut fast, cap, cap, MAX_FM_PASSES, &mut scratch);
            fm_refine_naive(&hg, &mut naive, cap, cap, MAX_FM_PASSES);
            assert_eq!(fast, naive, "case {case}");
        }
    }

    /// Segment-stack greedy growth against the naive pin stack, on block
    /// grids of 2×2 up to 24×24 cells with unequal split targets, and on
    /// a coarsened level of each, whose nets are larger.
    #[cfg(feature = "naive")]
    #[test]
    fn greedy_matches_naive_on_block_grids() {
        let mut rng = StdRng::seed_from_u64(23);
        let mut scratch = CoarsenScratch::default();
        for case in 0..64 {
            let rows = rng.random_range(2usize..25);
            let cols = rng.random_range(2usize..25);
            let fine = block_grid(rows, cols, &mut rng);
            let (coarse, _) = coarsen_once(&fine, &LevelSetup::new(&fine), &mut rng, &mut scratch);
            let w0 = rng.random_range(1u64..4);
            let w1 = rng.random_range(1u64..4);
            for hg in [&fine, &coarse] {
                let seed = rng.random_range(0u64..1000);
                let fast = greedy_initial(hg, w0, w1, &mut StdRng::seed_from_u64(seed));
                let naive = greedy_initial_naive(hg, w0, w1, &mut StdRng::seed_from_u64(seed));
                assert_eq!(fast, naive, "case {case}: {rows}×{cols}");
            }
        }
    }

    #[cfg(feature = "naive")]
    #[test]
    fn fast_bisect_matches_naive_on_grids() {
        // 14×14 and 16×16 exceed COARSEN_TARGET, so the clone-free level
        // stack and the reused matching scratch are exercised too.
        for (n, seed) in [(6usize, 0u64), (8, 3), (10, 7), (12, 11), (14, 2), (16, 5)] {
            let hg = grid(n);
            let w = (n * n / 2) as u64;
            let fast = bisect(&hg, w, w, 0.02, seed);
            let naive = bisect_naive(&hg, w, w, 0.02, seed);
            assert_eq!(fast, naive, "n={n} seed={seed}");
        }
    }
}
