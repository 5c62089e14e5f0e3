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
//!   queued gain can go stale outside the net being updated;
//! * FM ends a pass once no later prefix can beat the best one. Nets with
//!   locked pins on both sides stay cut until the pass ends, since locked
//!   vertices (moved, or held in place by the balance caps) do not move
//!   again; so every later prefix gains at most the pass-start cut minus
//!   their weight. When that bound is no more than the best gain, no
//!   later prefix can replace the best, which takes a strictly larger
//!   gain. The rollback restores that same prefix either way, and the
//!   heap, `cached` and `locked` are rebuilt every pass, so the next pass
//!   starts from the same state;
//! * `coarsen_once` scans only the still-unmatched pins of each net (a
//!   per-level pin copy compacted as matched pins are met), reuses its
//!   scratch across levels, builds coarse nets straight into CSR, and
//!   the level stack no longer clones each coarse hypergraph;
//! * on a *linear* level, where no two nets of at most `MAX_MATCH_NET`
//!   pins share two vertices, `coarsen_once` does not score at all. Every
//!   neighbour `u` of `v` then shares exactly one such net with `v`, so
//!   its score is that net's `match_weight`, and the scan's partner, the
//!   maximum `(score, u)`, is the highest unmatched pin other than `v` of
//!   `v`'s heaviest net (ties to the larger pin). One pointer per net
//!   walks its ascending row down past matched pins, so a level costs
//!   `O(pins)` instead of `O(Σ |e|²)`. Every task hypergraph the figures
//!   partition is linear at the finest level. (Levels where checking
//!   linearity would cost more than a full-pin scan, such as clique
//!   expansions, keep the scan.);
//! * `greedy_initial` filters a persistent candidate pool in place
//!   (`retain` keeps the same ascending order and length as the rebuilt
//!   vector, so every RNG draw is identical).

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
    let mut rng = StdRng::seed_from_u64(seed);
    // Coarsen. The current hypergraph is borrowed from the level stack
    // (or is `hg` itself) instead of cloned, and the matching scratch is
    // allocated once for the finest level and reused all the way down.
    let mut levels: Vec<Level> = Vec::new();
    let mut scratch = CoarsenScratch::default();
    loop {
        let current = levels.last().map_or(hg, |l| &l.coarse);
        if current.num_vertices() <= COARSEN_TARGET {
            break;
        }
        let (coarse, map) = coarsen_once(current, &mut rng, &mut scratch);
        let shrink = coarse.num_vertices() as f64 / current.num_vertices() as f64;
        levels.push(Level { coarse, map });
        if shrink > MIN_SHRINK {
            break;
        }
    }

    // Initial partition on the coarsest level.
    let current = levels.last().map_or(hg, |l| &l.coarse);
    let total = current.total_vweight();
    let max0 = target_cap(w0, total, eps);
    let max1 = target_cap(w1, total, eps);
    let mut parts = greedy_initial(current, w0, w1, &mut rng);
    fm_refine(current, &mut parts, max0, max1, MAX_FM_PASSES);

    // Uncoarsen with refinement.
    for idx in (0..levels.len()).rev() {
        let level = &levels[idx];
        let fine_n = level.map.len();
        let mut fine_parts = vec![0u32; fine_n];
        for (v, &c) in level.map.iter().enumerate() {
            fine_parts[v] = parts[c as usize];
        }
        parts = fine_parts;
        let fine_hg = if idx == 0 { hg } else { &levels[idx - 1].coarse };
        fm_refine(fine_hg, &mut parts, max0, max1, MAX_FM_PASSES);
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

/// Matching scratch reused across coarsening levels (the finest level is
/// the largest, so later levels never reallocate).
#[derive(Default)]
struct CoarsenScratch {
    order: Vec<u32>,
    score: Vec<u64>,
    touched: Vec<u32>,
    /// Byte-per-vertex matched flag of the current level.
    taken: Vec<bool>,
    /// Scan path: a per-level copy of the pin CSR. Row `n` starts at the
    /// net's own offset and holds its first `live_len[n]` entries as the
    /// pins not known to be matched yet; matched pins are swap-removed as
    /// scans meet them.
    live_pins: Vec<u32>,
    /// Scan path: live row lengths. Linear path: per-net pointer into the
    /// ascending pin row; every pin at or above it is matched.
    live_len: Vec<u32>,
    /// Linearity check: the last small net that reached each net.
    net_stamp: Vec<u32>,
    /// Pin buffer for building one coarse net.
    net_buf: Vec<u32>,
}

/// Heavy-connectivity weight of a net with `size` pins: `w/(size−1)`,
/// the standard normalization, scaled by 256 to stay integral (at least
/// 1 for every net of at most `MAX_MATCH_NET` pins).
fn match_weight(hg: &Hypergraph, net: usize, size: usize) -> u64 {
    hg.nweight(net).max(1) * 256 / (size as u64 - 1).max(1)
}

/// Whether no two nets of at most `MAX_MATCH_NET` pins share two
/// vertices. Larger nets are ignored, as matching ignores them. Each
/// small net stamps the higher-numbered small nets of its pins and the
/// walk stops at the first net stamped twice by the same net.
fn is_linear(hg: &Hypergraph, stamp: &mut Vec<u32>) -> bool {
    stamp.clear();
    stamp.resize(hg.num_nets(), u32::MAX);
    for e in 0..hg.num_nets() {
        let pins = hg.pins(e);
        if pins.len() > MAX_MATCH_NET {
            continue;
        }
        for &v in pins {
            for &f in hg.nets_of(v as usize) {
                if f as usize <= e || hg.pins(f as usize).len() > MAX_MATCH_NET {
                    continue;
                }
                if stamp[f as usize] == e as u32 {
                    return false;
                }
                stamp[f as usize] = e as u32;
            }
        }
    }
    true
}

/// Whether the linearity walk reads no more net ids (`Σ deg(v)²` bounds
/// it) than a full-pin scan of the small nets reads pins (`Σ |e|²`).
/// Graphs of high degree, such as clique expansions, fail this and keep
/// the scan, which costs them `O(pins)` anyway.
fn linearity_check_is_cheap(hg: &Hypergraph) -> bool {
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
/// On a linear level (see [`is_linear`]) whose check is cheap (see
/// [`linearity_check_is_cheap`]) that is a pointer walk; otherwise each
/// vertex scores its neighbours over the live rows only, compacting
/// matched pins out of the rows as it goes, so a pin is read once after
/// it is matched instead of once per later scan through its net. The
/// weight still uses the net's full pin count, scores are sums
/// (order-free), and `(score, u)` keys are unique, so the chosen partner
/// is the one the full-pin scan picks.
fn coarsen_once(
    hg: &Hypergraph,
    rng: &mut StdRng,
    scratch: &mut CoarsenScratch,
) -> (Hypergraph, Vec<u32>) {
    let n = hg.num_vertices();
    let CoarsenScratch {
        order,
        score,
        touched,
        taken,
        live_pins,
        live_len,
        net_stamp,
        net_buf,
    } = scratch;
    order.clear();
    order.extend(0..n as u32);
    order.shuffle(rng);

    let mut matched = vec![u32::MAX; n]; // coarse id per fine vertex
    let mut next_coarse = 0u32;
    taken.clear();
    taken.resize(n, false);
    // Scratch for neighbor scores; `score` is all-zero between vertices
    // (reset via `touched`), so growing it keeps the invariant.
    if score.len() < n {
        score.resize(n, 0);
    }
    let (offsets, pins) = hg.pin_csr();
    live_len.clear();
    live_len.extend(offsets.windows(2).map(|w| w[1] - w[0]));
    let linear = linearity_check_is_cheap(hg) && is_linear(hg, net_stamp);
    if !linear {
        live_pins.clear();
        live_pins.extend_from_slice(pins);
    }
    #[cfg(test)]
    let mut count = tests::MatchCount {
        linear,
        ..Default::default()
    };

    for &v in order.iter() {
        if taken[v as usize] {
            continue;
        }
        // Best `(score, u)` so far; scores are at least 1, so a zero
        // score means no unmatched neighbour.
        let mut best = (0u64, 0u32);
        if linear {
            // Every neighbour shares exactly one small net with `v` and
            // scores that net's weight, so the partner is the highest
            // unmatched pin of `v`'s heaviest net (ties to the larger
            // pin). Each net's pointer walks its row down past matched
            // pins and `v`, which is matched below, so across the level
            // it passes each pin once.
            for &net in hg.nets_of(v as usize) {
                let ni = net as usize;
                let row = &pins[offsets[ni] as usize..offsets[ni + 1] as usize];
                if row.len() > MAX_MATCH_NET {
                    continue;
                }
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
                    best = best.max((match_weight(hg, ni, row.len()), row[top - 1]));
                }
            }
        } else {
            // Score unmatched neighbours by shared-net weight. Scores only
            // grow, so the running maximum of `(score, u)` over the updates
            // is the maximum over the final scores.
            touched.clear();
            for &net in hg.nets_of(v as usize) {
                let ni = net as usize;
                let size = (offsets[ni + 1] - offsets[ni]) as usize;
                if size > MAX_MATCH_NET {
                    continue;
                }
                let w = match_weight(hg, ni, size);
                let row = &mut live_pins[offsets[ni] as usize..][..live_len[ni] as usize];
                #[cfg(test)]
                {
                    count.visits += 1;
                    count.pins_read += row.len() as u64;
                }
                let mut len = row.len();
                let mut i = 0;
                while i < len {
                    let u = row[i];
                    if taken[u as usize] {
                        len -= 1;
                        row[i] = row[len];
                        continue;
                    }
                    i += 1;
                    if u == v {
                        continue;
                    }
                    let s = &mut score[u as usize];
                    if *s == 0 {
                        touched.push(u);
                    }
                    *s += w;
                    best = best.max((*s, u));
                }
                live_len[ni] = len as u32;
            }
            for &u in touched.iter() {
                score[u as usize] = 0;
            }
        }
        let cid = next_coarse;
        next_coarse += 1;
        matched[v as usize] = cid;
        taken[v as usize] = true;
        if best.0 > 0 {
            matched[best.1 as usize] = cid;
            taken[best.1 as usize] = true;
        }
    }
    #[cfg(test)]
    tests::MATCH_COUNTS.with(|c| c.borrow_mut().push(count));
    build_coarse(hg, matched, next_coarse as usize, net_buf)
}

/// Contract `hg` along `matched` (coarse id per fine vertex, ids
/// `0..cn`): vertex weights add up, each net maps to its sorted distinct
/// coarse pins, and nets left with fewer than 2 pins are dropped. Returns
/// the coarse hypergraph and `matched` as the fine→coarse map.
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
/// vertex is identical.
fn greedy_initial(hg: &Hypergraph, w0: u64, w1: u64, rng: &mut StdRng) -> Vec<u32> {
    let n = hg.num_vertices();
    let total = hg.total_vweight();
    let target0 = (total as u128 * w0 as u128 / (w0 + w1).max(1) as u128) as u64;
    let mut parts = vec![1u32; n];
    let mut weight0 = 0u64;
    let mut frontier: Vec<u32> = Vec::new();
    let mut in_part0 = vec![false; n];
    let mut pool: Vec<u32> = (0..n as u32).collect();

    while weight0 < target0 {
        let v = match frontier.pop() {
            Some(v) if !in_part0[v as usize] => v,
            Some(_) => continue,
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
fn fm_refine(hg: &Hypergraph, parts: &mut [u32], max0: u64, max1: u64, passes: usize) {
    let n = hg.num_vertices();
    if n == 0 {
        return;
    }
    let caps = [max0, max1];

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
    // Exact gain per vertex, maintained for the rest of the call (locked
    // vertices included — their stored gain seeds the next pass's heap).
    let mut gain: Vec<i64> = (0..n).map(|v| gain_of(hg, v, parts, &side_pins)).collect();
    // Gain value each vertex is currently queued under in the heap.
    let mut cached: Vec<i64> = vec![0; n];
    let mut locked = vec![false; n];
    let mut moves: Vec<u32> = Vec::with_capacity(n);
    let mut heap_vec: Vec<(i64, u32)> = Vec::with_capacity(n);
    // Cut weight at the start of the current pass.
    let mut cut: i64 = side_pins
        .iter()
        .enumerate()
        .filter(|(_, sp)| sp[0] > 0 && sp[1] > 0)
        .map(|(net, _)| hg.nweight(net) as i64)
        .sum();
    // Locked pins per net and side in the current pass.
    let mut locked_pins = vec![[0u32; 2]; hg.num_nets()];

    for _ in 0..passes {
        heap_vec.clear();
        for v in 0..n {
            cached[v] = gain[v];
            heap_vec.push((gain[v], v as u32));
        }
        let mut heap = BinaryHeap::from(std::mem::take(&mut heap_vec));
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
                locked_cut += lock_on(hg, vu, s, &mut locked_pins);
                continue;
            }
            // Apply the move. Moving flips every leave-term of v's gain
            // into the mirrored enter-term, so the gain negates.
            locked[vu] = true;
            locked_cut += lock_on(hg, vu, t, &mut locked_pins);
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
        heap_vec = heap.into_vec();
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
        let fine_hg = if idx == 0 { hg } else { &levels[idx - 1].coarse };
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
        /// The level took the linear (pointer) path.
        pub(super) linear: bool,
        /// `(vertex, net)` pairs matching visited: one per net of at
        /// most `MAX_MATCH_NET` pins of each vertex it matched from.
        pub(super) visits: u64,
        /// Pins those visits read.
        pub(super) pins_read: u64,
    }

    thread_local! {
        /// One entry per coarsening level run on this thread.
        pub(super) static MATCH_COUNTS: RefCell<Vec<MatchCount>> = const { RefCell::new(Vec::new()) };
        /// Moves made (before the rollback) per FM pass run on this thread.
        pub(super) static FM_MOVES: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
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

    #[test]
    fn grids_are_linear() {
        let mut stamp = Vec::new();
        for n in [2, 5, 12] {
            assert!(is_linear(&grid(n), &mut stamp), "grid({n})");
        }
        assert!(is_linear(&grid2(), &mut stamp));
    }

    #[test]
    fn a_second_net_through_two_cells_of_a_row_is_not_linear() {
        let mut stamp = Vec::new();
        // Cells 1 and 3 both lie in row 0 of the 5×5 grid.
        assert!(!is_linear(&grid_with(5, vec![1, 3, 17]), &mut stamp));
        // A duplicate of a column net shares all its pins with it.
        assert!(!is_linear(
            &grid_with(5, vec![2, 7, 12, 17, 22]),
            &mut stamp
        ));
        // One cell per row and column: a diagonal keeps the grid linear.
        assert!(is_linear(&grid_with(5, vec![0, 6, 12, 18, 24]), &mut stamp));
    }

    /// Matching ignores nets above `MAX_MATCH_NET` pins, so the check
    /// does too: a net over every cell of a 17×17 grid (289 pins) holds
    /// whole rows and leaves the grid linear, while the same cells cut to
    /// `MAX_MATCH_NET` pins make it non-linear.
    #[test]
    fn nets_above_the_matching_cap_are_ignored_by_the_check() {
        let mut stamp = Vec::new();
        let all: Vec<u32> = (0..17 * 17).collect();
        assert!(is_linear(&grid_with(17, all.clone()), &mut stamp));
        let capped = all[..MAX_MATCH_NET].to_vec();
        assert!(!is_linear(&grid_with(17, capped), &mut stamp));
    }

    /// A clique expansion is linear (parallel edges are merged), but its
    /// walk would read `Σ deg²` net ids against `4·edges` pins for a
    /// full-pin scan, so it keeps the scan.
    #[test]
    fn dense_graphs_keep_the_scan() {
        let graph = crate::clique::clique_expand(&grid(12));
        let mut stamp = Vec::new();
        assert!(is_linear(&graph, &mut stamp));
        assert!(!linearity_check_is_cheap(&graph));
        assert!(linearity_check_is_cheap(&grid(12)));
        MATCH_COUNTS.with(|c| c.borrow_mut().clear());
        coarsen_once(
            &graph,
            &mut StdRng::seed_from_u64(3),
            &mut CoarsenScratch::default(),
        );
        let counts = MATCH_COUNTS.with(|c| c.take());
        assert!(!counts[0].linear);
    }

    /// Exact work counts of one bisection of a 20×20 grid: matching reads
    /// and visits per level, and FM moves per pass. On the linear level
    /// each net's pointer passes each pin once, plus one read per visit
    /// that finds a partner. A re-scan, or an FM cut-off that never
    /// fires, changes these numbers.
    #[test]
    fn bisect_work_counts_are_pinned() {
        let hg = grid(20);
        MATCH_COUNTS.with(|c| c.borrow_mut().clear());
        FM_MOVES.with(|m| m.borrow_mut().clear());
        bisect(&hg, 200, 200, 0.02, 9);
        let counts = MATCH_COUNTS.with(|c| c.take());
        let moves = FM_MOVES.with(|m| m.take());
        let level0 = counts[0];
        assert!(
            level0.linear && level0.pins_read <= hg.num_pins() as u64 + 2 * level0.visits,
            "{level0:?}"
        );
        assert_eq!(
            counts,
            [
                MatchCount {
                    linear: true,
                    visits: 402,
                    pins_read: 941
                },
                MatchCount {
                    linear: false,
                    visits: 302,
                    pins_read: 3138
                },
            ],
            "matching counts"
        );
        assert_eq!(moves, [27, 26, 95, 93, 227], "FM moves per pass");
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

    #[test]
    fn coarsening_shrinks_and_projects() {
        let hg = grid(12);
        let mut rng = StdRng::seed_from_u64(1);
        let mut scratch = CoarsenScratch::default();
        let (coarse, map) = coarsen_once(&hg, &mut rng, &mut scratch);
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
            fm_refine(&hg, &mut fast, cap, cap, MAX_FM_PASSES);
            fm_refine_naive(&hg, &mut naive, cap, cap, MAX_FM_PASSES);
            assert_eq!(fast, naive, "case {case}");
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
