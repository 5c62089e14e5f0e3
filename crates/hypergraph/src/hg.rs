//! Hypergraph data structure.
//!
//! In the hMETIS+R strategy (§IV-B) the task set is modelled as a
//! hypergraph: one **vertex per task** (weighted by its load) and one
//! **hyperedge (net) per data item**, spanning every task that reads it.
//! Partitioning the vertices into `K` balanced parts while minimizing the
//! number of nets that span several parts minimizes the number of data
//! items that must be replicated on several GPUs.

/// A hypergraph in pin-list (CSR) form, with vertex and net weights.
#[derive(Clone, Debug, Default)]
pub struct Hypergraph {
    /// Net -> pins (vertex ids).
    net_offsets: Vec<u32>,
    net_pins: Vec<u32>,
    /// Vertex -> incident nets.
    vert_offsets: Vec<u32>,
    vert_nets: Vec<u32>,
    /// Vertex weights (task loads).
    vweights: Vec<u64>,
    /// Net weights (data sizes or unit).
    nweights: Vec<u64>,
}

impl Hypergraph {
    /// Build from per-net pin lists and weights. Pins may be unsorted;
    /// duplicates within a net are removed.
    pub fn new(num_vertices: usize, nets: Vec<Vec<u32>>, vweights: Vec<u64>, nweights: Vec<u64>) -> Self {
        assert_eq!(nweights.len(), nets.len(), "one weight per net");
        let mut net_offsets = Vec::with_capacity(nets.len() + 1);
        net_offsets.push(0u32);
        let mut net_pins = Vec::new();
        for mut pins in nets {
            pins.sort_unstable();
            pins.dedup();
            net_pins.extend_from_slice(&pins);
            net_offsets.push(net_pins.len() as u32);
        }
        Self::from_csr(num_vertices, net_offsets, net_pins, vweights, nweights)
    }

    /// Build from nets already in CSR form: net `n` owns
    /// `net_pins[net_offsets[n]..net_offsets[n + 1]]`, which must be
    /// strictly ascending (sorted, no duplicates). Skips the per-net copy
    /// and sort of [`Hypergraph::new`].
    pub fn from_csr(
        num_vertices: usize,
        net_offsets: Vec<u32>,
        net_pins: Vec<u32>,
        vweights: Vec<u64>,
        nweights: Vec<u64>,
    ) -> Self {
        assert_eq!(vweights.len(), num_vertices, "one weight per vertex");
        assert_eq!(net_offsets.len(), nweights.len() + 1, "one weight per net");
        assert_eq!(net_offsets[0], 0, "offsets start at 0");
        assert_eq!(
            *net_offsets.last().expect("offsets are non-empty") as usize,
            net_pins.len(),
            "offsets end at the pin count"
        );
        for w in net_offsets.windows(2) {
            assert!(w[0] <= w[1], "offsets must not decrease");
            let pins = &net_pins[w[0] as usize..w[1] as usize];
            assert!(
                pins.windows(2).all(|p| p[0] < p[1]),
                "net pins must be strictly ascending"
            );
            if let Some(&p) = pins.last() {
                assert!((p as usize) < num_vertices, "pin {p} out of range");
            }
        }

        // Transpose: vertex -> nets.
        let mut degree = vec![0u32; num_vertices];
        for &v in &net_pins {
            degree[v as usize] += 1;
        }
        let mut vert_offsets = Vec::with_capacity(num_vertices + 1);
        vert_offsets.push(0u32);
        for &d in &degree {
            vert_offsets.push(vert_offsets.last().unwrap() + d);
        }
        let mut cursor: Vec<u32> = vert_offsets[..num_vertices].to_vec();
        let mut vert_nets = vec![0u32; net_pins.len()];
        for (n, w) in net_offsets.windows(2).enumerate() {
            for &v in &net_pins[w[0] as usize..w[1] as usize] {
                vert_nets[cursor[v as usize] as usize] = n as u32;
                cursor[v as usize] += 1;
            }
        }

        Self {
            net_offsets,
            net_pins,
            vert_offsets,
            vert_nets,
            vweights,
            nweights,
        }
    }

    /// Unit-weight convenience constructor.
    pub fn unit(num_vertices: usize, nets: Vec<Vec<u32>>) -> Self {
        let n = nets.len();
        Self::new(num_vertices, nets, vec![1; num_vertices], vec![1; n])
    }

    /// Number of vertices.
    #[inline]
    pub fn num_vertices(&self) -> usize {
        self.vweights.len()
    }

    /// Number of nets.
    #[inline]
    pub fn num_nets(&self) -> usize {
        self.nweights.len()
    }

    /// Total number of pins.
    #[inline]
    pub fn num_pins(&self) -> usize {
        self.net_pins.len()
    }

    /// The net -> pins CSR arrays `(net_offsets, net_pins)`.
    #[inline]
    pub(crate) fn pin_csr(&self) -> (&[u32], &[u32]) {
        (&self.net_offsets, &self.net_pins)
    }

    /// Pins of net `n`, sorted.
    #[inline]
    pub fn pins(&self, n: usize) -> &[u32] {
        &self.net_pins[self.net_offsets[n] as usize..self.net_offsets[n + 1] as usize]
    }

    /// Nets incident to vertex `v`.
    #[inline]
    pub fn nets_of(&self, v: usize) -> &[u32] {
        &self.vert_nets[self.vert_offsets[v] as usize..self.vert_offsets[v + 1] as usize]
    }

    /// Weight of vertex `v`.
    #[inline]
    pub fn vweight(&self, v: usize) -> u64 {
        self.vweights[v]
    }

    /// Weight of net `n`.
    #[inline]
    pub fn nweight(&self, n: usize) -> u64 {
        self.nweights[n]
    }

    /// Total vertex weight.
    pub fn total_vweight(&self) -> u64 {
        self.vweights.iter().sum()
    }
}

/// Quality metrics of a partition.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct PartitionQuality {
    /// Connectivity−1 metric: `Σ_net w(net)·(λ(net) − 1)` where `λ` is the
    /// number of parts the net spans. This is hMETIS's "sum of external
    /// degrees" objective and exactly the number of extra data copies the
    /// partition forces.
    pub connectivity_minus_one: u64,
    /// Plain hyperedge cut: total weight of nets spanning ≥ 2 parts.
    pub cut_nets: u64,
    /// Heaviest part weight.
    pub max_part_weight: u64,
    /// Lightest part weight.
    pub min_part_weight: u64,
}

/// Compute the quality of `parts` (one part id per vertex) for `k` parts.
pub fn evaluate(hg: &Hypergraph, parts: &[u32], k: usize) -> PartitionQuality {
    assert_eq!(parts.len(), hg.num_vertices());
    let mut conn = 0u64;
    let mut cut = 0u64;
    let mut seen = vec![u32::MAX; k];
    for n in 0..hg.num_nets() {
        let mut lambda = 0u64;
        for &p in hg.pins(n) {
            let part = parts[p as usize] as usize;
            if seen[part] != n as u32 {
                seen[part] = n as u32;
                lambda += 1;
            }
        }
        if lambda > 1 {
            conn += hg.nweight(n) * (lambda - 1);
            cut += hg.nweight(n);
        }
    }
    let mut weights = vec![0u64; k];
    for (v, &p) in parts.iter().enumerate() {
        weights[p as usize] += hg.vweight(v);
    }
    PartitionQuality {
        connectivity_minus_one: conn,
        cut_nets: cut,
        max_part_weight: weights.iter().copied().max().unwrap_or(0),
        min_part_weight: weights.iter().copied().min().unwrap_or(0),
    }
}

#[cfg(test)]
pub(crate) use tests::grid2;

#[cfg(test)]
mod tests {
    use super::*;

    /// 2×2 task grid sharing rows/columns: nets {0,1}, {2,3}, {0,2}, {1,3}.
    pub(crate) fn grid2() -> Hypergraph {
        Hypergraph::unit(4, vec![vec![0, 1], vec![2, 3], vec![0, 2], vec![1, 3]])
    }

    #[test]
    fn construction_and_transpose() {
        let hg = grid2();
        assert_eq!(hg.num_vertices(), 4);
        assert_eq!(hg.num_nets(), 4);
        assert_eq!(hg.num_pins(), 8);
        assert_eq!(hg.pins(0), &[0, 1]);
        assert_eq!(hg.nets_of(0), &[0, 2]);
        assert_eq!(hg.nets_of(3), &[1, 3]);
        assert_eq!(hg.total_vweight(), 4);
    }

    #[test]
    fn csr_constructor_matches_new() {
        let hg = grid2();
        let csr = Hypergraph::from_csr(
            4,
            vec![0, 2, 4, 6, 8],
            vec![0, 1, 2, 3, 0, 2, 1, 3],
            vec![1; 4],
            vec![1; 4],
        );
        for n in 0..4 {
            assert_eq!(csr.pins(n), hg.pins(n));
        }
        for v in 0..4 {
            assert_eq!(csr.nets_of(v), hg.nets_of(v));
        }
    }

    #[test]
    #[should_panic(expected = "strictly ascending")]
    fn csr_rows_must_ascend() {
        Hypergraph::from_csr(2, vec![0, 2], vec![1, 1], vec![1; 2], vec![1]);
    }

    #[test]
    fn duplicate_pins_are_removed() {
        let hg = Hypergraph::unit(2, vec![vec![0, 0, 1, 1]]);
        assert_eq!(hg.pins(0), &[0, 1]);
    }

    #[test]
    fn evaluate_row_partition() {
        let hg = grid2();
        // Parts {0,1} and {2,3}: row nets internal, column nets cut.
        let q = evaluate(&hg, &[0, 0, 1, 1], 2);
        assert_eq!(q.connectivity_minus_one, 2);
        assert_eq!(q.cut_nets, 2);
        assert_eq!(q.max_part_weight, 2);
        assert_eq!(q.min_part_weight, 2);
    }

    #[test]
    fn evaluate_bad_partition() {
        let hg = grid2();
        // Diagonal split cuts everything.
        let q = evaluate(&hg, &[0, 1, 1, 0], 2);
        assert_eq!(q.connectivity_minus_one, 4);
        assert_eq!(q.cut_nets, 4);
    }

    #[test]
    fn evaluate_single_part_has_no_cut() {
        let hg = grid2();
        let q = evaluate(&hg, &[0, 0, 0, 0], 1);
        assert_eq!(q.connectivity_minus_one, 0);
        assert_eq!(q.cut_nets, 0);
        assert_eq!(q.max_part_weight, 4);
    }

    #[test]
    fn weighted_nets_scale_the_cut() {
        let hg = Hypergraph::new(
            2,
            vec![vec![0, 1]],
            vec![1, 1],
            vec![10],
        );
        let q = evaluate(&hg, &[0, 1], 2);
        assert_eq!(q.connectivity_minus_one, 10);
        assert_eq!(q.cut_nets, 10);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_pin_panics() {
        Hypergraph::unit(1, vec![vec![5]]);
    }
}
