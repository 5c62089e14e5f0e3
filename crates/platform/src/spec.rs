//! Platform description: the topology of Figure 2 — host memory connected
//! to `K` GPU memories through one shared PCI-Express bus.

/// Nanosecond simulation timestamps.
pub type Nanos = u64;

/// Description of the simulated machine.
///
/// The defaults mirror the paper's experimental platform: Tesla V100 GPUs
/// (13 253 GFlop/s of SGEMM throughput each — the "GFlop/s max" roofline of
/// Figure 3), a shared PCIe 3.0 ×16 bus at ~12 GB/s, and a GPU memory
/// clamped to 500 MB "to better distinguish the performance of different
/// strategies even on small datasets" (§V-A).
#[derive(Clone, Debug, PartialEq)]
pub struct PlatformSpec {
    /// Number of GPUs `K`.
    pub num_gpus: usize,
    /// Usable memory per GPU, in bytes.
    pub memory_bytes: u64,
    /// Shared host↔GPU bus bandwidth in bytes per second.
    pub bus_bandwidth: f64,
    /// Fixed per-transfer latency in nanoseconds (DMA setup, driver call).
    pub transfer_latency: Nanos,
    /// Sustained compute throughput per GPU in GFlop/s.
    pub gpu_gflops: f64,
    /// How many tasks a worker holds in its execution pipeline
    /// (`taskBuffer_k` in the paper): inputs of queued tasks are prefetched
    /// so transfers overlap the current execution.
    pub pipeline_depth: usize,
    /// Optional per-GPU throughput overrides in GFlop/s (heterogeneous
    /// platform, the §III extension; DMDA was designed for exactly this).
    /// `None` = all GPUs run at `gpu_gflops`. When set, the length must
    /// equal `num_gpus`.
    pub gpu_gflops_override: Option<Vec<f64>>,
    /// Optional GPU↔GPU interconnect bandwidth in bytes per second
    /// (NVLink). When set, a fetch whose data is already resident on a
    /// peer GPU uses this dedicated fabric instead of the shared PCI bus —
    /// the extension the paper lists as future work (§VI). `None` models
    /// the paper's PCI-only platform.
    pub nvlink_bandwidth: Option<f64>,
    /// Optional PCI bus topology: `bus_groups[g]` is the bus index GPU `g`
    /// hangs off, so GPUs sharing an index contend for one bus while GPUs
    /// on different buses transfer concurrently (real nodes are
    /// hierarchical — a DGX hangs 4 GPUs off each of 2 PCIe switches).
    /// Bus indices must be contiguous starting at 0. `None` = every GPU
    /// shares one bus, byte-identical to the pre-topology platform.
    pub bus_groups: Option<Vec<usize>>,
}

/// 500 MB — the paper's clamped GPU memory.
pub const PAPER_MEMORY_BYTES: u64 = 500_000_000;

/// 32 GB — the "without memory limitation" setting of Figure 13.
pub const UNLIMITED_MEMORY_BYTES: u64 = 32_000_000_000;

/// The V100 SGEMM roofline reported in the paper (Figure 3).
pub const V100_GFLOPS: f64 = 13_253.0;

/// Effective PCIe 3.0 ×16 bandwidth.
pub const PCIE_BANDWIDTH: f64 = 12.0e9;

/// Effective NVLink 2.0 bandwidth between V100 pairs.
pub const NVLINK_BANDWIDTH: f64 = 50.0e9;

impl PlatformSpec {
    /// The paper's platform: `k` Tesla V100s with 500 MB of usable memory
    /// each, sharing a 12 GB/s PCIe bus.
    pub fn v100(k: usize) -> Self {
        assert!(k > 0, "need at least one GPU");
        Self {
            num_gpus: k,
            memory_bytes: PAPER_MEMORY_BYTES,
            bus_bandwidth: PCIE_BANDWIDTH,
            transfer_latency: 10_000, // 10 µs
            gpu_gflops: V100_GFLOPS,
            pipeline_depth: 4,
            gpu_gflops_override: None,
            nvlink_bandwidth: None,
            bus_groups: None,
        }
    }

    /// Figure 13's variant: V100s with the full 32 GB of memory.
    pub fn v100_unlimited(k: usize) -> Self {
        Self {
            memory_bytes: UNLIMITED_MEMORY_BYTES,
            ..Self::v100(k)
        }
    }

    /// The §VI future-work platform: V100s joined by an NVLink fabric
    /// (~50 GB/s effective), so data can move between GPUs without
    /// crossing the PCI bus.
    pub fn v100_nvlink(k: usize) -> Self {
        Self {
            nvlink_bandwidth: Some(NVLINK_BANDWIDTH),
            ..Self::v100(k)
        }
    }

    /// A multi-bus node: `k` V100s spread across `buses` PCI buses
    /// round-robin by contiguous blocks (GPUs `0..k/buses` on bus 0, the
    /// next block on bus 1, …), the DGX-style hierarchy of ROADMAP item 3.
    pub fn v100_multibus(k: usize, buses: usize) -> Self {
        assert!(buses > 0, "need at least one bus");
        assert!(buses <= k, "more buses than GPUs");
        // Balanced block partition: bus b owns GPUs [b*k/buses, (b+1)*k/buses).
        Self::v100(k).with_bus_groups((0..k).map(|g| g * buses / k).collect())
    }

    /// Bus-topology builder: `groups[g]` is the PCI bus of GPU `g`. Bus
    /// indices must be contiguous from 0 (every bus below the max index
    /// must own at least one GPU).
    pub fn with_bus_groups(mut self, groups: Vec<usize>) -> Self {
        assert_eq!(
            groups.len(),
            self.num_gpus,
            "one bus index per GPU required"
        );
        let buses = groups.iter().max().map_or(0, |&m| m + 1);
        for b in 0..buses {
            assert!(
                groups.contains(&b),
                "bus indices must be contiguous from 0 (bus {b} owns no GPU)"
            );
        }
        self.bus_groups = Some(groups);
        self
    }

    /// The PCI bus GPU `g` hangs off (0 when the node has one shared bus).
    #[inline]
    pub fn bus_of(&self, gpu: usize) -> usize {
        match &self.bus_groups {
            Some(groups) => groups[gpu],
            None => 0,
        }
    }

    /// Number of distinct PCI buses (1 when `bus_groups` is unset).
    pub fn num_buses(&self) -> usize {
        match &self.bus_groups {
            Some(groups) => groups.iter().max().map_or(1, |&m| m + 1),
            None => 1,
        }
    }

    /// Override the per-GPU memory (builder style).
    pub fn with_memory(mut self, bytes: u64) -> Self {
        self.memory_bytes = bytes;
        self
    }

    /// Heterogeneous builder: give each GPU its own throughput.
    pub fn with_heterogeneous_gflops(mut self, gflops: Vec<f64>) -> Self {
        assert_eq!(
            gflops.len(),
            self.num_gpus,
            "one throughput per GPU required"
        );
        assert!(
            gflops.iter().all(|&g| g > 0.0),
            "throughputs must be positive"
        );
        self.gpu_gflops_override = Some(gflops);
        self
    }

    /// Throughput of one specific GPU in GFlop/s.
    pub fn gflops_of(&self, gpu: usize) -> f64 {
        match &self.gpu_gflops_override {
            Some(v) => v[gpu],
            None => self.gpu_gflops,
        }
    }

    /// Aggregate platform throughput (the roofline of the figures).
    pub fn total_gflops(&self) -> f64 {
        match &self.gpu_gflops_override {
            Some(v) => v.iter().sum(),
            None => self.num_gpus as f64 * self.gpu_gflops,
        }
    }

    /// Time to execute `flops` on a specific GPU.
    pub fn compute_time_on(&self, gpu: usize, flops: f64) -> Nanos {
        (flops / self.gflops_of(gpu)).max(0.0) as Nanos
    }

    /// Override the pipeline depth (builder style).
    pub fn with_pipeline_depth(mut self, depth: usize) -> Self {
        assert!(depth >= 1, "pipeline depth must be at least 1");
        self.pipeline_depth = depth;
        self
    }

    /// Time for one host→GPU transfer of `bytes` (latency + serialization).
    pub fn transfer_time(&self, bytes: u64) -> Nanos {
        self.transfer_latency + (bytes as f64 / self.bus_bandwidth * 1e9) as Nanos
    }

    /// Predicted communication time used by DMDA's Eq. (1).
    pub fn comm_estimate(&self, bytes: u64) -> Nanos {
        self.transfer_time(bytes)
    }

    /// Time for one GPU→GPU transfer of `bytes` over the NVLink fabric.
    /// Panics if the platform has no NVLink.
    pub fn nvlink_time(&self, bytes: u64) -> Nanos {
        let bw = self
            .nvlink_bandwidth
            .expect("platform has no NVLink fabric");
        self.transfer_latency + (bytes as f64 / bw * 1e9) as Nanos
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compute_time_is_flops_over_gflops() {
        let spec = PlatformSpec::v100(1);
        // 13 253 GFlop should take exactly one second = 1e9 ns.
        let ns = spec.compute_time_on(0, 13_253.0 * 1e9);
        assert!((ns as f64 - 1e9).abs() < 1e3, "ns = {ns}");
        // The per-GPU path honors heterogeneous overrides — the homogeneous
        // `compute_time` helper that silently ignored them is gone.
        let het = PlatformSpec::v100(1).with_heterogeneous_gflops(vec![13_253.0 / 2.0]);
        assert_eq!(het.compute_time_on(0, 13_253.0 * 1e9), 2 * ns);
    }

    #[test]
    fn transfer_time_includes_latency() {
        let spec = PlatformSpec::v100(2);
        assert_eq!(spec.transfer_time(0), 10_000);
        // 12 GB at 12 GB/s = 1 s.
        let ns = spec.transfer_time(12_000_000_000);
        assert!((ns as f64 - 1.00001e9).abs() < 1e3, "ns = {ns}");
    }

    #[test]
    fn presets_match_paper() {
        let spec = PlatformSpec::v100(4);
        assert_eq!(spec.num_gpus, 4);
        assert_eq!(spec.memory_bytes, 500_000_000);
        let unlimited = PlatformSpec::v100_unlimited(4);
        assert_eq!(unlimited.memory_bytes, 32_000_000_000);
        assert_eq!(unlimited.gpu_gflops, spec.gpu_gflops);
    }

    #[test]
    fn nvlink_preset_and_timing() {
        let spec = PlatformSpec::v100_nvlink(2);
        assert_eq!(spec.nvlink_bandwidth, Some(50.0e9));
        // 50 GB at 50 GB/s = 1 s (+latency).
        let ns = spec.nvlink_time(50_000_000_000);
        assert!((ns as f64 - 1.00001e9).abs() < 1e3, "ns = {ns}");
        assert!(PlatformSpec::v100(2).nvlink_bandwidth.is_none());
    }

    #[test]
    #[should_panic(expected = "no NVLink")]
    fn nvlink_time_requires_fabric() {
        PlatformSpec::v100(1).nvlink_time(100);
    }

    #[test]
    fn heterogeneous_gflops_per_gpu() {
        let spec = PlatformSpec::v100(2).with_heterogeneous_gflops(vec![10_000.0, 5_000.0]);
        assert_eq!(spec.gflops_of(0), 10_000.0);
        assert_eq!(spec.gflops_of(1), 5_000.0);
        assert_eq!(spec.total_gflops(), 15_000.0);
        // Same flops take twice as long on the slow GPU.
        let flops = 1e12;
        assert_eq!(
            spec.compute_time_on(1, flops),
            2 * spec.compute_time_on(0, flops)
        );
        // Homogeneous default.
        let homo = PlatformSpec::v100(2);
        assert_eq!(homo.gflops_of(0), homo.gflops_of(1));
        assert_eq!(homo.total_gflops(), 2.0 * V100_GFLOPS);
    }

    #[test]
    #[should_panic(expected = "one throughput per GPU")]
    fn heterogeneous_wrong_arity_rejected() {
        PlatformSpec::v100(3).with_heterogeneous_gflops(vec![1.0]);
    }

    #[test]
    fn builders_override_fields() {
        let spec = PlatformSpec::v100(1)
            .with_memory(1234)
            .with_pipeline_depth(7);
        assert_eq!(spec.memory_bytes, 1234);
        assert_eq!(spec.pipeline_depth, 7);
    }

    #[test]
    #[should_panic(expected = "at least one GPU")]
    fn zero_gpus_rejected() {
        PlatformSpec::v100(0);
    }

    #[test]
    fn multibus_preset_blocks_gpus_across_buses() {
        let spec = PlatformSpec::v100_multibus(8, 2);
        assert_eq!(spec.bus_groups, Some(vec![0, 0, 0, 0, 1, 1, 1, 1]));
        assert_eq!(spec.num_buses(), 2);
        assert_eq!(spec.bus_of(3), 0);
        assert_eq!(spec.bus_of(4), 1);
        // Uneven split: contiguous blocks, earlier buses take the remainder.
        let spec = PlatformSpec::v100_multibus(5, 2);
        assert_eq!(spec.bus_groups, Some(vec![0, 0, 0, 1, 1]));
        // Single shared bus stays the default.
        let flat = PlatformSpec::v100(4);
        assert_eq!(flat.bus_groups, None);
        assert_eq!(flat.num_buses(), 1);
        assert_eq!(flat.bus_of(3), 0);
        // One bus per GPU is the fully-disjoint extreme.
        let per_gpu = PlatformSpec::v100_multibus(3, 3);
        assert_eq!(per_gpu.bus_groups, Some(vec![0, 1, 2]));
        assert_eq!(per_gpu.num_buses(), 3);
    }

    #[test]
    #[should_panic(expected = "contiguous from 0")]
    fn bus_groups_must_be_contiguous() {
        PlatformSpec::v100(2).with_bus_groups(vec![0, 2]);
    }

    #[test]
    #[should_panic(expected = "one bus index per GPU")]
    fn bus_groups_wrong_arity_rejected() {
        PlatformSpec::v100(3).with_bus_groups(vec![0]);
    }

    #[test]
    #[should_panic(expected = "more buses than GPUs")]
    fn multibus_more_buses_than_gpus_rejected() {
        PlatformSpec::v100_multibus(2, 3);
    }
}
