//! The simulated 2005 testbed: a deterministic virtual clock.
//!
//! The paper's measurements were taken on a Dell workstation with a 2.8 GHz
//! Pentium 4 and a 40 GB ATA disk (§5.4). Its quality-vs-time curves are
//! shaped by the *ratios* between disk seek time, transfer rate and
//! per-descriptor CPU cost; on a modern NVMe machine those ratios are
//! completely different and the curves degenerate. This module therefore
//! provides a virtual clock calibrated to the constants the paper itself
//! reports in §5.5:
//!
//! * reading **and** processing one SR-tree chunk (≈2.5 k descriptors,
//!   ≈250 kB) takes ≈10 ms;
//! * processing BAG's largest chunk (>1 M descriptors) takes ≈1.8 s of CPU;
//! * reading the chunk index (≈2.7 k entries) takes ≈50 ms.
//!
//! Searches still perform the real file I/O; the virtual clock runs
//! alongside and is what the experiment harness reports, making every
//! figure deterministic and machine-independent. [`PipelineClock`] models
//! the I/O–CPU overlap that makes uniform chunk sizes attractive: while the
//! CPU scans chunk *i*, the disk fetches chunk *i + 1*.

use std::ops::{Add, AddAssign, Sub};

/// A span of virtual time, in seconds.
#[derive(Clone, Copy, Debug, Default, PartialEq, PartialOrd)]
pub struct VirtualDuration(f64);

impl VirtualDuration {
    /// Zero time.
    pub const ZERO: VirtualDuration = VirtualDuration(0.0);

    /// From seconds.
    pub const fn from_secs(s: f64) -> Self {
        VirtualDuration(s)
    }

    /// From milliseconds.
    pub fn from_ms(ms: f64) -> Self {
        VirtualDuration(ms / 1e3)
    }

    /// From nanoseconds.
    pub(crate) fn from_ns(ns: f64) -> Self {
        VirtualDuration(ns / 1e9)
    }

    /// As seconds.
    pub fn as_secs(&self) -> f64 {
        self.0
    }

    /// As milliseconds.
    pub fn as_ms(&self) -> f64 {
        self.0 * 1e3
    }

    /// Component-wise maximum.
    pub fn max(self, other: Self) -> Self {
        VirtualDuration(self.0.max(other.0))
    }
}

impl Add for VirtualDuration {
    type Output = VirtualDuration;
    fn add(self, rhs: Self) -> Self {
        VirtualDuration(self.0 + rhs.0)
    }
}

impl AddAssign for VirtualDuration {
    fn add_assign(&mut self, rhs: Self) {
        self.0 += rhs.0;
    }
}

impl Sub for VirtualDuration {
    type Output = VirtualDuration;
    fn sub(self, rhs: Self) -> Self {
        VirtualDuration(self.0 - rhs.0)
    }
}

impl std::fmt::Display for VirtualDuration {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.0 < 1.0 {
            write!(f, "{:.1}ms", self.as_ms())
        } else {
            write!(f, "{:.3}s", self.0)
        }
    }
}

/// Cost constants of the simulated hardware.
#[derive(Clone, Copy, Debug)]
pub struct DiskModel {
    /// Average positioning time per random chunk access (seek + rotational
    /// latency), in milliseconds.
    pub seek_ms: f64,
    /// Sequential transfer rate, MB/s.
    pub transfer_mb_per_s: f64,
    /// CPU time to scan one descriptor (distance + neighbour-set update),
    /// nanoseconds.
    pub cpu_ns_per_descriptor: f64,
    /// CPU time per index entry during global chunk ranking (distance to
    /// centroid + sort share), nanoseconds.
    pub rank_ns_per_chunk: f64,
}

impl DiskModel {
    /// The paper's testbed: 2.8 GHz P4, 40 GB ATA disk.
    ///
    /// Calibration against §5.5: an SR-tree chunk of ~2.5 k descriptors
    /// (250 kB) costs `5 ms seek + 4.1 ms transfer ≈ 9 ms` of I/O and
    /// `4.5 ms` of CPU → ≈10 ms per chunk with overlap; BAG's chunks of
    /// over 1 M descriptors cost `1.8 µs × 1 M = 1.8 s` of CPU; a
    /// 2,685-entry index costs `10 ms I/O + 2,685 × 15 µs ≈ 50 ms`.
    pub fn ata_2005() -> Self {
        DiskModel {
            seek_ms: 5.0,
            transfer_mb_per_s: 60.0,
            cpu_ns_per_descriptor: 1_800.0,
            rank_ns_per_chunk: 15_000.0,
        }
    }

    /// A zero-cost model (use real wall-clock time instead).
    pub fn instant() -> Self {
        DiskModel {
            seek_ms: 0.0,
            transfer_mb_per_s: f64::INFINITY,
            cpu_ns_per_descriptor: 0.0,
            rank_ns_per_chunk: 0.0,
        }
    }

    /// Time to fetch `bytes` with one positioning operation.
    pub fn io_time(&self, bytes: u64) -> VirtualDuration {
        VirtualDuration::from_ms(self.seek_ms)
            + VirtualDuration::from_secs(bytes as f64 / (self.transfer_mb_per_s * 1e6))
    }

    /// CPU time to scan `n` descriptors against the query.
    pub fn scan_time(&self, n: usize) -> VirtualDuration {
        VirtualDuration::from_ns(self.cpu_ns_per_descriptor * n as f64)
    }

    /// CPU time to rank `n` chunk-index entries.
    pub fn rank_time(&self, n_chunks: usize) -> VirtualDuration {
        VirtualDuration::from_ns(self.rank_ns_per_chunk * n_chunks as f64)
    }

    /// Total cost of reading and ranking an `n`-entry chunk index
    /// (`index_bytes` from `crate::indexfile::index_file_bytes`).
    pub fn index_read_time(&self, n_chunks: usize, index_bytes: u64) -> VirtualDuration {
        self.io_time(index_bytes) + self.rank_time(n_chunks)
    }
}

/// A two-stage (disk, CPU) pipeline clock.
///
/// The search processes chunks in ranked order; with prefetching, chunk
/// `i + 1` is being fetched while chunk `i` is being scanned. A chunk's
/// *results* become visible when its CPU stage completes — the paper's
/// observation that "a single chunk is the natural granule of the search"
/// is exactly this: a 1 M-descriptor chunk blocks the CPU stage for 1.8 s
/// before any of its neighbours are reported.
#[derive(Clone, Copy, Debug)]
pub struct PipelineClock {
    io_free_at: f64,
    cpu_free_at: f64,
}

impl PipelineClock {
    /// Starts both stages at `start` (typically after the index read).
    pub fn start_at(start: VirtualDuration) -> Self {
        PipelineClock {
            io_free_at: start.as_secs(),
            cpu_free_at: start.as_secs(),
        }
    }

    /// Accounts one chunk with I/O overlapped against the previous chunk's
    /// CPU; returns the virtual time at which this chunk's results are
    /// available.
    pub fn chunk_overlapped(
        &mut self,
        io: VirtualDuration,
        cpu: VirtualDuration,
    ) -> VirtualDuration {
        let io_done = self.io_done_after(io);
        self.cpu_after(io_done, cpu)
    }

    /// The I/O half of [`chunk_overlapped`](Self::chunk_overlapped):
    /// serialises `io` on this clock's disk stage and returns the time the
    /// transfer finishes. Pairing it with [`cpu_after`](Self::cpu_after) on
    /// *another* clock models a cross-device delivery — the bytes come off
    /// one node's disk while the scan runs on another node's CPU.
    pub fn io_done_after(&mut self, io: VirtualDuration) -> VirtualDuration {
        let io_done = self.io_free_at + io.as_secs();
        self.io_free_at = io_done;
        VirtualDuration::from_secs(io_done)
    }

    /// The CPU half of [`chunk_overlapped`](Self::chunk_overlapped): starts
    /// `cpu` once both this clock's CPU stage and the delivery (`ready`)
    /// are free, and returns the completion time.
    /// `chunk_overlapped(io, cpu)` is bit-identical to
    /// `cpu_after(io_done_after(io), cpu)` on the same clock.
    pub fn cpu_after(&mut self, ready: VirtualDuration, cpu: VirtualDuration) -> VirtualDuration {
        let cpu_start = self.cpu_free_at.max(ready.as_secs());
        let cpu_done = cpu_start + cpu.as_secs();
        self.cpu_free_at = cpu_done;
        VirtualDuration::from_secs(cpu_done)
    }

    /// Accounts one chunk with no overlap (fetch, then scan); returns the
    /// completion time. Used by the overlap-ablation benchmark.
    pub fn chunk_serial(&mut self, io: VirtualDuration, cpu: VirtualDuration) -> VirtualDuration {
        let now = self.io_free_at.max(self.cpu_free_at);
        let done = now + io.as_secs() + cpu.as_secs();
        self.io_free_at = done;
        self.cpu_free_at = done;
        VirtualDuration::from_secs(done)
    }

    /// The current completion time of the CPU stage.
    pub fn now(&self) -> VirtualDuration {
        VirtualDuration::from_secs(self.cpu_free_at)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sr_chunk_costs_about_ten_ms() {
        // §5.5: "reading and processing each chunk takes only about 10 ms"
        // for SR-tree chunks of ~2.5k descriptors.
        let m = DiskModel::ata_2005();
        let bytes = 2_500u64 * 100;
        let per_chunk = m.io_time(bytes).max(m.scan_time(2_500));
        assert!(
            (per_chunk.as_ms() - 10.0).abs() < 3.0,
            "steady-state chunk cost {per_chunk} should be ≈10 ms"
        );
    }

    #[test]
    fn million_descriptor_chunk_costs_1_8_s_cpu() {
        // §5.5: "processing the largest chunk of the BAG algorithm took as
        // much as 1.8 seconds".
        let m = DiskModel::ata_2005();
        let cpu = m.scan_time(1_000_000);
        assert!((cpu.as_secs() - 1.8).abs() < 1e-9, "got {cpu}");
    }

    #[test]
    fn index_read_costs_about_fifty_ms() {
        // §5.5: "reading the chunk index takes about 50 milliseconds".
        let m = DiskModel::ata_2005();
        let n = 2_685;
        let bytes = crate::indexfile::index_file_bytes(n);
        let t = m.index_read_time(n, bytes);
        assert!(
            (t.as_ms() - 50.0).abs() < 10.0,
            "index read {t} should be ≈50 ms"
        );
    }

    #[test]
    fn overlap_beats_serial() {
        let m = DiskModel::ata_2005();
        let io = m.io_time(250_000);
        let cpu = m.scan_time(2_500);
        let mut over = PipelineClock::start_at(VirtualDuration::ZERO);
        let mut serial = PipelineClock::start_at(VirtualDuration::ZERO);
        for _ in 0..100 {
            over.chunk_overlapped(io, cpu);
            serial.chunk_serial(io, cpu);
        }
        assert!(over.now() < serial.now());
        // Steady state of overlap is max(io, cpu) per chunk.
        let expect = io.as_secs().max(cpu.as_secs()) * 100.0;
        assert!((over.now().as_secs() - expect).abs() / expect < 0.1);
    }

    #[test]
    fn pipeline_results_are_monotone() {
        let mut clock = PipelineClock::start_at(VirtualDuration::from_ms(50.0));
        let mut last = VirtualDuration::ZERO;
        for i in 0..10 {
            let t = clock.chunk_overlapped(
                VirtualDuration::from_ms(5.0 + i as f64),
                VirtualDuration::from_ms(3.0),
            );
            assert!(t > last);
            last = t;
        }
        assert_eq!(clock.now(), last);
    }

    #[test]
    fn overlap_decomposes_bit_identically() {
        // chunk_overlapped(io, cpu) must equal cpu_after(io_done_after(io), cpu)
        // on a clock in the same state — the fleet scheduler relies on this
        // to charge I/O and CPU on different clocks without drift.
        let m = DiskModel::ata_2005();
        let mut fused = PipelineClock::start_at(VirtualDuration::from_ms(50.0));
        let mut split = PipelineClock::start_at(VirtualDuration::from_ms(50.0));
        for i in 0..50u64 {
            let io = m.io_time(10_000 + i * 977);
            let cpu = m.scan_time(1_000 + (i as usize) * 113);
            let a = fused.chunk_overlapped(io, cpu);
            let ready = split.io_done_after(io);
            let b = split.cpu_after(ready, cpu);
            assert_eq!(a.as_secs().to_bits(), b.as_secs().to_bits());
        }
        assert_eq!(
            fused.now().as_secs().to_bits(),
            split.now().as_secs().to_bits()
        );
    }

    #[test]
    fn instant_model_is_free() {
        let m = DiskModel::instant();
        assert_eq!(m.io_time(1 << 30).as_secs(), 0.0);
        assert_eq!(m.scan_time(1 << 20).as_secs(), 0.0);
        assert_eq!(m.rank_time(10_000).as_secs(), 0.0);
    }

    #[test]
    fn duration_arithmetic_and_display() {
        let a = VirtualDuration::from_ms(500.0);
        let b = VirtualDuration::from_ms(700.0);
        assert_eq!((a + b).as_secs(), 1.2);
        assert!(a < b);
        assert_eq!(a.max(b), b);
        assert_eq!(format!("{a}"), "500.0ms");
        assert_eq!(format!("{}", a + b), "1.200s");
        assert!(((b - a).as_ms() - 200.0).abs() < 1e-9);
    }

    #[test]
    fn io_time_scales_with_bytes() {
        let m = DiskModel::ata_2005();
        let small = m.io_time(4_096);
        let big = m.io_time(100 << 20);
        assert!(big > small);
        // Tiny read is dominated by the seek.
        assert!((small.as_ms() - m.seek_ms).abs() < 1.0);
    }
}
