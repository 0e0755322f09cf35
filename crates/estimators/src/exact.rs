//! Exact-scan selectivity estimator.
//!
//! *Exact Selectivity Computation* (PAPERS.md) observes that for small
//! in-memory tables, scanning beats every estimator: the answer is the
//! truth, at a cost linear in the table. This estimator stages the
//! table's rows as columnar SoA stripes once and answers each query
//! with a single fused [`sweep_reduce`](Device::sweep_reduce) launch
//! that sums a branch-free 0/1 containment indicator per row, so the
//! device ledger charges and times it like any other sweep.
//!
//! Because every per-row value is exactly `0.0` or `1.0`, the device's
//! pairwise summation is exact — the estimate is bitwise equal to a
//! scalar host loop on every backend (pinned by proptest).
//!
//! The staged copy is not maintained under inserts: like a dropped
//! index, an exact scan over a stale snapshot is only exact for the
//! data it saw.

use kdesel_device::{Device, SoaBuffer};
use kdesel_types::{Rect, SelectivityEstimator};

/// Modeled FLOPs per row per dimension of the containment sweep: two
/// compares, one convert, one multiply.
const FLOPS_PER_DIM: f64 = 4.0;

/// An exact estimator over a staged snapshot of the table.
pub struct ExactScanEstimator {
    device: Device,
    staged: SoaBuffer,
    rows: usize,
    dims: usize,
}

impl ExactScanEstimator {
    /// Stages `rows_flat` (row-major, `dims` values per row) on
    /// `device`.
    ///
    /// # Panics
    /// Panics if `rows_flat` is ragged.
    pub fn new(device: Device, rows_flat: &[f64], dims: usize) -> Self {
        assert!(dims > 0, "exact scan needs at least one dimension");
        assert_eq!(
            rows_flat.len() % dims,
            0,
            "row buffer length {} is not a multiple of dims {dims}",
            rows_flat.len()
        );
        let staged = device.stage_rows_soa(rows_flat, dims);
        let rows = rows_flat.len() / dims;
        Self {
            device,
            staged,
            rows,
            dims,
        }
    }

    /// Exact selectivity of `region` over the staged snapshot, via one
    /// fused containment sweep.
    pub fn estimate(&self, region: &Rect) -> f64 {
        assert_eq!(region.dims(), self.dims, "query dimensionality mismatch");
        if self.rows == 0 {
            return 0.0;
        }
        let (lo, hi) = (region.lo(), region.hi());
        let dims = self.dims;
        let (count, _) = self.device.sweep_reduce(
            &self.staged,
            FLOPS_PER_DIM * dims as f64,
            false,
            |view, out| {
                for (r, slot) in out.iter_mut().enumerate() {
                    let mut inside = 1.0;
                    for d in 0..dims {
                        let x = view.col(d)[r];
                        inside *= f64::from(lo[d] <= x && x <= hi[d]);
                    }
                    *slot = inside;
                }
            },
        );
        count / self.rows as f64
    }

    /// Scalar host reference of [`estimate`](Self::estimate): the
    /// oracle the device sweep must match bitwise.
    pub fn scalar_reference(rows_flat: &[f64], dims: usize, region: &Rect) -> f64 {
        let rows = rows_flat.len() / dims;
        if rows == 0 {
            return 0.0;
        }
        let hits = rows_flat
            .chunks_exact(dims)
            .filter(|row| region.contains(row))
            .count();
        hits as f64 / rows as f64
    }

    /// Rows in the staged snapshot.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// The device the snapshot lives on.
    pub fn device(&self) -> &Device {
        &self.device
    }

    /// Device bytes held by the staged snapshot.
    pub fn memory_bytes(&self) -> usize {
        self.staged.len() * std::mem::size_of::<f64>()
    }
}

impl SelectivityEstimator for ExactScanEstimator {
    fn estimate(&mut self, region: &Rect) -> f64 {
        ExactScanEstimator::estimate(self, region)
    }

    fn memory_bytes(&self) -> usize {
        ExactScanEstimator::memory_bytes(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kdesel_device::Backend;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn rows(n: usize, dims: usize, seed: u64) -> Vec<f64> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n * dims).map(|_| rng.gen_range(0.0..100.0)).collect()
    }

    #[test]
    fn matches_scalar_reference_bitwise_on_all_backends() {
        let dims = 3;
        let data = rows(777, dims, 21);
        let queries = [
            Rect::cube(dims, 20.0, 70.0),
            Rect::cube(dims, -5.0, 200.0),
            Rect::cube(dims, 99.0, 99.5),
            Rect::new(vec![0.0, 50.0, 0.0], vec![100.0, 50.0, 100.0]),
        ];
        for backend in [Backend::CpuSeq, Backend::CpuPar, Backend::SimGpu] {
            let est = ExactScanEstimator::new(Device::new(backend), &data, dims);
            for q in &queries {
                let got = est.estimate(q);
                let want = ExactScanEstimator::scalar_reference(&data, dims, q);
                assert_eq!(
                    got.to_bits(),
                    want.to_bits(),
                    "backend {backend:?} query {q:?}: {got} vs {want}"
                );
            }
        }
    }

    #[test]
    fn empty_snapshot_estimates_zero() {
        let est = ExactScanEstimator::new(Device::new(Backend::CpuSeq), &[], 2);
        assert_eq!(est.estimate(&Rect::cube(2, 0.0, 1.0)), 0.0);
    }
}
