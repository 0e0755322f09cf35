//! The paper's synthetic dataset (§6.1.2, after Gunopulos et al. \[14\]).
//!
//! "Synthetic dataset from \[14\], consisting of one million points. It is
//! generated by randomly placing hyper-rectangular clusters with a uniform
//! interior distribution, and then adding uniformly distributed noise."

use kdesel_storage::Table;
use kdesel_types::Rect;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Synthetic-generator configuration.
#[derive(Debug, Clone)]
pub struct SyntheticConfig {
    /// Dimensionality `d`.
    pub dims: usize,
    /// Total number of points (cluster points + noise).
    pub rows: usize,
    /// Number of hyper-rectangular clusters.
    pub clusters: usize,
    /// Fraction of points drawn uniformly over the whole domain.
    pub noise_fraction: f64,
    /// Per-dimension cluster side length, as a fraction of the domain
    /// extent, drawn uniformly from this range per cluster per dimension.
    pub cluster_extent: (f64, f64),
    /// The data domain (defaults to the unit cube scaled ×100 so tests catch
    /// unit-cube assumptions — the paper explicitly does *not* assume data
    /// in the unit cube, §2.1).
    pub domain: Rect,
}

impl SyntheticConfig {
    /// The configuration used by the reproduction experiments: 10 clusters,
    /// 10% noise, cluster sides covering 5–20% of the domain.
    pub fn paper_default(dims: usize, rows: usize) -> Self {
        Self {
            dims,
            rows,
            clusters: 10,
            noise_fraction: 0.10,
            cluster_extent: (0.05, 0.20),
            domain: Rect::cube(dims, 0.0, 100.0),
        }
    }
}

/// Generates the synthetic dataset.
///
/// # Panics
/// Panics on degenerate configuration (zero rows/dims, noise fraction
/// outside `[0,1]`, domain dimensionality mismatch).
pub fn generate(config: &SyntheticConfig, seed: u64) -> Table {
    assert!(config.dims > 0 && config.rows > 0 && config.clusters > 0);
    assert!((0.0..=1.0).contains(&config.noise_fraction));
    assert_eq!(config.domain.dims(), config.dims);
    let mut rng = StdRng::seed_from_u64(seed);

    // Place cluster boxes.
    let boxes: Vec<Rect> = (0..config.clusters)
        .map(|_| {
            let mut lo = Vec::with_capacity(config.dims);
            let mut hi = Vec::with_capacity(config.dims);
            for i in 0..config.dims {
                let (dl, dh) = config.domain.interval(i);
                let extent =
                    (dh - dl) * rng.gen_range(config.cluster_extent.0..=config.cluster_extent.1);
                let start = rng.gen_range(dl..(dh - extent).max(dl + f64::EPSILON));
                lo.push(start);
                hi.push(start + extent);
            }
            Rect::new(lo, hi)
        })
        .collect();

    let noise_rows = (config.rows as f64 * config.noise_fraction).round() as usize;
    let cluster_rows = config.rows - noise_rows;

    let mut data = Vec::with_capacity(config.rows * config.dims);
    // Cluster points: cluster chosen uniformly, interior uniform.
    for _ in 0..cluster_rows {
        let b = &boxes[rng.gen_range(0..boxes.len())];
        for i in 0..config.dims {
            let (l, h) = b.interval(i);
            data.push(if l == h { l } else { rng.gen_range(l..h) });
        }
    }
    // Uniform noise over the whole domain.
    for _ in 0..noise_rows {
        for i in 0..config.dims {
            let (l, h) = config.domain.interval(i);
            data.push(rng.gen_range(l..h));
        }
    }
    Table::from_rows(config.dims, &data)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn respects_row_count_and_domain() {
        let cfg = SyntheticConfig::paper_default(3, 1000);
        let t = generate(&cfg, 1);
        assert_eq!(t.row_count(), 1000);
        let bb = t.bounding_box().unwrap();
        assert!(cfg.domain.contains_rect(&bb));
    }

    #[test]
    fn data_is_clustered_not_uniform() {
        // With 90% of the mass in 10 boxes covering ≲ 20%^d of space each,
        // the densest small cell must be far denser than uniform.
        let cfg = SyntheticConfig::paper_default(2, 20_000);
        let t = generate(&cfg, 2);
        // Split the domain into a 10×10 grid and find the max cell count.
        let mut grid = [[0u32; 10]; 10];
        for (_, row) in t.rows() {
            let x = ((row[0] / 10.0) as usize).min(9);
            let y = ((row[1] / 10.0) as usize).min(9);
            grid[x][y] += 1;
        }
        let max = grid.iter().flatten().copied().max().unwrap();
        // Uniform would give ~200 per cell.
        assert!(max > 600, "max cell {max}; data looks uniform");
    }

    #[test]
    fn noise_fraction_spreads_points_outside_clusters() {
        let mut cfg = SyntheticConfig::paper_default(2, 10_000);
        cfg.noise_fraction = 1.0; // all noise → uniform occupancy
        let t = generate(&cfg, 3);
        let mut occupied = 0;
        let mut grid = [[0u32; 10]; 10];
        for (_, row) in t.rows() {
            let x = ((row[0] / 10.0) as usize).min(9);
            let y = ((row[1] / 10.0) as usize).min(9);
            grid[x][y] += 1;
        }
        for c in grid.iter().flatten() {
            if *c > 0 {
                occupied += 1;
            }
        }
        assert_eq!(occupied, 100, "uniform noise must reach every cell");
    }

    #[test]
    fn deterministic_per_seed() {
        let cfg = SyntheticConfig::paper_default(4, 500);
        let a = generate(&cfg, 9);
        let b = generate(&cfg, 9);
        let ra: Vec<_> = a.rows().map(|(_, r)| r.to_vec()).collect();
        let rb: Vec<_> = b.rows().map(|(_, r)| r.to_vec()).collect();
        assert_eq!(ra, rb);
    }
}
