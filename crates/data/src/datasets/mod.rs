//! Dataset generators.

pub mod bike;
pub mod forest;
pub mod power;
pub mod protein;
pub mod synthetic;

use kdesel_storage::Table;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// The evaluation datasets of paper §6.1.2.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Dataset {
    /// Washington DC bike-sharing usage (17,379 × 16 continuous attrs).
    Bike,
    /// US forest cover-type survey (581,012 × 10 continuous attrs).
    Forest,
    /// Household electric power consumption (2,075,259 × 9 attrs,
    /// mixed continuous/discrete).
    Power,
    /// Protein tertiary-structure physiochemistry (45,730 × 9 attrs).
    Protein,
    /// Synthetic hyper-rectangular clusters + uniform noise (1M × d).
    Synthetic,
}

impl Dataset {
    /// All datasets, in the paper's presentation order.
    pub const ALL: [Dataset; 5] = [
        Dataset::Bike,
        Dataset::Forest,
        Dataset::Power,
        Dataset::Protein,
        Dataset::Synthetic,
    ];

    /// Report name.
    pub fn name(self) -> &'static str {
        match self {
            Dataset::Bike => "bike",
            Dataset::Forest => "forest",
            Dataset::Power => "power",
            Dataset::Protein => "protein",
            Dataset::Synthetic => "synthetic",
        }
    }

    /// Number of attributes the generator produces before projection.
    pub fn full_dims(self) -> usize {
        match self {
            Dataset::Bike => 16,
            Dataset::Forest => 10,
            Dataset::Power => 9,
            Dataset::Protein => 9,
            Dataset::Synthetic => 8,
        }
    }

    /// Generates the full-width dataset with `rows` rows.
    pub fn generate(self, rows: usize, seed: u64) -> Table {
        match self {
            Dataset::Bike => bike::generate(rows, seed),
            Dataset::Forest => forest::generate(rows, seed),
            Dataset::Power => power::generate(rows, seed),
            Dataset::Protein => protein::generate(rows, seed),
            Dataset::Synthetic => {
                synthetic::generate(&synthetic::SyntheticConfig::paper_default(8, rows), seed)
            }
        }
    }

    /// Generates the dataset projected onto `dims` attributes, chosen by a
    /// seeded random subset — the paper's 3D/8D versions "were created by
    /// projecting the full dataset onto a random subset of the available
    /// attributes" (§6.1.2).
    ///
    /// # Panics
    /// Panics if `dims` exceeds the dataset's attribute count.
    pub fn generate_projected(self, dims: usize, rows: usize, seed: u64) -> Table {
        let full = self.full_dims();
        assert!(
            dims <= full,
            "{} has only {full} attributes, requested {dims}",
            self.name()
        );
        let table = self.generate(rows, seed);
        if dims == full {
            return table;
        }
        let mut rng = StdRng::seed_from_u64(seed ^ 0x9e37_79b9_7f4a_7c15);
        let mut cols: Vec<usize> = (0..full).collect();
        cols.shuffle(&mut rng);
        cols.truncate(dims);
        cols.sort_unstable();
        project(&table, &cols)
    }
}

/// Projects a table onto the given column indices.
pub fn project(table: &Table, cols: &[usize]) -> Table {
    assert!(!cols.is_empty());
    assert!(cols.iter().all(|&c| c < table.dims()));
    let mut data = Vec::with_capacity(table.row_count() * cols.len());
    for (_, row) in table.rows() {
        for &c in cols {
            data.push(row[c]);
        }
    }
    Table::from_rows(cols.len(), &data)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_datasets_generate_requested_shape() {
        for ds in Dataset::ALL {
            let t = ds.generate(500, 42);
            assert_eq!(t.row_count(), 500, "{}", ds.name());
            assert_eq!(t.dims(), ds.full_dims(), "{}", ds.name());
        }
    }

    #[test]
    fn generation_is_deterministic() {
        for ds in Dataset::ALL {
            let a = ds.generate(200, 7);
            let b = ds.generate(200, 7);
            let ra: Vec<_> = a.rows().map(|(_, r)| r.to_vec()).collect();
            let rb: Vec<_> = b.rows().map(|(_, r)| r.to_vec()).collect();
            assert_eq!(ra, rb, "{}", ds.name());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let a = Dataset::Protein.generate(100, 1);
        let b = Dataset::Protein.generate(100, 2);
        let ra: Vec<_> = a.rows().map(|(_, r)| r.to_vec()).collect();
        let rb: Vec<_> = b.rows().map(|(_, r)| r.to_vec()).collect();
        assert_ne!(ra, rb);
    }

    #[test]
    fn projection_selects_columns() {
        let t = Table::from_rows(3, &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let p = project(&t, &[0, 2]);
        assert_eq!(p.dims(), 2);
        let rows: Vec<_> = p.rows().map(|(_, r)| r.to_vec()).collect();
        assert_eq!(rows, vec![vec![1.0, 3.0], vec![4.0, 6.0]]);
    }

    #[test]
    fn projected_generation_matches_dims() {
        for dims in [3, 8] {
            let t = Dataset::Bike.generate_projected(dims, 300, 11);
            assert_eq!(t.dims(), dims);
            assert_eq!(t.row_count(), 300);
        }
    }

    #[test]
    fn projected_columns_are_seed_stable() {
        let a = Dataset::Forest.generate_projected(3, 100, 5);
        let b = Dataset::Forest.generate_projected(3, 100, 5);
        let ra: Vec<_> = a.rows().map(|(_, r)| r.to_vec()).collect();
        let rb: Vec<_> = b.rows().map(|(_, r)| r.to_vec()).collect();
        assert_eq!(ra, rb);
    }

    #[test]
    #[should_panic(expected = "requested")]
    fn overprojection_panics() {
        Dataset::Power.generate_projected(50, 10, 0);
    }
}
