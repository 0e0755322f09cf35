//! Uniform random sampling of live rows — the `ANALYZE` entry point.
//!
//! The paper's model construction "utilize\[s\] Postgres' internal routines to
//! collect a random sample of the requested size" (§5.2). These functions
//! provide the equivalent: a uniform sample (without replacement) of the
//! live rows of a [`Table`], plus single-row draws used when the Karma
//! maintenance requests replacement points.

use crate::table::{RowId, Table};
use rand::seq::SliceRandom;
use rand::Rng;

/// Draws a uniform sample of `n` distinct live rows, returned row-major.
///
/// When fewer than `n` live rows exist, all of them are returned (shuffled).
/// Uses a Fisher–Yates partial shuffle over the live slot list — O(live)
/// setup, O(n) draws.
pub fn sample_rows<R: Rng + ?Sized>(table: &Table, n: usize, rng: &mut R) -> Vec<f64> {
    let dims = table.dims();
    let mut slots: Vec<RowId> = table.rows().map(|(id, _)| id).collect();
    let take = n.min(slots.len());
    let (chosen, _) = slots.partial_shuffle(rng, take);
    let mut out = Vec::with_capacity(take * dims);
    for &slot in chosen.iter() {
        out.extend_from_slice(table.row(slot).expect("live slot"));
    }
    out
}

/// Draws one uniform live row (`None` for an empty table).
pub fn sample_one<R: Rng + ?Sized>(table: &Table, rng: &mut R) -> Option<Vec<f64>> {
    if table.is_empty() {
        return None;
    }
    // Rejection sampling over slots: the live fraction is ≥ 1/2 amortized in
    // typical workloads (free slots are recycled first), so this terminates
    // quickly; fall back to materializing after many misses.
    for _ in 0..64 {
        let slot = rng.gen_range(0..table.slot_count());
        if let Some(row) = table.row(slot) {
            return Some(row.to_vec());
        }
    }
    let slots: Vec<RowId> = table.rows().map(|(id, _)| id).collect();
    let slot = *slots.as_slice().choose(rng)?;
    table.row(slot).map(|r| r.to_vec())
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn table_0_to_99() -> Table {
        let mut t = Table::new(1);
        for i in 0..100 {
            t.insert(&[i as f64]);
        }
        t
    }

    #[test]
    fn sample_size_and_distinctness() {
        let t = table_0_to_99();
        let mut rng = StdRng::seed_from_u64(1);
        let s = sample_rows(&t, 10, &mut rng);
        assert_eq!(s.len(), 10);
        let mut vals = s.clone();
        vals.sort_by(|a, b| a.partial_cmp(b).unwrap());
        vals.dedup();
        assert_eq!(vals.len(), 10, "sampling must be without replacement");
    }

    #[test]
    fn oversampling_returns_everything() {
        let t = table_0_to_99();
        let mut rng = StdRng::seed_from_u64(2);
        let s = sample_rows(&t, 1000, &mut rng);
        assert_eq!(s.len(), 100);
    }

    #[test]
    fn empty_table_yields_empty_sample() {
        let t = Table::new(2);
        let mut rng = StdRng::seed_from_u64(3);
        assert!(sample_rows(&t, 5, &mut rng).is_empty());
        assert!(sample_one(&t, &mut rng).is_none());
    }

    #[test]
    fn sample_skips_tombstones() {
        let mut t = table_0_to_99();
        // Delete everything below 90.
        for slot in 0..90 {
            t.delete(slot);
        }
        let mut rng = StdRng::seed_from_u64(4);
        for _ in 0..50 {
            let row = sample_one(&t, &mut rng).unwrap();
            assert!(row[0] >= 90.0, "sampled deleted row {row:?}");
        }
        let s = sample_rows(&t, 10, &mut rng);
        assert!(s.iter().all(|&v| v >= 90.0));
        assert_eq!(s.len(), 10);
    }

    #[test]
    fn sampling_is_roughly_uniform() {
        // χ²-style sanity bound: sample 10 of 100 rows, 2000 times; each row
        // should be picked ≈200 times. Allow ±40%.
        let t = table_0_to_99();
        let mut rng = StdRng::seed_from_u64(5);
        let mut counts = [0u32; 100];
        for _ in 0..2000 {
            for v in sample_rows(&t, 10, &mut rng) {
                counts[v as usize] += 1;
            }
        }
        for (i, &c) in counts.iter().enumerate() {
            assert!((120..=280).contains(&c), "row {i} drawn {c} times");
        }
    }

    #[test]
    fn sample_one_mostly_live_fastpath() {
        let mut t = Table::new(1);
        for i in 0..10 {
            t.insert(&[i as f64]);
        }
        t.delete(0);
        let mut rng = StdRng::seed_from_u64(6);
        let mut seen_min = f64::INFINITY;
        for _ in 0..100 {
            let v = sample_one(&t, &mut rng).unwrap()[0];
            assert!(v >= 1.0);
            seen_min = seen_min.min(v);
        }
        assert_eq!(seen_min, 1.0, "live rows should all be reachable");
    }
}
