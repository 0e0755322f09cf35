//! In-memory relation with real-valued attributes.

use kdesel_types::Rect;

/// Stable identifier of a row slot.
///
/// Slots of deleted rows are recycled by later inserts, so a `RowId` only
/// identifies a live row until that row is deleted (the same contract as a
/// Postgres TID without VACUUM concerns).
pub type RowId = usize;

/// A `d`-column relation of `f64` attributes, stored row-major.
///
/// Row-major layout matches the paper's sample buffer representation
/// (§5.1: "the row-major format allows us to efficiently update points in
/// the sample using only a single PCI Express transfer") and makes
/// whole-row reads and writes contiguous.
#[derive(Debug, Clone)]
pub struct Table {
    dims: usize,
    /// Row-major attribute storage; slot `i` occupies `i·dims .. (i+1)·dims`.
    data: Vec<f64>,
    /// Liveness per slot (false = tombstone).
    live: Vec<bool>,
    /// Recycled slots available for reuse.
    free: Vec<RowId>,
    /// Number of live rows.
    row_count: usize,
}

impl Table {
    /// Creates an empty table with `dims` attributes.
    ///
    /// # Panics
    /// Panics for `dims == 0`.
    pub fn new(dims: usize) -> Self {
        assert!(dims > 0, "table needs at least one attribute");
        Self {
            dims,
            data: Vec::new(),
            live: Vec::new(),
            free: Vec::new(),
            row_count: 0,
        }
    }

    /// Creates a table and bulk-loads `rows` (row-major).
    ///
    /// # Panics
    /// Panics if `rows.len()` is not a multiple of `dims`.
    pub fn from_rows(dims: usize, rows: &[f64]) -> Self {
        assert_eq!(rows.len() % dims, 0, "ragged row data");
        let mut t = Self::new(dims);
        t.data.extend_from_slice(rows);
        let n = rows.len() / dims;
        t.live = vec![true; n];
        t.row_count = n;
        t
    }

    /// Number of attributes `d`.
    #[inline]
    pub fn dims(&self) -> usize {
        self.dims
    }

    /// Number of live rows `|R|`.
    #[inline]
    pub fn row_count(&self) -> usize {
        self.row_count
    }

    /// Whether the relation is empty.
    pub fn is_empty(&self) -> bool {
        self.row_count == 0
    }

    /// Number of slots (live + tombstoned); the upper bound for `RowId`s.
    pub fn slot_count(&self) -> usize {
        self.live.len()
    }

    /// Inserts a row, returning its slot id.
    ///
    /// # Panics
    /// Panics on dimensionality mismatch or NaN attributes.
    pub fn insert(&mut self, row: &[f64]) -> RowId {
        assert_eq!(row.len(), self.dims, "row dimensionality mismatch");
        assert!(row.iter().all(|v| !v.is_nan()), "NaN attribute");
        let id = if let Some(slot) = self.free.pop() {
            let base = slot * self.dims;
            self.data[base..base + self.dims].copy_from_slice(row);
            self.live[slot] = true;
            slot
        } else {
            self.data.extend_from_slice(row);
            self.live.push(true);
            self.live.len() - 1
        };
        self.row_count += 1;
        id
    }

    /// Deletes the row in `slot`. Returns `false` when the slot is already
    /// dead or out of range.
    pub fn delete(&mut self, slot: RowId) -> bool {
        if slot >= self.live.len() || !self.live[slot] {
            return false;
        }
        self.live[slot] = false;
        self.free.push(slot);
        self.row_count -= 1;
        true
    }

    /// Overwrites the row in `slot`. Returns `false` when the slot is dead.
    ///
    /// # Panics
    /// Panics on dimensionality mismatch or NaN attributes.
    pub fn update(&mut self, slot: RowId, row: &[f64]) -> bool {
        assert_eq!(row.len(), self.dims, "row dimensionality mismatch");
        assert!(row.iter().all(|v| !v.is_nan()), "NaN attribute");
        if slot >= self.live.len() || !self.live[slot] {
            return false;
        }
        let base = slot * self.dims;
        self.data[base..base + self.dims].copy_from_slice(row);
        true
    }

    /// Returns the row in `slot`, or `None` when dead/out of range.
    pub fn row(&self, slot: RowId) -> Option<&[f64]> {
        if slot < self.live.len() && self.live[slot] {
            let base = slot * self.dims;
            Some(&self.data[base..base + self.dims])
        } else {
            None
        }
    }

    /// Iterates over `(slot, row)` pairs of live rows in slot order.
    pub fn rows(&self) -> impl Iterator<Item = (RowId, &[f64])> {
        self.data
            .chunks_exact(self.dims)
            .enumerate()
            .filter(move |(i, _)| self.live[*i])
    }

    /// Counts live rows inside `region` by a full scan (closed bounds, the
    /// semantics of a SQL `BETWEEN` predicate).
    ///
    /// # Panics
    /// Panics on dimensionality mismatch.
    pub fn count_in(&self, region: &Rect) -> u64 {
        assert_eq!(region.dims(), self.dims, "query dimensionality mismatch");
        self.rows().filter(|(_, r)| region.contains(r)).count() as u64
    }

    /// True selectivity of `region`: `|σ(R)| / |R|`. Zero for an empty
    /// relation.
    pub fn selectivity(&self, region: &Rect) -> f64 {
        if self.row_count == 0 {
            return 0.0;
        }
        self.count_in(region) as f64 / self.row_count as f64
    }

    /// Bounding box of the live rows (`None` when empty).
    pub fn bounding_box(&self) -> Option<Rect> {
        Rect::bounding_box(self.dims, self.rows().map(|(_, r)| r))
    }

    /// Per-dimension population standard deviations of the live rows.
    pub fn column_std_devs(&self) -> Vec<f64> {
        let mut m = vec![kdesel_math::OnlineMoments::new(); self.dims];
        for (_, row) in self.rows() {
            for (mi, &x) in m.iter_mut().zip(row) {
                mi.add(x);
            }
        }
        m.iter().map(|mi| mi.std_dev_population()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_table() -> Table {
        // 4 rows in 2D: (0,0) (1,1) (2,2) (3,3).
        Table::from_rows(2, &[0.0, 0.0, 1.0, 1.0, 2.0, 2.0, 3.0, 3.0])
    }

    #[test]
    fn bulk_load_and_count() {
        let t = sample_table();
        assert_eq!(t.row_count(), 4);
        assert_eq!(t.dims(), 2);
        let q = Rect::from_intervals(&[(0.5, 2.5), (0.5, 2.5)]);
        assert_eq!(t.count_in(&q), 2);
        assert_eq!(t.selectivity(&q), 0.5);
    }

    #[test]
    fn closed_bound_semantics() {
        let t = sample_table();
        // Boundary points count.
        let q = Rect::from_intervals(&[(1.0, 2.0), (1.0, 2.0)]);
        assert_eq!(t.count_in(&q), 2);
    }

    #[test]
    fn insert_delete_update_lifecycle() {
        let mut t = Table::new(2);
        let a = t.insert(&[1.0, 1.0]);
        let b = t.insert(&[2.0, 2.0]);
        assert_eq!(t.row_count(), 2);
        assert_eq!(t.row(a), Some([1.0, 1.0].as_slice()));

        assert!(t.delete(a));
        assert!(!t.delete(a), "double delete must fail");
        assert_eq!(t.row_count(), 1);
        assert_eq!(t.row(a), None);

        // Freed slot is recycled.
        let c = t.insert(&[9.0, 9.0]);
        assert_eq!(c, a);
        assert_eq!(t.row_count(), 2);

        assert!(t.update(b, &[5.0, 5.0]));
        assert_eq!(t.row(b), Some([5.0, 5.0].as_slice()));
        assert!(!t.update(999, &[0.0, 0.0]));
    }

    #[test]
    fn selectivity_of_empty_table_is_zero() {
        let t = Table::new(3);
        assert_eq!(t.selectivity(&Rect::cube(3, 0.0, 1.0)), 0.0);
    }

    #[test]
    fn rows_iterator_skips_tombstones() {
        let mut t = sample_table();
        t.delete(1);
        let live: Vec<RowId> = t.rows().map(|(id, _)| id).collect();
        assert_eq!(live, vec![0, 2, 3]);
    }

    #[test]
    fn bounding_box_and_std_devs() {
        let t = sample_table();
        let bb = t.bounding_box().unwrap();
        assert_eq!(bb, Rect::from_intervals(&[(0.0, 3.0), (0.0, 3.0)]));
        let sd = t.column_std_devs();
        // Population std of {0,1,2,3} is √1.25.
        assert!((sd[0] - 1.25f64.sqrt()).abs() < 1e-12);
        assert_eq!(sd[0], sd[1]);
        assert!(Table::new(2).bounding_box().is_none());
    }

    #[test]
    #[should_panic(expected = "NaN attribute")]
    fn nan_rows_rejected() {
        Table::new(1).insert(&[f64::NAN]);
    }

    #[test]
    #[should_panic(expected = "dimensionality mismatch")]
    fn wrong_arity_rejected() {
        Table::new(2).insert(&[1.0]);
    }

    #[test]
    fn count_after_churn_matches_fresh_scan() {
        let mut t = Table::new(1);
        for i in 0..100 {
            t.insert(&[i as f64]);
        }
        for slot in (0..100).step_by(2) {
            t.delete(slot);
        }
        for i in 0..25 {
            t.insert(&[1000.0 + i as f64]);
        }
        assert_eq!(t.row_count(), 75);
        let all = Rect::from_intervals(&[(f64::NEG_INFINITY, f64::INFINITY)]);
        assert_eq!(t.count_in(&all), 75);
        let originals = Rect::from_intervals(&[(0.0, 99.0)]);
        assert_eq!(t.count_in(&originals), 50);
    }
}
