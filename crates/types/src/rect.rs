//! Hyper-rectangular query regions.
//!
//! The paper (§2.1) restricts query regions to axis-aligned hyper-rectangles
//! `Ω = (l₁,u₁) × … × (l_d,u_d)` over real-valued attributes. [`Rect`] is the
//! canonical representation used by the storage layer (range scans), the KDE
//! estimator (closed-form erf integration, Appendix B) and the STHoles
//! histogram (bucket boxes).

/// An axis-aligned hyper-rectangle in `ℝ^d`.
///
/// Invariant: `lo.len() == hi.len()` and `lo[i] <= hi[i]` for all `i`.
/// Degenerate (zero-width) intervals are allowed; they have zero volume but
/// can still contain points on the boundary (containment is closed on both
/// ends, matching how range predicates `l ≤ x ≤ u` are evaluated by the
/// storage engine).
#[derive(Debug, Clone, PartialEq)]
pub struct Rect {
    lo: Vec<f64>,
    hi: Vec<f64>,
}

impl Rect {
    /// Creates a rectangle from lower and upper bounds.
    ///
    /// # Panics
    /// Panics if the bound vectors differ in length, are empty, contain NaN,
    /// or if any `lo[i] > hi[i]`; [`Rect::try_new`] returns those as errors.
    pub fn new(lo: Vec<f64>, hi: Vec<f64>) -> Self {
        Self::try_new(lo, hi).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Creates a rectangle from lower and upper bounds, or says which
    /// invariant they break — the constructor for bounds read from
    /// outside the program.
    pub fn try_new(lo: Vec<f64>, hi: Vec<f64>) -> Result<Self, String> {
        if lo.len() != hi.len() {
            return Err(format!(
                "bound dimensionality mismatch: {} lower vs {} upper bounds",
                lo.len(),
                hi.len()
            ));
        }
        if lo.is_empty() {
            return Err("zero-dimensional rectangle".to_string());
        }
        for (i, (&l, &u)) in lo.iter().zip(&hi).enumerate() {
            if l.is_nan() || u.is_nan() {
                return Err(format!("NaN bound in dimension {i}"));
            }
            if l > u {
                return Err(format!("inverted interval in dimension {i}: {l} > {u}"));
            }
        }
        Ok(Self { lo, hi })
    }

    /// Creates a rectangle from `(lo, hi)` interval pairs.
    pub fn from_intervals(intervals: &[(f64, f64)]) -> Self {
        let lo = intervals.iter().map(|&(l, _)| l).collect();
        let hi = intervals.iter().map(|&(_, u)| u).collect();
        Self::new(lo, hi)
    }

    /// The rectangle covering all of `ℝ^d` (useful as a neutral clip region).
    pub fn unbounded(dims: usize) -> Self {
        Self::new(vec![f64::NEG_INFINITY; dims], vec![f64::INFINITY; dims])
    }

    /// A cube `[lo, hi]^d`.
    pub fn cube(dims: usize, lo: f64, hi: f64) -> Self {
        Self::new(vec![lo; dims], vec![hi; dims])
    }

    /// A rectangle centered at `center` with per-dimension half-widths.
    ///
    /// # Panics
    /// Panics if lengths differ or any half-width is negative.
    pub fn centered(center: &[f64], half_widths: &[f64]) -> Self {
        assert_eq!(center.len(), half_widths.len());
        let lo = center
            .iter()
            .zip(half_widths)
            .map(|(&c, &w)| {
                assert!(w >= 0.0, "negative half-width");
                c - w
            })
            .collect();
        let hi = center
            .iter()
            .zip(half_widths)
            .map(|(&c, &w)| c + w)
            .collect();
        Self::new(lo, hi)
    }

    /// Dimensionality `d`.
    #[inline]
    pub fn dims(&self) -> usize {
        self.lo.len()
    }

    /// Lower bounds `l₁ … l_d`.
    #[inline]
    pub fn lo(&self) -> &[f64] {
        &self.lo
    }

    /// Upper bounds `u₁ … u_d`.
    #[inline]
    pub fn hi(&self) -> &[f64] {
        &self.hi
    }

    /// Interval `(l_i, u_i)` of dimension `i`.
    #[inline]
    pub fn interval(&self, i: usize) -> (f64, f64) {
        (self.lo[i], self.hi[i])
    }

    /// Side length of dimension `i`.
    #[inline]
    pub fn extent(&self, i: usize) -> f64 {
        self.hi[i] - self.lo[i]
    }

    /// Geometric center point.
    pub fn center(&self) -> Vec<f64> {
        self.lo
            .iter()
            .zip(&self.hi)
            .map(|(&l, &u)| 0.5 * (l + u))
            .collect()
    }

    /// Volume `∏ (u_i − l_i)`. Zero for degenerate rectangles.
    pub fn volume(&self) -> f64 {
        self.lo.iter().zip(&self.hi).map(|(&l, &u)| u - l).product()
    }

    /// Closed containment test: `l_i ≤ x_i ≤ u_i` in every dimension.
    #[inline]
    pub fn contains(&self, point: &[f64]) -> bool {
        debug_assert_eq!(point.len(), self.dims());
        point
            .iter()
            .zip(self.lo.iter().zip(&self.hi))
            .all(|(&x, (&l, &u))| l <= x && x <= u)
    }

    /// Whether `other` lies entirely inside `self` (closed on both ends).
    pub fn contains_rect(&self, other: &Rect) -> bool {
        debug_assert_eq!(other.dims(), self.dims());
        self.lo.iter().zip(&other.lo).all(|(&a, &b)| a <= b)
            && self.hi.iter().zip(&other.hi).all(|(&a, &b)| b <= a)
    }

    /// Whether the interiors of the rectangles overlap (shared boundary faces
    /// do not count as intersection, matching the STHoles paper's treatment
    /// of adjacent buckets).
    pub fn intersects(&self, other: &Rect) -> bool {
        debug_assert_eq!(other.dims(), self.dims());
        self.lo
            .iter()
            .zip(&self.hi)
            .zip(other.lo.iter().zip(&other.hi))
            .all(|((&l1, &u1), (&l2, &u2))| l1 < u2 && l2 < u1)
    }

    /// Intersection of two rectangles, or `None` if their interiors are
    /// disjoint.
    pub fn intersection(&self, other: &Rect) -> Option<Rect> {
        if !self.intersects(other) {
            return None;
        }
        let lo = self
            .lo
            .iter()
            .zip(&other.lo)
            .map(|(&a, &b)| a.max(b))
            .collect();
        let hi = self
            .hi
            .iter()
            .zip(&other.hi)
            .map(|(&a, &b)| a.min(b))
            .collect();
        Some(Rect::new(lo, hi))
    }

    /// Volume of the intersection with `other` (zero when disjoint).
    pub fn intersection_volume(&self, other: &Rect) -> f64 {
        self.intersection(other).map_or(0.0, |r| r.volume())
    }

    /// Smallest rectangle containing both inputs (bounding-box union).
    pub fn bounding_union(&self, other: &Rect) -> Rect {
        debug_assert_eq!(other.dims(), self.dims());
        let lo = self
            .lo
            .iter()
            .zip(&other.lo)
            .map(|(&a, &b)| a.min(b))
            .collect();
        let hi = self
            .hi
            .iter()
            .zip(&other.hi)
            .map(|(&a, &b)| a.max(b))
            .collect();
        Rect::new(lo, hi)
    }

    /// Grows (or shrinks, for negative `amount`) every face by `amount`,
    /// clamping inverted intervals to their midpoint.
    pub fn inflated(&self, amount: f64) -> Rect {
        let mut lo = Vec::with_capacity(self.dims());
        let mut hi = Vec::with_capacity(self.dims());
        for i in 0..self.dims() {
            let mut l = self.lo[i] - amount;
            let mut u = self.hi[i] + amount;
            if l > u {
                let mid = 0.5 * (self.lo[i] + self.hi[i]);
                l = mid;
                u = mid;
            }
            lo.push(l);
            hi.push(u);
        }
        Rect::new(lo, hi)
    }

    /// Smallest enclosing rectangle of a point set.
    ///
    /// Returns `None` for an empty iterator.
    pub fn bounding_box<'a, I>(dims: usize, points: I) -> Option<Rect>
    where
        I: IntoIterator<Item = &'a [f64]>,
    {
        let mut lo = vec![f64::INFINITY; dims];
        let mut hi = vec![f64::NEG_INFINITY; dims];
        let mut any = false;
        for p in points {
            debug_assert_eq!(p.len(), dims);
            any = true;
            for i in 0..dims {
                lo[i] = lo[i].min(p[i]);
                hi[i] = hi[i].max(p[i]);
            }
        }
        any.then(|| Rect::new(lo, hi))
    }
}

impl std::fmt::Display for Rect {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "[")?;
        for i in 0..self.dims() {
            if i > 0 {
                write!(f, " × ")?;
            }
            write!(f, "({:.4},{:.4})", self.lo[i], self.hi[i])?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn r2(l1: f64, u1: f64, l2: f64, u2: f64) -> Rect {
        Rect::new(vec![l1, l2], vec![u1, u2])
    }

    #[test]
    fn volume_of_unit_cube() {
        assert_eq!(Rect::cube(3, 0.0, 1.0).volume(), 1.0);
        assert_eq!(Rect::cube(4, -1.0, 1.0).volume(), 16.0);
    }

    #[test]
    fn degenerate_interval_has_zero_volume_but_contains_boundary() {
        let r = Rect::new(vec![1.0, 0.0], vec![1.0, 2.0]);
        assert_eq!(r.volume(), 0.0);
        assert!(r.contains(&[1.0, 1.0]));
        assert!(!r.contains(&[1.1, 1.0]));
    }

    #[test]
    fn containment_is_closed() {
        let r = r2(0.0, 1.0, 0.0, 1.0);
        assert!(r.contains(&[0.0, 0.0]));
        assert!(r.contains(&[1.0, 1.0]));
        assert!(r.contains(&[0.5, 0.5]));
        assert!(!r.contains(&[1.0 + 1e-12, 0.5]));
    }

    #[test]
    fn intersection_basic() {
        let a = r2(0.0, 2.0, 0.0, 2.0);
        let b = r2(1.0, 3.0, 1.0, 3.0);
        let i = a.intersection(&b).unwrap();
        assert_eq!(i, r2(1.0, 2.0, 1.0, 2.0));
        assert!((a.intersection_volume(&b) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn touching_faces_do_not_intersect() {
        let a = r2(0.0, 1.0, 0.0, 1.0);
        let b = r2(1.0, 2.0, 0.0, 1.0);
        assert!(!a.intersects(&b));
        assert!(a.intersection(&b).is_none());
        assert_eq!(a.intersection_volume(&b), 0.0);
    }

    #[test]
    fn disjoint_rects() {
        let a = r2(0.0, 1.0, 0.0, 1.0);
        let b = r2(5.0, 6.0, 5.0, 6.0);
        assert!(!a.intersects(&b));
        let u = a.bounding_union(&b);
        assert_eq!(u, r2(0.0, 6.0, 0.0, 6.0));
    }

    #[test]
    fn contains_rect_closed() {
        let outer = r2(0.0, 10.0, 0.0, 10.0);
        let inner = r2(0.0, 10.0, 2.0, 3.0);
        assert!(outer.contains_rect(&inner));
        assert!(!inner.contains_rect(&outer));
        assert!(outer.contains_rect(&outer));
    }

    #[test]
    fn centered_construction() {
        let r = Rect::centered(&[1.0, 2.0], &[0.5, 1.0]);
        assert_eq!(r, r2(0.5, 1.5, 1.0, 3.0));
    }

    #[test]
    fn bounding_box_of_points() {
        let pts: Vec<Vec<f64>> = vec![vec![0.0, 5.0], vec![2.0, 1.0], vec![-1.0, 3.0]];
        let bb = Rect::bounding_box(2, pts.iter().map(|p| p.as_slice())).unwrap();
        assert_eq!(bb, r2(-1.0, 2.0, 1.0, 5.0));
        assert!(Rect::bounding_box(2, std::iter::empty()).is_none());
    }

    #[test]
    fn inflate_and_deflate() {
        let r = r2(0.0, 2.0, 0.0, 2.0);
        assert_eq!(r.inflated(1.0), r2(-1.0, 3.0, -1.0, 3.0));
        // Deflating past the midpoint collapses to the center.
        let collapsed = r.inflated(-2.0);
        assert_eq!(collapsed.volume(), 0.0);
        assert_eq!(collapsed.center(), vec![1.0, 1.0]);
    }

    #[test]
    fn intersection_volume_commutes() {
        let a = r2(0.0, 4.0, 1.0, 3.0);
        let b = r2(2.0, 6.0, 0.0, 2.0);
        assert!((a.intersection_volume(&b) - b.intersection_volume(&a)).abs() < 1e-15);
    }

    #[test]
    #[should_panic(expected = "inverted interval")]
    fn inverted_bounds_panic() {
        Rect::new(vec![1.0], vec![0.0]);
    }

    #[test]
    #[should_panic(expected = "dimensionality mismatch")]
    fn mismatched_dims_panic() {
        Rect::new(vec![0.0, 0.0], vec![1.0]);
    }

    #[test]
    fn display_is_stable() {
        let r = r2(0.0, 1.0, 2.0, 3.0);
        assert_eq!(format!("{r}"), "[(0.0000,1.0000) × (2.0000,3.0000)]");
    }
}
