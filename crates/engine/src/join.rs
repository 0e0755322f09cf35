//! Join selectivity estimation — the paper's §8 future-work item.
//!
//! "If the predicate is known beforehand — for instance in case of PK-FK
//! joins —, it can be done by building the estimator based on a sample
//! collected directly from the join result, e.g. by using the sampling
//! algorithms presented in [Chaudhuri, Motwani, Narasayya 1999]."
//!
//! For a PK-FK equi-join `R ⋈ S` every `R` tuple joins with at most one `S`
//! tuple, so a uniform sample of `R` joined against the `S` index *is* a
//! uniform sample of the join result — the CMN insight this module uses.
//! A [`KdeEstimator`](kdesel_kde::KdeEstimator) over [`sample_join`]'s
//! rows (the concatenated attribute space) then answers range predicates
//! spanning both relations, capturing cross-table correlations that the
//! textbook independence assumption destroys.

use kdesel_storage::Table;
use kdesel_types::Rect;
use rand::seq::SliceRandom;
use rand::Rng;
use std::collections::HashMap;

/// Exact-match key for f64 join columns (keys are expected to be integral
/// identifiers stored as doubles).
fn key(v: f64) -> u64 {
    v.to_bits()
}

/// An index from PK value to row id of the PK-side table.
fn build_pk_index(s: &Table, pk_col: usize) -> HashMap<u64, usize> {
    let mut index = HashMap::with_capacity(s.row_count());
    for (id, row) in s.rows() {
        let prev = index.insert(key(row[pk_col]), id);
        assert!(prev.is_none(), "duplicate primary key {}", row[pk_col]);
    }
    index
}

/// Draws a uniform sample of `n` join-result rows (row-major, width
/// `r.dims() + s.dims()`), by uniformly sampling FK-side rows and probing
/// the PK index. Dangling FK rows are skipped (inner-join semantics).
pub fn sample_join<R: Rng + ?Sized>(
    r: &Table,
    fk_col: usize,
    s: &Table,
    pk_col: usize,
    n: usize,
    rng: &mut R,
) -> Vec<f64> {
    assert!(fk_col < r.dims() && pk_col < s.dims());
    let index = build_pk_index(s, pk_col);
    let mut r_rows: Vec<usize> = r.rows().map(|(id, _)| id).collect();
    r_rows.shuffle(rng);
    let width = r.dims() + s.dims();
    let mut out = Vec::with_capacity(n * width);
    for id in r_rows {
        if out.len() >= n * width {
            break;
        }
        let r_row = r.row(id).expect("live row");
        if let Some(&s_id) = index.get(&key(r_row[fk_col])) {
            out.extend_from_slice(r_row);
            out.extend_from_slice(s.row(s_id).expect("live row"));
        }
    }
    out
}

/// Exact join-result cardinality and the count satisfying `region` (over
/// the concatenated attribute space). The reference the estimator is
/// measured against.
pub fn join_truth(r: &Table, fk_col: usize, s: &Table, pk_col: usize, region: &Rect) -> (u64, u64) {
    assert_eq!(region.dims(), r.dims() + s.dims());
    let index = build_pk_index(s, pk_col);
    let mut total = 0u64;
    let mut matching = 0u64;
    let mut joined = vec![0.0; r.dims() + s.dims()];
    for (_, r_row) in r.rows() {
        if let Some(&s_id) = index.get(&key(r_row[fk_col])) {
            total += 1;
            let s_row = s.row(s_id).expect("live row");
            joined[..r.dims()].copy_from_slice(r_row);
            joined[r.dims()..].copy_from_slice(s_row);
            if region.contains(&joined) {
                matching += 1;
            }
        }
    }
    (total, matching)
}

#[cfg(test)]
mod tests {
    use super::*;
    use kdesel_device::{Backend, Device};
    use kdesel_kde::{KdeEstimator, KernelFn};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Orders(R): [order_id, customer_fk, amount]; Customers(S):
    /// [customer_id, tier]. Amount is strongly correlated with tier — the
    /// cross-table correlation the independence assumption misses.
    fn make_tables(seed: u64) -> (Table, Table) {
        let mut rng = StdRng::seed_from_u64(seed);
        let n_customers = 200;
        let mut s = Table::new(2);
        for c in 0..n_customers {
            let tier = (c % 4) as f64; // tiers 0..3
            s.insert(&[c as f64, tier]);
        }
        let mut r = Table::new(3);
        for o in 0..4000 {
            let c = rng.gen_range(0..n_customers);
            let tier = (c % 4) as f64;
            // Amount depends on tier: tier t buys in [100·t, 100·t + 50).
            let amount = 100.0 * tier + rng.gen_range(0.0..50.0);
            r.insert(&[o as f64, c as f64, amount]);
        }
        (r, s)
    }

    #[test]
    fn join_sample_rows_are_real_join_tuples() {
        let (r, s) = make_tables(1);
        let mut rng = StdRng::seed_from_u64(2);
        let sample = sample_join(&r, 1, &s, 0, 100, &mut rng);
        assert_eq!(sample.len(), 100 * 5);
        for row in sample.chunks_exact(5) {
            // FK (col 1) must equal PK (col 3).
            assert_eq!(row[1], row[3]);
            // Amount/tier correlation must hold on joined rows.
            let tier = row[4];
            assert!((100.0 * tier..100.0 * tier + 50.0).contains(&row[2]));
        }
    }

    #[test]
    fn join_kde_captures_cross_table_correlation() {
        let (r, s) = make_tables(3);
        let mut rng = StdRng::seed_from_u64(4);
        let sample = sample_join(&r, 1, &s, 0, 512, &mut rng);
        let mut est =
            KdeEstimator::new(Device::new(Backend::CpuPar), &sample, 5, KernelFn::Gaussian);
        // Scott's rule badly oversmooths the near-discrete tier and the
        // tier-banded amount (the paper's core observation) — tune the
        // bandwidth over a small training workload of join predicates,
        // exactly as §3 prescribes.
        let mut train = Vec::new();
        for k in 0..40 {
            let tier = (k % 4) as f64;
            let lo_amt = 100.0 * tier + 5.0 * ((k / 4) % 5) as f64;
            let region = Rect::from_intervals(&[
                (f64::NEG_INFINITY, f64::INFINITY),
                (f64::NEG_INFINITY, f64::INFINITY),
                (lo_amt, lo_amt + 25.0),
                (f64::NEG_INFINITY, f64::INFINITY),
                (tier - 0.5, tier + 0.5),
            ]);
            let (total, matching) = join_truth(&r, 1, &s, 0, &region);
            train.push(kdesel_types::LabelledQuery::new(
                region,
                matching as f64 / total as f64,
            ));
        }
        let result = kdesel_kde::optimize_bandwidth(
            &est,
            &train,
            &kdesel_kde::BatchConfig::default(),
            &mut rng,
        );
        est.set_bandwidth(result.bandwidth);

        // Predicate: tier = 3 (within [2.5, 3.5]) AND amount in [300, 350]
        // — perfectly correlated: every tier-3 order qualifies (~25%).
        let region = Rect::from_intervals(&[
            (f64::NEG_INFINITY, f64::INFINITY), // order_id
            (f64::NEG_INFINITY, f64::INFINITY), // customer_fk
            (300.0, 350.0),                     // amount
            (f64::NEG_INFINITY, f64::INFINITY), // customer_id
            (2.5, 3.5),                         // tier
        ]);
        let (total, matching) = join_truth(&r, 1, &s, 0, &region);
        let truth = matching as f64 / total as f64;
        assert!((truth - 0.25).abs() < 0.05, "scenario check: truth {truth}");

        let kde = est.estimate(&region);
        // Independence baseline: P(amount) · P(tier) ≈ 0.25 · 0.25.
        let amount_only = Rect::from_intervals(&[
            (f64::NEG_INFINITY, f64::INFINITY),
            (f64::NEG_INFINITY, f64::INFINITY),
            (300.0, 350.0),
            (f64::NEG_INFINITY, f64::INFINITY),
            (f64::NEG_INFINITY, f64::INFINITY),
        ]);
        let tier_only = Rect::from_intervals(&[
            (f64::NEG_INFINITY, f64::INFINITY),
            (f64::NEG_INFINITY, f64::INFINITY),
            (f64::NEG_INFINITY, f64::INFINITY),
            (f64::NEG_INFINITY, f64::INFINITY),
            (2.5, 3.5),
        ]);
        let independence = est.estimate(&amount_only) * est.estimate(&tier_only);

        let kde_err = (kde - truth).abs();
        let indep_err = (independence - truth).abs();
        assert!(
            kde_err < indep_err * 0.5,
            "joint KDE {kde} (err {kde_err}) should beat independence \
             {independence} (err {indep_err}) against truth {truth}"
        );
    }

    #[test]
    fn dangling_foreign_keys_are_skipped() {
        let mut r = Table::new(2);
        r.insert(&[1.0, 100.0]); // dangling: no customer 100
        r.insert(&[2.0, 0.0]);
        let mut s = Table::new(2);
        s.insert(&[0.0, 7.0]);
        let mut rng = StdRng::seed_from_u64(5);
        let sample = sample_join(&r, 1, &s, 0, 10, &mut rng);
        assert_eq!(sample.len(), 4, "only the matching pair joins");
        let region = Rect::unbounded(4);
        let (total, matching) = join_truth(&r, 1, &s, 0, &region);
        assert_eq!((total, matching), (1, 1));
    }

    #[test]
    #[should_panic(expected = "duplicate primary key")]
    fn duplicate_pk_rejected() {
        let mut s = Table::new(1);
        s.insert(&[1.0]);
        s.insert(&[1.0]);
        let r = Table::new(2);
        build_pk_index(&s, 0);
        let _ = r;
    }
}
