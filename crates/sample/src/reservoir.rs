//! Reservoir sampling [Vitter, *Random sampling with a reservoir*, TOMS 1985].
//!
//! Two interchangeable decision procedures are provided:
//!
//! * [`ReservoirSampler`] — Algorithm R: one uniform draw per stream record,
//!   the textbook method the paper describes in §4.2,
//! * [`SkipSampler`] — the skip-count formulation (Vitter's Algorithm X):
//!   draws how many records to *skip* until the next replacement, needing
//!   one uniform draw per **accepted** record instead of per stream record.
//!   (Vitter's Algorithm Z accelerates X with rejection sampling; the output
//!   distribution is identical, and X's sequential search is already
//!   negligible next to the table scan it piggybacks on.)
//!
//! Both return *slot replacement decisions* rather than owning the sample:
//! in the paper the sample lives on the GPU, and "only points that will end
//! up in the sample are transferred", so the host-side decision and the
//! device-side write are deliberately separated.

use rand::Rng;

/// Decision for one newly inserted tuple.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReservoirDecision {
    /// The tuple does not enter the sample.
    Skip,
    /// The tuple replaces the sample point in this slot.
    Replace(usize),
}

/// Algorithm R decision procedure for a full reservoir of `capacity` points.
///
/// Construct it once the initial sample (e.g. from `ANALYZE`) is in place,
/// with `seen` equal to the relation size the sample was drawn from; each
/// subsequent insert calls [`observe`](Self::observe).
#[derive(Debug, Clone)]
pub struct ReservoirSampler {
    capacity: usize,
    seen: u64,
}

impl ReservoirSampler {
    /// Creates the decision procedure.
    ///
    /// `seen` is the number of stream records already represented by the
    /// current sample (at least `capacity`).
    ///
    /// # Panics
    /// Panics if `capacity == 0` or `seen < capacity`.
    pub fn new(capacity: usize, seen: u64) -> Self {
        assert!(capacity > 0, "empty reservoir");
        assert!(
            seen >= capacity as u64,
            "sample cannot represent fewer records than its size"
        );
        Self { capacity, seen }
    }

    /// Reservoir capacity `|S|`.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Stream records observed so far (`|R|` for an insert-only relation).
    pub fn seen(&self) -> u64 {
        self.seen
    }

    /// Decides the fate of the next inserted tuple: include it with
    /// probability `|S|/|R|`, replacing a uniformly chosen slot.
    pub fn observe<R: Rng + ?Sized>(&mut self, rng: &mut R) -> ReservoirDecision {
        self.seen += 1;
        let j = rng.gen_range(0..self.seen);
        if j < self.capacity as u64 {
            ReservoirDecision::Replace(j as usize)
        } else {
            ReservoirDecision::Skip
        }
    }
}

/// Skip-count decision procedure (Vitter's Algorithm X).
///
/// [`next_skip`](Self::next_skip) returns how many upcoming records to
/// discard; the record after the skipped run replaces a uniform slot.
#[derive(Debug, Clone)]
pub struct SkipSampler {
    capacity: u64,
    seen: u64,
}

impl SkipSampler {
    /// Creates the skip sampler; arguments as for [`ReservoirSampler::new`].
    pub fn new(capacity: usize, seen: u64) -> Self {
        assert!(capacity > 0, "empty reservoir");
        assert!(seen >= capacity as u64);
        Self {
            capacity: capacity as u64,
            seen,
        }
    }

    /// Stream records represented so far (accepted record included).
    pub fn seen(&self) -> u64 {
        self.seen
    }

    /// Draws the number of records to skip before the next acceptance, and
    /// the slot the accepted record replaces. Advances internal state past
    /// the skipped run and the accepted record.
    pub fn next_skip<R: Rng + ?Sized>(&mut self, rng: &mut R) -> (u64, usize) {
        // Algorithm X: find the smallest s ≥ 0 with
        //   ∏_{i=0..s} (t+1+i−n)/(t+1+i) ≤ V,  V ~ U(0,1),
        // i.e. the probability that records t+1 .. t+1+s all miss the sample
        // has dropped below V.
        let n = self.capacity;
        let v: f64 = rng.gen_range(0.0..1.0);
        let mut s = 0u64;
        let mut t = self.seen;
        let mut quot = (t + 1 - n) as f64 / (t + 1) as f64;
        while quot > v {
            s += 1;
            t += 1;
            quot *= (t + 1 - n) as f64 / (t + 1) as f64;
        }
        self.seen += s + 1;
        let slot = rng.gen_range(0..n) as usize;
        (s, slot)
    }
}

/// Owning reservoir: builds a uniform `capacity`-point sample from a stream
/// of `d`-dimensional rows. Convenience wrapper used by tests and tooling.
#[derive(Debug, Clone)]
pub struct StreamSampler {
    dims: usize,
    capacity: usize,
    /// Row-major sample storage.
    sample: Vec<f64>,
    seen: u64,
}

impl StreamSampler {
    /// Creates an empty sampler.
    pub fn new(dims: usize, capacity: usize) -> Self {
        assert!(dims > 0 && capacity > 0);
        Self {
            dims,
            capacity,
            sample: Vec::with_capacity(dims * capacity),
            seen: 0,
        }
    }

    /// Feeds one row.
    pub fn push<R: Rng + ?Sized>(&mut self, row: &[f64], rng: &mut R) {
        assert_eq!(row.len(), self.dims);
        self.seen += 1;
        let filled = self.sample.len() / self.dims;
        if filled < self.capacity {
            self.sample.extend_from_slice(row);
            return;
        }
        let j = rng.gen_range(0..self.seen);
        if j < self.capacity as u64 {
            let base = j as usize * self.dims;
            self.sample[base..base + self.dims].copy_from_slice(row);
        }
    }

    /// Rows seen so far.
    pub fn seen(&self) -> u64 {
        self.seen
    }

    /// Current sample (row-major; shorter than capacity until filled).
    pub fn sample(&self) -> &[f64] {
        &self.sample
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn acceptance_probability_is_s_over_r() {
        // After seeing t records, the next record enters with prob s/(t+1).
        let mut rng = StdRng::seed_from_u64(1);
        let trials = 200_000;
        let mut accepted = 0;
        for _ in 0..trials {
            let mut r = ReservoirSampler::new(10, 99);
            if matches!(r.observe(&mut rng), ReservoirDecision::Replace(_)) {
                accepted += 1;
            }
        }
        let p = accepted as f64 / trials as f64;
        assert!((p - 0.1).abs() < 0.005, "acceptance rate {p}");
    }

    #[test]
    fn replacement_slots_are_uniform() {
        // Fresh sampler per draw: with seen = 5 the next record replaces
        // with probability 5/6, and the chosen slot must be uniform.
        let mut rng = StdRng::seed_from_u64(2);
        let mut counts = [0u32; 5];
        let mut n = 0;
        while n < 50_000 {
            let mut r = ReservoirSampler::new(5, 5);
            if let ReservoirDecision::Replace(slot) = r.observe(&mut rng) {
                counts[slot] += 1;
                n += 1;
            }
        }
        for (i, &c) in counts.iter().enumerate() {
            assert!((9_000..=11_000).contains(&c), "slot {i}: {c}");
        }
    }

    #[test]
    fn stream_sampler_produces_uniform_samples() {
        // Sample 10 of 100 streamed values many times; each value should be
        // retained with probability 1/10.
        let mut rng = StdRng::seed_from_u64(3);
        let mut counts = [0u32; 100];
        let reps = 5_000;
        for _ in 0..reps {
            let mut s = StreamSampler::new(1, 10);
            for i in 0..100 {
                s.push(&[i as f64], &mut rng);
            }
            for &v in s.sample() {
                counts[v as usize] += 1;
            }
        }
        // Expected 500 per value; allow ±30%.
        for (i, &c) in counts.iter().enumerate() {
            assert!((350..=650).contains(&c), "value {i} retained {c} times");
        }
    }

    #[test]
    fn skip_sampler_matches_algorithm_r_distribution() {
        // Drive a length-1000 stream with both algorithms; compare per-value
        // inclusion frequencies.
        let reps = 3_000;
        let n = 8;
        let stream_len = 1000u64;
        let mut rng = StdRng::seed_from_u64(4);

        let mut incl_r = vec![0u32; stream_len as usize];
        for _ in 0..reps {
            let mut sample: Vec<u64> = (0..n as u64).collect();
            let mut r = ReservoirSampler::new(n, n as u64);
            for rec in n as u64..stream_len {
                if let ReservoirDecision::Replace(slot) = r.observe(&mut rng) {
                    sample[slot] = rec;
                }
            }
            for &v in &sample {
                incl_r[v as usize] += 1;
            }
        }

        let mut incl_x = vec![0u32; stream_len as usize];
        for _ in 0..reps {
            let mut sample: Vec<u64> = (0..n as u64).collect();
            let mut x = SkipSampler::new(n, n as u64);
            let mut pos = n as u64; // next unseen record index
            loop {
                let (skip, slot) = x.next_skip(&mut rng);
                let accept = pos + skip;
                if accept >= stream_len {
                    break;
                }
                sample[slot] = accept;
                pos = accept + 1;
            }
            for &v in &sample {
                incl_x[v as usize] += 1;
            }
        }

        // Every record should be included with probability n/stream_len.
        let expected = reps as f64 * n as f64 / stream_len as f64; // = 24
        let mean_r = incl_r.iter().map(|&c| c as f64).sum::<f64>() / stream_len as f64;
        let mean_x = incl_x.iter().map(|&c| c as f64).sum::<f64>() / stream_len as f64;
        assert!((mean_r - expected).abs() < 1.0, "R mean {mean_r}");
        assert!((mean_x - expected).abs() < 1.0, "X mean {mean_x}");
        // Early vs late stream positions must be included equally often.
        let first_half_x: u32 = incl_x[..500].iter().sum();
        let second_half_x: u32 = incl_x[500..].iter().sum();
        let ratio = first_half_x as f64 / second_half_x as f64;
        assert!((0.9..=1.1).contains(&ratio), "X halves ratio {ratio}");
    }

    #[test]
    fn skip_sampler_advances_state() {
        let mut rng = StdRng::seed_from_u64(5);
        let mut x = SkipSampler::new(4, 4);
        let before = x.seen();
        let (skip, slot) = x.next_skip(&mut rng);
        assert_eq!(x.seen(), before + skip + 1);
        assert!(slot < 4);
    }

    #[test]
    fn stream_sampler_fills_before_replacing() {
        let mut rng = StdRng::seed_from_u64(6);
        let mut s = StreamSampler::new(2, 3);
        for i in 0..3 {
            s.push(&[i as f64, 0.0], &mut rng);
        }
        assert_eq!(s.sample(), &[0.0, 0.0, 1.0, 0.0, 2.0, 0.0]);
        assert_eq!(s.seen(), 3);
    }

    #[test]
    #[should_panic(expected = "empty reservoir")]
    fn zero_capacity_rejected() {
        ReservoirSampler::new(0, 0);
    }

    #[test]
    #[should_panic(expected = "fewer records")]
    fn seen_below_capacity_rejected() {
        ReservoirSampler::new(10, 5);
    }
}
