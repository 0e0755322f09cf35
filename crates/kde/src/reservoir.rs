//! Reservoir sampling for insert streams (§4.2) [Vitter, *Random sampling
//! with a reservoir*, TOMS 1985].
//!
//! "Reservoir sampling adds newly inserted data to the sample with
//! probability |S|/|R|, replacing a random point in the process. It is
//! optimal with regard to transfers, as all decisions are made
//! independently by the host and only points that will end up in the
//! sample are transferred to the graphics card."
//!
//! [`ReservoirSampler`] is Algorithm R: one uniform draw per stream record.
//! It returns *which slot to overwrite* rather than owning the sample, so
//! the host-side decision and the device-side write stay separate;
//! [`AdaptiveKde`](crate::AdaptiveKde) owns one and installs each hit.

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

    /// Decides the fate of the next inserted tuple: include it with
    /// probability `|S|/|R|`, replacing a uniformly chosen slot. `draw(n)`
    /// must return a uniform draw from `0..n`; it is called once.
    pub fn observe(&mut self, draw: &mut dyn FnMut(u64) -> u64) -> Option<usize> {
        self.seen += 1;
        let j = draw(self.seen);
        (j < self.capacity as u64).then_some(j as usize)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn acceptance_probability_is_s_over_r() {
        // After seeing t records, the next record enters with prob s/(t+1).
        let mut rng = StdRng::seed_from_u64(1);
        let trials = 200_000;
        let mut accepted = 0;
        for _ in 0..trials {
            let mut r = ReservoirSampler::new(10, 99);
            if r.observe(&mut |n| rng.gen_range(0..n)).is_some() {
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
            if let Some(slot) = r.observe(&mut |n| rng.gen_range(0..n)) {
                counts[slot] += 1;
                n += 1;
            }
        }
        for (i, &c) in counts.iter().enumerate() {
            assert!((9_000..=11_000).contains(&c), "slot {i}: {c}");
        }
    }

    #[test]
    fn every_stream_record_is_included_equally_often() {
        // Drive a length-1000 stream through Algorithm R many times; every
        // record should end up in the sample with probability n/stream_len,
        // early and late positions alike.
        let reps = 3_000;
        let n = 8;
        let stream_len = 1000u64;
        let mut rng = StdRng::seed_from_u64(4);
        let mut incl = vec![0u32; stream_len as usize];
        for _ in 0..reps {
            let mut sample: Vec<u64> = (0..n as u64).collect();
            let mut r = ReservoirSampler::new(n, n as u64);
            for rec in n as u64..stream_len {
                if let Some(slot) = r.observe(&mut |n| rng.gen_range(0..n)) {
                    sample[slot] = rec;
                }
            }
            for &v in &sample {
                incl[v as usize] += 1;
            }
        }
        let expected = reps as f64 * n as f64 / stream_len as f64; // = 24
        let mean = incl.iter().map(|&c| c as f64).sum::<f64>() / stream_len as f64;
        assert!((mean - expected).abs() < 1.0, "mean {mean}");
        let first_half: u32 = incl[..500].iter().sum();
        let second_half: u32 = incl[500..].iter().sum();
        let ratio = first_half as f64 / second_half as f64;
        assert!((0.9..=1.1).contains(&ratio), "halves ratio {ratio}");
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
