//! Model persistence: snapshot and restore estimator state.
//!
//! A production optimizer keeps its statistics in the catalog (Postgres:
//! `pg_statistic`) so they survive restarts; the paper's estimator would
//! live there too. [`ModelSnapshot`] captures everything a KDE model needs
//! — the sample, the kernel and the bandwidth — and this module owns its
//! JSON format, mapped onto the workspace's one codec
//! ([`kdesel_telemetry::json`]). Restoring uploads the sample to a fresh
//! device and reinstates the tuned bandwidth, skipping both ANALYZE and
//! re-optimization.

use crate::estimator::KdeEstimator;
use crate::kernel::KernelFn;
use kdesel_device::Device;
use kdesel_telemetry::Json;

/// Serializable snapshot of a KDE model.
#[derive(Debug, Clone, PartialEq)]
pub struct ModelSnapshot {
    /// Row-major sample.
    pub sample: Vec<f64>,
    /// Dimensionality.
    pub dims: usize,
    /// Kernel name ("gaussian" | "epanechnikov").
    pub kernel: String,
    /// Diagonal bandwidth.
    pub bandwidth: Vec<f64>,
}

impl ModelSnapshot {
    /// Captures the state of a live model.
    pub fn of(estimator: &KdeEstimator) -> Self {
        Self {
            sample: estimator.host_sample().to_vec(),
            dims: estimator.dims(),
            kernel: estimator.kernel().name().to_string(),
            bandwidth: estimator.bandwidth().to_vec(),
        }
    }

    /// Rebuilds a model on `device` from this snapshot.
    ///
    /// # Panics
    /// Panics on an unknown kernel name or inconsistent snapshot contents
    /// (the same validations as direct construction).
    pub fn restore(&self, device: Device) -> KdeEstimator {
        let kernel = match self.kernel.as_str() {
            "gaussian" => KernelFn::Gaussian,
            "epanechnikov" => KernelFn::Epanechnikov,
            other => panic!("unknown kernel {other:?} in snapshot"),
        };
        let mut estimator = KdeEstimator::new(device, &self.sample, self.dims, kernel);
        estimator.set_bandwidth(self.bandwidth.clone());
        estimator
    }

    /// Serializes the snapshot as one JSON object. Floats use Rust's
    /// round-trip (`{:?}`) formatting, so `from_json` recovers them
    /// bit-exactly.
    pub fn to_json(&self) -> String {
        Json::object([
            ("sample", self.sample.iter().copied().collect()),
            ("dims", Json::from(self.dims as u64)),
            ("kernel", Json::from(self.kernel.as_str())),
            ("bandwidth", self.bandwidth.iter().copied().collect()),
        ])
        .to_string()
    }

    /// Parses a snapshot serialized by [`ModelSnapshot::to_json`]. Keys
    /// may appear in any order; unknown keys are an error.
    pub fn from_json(json: &str) -> Result<Self, String> {
        let doc = Json::parse(json)?;
        doc.check_keys(&["sample", "dims", "kernel", "bandwidth"])?;
        Ok(Self {
            sample: doc.f64s("sample")?,
            dims: doc.usize("dims")?,
            kernel: doc.str("kernel")?.to_string(),
            bandwidth: doc.f64s("bandwidth")?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kdesel_device::Backend;
    use kdesel_types::Rect;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn model() -> KdeEstimator {
        let mut rng = StdRng::seed_from_u64(1);
        let sample: Vec<f64> = (0..256).map(|_| rng.gen_range(0.0..10.0)).collect();
        let mut e = KdeEstimator::new(
            Device::new(Backend::CpuSeq),
            &sample,
            2,
            KernelFn::Epanechnikov,
        );
        e.set_bandwidth(vec![0.42, 1.7]); // a "tuned" bandwidth
        e
    }

    #[test]
    fn snapshot_restore_roundtrips_estimates() {
        let mut original = model();
        let snapshot = ModelSnapshot::of(&original);
        let mut restored = snapshot.restore(Device::new(Backend::CpuPar));
        assert_eq!(restored.bandwidth(), original.bandwidth());
        assert_eq!(restored.kernel(), original.kernel());
        for q in [
            Rect::cube(2, 0.0, 5.0),
            Rect::from_intervals(&[(1.0, 2.0), (3.0, 9.0)]),
        ] {
            assert_eq!(original.estimate(&q), restored.estimate(&q));
        }
    }

    #[test]
    fn snapshot_survives_json_roundtrip() {
        let original = model();
        let snapshot = ModelSnapshot::of(&original);
        let json = snapshot.to_json();
        let back = ModelSnapshot::from_json(&json).expect("deserialize");
        assert_eq!(back, snapshot);
        let mut restored = back.restore(Device::new(Backend::CpuSeq));
        let q = Rect::cube(2, 2.0, 8.0);
        let mut orig = model();
        assert_eq!(restored.estimate(&q), orig.estimate(&q));
    }

    #[test]
    fn from_json_accepts_whitespace_and_key_reordering() {
        let json = r#" { "dims" : 1 , "kernel" : "gaussian" ,
                         "bandwidth" : [ 0.5 ] , "sample" : [ 1.0 , 2.0 ] } "#;
        let snap = ModelSnapshot::from_json(json).expect("parse");
        assert_eq!(snap.dims, 1);
        assert_eq!(snap.kernel, "gaussian");
        assert_eq!(snap.bandwidth, vec![0.5]);
        assert_eq!(snap.sample, vec![1.0, 2.0]);
    }

    #[test]
    fn from_json_rejects_garbage() {
        for bad in [
            "",
            "{",
            r#"{"dims":1}"#,
            r#"{"dims":1,"kernel":"gaussian","bandwidth":[],"sample":[]}x"#,
            r#"{"mystery":3}"#,
        ] {
            assert!(ModelSnapshot::from_json(bad).is_err(), "accepted {bad:?}");
        }
    }

    /// The snapshot format is persisted state: a change that encodes and
    /// decodes symmetrically differently would pass every round trip, so
    /// the bytes themselves are pinned.
    #[test]
    fn snapshot_encoding_is_pinned() {
        let snapshot = ModelSnapshot {
            sample: vec![0.1, -0.2, 1e-310, 4.0, 5e22, -0.0, 1.0 / 3.0, 123456789.125],
            dims: 2,
            kernel: "gaussian".into(),
            bandwidth: vec![0.5, 2.0f64.sqrt()],
        };
        assert_eq!(
            snapshot.to_json(),
            concat!(
                r#"{"sample":[0.1,-0.2,1e-310,4.0,5e22,-0.0,0.3333333333333333,123456789.125],"#,
                r#""dims":2,"kernel":"gaussian","bandwidth":[0.5,1.4142135623730951]}"#
            )
        );
    }

    #[test]
    #[should_panic(expected = "unknown kernel")]
    fn corrupt_kernel_name_rejected() {
        let mut snapshot = ModelSnapshot::of(&model());
        snapshot.kernel = "triangular".to_string();
        snapshot.restore(Device::new(Backend::CpuSeq));
    }
}
