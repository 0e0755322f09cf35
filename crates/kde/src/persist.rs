//! Model persistence: snapshot and restore estimator state.
//!
//! A production optimizer keeps its statistics in the catalog (Postgres:
//! `pg_statistic`) so they survive restarts; the paper's estimator would
//! live there too. [`ModelSnapshot`] captures everything a KDE model needs
//! — the sample, the kernel, the bandwidth, and a hybrid model's
//! [`RouterState`] — and this module owns its JSON format, router state
//! included, mapped onto the workspace's one codec
//! ([`kdesel_telemetry::json`]). Restoring uploads the sample to a fresh
//! device and reinstates the tuned bandwidth, skipping both ANALYZE and
//! re-optimization.

use crate::estimator::KdeEstimator;
use crate::kernel::KernelFn;
use kdesel_device::Device;
use kdesel_telemetry::Json;
use kdesel_types::RouterState;

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
    /// Hybrid-router state, present when the snapshot was taken from a
    /// hybrid model (KDE + exact behind a cost/error router).
    /// Plain KDE snapshots omit it and restore exactly as before.
    pub router: Option<RouterState>,
}

impl ModelSnapshot {
    /// Captures the state of a live model.
    pub fn of(estimator: &KdeEstimator) -> Self {
        Self {
            sample: estimator.host_sample().to_vec(),
            dims: estimator.dims(),
            kernel: estimator.kernel().name().to_string(),
            bandwidth: estimator.bandwidth().to_vec(),
            router: None,
        }
    }

    /// Attaches hybrid-router state to the snapshot.
    pub fn with_router(mut self, router: RouterState) -> Self {
        self.router = Some(router);
        self
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
        let mut fields = vec![
            ("sample", self.sample.iter().copied().collect()),
            ("dims", Json::from(self.dims as u64)),
            ("kernel", Json::from(self.kernel.as_str())),
            ("bandwidth", self.bandwidth.iter().copied().collect()),
        ];
        if let Some(router) = &self.router {
            fields.push(("router", router_to_json(router)));
        }
        Json::object(fields).to_string()
    }

    /// Parses a snapshot serialized by [`ModelSnapshot::to_json`]. Keys
    /// may appear in any order; unknown keys are an error, and an
    /// embedded router state must pass [`RouterState::validate`].
    pub fn from_json(json: &str) -> Result<Self, String> {
        let doc = Json::parse(json)?;
        doc.check_keys(&["sample", "dims", "kernel", "bandwidth", "router"])?;
        Ok(Self {
            sample: doc.f64s("sample")?,
            dims: doc.usize("dims")?,
            kernel: doc.str("kernel")?.to_string(),
            bandwidth: doc.f64s("bandwidth")?,
            router: doc.get("router").map(router_from_json).transpose()?,
        })
    }
}

fn router_to_json(router: &RouterState) -> Json {
    Json::object([
        (
            "families",
            router.families.iter().map(String::as_str).collect(),
        ),
        (
            "windows",
            router
                .windows
                .iter()
                .map(|w| w.iter().copied().collect::<Json>())
                .collect(),
        ),
        ("decisions", router.decisions.iter().copied().collect()),
        (
            "last",
            router.last.as_deref().map_or(Json::Null, Json::from),
        ),
    ])
}

fn router_from_json(doc: &Json) -> Result<RouterState, String> {
    doc.check_keys(&["families", "windows", "decisions", "last"])?;
    let state = RouterState {
        families: doc.field_as("families", "an array of strings", |v| {
            v.as_array()?
                .iter()
                .map(|f| f.as_str().map(str::to_string))
                .collect()
        })?,
        windows: doc.field_as("windows", "an array of number arrays", |v| {
            v.as_array()?
                .iter()
                .map(|w| w.as_array()?.iter().map(Json::as_f64).collect())
                .collect()
        })?,
        decisions: doc.field_as("decisions", "an array of counts", |v| {
            v.as_array()?.iter().map(Json::as_u64).collect()
        })?,
        last: match doc.field("last")? {
            Json::Null => None,
            _ => Some(doc.str("last")?.to_string()),
        },
    };
    state.validate()?;
    Ok(state)
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

    #[test]
    fn router_state_roundtrips_inside_snapshot() {
        let state = RouterState {
            families: vec!["kde".into(), "learned".into(), "exact".into()],
            windows: vec![vec![1.0, 2.5], vec![], vec![1.25]],
            decisions: vec![7, 0, 3],
            last: Some("exact".into()),
        };
        let snapshot = ModelSnapshot::of(&model()).with_router(state.clone());
        let json = snapshot.to_json();
        let back = ModelSnapshot::from_json(&json).expect("deserialize");
        assert_eq!(back, snapshot);
        assert_eq!(back.router, Some(state));
        // An embedded-but-invalid router state is rejected, not dropped.
        let bad = json.replace("\"last\":\"exact\"", "\"last\":\"stholes\"");
        assert!(ModelSnapshot::from_json(&bad).is_err());
    }

    fn router() -> RouterState {
        RouterState {
            families: vec!["kde".into(), "learned".into(), "exact".into()],
            windows: vec![vec![1.0, 2.5], vec![], vec![1.0]],
            decisions: vec![2, 0, 1],
            last: Some("kde".into()),
        }
    }

    /// A minimal snapshot document embedding `router` verbatim.
    fn with_router_json(router: &str) -> String {
        format!(
            r#"{{"sample":[1.0],"dims":1,"kernel":"gaussian","bandwidth":[0.5],"router":{router}}}"#
        )
    }

    #[test]
    fn router_json_roundtrips_bit_exactly() {
        let mut state = router();
        state.windows[0].push(1.0 + f64::EPSILON);
        let mut none_last = state.clone();
        none_last.last = None;
        for state in [state, none_last] {
            let snapshot = ModelSnapshot::of(&model()).with_router(state);
            assert_eq!(ModelSnapshot::from_json(&snapshot.to_json()), Ok(snapshot));
        }
    }

    #[test]
    fn router_json_accepts_whitespace_and_reordering() {
        let json = with_router_json(
            r#" { "last" : null , "decisions" : [ 1 , 0 ] ,
                  "windows" : [ [ 1.5 ] , [ ] ] ,
                  "families" : [ "kde" , "exact" ] } "#,
        );
        let state = ModelSnapshot::from_json(&json)
            .expect("parse")
            .router
            .expect("router state");
        assert_eq!(state.families, vec!["kde", "exact"]);
        assert_eq!(state.windows, vec![vec![1.5], vec![]]);
        assert_eq!(state.decisions, vec![1, 0]);
        assert_eq!(state.last, None);
    }

    #[test]
    fn router_json_rejects_garbage_and_invalid_states() {
        for bad in [
            "",
            "{",
            "null",
            r#"{"families":["kde"]}"#,
            r#"{"families":["kde"],"windows":[[]],"decisions":[0],"last":null}x"#,
            r#"{"families":["kde"],"windows":[[0.5]],"decisions":[0],"last":null}"#,
            r#"{"families":["kde"],"windows":[[]],"decisions":[1.5],"last":null}"#,
            r#"{"families":["kde"],"windows":[[]],"decisions":[0],"last":"exact"}"#,
            r#"{"mystery":3}"#,
        ] {
            let json = with_router_json(bad);
            assert!(
                ModelSnapshot::from_json(&json).is_err(),
                "accepted {json:?}"
            );
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
            router: Some(RouterState {
                families: vec!["kde".into(), "learned".into(), "exact".into()],
                windows: vec![
                    vec![1.0, 2.5, 1.0 + f64::EPSILON],
                    vec![],
                    vec![1.25, 3e300],
                ],
                decisions: vec![7, 0, u64::MAX],
                last: Some("exact".into()),
            }),
        };
        assert_eq!(
            snapshot.to_json(),
            concat!(
                r#"{"sample":[0.1,-0.2,1e-310,4.0,5e22,-0.0,0.3333333333333333,123456789.125],"#,
                r#""dims":2,"kernel":"gaussian","bandwidth":[0.5,1.4142135623730951],"#,
                r#""router":{"families":["kde","learned","exact"],"#,
                r#""windows":[[1.0,2.5,1.0000000000000002],[],[1.25,3e300]],"#,
                r#""decisions":[7,0,18446744073709551615],"last":"exact"}}"#
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
