//! Persistable hybrid-router state.
//!
//! The hybrid cost/error router (crate `kdesel-estimators`) picks an
//! estimator family per query from the calibrated cost model plus a
//! rolling per-family q-error window. This type captures everything the
//! router needs to resume after a restart: the family names, their
//! q-error windows (oldest first), the per-family decision counters,
//! and the family that answered most recently. It lives in
//! `kdesel-types` so the KDE persistence layer can embed it in a model
//! snapshot without depending on the estimator crate; its JSON encoding
//! is part of that snapshot format and lives with it, in `kdesel-kde`'s
//! `persist` module.

/// Snapshot of a hybrid router's adaptive state.
///
/// Invariants (checked by [`validate`](RouterState::validate)):
/// `families`, `windows`, and `decisions` are index-aligned and equal
/// length; window entries are finite q-errors `>= 1`; `last`, when
/// present, names one of the families.
#[derive(Debug, Clone, PartialEq)]
pub struct RouterState {
    /// Family names in router order (e.g. `["kde", "exact"]`).
    pub families: Vec<String>,
    /// Rolling q-error window per family, oldest observation first.
    pub windows: Vec<Vec<f64>>,
    /// Queries routed to each family since construction.
    pub decisions: Vec<u64>,
    /// Family that answered the most recent routed query, if any.
    pub last: Option<String>,
}

impl RouterState {
    /// Checks structural consistency; returns a human-readable reason
    /// on failure.
    pub fn validate(&self) -> Result<(), String> {
        if self.families.is_empty() {
            return Err("router state has no families".into());
        }
        if self.windows.len() != self.families.len() {
            return Err(format!(
                "router state has {} families but {} windows",
                self.families.len(),
                self.windows.len()
            ));
        }
        if self.decisions.len() != self.families.len() {
            return Err(format!(
                "router state has {} families but {} decision counters",
                self.families.len(),
                self.decisions.len()
            ));
        }
        for (family, window) in self.families.iter().zip(&self.windows) {
            for &q in window {
                if !q.is_finite() || q < 1.0 {
                    return Err(format!(
                        "router window for {family:?} holds invalid q-error {q}"
                    ));
                }
            }
        }
        if let Some(last) = &self.last {
            if !self.families.iter().any(|f| f == last) {
                return Err(format!("router last family {last:?} is not a known family"));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn good() -> RouterState {
        RouterState {
            families: vec!["kde".into(), "learned".into(), "exact".into()],
            windows: vec![vec![1.0, 2.5], vec![], vec![1.0]],
            decisions: vec![2, 0, 1],
            last: Some("kde".into()),
        }
    }

    #[test]
    fn validates_consistent_state() {
        assert_eq!(good().validate(), Ok(()));
        let mut none_last = good();
        none_last.last = None;
        assert_eq!(none_last.validate(), Ok(()));
    }

    #[test]
    fn rejects_misaligned_lengths() {
        let mut s = good();
        s.windows.pop();
        assert!(s.validate().is_err());
        let mut s = good();
        s.decisions.pop();
        assert!(s.validate().is_err());
        assert!(RouterState {
            families: vec![],
            windows: vec![],
            decisions: vec![],
            last: None,
        }
        .validate()
        .is_err());
    }

    #[test]
    fn rejects_bad_window_values_and_unknown_last() {
        let mut s = good();
        s.windows[0].push(0.5);
        assert!(s.validate().is_err());
        let mut s = good();
        s.windows[1].push(f64::NAN);
        assert!(s.validate().is_err());
        let mut s = good();
        s.last = Some("stholes".into());
        assert!(s.validate().is_err());
    }
}
