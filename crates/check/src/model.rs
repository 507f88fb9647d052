//! The exhaustive model checker: breadth-first enumeration of a
//! predictor's reachable state space under a small driving alphabet.
//!
//! Every [`Predictor`] is a deterministic finite
//! transducer once its tables are down-scaled to a handful of index bits:
//! the state is the tuple of all counter tables plus the history
//! register(s), the input alphabet is (pc, outcome), and `update` is the
//! transition function. The checker enumerates the reachable states by
//! BFS from the power-on state, using the full-state `Debug` rendering as
//! a canonical digest (the `Predictor` trait contract requires `Debug` to
//! render the complete mutable state), and proves on every explored
//! state:
//!
//! * `predict` is pure (does not change the state digest) and
//!   deterministic (same pc, same answer, twice in a row);
//! * `update` is deterministic (two clones updated with the same input
//!   land on the same digest);
//! * `counter_id` stays within `0..num_counters()`;
//! * `name` and `cost` are state-independent (structural, not dynamic).
//!
//! Counter-range and index-bounds invariants are enforced during the same
//! walk by the `debug_assert!` contracts in `bpred_core::table`,
//! `bpred_core::index` and `bpred_core::history`: the checker runs in the
//! harness's dev profile where those assertions are live, so any
//! out-of-range counter state or escaped table index aborts the walk. The
//! bi-mode and tri-mode update *policies* are checked transition by
//! transition against the paper's Section 2 rules in [`crate::oracle`].

use std::collections::{HashMap, VecDeque};

use bpred_core::{Predictor, PredictorSpec};

/// Outcome of model-checking one spec.
#[derive(Debug, Clone)]
pub struct ModelCheck {
    /// The spec string that was explored.
    pub spec: String,
    /// Distinct reachable states visited.
    pub states: usize,
    /// Transitions taken (states × pcs × outcomes).
    pub transitions: usize,
    /// Whether the reachable space was fully closed (no frontier left
    /// when the walk stopped). `false` means the state cap was hit and
    /// the invariants were proved on the explored subspace only.
    pub closed: bool,
    /// Invariant violations found (empty on success).
    pub violations: Vec<String>,
}

impl ModelCheck {
    /// Whether no violation was found.
    #[must_use]
    pub fn passed(&self) -> bool {
        self.violations.is_empty()
    }

    /// One-line coverage summary.
    #[must_use]
    pub fn summary(&self) -> String {
        format!(
            "{} states, {} transitions, {}",
            self.states,
            self.transitions,
            if self.closed { "closed" } else { "capped" }
        )
    }
}

/// The state digest: the full `Debug` rendering, which the `Predictor`
/// trait contract defines as a complete view of the mutable state.
fn digest<P: Predictor + ?Sized>(p: &P) -> String {
    format!("{p:?}")
}

/// Breadth-first exploration of the reachable state space of `spec`
/// under the driving alphabet `pcs` × {taken, not-taken}, stopping after
/// `cap` distinct states.
///
/// At most a handful of violations are recorded before the walk aborts,
/// so a broken predictor fails fast instead of flooding the report.
#[must_use]
pub fn explore(spec: &PredictorSpec, pcs: &[u64], cap: usize) -> ModelCheck {
    let initial = spec.build();
    let initial_digest = digest(&*initial);
    let structural_name = initial.name();
    let structural_cost = initial.cost();

    let mut check = ModelCheck {
        spec: spec.to_string(),
        states: 0,
        transitions: 0,
        closed: true,
        violations: Vec::new(),
    };

    let mut seen: HashMap<String, usize> = HashMap::new();
    let mut queue: VecDeque<Box<dyn Predictor>> = VecDeque::new();
    seen.insert(initial_digest.clone(), 0);
    queue.push_back(initial);

    while let Some(state) = queue.pop_front() {
        check.states += 1;
        if check.violations.len() >= 5 {
            check.closed = false;
            break;
        }

        if state.name() != structural_name {
            check
                .violations
                .push(format!("name changed with state: `{}`", state.name()));
        }
        if state.cost() != structural_cost {
            check
                .violations
                .push(format!("cost changed with state: {:?}", state.cost()));
        }

        let before = digest(&*state);
        for &pc in pcs {
            // Purity and determinism of predict.
            let p1 = state.predict(pc);
            let p2 = state.predict(pc);
            if p1 != p2 {
                check
                    .violations
                    .push(format!("predict(pc={pc:#x}) is nondeterministic"));
            }
            if digest(&*state) != before {
                check
                    .violations
                    .push(format!("predict(pc={pc:#x}) mutated predictor state"));
            }

            // The advertised counter stays inside the advertised range.
            if let Some(id) = state.counter_id(pc) {
                let n = state.num_counters();
                if id >= n {
                    check.violations.push(format!(
                        "counter_id(pc={pc:#x}) = {id} out of range for {n} counters"
                    ));
                }
            }

            for outcome in [false, true] {
                check.transitions += 1;
                let mut next = state.clone();
                next.update(pc, outcome);
                let next_digest = digest(&*next);

                // Update determinism: a second clone driven with the same
                // input must land on the same digest.
                let mut again = state.clone();
                again.update(pc, outcome);
                if digest(&*again) != next_digest {
                    check.violations.push(format!(
                        "update(pc={pc:#x}, taken={outcome}) is nondeterministic"
                    ));
                }

                if !seen.contains_key(&next_digest) {
                    if seen.len() >= cap {
                        check.closed = false;
                    } else {
                        let id = seen.len();
                        seen.insert(next_digest, id);
                        queue.push_back(next);
                    }
                }
            }
        }
    }

    // Reset from an arbitrary reachable state must restore the power-on
    // digest (tables re-initialised, histories cleared).
    let mut reset_probe = spec.build();
    for &pc in pcs {
        reset_probe.update(pc, true);
        reset_probe.update(pc, false);
    }
    reset_probe.reset();
    if digest(&*reset_probe) != digest(&*spec.build()) {
        check
            .violations
            .push("reset did not restore the power-on state".to_owned());
    }

    check
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(s: &str) -> PredictorSpec {
        s.parse().expect("valid spec")
    }

    #[test]
    fn tiny_bimodal_space_closes_exactly() {
        // One pc drives one two-bit counter: exactly 4 reachable states.
        let c = explore(&spec("bimodal:s=1"), &[0], 10_000);
        assert!(c.passed(), "{:?}", c.violations);
        assert!(c.closed);
        assert_eq!(c.states, 4);
    }

    #[test]
    fn statics_have_a_single_state() {
        for s in ["always-taken", "always-not-taken", "btfnt"] {
            let c = explore(&spec(s), &[0, 4], 100);
            assert!(c.passed(), "{s}: {:?}", c.violations);
            assert!(c.closed);
            assert_eq!(c.states, 1, "{s} must be stateless");
        }
    }

    #[test]
    fn cap_is_reported_honestly() {
        let c = explore(&spec("gshare:s=3,h=3"), &[0, 4, 8], 16);
        assert!(!c.closed, "a 3-bit gshare cannot close within 16 states");
        assert!(c.states <= 16);
    }

    #[test]
    fn bimode_paper_default_closes_at_tiny_scale() {
        let c = explore(&spec("bimode:d=1,c=1,h=1"), &[0, 4], 100_000);
        assert!(c.passed(), "{:?}", c.violations);
        assert!(c.closed);
        assert!(c.states > 4, "bi-mode state must be richer than one table");
    }
}
