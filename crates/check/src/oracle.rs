//! Executable update-policy oracles for the paper's own predictors.
//!
//! The bi-mode result hinges on Section 2's update rules: only the
//! *selected* direction bank is trained, and the choice predictor is
//! trained with the outcome **unless** the choice was wrong while the
//! selected counter nevertheless predicted correctly (the partial
//! update). This module transcribes those rules — plus the tri-mode
//! extension's conflict-counter policy — into a symbolic oracle over the
//! white-box [`BiModeProbe`](bpred_core::BiModeProbe)/
//! [`TriModeProbe`](bpred_core::TriModeProbe) snapshots, and checks every
//! transition of the reachable state space against it: probe before
//! `update`, compute the expected successor counters/history from the
//! probe alone, apply the real `update`, and compare.
//!
//! The oracle also proves the *locality* of an update: no counter other
//! than the selected direction entry and the indexed choice (and, for
//! tri-mode, conflict) entry may change, and the unselected banks are
//! never polluted — the de-aliasing property the whole paper is about.

use std::collections::HashSet;
use std::fmt::Debug;

use bpred_core::{BiMode, BiModeConfig, ChoiceUpdate, Counter2, Predictor, TriMode, TriModeConfig};

/// Outcome of oracle-checking one configuration.
#[derive(Debug, Clone)]
pub struct OracleCheck {
    /// Human-readable configuration name.
    pub config: String,
    /// Distinct reachable states visited.
    pub states: usize,
    /// Transitions checked against the oracle.
    pub transitions: usize,
    /// Whether the reachable space was fully closed under the alphabet.
    pub closed: bool,
    /// Conformance violations found (empty on success).
    pub violations: Vec<String>,
}

impl OracleCheck {
    /// Whether every transition conformed to the policy oracle.
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

/// The paper's choice-update rule: train the choice counter unless the
/// choice direction was wrong but the selected counter predicted the
/// outcome anyway.
fn choice_trained(policy: ChoiceUpdate, choice_taken: bool, prediction: bool, taken: bool) -> bool {
    match policy {
        ChoiceUpdate::Always => true,
        ChoiceUpdate::Partial => !(choice_taken != taken && prediction == taken),
    }
}

/// Expected history register after observing `taken`.
fn next_history(history: u64, history_bits: u32, taken: bool) -> u64 {
    let mask = if history_bits == 0 {
        0
    } else {
        (1u64 << history_bits) - 1
    };
    ((history << 1) | u64::from(taken)) & mask
}

/// Generic BFS driver over a concrete cloneable predictor, invoking
/// `check_transition(state, pc, outcome, violations)` on every edge and
/// returning the successor it produced.
fn drive<P, F>(
    name: String,
    initial: P,
    pcs: &[u64],
    cap: usize,
    mut check_transition: F,
) -> OracleCheck
where
    P: Clone + Debug,
    F: FnMut(&P, u64, bool, &mut Vec<String>) -> P,
{
    let mut check = OracleCheck {
        config: name,
        states: 0,
        transitions: 0,
        closed: true,
        violations: Vec::new(),
    };
    let mut seen: HashSet<String> = HashSet::new();
    let mut queue: Vec<P> = Vec::new();
    seen.insert(format!("{initial:?}"));
    queue.push(initial);
    let mut head = 0;
    while head < queue.len() {
        let state = queue[head].clone();
        head += 1;
        check.states += 1;
        if check.violations.len() >= 5 {
            check.closed = false;
            break;
        }
        for &pc in pcs {
            for outcome in [false, true] {
                check.transitions += 1;
                let next = check_transition(&state, pc, outcome, &mut check.violations);
                let d = format!("{next:?}");
                if !seen.contains(&d) {
                    if seen.len() >= cap {
                        check.closed = false;
                    } else {
                        seen.insert(d);
                        queue.push(next);
                    }
                }
            }
        }
    }
    check
}

/// Model-checks a bi-mode configuration against the Section 2 oracle
/// over the reachable space driven by `pcs` × {taken, not-taken}.
#[must_use]
pub fn check_bimode(config: BiModeConfig, pcs: &[u64], cap: usize) -> OracleCheck {
    let choice_len = 1usize << config.choice_bits;
    let bank_len = 1usize << config.direction_bits;
    let initial = BiMode::new(config);
    drive(
        initial.name(),
        initial,
        pcs,
        cap,
        move |state, pc, taken, violations| {
            let probe = state.probe(pc);
            let mut complain = |msg: String| {
                violations.push(format!("pc={pc:#x} taken={taken}: {msg}"));
            };

            // Structural invariants of the lookup itself.
            if probe.choice_index >= choice_len {
                complain(format!("choice index {} out of range", probe.choice_index));
            }
            if probe.direction_index >= bank_len {
                complain(format!(
                    "direction index {} out of range",
                    probe.direction_index
                ));
            }
            if probe.choice_state > 3 || probe.direction_state > 3 {
                complain(format!(
                    "counter escaped 0..=3: choice={} direction={}",
                    probe.choice_state, probe.direction_state
                ));
            }
            let choice_taken = probe.choice_state >= 2;
            if probe.bank != usize::from(choice_taken) {
                complain(format!(
                    "bank {} disagrees with choice state {}",
                    probe.bank, probe.choice_state
                ));
            }
            if probe.prediction != (probe.direction_state >= 2) {
                complain("prediction disagrees with selected counter".to_owned());
            }
            if config.history_bits < 63 && probe.history >= (1u64 << config.history_bits) {
                complain(format!("history {:#x} escaped its register", probe.history));
            }

            // The oracle's expected successor, computed from the probe.
            let expect_direction = Counter2::from_state(probe.direction_state)
                .updated(taken)
                .state();
            let trained =
                choice_trained(config.choice_update, choice_taken, probe.prediction, taken);
            let expect_choice = if trained {
                Counter2::from_state(probe.choice_state)
                    .updated(taken)
                    .state()
            } else {
                probe.choice_state
            };
            let expect_history = next_history(probe.history, config.history_bits, taken);

            let mut next = state.clone();
            next.update(pc, taken);

            if next
                .direction_counter(probe.bank, probe.direction_index)
                .state()
                != expect_direction
            {
                complain(format!(
                    "selected counter went {} -> {}, oracle expected {}",
                    probe.direction_state,
                    next.direction_counter(probe.bank, probe.direction_index)
                        .state(),
                    expect_direction
                ));
            }
            if next.choice_counter(probe.choice_index).state() != expect_choice {
                complain(format!(
                    "choice counter went {} -> {}, oracle expected {} (partial-update {})",
                    probe.choice_state,
                    next.choice_counter(probe.choice_index).state(),
                    expect_choice,
                    if trained { "trains" } else { "saves" }
                ));
            }
            if next.history_value() != expect_history {
                complain(format!(
                    "history went {:#x} -> {:#x}, oracle expected {expect_history:#x}",
                    probe.history,
                    next.history_value()
                ));
            }

            // Locality: nothing else moved. The unselected bank must stay
            // byte-identical (the de-aliasing property).
            for i in 0..choice_len {
                if i != probe.choice_index && next.choice_counter(i) != state.choice_counter(i) {
                    complain(format!("unrelated choice counter {i} changed"));
                }
            }
            for bank in 0..2 {
                for i in 0..bank_len {
                    if (bank, i) == (probe.bank, probe.direction_index) {
                        continue;
                    }
                    if next.direction_counter(bank, i) != state.direction_counter(bank, i) {
                        complain(format!(
                            "unselected counter (bank {bank}, {i}) was polluted"
                        ));
                    }
                }
            }

            next
        },
    )
}

/// Model-checks a tri-mode configuration against its policy oracle:
/// bi-mode's partial update plus the conflict counter's +2/-1 rule and
/// weak-bank routing at the 3-bit midpoint threshold.
#[must_use]
pub fn check_trimode(config: TriModeConfig, pcs: &[u64], cap: usize) -> OracleCheck {
    let choice_len = 1usize << config.choice_bits;
    let bank_len = 1usize << config.direction_bits;
    let initial = TriMode::new(config);
    drive(
        initial.name(),
        initial,
        pcs,
        cap,
        move |state, pc, taken, violations| {
            let probe = state.probe(pc);
            let mut complain = |msg: String| {
                violations.push(format!("pc={pc:#x} taken={taken}: {msg}"));
            };

            if probe.choice_index >= choice_len {
                complain(format!("choice index {} out of range", probe.choice_index));
            }
            if probe.direction_index >= bank_len {
                complain(format!(
                    "direction index {} out of range",
                    probe.direction_index
                ));
            }
            if probe.choice_state > 3 || probe.direction_state > 3 || probe.conflict_value > 7 {
                complain(format!(
                    "counter escaped its range: choice={} direction={} conflict={}",
                    probe.choice_state, probe.direction_state, probe.conflict_value
                ));
            }
            let choice_taken = probe.choice_state >= 2;
            let expect_bank = if probe.conflict_value >= 4 {
                2
            } else {
                usize::from(choice_taken)
            };
            if probe.bank != expect_bank {
                complain(format!(
                    "bank {} disagrees with conflict={} choice={}",
                    probe.bank, probe.conflict_value, probe.choice_state
                ));
            }
            if probe.prediction != (probe.direction_state >= 2) {
                complain("prediction disagrees with selected counter".to_owned());
            }

            let expect_direction = Counter2::from_state(probe.direction_state)
                .updated(taken)
                .state();
            let expect_conflict = if choice_taken != taken {
                (probe.conflict_value + 2).min(7)
            } else {
                probe.conflict_value.saturating_sub(1)
            };
            let trained =
                choice_trained(ChoiceUpdate::Partial, choice_taken, probe.prediction, taken);
            let expect_choice = if trained {
                Counter2::from_state(probe.choice_state)
                    .updated(taken)
                    .state()
            } else {
                probe.choice_state
            };
            let expect_history = next_history(probe.history, config.history_bits, taken);

            let mut next = state.clone();
            next.update(pc, taken);

            if next
                .direction_counter(probe.bank, probe.direction_index)
                .state()
                != expect_direction
            {
                complain(format!(
                    "selected counter went {} -> {}, oracle expected {}",
                    probe.direction_state,
                    next.direction_counter(probe.bank, probe.direction_index)
                        .state(),
                    expect_direction
                ));
            }
            if next.conflict_value(probe.choice_index) != expect_conflict {
                complain(format!(
                    "conflict counter went {} -> {}, oracle expected {expect_conflict}",
                    probe.conflict_value,
                    next.conflict_value(probe.choice_index)
                ));
            }
            if next.choice_counter(probe.choice_index).state() != expect_choice {
                complain(format!(
                    "choice counter went {} -> {}, oracle expected {expect_choice}",
                    probe.choice_state,
                    next.choice_counter(probe.choice_index).state()
                ));
            }
            if next.history_value() != expect_history {
                complain(format!(
                    "history went {:#x} -> {:#x}, oracle expected {expect_history:#x}",
                    probe.history,
                    next.history_value()
                ));
            }

            for i in 0..choice_len {
                if i == probe.choice_index {
                    continue;
                }
                if next.choice_counter(i) != state.choice_counter(i) {
                    complain(format!("unrelated choice counter {i} changed"));
                }
                if next.conflict_value(i) != state.conflict_value(i) {
                    complain(format!("unrelated conflict counter {i} changed"));
                }
            }
            for bank in 0..3 {
                for i in 0..bank_len {
                    if (bank, i) == (probe.bank, probe.direction_index) {
                        continue;
                    }
                    if next.direction_counter(bank, i) != state.direction_counter(bank, i) {
                        complain(format!(
                            "unselected counter (bank {bank}, {i}) was polluted"
                        ));
                    }
                }
            }

            next
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use bpred_core::{BankInit, IndexShare};

    #[test]
    fn bimode_paper_default_conforms_and_closes() {
        let c = check_bimode(BiModeConfig::new(1, 1, 1), &[0, 4], 1_000_000);
        assert!(c.passed(), "{:?}", c.violations);
        assert!(c.closed, "d=1,c=1,h=1 must close: {}", c.summary());
        assert!(c.transitions >= 4 * c.states);
    }

    #[test]
    fn bimode_always_update_variant_conforms() {
        let mut cfg = BiModeConfig::new(2, 1, 1);
        cfg.choice_update = ChoiceUpdate::Always;
        let c = check_bimode(cfg, &[0, 4], 1_000_000);
        assert!(c.passed(), "{:?}", c.violations);
    }

    #[test]
    fn bimode_skewed_and_uniform_variants_conform() {
        let mut cfg = BiModeConfig::new(2, 2, 2);
        cfg.bank_init = BankInit::UniformWeaklyTaken;
        cfg.index_share = IndexShare::SkewedPerBank;
        let c = check_bimode(cfg, &[0, 4], 50_000);
        assert!(c.passed(), "{:?}", c.violations);
    }

    #[test]
    fn trimode_conforms_and_closes_under_one_site() {
        // Three banks x two entries plus the conflict table give an
        // 8M-state upper bound under two sites, so closure is asserted
        // on the single-site alphabet (~260k states) and the two-site
        // walk is covered (capped) by the registry targets instead.
        let c = check_trimode(TriModeConfig::new(1, 1, 1), &[0], 400_000);
        assert!(c.passed(), "{:?}", c.violations);
        assert!(
            c.closed,
            "d=1,c=1,h=1 must close under one pc: {}",
            c.summary()
        );
    }
}
