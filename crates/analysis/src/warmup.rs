//! Warm-up behaviour: windowed misprediction rates over the trace,
//! exposing how quickly a predictor converges from its power-on state
//! (the transient that the paper's footnote-2 initialisation and the
//! flush ablation are about).

use bpred_core::Predictor;
use bpred_trace::PackedTrace;

/// The misprediction rate of each consecutive window of
/// `window` conditional branches (the final partial window is included
/// if it holds at least `window / 2` branches).
///
/// # Panics
///
/// Panics if `window` is zero.
pub fn windowed_rates<P: Predictor + ?Sized>(
    trace: &PackedTrace,
    predictor: &mut P,
    window: u64,
) -> Vec<f64> {
    assert!(window > 0, "window must be positive");
    let started = std::time::Instant::now();
    let mut rates = Vec::new();
    let mut in_window = 0u64;
    let mut misses = 0u64;
    for record in trace.records() {
        let predicted = predictor.retire(record.pc, Some(record.target()), record.taken);
        misses += u64::from(predicted != record.taken);
        in_window += 1;
        if in_window == window {
            rates.push(misses as f64 / window as f64);
            in_window = 0;
            misses = 0;
        }
    }
    if in_window >= window / 2 && in_window > 0 {
        rates.push(misses as f64 / in_window as f64);
    }
    crate::metrics::record_engine_drive(
        crate::metrics::Engine::Scalar,
        trace.len() as u64,
        1,
        started.elapsed(),
    );
    rates
}

/// The number of leading windows whose rate exceeds the steady-state
/// rate (the mean of the last quarter of windows) by more than
/// `slack` — a simple convergence-time metric in units of windows.
///
/// Returns 0 when there are fewer than 8 windows (too short to judge).
#[must_use]
pub fn warmup_windows(rates: &[f64], slack: f64) -> usize {
    if rates.len() < 8 {
        return 0;
    }
    let tail = &rates[rates.len() - rates.len() / 4..];
    let steady = tail.iter().sum::<f64>() / tail.len() as f64;
    rates.iter().take_while(|r| **r > steady + slack).count()
}

#[cfg(test)]
mod tests {
    use super::*;
    use bpred_core::{Bimodal, Gshare};
    use bpred_trace::{BranchRecord, Trace};

    fn pack(t: &Trace) -> PackedTrace {
        PackedTrace::build(t).unwrap()
    }

    fn biased_trace(n: usize) -> PackedTrace {
        pack(
            &(0..n)
                .map(|i| BranchRecord::conditional(0x40 + (i as u64 % 16) * 4, 0, false))
                .collect(),
        )
    }

    #[test]
    fn windows_partition_the_trace() {
        let t = biased_trace(1000);
        let rates = windowed_rates(&t, &mut Bimodal::new(6), 100);
        assert_eq!(rates.len(), 10);
        // All branches are not-taken; after warm-up every window is 0.
        assert!(rates[0] > 0.0, "first window pays the warm-up misses");
        assert!(rates[1..].iter().all(|r| *r == 0.0));
    }

    #[test]
    fn partial_final_window_is_kept_when_large_enough() {
        let t = biased_trace(160);
        let rates = windowed_rates(&t, &mut Bimodal::new(6), 100);
        assert_eq!(rates.len(), 2, "60 >= window/2 keeps the tail window");
        let t = biased_trace(130);
        let rates = windowed_rates(&t, &mut Bimodal::new(6), 100);
        assert_eq!(rates.len(), 1, "30 < window/2 drops the tail window");
    }

    #[test]
    fn warmup_metric_counts_the_transient() {
        let rates = vec![0.5, 0.3, 0.1, 0.02, 0.02, 0.02, 0.02, 0.02, 0.02, 0.02];
        assert_eq!(warmup_windows(&rates, 0.05), 3);
        assert_eq!(warmup_windows(&rates[..4], 0.05), 0, "too short to judge");
    }

    #[test]
    fn gshare_converges_on_a_periodic_stream() {
        let mut t = Trace::new("p");
        for i in 0..5000 {
            t.push(BranchRecord::conditional(0x100, 0, i % 3 == 0));
        }
        let rates = windowed_rates(&pack(&t), &mut Gshare::new(10, 10), 250);
        let steady_tail = &rates[rates.len() - 4..];
        assert!(
            steady_tail.iter().all(|r| *r < 0.02),
            "period-3 must be learned: {steady_tail:?}"
        );
    }

    #[test]
    #[should_panic(expected = "window must be positive")]
    fn zero_window_is_rejected() {
        let t = biased_trace(10);
        let _ = windowed_rates(&t, &mut Bimodal::new(4), 0);
    }
}
