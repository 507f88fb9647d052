//! A miniature of the paper's design-space methodology: the exhaustive
//! gshare history-length search (Section 3.1) and the address-bits /
//! history-bits trade-off it exposes (Section 4.1), on one workload.
//!
//! Run with: `cargo run --release --example design_space`

use bpred_harness::search::best_gshare;
use bpred_harness::sweep::{sweep_all, Scheme};
use bpred_trace::PackedTrace;
use bpred_workloads::{Scale, Workload};

fn main() {
    let trace = Workload::by_name("vortex")
        .expect("registered")
        .trace(Scale::Smoke);
    let packed = PackedTrace::build(&trace).expect("one workload's sites fit");
    let traces = [&packed];

    // 1. The exhaustive search at one size: the whole m-curve.
    let best = best_gshare(&traces, &[10], None).remove(0);
    println!("gshare search at 2^10 counters on `vortex`:");
    println!("  {:>3}  {:>12}", "m", "mispredict %");
    for (m, rate) in &best.curve {
        let marker = if *m == best.history_bits {
            "  <- best"
        } else {
            ""
        };
        println!("  {:>3}  {:>12.2}{marker}", m, 100.0 * rate);
    }

    // 2. The three Figure-2 curves on this workload.
    println!("\nsize sweep (misprediction %):");
    println!(
        "  {:<14} {:>8} {:>22}",
        "scheme", "KB", "config -> mispredict"
    );
    for p in sweep_all(&traces, None) {
        println!(
            "  {:<14} {:>8} {:>16} {:>6.2}",
            p.scheme.label(),
            p.kib,
            p.config,
            100.0 * p.average_rate()
        );
    }

    // 3. The paper's observation, checked live: the best history
    //    length usually sits strictly between "no history" and "all
    //    history" — both information sources matter.
    let single_pht = best.curve.last().expect("m = s candidate").1;
    let bimodal_like = best.curve.first().expect("m = 0 candidate").1;
    println!(
        "\nm=0 (pure address): {:.2}%   m=s (pure xor): {:.2}%   best m={}: {:.2}%",
        100.0 * bimodal_like,
        100.0 * single_pht,
        best.history_bits,
        100.0 * best.average_rate
    );
    let _ = Scheme::BiMode;
}
