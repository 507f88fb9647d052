//! The paper's Section 2.1 problem as a runnable microbenchmark: two
//! branches with the same global-history behaviour but opposite biases
//! collide in a gshare PHT and thrash; the bi-mode choice predictor
//! routes them to different direction banks.
//!
//! Run with: `cargo run --release --example destructive_aliasing`

use bpred_analysis::{measure, Analysis};
use bpred_core::{BiMode, BiModeConfig, Gshare};
use bpred_trace::{BranchRecord, PackedTrace, Trace};

/// Builds a trace of two interleaved branches that share the low PC
/// index bits of a 2^6-counter table: `a` always taken, `b` never.
fn aliasing_trace(rounds: usize) -> Trace {
    let table_bits = 6;
    let a = 0x0040_1000u64;
    let b = a + (1u64 << (table_bits + 2)); // same low index bits
    let mut trace = Trace::new("destructive-aliasing");
    for _ in 0..rounds {
        trace.push(BranchRecord::conditional(a, a + 64, true));
        trace.push(BranchRecord::conditional(b, b - 128, false));
    }
    trace
}

fn main() {
    let trace = aliasing_trace(5_000);

    // Zero history bits isolate the aliasing effect itself.
    let mut gshare = Gshare::new(6, 0);
    let mut bimode = BiMode::new(BiModeConfig::new(6, 8, 0));

    let g = measure(&trace, &mut gshare);
    let b = measure(&trace, &mut bimode);
    println!("two opposite-biased branches aliased onto one counter:");
    println!(
        "  gshare(s=6):           {:>6.2}% mispredicted",
        g.misprediction_percent()
    );
    println!(
        "  bi-mode(d=6,c=8):      {:>6.2}% mispredicted",
        b.misprediction_percent()
    );

    // Show *why* through the paper's Section 4 analysis: the gshare
    // counter is contested by an ST and an SNT substream, the bi-mode
    // counters are not.
    let packed = PackedTrace::build(&trace).expect("two sites fit u32 ids");
    let ga = Analysis::run(&packed, || Gshare::new(6, 0));
    let ba = Analysis::run(&packed, || BiMode::new(BiModeConfig::new(6, 8, 0)));
    let contested = |a: &Analysis| {
        a.per_counter
            .iter()
            .filter(|c| c.st > 10 && c.snt > 10)
            .count()
    };
    println!("\ncounters contested by both strong classes:");
    println!("  gshare:  {}", contested(&ga));
    println!("  bi-mode: {}", contested(&ba));
    println!("\nbias-class changes at counters (paper Table 4 metric):");
    println!("  gshare:  {}", ga.class_changes.total());
    println!("  bi-mode: {}", ba.class_changes.total());

    assert!(g.misprediction_rate() > 10.0 * b.misprediction_rate().max(1e-6));
    println!("\nbi-mode separated the destructive aliases, as the paper claims.");
}
