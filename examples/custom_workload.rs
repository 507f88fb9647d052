//! Bring your own workload: trace branches from (a) your own Rust code
//! through the ATOM-style `Tracer`, and (b) an assembly program on the
//! `bpred-sim` ISA machine — then analyse both with the paper's tools.
//!
//! Run with: `cargo run --release --example custom_workload`

use bpred_analysis::{measure, Analysis};
use bpred_core::{BiMode, BiModeConfig, Gshare};
use bpred_sim::{assemble, Machine};
use bpred_trace::{PackedTrace, Trace};
use bpred_workloads::{site, Tracer};

/// (a) An instrumented Rust workload: a toy hash-join whose probe
/// branch bias depends on the match rate.
fn hash_join_trace(rows: usize) -> Trace {
    let mut trace = Trace::new("hash-join");
    let mut t = Tracer::new(&mut trace);
    let build: Vec<u64> = (0..rows as u64).filter(|k| k % 3 != 0).collect();
    let lookup = |k: u64| build.binary_search(&k).is_ok();
    let mut matches = 0u64;
    for k in 0..rows as u64 {
        // The probe branch: ~2/3 taken.
        if t.branch(site!(), lookup(k)) {
            matches += 1;
            // A correlated branch: every other match.
            if t.branch(site!(), matches.is_multiple_of(2)) {
                std::hint::black_box(matches);
            }
        }
    }
    trace
}

/// (b) An assembly workload on the ISA machine: GCD by subtraction
/// over many input pairs, whose compare branches are data-dependent.
fn gcd_trace() -> Trace {
    let program = assemble(
        r"
        ; for i in 0..400: mem[i] = gcd(252 + 17*i, 105 + 13*i)
              li   r10, 0          ; i
              li   r11, 400        ; pairs
        next: li   r4, 17
              mul  r1, r10, r4
              addi r1, r1, 252     ; a
              li   r4, 13
              mul  r2, r10, r4
              addi r2, r2, 105     ; b
        loop: beq  r1, r2, done
              blt  r1, r2, swap
              sub  r1, r1, r2
              j    loop
        swap: sub  r2, r2, r1
              j    loop
        done: sw   r1, (r10)
              addi r10, r10, 1
              blt  r10, r11, next
              halt
        ",
    )
    .expect("program assembles");
    let mut machine = Machine::with_memory(program, 4096);
    let mut trace = Trace::new("gcd");
    machine
        .run_into(10_000_000, &mut trace)
        .expect("program halts");
    assert_eq!(machine.memory_word(0), Some(21), "gcd(252, 105)");
    assert_eq!(machine.memory_word(1), Some(1), "gcd(269, 118)");
    trace
}

fn main() {
    for trace in [hash_join_trace(30_000), gcd_trace()] {
        let stats = trace.stats();
        println!(
            "\n== {} == ({} static, {} dynamic conditional)",
            trace.name(),
            stats.static_conditional,
            stats.dynamic_conditional
        );
        let g = measure(&trace, &mut Gshare::new(10, 10));
        let b = measure(&trace, &mut BiMode::new(BiModeConfig::paper_default(9)));
        println!("  gshare(10,10): {:>6.2}%", g.misprediction_percent());
        println!("  bi-mode(d=9):  {:>6.2}%", b.misprediction_percent());

        // The Section 4 view of your own code, over its packed form.
        let packed = PackedTrace::build(&trace).expect("site ids fit u32");
        let analysis = Analysis::run(&packed, || Gshare::new(8, 8));
        let (dom, non, wb) = analysis.area_fractions();
        println!(
            "  substream areas under gshare(8,8): dominant {:.0}%, non-dominant {:.0}%, WB {:.0}%",
            100.0 * dom,
            100.0 * non,
            100.0 * wb
        );
    }
}
