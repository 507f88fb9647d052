//! `bpred-cfa`: static control-flow, bias, and PHT-aliasing analysis of
//! `bpred-sim` kernel programs.
//!
//! The bi-mode paper's central claim is about *bias*: most static branch
//! sites are strongly taken or strongly not-taken, and destructive PHT
//! aliasing happens when opposite-bias sites share a counter. The
//! dynamic side of the repo measures this from traces; this crate
//! derives the same structure *statically* from the program text, so
//! the two views can be cross-checked instruction by instruction:
//!
//! * [`cfg`](mod@cfg) — basic blocks, edges, reachability, and static detection
//!   of out-of-bounds transfer targets (mirroring the machine's
//!   `BranchTargetOutOfBounds` diagnostic byte for byte);
//! * [`loops`] — dominators, natural loops, and the classification of
//!   every conditional site as loop back edge, loop exit, forward
//!   guard, or irreducible;
//! * [`absint`] — abstract interpretation over an interval + known-bits
//!   domain (widening/narrowing fixpoint), resolving trip counts of
//!   counted loops and bounding per-site branch operand values;
//! * [`h2p`] — per-site taken-probability bounds (trip counts, decided
//!   conditions, Ball–Larus-style shape heuristics) composed with the
//!   alias model into a statically-ranked hard-to-predict list;
//! * [`alias`] — which static site pairs can collide in a predictor's
//!   pattern-history table, per [`bpred_core::PredictorSpec`];
//! * [`audit`](mod@audit) — internal-consistency checks wired into `bpred-check`.
//!
//! [`analyze`] runs the whole pipeline and returns an [`Analysis`] with
//! one [`SiteReport`] per conditional branch site.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod absint;
pub mod alias;
pub mod audit;
pub mod cfg;
pub mod h2p;
pub mod loops;

use bpred_sim::{disassemble, Instruction, Program};

pub use absint::{decide, trip_counts, AbsFlow, AbsVal, Value};
pub use alias::{collisions, CollisionPair};
pub use audit::audit;
pub use cfg::{Block, Cfg, Edge, EdgeKind, OutOfBoundsTarget};
pub use h2p::{rank_h2p, taken_bounds, H2pSite, TakenBounds};
pub use loops::{
    classify_site, innermost_loop, natural_loops, BranchRole, Dominators, NaturalLoop,
};

/// Static direction bias predicted for a branch site, the static twin
/// of the dynamic `BiasBucket` (paper §2's ST / SNT / weakly-biased
/// classes at the 90% threshold).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StaticBias {
    /// Predicted strongly taken (loop back edges).
    Taken,
    /// Predicted strongly not-taken (loop exits).
    NotTaken,
    /// No static prediction (data-dependent guards, irreducible edges).
    Mixed,
}

impl StaticBias {
    /// Maps a control-flow role to its bias candidate class.
    #[must_use]
    pub fn of(role: BranchRole) -> Self {
        match role {
            BranchRole::LoopBack => StaticBias::Taken,
            BranchRole::LoopExit => StaticBias::NotTaken,
            BranchRole::ForwardGuard | BranchRole::Irreducible => StaticBias::Mixed,
        }
    }

    /// Table label, aligned with the dynamic `BiasBucket` labels.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            StaticBias::Taken => "ST-candidate",
            StaticBias::NotTaken => "SNT-candidate",
            StaticBias::Mixed => "WB-candidate",
        }
    }
}

/// Everything the analysis concluded about one conditional branch site.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SiteReport {
    /// Instruction index of the branch.
    pub index: usize,
    /// Byte PC of the branch.
    pub pc: u64,
    /// Control-flow role.
    pub role: BranchRole,
    /// Static bias candidate derived from the role.
    pub bias: StaticBias,
    /// Resolved executions of this branch per program run, when it is
    /// the back edge of a statically counted loop.
    pub trip_count: Option<u64>,
    /// Whether the site is reachable from the program entry.
    pub reachable: bool,
    /// The rendered instruction, for human-readable mismatch listings.
    pub text: String,
}

/// The full static analysis of one program.
#[derive(Debug, Clone)]
pub struct Analysis {
    /// The control-flow graph.
    pub cfg: Cfg,
    /// Dominator tree over the reachable subgraph.
    pub doms: Dominators,
    /// Natural loops, sorted by header block.
    pub loops: Vec<NaturalLoop>,
    /// Irreducible retreating edges `(tail, head)`.
    pub irreducible: Vec<(usize, usize)>,
    /// Abstract-interpretation fixpoint (interval + known-bits).
    pub flow: AbsFlow,
    /// One report per conditional branch site, in program order.
    pub sites: Vec<SiteReport>,
}

impl Analysis {
    /// Byte PCs of the reachable conditional sites, in program order —
    /// the static counterpart of a trace's per-site table.
    #[must_use]
    pub fn reachable_site_pcs(&self) -> Vec<u64> {
        self.sites
            .iter()
            .filter(|s| s.reachable)
            .map(|s| s.pc)
            .collect()
    }

    /// The report for the site at byte PC `pc`, if any.
    #[must_use]
    pub fn site_at(&self, pc: u64) -> Option<&SiteReport> {
        self.sites.iter().find(|s| s.pc == pc)
    }
}

/// Runs the whole static pipeline on `program`.
#[must_use]
pub fn analyze(program: &Program) -> Analysis {
    let cfg = Cfg::build(program);
    let doms = Dominators::compute(&cfg);
    let (loops, irreducible) = natural_loops(&cfg, &doms);
    let flow = AbsFlow::compute(program, &cfg);
    let trips = trip_counts(program, &cfg, &flow, &loops);
    let sites = Cfg::conditional_sites(program)
        .into_iter()
        .map(|i| {
            let role = classify_site(program, &cfg, &doms, &loops, &irreducible, i);
            SiteReport {
                index: i,
                pc: Program::pc_of(i),
                role,
                bias: StaticBias::of(role),
                trip_count: trips.get(&i).copied(),
                reachable: cfg.block_containing(i).is_some_and(|b| cfg.reachable[b]),
                text: site_text(program, i),
            }
        })
        .collect();
    Analysis {
        cfg,
        doms,
        loops,
        irreducible,
        flow,
        sites,
    }
}

/// Renders the instruction at index `i` the way the disassembler would,
/// prefixed with its index, e.g. `[12] bge r2, r3, L4`.
fn site_text(program: &Program, i: usize) -> String {
    match program.instructions.get(i) {
        Some(Instruction::Branch {
            cond,
            rs,
            rt,
            target,
        }) => format!("[{i}] {} {rs}, {rt}, L{target}", cond.mnemonic()),
        Some(other) => format!("[{i}] {other:?}"),
        None => format!("[{i}] <out of bounds>"),
    }
}

/// FNV-1a-64 digest of the program's canonical disassembly (text and
/// data image both), used as the store fingerprint for per-program
/// analysis jobs.
#[must_use]
pub fn program_digest(program: &Program) -> u64 {
    let text = disassemble(program);
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for byte in text.bytes() {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

#[cfg(test)]
mod tests {
    use super::*;
    use bpred_sim::assemble;

    #[test]
    fn analyze_classifies_a_counted_loop() {
        let p = assemble(
            r"
                  li r1, 10
                  li r2, 0
            loop: addi r2, r2, 1
                  blt r2, r1, loop
                  halt
            ",
        )
        .expect("assembles");
        let a = analyze(&p);
        assert_eq!(a.sites.len(), 1);
        let s = &a.sites[0];
        assert_eq!(s.role, BranchRole::LoopBack);
        assert_eq!(s.bias, StaticBias::Taken);
        assert_eq!(s.bias.label(), "ST-candidate");
        assert_eq!(s.trip_count, Some(10));
        assert!(s.reachable);
        assert_eq!(s.text, "[3] blt r2, r1, L2");
        assert_eq!(a.reachable_site_pcs(), vec![s.pc]);
        assert_eq!(a.site_at(s.pc), Some(s));
    }

    #[test]
    fn unreachable_sites_are_reported_but_flagged() {
        let p = assemble("halt\nbeq r0, r0, skip\nskip: halt").expect("assembles");
        let a = analyze(&p);
        assert_eq!(a.sites.len(), 1);
        assert!(!a.sites[0].reachable);
        assert!(a.reachable_site_pcs().is_empty());
    }

    #[test]
    fn digest_is_stable_and_content_sensitive() {
        let p = assemble("li r1, 1\nhalt").expect("assembles");
        let q = assemble("li r1, 2\nhalt").expect("assembles");
        assert_eq!(program_digest(&p), program_digest(&p));
        assert_ne!(program_digest(&p), program_digest(&q));
    }
}
