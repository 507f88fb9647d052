//! Property test of the [`Predictor::retire`] contract, for every
//! grammar name and the two training wrappers on random traces with
//! forward and backward targets: at every step `retire` answers what
//! `predict_with_target` (or, with no target, `predict`) answers on the
//! same state, and a predictor driven by `retire` ends in exactly the
//! state the two-call loop leaves — `Debug`-identical, the rendering
//! the model checker digests.

use bpred_core::spec::GRAMMAR;
use bpred_core::{DelayedUpdate, Flushed, Predictor, PredictorSpec};
use proptest::prelude::*;

/// Small configurations covering every grammar name, including the
/// shapes a `retire` override branches on: bi-mode's ablation knobs,
/// gskew's total update, a TAGE with 1-bit tags (no second tag fold),
/// and cascades whose stages include a target-sensitive `btfnt`.
const SPECS: &[&str] = &[
    "always-taken",
    "always-not-taken",
    "btfnt",
    "bimodal:s=4",
    "gshare:s=5,h=5",
    "gselect:a=2,h=3",
    "gag:h=4",
    "gas:a=2,h=3",
    "pag:i=2,h=3",
    "pas:i=2,a=1,h=3",
    "sag:i=2,k=2,h=3",
    "sas:i=2,k=2,a=1,h=3",
    "bimode:d=4,c=4,h=4",
    "bimode:d=4,c=3,h=3,choice=always,init=uniform,index=skewed",
    "agree:s=5,h=4,b=4",
    "gskew:s=4,h=4",
    "gskew:s=4,h=4,update=total",
    "yags:c=4,e=3,h=3,t=3",
    "tournament:s=4",
    "2bcgskew:s=4,h=4",
    "trimode:d=4,c=4,h=4",
    "tage:t=4,h=24,tag=5,e=4",
    "tage:t=2,h=63,tag=1,e=3",
    "perceptron:n=3,h=8,theta=22",
    "cascade:btfnt;bimodal:s=3;tage:t=2,h=12,tag=4,e=3",
    "cascade:bimodal:s=3;gshare:s=4,h=4;perceptron:n=2,h=6,theta=25",
];

/// Inner specs for the wrapped cases: `Flushed` overrides `retire`, and
/// both wrappers reach the engines only through it.
const WRAPPED: &[&str] = &["bimode:d=4,c=4,h=4", "tage:t=4,h=24,tag=5,e=4"];

/// Builds a fresh predictor under test.
type Build = Box<dyn Fn() -> Box<dyn Predictor>>;

/// Every case, labelled: the grammar pool, then `Flushed` at intervals
/// 1 and 7 and `DelayedUpdate` at depths 0 and 3 around each `WRAPPED`
/// spec.
fn pool() -> Vec<(String, Build)> {
    let parse = |text: &str| -> PredictorSpec { text.parse().expect("pool specs parse") };
    let mut pool: Vec<(String, Build)> = SPECS
        .iter()
        .map(|&text| {
            let spec = parse(text);
            (text.to_owned(), Box::new(move || spec.build()) as Build)
        })
        .collect();
    for &text in WRAPPED {
        for interval in [1u64, 7] {
            let spec = parse(text);
            let build =
                move || Box::new(Flushed::new(spec.build(), interval)) as Box<dyn Predictor>;
            pool.push((format!("{text}+flush={interval}"), Box::new(build)));
        }
        for delay in [0usize, 3] {
            let spec = parse(text);
            let build =
                move || Box::new(DelayedUpdate::new(spec.build(), delay)) as Box<dyn Predictor>;
            pool.push((format!("{text}+delay={delay}"), Box::new(build)));
        }
    }
    pool
}

/// One branch: (site, backward target, taken, target known).
fn step() -> impl Strategy<Value = (u64, bool, bool, bool)> {
    (0u64..12, any::<bool>(), any::<bool>(), any::<bool>())
}

#[test]
fn pool_covers_every_grammar_name() {
    for (name, _) in GRAMMAR {
        assert!(
            SPECS.iter().any(|s| s.split(':').next() == Some(*name)),
            "`{name}` has no retire-contract spec"
        );
    }
}

proptest! {
    #[test]
    fn retire_is_predict_then_update(steps in prop::collection::vec(step(), 1..300)) {
        for (text, build) in &pool() {
            let mut retired = build();
            let mut reference = build();
            for (i, &(site, backward, taken, known)) in steps.iter().enumerate() {
                let pc = 0x4000 + site * 4;
                let target = if backward { pc - 0x40 } else { pc + 0x40 };
                let want = if known {
                    reference.predict_with_target(pc, target)
                } else {
                    reference.predict(pc)
                };
                let got = retired.retire(pc, known.then_some(target), taken);
                prop_assert_eq!(got, want, "{} at step {}", text, i);
                reference.update(pc, taken);
            }
            prop_assert_eq!(format!("{retired:?}"), format!("{reference:?}"), "{}", text);
        }
    }
}
