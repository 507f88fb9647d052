//! `verilog` (IBS-Ultrix analogue): an event-driven gate-level logic
//! simulator over generated combinational circuits with registered
//! feedback.
//!
//! Branch profile: gate-type dispatch, the did-the-output-change test
//! (whose bias tracks circuit activity factor), and event-queue loops —
//! the pointer-chasing EDA mix of the original.

use std::collections::VecDeque;

use bpred_trace::RecordSink;

use crate::registry::Scale;
use crate::rng::Rng;
use crate::site;
use crate::tracer::Tracer;

/// Gate kinds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum GateKind {
    And,
    Or,
    Xor,
    Nand,
    Nor,
    Not,
    Buf,
}

const KINDS: [GateKind; 7] = [
    GateKind::And,
    GateKind::Or,
    GateKind::Xor,
    GateKind::Nand,
    GateKind::Nor,
    GateKind::Not,
    GateKind::Buf,
];

#[derive(Debug, Clone)]
struct Gate {
    kind: GateKind,
    inputs: Vec<usize>, // net ids
    output: usize,      // net id
}

/// A combinational netlist: nets 0..n_primary are primary inputs, the
/// rest are gate outputs. `fanout[net]` lists gates to re-evaluate when
/// the net changes.
#[derive(Debug)]
struct Circuit {
    n_primary: usize,
    gates: Vec<Gate>,
    fanout: Vec<Vec<usize>>,
}

impl Circuit {
    /// Generates a random layered DAG circuit.
    fn random(rng: &mut Rng, n_primary: usize, n_gates: usize) -> Self {
        let mut gates = Vec::with_capacity(n_gates);
        let mut n_nets = n_primary;
        for _ in 0..n_gates {
            let kind = *rng.pick(&KINDS);
            let arity = match kind {
                GateKind::Not | GateKind::Buf => 1,
                _ => 2 + rng.below(2) as usize,
            };
            // Inputs drawn from already-defined nets keeps it acyclic,
            // biased towards recent nets for realistic locality.
            let inputs = (0..arity)
                .map(|_| {
                    if rng.chance(0.7) && n_nets > 8 {
                        n_nets - 1 - rng.below(8) as usize
                    } else {
                        rng.below(n_nets as u64) as usize
                    }
                })
                .collect();
            let output = n_nets;
            n_nets += 1;
            gates.push(Gate {
                kind,
                inputs,
                output,
            });
        }
        let mut fanout = vec![Vec::new(); n_nets];
        for (gi, g) in gates.iter().enumerate() {
            for &i in &g.inputs {
                fanout[i].push(gi);
            }
        }
        Self {
            n_primary,
            gates,
            fanout,
        }
    }

    fn n_nets(&self) -> usize {
        self.n_primary + self.gates.len()
    }
}

/// The event-driven evaluator.
#[derive(Debug)]
struct Simulator<'c> {
    circuit: &'c Circuit,
    values: Vec<bool>,
    queue: VecDeque<usize>, // gate ids to evaluate
    queued: Vec<bool>,
    evaluations: u64,
}

impl<'c> Simulator<'c> {
    fn new(circuit: &'c Circuit) -> Self {
        Self {
            circuit,
            values: vec![false; circuit.n_nets()],
            queue: VecDeque::new(),
            queued: vec![false; circuit.gates.len()],
            evaluations: 0,
        }
    }

    fn eval_gate(t: &mut Tracer, kind: GateKind, inputs: &[bool]) -> bool {
        // Gate-type dispatch: one site per kind.
        let dispatch = site!();
        let kind_idx = KINDS
            .iter()
            .position(|k| *k == kind)
            .expect("kind in table") as u32; // panic-audited: gate kinds come from the same KINDS table being searched
        for k in 0..KINDS.len() as u32 {
            t.branch(dispatch.with_index(k), kind_idx == k);
        }
        match kind {
            GateKind::And => inputs.iter().all(|v| *v),
            GateKind::Or => inputs.iter().any(|v| *v),
            GateKind::Xor => inputs.iter().fold(false, |acc, v| acc ^ v),
            GateKind::Nand => !inputs.iter().all(|v| *v),
            GateKind::Nor => !inputs.iter().any(|v| *v),
            GateKind::Not | GateKind::Buf => {
                let v = inputs[0];
                if kind == GateKind::Not {
                    !v
                } else {
                    v
                }
            }
        }
    }

    fn schedule_fanout(&mut self, t: &mut Tracer, net: usize) {
        for &gi in &self.circuit.fanout[net] {
            // Suppress duplicate scheduling (biased by activity).
            if t.branch(site!(), !self.queued[gi]) {
                self.queued[gi] = true;
                self.queue.push_back(gi);
            }
        }
    }

    /// Applies a primary-input vector and propagates to quiescence.
    fn apply(&mut self, t: &mut Tracer, vector: &[bool]) {
        assert_eq!(vector.len(), self.circuit.n_primary);
        for (net, &v) in vector.iter().enumerate() {
            // Only changed inputs create events.
            if t.branch(site!(), self.values[net] != v) {
                self.values[net] = v;
                self.schedule_fanout(t, net);
            }
        }
        while t.branch(site!(), !self.queue.is_empty()) {
            let gi = self.queue.pop_front().expect("loop guard"); // panic-audited: the traced loop guard is !self.queue.is_empty()
            self.queued[gi] = false;
            self.evaluations += 1;
            assert!(self.evaluations < 1_000_000_000, "runaway simulation");
            let gate = &self.circuit.gates[gi];
            let inputs: Vec<bool> = gate.inputs.iter().map(|&n| self.values[n]).collect();
            let out = Self::eval_gate(t, gate.kind, &inputs);
            // The signature branch: did the output toggle?
            if t.branch(site!(), out != self.values[gate.output]) {
                self.values[gate.output] = out;
                self.schedule_fanout(t, gate.output);
            }
        }
    }
}

/// Runs the workload at the given scale, pushing each branch record
/// into `sink` as it happens.
pub fn trace(scale: Scale, sink: &mut dyn RecordSink) {
    let mut t = Tracer::new(sink);
    let mut rng = Rng::new(0x7E12_1060);
    let circuit = Circuit::random(&mut rng, 48, 700);
    let mut sim = Simulator::new(&circuit);
    let mut vector = vec![false; circuit.n_primary];
    let vectors = 900 * scale.factor();
    for step in 0..vectors {
        // Mixed stimulus: mostly low-activity bit flips, occasionally a
        // broadside random vector (bursty activity, as in real tests).
        if t.branch(site!(), step % 37 == 0) {
            for v in vector.iter_mut() {
                *v = rng.chance(0.5);
            }
        } else {
            for _ in 0..1 + rng.below(3) {
                let bit = rng.below(circuit.n_primary as u64) as usize;
                vector[bit] = !vector[bit];
            }
        }
        let v = vector.clone();
        sim.apply(&mut t, &v);
    }
    std::hint::black_box(sim.evaluations);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernels::traced;
    use bpred_trace::Trace;

    fn tiny_circuit() -> Circuit {
        // nets: 0,1 primary; gate0: AND(0,1)->2; gate1: NOT(2)->3
        let gates = vec![
            Gate {
                kind: GateKind::And,
                inputs: vec![0, 1],
                output: 2,
            },
            Gate {
                kind: GateKind::Not,
                inputs: vec![2],
                output: 3,
            },
        ];
        let mut fanout = vec![Vec::new(); 4];
        fanout[0].push(0);
        fanout[1].push(0);
        fanout[2].push(1);
        Circuit {
            n_primary: 2,
            gates,
            fanout,
        }
    }

    #[test]
    fn gate_truth_tables() {
        let mut sink = Trace::default();
        let mut t = Tracer::new(&mut sink);
        use GateKind::*;
        assert!(Simulator::eval_gate(&mut t, And, &[true, true]));
        assert!(!Simulator::eval_gate(&mut t, And, &[true, false]));
        assert!(Simulator::eval_gate(&mut t, Or, &[false, true]));
        assert!(!Simulator::eval_gate(&mut t, Or, &[false, false]));
        assert!(Simulator::eval_gate(&mut t, Xor, &[true, false]));
        assert!(!Simulator::eval_gate(&mut t, Xor, &[true, true]));
        assert!(Simulator::eval_gate(&mut t, Nand, &[true, false]));
        assert!(!Simulator::eval_gate(&mut t, Nor, &[true, false]));
        assert!(Simulator::eval_gate(&mut t, Not, &[false]));
        assert!(Simulator::eval_gate(&mut t, Buf, &[true]));
    }

    #[test]
    fn propagation_reaches_quiescence_with_correct_values() {
        let c = tiny_circuit();
        let mut sink = Trace::default();
        let mut t = Tracer::new(&mut sink);
        let mut sim = Simulator::new(&c);
        // Initially all false; NOT(AND(0,0)) should settle to true after
        // the first event wave.
        sim.apply(&mut t, &[true, true]);
        assert!(sim.values[2], "AND(1,1)");
        assert!(!sim.values[3], "NOT(1)");
        sim.apply(&mut t, &[true, false]);
        assert!(!sim.values[2]);
        assert!(sim.values[3]);
    }

    #[test]
    fn unchanged_inputs_create_no_events() {
        let c = tiny_circuit();
        let mut sink = Trace::default();
        let mut t = Tracer::new(&mut sink);
        let mut sim = Simulator::new(&c);
        sim.apply(&mut t, &[true, true]);
        let evals = sim.evaluations;
        sim.apply(&mut t, &[true, true]);
        assert_eq!(sim.evaluations, evals, "identical vector must be a no-op");
    }

    #[test]
    fn random_circuits_are_acyclic_by_construction() {
        let mut rng = Rng::new(3);
        let c = Circuit::random(&mut rng, 16, 200);
        for (gi, g) in c.gates.iter().enumerate() {
            for &i in &g.inputs {
                assert!(i < c.n_primary + gi, "gate {gi} reads a later net {i}");
            }
        }
    }

    #[test]
    fn workload_shape() {
        let trace = traced(trace, Scale::Smoke);
        let stats = trace.stats();
        assert!(stats.dynamic_conditional > 50_000);
        assert_eq!(trace, traced(super::trace, Scale::Smoke));
    }
}
