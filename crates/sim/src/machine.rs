//! The execution engine: runs a [`Program`] and pushes every executed
//! branch, as a [`BranchRecord`], into a [`RecordSink`].

use std::fmt;

use bpred_trace::{BranchKind, BranchRecord, RecordSink, Trace};

use crate::isa::{AluOp, Instruction, Program, Reg, INSTRUCTION_BYTES};

/// Default data-memory size in words.
pub const DEFAULT_MEMORY_WORDS: usize = 1 << 20;

/// Error raised during execution.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RunError {
    /// The program ran for more than the allowed number of steps without
    /// reaching `halt`.
    StepLimit {
        /// The limit that was exceeded.
        limit: u64,
    },
    /// Control transferred outside the text segment.
    BadPc {
        /// The offending byte PC.
        pc: u64,
    },
    /// A load or store addressed memory out of range.
    BadAddress {
        /// The offending word address.
        address: i64,
        /// PC of the faulting instruction.
        pc: u64,
    },
    /// Division or remainder by zero.
    DivideByZero {
        /// PC of the faulting instruction.
        pc: u64,
    },
    /// A taken conditional branch targeted an instruction outside the
    /// program. Unlike [`RunError::BadPc`] (raised at the *next* fetch),
    /// this names the branch site itself, so the static analyzer in
    /// `bpred-cfa` can report the identical diagnostic for the same PC.
    BranchTargetOutOfBounds {
        /// PC of the branch instruction.
        pc: u64,
        /// The out-of-bounds target byte PC.
        target: u64,
    },
}

impl fmt::Display for RunError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RunError::StepLimit { limit } => {
                write!(f, "program exceeded the step limit of {limit}")
            }
            RunError::BadPc { pc } => write!(f, "control left the text segment at {pc:#x}"),
            RunError::BadAddress { address, pc } => {
                write!(f, "bad memory address {address} at {pc:#x}")
            }
            RunError::DivideByZero { pc } => write!(f, "division by zero at {pc:#x}"),
            RunError::BranchTargetOutOfBounds { pc, target } => write!(
                f,
                "conditional branch at {pc:#x} taken to out-of-bounds target {target:#x}"
            ),
        }
    }
}

impl std::error::Error for RunError {}

/// One executed conditional branch together with the operand values the
/// interpreter compared — the dynamic ground truth that `bpred-cfa`'s
/// abstract per-site value sets and taken-probability bounds are audited
/// against in `repro verify`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BranchObservation {
    /// Instruction index of the branch.
    pub index: usize,
    /// Byte PC of the branch.
    pub pc: u64,
    /// Observed value of the branch's `rs` operand.
    pub rs: i64,
    /// Observed value of the branch's `rt` operand.
    pub rt: i64,
    /// Whether the branch was taken.
    pub taken: bool,
}

/// A machine instance: registers, data memory, and a program.
#[derive(Debug, Clone)]
pub struct Machine {
    program: Program,
    regs: [i64; 32],
    memory: Vec<i64>,
    pc_index: usize,
    steps: u64,
}

impl Machine {
    /// Creates a machine with the default memory size; the program's
    /// `.data` image is copied to the bottom of memory.
    #[must_use]
    pub fn new(program: Program) -> Self {
        Self::with_memory(program, DEFAULT_MEMORY_WORDS)
    }

    /// Creates a machine with an explicit memory size in words.
    ///
    /// # Panics
    ///
    /// Panics if the program's data image does not fit in `words`.
    #[must_use]
    pub fn with_memory(program: Program, words: usize) -> Self {
        assert!(
            program.data.len() <= words,
            "data image ({} words) exceeds memory ({} words)",
            program.data.len(),
            words
        );
        let mut memory = vec![0i64; words];
        memory[..program.data.len()].copy_from_slice(&program.data);
        Self {
            program,
            regs: [0; 32],
            memory,
            pc_index: 0,
            steps: 0,
        }
    }

    /// Reads a register (r0 always reads 0).
    #[must_use]
    pub fn reg(&self, r: Reg) -> i64 {
        if r == Reg::ZERO {
            0
        } else {
            self.regs[r.index()]
        }
    }

    /// Writes a register (writes to r0 are ignored).
    pub fn set_reg(&mut self, r: Reg, value: i64) {
        if r != Reg::ZERO {
            self.regs[r.index()] = value;
        }
    }

    /// Reads a data-memory word.
    #[must_use]
    pub fn memory_word(&self, address: usize) -> Option<i64> {
        self.memory.get(address).copied()
    }

    /// Instructions executed so far.
    #[must_use]
    pub fn steps(&self) -> u64 {
        self.steps
    }

    /// Runs until `halt`, pushing branch events into `sink` (a [`Trace`]
    /// to keep them).
    ///
    /// # Errors
    ///
    /// Returns a [`RunError`] on step-limit exhaustion, wild control
    /// transfer, bad memory access, or division by zero.
    pub fn run_into(&mut self, max_steps: u64, sink: &mut dyn RecordSink) -> Result<(), RunError> {
        self.run_observed(max_steps, sink, &mut |_| {})
    }

    /// Runs until `halt` like [`run_into`](Self::run_into), additionally
    /// streaming every recorded conditional branch — with the operand
    /// values the interpreter compared — to `observe`. The observations
    /// correspond one-to-one, in order, with the conditional records
    /// pushed into `sink`.
    ///
    /// # Errors
    ///
    /// See [`run_into`](Self::run_into).
    pub fn run_observed(
        &mut self,
        max_steps: u64,
        sink: &mut dyn RecordSink,
        observe: &mut dyn FnMut(&BranchObservation),
    ) -> Result<(), RunError> {
        let limit = self.steps.saturating_add(max_steps);
        loop {
            if self.steps >= limit {
                return Err(RunError::StepLimit { limit: max_steps });
            }
            let Some(&instr) = self.program.instructions.get(self.pc_index) else {
                return Err(RunError::BadPc {
                    pc: Program::pc_of(self.pc_index),
                });
            };
            let pc = Program::pc_of(self.pc_index);
            self.steps += 1;
            let mut next = self.pc_index + 1;
            match instr {
                Instruction::Alu { op, rd, rs, rt } => {
                    let (a, b) = (self.reg(rs), self.reg(rt));
                    let v = match op {
                        AluOp::Add => a.wrapping_add(b),
                        AluOp::Sub => a.wrapping_sub(b),
                        AluOp::Mul => a.wrapping_mul(b),
                        AluOp::Div => {
                            if b == 0 {
                                return Err(RunError::DivideByZero { pc });
                            }
                            a.wrapping_div(b)
                        }
                        AluOp::Rem => {
                            if b == 0 {
                                return Err(RunError::DivideByZero { pc });
                            }
                            a.wrapping_rem(b)
                        }
                        AluOp::And => a & b,
                        AluOp::Or => a | b,
                        AluOp::Xor => a ^ b,
                        AluOp::Sll => a.wrapping_shl((b & 63) as u32),
                        AluOp::Srl => ((a as u64).wrapping_shr((b & 63) as u32)) as i64,
                        AluOp::Slt => i64::from(a < b),
                    };
                    self.set_reg(rd, v);
                }
                Instruction::Addi { rd, rs, imm } => {
                    let v = self.reg(rs).wrapping_add(imm);
                    self.set_reg(rd, v);
                }
                Instruction::Lw { rd, rs, imm } => {
                    let addr = self.reg(rs).wrapping_add(imm);
                    let v = usize::try_from(addr)
                        .ok()
                        .and_then(|a| self.memory.get(a).copied())
                        .ok_or(RunError::BadAddress { address: addr, pc })?;
                    self.set_reg(rd, v);
                }
                Instruction::Sw { rt, rs, imm } => {
                    let addr = self.reg(rs).wrapping_add(imm);
                    let slot = usize::try_from(addr)
                        .ok()
                        .filter(|a| *a < self.memory.len())
                        .ok_or(RunError::BadAddress { address: addr, pc })?;
                    self.memory[slot] = self.reg(rt);
                }
                Instruction::Branch {
                    cond,
                    rs,
                    rt,
                    target,
                } => {
                    let (a, b) = (self.reg(rs), self.reg(rt));
                    let taken = cond.eval(a, b);
                    if taken && target >= self.program.instructions.len() {
                        return Err(RunError::BranchTargetOutOfBounds {
                            pc,
                            target: Program::pc_of(target),
                        });
                    }
                    observe(&BranchObservation {
                        index: self.pc_index,
                        pc,
                        rs: a,
                        rt: b,
                        taken,
                    });
                    sink.push(BranchRecord::conditional(pc, Program::pc_of(target), taken));
                    if taken {
                        next = target;
                    }
                }
                Instruction::Jal { rd, target } => {
                    let kind = if rd == Reg::RA {
                        BranchKind::Call
                    } else {
                        BranchKind::Unconditional
                    };
                    sink.push(BranchRecord {
                        pc,
                        target: Program::pc_of(target),
                        taken: true,
                        kind,
                    });
                    self.set_reg(rd, pc as i64 + INSTRUCTION_BYTES as i64);
                    next = target;
                }
                Instruction::Jalr { rd, rs } => {
                    let target_pc = self.reg(rs) as u64;
                    let kind = if rd == Reg::ZERO && rs == Reg::RA {
                        BranchKind::Return
                    } else {
                        BranchKind::Indirect
                    };
                    sink.push(BranchRecord {
                        pc,
                        target: target_pc,
                        taken: true,
                        kind,
                    });
                    self.set_reg(rd, pc as i64 + INSTRUCTION_BYTES as i64);
                    next = self
                        .program
                        .index_of(target_pc)
                        .ok_or(RunError::BadPc { pc: target_pc })?;
                }
                Instruction::Halt => return Ok(()),
                Instruction::Nop => {}
            }
            self.pc_index = next;
        }
    }

    /// Runs until `halt` and returns the branch trace, named after
    /// nothing (callers typically rename).
    ///
    /// # Errors
    ///
    /// See [`run_into`](Self::run_into).
    pub fn run(&mut self, max_steps: u64) -> Result<Trace, RunError> {
        let mut trace = Trace::new("sim");
        self.run_into(max_steps, &mut trace)?;
        Ok(trace)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::asm::assemble;
    use crate::isa::TEXT_BASE;

    fn run(src: &str) -> (Machine, Trace) {
        let program = assemble(src).expect("test program assembles");
        let mut m = Machine::with_memory(program, 4096);
        let t = m.run(1_000_000).expect("test program halts");
        (m, t)
    }

    #[test]
    fn arithmetic_and_registers() {
        let (m, _) = run(r"
            li r1, 6
            li r2, 7
            mul r3, r1, r2
            sub r4, r3, r1
            div r5, r3, r2
            rem r6, r3, r4
            halt
            ");
        assert_eq!(m.reg(Reg::new(3)), 42);
        assert_eq!(m.reg(Reg::new(4)), 36);
        assert_eq!(m.reg(Reg::new(5)), 6);
        assert_eq!(m.reg(Reg::new(6)), 6);
    }

    #[test]
    fn r0_is_hardwired_zero() {
        let (m, _) = run("addi r0, r0, 99\nhalt");
        assert_eq!(m.reg(Reg::ZERO), 0);
    }

    #[test]
    fn loads_and_stores_roundtrip() {
        let (m, _) = run(r"
            li r1, 10       ; base address
            li r2, 1234
            sw r2, 5(r1)
            lw r3, 5(r1)
            halt
            ");
        assert_eq!(m.reg(Reg::new(3)), 1234);
        assert_eq!(m.memory_word(15), Some(1234));
    }

    #[test]
    fn data_image_is_loaded() {
        let (m, _) = run(".data 11 22 33\nli r1, 1\nlw r2, 1(r1)\nhalt");
        assert_eq!(m.reg(Reg::new(2)), 33);
    }

    #[test]
    fn loop_emits_expected_branch_outcomes() {
        let (_, t) = run(r"
                  li r1, 4
            loop: addi r1, r1, -1
                  bne r1, r0, loop
                  halt
            ");
        let conds: Vec<bool> = t.conditional().map(|r| r.taken).collect();
        assert_eq!(conds, [true, true, true, false]);
        // All from the same static branch, with a backward target.
        let pcs: Vec<u64> = t.conditional().map(|r| r.pc).collect();
        assert!(pcs.windows(2).all(|w| w[0] == w[1]));
        assert!(t.conditional().all(|r| r.is_backward()));
    }

    #[test]
    fn call_and_return_are_classified() {
        let (_, t) = run(r"
                  call fn
                  halt
            fn:   ret
            ");
        let kinds: Vec<BranchKind> = t.iter().map(|r| r.kind).collect();
        assert_eq!(kinds, [BranchKind::Call, BranchKind::Return]);
    }

    #[test]
    fn plain_jump_is_unconditional() {
        let (_, t) = run("j end\nnop\nend: halt");
        assert_eq!(t.records()[0].kind, BranchKind::Unconditional);
        assert!(t.records()[0].taken);
    }

    #[test]
    fn step_limit_fires_on_infinite_loop() {
        let program = assemble("spin: j spin").unwrap();
        let mut m = Machine::with_memory(program, 64);
        let err = m.run(1000).unwrap_err();
        assert_eq!(err, RunError::StepLimit { limit: 1000 });
    }

    #[test]
    fn falling_off_the_end_is_a_bad_pc() {
        let program = assemble("nop").unwrap();
        let mut m = Machine::with_memory(program, 64);
        let err = m.run(10).unwrap_err();
        assert!(matches!(err, RunError::BadPc { .. }));
    }

    #[test]
    fn taken_branch_past_the_end_names_the_branch_site() {
        // The branch at index 0 (TEXT_BASE) jumps to the trailing label
        // at index 1 = one past the end; the error must carry the branch
        // site's PC, not the fetch PC the generic BadPc would report.
        let program = assemble("beq r0, r0, end\nend:").unwrap();
        let mut m = Machine::with_memory(program, 64);
        let err = m.run(10).unwrap_err();
        assert_eq!(
            err,
            RunError::BranchTargetOutOfBounds {
                pc: TEXT_BASE,
                target: TEXT_BASE + 4,
            }
        );
        assert!(err.to_string().contains("conditional branch at 0x400000"));
    }

    #[test]
    fn not_taken_branch_past_the_end_does_not_trap() {
        // The same out-of-bounds target is harmless while the branch
        // falls through.
        let program = assemble("bne r0, r1, end\nhalt\nend:").unwrap();
        let mut m = Machine::with_memory(program, 64);
        let t = m.run(10).expect("falls through to halt");
        assert_eq!(t.len(), 1);
        assert!(!t.records()[0].taken);
    }

    #[test]
    fn wild_store_is_a_bad_address() {
        let program = assemble("li r1, -5\nsw r1, (r1)\nhalt").unwrap();
        let mut m = Machine::with_memory(program, 64);
        let err = m.run(10).unwrap_err();
        assert!(matches!(err, RunError::BadAddress { address: -5, .. }));
    }

    #[test]
    fn divide_by_zero_traps() {
        let program = assemble("li r1, 3\ndiv r2, r1, r0\nhalt").unwrap();
        let mut m = Machine::with_memory(program, 64);
        let err = m.run(10).unwrap_err();
        assert!(matches!(err, RunError::DivideByZero { .. }));
    }

    #[test]
    fn branch_pcs_are_word_aligned_in_text_segment() {
        let (_, t) = run(r"
                  li r1, 3
            loop: addi r1, r1, -1
                  bne r1, r0, loop
                  halt
            ");
        for r in t.iter() {
            assert_eq!(r.pc % 4, 0);
            assert!(r.pc >= TEXT_BASE);
        }
    }

    #[test]
    fn observed_run_matches_the_trace_record_for_record() {
        let program = assemble(
            r"
                  li r1, 3
            loop: addi r1, r1, -1
                  bne r1, r0, loop
                  halt
            ",
        )
        .unwrap();
        let mut m = Machine::with_memory(program, 64);
        let mut seen = Vec::new();
        let mut trace = Trace::new("obs");
        m.run_observed(1000, &mut trace, &mut |o| seen.push(*o))
            .expect("halts");
        let records: Vec<_> = trace.conditional().collect();
        assert_eq!(seen.len(), records.len());
        for (o, r) in seen.iter().zip(&records) {
            assert_eq!(o.pc, r.pc);
            assert_eq!(o.taken, r.taken);
            assert_eq!(o.pc, Program::pc_of(o.index));
            assert_eq!(o.rt, 0, "bne compares against r0");
        }
        // The counter's observed values at the test: 2, 1, 0.
        let rs: Vec<i64> = seen.iter().map(|o| o.rs).collect();
        assert_eq!(rs, [2, 1, 0]);
    }

    #[test]
    fn shifts_are_logical() {
        let (m, _) = run(r"
            li r1, -1
            li r2, 60
            srl r3, r1, r2   ; logical shift of all-ones
            li r4, 1
            li r5, 3
            sll r6, r4, r5
            halt
            ");
        assert_eq!(m.reg(Reg::new(3)), 15);
        assert_eq!(m.reg(Reg::new(6)), 8);
    }
}
