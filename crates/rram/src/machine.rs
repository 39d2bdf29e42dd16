//! Cycle-accurate, bit-parallel interpreter for RRAM programs.
//!
//! The machine evaluates a [`Program`] 64 input assignments per pattern
//! word (one bit lane per assignment). Within a step all operand reads
//! observe the pre-step device states, matching the simultaneous
//! execution semantics of the ISA.
//!
//! # One kernel, validated once
//!
//! [`Machine::run_patterns`] is the only interpreter. It takes a
//! [`ValidProgram`], so a program is checked once by
//! [`Program::validated`] however many pattern words are replayed.
//! [`Machine::run_words`] (one word) and [`Machine::truth_tables`] (every
//! minterm word) validate and then call the kernel.
//!
//! The kernel walks the steps once per *block* of `W` pattern words. In a
//! block, device `r` holds `W` consecutive words at `regs[r * W..]` and
//! input `i` likewise, so every micro-op is one fixed-width loop over `W`
//! words. `W` ([`block_words`]) is `REGISTER_FILE_WORDS / num_regs`,
//! clamped to `1..=64` and rounded down to a power of two: one pass's
//! register file stays within the fixed [`REGISTER_FILE_WORDS`] budget
//! (128 KiB) whatever the program's size, unless a single word per
//! device already exceeds it, and small programs get the widest blocks.

use crate::isa::{MicroOp, Operand, Program, ProgramError, Step, ValidProgram};

/// The register-file budget of one replay pass, in 64-bit words
/// (128 KiB).
pub const REGISTER_FILE_WORDS: usize = 16 * 1024;

/// The widest block, in pattern words.
pub const MAX_BLOCK_WORDS: usize = 64;

/// Pattern words replayed per pass for a program with `num_regs` devices.
pub fn block_words(num_regs: usize) -> usize {
    let w = (REGISTER_FILE_WORDS / num_regs.max(1)).clamp(1, MAX_BLOCK_WORDS);
    1 << w.ilog2()
}

/// Execution statistics of one program run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunStats {
    /// Sequential steps executed (the paper's `S`).
    pub steps: u64,
    /// Distinct devices actually touched by the program.
    pub devices_touched: u64,
}

/// The in-memory computing machine.
///
/// # Example
///
/// ```
/// use rms_rram::gates::maj_majority_gate;
/// use rms_rram::machine::Machine;
///
/// let program = maj_majority_gate();
/// let outs = Machine::run_bools(&program, &[true, false, true]).expect("valid program");
/// assert!(outs[0]); // M(1,0,1) = 1
/// ```
#[derive(Debug, Default)]
pub struct Machine {
    /// Device `r` of the block at `regs[r * W..(r + 1) * W]`.
    regs: Vec<u64>,
    /// Input `i` of the block at `inputs[i * W..(i + 1) * W]`.
    inputs: Vec<u64>,
    /// The values one step writes, `W` words per micro-op.
    writes: Vec<u64>,
    touched: Vec<bool>,
}

impl Machine {
    /// Creates a machine with no devices; each run sizes it.
    pub fn new() -> Self {
        Machine::default()
    }

    /// The replay kernel: runs `program` on every pattern word of
    /// `patterns` (`patterns[k][i]` holds one bit per lane for input `i`)
    /// and returns one word per output for each pattern word, in order.
    ///
    /// Pattern words are replayed [`block_words`] at a time (fewer when
    /// fewer are given), one walk of the steps per block; every device
    /// starts each block cleared.
    ///
    /// # Panics
    ///
    /// Panics if a pattern word does not hold `program.num_inputs` words.
    pub fn run_patterns<P: AsRef<[u64]>>(
        &mut self,
        program: ValidProgram<'_>,
        patterns: &[P],
    ) -> Vec<Vec<u64>> {
        let n = program.num_inputs;
        for pattern in patterns {
            assert_eq!(pattern.as_ref().len(), n, "input count mismatch");
        }
        self.touched.clear();
        self.touched.resize(program.num_regs, false);
        let width = block_words(program.num_regs).min(patterns.len().next_power_of_two());
        let mut outs = Vec::with_capacity(patterns.len());
        for block in patterns.chunks(width) {
            // A short last block leaves its trailing words zero.
            self.inputs.clear();
            self.inputs.resize(n * width, 0);
            for (k, pattern) in block.iter().enumerate() {
                for (i, &word) in pattern.as_ref().iter().enumerate() {
                    self.inputs[i * width + k] = word;
                }
            }
            self.regs.clear();
            self.regs.resize(program.num_regs * width, 0);
            match width {
                64 => self.walk::<64>(&program.steps),
                32 => self.walk::<32>(&program.steps),
                16 => self.walk::<16>(&program.steps),
                8 => self.walk::<8>(&program.steps),
                4 => self.walk::<4>(&program.steps),
                2 => self.walk::<2>(&program.steps),
                _ => self.walk::<1>(&program.steps),
            }
            outs.extend((0..block.len()).map(|k| {
                program
                    .outputs
                    .iter()
                    .map(|&(_, r)| self.regs[r.0 as usize * width + k])
                    .collect()
            }));
        }
        outs
    }

    /// One walk of `steps` over a block `W` words wide.
    fn walk<const W: usize>(&mut self, steps: &[Step]) {
        let (regs, _) = self.regs.as_chunks_mut::<W>();
        let (inputs, _) = self.inputs.as_chunks::<W>();
        for step in steps {
            if self.writes.len() < step.len() * W {
                self.writes.resize(step.len() * W, 0);
            }
            let (writes, _) = self.writes.as_chunks_mut::<W>();
            // Every op reads the pre-step state, so a step's values are
            // all computed before any is written.
            for (value, op) in writes.iter_mut().zip(step) {
                let read = |o: Operand| match o {
                    Operand::Const(false) => [0; W],
                    Operand::Const(true) => [u64::MAX; W],
                    Operand::Input(i) => inputs[i],
                    Operand::Reg(r) => regs[r.0 as usize],
                };
                *value = match *op {
                    MicroOp::False { .. } => [0; W],
                    MicroOp::Load { src, .. } => read(src),
                    MicroOp::Imp { p, q } => {
                        let (p, q) = (read(p), regs[q.0 as usize]);
                        std::array::from_fn(|k| !p[k] | q[k])
                    }
                    MicroOp::Maj { p, q, r } => {
                        let (p, r) = (read(p), regs[r.0 as usize]);
                        let q = read(q).map(|q| !q);
                        std::array::from_fn(|k| (p[k] & q[k]) | (p[k] & r[k]) | (q[k] & r[k]))
                    }
                };
            }
            for (op, value) in step.iter().zip(writes.iter()) {
                let d = op.dst().0 as usize;
                regs[d] = *value;
                self.touched[d] = true;
            }
        }
    }

    /// Runs `program` on 64 parallel assignments (`inputs[i]` holds one bit
    /// per lane for input `i`); returns one word per output.
    ///
    /// # Errors
    ///
    /// Returns a [`ProgramError`] if the program fails validation.
    ///
    /// # Panics
    ///
    /// Panics if `inputs.len() != program.num_inputs`.
    pub fn run_words(
        &mut self,
        program: &Program,
        inputs: &[u64],
    ) -> Result<Vec<u64>, ProgramError> {
        let mut outs = self.run_patterns(program.validated()?, &[inputs]);
        Ok(outs.pop().expect("one pattern word in, one out"))
    }

    /// Runs `program` on a single boolean assignment.
    ///
    /// # Errors
    ///
    /// Returns a [`ProgramError`] if the program fails validation.
    pub fn run_bools(program: &Program, inputs: &[bool]) -> Result<Vec<bool>, ProgramError> {
        let words: Vec<u64> = inputs
            .iter()
            .map(|&b| if b { u64::MAX } else { 0 })
            .collect();
        let mut m = Machine::new();
        let outs = m.run_words(program, &words)?;
        Ok(outs.into_iter().map(|w| w & 1 == 1).collect())
    }

    /// Statistics of the most recent run.
    pub fn stats(&self, program: &Program) -> RunStats {
        RunStats {
            steps: program.num_steps(),
            devices_touched: self.touched.iter().filter(|&&t| t).count() as u64,
        }
    }

    /// Exhaustive truth tables of a program's outputs (one
    /// [`rms_logic::TruthTable`] per output).
    ///
    /// # Errors
    ///
    /// Returns a [`ProgramError`] if the program fails validation.
    ///
    /// # Panics
    ///
    /// Panics if the program has more than [`rms_logic::tt::MAX_VARS`]
    /// inputs.
    pub fn truth_tables(program: &Program) -> Result<Vec<rms_logic::TruthTable>, ProgramError> {
        use rms_logic::tt::{TruthTable, MAX_VARS};
        let n = program.num_inputs;
        assert!(n <= MAX_VARS, "too many inputs for exhaustive tables");
        let program = program.validated()?;
        // Minterm word `k` of input `i` is word `k` of its projection.
        let vars: Vec<TruthTable> = (0..n).map(|i| TruthTable::var(n, i)).collect();
        let mut tts: Vec<TruthTable> = program
            .outputs
            .iter()
            .map(|_| TruthTable::zero(n))
            .collect();
        let patterns: Vec<Vec<u64>> = (0..1usize << n.saturating_sub(6))
            .map(|k| vars.iter().map(|v| v.words()[k]).collect())
            .collect();
        let lanes = 64.min(1u64 << n);
        let mask = u64::MAX >> (64 - lanes);
        let outs = Machine::new().run_patterns(program, &patterns);
        for (k, word) in outs.iter().enumerate() {
            for (t, &w) in tts.iter_mut().zip(word) {
                let mut bits = w & mask;
                while bits != 0 {
                    t.set_bit(k as u64 * 64 + u64::from(bits.trailing_zeros()));
                    bits &= bits - 1;
                }
            }
        }
        Ok(tts)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::isa::RegId;

    fn imp_program() -> Program {
        Program {
            num_inputs: 2,
            num_regs: 2,
            steps: vec![
                vec![
                    MicroOp::Load {
                        dst: RegId(0),
                        src: Operand::Input(0),
                    },
                    MicroOp::Load {
                        dst: RegId(1),
                        src: Operand::Input(1),
                    },
                ],
                vec![MicroOp::Imp {
                    p: Operand::Reg(RegId(0)),
                    q: RegId(1),
                }],
            ],
            outputs: vec![("f".into(), RegId(1))],
            model_rrams: 2,
        }
    }

    #[test]
    fn imp_semantics() {
        for (p, q, expect) in [
            (false, false, true),
            (false, true, true),
            (true, false, false),
            (true, true, true),
        ] {
            let outs = Machine::run_bools(&imp_program(), &[p, q]).unwrap();
            assert_eq!(outs[0], expect, "p={p} q={q}");
        }
    }

    #[test]
    fn maj_op_semantics() {
        let prog = Program {
            num_inputs: 3,
            num_regs: 1,
            steps: vec![
                vec![MicroOp::Load {
                    dst: RegId(0),
                    src: Operand::Input(2),
                }],
                vec![MicroOp::Maj {
                    p: Operand::Input(0),
                    q: Operand::Input(1),
                    r: RegId(0),
                }],
            ],
            outputs: vec![("f".into(), RegId(0))],
            model_rrams: 1,
        };
        for m in 0..8u32 {
            let (p, q, r) = (m & 1 == 1, m & 2 != 0, m & 4 != 0);
            let outs = Machine::run_bools(&prog, &[p, q, r]).unwrap();
            let expect = [p, !q, r].iter().filter(|&&b| b).count() >= 2;
            assert_eq!(outs[0], expect, "{m}");
        }
    }

    #[test]
    fn reads_observe_pre_step_state() {
        // Swap-like step: both ops read old values.
        let prog = Program {
            num_inputs: 2,
            num_regs: 2,
            steps: vec![
                vec![
                    MicroOp::Load {
                        dst: RegId(0),
                        src: Operand::Input(0),
                    },
                    MicroOp::Load {
                        dst: RegId(1),
                        src: Operand::Input(1),
                    },
                ],
                vec![
                    MicroOp::Load {
                        dst: RegId(0),
                        src: Operand::Reg(RegId(1)),
                    },
                    MicroOp::Load {
                        dst: RegId(1),
                        src: Operand::Reg(RegId(0)),
                    },
                ],
            ],
            outputs: vec![("a".into(), RegId(0)), ("b".into(), RegId(1))],
            model_rrams: 2,
        };
        let outs = Machine::run_bools(&prog, &[true, false]).unwrap();
        assert_eq!(outs, vec![false, true], "values must swap");
    }

    #[test]
    fn invalid_program_is_rejected() {
        let mut p = imp_program();
        p.steps.push(vec![MicroOp::False { dst: RegId(5) }] as Step);
        assert!(Machine::run_bools(&p, &[false, false]).is_err());
    }

    #[test]
    fn truth_tables_of_imp() {
        let tts = Machine::truth_tables(&imp_program()).unwrap();
        // f = !p | q with p = input 0 (minterm bit 0), q = input 1:
        // minterms 00,10,01,11 -> 1,0,1,1 -> 0b1101.
        assert_eq!(tts[0].words()[0] & 0xF, 0b1101);
    }

    #[test]
    fn stats_count_touched_devices() {
        let mut m = Machine::new();
        let prog = imp_program();
        m.run_words(&prog, &[0, 0]).unwrap();
        assert_eq!(
            m.stats(&prog),
            RunStats {
                steps: 2,
                devices_touched: 2
            }
        );
    }
}
