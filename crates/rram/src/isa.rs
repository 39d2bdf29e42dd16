//! The micro-operation ISA of the RRAM in-memory machine.
//!
//! A [`Program`] is a sequence of [`Step`]s; all micro-ops inside one step
//! execute simultaneously (they drive disjoint devices, and all operand
//! reads observe the pre-step state). The step count of a program is the
//! paper's `S` metric; the machine additionally accounts devices for the
//! `R` metric (see [`crate::machine`]).

use std::fmt;

/// Index of an RRAM device (a "register" of the in-memory machine).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct RegId(pub u32);

impl fmt::Display for RegId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "r{}", self.0)
    }
}

/// A value source for a micro-op.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Operand {
    /// A constant logic level supplied by a voltage driver.
    Const(bool),
    /// Primary input `i`, supplied by the input drivers.
    Input(usize),
    /// The current state of a device.
    Reg(RegId),
}

impl fmt::Display for Operand {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Operand::Const(false) => write!(f, "0"),
            Operand::Const(true) => write!(f, "1"),
            Operand::Input(i) => write!(f, "x{i}"),
            Operand::Reg(r) => write!(f, "{r}"),
        }
    }
}

/// One micro-operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MicroOp {
    /// FALSE: drive `V_CLEAR`, forcing the device to 0.
    False {
        /// Target device.
        dst: RegId,
    },
    /// Load a value into a device (`V_SET`/`V_CLEAR` chosen by the driver).
    Load {
        /// Target device.
        dst: RegId,
        /// Value source.
        src: Operand,
    },
    /// Material implication `q ← p IMP q = p̄ + q` (Fig. 1).
    Imp {
        /// The `P` device/driver of the IMP gate.
        p: Operand,
        /// The `Q` device; read and written.
        q: RegId,
    },
    /// Intrinsic majority `r ← M(p, ¬q, r)` (Fig. 2): terminal `P` driven
    /// with `p`, terminal `Q` with `q`.
    Maj {
        /// Level applied to the top terminal.
        p: Operand,
        /// Level applied to the bottom terminal (acts inverted).
        q: Operand,
        /// The device switched in place.
        r: RegId,
    },
}

impl MicroOp {
    /// The device this op writes.
    pub fn dst(&self) -> RegId {
        match *self {
            MicroOp::False { dst } | MicroOp::Load { dst, .. } => dst,
            MicroOp::Imp { q, .. } => q,
            MicroOp::Maj { r, .. } => r,
        }
    }
}

impl fmt::Display for MicroOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MicroOp::False { dst } => write!(f, "{dst} = 0"),
            MicroOp::Load { dst, src } => write!(f, "{dst} <- {src}"),
            MicroOp::Imp { p, q } => write!(f, "{q} <- {p} IMP {q}"),
            MicroOp::Maj { p, q, r } => write!(f, "{r} <- MAJ({p}, !{q}, {r})"),
        }
    }
}

/// A group of micro-ops executing simultaneously in one time step.
pub type Step = Vec<MicroOp>;

/// A complete in-memory computing program.
#[derive(Debug, Clone, Default)]
pub struct Program {
    /// Number of primary inputs the program expects.
    pub num_inputs: usize,
    /// Number of devices (registers) the program addresses.
    pub num_regs: usize,
    /// The sequential steps.
    pub steps: Vec<Step>,
    /// Output name and the device holding the value after the last step.
    pub outputs: Vec<(String, RegId)>,
    /// The paper's `R` metric: the modelled per-level device footprint
    /// `max_i (K·N_i + C_i)` (see [`mod@crate::compile`]); `0` when the program
    /// was hand-written rather than compiled.
    pub model_rrams: u64,
}

/// A structural defect found by [`Program::validate`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProgramError {
    /// Two micro-ops in the same step write the same device.
    WriteConflict {
        /// Index of the offending step.
        step: usize,
        /// The doubly-written device.
        reg: RegId,
    },
    /// A micro-op addresses a device `>= num_regs`.
    RegOutOfRange {
        /// Index of the offending step.
        step: usize,
        /// The out-of-range device.
        reg: RegId,
    },
    /// An input operand index is `>= num_inputs`.
    InputOutOfRange {
        /// Index of the offending step.
        step: usize,
        /// The out-of-range input.
        input: usize,
    },
    /// An output names a device `>= num_regs`.
    OutputOutOfRange {
        /// The out-of-range device.
        reg: RegId,
    },
}

impl fmt::Display for ProgramError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProgramError::WriteConflict { step, reg } => {
                write!(f, "step {step}: device {reg} written twice")
            }
            ProgramError::RegOutOfRange { step, reg } => {
                write!(f, "step {step}: device {reg} out of range")
            }
            ProgramError::InputOutOfRange { step, input } => {
                write!(f, "step {step}: input x{input} out of range")
            }
            ProgramError::OutputOutOfRange { reg } => {
                write!(f, "output device {reg} out of range")
            }
        }
    }
}

impl std::error::Error for ProgramError {}

impl Program {
    /// Number of sequential steps (the paper's `S` metric for compiled
    /// programs).
    pub fn num_steps(&self) -> u64 {
        self.steps.len() as u64
    }

    /// Checks structural well-formedness in one pass over the ops.
    ///
    /// # Errors
    ///
    /// Returns the first [`ProgramError`] found, scanning steps and ops in
    /// order and, within one op, checking the written device's range,
    /// then a write conflict with an earlier op of the same step, then
    /// the range of every register operand, then the range of every
    /// input operand; outputs are checked after all steps.
    pub fn validate(&self) -> Result<(), ProgramError> {
        // `written_in[r]` is one past the index of the last step that
        // wrote device `r` (0 = never), so a conflict costs one compare.
        let mut written_in = vec![0usize; self.num_regs];
        for (si, step) in self.steps.iter().enumerate() {
            for op in step {
                let d = op.dst();
                let Some(stamp) = written_in.get_mut(d.0 as usize) else {
                    return Err(ProgramError::RegOutOfRange { step: si, reg: d });
                };
                if *stamp == si + 1 {
                    return Err(ProgramError::WriteConflict { step: si, reg: d });
                }
                *stamp = si + 1;
                // The written device is also read by IMP and MAJ, and
                // is already in range; only `p`/`q`/`src` remain.
                let sources = match *op {
                    MicroOp::False { .. } => [None, None],
                    MicroOp::Load { src, .. } => [Some(src), None],
                    MicroOp::Imp { p, .. } => [Some(p), None],
                    MicroOp::Maj { p, q, .. } => [Some(p), Some(q)],
                };
                for o in sources.into_iter().flatten() {
                    if let Operand::Reg(r) = o {
                        if r.0 as usize >= self.num_regs {
                            return Err(ProgramError::RegOutOfRange { step: si, reg: r });
                        }
                    }
                }
                for o in sources.into_iter().flatten() {
                    if let Operand::Input(input) = o {
                        if input >= self.num_inputs {
                            return Err(ProgramError::InputOutOfRange { step: si, input });
                        }
                    }
                }
            }
        }
        for (_, r) in &self.outputs {
            if r.0 as usize >= self.num_regs {
                return Err(ProgramError::OutputOutOfRange { reg: *r });
            }
        }
        Ok(())
    }

    /// Validates the program once and returns it as a [`ValidProgram`],
    /// which the [machine](crate::machine::Machine) replays without
    /// checking again.
    ///
    /// # Errors
    ///
    /// Returns the first [`ProgramError`] [`Program::validate`] finds.
    pub fn validated(&self) -> Result<ValidProgram<'_>, ProgramError> {
        self.validate()?;
        Ok(ValidProgram(self))
    }

    /// Pretty-prints the program as a step-numbered listing.
    pub fn listing(&self) -> String {
        use std::fmt::Write as _;
        let mut s = String::new();
        let _ = writeln!(
            s,
            "; {} inputs, {} devices, {} steps",
            self.num_inputs,
            self.num_regs,
            self.steps.len()
        );
        for (i, step) in self.steps.iter().enumerate() {
            let ops: Vec<String> = step.iter().map(|o| o.to_string()).collect();
            let _ = writeln!(s, "{:03}: {}", i + 1, ops.join(" ; "));
        }
        for (name, r) in &self.outputs {
            let _ = writeln!(s, "out {name} = {r}");
        }
        s
    }
}

/// A [`Program`] that passed [`Program::validate`]. [`Program::validated`]
/// is the only way to build one, so holding it proves the check ran.
#[derive(Debug, Clone, Copy)]
pub struct ValidProgram<'p>(&'p Program);

impl std::ops::Deref for ValidProgram<'_> {
    type Target = Program;

    fn deref(&self) -> &Program {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Program {
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
    fn valid_program_passes() {
        assert_eq!(tiny().validate(), Ok(()));
        assert_eq!(tiny().num_steps(), 2);
    }

    #[test]
    fn write_conflict_detected() {
        let mut p = tiny();
        p.steps[0].push(MicroOp::False { dst: RegId(0) });
        assert_eq!(
            p.validate(),
            Err(ProgramError::WriteConflict {
                step: 0,
                reg: RegId(0)
            })
        );
    }

    #[test]
    fn out_of_range_detected() {
        let mut p = tiny();
        p.steps[1].push(MicroOp::False { dst: RegId(9) });
        assert!(matches!(
            p.validate(),
            Err(ProgramError::RegOutOfRange { .. })
        ));
        let mut p = tiny();
        p.steps[0][0] = MicroOp::Load {
            dst: RegId(0),
            src: Operand::Input(5),
        };
        assert!(matches!(
            p.validate(),
            Err(ProgramError::InputOutOfRange { input: 5, .. })
        ));
        let mut p = tiny();
        p.outputs[0].1 = RegId(7);
        assert!(matches!(
            p.validate(),
            Err(ProgramError::OutputOutOfRange { .. })
        ));
    }

    #[test]
    fn first_error_among_several_defects() {
        use MicroOp::{False, Imp, Load, Maj};
        use Operand::{Const, Input, Reg};
        let r = RegId;
        // (num_inputs, num_regs, steps, output registers, expected error)
        type Case = (usize, usize, Vec<Step>, Vec<u32>, Result<(), ProgramError>);
        let cases: Vec<Case> = vec![
            // Destination range is checked before the source operand.
            (
                2,
                2,
                vec![vec![Load {
                    dst: r(9),
                    src: Input(7),
                }]],
                vec![0],
                Err(ProgramError::RegOutOfRange { step: 0, reg: r(9) }),
            ),
            // A write conflict beats an out-of-range read in the same op.
            (
                2,
                2,
                vec![vec![
                    Load {
                        dst: r(0),
                        src: Input(0),
                    },
                    Load {
                        dst: r(0),
                        src: Reg(r(9)),
                    },
                ]],
                vec![0],
                Err(ProgramError::WriteConflict { step: 0, reg: r(0) }),
            ),
            // An out-of-range read beats an out-of-range input in the
            // same op, whatever the operand order.
            (
                2,
                2,
                vec![vec![Maj {
                    p: Input(9),
                    q: Reg(r(8)),
                    r: r(0),
                }]],
                vec![0],
                Err(ProgramError::RegOutOfRange { step: 0, reg: r(8) }),
            ),
            (
                2,
                2,
                vec![vec![Maj {
                    p: Reg(r(8)),
                    q: Reg(r(9)),
                    r: r(0),
                }]],
                vec![0],
                Err(ProgramError::RegOutOfRange { step: 0, reg: r(8) }),
            ),
            (
                2,
                2,
                vec![vec![Maj {
                    p: Input(5),
                    q: Input(6),
                    r: r(1),
                }]],
                vec![0],
                Err(ProgramError::InputOutOfRange { step: 0, input: 5 }),
            ),
            (
                2,
                2,
                vec![vec![Maj {
                    p: Const(true),
                    q: Input(6),
                    r: r(1),
                }]],
                vec![0],
                Err(ProgramError::InputOutOfRange { step: 0, input: 6 }),
            ),
            // IMP: the written device is range-checked before `p`.
            (
                4,
                2,
                vec![vec![Imp {
                    p: Reg(r(7)),
                    q: r(5),
                }]],
                vec![0],
                Err(ProgramError::RegOutOfRange { step: 0, reg: r(5) }),
            ),
            (
                4,
                2,
                vec![vec![Imp {
                    p: Reg(r(7)),
                    q: r(1),
                }]],
                vec![0],
                Err(ProgramError::RegOutOfRange { step: 0, reg: r(7) }),
            ),
            // Earlier ops win over later ops of the same step, earlier
            // steps over later steps, and steps over outputs.
            (
                2,
                2,
                vec![
                    vec![
                        False { dst: r(0) },
                        Load {
                            dst: r(1),
                            src: Input(3),
                        },
                        False { dst: r(8) },
                    ],
                    vec![False { dst: r(9) }],
                ],
                vec![9],
                Err(ProgramError::InputOutOfRange { step: 0, input: 3 }),
            ),
            (
                2,
                3,
                vec![
                    vec![False { dst: r(0) }],
                    vec![
                        False { dst: r(1) },
                        False { dst: r(0) },
                        False { dst: r(1) },
                        False { dst: r(0) },
                        False { dst: r(7) },
                    ],
                ],
                vec![5],
                Err(ProgramError::WriteConflict { step: 1, reg: r(1) }),
            ),
            (
                1,
                1,
                vec![vec![False { dst: r(0) }]],
                vec![0, 4, 3],
                Err(ProgramError::OutputOutOfRange { reg: r(4) }),
            ),
            // Rewriting a device in a later step is not a conflict, and a
            // program without devices may still be well formed.
            (
                1,
                2,
                vec![
                    vec![
                        False { dst: r(0) },
                        Load {
                            dst: r(1),
                            src: Input(0),
                        },
                    ],
                    vec![
                        Load {
                            dst: r(0),
                            src: Reg(r(1)),
                        },
                        Load {
                            dst: r(1),
                            src: Reg(r(0)),
                        },
                    ],
                    vec![Imp {
                        p: Reg(r(0)),
                        q: r(1),
                    }],
                    vec![Maj {
                        p: Reg(r(1)),
                        q: Reg(r(0)),
                        r: r(0),
                    }],
                ],
                vec![0, 1],
                Ok(()),
            ),
            (0, 0, vec![vec![], vec![]], vec![], Ok(())),
            (
                0,
                0,
                vec![vec![False { dst: r(0) }]],
                vec![],
                Err(ProgramError::RegOutOfRange { step: 0, reg: r(0) }),
            ),
        ];
        for (i, (num_inputs, num_regs, steps, outs, expected)) in cases.into_iter().enumerate() {
            let p = Program {
                num_inputs,
                num_regs,
                steps,
                outputs: outs.iter().map(|&o| (format!("o{o}"), r(o))).collect(),
                model_rrams: 0,
            };
            assert_eq!(p.validate(), expected, "case {i}");
        }
    }

    #[test]
    fn listing_contains_ops() {
        let l = tiny().listing();
        assert!(l.contains("r1 <- r0 IMP r1"), "{l}");
        assert!(l.contains("out f = r1"));
    }

    #[test]
    fn op_dst() {
        let op = MicroOp::Maj {
            p: Operand::Reg(RegId(3)),
            q: Operand::Const(true),
            r: RegId(4),
        };
        assert_eq!(op.dst(), RegId(4));
        let op = MicroOp::Imp {
            p: Operand::Reg(RegId(3)),
            q: RegId(5),
        };
        assert_eq!(op.dst(), RegId(5));
    }
}
