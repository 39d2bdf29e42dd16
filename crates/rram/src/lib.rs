//! Behavioural RRAM in-memory computing machine.
//!
//! This crate is the hardware substrate of the reproduction: it models the
//! resistive devices of the paper's Figs. 1–2, the two majority-gate
//! realizations of Sec. III-A, and executes whole synthesized circuits.
//!
//! - [`device`] — single-device next-state model (`R' = M(P, ¬Q, R)`) and
//!   the two-device IMP gate,
//! - [`isa`] — the micro-op ISA (`FALSE`, `LOAD`, `IMP`, `MAJ`) and
//!   step-parallel [`isa::Program`]s,
//! - [`gates`] — the paper's 10-step IMP-based and 3-step MAJ-based
//!   majority gates as ready-made programs,
//! - [`mod@compile`] — the level-by-level MIG compiler of Sec. III-B with
//!   device reuse, and
//! - [`machine`] — a cycle-accurate, bit-parallel interpreter that
//!   replays a once-validated program over blocks of pattern words.
//!
//! # Example
//!
//! ```
//! use rms_core::{Mig, Realization};
//! use rms_rram::{compile::compile, machine::Machine};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut mig = Mig::with_inputs("and", 2);
//! let (a, b) = (mig.input(0), mig.input(1));
//! let g = mig.and(a, b);
//! mig.add_output("f", g);
//! let circuit = compile(&mig, Realization::Maj);
//! let outs = Machine::run_bools(&circuit.program, &[true, true])?;
//! assert!(outs[0]);
//! # Ok(())
//! # }
//! ```

//!
//! This crate is the hardware layer of the workspace; see
//! `ARCHITECTURE.md` at the repository root for how the cost model the
//! compilers realize composes with the optimization layer.

pub mod compile;
pub mod device;
pub mod gates;
pub mod isa;
pub mod machine;
pub mod plim;

pub use compile::{compile, CompiledCircuit};
pub use device::{Drive, ImpGate, Rram};
pub use isa::{MicroOp, Operand, Program, ProgramError, RegId, ValidProgram};
pub use machine::{Machine, RunStats};
pub use plim::{compile_plim, PlimCircuit};
