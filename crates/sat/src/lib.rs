//! Formal equivalence checking for the synthesis pipeline: a
//! self-contained CDCL SAT solver plus Tseitin miter encoders.
//!
//! The paper's guarantee is that every optimized MIG and compiled RRAM
//! program computes the same function as its specification. Exhaustive
//! simulation proves that only up to the truth-table width cutoff;
//! random sampling above it is evidence, not proof. This crate closes the
//! gap with the classic formal route:
//!
//! 1. [`solver`] — a conflict-driven clause-learning SAT solver (watched
//!    literals, first-UIP learning, VSIDS activities, phase saving, Luby
//!    restarts), `std`-only and fully deterministic;
//! 2. [`tseitin`] — an [`Encoder`] lowering gates to CNF with constant
//!    folding, structural hashing, and a *native* majority encoding (one
//!    variable, six prime-implicant clauses per MAJ — no AND/OR
//!    expansion);
//! 3. [`miter`] — equivalence problems over shared inputs: netlist vs.
//!    netlist and netlist vs. compiled RRAM [`rms_rram::isa::Program`]s
//!    (array and PLiM, all in one miter), where UNSAT *proves*
//!    equivalence at any width and a model is a concrete counterexample
//!    assignment.
//!
//! `rms-flow` builds its tiered verification policy (exhaustive / SAT
//! proof / opt-out sampling) on [`check_netlists`] and
//! [`check_netlist_vs_programs`]; the differential test harness uses the
//! same entry points to prove all optimization algorithms agree on
//! random netlists. See `ARCHITECTURE.md` for the policy and encoding
//! details.
//!
//! # Example
//!
//! ```
//! use rms_logic::NetlistBuilder;
//! use rms_sat::{check_netlists, MiterOutcome};
//!
//! let mut b = NetlistBuilder::new("spec");
//! let (x, y, z) = (b.input("x"), b.input("y"), b.input("z"));
//! let m = b.maj(x, y, z);
//! b.output("f", m);
//! let spec = b.build();
//!
//! let mut b = NetlistBuilder::new("impl");
//! let (x, y, z) = (b.input("x"), b.input("y"), b.input("z"));
//! let xy = b.and(x, y);
//! let xz = b.and(x, z);
//! let yz = b.and(y, z);
//! let o1 = b.or(xy, xz);
//! let o2 = b.or(o1, yz);
//! b.output("f", o2);
//! let sum = b.build();
//!
//! assert!(check_netlists(&spec, &sum).unwrap().is_equivalent());
//! ```

pub mod lit;
pub mod miter;
pub mod solver;
pub mod tseitin;

pub use lit::{Lit, Var};
pub use miter::{
    check_netlist_vs_programs, check_netlists, check_netlists_cancellable, check_netlists_limited,
    Miter, MiterError, MiterOutcome,
};
pub use solver::{SatResult, Solver, SolverStats};
pub use tseitin::Encoder;
