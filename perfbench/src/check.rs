//! Independent checks of the program's outputs, run outside the timed
//! region: both compiled RRAM programs are replayed on the machine model
//! against word-parallel simulation of the benchmark's own source
//! netlist, and each circuit's output size must repeat on every pass.

use rms_flow::FlowOutput;
use rms_logic::sim::random_patterns;
use rms_logic::Netlist;
use rms_rram::isa::Program;
use rms_rram::machine::Machine;
use std::collections::BTreeMap;

/// Output size of one synthesized circuit.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Size {
    /// Majority gates of the optimized MIG.
    pub mig_gates: u64,
    /// `R`: RRAM devices of the level-parallel program (Table I).
    pub rram_devices: u64,
    /// `S`: sequential steps of the level-parallel program (Table I).
    pub rram_steps: u64,
    /// Instructions of the serial PLiM stream.
    pub plim_instructions: u64,
}

impl Size {
    /// The size a pipeline run reports.
    pub fn of(out: &FlowOutput) -> Size {
        Size {
            mig_gates: out.mig.num_gates() as u64,
            rram_devices: out.report.cost.rrams,
            rram_steps: out.report.cost.steps,
            plim_instructions: out.report.plim_instructions,
        }
    }
}

/// Replays `program` on `words` × 64 seeded input patterns and compares
/// every output with the reference netlist's simulation.
pub fn replay(
    reference: &Netlist,
    program: &Program,
    words: usize,
    seed: u64,
) -> Result<(), String> {
    if program.num_inputs != reference.num_inputs() {
        return Err(format!(
            "program has {} inputs, reference {}",
            program.num_inputs,
            reference.num_inputs()
        ));
    }
    if program.outputs.len() != reference.num_outputs() {
        return Err(format!(
            "program has {} outputs, reference {}",
            program.outputs.len(),
            reference.num_outputs()
        ));
    }
    let mut machine = Machine::new();
    for pattern in random_patterns(reference.num_inputs(), words, seed) {
        let expected = reference.simulate_words(&pattern);
        let got = machine
            .run_words(program, &pattern)
            .map_err(|e| format!("program rejected by the machine: {e:?}"))?;
        if let Some(o) = (0..expected.len()).find(|&o| expected[o] != got[o]) {
            return Err(format!(
                "output {} ({}) differs from the reference on lanes {:#x}",
                o,
                program.outputs[o].0,
                expected[o] ^ got[o]
            ));
        }
    }
    Ok(())
}

/// Checks one pipeline run against the benchmark's own source netlist:
/// both compiled programs are replayed, and the reported size must be the
/// size of the artifacts.
pub fn check_flow_output(
    reference: &Netlist,
    out: &FlowOutput,
    words: usize,
    seed: u64,
) -> Result<Size, String> {
    replay(reference, &out.array.program, words, seed).map_err(|e| format!("array: {e}"))?;
    replay(reference, &out.plim.program, words, seed).map_err(|e| format!("plim: {e}"))?;
    if out.report.array_steps != out.array.program.num_steps() {
        return Err("reported array steps differ from the program".into());
    }
    Ok(Size::of(out))
}

/// Requires every circuit to have the same output size on every pass.
#[derive(Debug, Default)]
pub struct SizeLedger {
    sizes: BTreeMap<String, Size>,
}

impl SizeLedger {
    /// Records `size` for `circuit`; an error if an earlier pass differed.
    pub fn observe(&mut self, circuit: &str, size: Size) -> Result<(), String> {
        match self.sizes.get(circuit) {
            Some(first) if *first != size => Err(format!(
                "{circuit}: output size {size:?} differs from the first pass {first:?}"
            )),
            Some(_) => Ok(()),
            None => {
                self.sizes.insert(circuit.to_string(), size);
                Ok(())
            }
        }
    }

    /// Output sizes summed over each distinct circuit.
    pub fn total(&self) -> Size {
        self.sizes.values().fold(Size::default(), |a, s| Size {
            mig_gates: a.mig_gates + s.mig_gates,
            rram_devices: a.rram_devices + s.rram_devices,
            rram_steps: a.rram_steps + s.rram_steps,
            plim_instructions: a.plim_instructions + s.plim_instructions,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::Tally;
    use rms_flow::{InputFormat, Pipeline};
    use rms_rram::isa::MicroOp;

    const BLIF: &str = ".model t\n.inputs a b c d\n.outputs f g\n.names a b c f\n11- 1\n--1 1\n\
                        .names a c d g\n1-0 1\n01- 1\n.end\n";

    fn run() -> (Netlist, FlowOutput) {
        let reference = rms_logic::blif::parse(BLIF).unwrap();
        let out = Pipeline::from_str(InputFormat::Blif, BLIF, "t")
            .unwrap()
            .effort(4)
            .run()
            .unwrap();
        (reference, out)
    }

    fn account(tally: &mut Tally, result: &Result<Size, String>) {
        tally.attempted += 1;
        tally.failed += u64::from(result.is_err());
    }

    #[test]
    fn correct_outputs_pass() {
        let (reference, out) = run();
        let size = check_flow_output(&reference, &out, 2, 7).unwrap();
        assert_eq!(size.mig_gates, out.mig.num_gates() as u64);
    }

    #[test]
    fn a_corrupted_program_output_is_counted_as_failed() {
        let (reference, mut out) = run();
        // Clear the first output's device after the last step: the array
        // program now computes constant 0 for a non-constant function.
        let (_, reg) = out.array.program.outputs[0].clone();
        out.array
            .program
            .steps
            .push(vec![MicroOp::False { dst: reg }]);
        let mut tally = Tally::default();
        let result = check_flow_output(&reference, &out, 2, 7);
        assert!(
            result.as_ref().is_err_and(|e| e.starts_with("array:")),
            "{result:?}"
        );
        account(&mut tally, &result);
        assert_eq!(tally.failed, 1);
        assert!(!tally.correct());
        assert_eq!(tally.failed_share(), 1.0);
    }

    #[test]
    fn a_corrupted_plim_program_is_caught() {
        let (reference, mut out) = run();
        let last = out.plim.program.outputs.len() - 1;
        let (_, reg) = out.plim.program.outputs[last].clone();
        out.plim
            .program
            .steps
            .push(vec![MicroOp::False { dst: reg }]);
        let result = check_flow_output(&reference, &out, 2, 7);
        assert!(result.is_err_and(|e| e.starts_with("plim:")));
    }

    #[test]
    fn output_sizes_must_repeat() {
        let mut ledger = SizeLedger::default();
        let a = Size {
            mig_gates: 3,
            rram_devices: 4,
            rram_steps: 5,
            plim_instructions: 6,
        };
        ledger.observe("x", a).unwrap();
        ledger.observe("x", a).unwrap();
        ledger.observe("y", a).unwrap();
        assert!(ledger.observe("x", Size { mig_gates: 2, ..a }).is_err());
        assert_eq!(ledger.total().mig_gates, 6);
    }
}
