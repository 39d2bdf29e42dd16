//! Workload inputs. The circuits themselves are fixed (embedded suites and
//! generators with fixed seeds), so output sizes repeat across benchmark
//! seeds; the benchmark seed only orders them and draws the check
//! patterns.

use rms_logic::{aiger, bench_suite, blif, large_suite, random, Netlist};

/// A circuit as the program receives it, plus the benchmark's own copy
/// of its semantics.
pub struct Circuit {
    /// Circuit name.
    pub name: String,
    /// The reference netlist the outputs are checked against.
    pub reference: Netlist,
    /// The serialized input handed to the program.
    pub bytes: Vec<u8>,
}

impl Circuit {
    fn blif(reference: Netlist) -> Circuit {
        Circuit {
            name: reference.name().to_string(),
            bytes: blif::write(&reference).into_bytes(),
            reference,
        }
    }

    fn aiger(reference: Netlist) -> Circuit {
        Circuit {
            name: reference.name().to_string(),
            bytes: aiger::write_binary(&reference),
            reference,
        }
    }

    /// The serialized input as text (BLIF inputs only).
    pub fn text(&self) -> &str {
        std::str::from_utf8(&self.bytes).expect("BLIF inputs are UTF-8")
    }
}

/// The 50 embedded circuits of the paper's Tables II and III, as BLIF.
pub fn paper_suite() -> Vec<Circuit> {
    bench_suite::LARGE_SUITE
        .iter()
        .chain(bench_suite::SMALL_SUITE)
        .map(|info| Circuit::blif(bench_suite::build_info(info)))
        .collect()
}

/// Generated large circuits on both sides of the windowed-round
/// threshold, as binary AIGER.
const LARGE_CUT_CIRCUITS: [&str; 4] = ["xl_mul32", "xl_add2048", "xl_ctrl10k", "xl_mul64"];

/// The large-cut circuits, as binary AIGER.
pub fn large_suite() -> Vec<Circuit> {
    LARGE_CUT_CIRCUITS
        .iter()
        .map(|name| Circuit::aiger(large_suite::build(name).expect("generated circuit exists")))
        .collect()
}

/// Seed of the serve mix's random circuits: fixed, so the circuit set
/// (and the output sizes) are the same for every benchmark seed.
const SERVE_CIRCUIT_SEED: u64 = 0x5e_2ce_4d1;

/// Requests per round for the most popular serve circuit; the circuit of
/// popularity rank `k` (1-based) gets `round(ZIPF_TOP / k)`.
const ZIPF_TOP: f64 = 32.0;

/// The serve mix's circuits in popularity order (index 0 is requested
/// most), each with its request weight per round.
///
/// No record of real request traffic exists, so the skew is an
/// assumption, stated as a rule: popularity follows Zipf's law with
/// exponent 1, and smaller circuits are requested more often (rank 1 is
/// the smallest request body). Rounding `32 / k` gives weights 32, 16,
/// 11, 8, 6, 5, 5, 4, 4, 3, 3, 3, 2, 2, 2, 2: 108 requests per round.
pub fn serve_suite() -> Vec<(Circuit, usize)> {
    let bench = |name: &str| Circuit::blif(bench_suite::build(name).expect("embedded circuit"));
    let rand = |name: &str, inputs, outputs, gates| {
        Circuit::blif(random::random_netlist(
            name,
            SERVE_CIRCUIT_SEED,
            inputs,
            outputs,
            gates,
        ))
    };
    let mut circuits = vec![
        rand("serve_r40", 8, 4, 40),
        rand("serve_r60", 9, 4, 60),
        rand("serve_r150", 10, 6, 150),
        rand("serve_r290", 12, 6, 290),
        rand("serve_r380", 12, 8, 380),
        rand("serve_r580", 11, 8, 580),
        rand("serve_r870", 13, 12, 870),
        rand("serve_r1150", 14, 16, 1150),
        bench("apex2"),
        bench("apex7"),
        bench("b9"),
        bench("cordic"),
        bench("misex3"),
        bench("table5"),
        bench("too_large"),
        bench("x1"),
    ];
    circuits.sort_by(|a, b| (a.bytes.len(), &a.name).cmp(&(b.bytes.len(), &b.name)));
    circuits
        .into_iter()
        .enumerate()
        .map(|(i, c)| (c, (ZIPF_TOP / (i + 1) as f64).round() as usize))
        .collect()
}

/// SplitMix64: the benchmark's own generator for job orders and check
/// seeds, kept apart from the program's so that a change to the program
/// cannot change the order its inputs arrive in.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed` and a stream label.
    pub fn new(seed: u64, stream: u64) -> Rng {
        let mut r = Rng(seed ^ stream.wrapping_mul(0x9e37_79b9_7f4a_7c15));
        r.next_u64();
        r
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// A Fisher-Yates shuffle of `v`.
    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            let j = (self.next_u64() % (i as u64 + 1)) as usize;
            v.swap(i, j);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shuffles_depend_only_on_the_seed() {
        let order = |seed| {
            let mut v: Vec<u32> = (0..50).collect();
            Rng::new(seed, 1).shuffle(&mut v);
            v
        };
        assert_eq!(order(3), order(3));
        assert_ne!(order(3), order(4));
        let mut sorted = order(3);
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
    }

    #[test]
    fn suites_have_the_documented_shape() {
        assert_eq!(paper_suite().len(), 50);
        let serve = serve_suite();
        assert_eq!(serve.len(), 16);
        let names: std::collections::BTreeSet<_> =
            serve.iter().map(|(c, _)| c.name.clone()).collect();
        assert_eq!(names.len(), 16, "serve circuits are distinct");
        let weights: Vec<usize> = serve.iter().map(|(_, w)| *w).collect();
        assert_eq!(weights, [32, 16, 11, 8, 6, 5, 5, 4, 4, 3, 3, 3, 2, 2, 2, 2]);
        assert!(
            serve
                .windows(2)
                .all(|p| p[0].0.bytes.len() <= p[1].0.bytes.len()),
            "the more popular circuit has the smaller body"
        );
    }
}
