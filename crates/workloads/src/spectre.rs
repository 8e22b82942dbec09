//! A Spectre-v1-style bounds-check-bypass gadget — the speculation-era
//! negative control.
//!
//! The kernel is the canonical `if (idx < n) y = probe[arr[idx] * 64]`
//! gadget: a victim function whose bounds check architecturally rejects
//! every out-of-bounds index, so its *architectural* access stream touches
//! only public addresses and is identical across secrets. The secrets are
//! values planted just past the array's logical end; they are never read
//! architecturally.
//!
//! On a machine with bounded speculation (`spec_window > 0`) the attack
//! rounds mistrain the branch predictor with in-bounds calls, then present
//! an out-of-bounds index. The predicted-taken bounds check mispredicts,
//! and the wrong-path window transiently reads the planted secret and
//! touches a probe line selected by its low bits — a secret-dependent fill
//! that survives the squash. So:
//!
//! * with `spec_window = 0` the observation trace is secret-independent
//!   and the trace-equivalence oracle must pass, while
//! * with `spec_window > 0` the wrong-path channel of the observation
//!   trace diverges across secret pairs and the oracle must fail, and the
//!   taint sanitizer must raise a
//!   [`ctbia_core::taint::LeakKind::SpeculativeFill`] violation.
//!
//! Outputs (the sum of the public training loads) are identical either
//! way: the leak lives entirely in microarchitectural state.

use crate::run::{digest_u64, measure, size_label, InputRng, Run, Workload};
use crate::strategy::Strategy;
use ctbia_core::ctmem::Width;
use ctbia_core::sink::{elem_addr, TaintSink, Value};
use ctbia_core::taint::Tv;
use ctbia_machine::{Counters, Machine};

/// Static site id of the gadget's bounds check.
pub const GADGET_SITE: u64 = 0x5bec;

/// In-bounds calls per attack round — enough to saturate the 2-bit
/// predictor toward "taken" from any seeded initial state.
pub const TRAIN_CALLS: usize = 4;

/// Per-call bookkeeping: bounds compare, index scale, accumulate.
const GADGET_INSTS: u64 = 4;

/// Bytes per probe-array stride: one cache line per secret value.
const PROBE_STRIDE: u64 = 64;

/// Distinct probe lines (the secret's low 6 bits select one).
const PROBE_LINES: u64 = 64;

/// The Spectre v1 gadget workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpectreGadget {
    /// Length of the architecturally accessible array.
    pub size: usize,
    /// Out-of-bounds attack rounds; round `k` targets planted secret `k`.
    pub attacks: usize,
    /// Seed of the planted secret values.
    pub seed: u64,
}

impl SpectreGadget {
    /// A gadget over `size` elements with 8 attack rounds, default seed.
    pub fn new(size: usize) -> Self {
        SpectreGadget {
            size,
            attacks: 8,
            seed: 0x5bec_7e11,
        }
    }

    /// The public array contents: `a[i] = 2 * i + 1`, independent of the
    /// secret seed.
    pub fn array(&self) -> Vec<u32> {
        (0..self.size as u32).map(|i| 2 * i + 1).collect()
    }

    /// The planted secrets, one per attack round, living at indices
    /// `size..size + attacks` — adjacent to the array but architecturally
    /// unreachable through the bounds-checked gadget.
    pub fn secrets(&self) -> Vec<u32> {
        let mut rng = InputRng::new(self.seed);
        (0..self.attacks).map(|_| rng.next_u64() as u32).collect()
    }

    /// The gadget, written once for every surface. Every architectural
    /// access has a public address; each attack round's wrong path reads
    /// a planted secret and touches the probe line it selects — a
    /// secret-addressed fill, judged only by a surface that runs wrong
    /// paths. Returns the accumulated public sum.
    fn body<V: Value, S: TaintSink<V> + ?Sized>(&self, s: &mut S) -> Vec<V> {
        let n = self.size as u64;
        let attacks = self.attacks as u64;
        let arr = s.alloc((n + attacks) * 4);
        for (i, &v) in self.array().iter().enumerate() {
            s.poke(
                arr.offset(i as u64 * 4),
                Width::U32,
                &V::public(u64::from(v)),
            );
        }
        let planted: Vec<V> = self
            .secrets()
            .iter()
            .enumerate()
            .map(|(k, &v)| {
                let secret = s.secret(u64::from(v), format_args!("planted secret #{k}"));
                s.poke(arr.offset((n + k as u64) * 4), Width::U32, &secret);
                secret
            })
            .collect();
        let probe = s.alloc(PROBE_LINES * PROBE_STRIDE);

        let mut acc = V::public(0);
        for k in 0..attacks {
            // Mistrain: in-bounds calls, public indices. The wrong path of
            // a taken bounds check is the skip side — no accesses — so
            // even a seeded-cold predictor misprediction here opens an
            // empty window.
            for t in 0..TRAIN_CALLS as u64 {
                let idx = V::public((k * TRAIN_CALLS as u64 + t) % n);
                s.spec_branch(GADGET_SITE, true, &mut |_| {});
                s.exec(GADGET_INSTS);
                let v = s.load(
                    &elem_addr(arr, &idx, 4),
                    Width::U32,
                    "in-bounds training load",
                );
                acc = acc.add(&v);
            }
            // Attack: a public out-of-bounds index. Architecturally the
            // check fails and nothing is accessed; transiently the
            // in-bounds body runs against the planted secret.
            let oob = elem_addr(arr, &V::public(n + k), 4);
            let secret = &planted[k as usize];
            s.spec_branch(GADGET_SITE, false, &mut |s| {
                let v = s.load(&oob, Width::U32, "transient out-of-bounds read");
                // The transient read returns planted secret `k`: its bits
                // come from memory, its provenance names the input.
                let line = V::lift([secret, &v], |[_, v]| {
                    (v & 0xffff_ffff & (PROBE_LINES - 1)) * PROBE_STRIDE
                });
                let _ = s.load(
                    &V::public(probe.raw()).add(&line),
                    Width::U32,
                    "transient secret-indexed probe",
                );
            });
            s.exec(GADGET_INSTS);
        }
        vec![acc]
    }

    /// Runs the gadget; returns the accumulated public sum plus the
    /// measured counters. The configured strategy is irrelevant — every
    /// architectural access already has a public address — which is the
    /// point: this workload is constant-time in the paper's threat model
    /// and leaky in the speculative one.
    ///
    /// # Panics
    ///
    /// Panics if the machine lacks RAM.
    pub fn run_full(&self, m: &mut Machine, strategy: Strategy) -> (u64, Counters) {
        let (acc, counters) = measure(m, strategy, |s| self.body(s));
        (acc[0], counters)
    }
}

impl Workload for SpectreGadget {
    fn name(&self) -> String {
        format!("spectre_{}", size_label(self.size))
    }

    fn run(&self, m: &mut Machine, strategy: Strategy) -> Run {
        let (acc, counters) = self.run_full(m, strategy);
        Run {
            digest: digest_u64([acc]),
            counters,
        }
    }

    fn run_tainted(&self, s: &mut dyn TaintSink<Tv>) -> Vec<Tv> {
        self.body(s)
    }

    fn reference(&self) -> Vec<u64> {
        let data = self.array();
        let n = self.size as u64;
        let train = TRAIN_CALLS as u64;
        let acc = (0..self.attacks as u64 * train)
            .map(|i| u64::from(data[(i % n) as usize]))
            .fold(0u64, u64::wrapping_add);
        vec![acc]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ctbia_machine::MachineConfig;

    fn machine(window: u32) -> Machine {
        let mut cfg = MachineConfig::insecure();
        cfg.spec_window = window;
        Machine::new(cfg).unwrap()
    }

    fn observe(seed: u64, window: u32) -> ctbia_machine::ObsTrace {
        let wl = SpectreGadget {
            seed,
            ..SpectreGadget::new(256)
        };
        let mut m = machine(window);
        m.enable_observation();
        let _ = wl.run_full(&mut m, Strategy::Insecure);
        m.take_observation()
    }

    #[test]
    fn architectural_trace_is_secret_independent() {
        let a = observe(1, 0);
        let b = observe(2, 0);
        assert!(
            a.first_divergence(&b).is_none(),
            "without speculation the gadget must be constant-time"
        );
        assert!(a.spec.is_empty(), "no wrong path without a window");
    }

    #[test]
    fn wrong_path_fills_leak_the_secret() {
        let a = observe(1, 32);
        let b = observe(2, 32);
        assert!(!a.spec.is_empty(), "attacks must open speculation windows");
        let diff = a.first_divergence(&b);
        assert!(
            diff.as_ref().is_some_and(|d| d.contains("wrong-path")),
            "the divergence must be in the speculative channel, got {diff:?}"
        );
    }

    #[test]
    fn output_is_identical_with_and_without_speculation() {
        let wl = SpectreGadget::new(256);
        let mut m0 = machine(0);
        let mut m32 = machine(32);
        let (a, _) = wl.run_full(&mut m0, Strategy::Insecure);
        let (b, c32) = wl.run_full(&mut m32, Strategy::Insecure);
        assert_eq!(a, b, "squash must preserve architectural results");
        // Every attack mispredicts; a seeded-cold predictor may also
        // mispredict (with an empty window) during the first trainings.
        assert!(c32.spec.mispredicts >= wl.attacks as u64);
        assert_eq!(c32.spec.squashes, c32.spec.mispredicts);
        // Exactly the attack windows issue accesses: secret + probe.
        assert_eq!(c32.spec.wrong_path_accesses, 2 * wl.attacks as u64);
    }

    #[test]
    fn name_has_the_size_suffix() {
        assert_eq!(SpectreGadget::new(2000).name(), "spectre_2k");
    }
}
