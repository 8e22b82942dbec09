//! Sanitizer checks over the workload kernels themselves: [`taint_check`]
//! runs each kernel's one body (the body the measured run executes), so
//! these tests judge the real programs, not copies of them. The test
//! names keep the word "mirror" from when the sanitizer ran hand-written
//! `Tv` copies of the kernels.

use crate::mem::taint_check;

#[cfg(test)]
mod tests {
    use super::*;
    use ctbia_harness::{CryptoKernel, WorkloadSpec};
    use ctbia_machine::{BiaPlacement, Machine};
    use ctbia_workloads::Strategy;

    fn machine_for(strategy: Strategy) -> Machine {
        if strategy.needs_bia() {
            Machine::with_bia(BiaPlacement::L1d)
        } else {
            Machine::insecure()
        }
    }

    /// Every constant-time strategy runs every Ghostrider and crypto
    /// kernel without a violation and with reference-correct outputs.
    #[test]
    fn ct_mirrors_are_clean_and_correct() {
        let specs = [
            WorkloadSpec::named("bin", 300).unwrap(),
            WorkloadSpec::named("hist", 200).unwrap(),
            WorkloadSpec::named("perm", 200).unwrap(),
            WorkloadSpec::named("heap", 200).unwrap(),
            WorkloadSpec::named("dij", 16).unwrap(),
        ];
        for strategy in [
            Strategy::software_ct(),
            Strategy::bia(),
            Strategy::bia_loads(),
        ] {
            let crypto = CryptoKernel::ALL.map(WorkloadSpec::Crypto);
            for spec in specs.iter().chain(&crypto) {
                let outcome = taint_check(&mut machine_for(strategy), spec, strategy);
                assert!(outcome.outputs_ok, "{spec:?}/{strategy}: wrong outputs");
                assert!(
                    outcome.violations.is_empty(),
                    "{spec:?}/{strategy}: {}",
                    outcome.violations[0]
                );
            }
        }
    }

    /// `taint_check` runs every workload spec — the Table-2 kernels, the
    /// leaky and Spectre demonstrations and every crypto kernel — and
    /// each run's outputs match the plain-Rust reference, the insecure
    /// strategy included.
    #[test]
    fn dispatcher_covers_every_mirrored_spec() {
        let specs = [
            WorkloadSpec::named("bin", 200).unwrap(),
            WorkloadSpec::named("hist", 150).unwrap(),
            WorkloadSpec::named("perm", 150).unwrap(),
            WorkloadSpec::named("heap", 150).unwrap(),
            WorkloadSpec::named("dij", 12).unwrap(),
            WorkloadSpec::named("leaky-bin", 200).unwrap(),
            WorkloadSpec::named("spectre", 200).unwrap(),
        ];
        let crypto = CryptoKernel::ALL.map(WorkloadSpec::Crypto);
        for spec in specs.iter().chain(&crypto) {
            for strategy in [Strategy::Insecure, Strategy::software_ct()] {
                let mut m = Machine::insecure();
                let outcome = taint_check(&mut m, spec, strategy);
                assert!(outcome.outputs_ok, "{spec:?}/{strategy}");
            }
        }
    }
}
