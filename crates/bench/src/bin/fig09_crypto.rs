//! Regenerates **Figure 9** — execution-time overhead of L1d BIA and
//! software CT on the eight crypto kernels.
//!
//! ```text
//! cargo run -p ctbia-bench --release --bin fig09_crypto
//! ```
//!
//! The kernel × strategy grid runs on the shared sweep engine (parallel,
//! memoized under `results/cache/`).

use ctbia_bench::{eval_cell, figure_engine, report_overhead};
use ctbia_harness::{CryptoKernel, StrategySpec, WorkloadSpec};
use ctbia_machine::BiaPlacement;

fn main() {
    let mut grid = Vec::with_capacity(CryptoKernel::ALL.len() * 3);
    for kernel in CryptoKernel::ALL {
        let wl = WorkloadSpec::Crypto(kernel);
        grid.push(eval_cell(wl, StrategySpec::Insecure, BiaPlacement::L1d));
        grid.push(eval_cell(wl, StrategySpec::Bia, BiaPlacement::L1d));
        grid.push(eval_cell(wl, StrategySpec::CtAvx2, BiaPlacement::L1d));
    }
    let reports = figure_engine().run(&grid).expect("figure 9 grid is valid");

    println!("Figure 9: crypto libraries — exec. time overhead vs insecure");
    println!("{:<10} {:>8} {:>8}", "kernel", "L1d", "CT");
    for (chunk, kernel) in reports.chunks_exact(3).zip(CryptoKernel::ALL) {
        println!(
            "{:<10} {:>8.2} {:>8.2}",
            WorkloadSpec::Crypto(kernel).name(),
            report_overhead(&chunk[1], &chunk[0]),
            report_overhead(&chunk[2], &chunk[0])
        );
    }
    println!("\nSmall dataflow sets favour plain CT (AES &c.); Blowfish's expensive");
    println!("data-dependent key schedule amortizes the BIA pre/post-processing (§7.3.3).");
}
