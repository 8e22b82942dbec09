//! # ctbia-workloads — benchmark kernels for the ctbia reproduction
//!
//! The programs the paper evaluates, each written **once** as a generic
//! body over the [`TaintSink`](ctbia_core::sink::TaintSink) surface. The
//! body runs measured on a machine under a [`Strategy`] (through
//! [`MachineSink`]), and the same body runs under `ctbia-verify`'s taint
//! sanitizer and `ctbia-analyze`'s static recorder:
//!
//! * The five Ghostrider programs of Table 2 (Figures 7a–7e):
//!   [`Dijkstra`], [`Histogram`], [`Permutation`], [`BinarySearch`],
//!   [`HeapPop`].
//! * The eight crypto kernels of Figure 9 in [`crypto`]: AES, ARC2, ARC4,
//!   Blowfish, CAST, DES, DES3, XOR.
//!
//! Every workload has a plain-Rust reference implementation, and the test
//! suite checks that all strategies produce bit-identical outputs — the
//! paper's functionality requirement (§5.2).
//!
//! ```
//! use ctbia_workloads::{Histogram, Strategy, Workload};
//! use ctbia_machine::{BiaPlacement, Machine};
//!
//! let wl = Histogram::new(200);
//! let mut insecure = Machine::insecure();
//! let mut protected = Machine::with_bia(BiaPlacement::L1d);
//! let a = wl.run(&mut insecure, Strategy::Insecure);
//! let b = wl.run(&mut protected, Strategy::bia());
//! assert_eq!(a.digest, b.digest);                   // same answer,
//! assert!(b.counters.cycles > a.counters.cycles);   // some protection cost
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod binary_search;
pub mod crypto;
pub mod describe;
pub mod dijkstra;
pub mod heappop;
pub mod histogram;
pub mod leaky;
pub mod permutation;
pub mod run;
pub mod spectre;
pub mod strategy;

pub use binary_search::BinarySearch;
pub use describe::{BenchmarkInfo, TABLE2};
pub use dijkstra::Dijkstra;
pub use heappop::HeapPop;
pub use histogram::Histogram;
pub use leaky::LeakyBinarySearch;
pub use permutation::Permutation;
pub use run::{digest_u64, measure, size_label, InputRng, MachineSink, Run, Workload};
pub use spectre::SpectreGadget;
pub use strategy::Strategy;
