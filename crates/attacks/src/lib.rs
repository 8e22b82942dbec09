//! # ctbia-attacks — attacker models and leakage analysis
//!
//! The three classic cache attackers of §2.1 plus the paper's own
//! distinguishability methodology:
//!
//! * [`prime_probe`] — the paper's Algorithm 1: prime every set of a
//!   shared cache, let the victim run, time per-set probes
//!   (set-granular, no shared memory needed).
//! * [`flush_reload`] — flush shared lines, reload and time them
//!   (line-granular, needs read-only shared memory).
//! * [`evict_time`] — evict one set, time the victim end to end
//!   (coarsest; only needs a stopwatch).
//! * [`distinguish`] — the §7.4 methodology: per-set demand access counts
//!   (Figure 10), full demand traces, and an empirical leakage metric in
//!   bits, compared across random secrets.
//!
//! Against the insecure baseline each attacker recovers where a
//! secret-indexed access landed; against the software-CT and BIA
//! mitigations every observation is secret-independent.
//!
//! ```
//! use ctbia_attacks::{PrimeProbe, set_access_profiles, compare_profiles};
//! use ctbia_core::ctmem::CtMemoryExt;
//! use ctbia_machine::Machine;
//! use ctbia_sim::hierarchy::Level;
//!
//! // An insecure victim that reads a secret-indexed element.
//! let profiles = set_access_profiles(
//!     Machine::insecure,
//!     |m, secret| {
//!         let a = m.alloc_u32_array(64).unwrap();
//!         let _ = m.load_u32(a.offset(secret * 4));
//!     },
//!     &[3, 60],
//!     Level::L1d,
//! );
//! assert!(!compare_profiles(&profiles).identical); // it leaks
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod distinguish;
pub mod evict_time;
pub mod flush_reload;
pub mod prime_probe;

pub use distinguish::{
    compare_profiles, demand_traces, empirical_leakage_bits, set_access_profiles,
    Distinguishability,
};
pub use evict_time::EvictTime;
pub use flush_reload::FlushReload;
pub use prime_probe::PrimeProbe;
