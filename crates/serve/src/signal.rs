//! Minimal SIGTERM/SIGINT latching for the `ctbia serve` CLI.
//!
//! The workspace takes no external dependencies, so instead of the `libc`
//! crate this module declares the one C function it needs. The handler is
//! async-signal-safe by construction: it performs a single atomic store.
//! The CLI polls [`termination_requested`] and turns it into the same
//! graceful drain an in-process `ServerHandle::shutdown` performs.

use std::sync::atomic::{AtomicBool, Ordering};

static TERMINATED: AtomicBool = AtomicBool::new(false);

#[allow(unsafe_code)]
mod ffi {
    use std::os::raw::c_int;

    pub const SIGINT: c_int = 2;
    pub const SIGTERM: c_int = 15;

    extern "C" {
        // POSIX `signal(2)`; the returned previous handler is ignored.
        fn signal(signum: c_int, handler: extern "C" fn(c_int)) -> usize;
    }

    pub extern "C" fn on_signal(_signum: c_int) {
        super::TERMINATED.store(true, std::sync::atomic::Ordering::Release);
    }

    pub fn install(signum: c_int) {
        // SAFETY: `on_signal` only performs an atomic store, which is
        // async-signal-safe; `signal` itself has no memory-safety
        // preconditions.
        unsafe {
            signal(signum, on_signal);
        }
    }
}

/// Installs the SIGTERM/SIGINT latch. Call once before serving.
pub fn install_termination_handler() {
    ffi::install(ffi::SIGTERM);
    ffi::install(ffi::SIGINT);
}

/// Whether a termination signal has arrived since
/// [`install_termination_handler`].
pub fn termination_requested() -> bool {
    TERMINATED.load(Ordering::Acquire)
}
