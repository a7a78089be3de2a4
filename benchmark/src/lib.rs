//! # mutiny-benchmark — the repo's ruler
//!
//! Four campaign workloads, five bounded end-to-end metrics and the
//! per-layer probes behind them, all timed from outside the product
//! crates through their public functions. `BENCHMARK.json` at the
//! repository root names the one command; `README.md` next to this crate
//! says what each workload and metric is for.

pub mod json;
pub mod metrics;
pub mod probes;
pub mod report;
pub mod run;
pub mod runset;
pub mod spans;
pub mod stamp;
pub mod stats;
pub mod traced;
pub mod workloads;

/// Removes every `MUTINY_*` variable from this process's environment.
/// Five product crates read such knobs (some through `OnceLock`s); the
/// benchmark pins engine, thread count and fork mode through arguments
/// instead, so a stray variable in the caller's shell cannot change what
/// is measured. Call first thing in `main`, before any thread exists.
pub fn scrub_environment() {
    let stray: Vec<_> = std::env::vars_os()
        .map(|(name, _)| name)
        .filter(|name| name.to_string_lossy().starts_with("MUTINY_"))
        .collect();
    for name in stray {
        std::env::remove_var(name);
    }
}
