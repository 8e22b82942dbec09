//! `ctbia-perfbench` — the repository benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload sweep|spill|serve|certify --seed N --seconds S --trace 0|1
//! ```
//!
//! One run sets the workload up several times (reporting the median as
//! `setup_s`), measures it for `--seconds`, checks every output, prints a
//! human-readable table and one record line (`ctbia-perfbench-run-v1`,
//! stamped with the run's identity) on stdout, and ends stdout with the
//! result line: `{"correct", "attempted", "failed", "metrics"}`. With
//! `--trace 0` the result carries the end-to-end metrics; with `--trace 1`
//! the run alternates untraced and traced work through the window, probes
//! every layer, prints the traced-run document (`ctbia-perfbench-trace-v1`, see
//! `README.md`) and the result carries the per-layer metrics.
//!
//! A wrong output counts in `failed` and makes the command exit non-zero.
//! All scratch files live under `.bench_scratch/` in the working directory
//! and are removed when the run ends.

mod certify;
mod grid;
mod probes;
mod record;
mod replay;
mod serve;
mod span;
mod stats;

use record::{json_str, metrics_json, Check, Identity, Metrics, END_TO_END, PER_LAYER};
use replay::CellReplay;
use span::{summarise, Span};
use std::collections::BTreeSet;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::atomic::{AtomicU32, Ordering};

/// Fewest set-ups per run; `setup_s` is the median of all of them.
const SETUPS_MIN: usize = 3;
/// Most set-ups per run.
const SETUPS_MAX: usize = 25;
/// Set-ups repeat until they cover this many seconds (or hit the cap),
/// so a cheap set-up is sampled often enough for a steady median.
const SETUP_MIN_S: f64 = 1.0;

/// Whether the set-up durations gathered so far are enough.
pub fn enough_setups(seconds: &[f64]) -> bool {
    seconds.len() >= SETUPS_MAX
        || (seconds.len() >= SETUPS_MIN && seconds.iter().sum::<f64>() >= SETUP_MIN_S)
}

/// Workers of every timed grid pass (`sweep`, `spill`, `certify`). One:
/// on the shared two-vCPU host the benchmark was built on, passes on every
/// core spread their rate by about 30% between runs. A multi-worker pass
/// also spawns fresh worker threads, whose per-thread machine pools start
/// empty every pass; a single worker keeps one warm pool.
pub const GRID_WORKERS: usize = 1;

/// Everything one run of a workload needs.
#[derive(Debug)]
pub struct RunCfg {
    /// Input seed.
    pub seed: u64,
    /// Measurement window, seconds.
    pub seconds: f64,
    /// Whether this is the traced run.
    pub traced: bool,
    /// The host's parallelism: client connections and server workers of
    /// `serve`, and the workers of untimed reference runs.
    pub threads: usize,
    /// Scratch space inside the working directory.
    pub scratch: Scratch,
}

/// A per-run scratch directory, `.bench_scratch/<workload>-<pid>`,
/// removed with everything in it when dropped.
#[derive(Debug)]
pub struct Scratch {
    root: PathBuf,
    next: AtomicU32,
}

impl Scratch {
    fn new(workload: &str) -> Result<Scratch, String> {
        let root = Path::new(".bench_scratch").join(format!("{workload}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        std::fs::create_dir_all(&root).map_err(|e| format!("scratch {}: {e}", root.display()))?;
        Ok(Scratch {
            root,
            next: AtomicU32::new(0),
        })
    }

    /// A path for a new scratch entry; nothing is created.
    pub fn fresh(&self, tag: &str) -> PathBuf {
        // Relaxed: the counter only has to hand out distinct names.
        let k = self.next.fetch_add(1, Ordering::Relaxed);
        self.root.join(format!("{tag}-{k}"))
    }

    /// Removes a scratch directory (best effort: the whole root goes at
    /// the end of the run anyway).
    pub fn remove(&self, dir: &Path) {
        let _ = std::fs::remove_dir_all(dir);
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.root);
        // Leaves `.bench_scratch` itself only if another run still uses it.
        let _ = std::fs::remove_dir(Path::new(".bench_scratch"));
    }
}

/// What a workload run measured and checked.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Every metric, end-to-end and (traced runs) per-layer.
    pub metrics: Metrics,
    /// Output checks.
    pub check: Check,
    /// Digest of the generated inputs.
    pub schedule_digest: String,
    /// Digest over the reports the run checked, in input order.
    pub output_digest: String,
    /// The cells the workload simulates (for the identity stamp).
    pub cells: Vec<ctbia_harness::CellSpec>,
    /// Traced runs: the per-cell layer replays.
    pub replays: Vec<CellReplay>,
    /// Traced runs: every span recorded.
    pub spans: Vec<Span>,
}

/// Pins glibc's mmap threshold as `ctbia` does at start-up, so the
/// simulator's large per-machine arrays keep coming from `mmap` and every
/// number here is measured in the allocator regime CLI users run in.
fn pin_malloc_mmap_threshold() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        // `mallopt(M_MMAP_THRESHOLD, ...)`; the constant is stable glibc ABI.
        const M_MMAP_THRESHOLD: i32 = -3;
        extern "C" {
            fn mallopt(param: i32, value: i32) -> i32;
        }
        // SAFETY: `mallopt` only adjusts allocator tuning parameters; it
        // is called before this program allocates from other threads, with
        // a documented parameter and an in-range value.
        unsafe {
            mallopt(M_MMAP_THRESHOLD, 128 * 1024);
        }
    }
}

#[derive(Debug, Clone, PartialEq, Eq)]
struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag} expects a whole number, got '{value}'"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?.max(1)),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace expects 0 or 1, got '{value}'")),
                })
            }
            other => return Err(format!("unexpected argument '{other}'")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

fn git_rev() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// Peak resident set of this process, MB (`VmHWM`).
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// The identity stamp of a finished run.
fn identity(args: &Args, threads: usize, out: &Outcome) -> Identity {
    let mut hierarchies = BTreeSet::new();
    let mut costs = BTreeSet::new();
    for c in &out.cells {
        let h = &c.config.hierarchy;
        let level = |l: &ctbia_sim::config::CacheConfig| {
            format!(
                "{} {}KiB/{}w/{}c/{}",
                l.name,
                l.size_bytes / 1024,
                l.associativity,
                l.hit_latency,
                l.replacement
            )
        };
        hierarchies.insert(format!(
            "{}; {}; {}; DRAM {}c; {}",
            level(&h.l1d),
            level(&h.l2),
            level(&h.llc),
            h.dram.latency,
            h.inclusion
        ));
        costs.insert(if c.config.cost == ctbia_machine::CostModel::o3_approx() {
            "o3_approx"
        } else {
            "default"
        });
    }
    Identity {
        git_rev: git_rev(),
        nproc: threads,
        seed: args.seed,
        schedule_digest: out.schedule_digest.clone(),
        hierarchy: hierarchies.into_iter().collect::<Vec<_>>().join(" | "),
        cost_model: costs.into_iter().collect::<Vec<_>>().join("+"),
        output_digest: out.output_digest.clone(),
    }
}

fn print_table(workload: &str, metrics: &Metrics) {
    println!("{workload}:");
    for m in &metrics.0 {
        let samples = m.samples.map_or(String::new(), |n| format!("  (n={n})"));
        println!("  {:<34} {:>16.6} {:<6}{samples}", m.name, m.value, m.unit);
    }
}

/// The traced-run document: identity, every metric, the per-cell replay
/// reconciliation and the span summary, on one line.
fn trace_doc(workload: &str, id: &Identity, out: &Outcome) -> String {
    let replays: Vec<String> = out
        .replays
        .iter()
        .map(|r| {
            let t = &r.times;
            let b = &r.breakdown;
            format!(
                "{{\"cell\": {}, \"accesses\": {}, \"cell_ns\": {}, \"capture_ns\": {}, \
                 \"trace_record_ns\": {}, \"cache_ns\": {}, \"hierarchy_ns\": {}, \
                 \"bia_monitor_ns\": {}, \"residual_ns\": {}, \"sum_ns\": {}, \"err\": {}}}",
                json_str(&r.label),
                t.accesses,
                record::json_num(t.cell),
                record::json_num(t.capture),
                record::json_num(t.trace_record),
                record::json_num(t.cache),
                record::json_num(b.hierarchy),
                record::json_num(b.bia_monitor),
                record::json_num(b.residual),
                record::json_num(b.sum),
                record::json_num(b.err),
            )
        })
        .collect();
    let spans: Vec<String> = summarise(&out.spans)
        .iter()
        .map(|s| {
            format!(
                "{{\"name\": {}, \"count\": {}, \"total_s\": {}, \"self_s\": {}}}",
                json_str(s.name),
                s.count,
                record::json_num(s.total_s),
                record::json_num(s.self_s)
            )
        })
        .collect();
    format!(
        "{{\"schema\": \"ctbia-perfbench-trace-v1\", \"workload\": {}, \"identity\": {}, \
         \"metrics\": {}, \"replay\": [{}], \"spans\": [{}]}}",
        json_str(workload),
        id.to_json(),
        metrics_json(&out.metrics.0, true),
        replays.join(", "),
        spans.join(", "),
    )
}

fn run(args: &Args) -> Result<bool, String> {
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    let cfg = RunCfg {
        seed: args.seed,
        seconds: args.seconds as f64,
        traced: args.trace,
        threads,
        scratch: Scratch::new(&args.workload)?,
    };
    let mut out = match args.workload.as_str() {
        "sweep" => grid::run(&grid::sweep(args.seed), &cfg)?,
        "spill" => grid::run(&grid::spill(args.seed), &cfg)?,
        "serve" => serve::run(&cfg)?,
        "certify" => certify::run(&cfg)?,
        other => {
            return Err(format!(
                "unknown workload '{other}' (sweep, spill, serve or certify)"
            ))
        }
    };
    drop(cfg);
    out.metrics.push("fail_frac", out.check.fail_frac(), "frac");
    if let Some(mb) = peak_rss_mb() {
        out.metrics.push("peak_rss_mb", mb, "MB");
    }
    for note in &out.check.notes {
        eprintln!("check failed: {note}");
    }
    let id = identity(args, threads, &out);
    print_table(&args.workload, &out.metrics);
    println!(
        "{{\"schema\": \"ctbia-perfbench-run-v1\", \"workload\": {}, \"traced\": {}, \
         \"identity\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        json_str(&args.workload),
        args.trace,
        id.to_json(),
        out.check.attempted,
        out.check.failed,
        metrics_json(&out.metrics.0, true),
    );
    if args.trace {
        println!("{}", trace_doc(&args.workload, &id, &out));
    }
    let listed = if args.trace { PER_LAYER } else { END_TO_END };
    let mut selected = Vec::new();
    for &(name, unit) in listed {
        let m = out
            .metrics
            .get(name)
            .ok_or_else(|| format!("metric {name} was not measured"))?;
        if m.unit != unit {
            return Err(format!(
                "metric {name} was measured in {}, BENCHMARK.json lists {unit}",
                m.unit
            ));
        }
        selected.push(m);
    }
    let correct = out.check.failed == 0;
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        out.check.attempted.max(1),
        out.check.failed,
        metrics_json(selected, false),
    );
    Ok(correct)
}

fn main() -> ExitCode {
    pin_malloc_mmap_threshold();
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let result = parse_args(&argv).and_then(|args| run(&args));
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => {
            eprintln!("error: some outputs were wrong (see `check failed` above)");
            ExitCode::FAILURE
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn parses_the_driver_arguments() {
        let a = parse_args(&argv("--workload sweep --seed 3 --seconds 10 --trace 1")).unwrap();
        assert_eq!(
            a,
            Args {
                workload: "sweep".into(),
                seed: 3,
                seconds: 10,
                trace: true
            }
        );
        assert!(parse_args(&argv("--workload sweep --seed x --seconds 1")).is_err());
        assert!(parse_args(&argv("--workload sweep --seed 1 --seconds 1 --trace 2")).is_err());
        assert!(parse_args(&argv("--seed 1 --seconds 1")).is_err());
        assert!(parse_args(&argv("--workload sweep --seed")).is_err());
    }
}
