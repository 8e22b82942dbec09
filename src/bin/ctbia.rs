//! `ctbia` — command-line front end to the simulator.
//!
//! ```text
//! ctbia config                          # print the simulated system (Table 1)
//! ctbia list                            # list workloads and strategies
//! ctbia run hist 2000 --strategy bia --placement l1d
//! ctbia compare hist 2000               # all strategies side by side
//! ctbia attack [SECRET]                 # Prime+Probe demo
//! ctbia leakage hist 1000               # leakage in bits, per strategy
//! ```
//!
//! Argument parsing is deliberately hand-rolled (no CLI dependency). The
//! experiment subcommands (`run`, `compare`) are veneers
//! over the [`ctbia::harness`] sweep engine: each describes its work as a
//! grid of [`CellSpec`]s, so results are memoized under `results/cache/`
//! and independent cells simulate in parallel.

use ctbia::analyze::{analyze_grid, AnalyzeCell, AnalyzeEngine, AnalyzeReport};
use ctbia::attacks::{empirical_leakage_bits, set_access_profiles, PrimeProbe};
use ctbia::core::ctmem::Width;
use ctbia::core::ds::DataflowSet;
use ctbia::core::taint::LeakViolation;
use ctbia::harness::{
    counter_fields, execute_cell_traced, CellReport, CellSpec, DiskCache, GridCell, GridEngine,
    StrategySpec, SweepEngine, WorkloadSpec,
};
use ctbia::machine::{BiaPlacement, Machine};
use ctbia::serve::{
    self, submit_with_retry_to, ChaosSpec, Client, Response, RetryPolicy, ServeTarget,
    ServerConfig, SubmitRequest, TenantSpec,
};
use ctbia::sim::hierarchy::Level;
use ctbia::trace::{JsonlSink, MetricsDoc, MetricsSink, Phase, TeeSink};
use ctbia::verify::table::{grid_row, grid_summary};
use ctbia::verify::{verify_grid, verify_seeds, VerifyCell, VerifyEngine, VerifyReport};
use ctbia::workloads::Strategy;
use std::collections::HashMap;
use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "\
ctbia — Hardware Support for Constant-Time Programming (MICRO '23), simulated

USAGE:
    ctbia config
    ctbia list
    ctbia run <WORKLOAD> [SIZE] [--strategy insecure|ct|ct-avx2|bia|bia-loads] [--placement l1d|l2|llc] [--spec-window N] [--stats] [--metrics]
    ctbia trace <WORKLOAD> [SIZE] [--strategy insecure|ct|ct-avx2|bia|bia-loads] [--placement l1d|l2|llc] [--spec-window N] [--jsonl PATH] [--top N]
    ctbia compare <WORKLOAD> [SIZE]
    ctbia attack [SECRET]
    ctbia leakage <WORKLOAD> [SIZE]
    ctbia verify [--quick] [--threads N]
    ctbia verify <WORKLOAD> [SIZE] [--strategy insecure|ct|bia|bia-loads] [--placement l1d|l2|llc] [--spec-window N]
    ctbia analyze [--quick] [--threads N]
    ctbia analyze <WORKLOAD> [SIZE] [--strategy insecure|ct|bia|bia-loads] [--placement l1d|l2|llc]
    ctbia serve [--socket PATH] [--tcp ADDR] [--tenant NAME:TOKEN[:INFLIGHT[:SHARE[:WEIGHT]]]]... [--threads N] [--max-inflight M] [--queue-limit Q] [--deadline-ms D] [--chaos SPEC] [--no-cache]
    ctbia submit [--socket PATH] [--tcp ADDR] [--token TOK] [--eval] [--retries N] [--backoff-ms B] [--deadline-ms D] <SPEC>...
    ctbia status [--socket PATH] [--tcp ADDR] [--metrics]
    ctbia health [--socket PATH] [--tcp ADDR]

WORKLOADS: dijkstra | histogram | permutation | binary-search | heappop
           (plus leaky-bin and spectre, intentionally leaky controls, for `verify`)

`ctbia verify` runs the taint sanitizer and the trace-equivalence oracle
over the canonical grid; with a workload argument it verifies one cell
and exits non-zero if the cell leaks. `ctbia analyze` statically
certifies cells without executing any secret: it extracts each
workload's access program symbolically, lints it against the strategy,
and bounds the leakage through an abstract cache — 0 bits certifies,
anything else exits non-zero with the violation's provenance. Completed
experiment, verify, and analyze cells are memoized under results/cache/
(safe to delete at any time).

`ctbia trace` re-runs one cell with the observability layer attached and
prints a cycle-attribution profile (per-phase cycles reconciled exactly
against the counters) plus the hottest cache lines; `--jsonl` captures
the full event stream. `--metrics` on run writes a versioned
ctbia-metrics-v1 document (RUN_metrics.json).
`--spec-window N` enables bounded speculation: every branch runs a
seeded 2-bit predictor, and a misprediction executes up to N wrong-path
accesses that fill the simulated caches before being squashed
architecturally (a Spectre-v1 transient channel; N=0, the default,
disables it). The `spectre` workload is an in-bounds/out-of-bounds
gadget whose architectural trace is secret-independent, so it passes
`verify` at window 0 and leaks through wrong-path fills at window > 0.

`ctbia serve` runs a long-lived batch-simulation daemon on a Unix domain
socket (newline-delimited ctbia-serve-v1 JSON envelopes) sharing one job
queue and the results/cache memo table across all clients, with
duplicate-cell coalescing and graceful drain on SIGTERM. Jobs execute
under panic isolation with poisoned workers respawned; --deadline-ms
bounds each job (per-submit --deadline-ms overrides it); --queue-limit
sheds load past the high-water mark with a typed `overloaded` error;
the memo cache self-heals from torn writes at startup; and --chaos
injects seeded faults (e.g. panic:2,stall:1,torn:1,io:1,stall-ms:500,
seed:42) for crash drills. --tcp adds a TCP listener speaking the same
envelopes (probe-then-reclaim binding: a dead daemon's TIME_WAIT port
is reclaimed, a live daemon's refused); --tenant (repeatable) switches
on auth — every submit then needs a matching token — with per-tenant
in-flight quotas, queue shares, and deficit-round-robin weights.
Completed cells are also kept in an in-memory index, so a warm submit
is answered without touching the disk. `ctbia submit` sends cells — SPEC is
WORKLOAD[:SIZE[:STRATEGY[:PLACEMENT]]], e.g. hist:2000:bia:l1d or
aes:-:insecure — retrying transient rejections when --retries is set
(exponential backoff from --backoff-ms); --tcp targets a TCP daemon and
--token authenticates against a tenanted one. `ctbia status [--metrics]`
queries counters (writing SERVE_metrics.json with --metrics) and
`ctbia health` the supervision snapshot (queue depth, workers alive,
restarts, deadline kills, shed submits, quarantined cache entries).
";

/// Where `ctbia serve` listens unless `--socket` overrides it.
const DEFAULT_SOCKET: &str = "results/ctbia.sock";

const POSITIVE: &str = "expects a positive integer";
const MILLISECONDS: &str = "expects an integer (milliseconds)";

fn parse_spec_window(s: &str) -> Result<u32, String> {
    s.parse()
        .map_err(|_| format!("invalid --spec-window '{s}' (expected a non-negative integer)"))
}

fn parse_size(s: &str) -> Result<usize, String> {
    let n: usize = s
        .parse()
        .map_err(|_| format!("invalid size '{s}' (expected a positive integer)"))?;
    if n == 0 {
        return Err(format!("invalid size '{s}' (must be at least 1)"));
    }
    Ok(n)
}

/// Parses the value after flag `args[*i]`, advancing `*i` to it; a value
/// that does not parse is reported as "FLAG `expects`".
fn flag_value<T: std::str::FromStr>(
    args: &[String],
    i: &mut usize,
    expects: &str,
) -> Result<T, String> {
    let flag = &args[*i];
    *i += 1;
    let value = args
        .get(*i)
        .ok_or_else(|| format!("{flag} needs a value"))?;
    value.parse().map_err(|_| format!("{flag} {expects}"))
}

/// Where the daemon listens, or where a client finds it: `--socket PATH`
/// (default [`DEFAULT_SOCKET`]) and `--tcp ADDR`.
#[derive(Default)]
struct TargetArgs {
    socket: Option<PathBuf>,
    tcp: Option<String>,
}

impl TargetArgs {
    /// Consumes `args[*i]` and its value if it is `--socket` or `--tcp`.
    fn take(&mut self, args: &[String], i: &mut usize) -> Result<bool, String> {
        match args[*i].as_str() {
            "--socket" => {
                *i += 1;
                self.socket = Some(args.get(*i).ok_or("--socket needs a value")?.into());
            }
            "--tcp" => {
                *i += 1;
                self.tcp = Some(args.get(*i).ok_or("--tcp needs an ADDR:PORT")?.clone());
            }
            _ => return Ok(false),
        }
        Ok(true)
    }

    fn target(self) -> ServeTarget {
        match self.tcp {
            Some(addr) => ServeTarget::Tcp(addr),
            None => ServeTarget::Unix(self.socket.unwrap_or_else(|| DEFAULT_SOCKET.into())),
        }
    }
}

/// One connection to `target`, or an error that says what to check.
fn connect(target: &ServeTarget) -> Result<Client, String> {
    target
        .connect()
        .map_err(|e| format!("cannot connect to {target}: {e} (is `ctbia serve` running?)"))
}

/// Attaches the default `results/cache/` memo cache; if the directory
/// cannot be created (read-only checkout, say) the engine simply runs
/// uncached.
fn attach_default_cache<C: GridCell>(engine: GridEngine<C>) -> GridEngine<C> {
    match DiskCache::open_default() {
        Ok(cache) => engine.with_cache(cache),
        Err(_) => engine,
    }
}

/// A grid engine with `threads` workers (default: one per core) and the
/// default memo cache attached.
fn grid_engine<C: GridCell>(threads: Option<usize>) -> GridEngine<C> {
    let engine = GridEngine::new();
    attach_default_cache(match threads {
        Some(n) => engine.with_threads(n),
        None => engine,
    })
}

/// The options that describe one cell, shared by `run`, `trace`,
/// `verify` and `analyze`: `[SIZE] [--strategy S] [--placement P]
/// [--spec-window N]`.
struct CellArgs {
    size: Option<usize>,
    strategy: StrategySpec,
    placement: BiaPlacement,
    spec_window: Option<u32>,
}

impl CellArgs {
    fn new(strategy: StrategySpec) -> Self {
        CellArgs {
            size: None,
            strategy,
            placement: BiaPlacement::L1d,
            spec_window: None,
        }
    }

    /// Consumes `args[*i]`, and the value after it, if it is one of the
    /// shared options; `false` leaves it to the caller.
    fn take(&mut self, args: &[String], i: &mut usize) -> Result<bool, String> {
        let flag = args[*i].as_str();
        let mut value = || {
            *i += 1;
            args.get(*i).ok_or_else(|| format!("{flag} needs a value"))
        };
        match flag {
            "--strategy" => self.strategy = StrategySpec::parse(value()?)?,
            "--placement" => self.placement = BiaPlacement::parse(value()?)?,
            "--spec-window" => self.spec_window = Some(parse_spec_window(value()?)?),
            v if self.size.is_none() && !v.starts_with('-') => self.size = Some(parse_size(v)?),
            _ => return Ok(false),
        }
        Ok(true)
    }

    /// The cell running workload `name`, at `default_size` unless a size
    /// was given.
    fn cell(&self, name: &str, default_size: usize) -> Result<CellSpec, String> {
        let size = self.size.unwrap_or(default_size);
        let mut spec = CellSpec::new(
            WorkloadSpec::named(name, size)?,
            self.strategy,
            self.placement,
        );
        if let Some(w) = self.spec_window {
            spec.config.spec_window = w;
        }
        Ok(spec)
    }
}

/// The arguments `ctbia verify` and `ctbia analyze` share.
struct VerdictArgs {
    quick: bool,
    threads: Option<usize>,
    /// The single cell to check, when a workload was named.
    cell: Option<CellSpec>,
}

/// Parses `[--quick] [--threads N] [WORKLOAD [SIZE]] [--strategy S]
/// [--placement P]`, plus `--spec-window W` (single-cell only) when
/// `spec_window_ok`.
fn parse_verdict_args(args: &[String], spec_window_ok: bool) -> Result<VerdictArgs, String> {
    let mut quick = false;
    let mut threads = None;
    let mut name = None;
    let mut opts = CellArgs::new(StrategySpec::Ct);
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--quick" => quick = true,
            "--threads" => {
                i += 1;
                let s = args.get(i).ok_or("--threads needs a value")?;
                threads = Some(
                    s.parse()
                        .ok()
                        .filter(|&n| n > 0)
                        .ok_or_else(|| format!("invalid thread count '{s}'"))?,
                );
            }
            "--spec-window" if !spec_window_ok => {
                return Err("unexpected argument '--spec-window'".into())
            }
            v if name.is_none() && !v.starts_with('-') => name = Some(v.to_string()),
            _ if opts.take(args, &mut i)? => {}
            other => return Err(format!("unexpected argument '{other}'")),
        }
        i += 1;
    }
    if opts.spec_window.is_some() && name.is_none() {
        return Err("--spec-window needs a workload (the grid fixes its own windows)".into());
    }
    let cell = name
        .map(|name| opts.cell(&name, WorkloadSpec::default_size(&name).min(500)))
        .transpose()?;
    Ok(VerdictArgs {
        quick,
        threads,
        cell,
    })
}

fn print_report(label: &str, report: &CellReport, baseline: Option<u64>) {
    let rel = baseline
        .map(|b| format!("  ({:.2}x)", report.counters.cycles as f64 / b as f64))
        .unwrap_or_default();
    println!(
        "{label:<10} {:>12} cycles  {:>11} insts  {:>10} L1d refs  {:>7} DRAM{rel}",
        report.counters.cycles,
        report.counters.insts,
        report.counters.l1d_refs(),
        report.counters.dram_accesses(),
    );
}

/// Serializes `doc`, verifies the writer/parser round-trip byte-for-byte,
/// then writes `path`. A round-trip failure is a bug, not an I/O problem.
fn write_metrics_doc(path: &str, doc: &MetricsDoc) -> Result<(), String> {
    let json = doc.to_json();
    let parsed = MetricsDoc::parse(&json)
        .map_err(|e| format!("{path}: metrics round-trip self-check failed: {e}"))?;
    if parsed.to_json() != json {
        return Err(format!("{path}: metrics round-trip is not byte-identical"));
    }
    std::fs::write(path, &json).map_err(|e| format!("cannot write {path}: {e}"))?;
    println!(
        "wrote {path} ({} fields, round-trip verified)",
        doc.fields.len()
    );
    Ok(())
}

fn cmd_run(args: &[String]) -> Result<(), String> {
    let name = args.first().ok_or("run: missing workload name")?;
    let mut opts = CellArgs::new(StrategySpec::Bia);
    let mut stats = false;
    let mut metrics = false;
    let mut i = 1;
    while i < args.len() {
        match args[i].as_str() {
            "--stats" => stats = true,
            "--metrics" => metrics = true,
            _ if opts.take(args, &mut i)? => {}
            other => return Err(format!("unexpected argument '{other}'")),
        }
        i += 1;
    }
    let spec = opts.cell(name, WorkloadSpec::default_size(name))?;
    let (strategy, placement) = (spec.strategy, spec.placement);
    let engine = attach_default_cache(SweepEngine::serial());
    let report = engine.run_cell(&spec)?;
    println!(
        "{} under {strategy} (BIA at {placement}):",
        spec.workload.name()
    );
    print_report(&strategy.to_string(), &report, None);
    if engine.cache_hits() > 0 {
        println!("(served from results/cache — delete the entry to re-simulate)");
    }
    if stats {
        println!("\n{}", ctbia::machine::format_report(&report.counters));
    }
    if metrics {
        let mut doc = MetricsDoc::new(&report.label);
        doc.push("digest", report.digest);
        for (key, value) in counter_fields(&report.counters) {
            doc.push(key, value);
        }
        write_metrics_doc("RUN_metrics.json", &doc)?;
    }
    Ok(())
}

/// `ctbia trace <WORKLOAD> [SIZE] [--jsonl PATH] [--top N]` — re-run one
/// cell with a tee of a JSONL capture and a metrics aggregator attached,
/// then print the cycle-attribution profile and hottest cache lines.
fn cmd_trace(args: &[String]) -> Result<(), String> {
    let name = args.first().ok_or("trace: missing workload name")?;
    let mut opts = CellArgs::new(StrategySpec::Bia);
    let mut jsonl_path: Option<String> = None;
    let mut top = 5usize;
    let mut i = 1;
    while i < args.len() {
        match args[i].as_str() {
            "--jsonl" => {
                i += 1;
                jsonl_path = Some(args.get(i).ok_or("--jsonl needs a path")?.clone());
            }
            "--top" => {
                i += 1;
                let s = args.get(i).ok_or("--top needs a value")?;
                top =
                    s.parse().ok().filter(|&n| n > 0).ok_or_else(|| {
                        format!("invalid --top '{s}' (expected a positive integer)")
                    })?;
            }
            _ if opts.take(args, &mut i)? => {}
            other => return Err(format!("unexpected argument '{other}'")),
        }
        i += 1;
    }
    let spec = opts.cell(name, WorkloadSpec::default_size(name))?;
    let sink = TeeSink::new(JsonlSink::new(), MetricsSink::new());
    let (report, sink) = execute_cell_traced(&spec, sink)?;
    let (jsonl, agg) = (sink.a, sink.b);
    let c = &report.counters;
    println!(
        "trace of {} ({} events, {} cycles):",
        report.label, agg.events, c.cycles
    );
    println!("  {:<18} {:>12}   {:>6}", "phase", "cycles", "share");
    for phase in Phase::ALL {
        let cycles = c.phases.get(phase);
        if cycles == 0 {
            continue;
        }
        println!(
            "  {:<18} {:>12}   {:>5.1}%",
            phase.name(),
            cycles,
            100.0 * cycles as f64 / c.cycles.max(1) as f64
        );
    }
    let total = c.phases.total();
    println!("  {:<18} {:>12}   {:>5.1}%", "total", total, 100.0);
    if total != c.cycles {
        return Err(format!(
            "phase totals ({total}) do not sum to cycles ({}) — attribution bug",
            c.cycles
        ));
    }
    if !c.linearize.is_zero() {
        println!("linearize: {}", c.linearize);
    }
    let hottest = agg.hottest_lines(top);
    if !hottest.is_empty() {
        println!(
            "hottest lines (top {} of {} distinct):",
            hottest.len(),
            agg.distinct_lines()
        );
        for (line, count) in hottest {
            println!("  line {line:#x}: {count} accesses");
        }
    }
    if let Some(path) = jsonl_path {
        std::fs::write(&path, jsonl.as_str()).map_err(|e| format!("cannot write {path}: {e}"))?;
        println!("wrote {path} ({} events)", jsonl.lines());
    }
    Ok(())
}

fn cmd_compare(args: &[String]) -> Result<(), String> {
    let name = args.first().ok_or("compare: missing workload name")?;
    let size = match args.get(1) {
        Some(s) => parse_size(s)?,
        None => WorkloadSpec::default_size(name),
    };
    let workload = WorkloadSpec::named(name, size)?;
    let lineup = [
        ("insecure", StrategySpec::Insecure, BiaPlacement::L1d),
        ("CT", StrategySpec::CtAvx2, BiaPlacement::L1d),
        ("BIA@L1d", StrategySpec::Bia, BiaPlacement::L1d),
        ("BIA@L2", StrategySpec::Bia, BiaPlacement::L2),
        ("BIA@LLC", StrategySpec::Bia, BiaPlacement::Llc),
    ];
    let grid: Vec<CellSpec> = lineup
        .iter()
        .map(|&(_, strategy, placement)| CellSpec::new(workload, strategy, placement))
        .collect();
    let engine = attach_default_cache(SweepEngine::new());
    let reports = engine.run(&grid)?;
    println!("{}:", workload.name());
    let base_cycles = reports[0].counters.cycles;
    let base_digest = reports[0].digest;
    for ((label, _, _), report) in lineup.iter().zip(&reports) {
        if report.digest != base_digest {
            return Err(format!("{label} produced a different result — bug"));
        }
        print_report(label, report, Some(base_cycles));
    }
    Ok(())
}

fn cmd_attack(args: &[String]) -> Result<(), String> {
    let secret: u64 = args.first().and_then(|s| s.parse().ok()).unwrap_or(421);
    if secret >= 1024 {
        return Err("secret must be < 1024 (4 KiB table of u32)".into());
    }
    println!("victim: one read of table[{secret}] (4 KiB table)\n");
    let run = |strategy: Strategy, bia: bool| {
        let mut m = if bia {
            Machine::with_bia(BiaPlacement::L1d)
        } else {
            Machine::insecure()
        };
        let table = m.alloc(4096, 4096).unwrap();
        let ds = DataflowSet::contiguous(table, 4096);
        let truth = m
            .hierarchy()
            .cache(Level::L1d)
            .set_index(table.offset(secret * 4).line());
        let pp = PrimeProbe::new(&mut m, Level::L1d).unwrap();
        let lat = pp.round(&mut m, |m| {
            let _ = strategy.load(m, &ds, table.offset(secret * 4), Width::U32);
        });
        (PrimeProbe::hottest_set(&lat), truth)
    };
    let (guess, truth) = run(Strategy::Insecure, false);
    println!(
        "insecure victim: true set {truth}, attacker guesses {guess} -> {}",
        if guess == truth {
            "RECOVERED"
        } else {
            "missed"
        }
    );
    let (guess, truth) = run(Strategy::bia(), true);
    println!(
        "BIA victim:      true set {truth}, attacker guesses {guess} -> {}",
        if guess == truth {
            "coincidence at best"
        } else {
            "defeated"
        }
    );
    Ok(())
}

fn cmd_leakage(args: &[String]) -> Result<(), String> {
    let name = args.first().ok_or("leakage: missing workload name")?;
    let size = match args.get(1) {
        Some(s) => parse_size(s)?,
        None => WorkloadSpec::default_size(name).min(500),
    };
    let spec = WorkloadSpec::named(name, size)?;
    let secrets: Vec<u64> = (0..8).map(|i| 1 + i * 97).collect();
    println!(
        "empirical leakage of {name}_{size} over {} random secrets:",
        secrets.len()
    );
    for (label, strategy, bia) in [
        ("insecure", Strategy::Insecure, false),
        ("CT", Strategy::software_ct(), false),
        ("BIA@L1d", Strategy::bia(), true),
    ] {
        let profiles = set_access_profiles(
            || {
                if bia {
                    Machine::with_bia(BiaPlacement::L1d)
                } else {
                    Machine::insecure()
                }
            },
            |m, seed| {
                let _ = spec.build_reseeded(seed).run(m, strategy);
            },
            &secrets,
            Level::L1d,
        );
        println!(
            "  {label:<10} {:>6.3} bits (of {:.0} max)",
            empirical_leakage_bits(&profiles),
            (secrets.len() as f64).log2()
        );
    }
    Ok(())
}

/// Prints up to three of a report's stored violations, then how many of
/// its exact `total` were never stored.
fn print_violations(sampled: &[LeakViolation], total: u64) {
    for v in sampled.iter().take(3) {
        // LeakViolation's Display already renders the provenance chain.
        println!("    {v}");
    }
    let stored = sampled.len() as u64;
    if total > stored {
        println!("    ... and {} more violation(s)", total - stored);
    }
}

/// Prints one verify verdict with its evidence: sampled violations with
/// their provenance chains, and the first trace divergence.
fn print_verify_evidence(report: &VerifyReport) {
    print_violations(&report.violations, report.leak_violations);
    if let Some(d) = &report.first_divergence {
        println!("    trace divergence: {d}");
    }
}

/// `ctbia verify [--quick] [--threads N]` — run both analyses over the
/// canonical grid; or `ctbia verify <WORKLOAD> [SIZE] [--strategy ..]
/// [--placement ..]` — verify a single cell, exiting non-zero if it
/// leaks.
fn cmd_verify(args: &[String]) -> Result<(), String> {
    let args = parse_verdict_args(args, true)?;
    if let Some(spec) = args.cell {
        // Single-target mode: verify one cell and report what it does.
        let cell = VerifyCell::new(spec, verify_seeds(args.quick));
        let engine = attach_default_cache(VerifyEngine::serial());
        let report = engine.run_cell(&cell)?;
        println!("{report}");
        if !report.clean() {
            print_verify_evidence(&report);
            return Err(format!("{} leaks", cell.label()));
        }
        println!("clean: no taint violations, traces identical across all secret pairs");
        return Ok(());
    }

    // Grid mode: the canonical coverage grid, leaky control included.
    let grid = verify_grid(args.quick);
    let seeds = verify_seeds(args.quick);
    let engine: VerifyEngine = grid_engine(args.threads);
    println!(
        "verify sweep: {} cells, {} secret pairs each, {} worker(s)",
        grid.len(),
        seeds.len() - 1,
        engine.threads()
    );
    let reports = engine.run(&grid)?;
    let mut failures = 0u64;
    for (cell, report) in grid.iter().zip(&reports) {
        let expect_leak = cell.expects_leak();
        let ok = report.passed(expect_leak);
        let verdict = match (ok, expect_leak) {
            (true, false) => "ok",
            (true, true) => "ok (leak caught, as intended)",
            (false, _) => "FAIL",
        };
        println!("{}", grid_row(&report.label, verdict));
        if expect_leak && ok {
            // Show the negative control's evidence: this is what a
            // caught leak looks like.
            print_verify_evidence(report);
        }
        if !ok {
            print_verify_evidence(report);
            failures += 1;
        }
    }
    println!(
        "{}",
        grid_summary(
            grid.len(),
            "verified",
            engine.cells_executed(),
            engine.cache_hits(),
            failures,
        )
    );
    if failures > 0 {
        return Err(format!("{failures} cell(s) failed verification"));
    }
    Ok(())
}

/// Prints one certification verdict's evidence: sampled violations with
/// their provenance chains and the abstract leakage bound.
fn print_analyze_evidence(report: &AnalyzeReport) {
    print_violations(&report.violations, report.violation_count);
    if report.trace_millibits > 0 {
        println!(
            "    abstract bound: <= {}.{:03} bit(s) through the monitored cache",
            report.trace_millibits / 1000,
            report.trace_millibits % 1000
        );
    }
}

/// `ctbia analyze [--quick] [--threads N]` — statically certify the
/// canonical grid; or `ctbia analyze <WORKLOAD> [SIZE] [--strategy ..]
/// [--placement ..]` — certify a single cell, exiting non-zero unless
/// the abstract bound is exactly 0 bits with no lint violations.
fn cmd_analyze(args: &[String]) -> Result<(), String> {
    let args = parse_verdict_args(args, false)?;
    if let Some(spec) = args.cell {
        // Single-target mode: certify one cell and report what it does.
        let cell = AnalyzeCell::new(spec);
        let engine = attach_default_cache(AnalyzeEngine::serial());
        let report = engine.run_cell(&cell)?;
        println!("{report}");
        if !report.certified() {
            print_analyze_evidence(&report);
            return Err(format!("{} is not constant-time", cell.label()));
        }
        return Ok(());
    }

    // Grid mode: the canonical certification grid, negative cells included.
    let grid = analyze_grid(args.quick);
    let engine: AnalyzeEngine = grid_engine(args.threads);
    println!(
        "analyze sweep: {} cells, {} worker(s)",
        grid.len(),
        engine.threads()
    );
    let reports = engine.run(&grid)?;
    let mut failures = 0u64;
    for (cell, report) in grid.iter().zip(&reports) {
        let expect_leak = cell.expects_leak();
        let ok = report.passed(expect_leak);
        let verdict = match (ok, expect_leak) {
            (true, false) => "certified",
            (true, true) => "ok (leak caught, as intended)",
            (false, _) => "FAIL",
        };
        println!("{}", grid_row(&report.label, verdict));
        if !ok {
            print_analyze_evidence(report);
            failures += 1;
        }
    }
    println!(
        "{}",
        grid_summary(
            grid.len(),
            "analyzed",
            engine.cells_executed(),
            engine.cache_hits(),
            failures,
        )
    );
    if failures > 0 {
        return Err(format!("{failures} cell(s) failed certification"));
    }
    Ok(())
}

/// `ctbia serve [--socket PATH] [--threads N] [--max-inflight M]
/// [--queue-limit Q] [--deadline-ms D] [--chaos SPEC] [--no-cache]` —
/// run the batch-simulation daemon until SIGTERM/SIGINT, then drain
/// in-flight jobs and print the final counter snapshot.
fn cmd_serve(args: &[String]) -> Result<(), String> {
    let mut config = ServerConfig::new(DEFAULT_SOCKET);
    let mut listen = TargetArgs::default();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            _ if listen.take(args, &mut i)? => {}
            "--tenant" => {
                i += 1;
                let spec = args.get(i).ok_or("--tenant needs NAME:TOKEN[:...]")?;
                config.tenants.push(TenantSpec::parse(spec)?);
            }
            "--threads" => config.threads = flag_value::<usize>(args, &mut i, POSITIVE)?.max(1),
            "--max-inflight" => {
                config.max_inflight = flag_value::<usize>(args, &mut i, POSITIVE)?.max(1);
            }
            "--queue-limit" => {
                config.queue_limit = flag_value::<usize>(args, &mut i, POSITIVE)?.max(1)
            }
            "--deadline-ms" => config.deadline_ms = Some(flag_value(args, &mut i, MILLISECONDS)?),
            "--chaos" => {
                i += 1;
                let spec = args.get(i).ok_or("--chaos needs a spec")?;
                config.chaos = Some(ChaosSpec::parse(spec).map_err(|e| e.to_string())?);
            }
            "--no-cache" => config.cache_dir = None,
            other => return Err(format!("unexpected argument '{other}'")),
        }
        i += 1;
    }
    config.socket = listen.socket.unwrap_or(config.socket);
    config.tcp = listen.tcp;
    if let Some(parent) = config.socket.parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent)
                .map_err(|e| format!("cannot create {}: {e}", parent.display()))?;
        }
    }
    serve::signal::install_termination_handler();
    let handle = serve::Server::start(config.clone())
        .map_err(|e| format!("cannot bind {}: {e}", config.socket.display()))?;
    println!(
        "serving on {} ({} worker threads, max {} in-flight per client, cache {})",
        config.socket.display(),
        config.threads,
        config.max_inflight,
        config
            .cache_dir
            .as_ref()
            .map_or("off".to_string(), |d| d.display().to_string()),
    );
    if let Some(addr) = handle.tcp_addr() {
        println!("tcp listening on {addr}");
    }
    if !config.tenants.is_empty() {
        println!(
            "tenants: {} (submits require a token)",
            config
                .tenants
                .iter()
                .map(|t| t.name.as_str())
                .collect::<Vec<_>>()
                .join(", ")
        );
    }
    if let Some(chaos) = &config.chaos {
        println!("chaos armed: {chaos}");
    }
    println!(
        "submit cells with `ctbia submit --socket {} <SPEC>...`; stop with SIGTERM.",
        config.socket.display()
    );
    while !serve::signal::termination_requested() {
        std::thread::sleep(std::time::Duration::from_millis(50));
    }
    println!("termination requested; draining in-flight jobs...");
    let snapshot = handle.join();
    println!("drained. final counters:");
    for (key, value) in snapshot.fields() {
        println!("  {key:<24} {value}");
    }
    Ok(())
}

/// Parses a submit spec `WORKLOAD[:SIZE[:STRATEGY[:PLACEMENT]]]`; `-` in
/// the size slot keeps the per-workload default.
fn parse_submit_spec(spec: &str, eval: bool) -> Result<SubmitRequest, String> {
    let mut parts = spec.split(':');
    let workload = parts
        .next()
        .filter(|w| !w.is_empty())
        .ok_or_else(|| format!("empty workload in spec '{spec}'"))?;
    let size = match parts.next() {
        None | Some("-") | Some("") => None,
        Some(s) => Some(parse_size(s)? as u64),
    };
    let strategy = parts.next().filter(|s| !s.is_empty()).map(str::to_string);
    let placement = parts.next().filter(|p| !p.is_empty()).map(str::to_string);
    if parts.next().is_some() {
        return Err(format!(
            "spec '{spec}' has too many fields (WORKLOAD[:SIZE[:STRATEGY[:PLACEMENT]]])"
        ));
    }
    Ok(SubmitRequest {
        workload: workload.to_string(),
        size,
        strategy,
        placement,
        eval,
        deadline_ms: None,
        token: None,
    })
}

/// `ctbia submit [--socket PATH] [--eval] [--retries N] [--backoff-ms B]
/// [--deadline-ms D] <SPEC>...` — send every spec to a running server,
/// then print one line per response. Without `--retries` the specs are
/// pipelined on one connection; with it each spec is submitted on its
/// own connection so transient rejections (backpressure, overloaded,
/// shutting-down, a daemon mid-restart) retry with exponential backoff.
fn cmd_submit(args: &[String]) -> Result<(), String> {
    let mut target = TargetArgs::default();
    let mut token: Option<String> = None;
    let mut eval = false;
    let mut policy = RetryPolicy::default();
    let mut deadline_ms: Option<u64> = None;
    let mut specs: Vec<String> = Vec::new();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            _ if target.take(args, &mut i)? => {}
            "--token" => {
                i += 1;
                token = Some(args.get(i).ok_or("--token needs a value")?.to_string());
            }
            "--eval" => eval = true,
            "--retries" => policy.retries = flag_value(args, &mut i, "expects an integer")?,
            "--backoff-ms" => {
                policy.backoff_ms = flag_value::<u64>(args, &mut i, MILLISECONDS)?.max(1);
            }
            "--deadline-ms" => deadline_ms = Some(flag_value(args, &mut i, MILLISECONDS)?),
            flag if flag.starts_with('-') => return Err(format!("unexpected argument '{flag}'")),
            spec => specs.push(spec.to_string()),
        }
        i += 1;
    }
    if specs.is_empty() {
        return Err("submit: missing cell specs (WORKLOAD[:SIZE[:STRATEGY[:PLACEMENT]]])".into());
    }
    // Parse every spec before touching the socket so a typo is reported
    // as a typo, not as a connection problem.
    let requests: Vec<SubmitRequest> = specs
        .iter()
        .map(|spec| {
            parse_submit_spec(spec, eval).map(|mut req| {
                req.deadline_ms = deadline_ms;
                req.token = token.clone();
                req
            })
        })
        .collect::<Result<_, _>>()?;
    let target = target.target();
    if policy.retries > 0 {
        return submit_sequential_with_retry(&target, &specs, &requests, &policy);
    }
    let mut client = connect(&target)?;
    // Pipeline all submits before reading anything; responses complete in
    // whatever order the server finishes jobs, so match them up by id.
    let mut pending: HashMap<String, String> = HashMap::new();
    for (spec, req) in specs.iter().zip(&requests) {
        let id = client.send_submit(req)?;
        pending.insert(id, spec.clone());
    }
    let mut failures = 0usize;
    for _ in 0..specs.len() {
        let response = client.recv_response()?;
        let spec = pending
            .remove(response.id())
            .unwrap_or_else(|| "?".to_string());
        if !print_submit_response(&spec, response) {
            failures += 1;
        }
    }
    if failures > 0 {
        return Err(format!("{failures} of {} submits failed", specs.len()));
    }
    Ok(())
}

/// Prints one submit response line; returns whether it was a success.
fn print_submit_response(spec: &str, response: Response) -> bool {
    match response {
        Response::Report {
            cached,
            coalesced,
            report,
            ..
        } => {
            let yn = |b: bool| if b { "yes" } else { "no" };
            println!(
                "{:<28} digest={} cycles={} cached={} coalesced={}",
                report.label,
                report.digest,
                report.counters.cycles,
                yn(cached),
                yn(coalesced),
            );
            true
        }
        Response::Error { code, message, .. } => {
            eprintln!("{spec}: [{}] {message}", code.as_str());
            false
        }
        other => {
            eprintln!("{spec}: unexpected {other:?}");
            false
        }
    }
}

/// The `--retries` submit path: one spec at a time, each on its own
/// connection, retrying transient failures under the backoff policy.
fn submit_sequential_with_retry(
    target: &ServeTarget,
    specs: &[String],
    requests: &[SubmitRequest],
    policy: &RetryPolicy,
) -> Result<(), String> {
    let mut failures = 0usize;
    for (spec, req) in specs.iter().zip(requests) {
        match submit_with_retry_to(target, req, policy) {
            Ok(response) => {
                if !print_submit_response(spec, response) {
                    failures += 1;
                }
            }
            Err(e) => {
                eprintln!("{spec}: {e}");
                failures += 1;
            }
        }
    }
    if failures > 0 {
        return Err(format!("{failures} of {} submits failed", specs.len()));
    }
    Ok(())
}

/// `ctbia status [--socket PATH] [--metrics]` — query a running server's
/// counters; `--metrics` additionally writes the aggregated
/// ctbia-metrics-v1 document to SERVE_metrics.json.
fn cmd_status(args: &[String]) -> Result<(), String> {
    let mut target = TargetArgs::default();
    let mut metrics = false;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            _ if target.take(args, &mut i)? => {}
            "--metrics" => metrics = true,
            other => return Err(format!("unexpected argument '{other}'")),
        }
        i += 1;
    }
    let mut client = connect(&target.target())?;
    match client.status(metrics)? {
        Response::Status {
            snapshot,
            metrics: doc,
            ..
        } => {
            for (key, value) in snapshot.fields() {
                println!("{key:<24} {value}");
            }
            if metrics {
                let json = doc.ok_or("server response omitted the requested metrics document")?;
                let doc = MetricsDoc::parse(&json)
                    .map_err(|e| format!("server sent an unparseable metrics document: {e}"))?;
                write_metrics_doc("SERVE_metrics.json", &doc)?;
            }
        }
        Response::Error { code, message, .. } => {
            return Err(format!("status rejected: [{}] {message}", code.as_str()));
        }
        other => return Err(format!("unexpected response {other:?}")),
    }
    Ok(())
}

/// `ctbia health [--socket PATH]` — query a running server's supervision
/// snapshot: queue depth vs limit, workers alive, restarts, deadline
/// kills, shed submits, quarantined cache entries, drain state.
fn cmd_health(args: &[String]) -> Result<(), String> {
    let mut target = TargetArgs::default();
    let mut i = 0;
    while i < args.len() {
        if !target.take(args, &mut i)? {
            return Err(format!("unexpected argument '{}'", args[i]));
        }
        i += 1;
    }
    let mut client = connect(&target.target())?;
    match client.health()? {
        Response::Health { health, .. } => {
            for (key, value) in health.fields() {
                println!("{key:<24} {value}");
            }
            println!(
                "{:<24} {}",
                "shutting_down",
                if health.shutting_down { "yes" } else { "no" }
            );
        }
        Response::Error { code, message, .. } => {
            return Err(format!("health rejected: [{}] {message}", code.as_str()));
        }
        other => return Err(format!("unexpected response {other:?}")),
    }
    Ok(())
}

fn cmd_config() {
    let cfg = ctbia::sim::config::HierarchyConfig::paper_table1();
    let bia = ctbia::core::bia::BiaConfig::paper_table1();
    println!("simulated system (paper Table 1):");
    for (name, c) in [("L1d", &cfg.l1d), ("L2", &cfg.l2), ("LLC", &cfg.llc)] {
        println!(
            "  {name:<4} {:>6} KB  {:>2}-way {}  {:>2} cycles  {} sets",
            c.size_bytes / 1024,
            c.associativity,
            c.replacement,
            c.hit_latency,
            c.num_sets()
        );
    }
    println!(
        "  BIA  {:>6} KB  {:>2}-way LRU  {:>2} cycle   {} entries (M = {})",
        bia.size_bytes() / 1024,
        bia.associativity,
        bia.latency,
        bia.entries,
        bia.granularity_log2
    );
    println!("  DRAM {} cycles, closed row", cfg.dram.latency);
}

fn cmd_list() {
    println!("workloads:  dijkstra histogram permutation binary-search heappop");
    println!("            leaky-bin (intentionally leaky control, for `ctbia verify`)");
    println!("            spectre (Spectre-v1 gadget; leaks only with --spec-window > 0)");
    println!("strategies: insecure ct ct-avx2 bia bia-loads");
    println!("placements: l1d l2 llc");
    println!("crypto kernels (in `fig09_crypto`):");
    println!("  AES ARC2 ARC4 Blowfish CAST DES DES3 XOR");
}

/// Pins glibc's mmap threshold so the simulator's large per-machine
/// arrays (cache tag/stamp vectors, hundreds of KiB each) keep coming
/// from `mmap` instead of migrating to the main heap.
///
/// glibc raises the threshold dynamically the first time an mmap'd block
/// is freed; after a few short-lived machines every subsequent
/// `Machine::new` then pays an explicit multi-hundred-KiB `memset` on
/// recycled heap memory. Pinning the threshold keeps those allocations
/// lazily zeroed by the kernel, and sweep cells only ever fault in the
/// sets they actually touch. Measured on the 44-cell sweep grid this is
/// ~20% of total wall time. A no-op on non-glibc targets.
fn pin_malloc_mmap_threshold() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        // `mallopt(M_MMAP_THRESHOLD, ...)`; the constant is stable glibc ABI.
        const M_MMAP_THRESHOLD: i32 = -3;
        extern "C" {
            fn mallopt(param: i32, value: i32) -> i32;
        }
        unsafe {
            mallopt(M_MMAP_THRESHOLD, 128 * 1024);
        }
    }
}

/// The `USAGE` lines of subcommand `cmd`, or `None` if no line names it.
fn usage_of(cmd: &str) -> Option<String> {
    let own = |l: &&str| {
        l.strip_prefix("    ctbia ")
            .and_then(|r| r.split(' ').next())
            == Some(cmd)
    };
    let lines: String = USAGE
        .lines()
        .filter(own)
        .map(|l| format!("{l}\n"))
        .collect();
    (!lines.is_empty()).then(|| format!("USAGE:\n{lines}"))
}

fn main() -> ExitCode {
    pin_malloc_mmap_threshold();
    let args: Vec<String> = std::env::args().skip(1).collect();
    if let Some((cmd, rest)) = args.split_first() {
        if rest.iter().any(|a| a == "--help" || a == "-h") {
            if let Some(usage) = usage_of(cmd) {
                print!("{usage}");
                return ExitCode::SUCCESS;
            }
        }
    }
    let result = match args.first().map(String::as_str) {
        Some("config") => {
            cmd_config();
            Ok(())
        }
        Some("list") => {
            cmd_list();
            Ok(())
        }
        Some("run") => cmd_run(&args[1..]),
        Some("trace") => cmd_trace(&args[1..]),
        Some("compare") => cmd_compare(&args[1..]),
        Some("attack") => cmd_attack(&args[1..]),
        Some("leakage") => cmd_leakage(&args[1..]),
        Some("verify") => cmd_verify(&args[1..]),
        Some("analyze") => cmd_analyze(&args[1..]),
        Some("serve") => cmd_serve(&args[1..]),
        Some("submit") => cmd_submit(&args[1..]),
        Some("status") => cmd_status(&args[1..]),
        Some("health") => cmd_health(&args[1..]),
        Some("--help") | Some("-h") | None => {
            print!("{USAGE}");
            Ok(())
        }
        Some(other) => Err(format!("unknown command '{other}'\n\n{USAGE}")),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn submit_specs_parse_into_wire_requests() {
        let full = parse_submit_spec("hist:200:bia:l1d", false).unwrap();
        assert_eq!(
            full,
            SubmitRequest {
                workload: "hist".to_string(),
                size: Some(200),
                strategy: Some("bia".to_string()),
                placement: Some("l1d".to_string()),
                eval: false,
                deadline_ms: None,
                token: None,
            }
        );
        // `-` keeps the per-workload default size; trailing fields are
        // optional and the eval flag rides through.
        let partial = parse_submit_spec("dijkstra:-:ct", true).unwrap();
        assert_eq!(partial.size, None);
        assert_eq!(partial.strategy.as_deref(), Some("ct"));
        assert_eq!(partial.placement, None);
        assert!(partial.eval);

        assert!(parse_submit_spec("", false).is_err());
        assert!(parse_submit_spec("hist:0", false).is_err());
        assert!(parse_submit_spec("hist:1:bia:l1d:extra", false).is_err());
    }

    #[test]
    fn metrics_doc_from_counters_round_trips() {
        let report = ctbia::harness::execute_cell(&CellSpec::new(
            WorkloadSpec::named("hist", 64).unwrap(),
            StrategySpec::Bia,
            BiaPlacement::L1d,
        ))
        .unwrap();
        let mut doc = MetricsDoc::new(&report.label);
        doc.push("digest", report.digest);
        for (key, value) in counter_fields(&report.counters) {
            doc.push(key, value);
        }
        let parsed = MetricsDoc::parse(&doc.to_json()).unwrap();
        assert_eq!(parsed, doc);
        assert_eq!(parsed.get("cycles"), Some(report.counters.cycles));
        assert_eq!(
            parsed.get("phase.compute"),
            Some(report.counters.phases.compute)
        );
    }
}
