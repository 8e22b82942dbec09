//! The README may only show `ctbia` subcommands the binary's own usage
//! text lists, removed subcommands must fail as unknown, and every listed
//! subcommand answers `--help`/`-h` with its own usage lines; `leakage`
//! accepts every workload name the harness knows. Runs the built `ctbia`
//! binary; starts no daemon.

use std::collections::BTreeSet;
use std::process::Command;

fn ctbia(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_ctbia"))
        .args(args)
        .output()
        .expect("the ctbia binary runs")
}

/// Subcommands named on the `USAGE:` lines of `ctbia --help`
/// (`    ctbia <cmd> ...`).
fn usage_commands() -> BTreeSet<String> {
    let out = ctbia(&["--help"]);
    assert!(out.status.success(), "--help exits 0");
    let text = String::from_utf8(out.stdout).expect("usage is UTF-8");
    text.lines()
        .filter_map(|l| l.strip_prefix("    ctbia "))
        .map(|rest| first_word(rest).to_string())
        .collect()
}

fn first_word(s: &str) -> &str {
    let end = s
        .find(|c: char| !(c.is_ascii_alphanumeric() || c == '-'))
        .unwrap_or(s.len());
    &s[..end]
}

/// Every `(line, subcommand)` the README invokes: after `cargo run
/// --release [--bin ctbia] --`, after a backticked `` `ctbia ``, or at the
/// start of a code line `ctbia `.
fn readme_commands() -> Vec<(usize, String)> {
    let readme = include_str!("../README.md");
    let prefixes = [
        "cargo run --release -- ",
        "cargo run --release --bin ctbia -- ",
        "`ctbia ",
    ];
    let mut out = Vec::new();
    for (n, line) in readme.lines().enumerate() {
        if let Some(rest) = line.strip_prefix("ctbia ") {
            out.push((n + 1, first_word(rest).to_string()));
        }
        for prefix in prefixes {
            let mut rest = line;
            while let Some(i) = rest.find(prefix) {
                rest = &rest[i + prefix.len()..];
                out.push((n + 1, first_word(rest).to_string()));
            }
        }
    }
    out
}

#[test]
fn readme_names_only_listed_subcommands() {
    let listed = usage_commands();
    for cmd in ["run", "compare", "verify", "analyze", "serve", "submit"] {
        assert!(listed.contains(cmd), "usage lists `{cmd}`: {listed:?}");
    }
    let used = readme_commands();
    assert!(used.len() >= 10, "the README scan found commands: {used:?}");
    for (line, cmd) in used {
        assert!(
            listed.contains(&cmd),
            "README.md:{line} runs `ctbia {cmd}`, which `ctbia --help` does not list"
        );
    }
}

#[test]
fn removed_subcommands_are_unknown() {
    for cmd in ["audit", "fuzz"] {
        let out = ctbia(&[cmd, "histogram"]);
        assert!(!out.status.success(), "`ctbia {cmd}` must fail");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains(&format!("unknown command '{cmd}'")),
            "`ctbia {cmd}` stderr: {stderr}"
        );
    }
}

#[test]
fn every_subcommand_prints_its_usage_lines_on_help() {
    let out = ctbia(&["--help"]);
    let text = String::from_utf8(out.stdout).expect("usage is UTF-8");
    for cmd in usage_commands() {
        let own: Vec<&str> = text
            .lines()
            .filter(|l| {
                l.strip_prefix("    ctbia ")
                    .is_some_and(|rest| first_word(rest) == cmd)
            })
            .collect();
        assert!(!own.is_empty(), "`{cmd}` has usage lines");
        // After the subcommand, and after its other arguments too.
        for args in [
            vec![cmd.as_str(), "--help"],
            vec![cmd.as_str(), "hist", "-h"],
        ] {
            let out = ctbia(&args);
            let stdout = String::from_utf8_lossy(&out.stdout);
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert!(
                out.status.success(),
                "`ctbia {}` exits 0: {stderr}",
                args.join(" ")
            );
            let printed: Vec<&str> = stdout.lines().collect();
            assert_eq!(printed[0], "USAGE:", "`ctbia {}`: {stdout}", args.join(" "));
            assert_eq!(
                printed[1..],
                own[..],
                "`ctbia {}` prints the usage lines of `{cmd}`",
                args.join(" ")
            );
        }
    }
}

#[test]
fn leakage_takes_every_named_workload() {
    let out = ctbia(&["leakage", "leaky-bin", "64"]);
    assert!(
        out.status.success(),
        "`ctbia leakage leaky-bin 64`: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let out = ctbia(&["leakage", "nope"]);
    assert!(!out.status.success(), "`ctbia leakage nope` must fail");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("unknown workload"),
        "`ctbia leakage nope` stderr: {stderr}"
    );
}
