//! `EXPERIMENTS.md` quotes the figure binaries' outputs by hand. This
//! test holds every quote to its source: each number in an "ours" column
//! (a header containing `(ours)`) or an "Ours" table (one introduced by a
//! line starting with `Ours`) must appear as a token of
//! `results/<bin>.txt`, where `<bin>` is the `--bin` the section's
//! regenerate command names. `×`/`x` suffixes, `**` emphasis and
//! thousands separators are normalized away; digits are compared as
//! written, so a rounded or stale quote fails.

use std::collections::{BTreeMap, BTreeSet};
use std::path::Path;

/// `cell` as a bare decimal number, or `None` when it is not one.
fn number(cell: &str) -> Option<String> {
    let s = cell.replace("**", "").replace(',', "");
    let s = s.trim();
    let s = s
        .strip_suffix('×')
        .or_else(|| s.strip_suffix('x'))
        .unwrap_or(s);
    let digits = s.chars().filter(char::is_ascii_digit).count();
    let plain = s.chars().all(|c| c.is_ascii_digit() || c == '.');
    (digits > 0 && plain && s.matches('.').count() <= 1).then(|| s.to_string())
}

fn cells(row: &str) -> Vec<&str> {
    let row = row.trim().trim_start_matches('|').trim_end_matches('|');
    row.split('|').map(str::trim).collect()
}

/// The quoted numbers of one section's "ours" cells.
fn ours_numbers(section: &[&str]) -> Vec<String> {
    let mut out = Vec::new();
    let mut i = 0;
    while i < section.len() {
        if !section[i].starts_with('|') {
            i += 1;
            continue;
        }
        let start = i;
        while i < section.len() && section[i].starts_with('|') {
            i += 1;
        }
        let table = &section[start..i];
        let intro = section[..start].iter().rev().find(|l| !l.trim().is_empty());
        let whole = intro.is_some_and(|l| l.starts_with("Ours"));
        let header = cells(table[0]);
        let columns: Vec<usize> = (0..header.len())
            .filter(|&c| whole || header[c].to_lowercase().contains("(ours)"))
            .collect();
        // Row 1 is the `|---|` separator.
        for row in table.iter().skip(2) {
            let row = cells(row);
            out.extend(
                columns
                    .iter()
                    .filter_map(|&c| row.get(c).and_then(|v| number(v))),
            );
        }
    }
    out
}

#[test]
fn experiments_ours_quotes_match_results() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let doc = std::fs::read_to_string(root.join("EXPERIMENTS.md")).expect("EXPERIMENTS.md");
    let lines: Vec<&str> = doc.lines().collect();
    let starts: Vec<usize> = (0..lines.len())
        .filter(|&i| lines[i].starts_with("## "))
        .chain([lines.len()])
        .collect();
    let mut checked: BTreeMap<String, usize> = BTreeMap::new();
    let mut stale = Vec::new();
    for w in starts.windows(2) {
        let section = &lines[w[0]..w[1]];
        let quotes = ours_numbers(section);
        if quotes.is_empty() {
            continue;
        }
        let bin = section
            .iter()
            .find_map(|l| l.split("--bin ").nth(1))
            .and_then(|rest| rest.split(|c: char| c == '`' || c.is_whitespace()).next())
            .unwrap_or_else(|| panic!("{}: ours numbers but no --bin command", section[0]));
        let path = root.join("results").join(format!("{bin}.txt"));
        let results =
            std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        let tokens: BTreeSet<String> = results.split_whitespace().filter_map(number).collect();
        for q in &quotes {
            if !tokens.contains(q) {
                stale.push(format!("{}: {q} is not in results/{bin}.txt", section[0]));
            }
        }
        *checked.entry(bin.to_string()).or_default() += quotes.len();
    }
    assert!(stale.is_empty(), "stale quotes:\n{}", stale.join("\n"));
    for bin in [
        "tab31_profile",
        "fig02_motivation",
        "fig07_overheads",
        "fig08_reduction",
        "fig09_crypto",
    ] {
        assert!(checked.contains_key(bin), "no ours quote checked for {bin}");
    }
}

#[test]
fn numbers_normalize_like_the_results_files() {
    assert_eq!(number("18,912,170").as_deref(), Some("18912170"));
    assert_eq!(number("**8.59**").as_deref(), Some("8.59"));
    assert_eq!(number("4.03×").as_deref(), Some("4.03"));
    assert_eq!(number("4.03x").as_deref(), Some("4.03"));
    assert_eq!(number("dij_32"), None);
    assert_eq!(number("≈2×"), None);
    assert_eq!(number("1k"), None);
}
