//! The three descriptive documents stay within a size budget and stay true
//! to the tree: DESIGN.md, README.md and the verify skill.
//!
//! Budgets are lines and bytes. A document that outgrows one must be cut,
//! or the budget raised here with a CHANGES.md line that gives the reason.
//! Beside the budgets, the documents must not narrate change history
//! (`PR <n>` belongs in CHANGES.md), every `DESIGN.md §N` citation in
//! README.md, `lint.toml` or a Rust source must name an existing
//! `## N.` heading, and every repository path the documents quote in
//! backticks must exist.

use std::fs;
use std::path::{Path, PathBuf};

const DESIGN: &str = "DESIGN.md";
const README: &str = "README.md";
const SKILL: &str = ".claude/skills/verify/SKILL.md";

/// Path prefixes that mark a backticked span as a repository path.
const REPO_PREFIXES: &[&str] = &["crates/", "tests/", "benchmark/", "examples/", "src/"];

fn root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

fn read(rel: &str) -> String {
    fs::read_to_string(root().join(rel)).unwrap_or_else(|e| panic!("cannot read {rel}: {e}"))
}

fn assert_budget(rel: &str, max_lines: usize, max_bytes: usize) {
    let text = read(rel);
    let lines = text.lines().count();
    assert!(
        lines <= max_lines && text.len() <= max_bytes,
        "{rel} is {lines} lines and {} bytes; its budget is {max_lines} lines and {max_bytes} bytes",
        text.len()
    );
}

#[test]
fn design_fits_its_budget() {
    assert_budget(DESIGN, 500, 40_000);
}

#[test]
fn verify_skill_fits_its_budget() {
    assert_budget(SKILL, 150, 12_000);
}

#[test]
fn readme_fits_its_budget() {
    assert_budget(README, 200, 15_000);
}

/// Every `PR <n>` or `PRs <n>` in `text`, as the line it sits on.
fn pr_mentions(text: &str) -> Vec<String> {
    let mut found = Vec::new();
    for line in text.lines() {
        let bytes = line.as_bytes();
        for (at, _) in line.match_indices("PR") {
            let word_start = at == 0 || !bytes[at - 1].is_ascii_alphanumeric();
            let rest = &line[at + 2..];
            let rest = rest.strip_prefix('s').unwrap_or(rest);
            let number = rest
                .strip_prefix([' ', '\u{a0}'])
                .is_some_and(|r| r.starts_with(|c: char| c.is_ascii_digit()));
            if word_start && number {
                found.push(line.trim().to_string());
                break;
            }
        }
    }
    found
}

#[test]
fn design_and_skill_do_not_narrate_history() {
    for rel in [DESIGN, SKILL] {
        let found = pr_mentions(&read(rel));
        assert!(
            found.is_empty(),
            "{rel} names PRs (history belongs in CHANGES.md): {found:#?}"
        );
    }
}

#[test]
fn pr_mentions_are_found() {
    let pr = "PR";
    assert_eq!(pr_mentions(&format!("since {pr} 7 the sweep")).len(), 1);
    assert_eq!(pr_mentions(&format!("({pr}s 2, 3)")).len(), 1);
    assert!(pr_mentions(&format!("a {pr}NG, S{pr} 3, the {pr} process")).is_empty());
}

/// The section numbers of DESIGN.md's `## N.` headings.
fn design_sections() -> Vec<u32> {
    read(DESIGN)
        .lines()
        .filter_map(|l| l.strip_prefix("## "))
        .filter_map(|h| h.split_once('.'))
        .filter_map(|(n, _)| n.parse().ok())
        .collect()
}

/// The section numbers cited as `DESIGN.md §N` (backticks around the name
/// allowed, and a list such as `§9 and §14` read whole).
fn design_citations(text: &str) -> Vec<u32> {
    let mut cited = Vec::new();
    for (at, _) in text.match_indices("DESIGN.md") {
        let mut rest = text[at + "DESIGN.md".len()..].trim_start_matches('`');
        loop {
            rest = rest.trim_start();
            let Some(after) = rest.strip_prefix('§') else {
                break;
            };
            let digits: String = after.chars().take_while(char::is_ascii_digit).collect();
            let Ok(n) = digits.parse() else {
                break;
            };
            cited.push(n);
            rest = &after[digits.len()..];
            rest = rest.trim_start_matches(|c: char| c.is_ascii_alphabetic());
            let trimmed = rest.trim_start();
            rest = match trimmed
                .strip_prefix(',')
                .or_else(|| trimmed.strip_prefix("and"))
            {
                Some(r) => r,
                None => break,
            };
        }
    }
    cited
}

/// Every file under `dir` with extension `ext`, skipping build output and
/// version-control directories.
fn files_with_extension(dir: &Path, ext: &str, out: &mut Vec<PathBuf>) {
    let Ok(entries) = fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        let name = entry.file_name();
        if path.is_dir() {
            if !matches!(name.to_str(), Some("target" | ".git" | "out")) {
                files_with_extension(&path, ext, out);
            }
        } else if path.extension().is_some_and(|e| e == ext) {
            out.push(path);
        }
    }
}

#[test]
fn design_citations_name_existing_sections() {
    let sections = design_sections();
    assert!(!sections.is_empty(), "DESIGN.md has no `## N.` headings");
    let mut sources = vec![root().join(README), root().join("lint.toml")];
    files_with_extension(&root(), "rs", &mut sources);
    let mut stale = Vec::new();
    for path in &sources {
        let text = fs::read_to_string(path).unwrap_or_default();
        for n in design_citations(&text) {
            if !sections.contains(&n) {
                stale.push(format!("{}: DESIGN.md §{n}", path.display()));
            }
        }
    }
    assert!(
        stale.is_empty(),
        "citations of missing DESIGN.md sections: {stale:#?}"
    );
}

#[test]
fn design_citations_are_parsed() {
    // Built at run time, so that the scan of this file finds no citation.
    assert_eq!(design_citations(&format!("see {DESIGN} §3.")), [3]);
    assert_eq!(
        design_citations(&format!("See `{DESIGN}` §9 and §14")),
        [9, 14]
    );
    assert_eq!(design_citations(&format!("{DESIGN} §3b, §4")), [3, 4]);
    assert!(design_citations(&format!("{DESIGN} describes it")).is_empty());
}

/// Inline code spans outside fenced blocks.
fn code_spans(text: &str) -> Vec<&str> {
    let mut spans = Vec::new();
    let mut fenced = false;
    let mut prose_start = 0;
    let mut offset = 0;
    let mut prose = Vec::new();
    for line in text.split_inclusive('\n') {
        if line.trim_start().starts_with("```") {
            if !fenced {
                prose.push(&text[prose_start..offset]);
            }
            fenced = !fenced;
            prose_start = offset + line.len();
        }
        offset += line.len();
    }
    if !fenced {
        prose.push(&text[prose_start..]);
    }
    for chunk in prose {
        let mut parts = chunk.split('`');
        parts.next();
        while let Some(span) = parts.next() {
            spans.push(span);
            parts.next();
        }
    }
    spans
}

/// The repository path a code span names, if it names one: a trailing
/// `:line` or `::item` is dropped, and globs and placeholders are skipped.
fn repo_path(span: &str) -> Option<&str> {
    if !REPO_PREFIXES.iter().any(|p| span.starts_with(p))
        || span.contains(|c: char| c.is_whitespace() || "*?<{[".contains(c))
    {
        return None;
    }
    let path = span.split("::").next().unwrap_or(span);
    Some(match path.rsplit_once(':') {
        Some((file, line)) if line.chars().all(|c| c.is_ascii_digit()) => file,
        _ => path,
    })
}

#[test]
fn quoted_repo_paths_exist() {
    let mut missing = Vec::new();
    for rel in [DESIGN, README, SKILL] {
        for span in code_spans(&read(rel)) {
            if let Some(path) = repo_path(span) {
                if !root().join(path).exists() {
                    missing.push(format!("{rel}: `{span}`"));
                }
            }
        }
    }
    assert!(
        missing.is_empty(),
        "documents quote paths that do not exist: {missing:#?}"
    );
}

#[test]
fn repo_paths_are_recognised() {
    assert_eq!(
        repo_path("crates/core/src/mce.rs:411"),
        Some("crates/core/src/mce.rs")
    );
    assert_eq!(repo_path("tests/a.rs::some_test"), Some("tests/a.rs"));
    assert_eq!(repo_path("crates/*/tests"), None);
    assert_eq!(repo_path("cargo test"), None);
    assert_eq!(
        code_spans("a `src/lib.rs` b\n```sh\n`crates/x`\n```\n`tests/y.rs`"),
        ["src/lib.rs", "tests/y.rs"]
    );
}
