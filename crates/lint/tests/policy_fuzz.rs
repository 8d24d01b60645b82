//! Hostile input for the `lint.toml` reader: arbitrary text, near-miss
//! policy lines and mutated copies of the real policy. [`Policy::parse`]
//! must return a policy or a typed [`PolicyError`] naming a line of the
//! input, never panic, and the shipped `lint.toml` must keep parsing to
//! the policy it holds.

use proptest::prelude::*;
use quest_lint::{Policy, PolicyError};
use std::path::Path;

fn shipped_text() -> String {
    let path = Path::new(concat!(env!("CARGO_MANIFEST_DIR"), "/../../lint.toml"));
    std::fs::read_to_string(path).expect("lint.toml is readable")
}

/// Asserts the reader's contract on one input: a policy, the same on a
/// second read, or an error naming a line of the input.
fn check(text: &str) -> Result<(), TestCaseError> {
    match Policy::parse(text) {
        Ok(policy) => prop_assert_eq!(Policy::parse(text), Ok(policy)),
        Err(PolicyError { line, message }) => prop_assert!(
            line >= 1 && line as usize <= text.lines().count() && !message.is_empty(),
            "error `{}` at line {} outside the input's {} lines",
            message,
            line,
            text.lines().count()
        ),
    }
    Ok(())
}

/// Arbitrary text: code points anywhere in the `char` range (a surrogate
/// or out-of-range value becomes U+FFFD).
fn arbitrary_text() -> impl Strategy<Value = String> {
    prop::collection::vec(any::<u32>(), 0..96).prop_map(|cps| {
        cps.into_iter()
            .map(|cp| char::from_u32(cp % 0x11_0000).unwrap_or('\u{fffd}'))
            .collect()
    })
}

/// Pieces of near-miss policy text: headers, keys, values, quoting,
/// brackets, comments and line ends, including separators `str::lines`
/// does not split on and multi-byte characters next to the delimiters.
const FRAGMENTS: &[&str] = &[
    "[ql01]",
    "[ql05",
    "[global]",
    "[]",
    "[",
    "]",
    "paths",
    "order",
    "exclude",
    "pathz",
    " = ",
    "=",
    "==",
    "\"crates/core/src\"",
    "\"",
    "\\\"",
    "\\",
    ",",
    "[\"a\", \"b\"]",
    "[\"a\",",
    "true",
    "# note",
    "#",
    "\"#\"",
    "é",
    "\u{feff}",
    "\u{a0}",
    " ",
    "\t",
    "\n",
    "\r\n",
    "\u{2028}",
    "\u{85}\n",
];

/// Near-miss policy text: lines of up to six fragments.
fn fragment_text() -> impl Strategy<Value = String> {
    let line = prop::collection::vec(0..FRAGMENTS.len(), 0..6);
    prop::collection::vec(line, 0..16).prop_map(|lines| {
        let mut text = String::new();
        for line in lines {
            line.into_iter().for_each(|f| text.push_str(FRAGMENTS[f]));
            text.push('\n');
        }
        text
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Arbitrary text never panics the reader.
    #[test]
    fn hostile_text_parses_or_errs(text in arbitrary_text()) {
        check(&text)?;
    }

    /// Near-miss policy lines never panic the reader.
    #[test]
    fn fragment_text_parses_or_errs(text in fragment_text()) {
        check(&text)?;
    }

    /// The shipped policy with characters or whole lines deleted, or
    /// characters replaced by or spliced with fragments, never panics the
    /// reader.
    #[test]
    fn mutated_policy_parses_or_errs(
        edits in prop::collection::vec((0u8..4, any::<usize>(), 0..FRAGMENTS.len()), 1..8),
    ) {
        let mut chars: Vec<char> = shipped_text().chars().collect();
        for (op, at, frag) in edits {
            let at = at % (chars.len() + 1);
            let frag = FRAGMENTS[frag].chars();
            match op {
                0 if at < chars.len() => {
                    chars.remove(at);
                }
                1 if at < chars.len() => {
                    chars.splice(at..=at, frag);
                }
                2 => {
                    // The whole line `at` falls on.
                    let start = chars[..at].iter().rposition(|&c| c == '\n').map_or(0, |i| i + 1);
                    let end = chars[at..].iter().position(|&c| c == '\n').map_or(chars.len(), |i| at + i);
                    chars.drain(start..end);
                }
                _ => {
                    chars.splice(at..at, frag);
                }
            }
        }
        check(&chars.into_iter().collect::<String>())?;
    }
}

#[test]
fn the_shipped_policy_parses_to_its_scopes() {
    let policy = Policy::parse(&shipped_text()).expect("lint.toml parses");
    let sizes = [
        policy.ql01_paths.len(),
        policy.ql02_container_paths.len(),
        policy.ql02_clock_paths.len(),
        policy.ql02_clock_allow.len(),
        policy.ql03_paths.len(),
        policy.ql04_crates.len(),
        policy.ql05_paths.len(),
        policy.ql05_order.len(),
        policy.ql05_locks.len(),
        policy.ql05_resolve_exclude.len(),
        policy.ql06_paths.len(),
        policy.ql06_enums.len(),
        policy.ql07_paths.len(),
        policy.ql07_fields.len(),
        policy.ql08_paths.len(),
        policy.ql08_enums.len(),
        policy.exclude.len(),
    ];
    assert_eq!(
        sizes,
        [10, 14, 7, 1, 3, 10, 2, 6, 10, 28, 2, 2, 3, 21, 2, 3, 3]
    );
    assert_eq!(
        policy.ql05_order,
        ["quotas", "ledger", "queue", "cell", "sink", "memo"]
    );
    assert_eq!(policy.ql02_clock_allow, ["crates/runtime/src/stats.rs"]);
    assert_eq!(policy.ql06_enums, ["Payload", "JobEvent"]);
    assert_eq!(policy.exclude, ["vendor", "target", "crates/lint/fixtures"]);
    assert_eq!(
        policy.ql05_locks[0],
        "queue @ crates/serve/src/queue.rs :: inner.lock"
    );
}
