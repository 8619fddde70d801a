//! The workspace's "one X" design rules, checked over its sources.
//!
//! Each rule reads the files it governs with comments and string
//! literals blanked out, so prose about a forbidden construct is not
//! flagged, and reports every offending line. Each rule also runs on an
//! in-test fixture that breaks it, so a rule that quietly matches
//! nothing fails too. Std only: the sources are read from disk.

use std::fs;
use std::path::{Path, PathBuf};

/// One source file: its path relative to the workspace root, with `/`
/// separators, and its text.
struct Source {
    path: String,
    text: String,
}

/// The workspace root: this test belongs to the root package.
fn root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

/// Every file under `dir`, recursively, in path order.
fn walk(dir: &Path, out: &mut Vec<PathBuf>) {
    let mut entries: Vec<PathBuf> = fs::read_dir(dir)
        .unwrap_or_else(|e| panic!("reading {}: {e}", dir.display()))
        .map(|entry| entry.expect("directory entry").path())
        .collect();
    entries.sort();
    for path in entries {
        if path.is_dir() {
            walk(&path, out);
        } else {
            out.push(path);
        }
    }
}

/// The files of `crates/*/src/**`: each crate's own sources, one
/// directory level under `crates/` (so not the shims under
/// `crates/shims/*/src`).
fn crate_sources() -> Vec<Source> {
    let root = root();
    let mut crates: Vec<PathBuf> = fs::read_dir(root.join("crates"))
        .expect("crates/ exists")
        .map(|entry| entry.expect("directory entry").path().join("src"))
        .filter(|src| src.is_dir())
        .collect();
    crates.sort();
    let mut files = Vec::new();
    for src in crates {
        walk(&src, &mut files);
    }
    files
        .into_iter()
        .map(|file| {
            let path = file.strip_prefix(&root).expect("under the root");
            let path = path.to_string_lossy().replace('\\', "/");
            let text = fs::read_to_string(&file).unwrap_or_default();
            Source { path, text }
        })
        .collect()
}

/// `text` with every comment and string, char and byte literal replaced
/// by spaces, newlines kept, so line numbers still hold. Lifetimes are
/// left alone.
fn strip(text: &str) -> String {
    let chars: Vec<char> = text.chars().collect();
    let mut out = String::with_capacity(text.len());
    let blank = |out: &mut String, c: char| out.push(if c == '\n' { '\n' } else { ' ' });
    let mut i = 0;
    while i < chars.len() {
        let c = chars[i];
        let next = chars.get(i + 1).copied();
        if c == '/' && next == Some('/') {
            while i < chars.len() && chars[i] != '\n' {
                blank(&mut out, chars[i]);
                i += 1;
            }
        } else if c == '/' && next == Some('*') {
            let mut depth = 0;
            while i < chars.len() {
                if chars[i] == '/' && chars.get(i + 1) == Some(&'*') {
                    depth += 1;
                    out.push_str("  ");
                    i += 2;
                } else if chars[i] == '*' && chars.get(i + 1) == Some(&'/') {
                    depth -= 1;
                    out.push_str("  ");
                    i += 2;
                    if depth == 0 {
                        break;
                    }
                } else {
                    blank(&mut out, chars[i]);
                    i += 1;
                }
            }
        } else if let Some(hashes) = raw_string_start(&chars, i) {
            // r"…", r#"…"#, br"…": ends at a quote followed by as many
            // hashes as it opened with.
            let close: Vec<char> =
                std::iter::once('"').chain(std::iter::repeat_n('#', hashes)).collect();
            while i < chars.len() && chars[i] != '"' {
                blank(&mut out, chars[i]);
                i += 1;
            }
            blank(&mut out, chars[i]);
            i += 1;
            while i < chars.len() && !chars[i..].starts_with(&close) {
                blank(&mut out, chars[i]);
                i += 1;
            }
            for _ in 0..close.len().min(chars.len() - i) {
                blank(&mut out, chars[i]);
                i += 1;
            }
        } else if c == '"' {
            blank(&mut out, c);
            i += 1;
            while i < chars.len() && chars[i] != '"' {
                if chars[i] == '\\' {
                    blank(&mut out, chars[i]);
                    i += 1;
                }
                if i < chars.len() {
                    blank(&mut out, chars[i]);
                    i += 1;
                }
            }
            if i < chars.len() {
                blank(&mut out, chars[i]);
                i += 1;
            }
        } else if c == '\'' && (next == Some('\\') || chars.get(i + 2) == Some(&'\'')) {
            // A char literal ('x', '\n', '\u{..}'); a lifetime ('a,
            // 'static) has no closing quote after one character.
            blank(&mut out, c);
            i += 1;
            while i < chars.len() && chars[i] != '\'' {
                if chars[i] == '\\' {
                    blank(&mut out, chars[i]);
                    i += 1;
                }
                if i < chars.len() {
                    blank(&mut out, chars[i]);
                    i += 1;
                }
            }
            if i < chars.len() {
                blank(&mut out, chars[i]);
                i += 1;
            }
        } else {
            out.push(c);
            i += 1;
        }
    }
    out
}

/// The number of `#`s of a raw string literal starting at `i`, if one
/// does (and `i` does not continue an identifier).
fn raw_string_start(chars: &[char], i: usize) -> Option<usize> {
    if i > 0 && (chars[i - 1].is_alphanumeric() || chars[i - 1] == '_') {
        return None;
    }
    let mut j = i;
    if chars.get(j) == Some(&'b') {
        j += 1;
    }
    if chars.get(j) != Some(&'r') {
        return None;
    }
    j += 1;
    let hashes = chars[j..].iter().take_while(|c| **c == '#').count();
    (chars.get(j + hashes) == Some(&'"')).then_some(hashes)
}

/// The lines of `sources` (outside `exempt`) whose code, comments and
/// strings stripped, `matches`, as `path:line: code`.
fn offenders(sources: &[Source], exempt: &[&str], matches: fn(&str) -> bool) -> Vec<String> {
    let mut found = Vec::new();
    for source in sources.iter().filter(|s| !exempt.contains(&s.path.as_str())) {
        for (n, line) in strip(&source.text).lines().enumerate() {
            if matches(line) {
                found.push(format!("{}:{}: {}", source.path, n + 1, line.trim()));
            }
        }
    }
    found
}

/// One receive-side table. Per-session frame queues, stream sequence
/// checks, a link's failure and stored wakers live in
/// `crates/transport/src/mailboxes.rs`, which every transport uses;
/// so do the drained queues it keeps for the next sessions it opens.
/// The pattern is `VecDeque<Envelope>|SequenceTracker|HashMap<[^;]*Waker>`.
mod one_receive_side_table {
    use super::*;

    pub(super) const EXEMPT: &[&str] = &["crates/transport/src/mailboxes.rs"];

    pub(super) fn matches(line: &str) -> bool {
        line.contains("VecDeque<Envelope>")
            || line.contains("SequenceTracker")
            || line.match_indices("HashMap<").any(|(at, open)| {
                let rest = &line[at + open.len()..];
                rest.split(';').next().is_some_and(|upto| upto.contains("Waker>"))
            })
    }

    #[test]
    fn holds_in_the_workspace() {
        let sources = crate_sources();
        assert!(
            sources.iter().any(|s| s.path == EXEMPT[0]),
            "the rule's file set must include {}",
            EXEMPT[0]
        );
        let found = offenders(&sources, EXEMPT, matches);
        assert!(
            found.is_empty(),
            "keep receive-side bookkeeping in crates/transport/src/mailboxes.rs:\n{}",
            found.join("\n")
        );
    }

    #[test]
    fn fails_on_a_fixture_that_breaks_it() {
        let fixture = |path: &str, text: &str| Source { path: path.into(), text: text.into() };
        let sources = [
            fixture(
                "crates/transport/src/local.rs",
                "// A VecDeque<Envelope> in a comment is prose.\n\
                 const DOC: &str = \"HashMap<u64, Waker>\";\n\
                 struct Spare { queues: Vec<VecDeque<Envelope>> }\n\
                 struct Parked { wakers: HashMap<SessionId, Option<Waker>> }\n\
                 struct Split { map: HashMap<u64, u8>; waker: Waker }\n",
            ),
            fixture("crates/core/src/session.rs", "struct S { t: SequenceTracker }\n"),
            fixture(EXEMPT[0], "struct Mailboxes { spare: Vec<VecDeque<Envelope>> }\n"),
        ];
        assert_eq!(
            offenders(&sources, EXEMPT, matches),
            [
                "crates/transport/src/local.rs:3: struct Spare { queues: Vec<VecDeque<Envelope>> }",
                "crates/transport/src/local.rs:4: struct Parked { wakers: HashMap<SessionId, \
                 Option<Waker>> }",
                "crates/core/src/session.rs:1: struct S { t: SequenceTracker }",
            ]
        );
    }
}

#[test]
fn stripping_blanks_comments_and_literals_and_keeps_lines() {
    let text = "let a = \"x // y\"; // tail\n\
                /* one /* nested */ still */ let b = 'c';\n\
                fn f<'a>(s: &'a str) -> char { '\\'' }\n\
                let r = r#\"raw \" quote\"#; let t = b\"bytes\";\n";
    let stripped = strip(text);
    assert_eq!(stripped.lines().count(), text.lines().count());
    let code: Vec<String> =
        stripped.lines().map(|l| l.split_whitespace().collect::<Vec<_>>().join(" ")).collect();
    assert_eq!(
        code,
        ["let a = ;", "let b = ;", "fn f<'a>(s: &'a str) -> char { }", "let r = ; let t = b ;"]
    );
}
