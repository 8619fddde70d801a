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

/// `files` as [`Source`]s, with paths relative to the root.
fn read_sources(files: Vec<PathBuf>) -> Vec<Source> {
    let root = root();
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

/// The files of `crates/*/src/**`: each crate's own sources, one
/// directory level under `crates/` (so not the shims under
/// `crates/shims/*/src`).
fn crate_sources() -> Vec<Source> {
    let mut crates: Vec<PathBuf> = fs::read_dir(root().join("crates"))
        .expect("crates/ exists")
        .map(|entry| entry.expect("directory entry").path().join("src"))
        .filter(|src| src.is_dir())
        .collect();
    crates.sort();
    let mut files = Vec::new();
    for src in crates {
        walk(&src, &mut files);
    }
    read_sources(files)
}

/// The Rust files under each of `dirs` (relative to the root), at any
/// depth: shims, tests and benches included.
fn rust_sources_under(dirs: &[&str]) -> Vec<Source> {
    let mut files = Vec::new();
    for dir in dirs {
        walk(&root().join(dir), &mut files);
    }
    files.retain(|file| file.extension().is_some_and(|ext| ext == "rs"));
    read_sources(files)
}

/// A fixture's source.
fn fixture(path: &str, text: &str) -> Source {
    Source { path: path.into(), text: text.into() }
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
fn offenders<'a>(
    sources: impl IntoIterator<Item = &'a Source>,
    exempt: &[&str],
    matches: fn(&str) -> bool,
) -> Vec<String> {
    let mut found = Vec::new();
    for source in sources.into_iter().filter(|s| !exempt.contains(&s.path.as_str())) {
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

/// One blocking receive. A transport receives through one method,
/// `poll_receive_frame` (pop a frame or store the caller's
/// `std::task::Waker`); `SessionTransport::receive_frame` is provided
/// once, in `crates/core/src/transport.rs`, over it (the loop is in
/// `crates/core/src/park.rs`). The try-then-register pair it replaced,
/// and its waker type, stay deleted. Two patterns, each over the Rust
/// files under `crates/` and `src/`: `fn receive_frame` but in
/// `transport.rs`, and `fn register_waker|fn try_receive_frame|
/// MailboxWaker|PollOutcome::Ready` everywhere.
mod one_blocking_receive {
    use super::*;

    pub(super) const PROVIDER: &str = "crates/core/src/transport.rs";

    fn second_receive(line: &str) -> bool {
        line.contains("fn receive_frame")
    }

    fn deleted_api(line: &str) -> bool {
        ["fn register_waker", "fn try_receive_frame", "MailboxWaker", "PollOutcome::Ready"]
            .iter()
            .any(|word| line.contains(word))
    }

    /// Every offending line of `everywhere`, the Rust files under
    /// `crates/` and `src/`.
    fn offending(everywhere: &[Source]) -> Vec<String> {
        let mut found = offenders(everywhere, &[PROVIDER], second_receive);
        found.extend(offenders(everywhere, &[], deleted_api));
        found
    }

    #[test]
    fn holds_in_the_workspace() {
        let sources = rust_sources_under(&["crates", "src"]);
        assert!(
            sources.iter().any(|s| s.path == PROVIDER),
            "the rule's file set must include {PROVIDER}"
        );
        let found = offending(&sources);
        assert!(
            found.is_empty(),
            "keep the one blocking receive in chorus_core::park, over poll_receive_frame:\n{}",
            found.join("\n")
        );
    }

    #[test]
    fn fails_on_a_fixture_that_breaks_it() {
        let sources = [
            fixture(PROVIDER, "fn receive_frame(&self) {}\n"),
            fixture(
                "crates/transport/src/local.rs",
                "// fn receive_frame in a comment is prose.\n\
                 fn receive_frame(&self) {}\n",
            ),
            fixture("crates/kvs/src/node.rs", "fn try_receive_frame(&self) {}\n"),
            fixture("crates/transport/tests/local.rs", "let r = PollOutcome::Ready(1);\n"),
        ];
        assert_eq!(
            offending(&sources),
            [
                "crates/transport/src/local.rs:2: fn receive_frame(&self) {}",
                "crates/kvs/src/node.rs:1: fn try_receive_frame(&self) {}",
                "crates/transport/tests/local.rs:1: let r = PollOutcome::Ready(1);",
            ]
        );
    }
}

/// One wait primitive. A thread that waits for another polls its
/// condition with its own `std::task::Waker` and parks
/// (`chorus_core::park::wait`); whoever changes the condition takes the
/// stored wakers under the lock it changed it under. No condvar, and no
/// wait queue built on one, anywhere under `crates/*/src`:
/// `WaitQueue|Condvar|wait_timeout|notify_one|notify_all`.
mod one_wait_primitive {
    use super::*;

    fn matches(line: &str) -> bool {
        ["WaitQueue", "Condvar", "wait_timeout", "notify_one", "notify_all"]
            .iter()
            .any(|word| line.contains(word))
    }

    #[test]
    fn holds_in_the_workspace() {
        let sources = crate_sources();
        for path in ["crates/core/src/park.rs", "crates/transport/src/tcp/send.rs"] {
            assert!(
                sources.iter().any(|s| s.path == path),
                "the rule's file set must include {path}"
            );
        }
        let found = offenders(&sources, &[], matches);
        assert!(
            found.is_empty(),
            "wait through chorus_core::park::wait, with the waker stored under the lock:\n{}",
            found.join("\n")
        );
    }

    #[test]
    fn fails_on_a_fixture_that_breaks_it() {
        let sources = [
            fixture(
                "crates/transport/src/local.rs",
                "// A Condvar in a comment is prose.\n\
                 struct Parked { cv: Condvar }\n",
            ),
            fixture("crates/transport/src/tcp/send.rs", "struct LinkCell { pruned: Condvar }\n"),
            fixture("crates/kvs/src/node.rs", "struct Gate { queue: WaitQueue<u8> }\n"),
            fixture("crates/core/src/park.rs", "let (guard, _) = cv.wait_timeout(guard, tick);\n"),
            fixture("crates/core/src/runtime.rs", "self.cv.notify_one();\n"),
            fixture("crates/transport/src/tcp/connect.rs", "handle.pruned.notify_all();\n"),
        ];
        assert_eq!(
            offenders(&sources, &[], matches),
            [
                "crates/transport/src/local.rs:2: struct Parked { cv: Condvar }",
                "crates/transport/src/tcp/send.rs:1: struct LinkCell { pruned: Condvar }",
                "crates/kvs/src/node.rs:1: struct Gate { queue: WaitQueue<u8> }",
                "crates/core/src/park.rs:1: let (guard, _) = cv.wait_timeout(guard, tick);",
                "crates/core/src/runtime.rs:1: self.cv.notify_one();",
                "crates/transport/src/tcp/connect.rs:1: handle.pruned.notify_all();",
            ]
        );
    }
}

/// One pass opener. A pool worker's pass (the links whose writes its
/// sends leave to the end of the pass) is opened only by the worker
/// loop: every other thread writes inline. `open_pass()` is called in
/// the Rust files under `crates/`, `src/`, `tests/` and `examples/`
/// only inside `fn worker_loop` of `crates/core/src/runtime.rs`.
mod one_pass_opener {
    use super::*;

    pub(super) const WORKER_LOOP: &str = "crates/core/src/runtime.rs:worker_loop";

    /// Each call of `open_pass()` as `path:function`, the function being
    /// the last `fn` declared above the call, once per function.
    fn callers(sources: &[Source]) -> Vec<String> {
        let mut found: Vec<String> = Vec::new();
        for source in sources {
            let mut function = "";
            for line in strip(&source.text).lines() {
                let mut words = line.split_whitespace().skip_while(|word| *word != "fn");
                if let Some(name) = words.nth(1) {
                    let end = name.find(|c: char| !c.is_alphanumeric() && c != '_');
                    function = &name[..end.unwrap_or(name.len())];
                }
                if line.contains("open_pass()") && function != "open_pass" {
                    let call = format!("{}:{function}", source.path);
                    if !found.contains(&call) {
                        found.push(call);
                    }
                }
            }
        }
        found
    }

    #[test]
    fn holds_in_the_workspace() {
        let sources = rust_sources_under(&["crates", "src", "tests", "examples"]);
        assert_eq!(
            callers(&sources),
            [WORKER_LOOP],
            "open a pool worker's pass only in worker_loop; every other thread writes inline"
        );
    }

    #[test]
    fn fails_on_a_fixture_that_breaks_it() {
        let sources = [
            fixture(
                "crates/core/src/park.rs",
                "pub(crate) fn open_pass() {}\n\
                 // open_pass() in a comment is prose.\n\
                 pub fn flush_pass() {\n    open_pass();\n}\n",
            ),
            fixture(
                "crates/core/src/runtime.rs",
                "fn worker_loop(shared: Arc<RuntimeShared>) {\n    park::open_pass();\n}\n\
                 fn spawn_blocking() {\n    let f = |x: u8| x;\n    park::open_pass();\n}\n",
            ),
        ];
        assert_eq!(
            callers(&sources),
            [
                "crates/core/src/park.rs:flush_pass",
                WORKER_LOOP,
                "crates/core/src/runtime.rs:spawn_blocking",
            ]
        );
    }
}

/// No spin in a wait. A thread that waits for another yields a bounded
/// number of times, then parks (`chorus_core::park::poll_before_park`):
/// a spin burns the core the other thread needs, and sizing one by the
/// machine's parallelism reads the spinning thread's CPU mask, so
/// `spin_loop` appears nowhere under `crates/*/src`, and
/// `available_parallelism` only where `SessionRuntime::global` sizes
/// its pool.
mod no_spin_in_a_wait {
    use super::*;

    pub(super) const POOL_SIZE: &str = "crates/core/src/runtime.rs";

    fn offending(sources: &[Source]) -> Vec<String> {
        let mut found = offenders(sources, &[], |line| line.contains("spin_loop"));
        found.extend(offenders(sources, &[POOL_SIZE], |line| {
            line.contains("available_parallelism")
        }));
        found
    }

    #[test]
    fn holds_in_the_workspace() {
        let sources = crate_sources();
        assert!(
            sources.iter().any(|s| s.path == POOL_SIZE),
            "the rule's file set must include {POOL_SIZE}"
        );
        let found = offending(&sources);
        assert!(
            found.is_empty(),
            "wait through chorus_core::park::poll_before_park's bounded yield, not a spin:\n{}",
            found.join("\n")
        );
    }

    #[test]
    fn fails_on_a_fixture_that_breaks_it() {
        let sources = [
            fixture(
                "crates/core/src/park.rs",
                "// spin_loop in a comment is prose.\n\
                 std::hint::spin_loop();\n\
                 let cores = std::thread::available_parallelism();\n",
            ),
            fixture(POOL_SIZE, "let workers = std::thread::available_parallelism();\n"),
            fixture(POOL_SIZE, "core::hint::spin_loop();\n"),
        ];
        assert_eq!(
            offending(&sources),
            [
                "crates/core/src/park.rs:2: std::hint::spin_loop();",
                "crates/core/src/runtime.rs:1: core::hint::spin_loop();",
                "crates/core/src/park.rs:3: let cores = std::thread::available_parallelism();",
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
