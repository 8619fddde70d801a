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
/// neither `spin_loop` nor `available_parallelism` appears under
/// `crates/*/src`. Every pool is sized by its caller
/// (`SessionRuntime::new`).
mod no_spin_in_a_wait {
    use super::*;

    fn offending(sources: &[Source]) -> Vec<String> {
        offenders(sources, &[], |line| {
            line.contains("spin_loop") || line.contains("available_parallelism")
        })
    }

    #[test]
    fn holds_in_the_workspace() {
        let found = offending(&crate_sources());
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
            fixture(
                "crates/core/src/runtime.rs",
                "let workers = std::thread::available_parallelism();\n",
            ),
            fixture("crates/core/src/runtime.rs", "core::hint::spin_loop();\n"),
        ];
        assert_eq!(
            offending(&sources),
            [
                "crates/core/src/park.rs:2: std::hint::spin_loop();",
                "crates/core/src/park.rs:3: let cores = std::thread::available_parallelism();",
                "crates/core/src/runtime.rs:1: let workers = std::thread::available_parallelism();",
                "crates/core/src/runtime.rs:1: core::hint::spin_loop();",
            ]
        );
    }
}

/// One lock type. Every lock under `crates/*/src` is a
/// `chorus_core::sync::Mutex`, which absorbs poisoning; only
/// `crates/core/src/sync.rs`, which wraps std's, names std's lock types.
/// Flagged: a `std::sync` path to `Mutex` or `MutexGuard` (in a `use`
/// group too, a multi-line one read as one statement), a `sync::Mutex`
/// that is not `chorus_core`'s, and `RwLock`, `PoisonError`,
/// `TryLockError` and `parking_lot` anywhere.
mod one_lock_type {
    use super::*;

    pub(super) const WRAPPER: &str = "crates/core/src/sync.rs";

    /// Whether `path`, the text after a `std::sync::`, names `Mutex` or
    /// `MutexGuard`, directly or in a `{…}` group.
    fn names_std_mutex(path: &str) -> bool {
        if path.starts_with("Mutex") {
            return true;
        }
        if !path.starts_with('{') {
            return false;
        }
        let mut depth = 0;
        for (at, c) in path.char_indices() {
            match c {
                '{' => depth += 1,
                '}' => depth -= 1,
                _ => {}
            }
            if depth == 0 {
                return path[..at].contains("Mutex");
            }
        }
        path.contains("Mutex")
    }

    fn matches(statement: &str) -> bool {
        ["RwLock", "PoisonError", "TryLockError", "parking_lot"]
            .iter()
            .any(|word| statement.contains(word))
            || statement
                .match_indices("std::sync::")
                .any(|(at, open)| names_std_mutex(statement[at + open.len()..].trim_start()))
            || statement.match_indices("sync::Mutex").any(|(at, _)| {
                let before = &statement[..at];
                !["chorus_core::", "crate::", "std::"].iter().any(|root| before.ends_with(root))
            })
    }

    /// Every offending statement outside [`WRAPPER`], as
    /// `path:line: code`: a `use` that spans lines is joined and
    /// reported at its first line, any other line is read alone.
    fn offending(sources: &[Source]) -> Vec<String> {
        let mut found = Vec::new();
        for source in sources.iter().filter(|s| s.path != WRAPPER) {
            let stripped = strip(&source.text);
            let mut lines = stripped.lines().enumerate();
            while let Some((n, line)) = lines.next() {
                let mut statement = line.trim().to_string();
                let opens_use = statement.split_whitespace().find(|word| !word.starts_with("pub"))
                    == Some("use");
                if opens_use {
                    while !statement.contains(';') {
                        let Some((_, more)) = lines.next() else { break };
                        statement.push(' ');
                        statement.push_str(more.trim());
                    }
                }
                if matches(&statement) {
                    found.push(format!("{}:{}: {statement}", source.path, n + 1));
                }
            }
        }
        found
    }

    #[test]
    fn holds_in_the_workspace() {
        let sources = crate_sources();
        assert!(
            sources.iter().any(|s| s.path == WRAPPER),
            "the rule's file set must include {WRAPPER}"
        );
        let found = offending(&sources);
        assert!(
            found.is_empty(),
            "lock through chorus_core::sync::Mutex, the one non-poisoning lock:\n{}",
            found.join("\n")
        );
    }

    #[test]
    fn fails_on_a_fixture_that_breaks_it() {
        let sources = [
            fixture(
                "crates/transport/src/local.rs",
                "// std::sync::Mutex and RwLock in a comment are prose.\n\
                 const DOC: &str = \"parking_lot::Mutex\";\n\
                 use chorus_core::sync::{Mutex, MutexGuard};\n\
                 use std::sync::{Arc, OnceLock};\n\
                 use std::sync::Mutex;\n",
            ),
            fixture(
                "crates/transport/src/tcp/send.rs",
                "use std::sync::{\n    Arc,\n    Mutex as StdMutex,\n};\n\
                 use std::sync::{atomic::{AtomicBool, Ordering}, MutexGuard};\n\
                 let guard = m.lock().unwrap_or_else(PoisonError::into_inner);\n\
                 Err(TryLockError::WouldBlock) => None,\n",
            ),
            fixture("crates/kvs/src/node.rs", "use parking_lot::Mutex;\n"),
            fixture("crates/protocols/src/store.rs", "struct S { map: RwLock<u8> }\n"),
            fixture(
                "crates/core/src/runtime.rs",
                "use crate::sync::Mutex;\n\
                 let cell = std::sync::Mutex::new(0);\n\
                 struct J { cell: sync::Mutex<u8> }\n",
            ),
            fixture(WRAPPER, "pub struct Mutex<T: ?Sized>(std::sync::Mutex<T>);\n"),
        ];
        assert_eq!(
            offending(&sources),
            [
                "crates/transport/src/local.rs:5: use std::sync::Mutex;",
                "crates/transport/src/tcp/send.rs:1: use std::sync::{ Arc, Mutex as StdMutex, };",
                "crates/transport/src/tcp/send.rs:5: use std::sync::{atomic::{AtomicBool, \
                 Ordering}, MutexGuard};",
                "crates/transport/src/tcp/send.rs:6: let guard = \
                 m.lock().unwrap_or_else(PoisonError::into_inner);",
                "crates/transport/src/tcp/send.rs:7: Err(TryLockError::WouldBlock) => None,",
                "crates/kvs/src/node.rs:1: use parking_lot::Mutex;",
                "crates/protocols/src/store.rs:1: struct S { map: RwLock<u8> }",
                "crates/core/src/runtime.rs:2: let cell = std::sync::Mutex::new(0);",
                "crates/core/src/runtime.rs:3: struct J { cell: sync::Mutex<u8> }",
            ]
        );
    }
}

/// One way to run a census. Tests, tables and examples run their roles
/// through `chorus_transport::Cohort`, and so do the crates that define
/// and serve protocols: `thread::spawn` and `thread::Builder` appear
/// in the Rust files under `tests/`, `examples/`, `crates/*/tests/`,
/// `crates/bench/`, and the `src/` of `kvs`, `baseline`, `protocols`
/// and `patterns` only in the files that test threading itself.
mod one_way_to_run_a_census {
    use super::*;

    pub(super) const THREADING_TESTS: &[&str] = &[
        "examples/quickstart.rs",
        "crates/transport/tests/stress.rs",
        "crates/transport/tests/retention.rs",
        "crates/transport/tests/sessions.rs",
        "crates/transport/tests/pooled_runtime.rs",
    ];

    /// The rule's file set.
    fn governed() -> Vec<Source> {
        let mut dirs = vec![
            "tests".to_string(),
            "examples".to_string(),
            "crates/bench".to_string(),
            "crates/kvs/src".to_string(),
            "crates/baseline/src".to_string(),
            "crates/protocols/src".to_string(),
            "crates/patterns/src".to_string(),
        ];
        let mut crates: Vec<PathBuf> = fs::read_dir(root().join("crates"))
            .expect("crates/ exists")
            .map(|entry| entry.expect("directory entry").path())
            .filter(|dir| dir.join("tests").is_dir())
            .collect();
        crates.sort();
        for dir in crates {
            let name = dir.file_name().expect("a crate directory").to_string_lossy();
            if name != "bench" {
                dirs.push(format!("crates/{name}/tests"));
            }
        }
        rust_sources_under(&dirs.iter().map(String::as_str).collect::<Vec<_>>())
    }

    fn matches(line: &str) -> bool {
        line.contains("thread::spawn") || line.contains("thread::Builder")
    }

    #[test]
    fn holds_in_the_workspace() {
        let sources = governed();
        for path in THREADING_TESTS {
            assert!(
                sources.iter().any(|s| s.path == *path),
                "the rule's file set must include {path}"
            );
        }
        let found = offenders(&sources, THREADING_TESTS, matches);
        assert!(
            found.is_empty(),
            "run these roles through chorus_transport::Cohort:\n{}",
            found.join("\n")
        );
    }

    #[test]
    fn fails_on_a_fixture_that_breaks_it() {
        let sources = [
            fixture(
                "crates/kvs/tests/role_threads.rs",
                "// thread::spawn in a comment is prose.\n\
                 std::thread::scope(|s| { s.spawn(|| ()); });\n\
                 let h = std::thread::spawn(move || run(a));\n",
            ),
            fixture("examples/lottery.rs", "let h = thread::Builder::new().spawn(run);\n"),
            fixture(THREADING_TESTS[1], "let h = std::thread::spawn(move || hammer(t));\n"),
        ];
        assert_eq!(
            offenders(&sources, THREADING_TESTS, matches),
            [
                "crates/kvs/tests/role_threads.rs:3: let h = std::thread::spawn(move || run(a));",
                "examples/lottery.rs:1: let h = thread::Builder::new().spawn(run);",
            ]
        );
    }
}

/// One TCP write path. A link's data frames leave through one vectored
/// write, the batch writer in `tcp/send.rs` that the send path's writer
/// role and the reconnect replay share. Control frames leave through
/// one `write_all`, the length-prefixed frame writer in `tcp/connect.rs`,
/// so a frame's length and body are one write. In the Rust files under
/// `crates/transport/src/tcp` but `tests.rs`, each word appears once.
mod one_tcp_write_path {
    use super::*;

    pub(super) const TESTS: &str = "crates/transport/src/tcp/tests.rs";

    /// Occurrences of `word` as a whole word in `sources` but [`TESTS`],
    /// comments and strings stripped.
    fn count(sources: &[Source], word: &str) -> usize {
        let is_ident = |c: char| c.is_alphanumeric() || c == '_';
        sources
            .iter()
            .filter(|s| s.path != TESTS)
            .map(|source| {
                let code = strip(&source.text);
                code.match_indices(word)
                    .filter(|(at, _)| {
                        !code[..*at].ends_with(is_ident)
                            && !code[at + word.len()..].starts_with(is_ident)
                    })
                    .count()
            })
            .sum()
    }

    fn writers(sources: &[Source]) -> [usize; 2] {
        [count(sources, "write_vectored"), count(sources, "write_all")]
    }

    #[test]
    fn holds_in_the_workspace() {
        let sources = rust_sources_under(&["crates/transport/src/tcp"]);
        assert!(
            sources.iter().any(|s| s.path == TESTS),
            "the rule's file set must include {TESTS}"
        );
        assert_eq!(
            writers(&sources),
            [1, 1],
            "keep one batch writer (write_vectored) and one control-frame writer (write_all) \
             in crates/transport/src/tcp"
        );
    }

    #[test]
    fn fails_on_a_fixture_that_breaks_it() {
        let sources = [
            fixture(
                "crates/transport/src/tcp/send.rs",
                "// write_all in a comment is prose.\n\
                 match stream.write_vectored(slices) {}\n\
                 fn write_all_frames() {}\n",
            ),
            fixture("crates/transport/src/tcp/connect.rs", "out.write_all(wire)?;\n"),
            fixture("crates/transport/src/tcp/recv.rs", "stream.write_all(&ack)?;\n"),
            fixture(TESTS, "sink.write_all(b\"x\")?; sink.write_vectored(&[])?;\n"),
        ];
        assert_eq!(writers(&sources), [1, 2]);
    }
}

/// One send path per projection. `ChoreoOp::try_multicast` is the one
/// send primitive a projection implements; the panicking `multicast` is
/// provided over it, once, in `crates/core/src/choreography.rs`. Nor
/// does a projection answer where it runs or what its transport
/// reaches: under `crates/*/src`, `fn multicast` is declared only in
/// that file, and `fn resident`, `fn multicast_value` and
/// `fn locations` nowhere.
mod one_send_path_per_projection {
    use super::*;

    pub(super) const PRIMITIVES: &str = "crates/core/src/choreography.rs";

    /// Whether `line` declares a function named exactly one of `names`.
    fn declares(line: &str, names: &[&str]) -> bool {
        let words: Vec<&str> = line.split_whitespace().collect();
        words.windows(2).any(|pair| {
            let name = pair[1].split(|c: char| !c.is_alphanumeric() && c != '_').next();
            pair[0] == "fn" && name.is_some_and(|name| names.contains(&name))
        })
    }

    fn offending(sources: &[Source]) -> Vec<String> {
        let mut found = offenders(sources, &[PRIMITIVES], |line| declares(line, &["multicast"]));
        found.extend(offenders(sources, &[], |line| {
            declares(line, &["resident", "multicast_value", "locations"])
        }));
        found
    }

    #[test]
    fn holds_in_the_workspace() {
        let sources = crate_sources();
        assert!(
            sources.iter().any(|s| s.path == PRIMITIVES),
            "the rule's file set must include {PRIMITIVES}"
        );
        let found = offending(&sources);
        assert!(
            found.is_empty(),
            "implement try_multicast, and let ChoreoOp provide multicast over it:\n{}",
            found.join("\n")
        );
    }

    #[test]
    fn fails_on_a_fixture_that_breaks_it() {
        let sources = [
            fixture(
                PRIMITIVES,
                "fn multicast<Sender: ChoreographyLocation>(&self) {}\n\
                 fn resident<Owners: LocationSet>(&self) -> bool;\n",
            ),
            fixture(
                "crates/core/src/session.rs",
                "// fn multicast in a comment is prose.\n\
                 fn multicast<Sender>(&self) {}\n\
                 pub fn multicast_value<'n, V: Portable>(&self) {}\n",
            ),
            fixture("crates/lambda/src/network.rs", "fn multicast_rendezvous_completes() {}\n"),
            fixture("crates/core/src/transport.rs", "    fn locations(&self) -> Vec<&str> {\n"),
        ];
        assert_eq!(
            offending(&sources),
            [
                "crates/core/src/session.rs:2: fn multicast<Sender>(&self) {}",
                "crates/core/src/choreography.rs:2: fn resident<Owners: LocationSet>(&self) -> bool;",
                "crates/core/src/session.rs:3: pub fn multicast_value<'n, V: Portable>(&self) {}",
                "crates/core/src/transport.rs:1: fn locations(&self) -> Vec<&str> {",
            ]
        );
    }
}

/// One location key. A quire holds its values in census order and a
/// faceted value its facets by census position, both found through
/// `LocationSet::{position, name_at}`, so no choreographic operator keys
/// a location by a copy of its name. The name-keyed map format stays
/// deleted: `from_map`, `from_facets` and `into_facets` appear nowhere
/// under `crates/*/src`, and `BTreeMap<String` nowhere under
/// `crates/core/src`.
mod one_location_key {
    use super::*;

    pub(super) const CORE: &str = "crates/core/src/";

    fn map_format(line: &str) -> bool {
        ["from_map", "from_facets", "into_facets"].iter().any(|word| line.contains(word))
    }

    fn name_keyed_map(line: &str) -> bool {
        line.contains("BTreeMap<String")
    }

    fn offending(sources: &[Source]) -> Vec<String> {
        let mut found = offenders(sources, &[], map_format);
        let core = sources.iter().filter(|s| s.path.starts_with(CORE));
        found.extend(offenders(core, &[], name_keyed_map));
        found
    }

    #[test]
    fn holds_in_the_workspace() {
        let sources = crate_sources();
        assert!(
            sources.iter().any(|s| s.path.starts_with(CORE)),
            "the rule's file set must include {CORE}"
        );
        let found = offending(&sources);
        assert!(
            found.is_empty(),
            "key a location by its census position (LocationSet::position), not by its name:\n{}",
            found.join("\n")
        );
    }

    #[test]
    fn fails_on_a_fixture_that_breaks_it() {
        let sources = [
            fixture(
                "crates/core/src/quire.rs",
                "// from_map in a comment is prose.\n\
                 pub fn from_map(map: BTreeMap<String, V>) -> Self {\n",
            ),
            fixture(
                "crates/core/src/faceted.rs",
                "facets: std::collections::BTreeMap<String, V>,\n",
            ),
            fixture(
                "crates/patterns/src/broadcast_gather.rs",
                "let blame: BTreeMap<String, u32> = BTreeMap::new();\n\
                 let quire = Quire::from_map(clean);\n",
            ),
            fixture("crates/core/src/runner.rs", "data.into_facets()\n"),
            fixture("crates/core/src/session.rs", "Faceted::from_facets(facets)\n"),
        ];
        assert_eq!(
            offending(&sources),
            [
                "crates/core/src/quire.rs:2: pub fn from_map(map: BTreeMap<String, V>) -> Self {",
                "crates/patterns/src/broadcast_gather.rs:2: let quire = Quire::from_map(clean);",
                "crates/core/src/runner.rs:1: data.into_facets()",
                "crates/core/src/session.rs:1: Faceted::from_facets(facets)",
                "crates/core/src/quire.rs:2: pub fn from_map(map: BTreeMap<String, V>) -> Self {",
                "crates/core/src/faceted.rs:1: facets: std::collections::BTreeMap<String, V>,",
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
