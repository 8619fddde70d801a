//! The four table binaries print the paper's message-count experiments
//! and end in an `assert!` of the paper's shape. This runs each one,
//! requires a clean exit, and compares what it printed against golden
//! text under `tests/golden/`: byte for byte where the output repeats
//! exactly, and with the wall-clock column or the randomized fairness
//! block taken out where it does not.

use std::process::Command;

/// Runs a table binary and returns its stdout, which must be UTF-8 from
/// a successful exit.
fn run(binary: &str) -> String {
    let output = Command::new(binary).output().expect("the table binary starts");
    assert!(
        output.status.success(),
        "{binary} failed: {}\n{}",
        output.status,
        String::from_utf8_lossy(&output.stderr)
    );
    String::from_utf8(output.stdout).expect("tables print UTF-8")
}

/// Keeps the lines `keep` accepts, each rewritten by it.
fn lines(text: &str, keep: impl Fn(&str) -> Option<String>) -> String {
    text.lines().filter_map(keep).map(|line| line + "\n").collect()
}

#[test]
fn table1_matches_its_golden_text() {
    assert_eq!(run(env!("CARGO_BIN_EXE_table1")), include_str!("golden/table1.txt"));
}

#[test]
fn koc_messages_matches_its_golden_text() {
    assert_eq!(run(env!("CARGO_BIN_EXE_koc_messages")), include_str!("golden/koc_messages.txt"));
}

/// Every column but `time (µs)`: a data row is six fields opening with
/// the party count, and the fifth is the time.
#[test]
fn gmw_table_matches_its_golden_text_but_for_time() {
    let out = lines(&run(env!("CARGO_BIN_EXE_gmw_table")), |line| {
        let fields: Vec<&str> = line.split_whitespace().collect();
        Some(match fields.as_slice() {
            [parties, circuit, and_gates, messages, _time, correct]
                if parties.parse::<usize>().is_ok() =>
            {
                [*parties, circuit, and_gates, messages, correct].join(" ")
            }
            _ => line.to_string(),
        })
    });
    assert_eq!(out, include_str!("golden/gmw_table.txt"));
}

/// The scaling table and the shape checks; the fairness histogram's
/// counts change from run to run.
#[test]
fn lottery_table_matches_its_golden_text_but_for_fairness_draws() {
    let out = lines(&run(env!("CARGO_BIN_EXE_lottery_table")), |line| {
        let drawn = line.starts_with("Fairness over") || line.starts_with("  secret ");
        (!drawn).then(|| line.to_string())
    });
    assert_eq!(out, include_str!("golden/lottery_table.txt"));
}
