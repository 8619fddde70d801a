//! Experiment E5: the DPrio lottery (paper §6, Appendix C,
//! Figs. 12–13) — message scaling, fairness, and cheater detection.
//!
//! * Message counts as clients × servers grow: sharing costs
//!   #clients·#servers, commitments/openings cost 3·#servers·(#servers−1),
//!   the analyst receives exactly #servers shares.
//! * Fairness: over many centralized runs, every client's secret is
//!   selected at a frequency close to uniform (as long as ≥1 server is
//!   honest).
//! * A cheating server (opening a value it did not commit) is always
//!   detected.
//!
//! Run with: `cargo run -p chorus-bench --bin lottery_table`

use chorus_bench::run_lottery;
use chorus_core::{Faceted, Quire, Runner};
use chorus_mpc::field::FLOTTERY;
use chorus_protocols::lottery::{Lottery, LotteryError};
use chorus_protocols::roles::{Analyst, C1, C2, C3, C4, S1, S2, S3, S4};
use std::collections::BTreeMap;
use std::marker::PhantomData;

fn secrets(names: &[&str]) -> BTreeMap<String, u64> {
    names.iter().enumerate().map(|(i, n)| (n.to_string(), 1000 + i as u64)).collect()
}

fn honest(names: &[&str]) -> BTreeMap<String, bool> {
    names.iter().map(|n| (n.to_string(), false)).collect()
}

struct Row {
    clients: usize,
    servers: usize,
    messages: u64,
    to_analyst: u64,
    result_ok: bool,
}

macro_rules! measure {
    ($rows:ident, $cnames:expr, $snames:expr, [$($client:ty),*], [$($server:ty),*]) => {{
        let cnames: &[&str] = $cnames;
        let snames: &[&str] = $snames;
        let secret_map = secrets(cnames);
        let values: Vec<u64> = secret_map.values().copied().collect();
        let (result, metrics) = run_lottery!(
            clients = [$($client),*],
            servers = [$($server),*],
            secrets = secret_map,
            tau = 1000,
            cheaters = honest(snames)
        );
        $rows.push(Row {
            clients: cnames.len(),
            servers: snames.len(),
            messages: metrics.total_messages(),
            to_analyst: metrics.messages_to("Analyst"),
            result_ok: matches!(result, Ok(v) if values.contains(&v)),
        });
    }};
}

fn fairness_histogram(trials: usize) -> BTreeMap<u64, usize> {
    type Clients = chorus_core::LocationSet!(C1, C2, C3);
    type Servers = chorus_core::LocationSet!(S1, S2);
    type Census = chorus_core::LocationSet!(Analyst, C1, C2, C3, S1, S2);
    let runner: Runner<Census> = Runner::new();
    let secret_map = secrets(&["C1", "C2", "C3"]);
    let mut histogram = BTreeMap::new();
    for _ in 0..trials {
        let secrets: Faceted<FLOTTERY, Clients> =
            runner.faceted(Quire::build(|name| FLOTTERY::new(secret_map[name])));
        let cheaters: Faceted<bool, Servers> = runner.faceted(Quire::build(|_| false));
        let out = runner.run(Lottery::<Clients, Servers, Census, _, _, _, _, _, _, _> {
            secrets: &secrets,
            tau: 300,
            cheaters: &cheaters,
            phantom: PhantomData,
        });
        let winner = runner.unwrap_located(out).expect("honest run succeeds");
        *histogram.entry(winner).or_insert(0) += 1;
    }
    histogram
}

fn main() {
    let mut rows: Vec<Row> = Vec::new();
    measure!(rows, &["C1", "C2"], &["S1", "S2"], [C1, C2], [S1, S2]);
    measure!(rows, &["C1", "C2", "C3"], &["S1", "S2"], [C1, C2, C3], [S1, S2]);
    measure!(rows, &["C1", "C2", "C3", "C4"], &["S1", "S2", "S3"], [C1, C2, C3, C4], [S1, S2, S3]);
    measure!(
        rows,
        &["C1", "C2", "C3", "C4"],
        &["S1", "S2", "S3", "S4"],
        [C1, C2, C3, C4],
        [S1, S2, S3, S4]
    );

    println!("E5 — DPrio lottery: message scaling (distributed, instrumented transport)");
    println!();
    println!(
        "{:>8} {:>8} {:>10} {:>12} {:>8}",
        "clients", "servers", "messages", "to analyst", "ok"
    );
    println!("{}", "-".repeat(52));
    for row in &rows {
        println!(
            "{:>8} {:>8} {:>10} {:>12} {:>8}",
            row.clients, row.servers, row.messages, row.to_analyst, row.result_ok
        );
    }

    println!();
    let trials = 600;
    let histogram = fairness_histogram(trials);
    println!("Fairness over {trials} centralized runs (3 clients, secrets 1000–1002):");
    for (winner, count) in &histogram {
        println!("  secret {winner}: {count} wins ({:.1}%)", 100.0 * *count as f64 / trials as f64);
    }

    // Cheater detection.
    let mut cheaters = honest(&["S1", "S2"]);
    cheaters.insert("S2".to_string(), true);
    let (cheated, _) = run_lottery!(
        clients = [C1, C2],
        servers = [S1, S2],
        secrets = secrets(&["C1", "C2"]),
        tau = 1000,
        cheaters = cheaters
    );

    println!();
    println!("Shape checks:");
    let all_ok = rows.iter().all(|r| r.result_ok);
    println!(
        "  [{}] the analyst always reconstructs one of the client secrets",
        if all_ok { "ok" } else { "FAIL" }
    );
    let analyst_exact = rows.iter().all(|r| r.to_analyst == r.servers as u64);
    println!(
        "  [{}] the analyst receives exactly one share per server",
        if analyst_exact { "ok" } else { "FAIL" }
    );
    let fair = histogram.len() == 3
        && histogram.values().all(|c| {
            let frac = *c as f64 / trials as f64;
            (0.2..=0.47).contains(&frac)
        });
    println!("  [{}] every client wins at a near-uniform rate", if fair { "ok" } else { "FAIL" });
    let caught = cheated == Err(LotteryError::CommitmentFailed);
    println!(
        "  [{}] a cheating server is detected by commitment verification",
        if caught { "ok" } else { "FAIL" }
    );
    assert!(all_ok && analyst_exact && fair && caught, "shape check failed");
}
