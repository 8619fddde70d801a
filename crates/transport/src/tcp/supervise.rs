//! The link supervisor, one thread per endpoint: heartbeats, teardown of
//! half-dead links, background reconnects, and the writer of last resort
//! for control frames owed on a link nobody else is writing.

use super::connect::establish;
use super::send::{kill_stream, take_writer_role, Shared};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Instant;

/// Unanswered heartbeat probes before an established link is presumed
/// half-dead and torn down for replay.
const DEAD_AFTER_PINGS: u32 = 3;

/// The per-endpoint link supervisor. Each sweep heartbeats established
/// links, tears down half-dead ones, and re-establishes broken links in
/// the background so retained frames replay even when the application
/// has nothing new to send. Between sweeps it waits for a summons: a
/// reader that owes the peer a pong, or an ack no batch has carried,
/// calls it to write them.
pub(super) fn supervisor_loop(shared: Arc<Shared>) {
    let tick = shared.tuning.supervisor_tick();
    let mut sweep_at = Instant::now() + tick;
    loop {
        shared.supervisor.wait(sweep_at);
        if shared.stop.load(Ordering::Relaxed) {
            return;
        }
        let sweep = Instant::now() >= sweep_at;
        if sweep {
            sweep_at = Instant::now() + tick;
        }
        for handle in shared.all_links() {
            // A contended link is being actively worked (a sender
            // writing, a reader pruning); blocking the whole sweep on it
            // would starve every other link of heartbeats and misread
            // their silence as deadness. Skip and revisit.
            let Some(mut link) = handle.try_lock() else { continue };
            if link.down.is_some() {
                continue;
            }
            if link.stream.is_some() {
                if sweep {
                    if link.pings_unanswered >= DEAD_AFTER_PINGS
                        && link.last_heard.elapsed() >= shared.tuning.dead_after()
                    {
                        // Probes went out and nothing came back: presumed
                        // half-dead (e.g. one direction blackholed). Tear
                        // it down; replay brings the retained tail back on
                        // the next connection.
                        kill_stream(&mut link);
                        continue;
                    }
                    if !link.owe_ping && link.last_ping.elapsed() >= shared.tuning.heartbeat {
                        // The probe rides the link's next batch, so it
                        // never lands inside another writer's batch.
                        link.owe_ping = true;
                    }
                }
                if link.needs_writer() {
                    // A failure leaves the link to the next sweep.
                    drop(take_writer_role(&shared, &handle, link));
                }
            } else if sweep && !link.unacked.is_empty() {
                // A receiver is owed frames we still retain: reconnect in
                // short bursts (the cumulative budget lives in the
                // outage) without monopolizing the sweep.
                let _ = establish(&shared, &handle, link, Some(2));
            }
        }
    }
}
