//! The send side's one background thread per endpoint: the link
//! supervisor (heartbeats, teardown of half-dead links, background
//! reconnects).

use super::connect::{establish, write_control};
use super::send::{kill_stream, LinkCell, SendShared};
use chorus_wire::ControlFrame;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Instant;

/// Unanswered heartbeat probes before an established link is presumed
/// half-dead and torn down for replay.
const DEAD_AFTER_PINGS: u32 = 3;

/// The per-endpoint link supervisor: heartbeats established links,
/// tears down half-dead ones, and re-establishes broken links in the
/// background so retained frames replay even when the application has
/// nothing new to send.
pub(super) fn supervisor_loop(shared: Arc<SendShared>) {
    let tick = shared.tuning.supervisor_tick();
    while !shared.stop.load(Ordering::Relaxed) {
        std::thread::sleep(tick);
        if shared.stop.load(Ordering::Relaxed) {
            return;
        }
        let links: Vec<(&'static str, Arc<LinkCell>)> =
            shared.links.lock().iter().map(|(to, handle)| (*to, Arc::clone(handle))).collect();
        for (to, handle) in links {
            // A contended link is being actively worked (a sender in
            // `establish`, an ack reader pruning); blocking the whole
            // sweep on it would starve every other link of heartbeats
            // and misread their silence as deadness. Skip and revisit.
            let Some(mut link) = handle.try_lock() else { continue };
            if link.down.is_some() {
                continue;
            }
            if link.stream.is_some() {
                if link.pings_unanswered >= DEAD_AFTER_PINGS
                    && link.last_heard.elapsed() >= shared.tuning.dead_after()
                {
                    // Probes went out and nothing came back: presumed
                    // half-dead (e.g. one direction blackholed). Tear it
                    // down; replay brings the retained tail back on the
                    // next connection.
                    kill_stream(&mut link);
                } else if !link.writing && link.last_ping.elapsed() >= shared.tuning.heartbeat {
                    // While a writer is mid-batch outside the lock, a
                    // ping written now would land inside its batch; the
                    // link is busy anyway, so the probe waits.
                    link.nonce += 1;
                    let ping = ControlFrame::Ping { nonce: link.nonce };
                    let stream = link.stream.as_deref().expect("checked above");
                    if write_control(stream, &ping).is_ok() {
                        link.last_ping = Instant::now();
                        link.pings_unanswered += 1;
                        shared.stats.heartbeats.fetch_add(1, Ordering::Relaxed);
                    } else {
                        kill_stream(&mut link);
                    }
                }
            } else if !link.unacked.is_empty() {
                // A receiver is owed frames we still retain: reconnect in
                // short bursts (the cumulative budget lives in the
                // outage) without monopolizing the sweep.
                let _ = establish(&shared, to, &handle, &mut link, Some(2));
            }
        }
    }
}
