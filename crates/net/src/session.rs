//! Serving-side connection plumbing shared by the single-campaign
//! [`crate::broker::Broker`] and the multi-campaign `audit-fleet` front
//! door: the nonblocking accept loop with its connection registry, the
//! reader pump that turns a handshaken worker's frames into events, and
//! the chaos-aware `eval` write.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

use audit_core::ga::{Gene, Objectives};
use audit_core::ResilienceReport;
use audit_error::AuditError;

use crate::chaos::FrameFate;
use crate::frame::{read_frame, write_corrupted_frame, write_frame, FrameOutcome};
use crate::proto::Msg;
use crate::transport::{Conn, Listener};

/// A thread polling a listening socket. Every accepted connection is
/// registered so [`Acceptor::release`] can reach it, including ones
/// still mid-handshake — otherwise a late joiner blocks on a read
/// forever.
pub struct Acceptor {
    stop: Arc<AtomicBool>,
    conns: Arc<Mutex<Vec<Conn>>>,
    thread: Option<JoinHandle<()>>,
}

impl Acceptor {
    /// Switches `listener` to nonblocking and polls it on a new thread
    /// (every 20 ms while idle) until [`Acceptor::stop`]. Each accepted
    /// connection is handed to `serve` with its sequence number, which
    /// the callers use as the peer's worker id.
    ///
    /// # Errors
    ///
    /// Returns the error of switching the listener to nonblocking.
    pub fn spawn(
        listener: Listener,
        mut serve: impl FnMut(Conn, u64) + Send + 'static,
    ) -> std::io::Result<Acceptor> {
        match &listener {
            Listener::Tcp(l) => l.set_nonblocking(true)?,
            #[cfg(unix)]
            Listener::Unix(l) => l.set_nonblocking(true)?,
        }
        let stop = Arc::new(AtomicBool::new(false));
        let conns = Arc::new(Mutex::new(Vec::new()));
        let (accept_stop, registry) = (Arc::clone(&stop), Arc::clone(&conns));
        let thread = std::thread::spawn(move || {
            let mut next_id = 0u64;
            while !accept_stop.load(Ordering::SeqCst) {
                match listener.accept() {
                    Ok(conn) => {
                        if let (Ok(clone), Ok(mut registry)) = (conn.try_clone(), registry.lock()) {
                            registry.push(clone);
                        }
                        serve(conn, next_id);
                        next_id += 1;
                    }
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                        std::thread::sleep(Duration::from_millis(20));
                    }
                    Err(_) => std::thread::sleep(Duration::from_millis(100)),
                }
            }
        });
        Ok(Acceptor {
            stop,
            conns,
            thread: Some(thread),
        })
    }

    /// Stops accepting and joins the accept thread. Once it returns the
    /// registry is complete: a peer connecting meanwhile (a worker
    /// rejoining after an eviction or a chaos sever) is registered at
    /// accept time, so nobody misses [`Acceptor::release`].
    pub fn stop(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(thread) = self.thread.take() {
            thread.join().ok();
        }
    }

    /// Sends `Shutdown` on every accepted connection and closes it.
    pub fn release(&mut self) {
        let shutdown = Msg::Shutdown.to_json();
        if let Ok(mut conns) = self.conns.lock() {
            for conn in conns.iter_mut() {
                write_frame(conn, &shutdown).ok();
                conn.shutdown();
            }
            conns.clear();
        }
    }
}

/// What a handshaken worker's connection reports.
#[derive(Debug, Clone, PartialEq)]
pub enum WorkerEvent {
    /// A `result` frame.
    Result {
        /// The request id it answers.
        id: u64,
        /// The (claimed) objective vector.
        objectives: Objectives,
        /// The resilience delta of the evaluation.
        resilience: ResilienceReport,
        /// Answered from the worker's eval cache (observability only).
        cached: bool,
    },
    /// A liveness reply (or unsolicited ping).
    Pong,
    /// The stream ended; always the last event.
    Lost,
}

/// Pumps a handshaken worker's frames into `deliver` until the stream
/// ends or `deliver` returns false (its receiver is gone), then
/// delivers [`WorkerEvent::Lost`]. Clean EOF, a torn tail, a read
/// error, or any frame a worker has no business sending ends the
/// stream; a CRC-rejected frame is dropped and the stream stays alive
/// (the dispatch lease re-issues whatever it carried).
pub fn pump_worker(conn: &mut Conn, mut deliver: impl FnMut(WorkerEvent) -> bool) {
    loop {
        let v = match read_frame(conn) {
            Ok(FrameOutcome::Frame(v)) => v,
            Ok(FrameOutcome::Corrupt) => continue,
            _ => break,
        };
        let event = match Msg::from_json(&v) {
            Ok(Msg::Result {
                id,
                objectives,
                resilience,
                cached,
            }) => WorkerEvent::Result {
                id,
                objectives,
                resilience,
                cached,
            },
            Ok(Msg::Pong | Msg::Ping) => WorkerEvent::Pong,
            _ => break,
        };
        if !deliver(event) {
            break;
        }
    }
    deliver(WorkerEvent::Lost);
}

/// Writes one `Eval` frame under its chaos fate: nothing for
/// [`FrameFate::Drop`] (the sender still counts it as out; the dispatch
/// lease recovers it), one bit-flipped frame for
/// [`FrameFate::Corrupt`], the frame twice for
/// [`FrameFate::Duplicate`]. With chaos disabled the fate is always
/// [`FrameFate::Deliver`] and the bytes are untouched.
///
/// # Errors
///
/// Returns [`AuditError::Io`] on a socket write failure — the caller's
/// signal that the worker is lost.
pub fn send_eval(
    conn: &mut Conn,
    id: u64,
    genome: &[Gene],
    fate: FrameFate,
    flip: u64,
) -> Result<(), AuditError> {
    if fate == FrameFate::Drop {
        return Ok(());
    }
    let frame = Msg::Eval {
        id,
        genome: genome.to_vec(),
    }
    .to_json();
    match fate {
        FrameFate::Corrupt => write_corrupted_frame(conn, &frame, flip),
        FrameFate::Duplicate => write_frame(conn, &frame).and_then(|()| write_frame(conn, &frame)),
        _ => write_frame(conn, &frame),
    }
}
