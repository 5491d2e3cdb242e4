//! Load generators.  An open loop sends on a schedule whatever the
//! system does, and times each request from when it was due, so a stall
//! also delays the requests queued behind it.  A closed loop sends a
//! client's next request only once the previous one has returned.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// When one request was due, sent and answered, relative to the start of
/// its phase.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Timing {
    /// When the schedule said to send it (equals `sent` in a closed loop).
    pub due: Duration,
    /// When a sender actually sent it.
    pub sent: Duration,
    /// When its answer (or error) came back.
    pub done: Duration,
}

impl Timing {
    /// What the user sees: answer time minus due time.
    pub fn latency(&self) -> Duration {
        self.done.saturating_sub(self.due)
    }

    /// How late the generator sent it.
    pub fn lag(&self) -> Duration {
        self.sent.saturating_sub(self.due)
    }

    /// Time the system spent on it once sent.
    pub fn service(&self) -> Duration {
        self.done.saturating_sub(self.sent)
    }
}

/// One scheduled request: its timing and the operation's output, `None`
/// when it was refused for being more than `give_up` late.
pub type Sent<R> = (Timing, Option<R>);

/// Sends request `i` at `schedule[i]` from up to `senders` threads, each
/// taking the next due request once it is free.  A request whose send
/// would be more than `give_up` behind schedule is refused instead (it
/// counts as failed), so a stalled system cannot stretch a run without
/// bound.  Results come back in schedule order.
pub fn open_loop<R: Send>(
    schedule: &[Duration],
    senders: usize,
    give_up: Duration,
    op: impl Fn(usize) -> R + Sync,
) -> Vec<Sent<R>> {
    let next = AtomicUsize::new(0);
    let out: Mutex<Vec<(usize, Sent<R>)>> = Mutex::new(Vec::with_capacity(schedule.len()));
    let start = Instant::now();
    std::thread::scope(|scope| {
        for _ in 0..senders.max(1) {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(&due) = schedule.get(i) else { break };
                if let Some(wait) = due.checked_sub(start.elapsed()) {
                    std::thread::sleep(wait);
                }
                let sent = start.elapsed();
                let result = if sent.saturating_sub(due) > give_up {
                    None
                } else {
                    Some(op(i))
                };
                let done = start.elapsed();
                let timing = Timing { due, sent, done };
                out.lock().expect("result lock").push((i, (timing, result)));
            });
        }
    });
    let mut out = out.into_inner().expect("result lock");
    out.sort_by_key(|(i, _)| *i);
    out.into_iter().map(|(_, sent)| sent).collect()
}

/// Runs requests `0, 1, 2, …` from `clients` threads, each sending its
/// next request when the previous one returns, until `duration` has
/// passed or `count` requests were taken.  Returns the completed
/// requests in index order and the phase's wall time.
pub fn closed_loop<R: Send>(
    clients: usize,
    duration: Duration,
    count: usize,
    op: impl Fn(usize) -> R + Sync,
) -> (Vec<(Timing, R)>, Duration) {
    let next = AtomicUsize::new(0);
    let out: Mutex<Vec<(usize, Timing, R)>> = Mutex::new(Vec::new());
    let start = Instant::now();
    std::thread::scope(|scope| {
        for _ in 0..clients.max(1) {
            scope.spawn(|| loop {
                let sent = start.elapsed();
                if sent >= duration {
                    break;
                }
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= count {
                    break;
                }
                let result = op(i);
                let done = start.elapsed();
                let timing = Timing {
                    due: sent,
                    sent,
                    done,
                };
                out.lock().expect("result lock").push((i, timing, result));
            });
        }
    });
    let elapsed = start.elapsed();
    let mut out = out.into_inner().expect("result lock");
    out.sort_by_key(|(i, _, _)| *i);
    (out.into_iter().map(|(_, t, r)| (t, r)).collect(), elapsed)
}
