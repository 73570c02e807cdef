//! Live campaign progress: per-worker heartbeats, campaign ETA and the
//! stall watchdog.
//!
//! Long-running campaigns (the §7 ATPG loop, characterization sweeps,
//! parallel STA passes) register one [`Heartbeat`] per worker. Each
//! heartbeat cell holds the worker's last-beat timestamp, the id of the
//! work item it is on, and a done counter — all plain relaxed atomics, so
//! the `/metrics` and `/healthz` exporters read them without pausing any
//! worker.
//!
//! The layer has its **own** enable flag, independent of
//! [`crate::enabled`]: while off, [`heartbeat`] and [`set_campaign`] are
//! a single relaxed atomic load each and return inert handles — no
//! allocation, no lock, no thread registration — so campaign outcomes
//! stay bit-identical and the hot path keeps its disabled-cost invariant.
//!
//! A [`Watchdog`] thread (started explicitly, never by the engines) scans
//! the live heartbeats and *flags* any worker silent beyond a
//! configurable interval: it bumps the `stall.detected` counter, emits a
//! [`crate::Event::WorkerStall`] provenance event and invokes an optional
//! callback exactly once per stall — it never kills or restarts work. A
//! worker that beats again is unflagged, so a second stall is reported
//! again.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};
use std::time::Duration;

use crate::event::Event;
use crate::registry::Registry;

/// Sentinel for "no current work item".
const NO_ITEM: u64 = u64::MAX;

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// One worker's heartbeat cell. All fields are relaxed atomics: readers
/// (exporters, the watchdog) see a near-instant view without ever
/// blocking the worker.
struct HeartbeatCell {
    /// Stable registration index (provenance events refer to it).
    index: u64,
    /// Worker name, e.g. `atpg.worker.3`.
    name: String,
    /// Registry-epoch nanoseconds of the last beat (0 = never beat).
    last_beat_ns: AtomicU64,
    /// Work items completed by this worker.
    done: AtomicU64,
    /// Id of the item currently being worked ([`NO_ITEM`] when idle).
    current: AtomicU64,
    /// Worker finished cleanly (watchdog ignores it).
    finished: AtomicBool,
    /// Stall already reported (cleared by the next beat).
    stall_flagged: AtomicBool,
}

/// The process-wide progress state.
struct ProgressState {
    enabled: AtomicBool,
    /// Heartbeat cells keyed by worker name: a worker re-registering
    /// under the same name (per-level STA pools, repeated campaigns)
    /// reuses its cell, so `done` keeps accumulating.
    workers: Mutex<Vec<Arc<HeartbeatCell>>>,
    /// Campaign size announced by [`set_campaign`] (0 = no campaign).
    campaign_total: AtomicU64,
    /// Registry-epoch nanoseconds of the campaign start.
    campaign_start_ns: AtomicU64,
    /// Items every cell had completed when the campaign was announced;
    /// the campaign's own progress is the sum above this base.
    campaign_base: AtomicU64,
}

fn state() -> &'static ProgressState {
    static STATE: OnceLock<ProgressState> = OnceLock::new();
    STATE.get_or_init(|| ProgressState {
        enabled: AtomicBool::new(false),
        workers: Mutex::new(Vec::new()),
        campaign_total: AtomicU64::new(0),
        campaign_start_ns: AtomicU64::new(0),
        campaign_base: AtomicU64::new(0),
    })
}

/// Whether the progress layer records heartbeats.
#[inline]
pub fn enabled() -> bool {
    state().enabled.load(Ordering::Relaxed)
}

/// Turns heartbeat/campaign recording on or off. Independent of
/// [`crate::enabled`], so serving live telemetry does not force span
/// recording (and vice versa).
pub fn set_enabled(on: bool) {
    state().enabled.store(on, Ordering::Relaxed);
}

/// Clears all heartbeat cells and the campaign descriptor. Called by
/// [`crate::reset`]; the enable flag survives.
pub fn clear() {
    let s = state();
    lock(&s.workers).clear();
    s.campaign_total.store(0, Ordering::Relaxed);
    s.campaign_start_ns.store(0, Ordering::Relaxed);
    s.campaign_base.store(0, Ordering::Relaxed);
}

/// Handle a worker beats on. Inert (and free) while the progress layer
/// is disabled.
#[derive(Debug)]
pub struct Heartbeat {
    cell: Option<Arc<HeartbeatCell>>,
}

impl std::fmt::Debug for HeartbeatCell {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("HeartbeatCell")
            .field("name", &self.name)
            .field("done", &self.done.load(Ordering::Relaxed))
            .finish()
    }
}

impl Heartbeat {
    /// Records a beat: the worker is alive and starting work item `item`.
    /// Clears any pending stall flag, so a recovered worker can be
    /// re-flagged by a later stall.
    #[inline]
    pub fn beat(&self, item: u64) {
        if let Some(cell) = &self.cell {
            cell.last_beat_ns
                .store(Registry::global().now_ns().max(1), Ordering::Relaxed);
            cell.current.store(item, Ordering::Relaxed);
            cell.stall_flagged.store(false, Ordering::Relaxed);
        }
    }

    /// Marks one work item complete (also beats).
    #[inline]
    pub fn done(&self) {
        if let Some(cell) = &self.cell {
            cell.done.fetch_add(1, Ordering::Relaxed);
            cell.current.store(NO_ITEM, Ordering::Relaxed);
            cell.last_beat_ns
                .store(Registry::global().now_ns().max(1), Ordering::Relaxed);
            cell.stall_flagged.store(false, Ordering::Relaxed);
        }
    }

    /// Marks the worker cleanly finished: the watchdog stops watching it
    /// and `/healthz` reports it as done rather than idle.
    pub fn finish(&self) {
        if let Some(cell) = &self.cell {
            cell.current.store(NO_ITEM, Ordering::Relaxed);
            cell.finished.store(true, Ordering::Relaxed);
        }
    }
}

/// Registers (or re-attaches to) the heartbeat cell named by `name`.
///
/// While the progress layer is disabled this is a single relaxed atomic
/// load: `name` is **not** invoked and the returned handle is inert.
/// Re-registering an existing name reuses its cell — per-level worker
/// pools and repeated campaigns keep accumulating into the same lane —
/// and clears its `finished` flag.
pub fn heartbeat(name: impl FnOnce() -> String) -> Heartbeat {
    let s = state();
    if !s.enabled.load(Ordering::Relaxed) {
        return Heartbeat { cell: None };
    }
    let name = name();
    let mut workers = lock(&s.workers);
    let cell = match workers.iter().find(|c| c.name == name) {
        Some(cell) => Arc::clone(cell),
        None => {
            let cell = Arc::new(HeartbeatCell {
                index: workers.len() as u64,
                name,
                last_beat_ns: AtomicU64::new(0),
                done: AtomicU64::new(0),
                current: AtomicU64::new(NO_ITEM),
                finished: AtomicBool::new(false),
                stall_flagged: AtomicBool::new(false),
            });
            workers.push(Arc::clone(&cell));
            cell
        }
    };
    cell.finished.store(false, Ordering::Relaxed);
    Heartbeat { cell: Some(cell) }
}

/// Announces a campaign of `total` work items: stamps the start time and
/// the items completed so far, so [`campaign_progress`] can count this
/// campaign's items and derive an ETA. A no-op (one relaxed load) while
/// the layer is disabled.
///
/// Heartbeat cells are kept: another campaign running in the same
/// process (or one that just finished and is being scraped) must not
/// lose its workers. Only [`clear`] removes cells.
pub fn set_campaign(total: u64) {
    let s = state();
    if !s.enabled.load(Ordering::Relaxed) {
        return;
    }
    let base = lock(&s.workers)
        .iter()
        .map(|c| c.done.load(Ordering::Relaxed))
        .sum();
    s.campaign_base.store(base, Ordering::Relaxed);
    s.campaign_total.store(total, Ordering::Relaxed);
    s.campaign_start_ns
        .store(Registry::global().now_ns().max(1), Ordering::Relaxed);
}

/// Point-in-time liveness view of one worker.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WorkerHealth {
    /// Registration index (stable for the campaign; provenance events
    /// carry it).
    pub index: u64,
    /// Worker name (e.g. `atpg.worker.3`).
    pub name: String,
    /// Nanoseconds since the last beat (`None` if it never beat).
    pub idle_ns: Option<u64>,
    /// Work items completed.
    pub done: u64,
    /// Id of the item currently in progress, if any.
    pub current: Option<u64>,
    /// Worker finished cleanly.
    pub finished: bool,
    /// Currently flagged as stalled by the watchdog.
    pub stalled: bool,
}

/// Snapshots every registered worker's liveness.
pub fn worker_health() -> Vec<WorkerHealth> {
    let now = Registry::global().now_ns();
    lock(&state().workers)
        .iter()
        .map(|cell| {
            let last = cell.last_beat_ns.load(Ordering::Relaxed);
            let current = cell.current.load(Ordering::Relaxed);
            WorkerHealth {
                index: cell.index,
                name: cell.name.clone(),
                idle_ns: (last != 0).then(|| now.saturating_sub(last)),
                done: cell.done.load(Ordering::Relaxed),
                current: (current != NO_ITEM).then_some(current),
                finished: cell.finished.load(Ordering::Relaxed),
                stalled: cell.stall_flagged.load(Ordering::Relaxed),
            }
        })
        .collect()
}

/// Point-in-time campaign progress.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CampaignProgress {
    /// Work items announced by [`set_campaign`].
    pub total: u64,
    /// Items completed since the campaign was announced, summed over
    /// every worker — a site retired by fault dropping counts the moment
    /// the claiming worker skips it, which is what makes the ETA track
    /// the drop rate.
    pub done: u64,
    /// Nanoseconds since the campaign was announced.
    pub elapsed_ns: u64,
    /// Estimated nanoseconds to completion, extrapolated from the
    /// campaign-average completion rate (`None` until one item is done).
    pub eta_ns: Option<u64>,
}

impl CampaignProgress {
    /// Completed fraction in `[0, 1]`.
    pub fn fraction(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            (self.done.min(self.total)) as f64 / self.total as f64
        }
    }
}

/// The current campaign's progress, or `None` when no campaign was
/// announced (or the layer is disabled).
pub fn campaign_progress() -> Option<CampaignProgress> {
    let s = state();
    let total = s.campaign_total.load(Ordering::Relaxed);
    let start = s.campaign_start_ns.load(Ordering::Relaxed);
    if total == 0 || start == 0 {
        return None;
    }
    let done = lock(&s.workers)
        .iter()
        .map(|c| c.done.load(Ordering::Relaxed))
        .sum::<u64>()
        .saturating_sub(s.campaign_base.load(Ordering::Relaxed));
    let elapsed_ns = Registry::global().now_ns().saturating_sub(start);
    let eta_ns = (done > 0).then(|| {
        let remaining = total.saturating_sub(done);
        ((elapsed_ns as f64 / done as f64) * remaining as f64) as u64
    });
    Some(CampaignProgress {
        total,
        done,
        elapsed_ns,
        eta_ns,
    })
}

/// Handle to the running stall watchdog; dropping it stops the thread.
#[derive(Debug)]
pub struct Watchdog {
    stop: Arc<AtomicBool>,
    thread: Option<std::thread::JoinHandle<()>>,
}

/// Callback the watchdog invokes once per detected stall (the library
/// never prints; a front-end supplies the log line).
pub type StallCallback = Box<dyn Fn(&WorkerHealth) + Send>;

impl Watchdog {
    /// Stops the watchdog thread and waits for it to exit.
    pub fn stop(mut self) {
        self.shutdown();
    }

    fn shutdown(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(thread) = self.thread.take() {
            thread.thread().unpark();
            let _ = thread.join();
        }
    }
}

impl Drop for Watchdog {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Starts the stall watchdog: a thread that wakes a few times per
/// `stall_after` interval and flags every unfinished worker whose last
/// beat is older than `stall_after`. Flagging bumps the `stall.detected`
/// counter, emits a [`Event::WorkerStall`] provenance event (when events
/// are enabled) and invokes `on_stall` — once per stall; the flag clears
/// when the worker beats again. The watchdog only ever *observes*: it
/// never kills, restarts or deprioritises work.
pub fn start_watchdog(stall_after: Duration, on_stall: Option<StallCallback>) -> Watchdog {
    let stop = Arc::new(AtomicBool::new(false));
    let stop_flag = Arc::clone(&stop);
    let poll = (stall_after / 4).max(Duration::from_millis(10));
    let stall_ns = stall_after.as_nanos() as u64;
    let thread = std::thread::Builder::new()
        .name("ssdm-obs-watchdog".to_string())
        .spawn(move || {
            let detected = crate::counter("stall.detected");
            while !stop_flag.load(Ordering::Relaxed) {
                scan_for_stalls(stall_ns, &detected, on_stall.as_deref());
                std::thread::park_timeout(poll);
            }
        })
        .expect("spawn watchdog thread");
    Watchdog {
        stop,
        thread: Some(thread),
    }
}

/// One watchdog scan over the live heartbeat cells.
fn scan_for_stalls(
    stall_ns: u64,
    detected: &crate::Counter,
    on_stall: Option<&(dyn Fn(&WorkerHealth) + Send)>,
) {
    let now = Registry::global().now_ns();
    // Clone the cells out so the registration lock is not held while the
    // callback runs.
    let cells: Vec<Arc<HeartbeatCell>> = lock(&state().workers).iter().map(Arc::clone).collect();
    for cell in cells {
        let last = cell.last_beat_ns.load(Ordering::Relaxed);
        if last == 0 || cell.finished.load(Ordering::Relaxed) {
            continue;
        }
        let idle = now.saturating_sub(last);
        if idle < stall_ns {
            continue;
        }
        // `swap` makes the flag transition exclusive: counter, event and
        // callback fire once per stall even with overlapping scans.
        if cell.stall_flagged.swap(true, Ordering::Relaxed) {
            continue;
        }
        detected.incr();
        crate::event(|| Event::WorkerStall {
            worker: cell.index as u32,
            idle_ms: idle / 1_000_000,
        });
        if let Some(callback) = on_stall {
            callback(&WorkerHealth {
                index: cell.index,
                name: cell.name.clone(),
                idle_ns: Some(idle),
                done: cell.done.load(Ordering::Relaxed),
                current: {
                    let c = cell.current.load(Ordering::Relaxed);
                    (c != NO_ITEM).then_some(c)
                },
                finished: false,
                stalled: true,
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_heartbeats_are_inert_and_allocation_free() {
        let _guard = crate::tests::serial();
        crate::reset();
        set_enabled(false);
        let named = std::cell::Cell::new(false);
        let hb = heartbeat(|| {
            named.set(true);
            "test.worker".to_string()
        });
        assert!(!named.get(), "disabled heartbeat() must not build the name");
        hb.beat(1);
        hb.done();
        set_campaign(100);
        assert!(worker_health().is_empty());
        assert!(campaign_progress().is_none());
    }

    #[test]
    fn heartbeats_register_beat_and_reuse_names() {
        let _guard = crate::tests::serial();
        crate::reset();
        set_enabled(true);
        set_campaign(10);
        let a = heartbeat(|| "test.worker.0".to_string());
        a.beat(3);
        a.done();
        a.finish();
        // Re-attaching under the same name reuses the cell and clears
        // `finished`.
        let b = heartbeat(|| "test.worker.0".to_string());
        b.done();
        let health = worker_health();
        assert_eq!(health.len(), 1);
        assert_eq!(health[0].name, "test.worker.0");
        assert_eq!(health[0].done, 2);
        assert!(!health[0].finished);
        assert!(health[0].idle_ns.is_some());
        let progress = campaign_progress().expect("campaign announced");
        assert_eq!(progress.total, 10);
        assert_eq!(progress.done, 2);
        assert!(progress.eta_ns.is_some());
        assert!((progress.fraction() - 0.2).abs() < 1e-12);
        set_enabled(false);
        crate::reset();
        assert!(worker_health().is_empty(), "reset clears heartbeat cells");
    }

    #[test]
    fn a_new_campaign_keeps_earlier_workers_and_counts_only_its_own_items() {
        let _guard = crate::tests::serial();
        crate::reset();
        set_enabled(true);
        set_campaign(4);
        let first = heartbeat(|| "test.campaign.first".to_string());
        first.done();
        first.done();
        first.finish();
        // A second campaign must not blank the first one's lane: a scrape
        // of the finished campaign still sees its worker.
        set_campaign(3);
        let health = worker_health();
        assert_eq!(health.len(), 1);
        assert_eq!(health[0].done, 2);
        assert_eq!(campaign_progress().expect("announced").done, 0);
        let second = heartbeat(|| "test.campaign.second".to_string());
        second.done();
        let progress = campaign_progress().expect("announced");
        assert_eq!((progress.total, progress.done), (3, 1));
        assert_eq!(worker_health().len(), 2);
        set_enabled(false);
        crate::reset();
    }

    #[test]
    fn watchdog_flags_silent_workers_once_and_unflags_on_beat() {
        let _guard = crate::tests::serial();
        crate::reset();
        set_enabled(true);
        let hb = heartbeat(|| "test.stall.worker".to_string());
        hb.beat(0);
        let stalls = Arc::new(AtomicU64::new(0));
        let seen = Arc::clone(&stalls);
        let dog = start_watchdog(
            Duration::from_millis(30),
            Some(Box::new(move |w| {
                assert_eq!(w.name, "test.stall.worker");
                assert!(w.stalled);
                seen.fetch_add(1, Ordering::Relaxed);
            })),
        );
        // Wait for the flag (beat is 30 ms stale after ~3 polls).
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while stalls.load(Ordering::Relaxed) == 0 && std::time::Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(5));
        }
        assert_eq!(stalls.load(Ordering::Relaxed), 1, "stall flagged");
        assert_eq!(crate::counter_total("stall.detected"), 1);
        assert!(worker_health()[0].stalled);
        // Flagging is once-per-stall: another few polls add nothing.
        std::thread::sleep(Duration::from_millis(60));
        assert_eq!(stalls.load(Ordering::Relaxed), 1, "logged once");
        // A beat unflags; the next silence re-flags.
        hb.beat(1);
        assert!(!worker_health()[0].stalled);
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while stalls.load(Ordering::Relaxed) == 1 && std::time::Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(5));
        }
        assert_eq!(stalls.load(Ordering::Relaxed), 2, "re-flagged after beat");
        // Finished workers are never flagged.
        hb.finish();
        dog.stop();
        set_enabled(false);
        crate::reset();
    }

    #[test]
    fn finished_workers_are_not_flagged() {
        let _guard = crate::tests::serial();
        crate::reset();
        set_enabled(true);
        let hb = heartbeat(|| "test.finished.worker".to_string());
        hb.beat(0);
        hb.finish();
        let dog = start_watchdog(Duration::from_millis(10), None);
        std::thread::sleep(Duration::from_millis(80));
        dog.stop();
        assert_eq!(crate::counter_total("stall.detected"), 0);
        assert!(!worker_health()[0].stalled);
        set_enabled(false);
        crate::reset();
    }
}
