//! One deadline thread per world. Every timed duty — the coalescer's age
//! flush, a relaxed log's flush gap — is a deadline on it, not a timer
//! thread of its own; with nothing armed it waits with no timeout, so an
//! idle world never wakes it. Jobs run one after another, so a deadline may
//! slip by the run time of the jobs due before it: one batch send or one
//! fsync each, since no job waits for a reply (DESIGN.md §16).

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use parking_lot::{Condvar, Mutex};

/// A timed duty run on the deadline thread.
pub trait DeadlineJob: Send + Sync {
    /// Run the duty armed for `due`; return when it is next due, or `None`
    /// to disarm.
    fn fire(&self, due: Instant) -> Option<Instant>;
}

/// The armed deadlines, shared by the thread and everything that arms one.
#[derive(Default)]
pub struct Deadlines {
    armed: Mutex<Armed>,
    wake: Condvar,
    wakeups: AtomicU64,
    fires: AtomicU64,
}

#[derive(Default)]
struct Armed {
    jobs: Vec<(Instant, Arc<dyn DeadlineJob>)>,
    stopped: bool,
}

impl Deadlines {
    /// Run `job` once `at` has passed. Ignored after the thread stopped.
    pub fn arm(&self, at: Instant, job: Arc<dyn DeadlineJob>) {
        let mut armed = self.armed.lock();
        if armed.stopped {
            return;
        }
        let earliest = armed.jobs.iter().all(|(t, _)| at < *t);
        armed.jobs.push((at, job));
        if earliest {
            self.wake.notify_one();
        }
    }

    /// Times the thread has returned from a wait.
    pub fn wakeups(&self) -> u64 {
        // ORDERING: Relaxed statistic.
        self.wakeups.load(Ordering::Relaxed)
    }

    /// Jobs fired so far (counted as each starts).
    pub fn fires(&self) -> u64 {
        // ORDERING: Relaxed statistic.
        self.fires.load(Ordering::Relaxed)
    }

    fn fire(&self, due: Instant, job: &Arc<dyn DeadlineJob>) -> Option<Instant> {
        // ORDERING: Relaxed statistic.
        self.fires.fetch_add(1, Ordering::Relaxed);
        job.fire(due)
    }

    /// Fire what is due, re-arm what asks, wait for the earliest deadline;
    /// on stop, fire every armed job once.
    fn run(&self) {
        let mut armed = self.armed.lock();
        while !armed.stopped {
            let now = Instant::now();
            let (due, later): (Vec<_>, Vec<_>) =
                std::mem::take(&mut armed.jobs).into_iter().partition(|j| j.0 <= now);
            armed.jobs = later;
            if due.is_empty() {
                if let Some(t) = armed.jobs.iter().map(|j| j.0).min() {
                    self.wake.wait_for(&mut armed, t - now);
                } else {
                    self.wake.wait(&mut armed);
                }
                // ORDERING: Relaxed statistic.
                self.wakeups.fetch_add(1, Ordering::Relaxed);
                continue;
            }
            drop(armed);
            let next: Vec<(Instant, Arc<dyn DeadlineJob>)> =
                due.into_iter().filter_map(|(t, job)| Some((self.fire(t, &job)?, job))).collect();
            armed = self.armed.lock();
            armed.jobs.extend(next);
        }
        let last = std::mem::take(&mut armed.jobs);
        drop(armed);
        for (t, job) in last {
            self.fire(t, &job);
        }
    }
}

/// One job's deadline, pending at most once at a time: the job arms it
/// where work appears and wraps its fire in [`Deadline::run`].
pub struct Deadline {
    deadlines: Arc<Deadlines>,
    /// A deadline of the job is pending on `deadlines`.
    pending: AtomicBool,
}

impl Deadline {
    /// A deadline armed on `deadlines`.
    pub fn new(deadlines: Arc<Deadlines>) -> Deadline {
        Deadline { deadlines, pending: AtomicBool::new(false) }
    }

    /// Fire `job` once `after` has passed, unless a deadline of it is
    /// pending. Call it once the work it arms for is published under a lock
    /// that the fire takes after [`Deadline::run`] has cleared the mark: the
    /// fire then either sees that work or leaves the mark clear for this arm.
    pub fn arm<J: DeadlineJob + 'static>(&self, after: Duration, job: &Arc<J>) {
        // ORDERING: Acquire/AcqRel on the mark alone; that lock orders it
        // against the work (see above).
        if !self.pending.load(Ordering::Acquire) && !self.pending.swap(true, Ordering::AcqRel) {
            let job = Arc::clone(job) as Arc<dyn DeadlineJob>;
            self.deadlines.arm(Instant::now() + after, job);
        }
    }

    /// Run a fire's `body`, which returns when the job is next due. The
    /// mark is cleared first, so work the body misses arms a deadline of
    /// its own; that arm wins over the body's re-arm.
    pub fn run(&self, body: impl FnOnce() -> Option<Instant>) -> Option<Instant> {
        // ORDERING: Release; cleared before the body looks at the work.
        self.pending.store(false, Ordering::Release);
        let next = body()?;
        // ORDERING: AcqRel; an arm since the clear wins.
        (!self.pending.swap(true, Ordering::AcqRel)).then_some(next)
    }
}

/// Owner of a world's deadline thread (`hcl-deadline`). Dropping it stops
/// the thread after every armed job ran once.
pub struct DeadlineThread {
    deadlines: Arc<Deadlines>,
    thread: Option<JoinHandle<()>>,
}

impl DeadlineThread {
    /// Start the thread, parked until something is armed.
    pub fn spawn() -> DeadlineThread {
        let deadlines = Arc::new(Deadlines::default());
        let d = Arc::clone(&deadlines);
        let thread = std::thread::Builder::new()
            .name("hcl-deadline".into())
            .spawn(move || d.run())
            .expect("spawn deadline thread");
        DeadlineThread { deadlines, thread: Some(thread) }
    }

    /// The handle jobs are armed through.
    pub fn deadlines(&self) -> &Arc<Deadlines> {
        &self.deadlines
    }
}

impl Drop for DeadlineThread {
    fn drop(&mut self) {
        self.deadlines.armed.lock().stopped = true;
        self.deadlines.wake.notify_one();
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(n: u64) -> Duration {
        Duration::from_millis(n)
    }

    /// Records `(due, fired at)` per fire, holds the thread `hold` per fire,
    /// and re-arms 1 ms out while `again` lasts.
    struct Probe {
        fires: Mutex<Vec<(Instant, Instant)>>,
        hold: Duration,
        again: AtomicU64,
    }

    impl Probe {
        fn new(hold: Duration, again: u64) -> Arc<Probe> {
            Arc::new(Probe { fires: Mutex::default(), hold, again: AtomicU64::new(again) })
        }

        fn fires(&self) -> Vec<(Instant, Instant)> {
            self.fires.lock().clone()
        }
    }

    impl DeadlineJob for Probe {
        fn fire(&self, due: Instant) -> Option<Instant> {
            self.fires.lock().push((due, Instant::now()));
            std::thread::sleep(self.hold);
            let left = self.again.load(Ordering::Relaxed);
            self.again.store(left.saturating_sub(1), Ordering::Relaxed);
            (left > 0).then(|| Instant::now() + ms(1))
        }
    }

    fn eventually(what: &str, cond: impl Fn() -> bool) {
        let give_up = Instant::now() + Duration::from_secs(5);
        while !cond() {
            assert!(Instant::now() < give_up, "{what}");
            std::thread::sleep(ms(1));
        }
    }

    #[test]
    fn a_blocking_job_delays_a_later_deadline_by_no_more_than_its_run_time() {
        let owner = DeadlineThread::spawn();
        let (slow, late) = (Probe::new(ms(20), 0), Probe::new(Duration::ZERO, 0));
        let t0 = Instant::now();
        owner.deadlines().arm(t0 + ms(5), slow.clone());
        owner.deadlines().arm(t0 + ms(6), late.clone());
        eventually("the later deadline never fired", || late.fires().len() == 1);
        let (slow_due, slow_at) = slow.fires()[0];
        let (late_due, late_at) = late.fires()[0];
        assert!(late_at >= slow_at + ms(20), "the later job ran beside the slow one");
        // Its slip is the slow job's run time on top of whatever the slow
        // job itself slipped, plus scheduling noise.
        let slip = late_at - late_due;
        let bound = (slow_at - slow_due) + ms(20) + ms(10);
        assert!(slip <= bound, "slipped {slip:?}, bound {bound:?}");
    }

    #[test]
    fn a_fire_that_leaves_work_re_arms() {
        let owner = DeadlineThread::spawn();
        let job = Probe::new(Duration::ZERO, 3);
        owner.deadlines().arm(Instant::now(), job.clone());
        eventually("the job did not re-arm three times", || job.fires().len() == 4);
        std::thread::sleep(ms(20));
        assert_eq!(job.fires().len(), 4, "a fire that returned None stays disarmed");
    }

    #[test]
    fn dropping_the_owner_runs_every_armed_job_once() {
        let owner = DeadlineThread::spawn();
        let deadlines = Arc::clone(owner.deadlines());
        let hour = Instant::now() + Duration::from_secs(3600);
        let jobs: Vec<_> = (0..3).map(|_| Probe::new(Duration::ZERO, 5)).collect();
        for job in &jobs {
            deadlines.arm(hour, job.clone());
        }
        drop(owner);
        for job in &jobs {
            assert_eq!(job.fires().len(), 1, "each armed job fires once; re-arms are dropped");
        }
        deadlines.arm(Instant::now(), jobs[0].clone());
        std::thread::sleep(ms(10));
        assert_eq!(jobs[0].fires().len(), 1, "arming a stopped thread is a no-op");
    }

    /// Wrapped in a [`Deadline`]: its first fire both sees work arm a
    /// deadline of its own and asks to re-arm; later fires disarm.
    struct Marked {
        deadline: Deadline,
        me: std::sync::Weak<Marked>,
        fires: AtomicU64,
    }

    impl DeadlineJob for Marked {
        fn fire(&self, _due: Instant) -> Option<Instant> {
            self.deadline.run(|| {
                if self.fires.fetch_add(1, Ordering::Relaxed) > 0 {
                    return None;
                }
                self.deadline.arm(ms(1), &self.me.upgrade().expect("job alive"));
                Some(Instant::now() + ms(1))
            })
        }
    }

    #[test]
    fn a_deadline_is_pending_at_most_once() {
        let owner = DeadlineThread::spawn();
        let job = Arc::new_cyclic(|me| Marked {
            deadline: Deadline::new(Arc::clone(owner.deadlines())),
            me: me.clone(),
            fires: AtomicU64::new(0),
        });
        for _ in 0..3 {
            job.deadline.arm(ms(5), &job);
        }
        let fires = || job.fires.load(Ordering::Relaxed);
        eventually("the arm made during the fire never fired", || fires() == 2);
        std::thread::sleep(ms(20));
        assert_eq!(fires(), 2, "three arms and a losing re-arm are one deadline each");
        job.deadline.arm(ms(1), &job);
        eventually("a disarmed deadline did not arm again", || fires() == 3);
    }

    #[test]
    fn with_nothing_armed_the_thread_never_wakes() {
        let owner = DeadlineThread::spawn();
        std::thread::sleep(ms(50));
        assert_eq!(owner.deadlines().wakeups(), 0);
        let job = Probe::new(Duration::ZERO, 0);
        owner.deadlines().arm(Instant::now() + ms(1), job.clone());
        eventually("the armed job never fired", || job.fires().len() == 1);
        assert!(owner.deadlines().wakeups() >= 1);
    }
}
