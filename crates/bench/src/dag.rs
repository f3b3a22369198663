//! Deterministic fine-grained task DAG executor.
//!
//! The artifact pipeline used to run in two phases — shared inputs
//! behind a barrier, then a flat job fan-out. This module replaces both
//! with one scheduler: every unit of work (a shared crawl, one seeded
//! inner simulation of a sweep, a pure merge that renders a table) is a
//! **task** with explicit dependency edges, executed on a single scoped
//! worker pool.
//!
//! Determinism contract: the *task graph* is a pure function of the
//! configuration — the same tasks and edges, in the same order, are
//! built whether the run uses 1 worker or 16. Scheduling decides only
//! *when* a task runs; every task derives its output from seeded inputs and its declared
//! dependencies, and merges fold results in construction order, so the
//! pipeline's bytes cannot depend on the worker count. The scheduler
//! stats exported to metrics ([`DagStats::spawned`],
//! [`DagStats::claimed`], [`DagStats::max_ready`]) are likewise replayed
//! from the graph alone, never measured from live thread timing.
//!
//! Claim order: among ready tasks the lowest index is claimed first.
//! The serial execution order is therefore reproducible, and a task
//! built early — the pipeline pushes its shared crawls, the head of the
//! longest chain, first — is claimed the moment it becomes ready, even
//! ahead of tasks that have waited longer.

use std::any::Any;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::{Condvar, Mutex, OnceLock, PoisonError};
use std::time::{Duration, Instant};

/// What a task produces: any sendable, shareable value. Dependent tasks
/// read it by reference through [`TaskCtx::dep`]; single-consumer chains
/// that need mutation wrap the value in a `Mutex`.
pub type TaskOutput = Box<dyn Any + Send + Sync>;

/// A task's view of its finished dependencies.
pub struct TaskCtx<'run> {
    slots: &'run [OnceLock<TaskOutput>],
    deps: &'run [usize],
}

impl TaskCtx<'_> {
    /// The output of the `k`-th declared dependency, downcast to `T`.
    ///
    /// # Panics
    ///
    /// Panics if `k` is out of range or the dependency's output is not a
    /// `T` — both are construction bugs, not runtime conditions.
    pub fn dep<T: 'static>(&self, k: usize) -> &T {
        self.slots[self.deps[k]]
            .get()
            .expect("dependency completed before dependent ran")
            .downcast_ref::<T>()
            .expect("dependency output downcasts to the declared type")
    }
}

/// One schedulable unit of work.
pub struct Task<'a> {
    /// Display label (lands in the per-task timing rows).
    pub label: String,
    /// Index of the owning pipeline job, if any (`None` for shared
    /// builds); the pipeline sums member-task walls into per-job rows.
    pub job: Option<usize>,
    /// Indices of tasks this one reads. Must all be smaller than this
    /// task's own index (the DAG is built in topological order).
    pub deps: Vec<usize>,
    /// Dependencies in, type-erased output out.
    run: Box<dyn Fn(&TaskCtx) -> TaskOutput + Send + Sync + 'a>,
}

/// Wall time of one executed task.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TaskTiming {
    /// The task's label.
    pub label: String,
    /// The owning job index, if any.
    pub job: Option<usize>,
    /// Measured wall time.
    pub wall: Duration,
}

/// Deterministic scheduler statistics plus the measured critical path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DagStats {
    /// Tasks in the graph. Identical for any worker count.
    pub spawned: u64,
    /// Tasks actually claimed and executed (== `spawned`; counted
    /// independently as a scheduler invariant). Identical for any worker
    /// count.
    pub claimed: u64,
    /// High-water mark of the ready queue, replayed canonically from the
    /// graph's construction order and deps alone — the live queue depth
    /// depends on thread timing and would break metrics byte-identity
    /// across `--jobs N`. Identical for any worker count.
    pub max_ready: u64,
    /// Longest dependency chain of measured task walls — what an
    /// infinitely wide pool would still have to pay. Measured, so it
    /// varies run to run (reported in BENCH json, never in metrics).
    pub critical_path: Duration,
}

/// The result of executing a [`Dag`].
pub struct DagRun {
    /// One output per task, in construction order.
    pub outputs: Vec<TaskOutput>,
    /// One timing per task, in construction order.
    pub timings: Vec<TaskTiming>,
    /// Scheduler statistics.
    pub stats: DagStats,
}

/// A fine-grained task graph under construction.
#[derive(Default)]
pub struct Dag<'a> {
    tasks: Vec<Task<'a>>,
}

/// Ready tasks, lowest index on top.
type ReadyQueue = BinaryHeap<Reverse<usize>>;

struct Sched {
    ready: ReadyQueue,
    waiting: Vec<usize>,
    completed: usize,
    /// A worker panicked: `completed` can no longer reach the task
    /// count, so the others stop claiming and the scope re-raises.
    failed: bool,
}

/// Held by each pool worker: if the worker unwinds, marks the schedule
/// failed and wakes the others so none waits forever.
struct FailOnPanic<'s>(&'s Mutex<Sched>, &'s Condvar);

impl Drop for FailOnPanic<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.0.lock().unwrap_or_else(PoisonError::into_inner).failed = true;
            self.1.notify_all();
        }
    }
}

impl<'a> Dag<'a> {
    /// An empty graph.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of tasks added so far.
    pub fn len(&self) -> usize {
        self.tasks.len()
    }

    /// Whether the graph is empty.
    pub fn is_empty(&self) -> bool {
        self.tasks.is_empty()
    }

    /// Read-only view of the tasks added so far (labels, jobs, deps).
    pub fn tasks(&self) -> &[Task<'a>] {
        &self.tasks
    }

    /// Adds a task and returns its index (the handle dependents use).
    ///
    /// # Panics
    ///
    /// Panics if any dependency index does not refer to an
    /// already-added task — construction order is topological order.
    pub fn push(
        &mut self,
        label: impl Into<String>,
        job: Option<usize>,
        deps: Vec<usize>,
        run: impl Fn(&TaskCtx) -> TaskOutput + Send + Sync + 'a,
    ) -> usize {
        let index = self.tasks.len();
        assert!(
            deps.iter().all(|&d| d < index),
            "task {index} depends on a task that is not added yet"
        );
        self.tasks.push(Task {
            label: label.into(),
            job,
            deps,
            run: Box::new(run),
        });
        index
    }

    /// Executes the graph on a pool of `workers` threads (at least one)
    /// and returns every task's output, timing, and the scheduler
    /// stats. One worker claims ready tasks lowest index first.
    /// Output bytes never depend on `workers`; only wall times do.
    pub fn execute(self, workers: usize) -> DagRun {
        let skip = vec![false; self.tasks.len()];
        self.execute_planned(workers, &skip)
    }

    /// [`execute`](Self::execute), except that a task whose `skip` entry
    /// is set outputs `()` instead of running its closure (a cache hit).
    /// Scheduling is untouched — every task is still spawned and
    /// claimed, so `DagStats` counts are identical to an unplanned run.
    /// No task that runs may read a skipped task's output.
    ///
    /// # Panics
    ///
    /// Panics if `skip` and the task list disagree in length.
    pub fn execute_planned(self, workers: usize, skip: &[bool]) -> DagRun {
        assert_eq!(skip.len(), self.tasks.len(), "one skip flag per task");
        let n = self.tasks.len();
        let max_ready = replay_max_ready(&self.tasks);
        let slots: Vec<OnceLock<TaskOutput>> = (0..n).map(|_| OnceLock::new()).collect();
        let timing_slots: Vec<Mutex<Option<Duration>>> = (0..n).map(|_| Mutex::new(None)).collect();
        let claimed = std::sync::atomic::AtomicU64::new(0);

        let (dependents, waiting, ready) = claim_state(&self.tasks);

        let run_task = |i: usize| {
            let task = &self.tasks[i];
            let ctx = TaskCtx {
                slots: &slots,
                deps: &task.deps,
            };
            let start = Instant::now();
            let out: TaskOutput = if skip[i] {
                Box::new(())
            } else {
                (task.run)(&ctx)
            };
            let wall = start.elapsed();
            claimed.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            assert!(slots[i].set(out).is_ok(), "task executed twice");
            *timing_slots[i].lock().unwrap() = Some(wall);
        };

        let sched = Mutex::new(Sched {
            ready,
            waiting,
            completed: 0,
            failed: false,
        });
        let cv = Condvar::new();
        let pool = workers.clamp(1, n.max(1));
        std::thread::scope(|scope| {
            for _ in 0..pool {
                scope.spawn(|| {
                    let _fail_on_panic = FailOnPanic(&sched, &cv);
                    let mut guard = sched.lock().unwrap();
                    loop {
                        if guard.failed {
                            break;
                        }
                        if let Some(Reverse(i)) = guard.ready.pop() {
                            drop(guard);
                            run_task(i);
                            guard = sched.lock().unwrap();
                            guard.completed += 1;
                            for &d in &dependents[i] {
                                guard.waiting[d] -= 1;
                                if guard.waiting[d] == 0 {
                                    guard.ready.push(Reverse(d));
                                }
                            }
                            cv.notify_all();
                        } else if guard.completed == n {
                            break;
                        } else {
                            guard = cv.wait(guard).unwrap();
                        }
                    }
                });
            }
        });

        let walls: Vec<Duration> = timing_slots
            .iter()
            .map(|s| s.lock().unwrap().expect("every task recorded a wall time"))
            .collect();
        // Critical path: longest finish time if every task started the
        // moment its dependencies finished.
        let mut finish = vec![Duration::ZERO; n];
        for (i, task) in self.tasks.iter().enumerate() {
            let dep_finish = task
                .deps
                .iter()
                .map(|&d| finish[d])
                .max()
                .unwrap_or(Duration::ZERO);
            finish[i] = dep_finish + walls[i];
        }
        let critical_path = finish.iter().max().copied().unwrap_or(Duration::ZERO);

        let stats = DagStats {
            spawned: n as u64,
            claimed: claimed.into_inner(),
            max_ready,
            critical_path,
        };
        let timings = self
            .tasks
            .iter()
            .zip(&walls)
            .map(|(t, &wall)| TaskTiming {
                label: t.label.clone(),
                job: t.job,
                wall,
            })
            .collect();
        let outputs = slots
            .into_iter()
            .map(|s| s.into_inner().expect("every task produced an output"))
            .collect();
        DagRun {
            outputs,
            timings,
            stats,
        }
    }
}

/// The claim loop's starting state: each task's dependents, each task's
/// count of unfinished dependencies, and the initially ready tasks.
fn claim_state(tasks: &[Task]) -> (Vec<Vec<usize>>, Vec<usize>, ReadyQueue) {
    let mut dependents: Vec<Vec<usize>> = vec![Vec::new(); tasks.len()];
    for (i, task) in tasks.iter().enumerate() {
        for &d in &task.deps {
            dependents[d].push(i);
        }
    }
    let waiting = tasks.iter().map(|t| t.deps.len()).collect();
    let ready = tasks
        .iter()
        .enumerate()
        .filter(|(_, t)| t.deps.is_empty())
        .map(|(i, _)| Reverse(i))
        .collect();
    (dependents, waiting, ready)
}

/// Canonical ready-queue high-water mark: replays the claim loop one
/// task at a time over the graph's deps alone. A live high-water mark would
/// vary with thread timing; this one is a pure function of the graph, so
/// it can be exported as a deterministic metric.
fn replay_max_ready(tasks: &[Task]) -> u64 {
    let (dependents, mut waiting, mut ready) = claim_state(tasks);
    let mut max_ready = ready.len();
    while let Some(Reverse(i)) = ready.pop() {
        for &d in &dependents[i] {
            waiting[d] -= 1;
            if waiting[d] == 0 {
                ready.push(Reverse(d));
            }
        }
        max_ready = max_ready.max(ready.len());
    }
    max_ready as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    fn boxed<T: Any + Send + Sync>(v: T) -> TaskOutput {
        Box::new(v)
    }

    #[test]
    fn outputs_flow_through_dependencies() {
        for workers in [1, 4] {
            let mut dag = Dag::new();
            let a = dag.push("a", None, vec![], |_| boxed(2u64));
            let b = dag.push("b", None, vec![], |_| boxed(3u64));
            dag.push("c", None, vec![a, b], |ctx| {
                boxed(ctx.dep::<u64>(0) * ctx.dep::<u64>(1))
            });
            let run = dag.execute(workers);
            assert_eq!(*run.outputs[2].downcast_ref::<u64>().unwrap(), 6);
            assert_eq!(run.stats.spawned, 3);
            assert_eq!(run.stats.claimed, 3);
        }
        let run = Dag::new().execute(1);
        assert_eq!(run.stats.spawned, 0);
    }

    #[test]
    fn serial_claim_order_is_construction_order() {
        // `late` becomes ready only when `root` finishes, after `early`
        // has been waiting; its lower index still puts it first.
        let order = Mutex::new(Vec::new());
        let mut dag = Dag::new();
        for (label, deps) in [("root", vec![]), ("late", vec![0]), ("early", vec![])] {
            let order = &order;
            dag.push(label, None, deps, move |_| {
                order.lock().unwrap().push(label);
                boxed(())
            });
        }
        dag.execute(1);
        assert_eq!(*order.lock().unwrap(), vec!["root", "late", "early"]);
    }

    #[test]
    fn max_ready_is_replayed_not_measured() {
        // A diamond: 1 ready initially, completing the root exposes both
        // branches (2 ready), then the join. max_ready = 2 regardless of
        // workers.
        let build = || {
            let mut dag = Dag::new();
            let root = dag.push("root", None, vec![], |_| boxed(()));
            let l = dag.push("l", None, vec![root], |_| boxed(()));
            let r = dag.push("r", None, vec![root], |_| boxed(()));
            dag.push("join", None, vec![l, r], |_| boxed(()));
            dag
        };
        for workers in [1, 2, 8] {
            assert_eq!(build().execute(workers).stats.max_ready, 2);
        }
    }

    #[test]
    fn pool_executes_every_task_once() {
        let count = AtomicUsize::new(0);
        let mut dag = Dag::new();
        let mut prev: Option<usize> = None;
        for i in 0..50 {
            let count = &count;
            let deps = prev.into_iter().collect();
            // A mix of chains and independent tasks.
            let idx = dag.push(format!("t{i}"), None, deps, move |_| {
                count.fetch_add(1, Ordering::Relaxed);
                boxed(i)
            });
            prev = (i % 3 == 0).then_some(idx);
        }
        let run = dag.execute(8);
        assert_eq!(count.load(Ordering::Relaxed), 50);
        assert_eq!(run.stats.claimed, 50);
        assert_eq!(run.outputs.len(), 50);
        assert!(run.stats.critical_path <= run.timings.iter().map(|t| t.wall).sum());
    }

    #[test]
    fn panicking_task_fails_the_pool_instead_of_hanging() {
        // Run on a helper thread so a regression (the other workers
        // waiting forever for a task count that cannot be reached)
        // fails the test instead of hanging it.
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            let outcome = std::panic::catch_unwind(|| {
                let mut dag = Dag::new();
                let boom = dag.push("boom", None, vec![], |_| -> TaskOutput {
                    panic!("task failed")
                });
                for i in 0..8 {
                    dag.push(format!("t{i}"), None, vec![], |_| boxed(()));
                }
                dag.push("after", None, vec![boom], |_| boxed(()));
                dag.execute(4);
            });
            tx.send(outcome.is_err()).unwrap();
        });
        let panicked = rx
            .recv_timeout(Duration::from_secs(30))
            .expect("execute hung after a task panicked");
        assert!(panicked, "the task's panic must reach the caller");
    }

    #[test]
    fn skipped_tasks_are_claimed_without_running() {
        let ran = AtomicUsize::new(0);
        let mut dag = Dag::new();
        for label in ["a", "b", "c"] {
            let ran = &ran;
            dag.push(label, None, vec![], move |_| {
                ran.fetch_add(1, Ordering::Relaxed);
                boxed(1u64)
            });
        }
        let run = dag.execute_planned(2, &[false, true, false]);
        assert_eq!(ran.load(Ordering::Relaxed), 2);
        assert_eq!(run.stats.claimed, 3);
        assert!(run.outputs[1].is::<()>());
        assert!(run.outputs[2].is::<u64>());
    }

    #[test]
    #[should_panic(expected = "not added yet")]
    fn forward_dependency_rejected() {
        let mut dag = Dag::new();
        dag.push("bad", None, vec![3], |_| boxed(()));
    }
}
