//! Deterministic parallel artifact pipeline on a fine-grained task DAG.
//!
//! Every paper artifact is modelled as a *job* with explicit shared
//! inputs (the static snapshot + census, the one-day crawl, the general
//! crawl). Each run compiles the selected jobs into one
//! [`dag::Dag`](crate::dag): the static build and the day crawl are
//! independent root tasks that run concurrently, the general crawl
//! continues the day crawl's simulation, and each job's [`JOBS`] row
//! names its one build. A render job is a single task with dependency
//! edges on exactly the shared inputs it reads; a fan-out job (`ablations`,
//! `countermeasures`, `table6`, `propagation`, `fifty_one`) is compiled
//! by its builder into one task per independently-seeded inner
//! simulation plus a pure merge that folds unit results in a fixed
//! order. No job has a second, serial body. The whole graph executes
//! on a single scoped worker pool; results are reassembled in
//! [`ARTIFACT_IDS`](crate::ARTIFACT_IDS) presentation order, so the
//! output is byte-identical no matter how many worker threads run: each
//! task derives all of its randomness from the seeded [`ReproConfig`],
//! never from another task or from scheduling.
//!
//! The pipeline also collects an observability layer: per-task and
//! per-job wall time, the dependency-chain critical path, artifact
//! body/CSV sizes and thread count land in a [`RunReport`] that
//! `repro --timings` renders and exports as `timings.csv`.

use crate::cache::{
    self, ArtifactStore, CacheClass, CacheMeta, CacheSummary, Decision, Envelope, ObsEffects,
};
use crate::dag::{Dag, DagRun, TaskAction, TaskCtx, TaskOutput, TaskTiming};
use crate::{day_crawl, general_crawl, measurement_lab, ReproConfig};
use bp_obs::Tracer;
use btcpart::attacks::countermeasures::BlockAwareTradeoff;
use btcpart::attacks::temporal::{run_temporal_attack, TemporalAttackConfig, TemporalAttackReport};
use btcpart::crawler::CrawlResult;
use btcpart::experiments::codec::canonical_f64_bits;
use btcpart::experiments::{ablation, combined, defense, logical, spatial, temporal, Artifact};
use btcpart::mining::PoolCensus;
use btcpart::net::Simulation;
use btcpart::topology::Snapshot;
use btcpart::{Lab, Scenario};
use std::collections::BTreeMap;
use std::num::NonZeroUsize;
use std::sync::{Arc, Mutex, OnceLock};
use std::time::{Duration, Instant};

/// The shared inputs a job may depend on. Each is computed at most once
/// per pipeline run and handed to jobs by reference. The fields are
/// write-once cells so each shared-build task can publish its input
/// from whichever worker runs it while tasks that do not need it are
/// already running (see [`run_pipeline`]).
///
/// One measurement network backs both crawls. The day task publishes
/// its crawl and the snapshot its lab was built from, and hands the
/// simulation itself to the general task as its task output; no job
/// reads the simulation.
#[derive(Debug, Default)]
pub struct SharedInputs {
    /// Snapshot + census without a simulation (spatial/logical jobs).
    static_env: OnceLock<(Snapshot, PoolCensus)>,
    /// The one-day, 1-minute-sampled crawl and its lab's snapshot
    /// (Figure 6(b,c), Table V, Table VII, Figure 8).
    day: OnceLock<(CrawlResult, Snapshot)>,
    /// The long, 10-minute-sampled crawl of Figure 6(a), continuing the
    /// day crawl.
    general: OnceLock<CrawlResult>,
}

impl SharedInputs {
    fn static_env(&self) -> (&Snapshot, &PoolCensus) {
        let (s, c) = self
            .static_env
            .get()
            .expect("job requires the static snapshot input");
        (s, c)
    }

    fn day(&self) -> (&CrawlResult, &Snapshot) {
        let (c, s) = self
            .day
            .get()
            .expect("job requires the one-day crawl input");
        (c, s)
    }

    fn general(&self) -> &CrawlResult {
        self.general
            .get()
            .expect("job requires the general crawl input")
    }
}

/// Publishes one shared input into its cell.
///
/// # Panics
///
/// Panics if the input was already set — each shared input is built
/// exactly once per run.
fn publish<T>(cell: &OnceLock<T>, value: T, what: &str) {
    assert!(cell.set(value).is_ok(), "{what} built twice");
}

/// Collects the per-component flight-recorder streams of one traced run
/// (`repro --trace` or `--detect`).
///
/// Each traced component records into its own [`Tracer`] on whatever
/// worker thread its task happens to run, then deposits the finished
/// stream here under a `(rank, name)` key. [`merged`](Self::merged)
/// concatenates the streams in ascending key order, so the merged trace
/// is byte-identical for any `--jobs N`: scheduling decides *when* each
/// stream is deposited, never what it contains or where it lands in the
/// merge. The three canonical streams keep their historical order —
/// day (rank 0), grid (rank 1), model (rank 2) — and any future traced
/// task slots in by picking a key; decomposed tasks that share one
/// logical stream (the per-λ Table VI rows) concatenate their records in
/// presentation order before depositing, so the stream set is the same
/// as a serial run's.
#[derive(Debug, Default)]
pub struct TraceHub {
    streams: Mutex<BTreeMap<(u32, String), Tracer>>,
}

/// Merge rank of the day-crawl stream.
pub const STREAM_RANK_DAY: u32 = 0;
/// Merge rank of the Figure 7 grid stream.
pub const STREAM_RANK_GRID: u32 = 1;
/// Merge rank of the Table VI model stream.
pub const STREAM_RANK_MODEL: u32 = 2;
/// Merge rank of the detection alert stream (`repro --detect`).
pub const STREAM_RANK_DETECT: u32 = 3;

impl TraceHub {
    /// Creates an empty hub.
    pub fn new() -> Self {
        Self::default()
    }

    /// Deposits a stream under `(rank, name)`. The key decides the merge
    /// position and the `trace.<name>.*` metric prefix; depositing the
    /// same key twice replaces the stream.
    pub fn set_stream(&self, rank: u32, name: &str, tracer: Tracer) {
        self.streams
            .lock()
            .unwrap()
            .insert((rank, name.to_string()), tracer);
    }

    /// Deposits the day-crawl simulation's stream.
    pub fn set_day(&self, tracer: Tracer) {
        self.set_stream(STREAM_RANK_DAY, "day", tracer);
    }

    /// Deposits the grid simulation's stream.
    pub fn set_grid(&self, tracer: Tracer) {
        self.set_stream(STREAM_RANK_GRID, "grid", tracer);
    }

    /// Deposits the model sweep's stream.
    pub fn set_model(&self, tracer: Tracer) {
        self.set_stream(STREAM_RANK_MODEL, "model", tracer);
    }

    /// Snapshot of all deposited streams in ascending `(rank, name)`
    /// order — the cache layer persists these as task effects.
    pub fn streams(&self) -> Vec<(u32, String, Tracer)> {
        self.streams
            .lock()
            .unwrap()
            .iter()
            .map(|((rank, name), tracer)| (*rank, name.clone(), tracer.clone()))
            .collect()
    }

    /// The merged trace: streams concatenated in ascending `(rank, name)`
    /// order, regardless of which task finished first. Streams that were
    /// never deposited (their jobs were not selected) contribute nothing.
    /// The hub keeps its streams, so merging is repeatable.
    pub fn merged(&self) -> Tracer {
        let mut out = Tracer::new();
        for tracer in self.streams.lock().unwrap().values() {
            out.append(tracer.clone());
        }
        out
    }

    /// Exports per-stream `trace.<name>.*` counters into `reg` (the
    /// canonical streams keep their `trace.day.*` / `trace.grid.*` /
    /// `trace.model.*` prefixes). Counts are deterministic for a given
    /// config, so metrics stay byte-identical across worker counts.
    pub fn export_metrics(&self, reg: &bp_obs::Registry) {
        for ((_, name), tracer) in self.streams.lock().unwrap().iter() {
            tracer.export_metrics(reg, &format!("trace.{name}"));
        }
    }
}

/// Which shared inputs a job reads (used to decide what to precompute).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Needs {
    /// Static snapshot + census.
    pub static_env: bool,
    /// One-day crawl.
    pub day: bool,
    /// General (long) crawl.
    pub general: bool,
}

const STATIC_ONLY: Needs = Needs {
    static_env: true,
    day: false,
    general: false,
};
const DAY_ONLY: Needs = Needs {
    static_env: false,
    day: true,
    general: false,
};
const GENERAL_ONLY: Needs = Needs {
    static_env: false,
    day: false,
    general: true,
};
const NOTHING: Needs = Needs {
    static_env: false,
    day: false,
    general: false,
};

/// Everything a render job is allowed to see: the seeded configuration
/// and the precomputed shared inputs. Jobs must derive all randomness
/// from these — that is what makes the fan-out deterministic.
pub struct JobCtx<'a> {
    /// The reproduction parameters.
    pub config: &'a ReproConfig,
    /// The shared inputs computed for this run.
    pub shared: &'a SharedInputs,
    /// Optional metrics registry (`repro --metrics`). Jobs that count
    /// internal work record into it; `None` costs nothing. Recording
    /// never changes artifact output — see the `bp-obs` crate docs.
    pub metrics: Option<&'a bp_obs::Registry>,
    /// Optional flight-recorder hub (`repro --trace`). Traced jobs
    /// deposit their event streams here; `None` records nothing.
    /// Recording never changes artifact output either.
    pub trace: Option<&'a TraceHub>,
}

/// What a fan-out builder gets besides the graph: the owning job's
/// index, the run's configuration and shared inputs, and the
/// shared-build tasks the job's [`Needs`] resolve to.
struct FanOut<'a> {
    job: usize,
    config: &'a ReproConfig,
    shared: &'a SharedInputs,
    shared_deps: Vec<usize>,
}

/// How [`run_pipeline`] compiles a job into the task DAG.
enum Build {
    /// One task that renders the job's artifacts from its [`JobCtx`].
    Render(fn(&JobCtx) -> Vec<Artifact>),
    /// Pushes the job's unit tasks plus a merge and returns the merge's
    /// task index; the merge's output is the job's artifacts.
    FanOut(for<'a> fn(&mut DagBuilder<'a>, FanOut<'a>) -> usize),
}

/// One artifact job: a stable id (matching [`ARTIFACT_IDS`](crate::ARTIFACT_IDS)), its
/// declared shared-input needs, and how it compiles into the task DAG —
/// every job has exactly one path. A job may emit more than one artifact
/// (`table8` also emits the CVE exposure table, `countermeasures` emits
/// four artifacts, `ablations` three).
pub struct JobSpec {
    /// Stable identifier, equal to the corresponding `ARTIFACT_IDS` entry.
    pub id: &'static str,
    /// Shared inputs the job reads.
    pub needs: Needs,
    build: Build,
}

fn job_table1(ctx: &JobCtx) -> Vec<Artifact> {
    vec![spatial::table1(ctx.shared.static_env().0)]
}
fn job_table2(ctx: &JobCtx) -> Vec<Artifact> {
    vec![spatial::table2(ctx.shared.static_env().0)]
}
fn job_table3(ctx: &JobCtx) -> Vec<Artifact> {
    vec![spatial::table3(ctx.shared.static_env().0)]
}
fn job_table4(ctx: &JobCtx) -> Vec<Artifact> {
    let (snapshot, census) = ctx.shared.static_env();
    vec![spatial::table4(snapshot, census)]
}
fn job_fig3(ctx: &JobCtx) -> Vec<Artifact> {
    vec![spatial::fig3(ctx.shared.static_env().0)]
}
fn job_fig4(ctx: &JobCtx) -> Vec<Artifact> {
    vec![spatial::fig4(ctx.shared.static_env().0)]
}
fn job_fig6_general(ctx: &JobCtx) -> Vec<Artifact> {
    vec![temporal::fig6(ctx.shared.general(), "general", None)]
}
fn job_fig6_day(ctx: &JobCtx) -> Vec<Artifact> {
    vec![temporal::fig6(ctx.shared.day().0, "day", None)]
}
fn job_fig6_minute(ctx: &JobCtx) -> Vec<Artifact> {
    // Figure 6(c) zooms into the consensus pruning between two
    // successive blocks: a ~30-minute window of the 1-minute samples.
    let crawl = ctx.shared.day().0;
    let len = crawl.series.len();
    let window = len.saturating_sub(30)..len;
    vec![temporal::fig6(crawl, "minute", Some(window))]
}
fn job_table5(ctx: &JobCtx) -> Vec<Artifact> {
    vec![temporal::table5(ctx.shared.day().0, 60)]
}
fn job_fig7(ctx: &JobCtx) -> Vec<Artifact> {
    let mut tracer = ctx.trace.map(|_| Tracer::new());
    let artifact = temporal::fig7(ctx.metrics, tracer.as_mut());
    if let (Some(hub), Some(tracer)) = (ctx.trace, tracer) {
        hub.set_grid(tracer);
    }
    vec![artifact]
}
fn job_table7(ctx: &JobCtx) -> Vec<Artifact> {
    let (crawl, snapshot) = ctx.shared.day();
    vec![combined::table7(crawl, snapshot)]
}
fn job_fig8(ctx: &JobCtx) -> Vec<Artifact> {
    let (crawl, snapshot) = ctx.shared.day();
    vec![combined::fig8(crawl, snapshot)]
}
fn job_table8(ctx: &JobCtx) -> Vec<Artifact> {
    let snapshot = ctx.shared.static_env().0;
    vec![logical::table8(snapshot), logical::cve_exposure(snapshot)]
}
fn job_implications(ctx: &JobCtx) -> Vec<Artifact> {
    let (snapshot, census) = ctx.shared.static_env();
    vec![combined::implications(snapshot, census)]
}
fn job_cascade(ctx: &JobCtx) -> Vec<Artifact> {
    let lab = measurement_lab(ctx.config);
    vec![combined::cascade(&lab.sim, &lab.snapshot)]
}

/// A [`JOBS`] row compiled to one render task.
const fn render(id: &'static str, needs: Needs, f: fn(&JobCtx) -> Vec<Artifact>) -> JobSpec {
    JobSpec {
        id,
        needs,
        build: Build::Render(f),
    }
}

/// A [`JOBS`] row compiled by its fan-out builder.
const fn fan_out(
    id: &'static str,
    needs: Needs,
    f: for<'a> fn(&mut DagBuilder<'a>, FanOut<'a>) -> usize,
) -> JobSpec {
    JobSpec {
        id,
        needs,
        build: Build::FanOut(f),
    }
}

/// The full job table, in presentation order; [`ARTIFACT_IDS`](crate::ARTIFACT_IDS)
/// is its id column.
pub const JOBS: [JobSpec; 21] = [
    render("table1", STATIC_ONLY, job_table1),
    render("table2", STATIC_ONLY, job_table2),
    render("table3", STATIC_ONLY, job_table3),
    render("table4", STATIC_ONLY, job_table4),
    render("fig3", STATIC_ONLY, job_fig3),
    render("fig4", STATIC_ONLY, job_fig4),
    render("fig6_general", GENERAL_ONLY, job_fig6_general),
    render("fig6_day", DAY_ONLY, job_fig6_day),
    render("fig6_minute", DAY_ONLY, job_fig6_minute),
    render("table5", DAY_ONLY, job_table5),
    fan_out("table6", NOTHING, push_table6),
    render("fig7", NOTHING, job_fig7),
    render("table7", DAY_ONLY, job_table7),
    render("fig8", DAY_ONLY, job_fig8),
    render("table8", STATIC_ONLY, job_table8),
    render("implications", STATIC_ONLY, job_implications),
    render("cascade", NOTHING, job_cascade),
    fan_out("fifty_one", NOTHING, push_fifty_one),
    fan_out("propagation", NOTHING, push_propagation),
    fan_out("countermeasures", STATIC_ONLY, push_countermeasures),
    fan_out("ablations", NOTHING, push_ablations),
];

/// Wall time and output sizes of one pipeline stage (a shared-input
/// build or an artifact job).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StageTiming {
    /// Stage id: an artifact id, or `static` / `day_crawl` /
    /// `general_crawl` for shared inputs.
    pub id: String,
    /// Wall time of the stage.
    pub wall: Duration,
    /// Number of artifacts the stage produced (0 for shared inputs).
    pub artifacts: usize,
    /// Total rendered body size in bytes.
    pub body_bytes: usize,
    /// Total CSV export size in bytes.
    pub csv_bytes: usize,
}

impl StageTiming {
    fn for_artifacts(id: &str, wall: Duration, artifacts: &[Artifact]) -> Self {
        Self {
            id: id.to_string(),
            wall,
            artifacts: artifacts.len(),
            body_bytes: artifacts.iter().map(|a| a.body.len()).sum(),
            csv_bytes: artifacts
                .iter()
                .flat_map(|a| a.csv.iter())
                .map(|(_, c)| c.len())
                .sum(),
        }
    }
}

/// Wall time of one task of the fine-grained DAG, tagged with its
/// owning job id (shared builds have none).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TaskRow {
    /// Task label, e.g. `ablations/relay[1,s2]` or `day_crawl`.
    pub label: String,
    /// Owning job id, if the task belongs to a job.
    pub job: Option<String>,
    /// Measured wall time.
    pub wall: Duration,
    /// Cache outcome (`"hit"` / `"miss"` / `"live"`) when the run used
    /// an artifact store; `None` otherwise.
    pub cache: Option<&'static str>,
}

/// Observability record of one pipeline run: thread count, total wall
/// time, per-stage timings for the shared inputs and every job, the
/// per-task DAG rows they aggregate, and the scheduler's deterministic
/// counters.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunReport {
    /// Worker threads the task pool actually used.
    pub threads: usize,
    /// Total wall time of the pipeline (shared inputs + jobs).
    pub total: Duration,
    /// Shared-input build timings.
    pub shared: Vec<StageTiming>,
    /// Per-job timings, in presentation order. A decomposed job's wall
    /// is the sum of its member-task walls (its serial cost), not the
    /// elapsed span — `total` and `critical_path` carry the elapsed
    /// story.
    pub jobs: Vec<StageTiming>,
    /// Per-task rows, in DAG construction order.
    pub tasks: Vec<TaskRow>,
    /// Longest dependency chain of measured task walls — the wall time
    /// an infinitely wide worker pool would still pay.
    pub critical_path: Duration,
    /// Tasks in the graph (identical for any worker count).
    pub tasks_spawned: u64,
    /// Tasks claimed and executed (identical for any worker count).
    pub tasks_claimed: u64,
    /// Canonical ready-queue high-water mark, replayed from the graph
    /// structure alone (identical for any worker count).
    pub max_ready: u64,
    /// Cache totals when the run used an artifact store (`--cache`).
    pub cache: Option<CacheSummary>,
}

impl RunReport {
    /// Sum of all stage wall times — an estimate of what a fully serial
    /// run would cost; `total` is what the parallel run actually cost.
    pub fn serial_estimate(&self) -> Duration {
        self.shared
            .iter()
            .chain(self.jobs.iter())
            .map(|s| s.wall)
            .sum()
    }

    /// Estimated speedup of this run over a fully serial one.
    pub fn speedup(&self) -> f64 {
        let total = self.total.as_secs_f64();
        if total <= 0.0 {
            return 1.0;
        }
        self.serial_estimate().as_secs_f64() / total
    }

    /// The `timings.csv` export: one row per shared build and job, then
    /// one `task` row per DAG task (decomposed jobs show their inner
    /// fan-out there).
    pub fn timings_csv(&self) -> String {
        let mut out = String::from("stage,kind,wall_ms,artifacts,body_bytes,csv_bytes\n");
        for (kind, stage) in self
            .shared
            .iter()
            .map(|s| ("shared", s))
            .chain(self.jobs.iter().map(|s| ("job", s)))
        {
            out.push_str(&format!(
                "{},{},{:.3},{},{},{}\n",
                stage.id,
                kind,
                stage.wall.as_secs_f64() * 1e3,
                stage.artifacts,
                stage.body_bytes,
                stage.csv_bytes
            ));
        }
        for task in &self.tasks {
            out.push_str(&format!(
                "{},task,{:.3},0,0,0\n",
                task.label,
                task.wall.as_secs_f64() * 1e3
            ));
        }
        out
    }

    /// Human-readable timing table for `repro --timings`.
    pub fn render(&self) -> String {
        use btcpart::analysis::table::{Align, TextTable};
        let mut t = TextTable::new(
            ["Stage", "Kind", "Wall (ms)", "Artifacts", "Body B", "CSV B"]
                .map(String::from)
                .to_vec(),
        );
        for col in 2..6 {
            t.align(col, Align::Right);
        }
        for (kind, stage) in self
            .shared
            .iter()
            .map(|s| ("shared", s))
            .chain(self.jobs.iter().map(|s| ("job", s)))
        {
            t.row(vec![
                stage.id.clone(),
                kind.to_string(),
                format!("{:.1}", stage.wall.as_secs_f64() * 1e3),
                stage.artifacts.to_string(),
                stage.body_bytes.to_string(),
                stage.csv_bytes.to_string(),
            ]);
        }
        format!(
            "{}threads: {}   wall: {:.1} ms   serial estimate: {:.1} ms   \
             speedup: {:.2}x   critical path: {:.1} ms   \
             tasks: {} (max ready {})\n",
            t.render(),
            self.threads,
            self.total.as_secs_f64() * 1e3,
            self.serial_estimate().as_secs_f64() * 1e3,
            self.speedup(),
            self.critical_path.as_secs_f64() * 1e3,
            self.tasks_spawned,
            self.max_ready
        )
    }
}

/// The default worker count: one per available core.
pub fn default_jobs() -> usize {
    std::thread::available_parallelism()
        .map(NonZeroUsize::get)
        .unwrap_or(1)
}

fn selected_jobs<'a>(ids: &[String]) -> Vec<&'a JobSpec> {
    JOBS.iter()
        .filter(|job| ids.iter().any(|x| x == job.id || x == "all"))
        .collect()
}

/// One [`StageTiming`] per shared-build task, in build order.
fn shared_stage_timings(
    shared_tasks: &[(&'static str, usize)],
    timings: &[TaskTiming],
) -> Vec<StageTiming> {
    shared_tasks
        .iter()
        .map(|&(id, idx)| StageTiming {
            id: id.to_string(),
            wall: timings[idx].wall,
            artifacts: 0,
            body_bytes: 0,
            csv_bytes: 0,
        })
        .collect()
}

/// Generates the artifacts selected by `ids` (every known id if the
/// selection contains `"all"`) on `workers` threads, returning both the
/// artifacts — in [`ARTIFACT_IDS`](crate::ARTIFACT_IDS) presentation
/// order, byte-identical for any worker count — and the [`RunReport`]
/// describing the run.
///
/// The whole selection — shared builds included — compiles into one
/// fine-grained task DAG executed on a single worker pool: the static
/// build and the day crawl run as independent concurrent tasks, the
/// general crawl runs on from where the day crawl stopped, jobs depend
/// only on the specific shared inputs they declare, and the multi-run
/// jobs fan out one task per independently-seeded inner simulation.
/// Scheduling never changes the output: the graph is the
/// same for any worker count, every task derives all randomness from
/// the seeded config, fan-out results merge in their serial
/// accumulation order, and job results are reassembled in presentation
/// order.
///
/// Three optional layers ride along, none of which changes an artifact
/// byte:
///
/// * `reg` (`repro --metrics`) records crawl simulation counters
///   (`net.day.*` / `net.general.*`), per-stage spans
///   (`pipeline.shared.<id>` / `pipeline.job.<id>`), scheduler counters
///   (`pipeline.tasks.{spawned,claimed,max_ready}`) and pipeline totals
///   (`pipeline.jobs`, `pipeline.artifacts`, byte counts).
/// * `hub` (`repro --trace`) records a deterministic event trace. The
///   traced components each record into their own single-threaded
///   [`Tracer`]; the hub merges the streams in a fixed order, so
///   [`TraceHub::merged`] is byte-identical for any worker count.
/// * `store` (`repro --cache DIR`) is a content-addressed artifact
///   store. Every task's key is derived from its label, logic version,
///   config slice and dependency keys; tasks whose key resolves are
///   *replayed* — their stored output feeds dependents and their stored
///   metric/trace effects are injected — instead of run, and their whole
///   upstream subgraph is skipped unless a running task needs it. A warm
///   run therefore produces byte-identical artifacts, metrics and traces
///   while doing none of the simulation work. The store is *not* flushed
///   here — callers flush after exporting so a crashed run never commits
///   a partial index.
pub fn run_pipeline(
    config: &ReproConfig,
    ids: &[String],
    workers: usize,
    reg: Option<&bp_obs::Registry>,
    hub: Option<&TraceHub>,
    mut store: Option<&mut ArtifactStore>,
) -> (Vec<Artifact>, RunReport) {
    let start = Instant::now();
    let selected = selected_jobs(ids);
    let needs = selected.iter().fold(Needs::default(), |acc, job| Needs {
        static_env: acc.static_env || job.needs.static_env,
        day: acc.day || job.needs.day,
        general: acc.general || job.needs.general,
    });
    let workers = workers.max(1);

    let shared = SharedInputs::default();
    // The graph is a pure function of (config, selection): the same
    // tasks, edges and ranks are built for any worker count, which is
    // what keeps the scheduler counters in `--metrics` byte-identical
    // across `--jobs N`.
    let DagParts {
        dag,
        metas,
        cells,
        shared_tasks,
        artifact_tasks,
    } = build_dag(
        config,
        &selected,
        &shared,
        needs,
        reg.is_some(),
        hub.is_some(),
    );

    let plan = store.as_deref_mut().map(|s| {
        let infos: Vec<cache::TaskInfo> = dag
            .tasks()
            .iter()
            .map(|t| cache::TaskInfo {
                label: &t.label,
                deps: &t.deps,
            })
            .collect();
        cache::plan_run(
            s,
            &infos,
            &metas,
            &artifact_tasks,
            reg.is_some(),
            hub.is_some(),
        )
    });
    let actions: Vec<TaskAction> = match &plan {
        None => (0..dag.len()).map(|_| TaskAction::Run).collect(),
        Some(plan) => plan
            .tasks
            .iter()
            .map(|t| match &t.decision {
                Decision::Run => TaskAction::Run,
                Decision::Replay { value, .. } => TaskAction::Substitute(Box::new(move |_| {
                    value
                        .lock()
                        .unwrap()
                        .take()
                        .expect("a replayed task executes exactly once")
                })),
                Decision::ReplayEffects { .. } | Decision::SkipSilent => TaskAction::Skip,
            })
            .collect(),
    };

    let worker_count = workers.min(dag.len().max(1));
    let DagRun {
        mut outputs,
        timings,
        stats,
    } = dag.execute_planned(worker_count, actions);

    // Store every freshly computed (miss ∧ run) result before artifact
    // extraction consumes the outputs, then merge each task's scoped
    // observations into the run's registry/hub in construction order —
    // replayed tasks inject their stored effects at the same point, so
    // the merged result is independent of what was cached.
    if let (Some(s), Some(plan)) = (store.as_deref_mut(), &plan) {
        for (i, tp) in plan.tasks.iter().enumerate() {
            if matches!(tp.decision, Decision::Run) && tp.status == cache::TaskCacheStatus::Miss {
                let payload = match &metas[i].class {
                    CacheClass::Payload { encode, .. } => encode(&outputs[i]),
                    CacheClass::Volatile => None,
                };
                let effects = ObsEffects::capture(&cells[i].reg, &cells[i].hub);
                s.insert(tp.key, Envelope { payload, effects }.encode());
            }
        }
    }
    for (i, cell) in cells.iter().enumerate() {
        let decision = plan.as_ref().map(|p| &p.tasks[i].decision);
        match decision {
            None | Some(Decision::Run) => {
                if let Some(reg) = reg {
                    reg.merge_snapshot(&cell.reg.snapshot());
                }
                if let Some(hub) = hub {
                    for (rank, name, tracer) in cell.hub.streams() {
                        hub.set_stream(rank, &name, tracer);
                    }
                }
            }
            Some(Decision::Replay { effects, .. } | Decision::ReplayEffects { effects }) => {
                effects.replay(reg, hub)
            }
            Some(Decision::SkipSilent) => {}
        }
    }

    let shared_timings = shared_stage_timings(&shared_tasks, &timings);

    // A job's wall is the summed serial cost of its member tasks, so
    // `serial_estimate()` keeps meaning "what one thread would pay".
    let mut job_walls = vec![Duration::ZERO; selected.len()];
    for t in &timings {
        if let Some(j) = t.job {
            job_walls[j] += t.wall;
        }
    }

    let mut artifacts = Vec::new();
    let mut job_timings = Vec::new();
    for (j, (job, &task_idx)) in selected.iter().zip(&artifact_tasks).enumerate() {
        let produced: Box<Vec<Artifact>> = std::mem::replace(&mut outputs[task_idx], Box::new(()))
            .downcast()
            .unwrap_or_else(|_| panic!("task for job {} returns Vec<Artifact>", job.id));
        job_timings.push(StageTiming::for_artifacts(job.id, job_walls[j], &produced));
        artifacts.extend(*produced);
    }

    if let Some(reg) = reg {
        // One span per shared build and per job on every path, so the
        // span *count* in metrics.json is identical for any worker
        // count (span wall times are excluded from the deterministic
        // exports by design).
        for s in &shared_timings {
            reg.record_span(&format!("pipeline.shared.{}", s.id), s.wall);
        }
        for j in &job_timings {
            reg.record_span(&format!("pipeline.job.{}", j.id), j.wall);
        }
    }

    let tasks: Vec<TaskRow> = timings
        .iter()
        .enumerate()
        .map(|(i, t)| TaskRow {
            label: t.label.clone(),
            job: t.job.map(|j| selected[j].id.to_string()),
            wall: t.wall,
            cache: plan.as_ref().map(|p| p.tasks[i].status.as_str()),
        })
        .collect();

    let cache_summary = plan.as_ref().map(|p| CacheSummary {
        hits: p.hits,
        misses: p.misses,
        skipped: p
            .tasks
            .iter()
            .filter(|t| !matches!(t.decision, Decision::Run))
            .count() as u64,
        bytes_read: store.as_deref().map_or(0, |s| s.bytes_read()),
        bytes_written: store.as_deref().map_or(0, |s| s.bytes_written()),
    });
    if let (Some(reg), Some(summary)) = (reg, &cache_summary) {
        // Volatile by design: a warm run's hit counts differ from a
        // cold run's even though both produce byte-identical results,
        // so these stay out of the deterministic metric exports.
        reg.add_volatile("pipeline.cache.hits", summary.hits);
        reg.add_volatile("pipeline.cache.misses", summary.misses);
        reg.add_volatile("pipeline.cache.bytes_read", summary.bytes_read);
        reg.add_volatile("pipeline.cache.bytes_written", summary.bytes_written);
    }

    let report = RunReport {
        threads: worker_count,
        total: start.elapsed(),
        shared: shared_timings,
        jobs: job_timings,
        tasks,
        critical_path: stats.critical_path,
        tasks_spawned: stats.spawned,
        tasks_claimed: stats.claimed,
        max_ready: stats.max_ready,
        cache: cache_summary,
    };
    if let Some(reg) = reg {
        reg.add("pipeline.jobs", report.jobs.len() as u64);
        reg.add("pipeline.artifacts", artifacts.len() as u64);
        reg.add(
            "pipeline.body_bytes",
            report.jobs.iter().map(|j| j.body_bytes as u64).sum(),
        );
        reg.add(
            "pipeline.csv_bytes",
            report.jobs.iter().map(|j| j.csv_bytes as u64).sum(),
        );
        // Replayed from the graph alone — identical for any --jobs N.
        reg.add("pipeline.tasks.spawned", stats.spawned);
        reg.add("pipeline.tasks.claimed", stats.claimed);
        reg.add("pipeline.tasks.max_ready", stats.max_ready);
        // Thread count is run metadata, not a metric: it lives in the
        // RunReport / BENCH_pipeline.json so metrics.json stays
        // identical across worker counts.
    }
    (artifacts, report)
}

// Claim ranks: higher = claimed earlier among ready tasks. Derived from
// the committed BENCH stage walls (longest-processing-time-first); they
// never change bytes. The day crawl heads the longest chain (day →
// general crawl → fig6_general).
//
// Ranks earn their place on memory, not on wall time. With every rank
// forced to 0 (2-vCPU host, perfbench `pipeline-quick --seed 3
// --seconds 15 --trace 0`, 4 alternating pairs) `GOLDEN.digests` still
// passed and the `repro --quick --jobs 2` speedup stayed at ~1.95×, but
// the `rss_peak_mb` median rose from 56.9 to 69.5 MiB (+22 %). p50 went
// from 1,704 to 1,934 ms, within noise in later pairs. See
// EXPERIMENTS.md "Claim ranks".
const RANK_DAY: u8 = 250;
const RANK_GENERAL: u8 = 245;
const RANK_STATIC: u8 = 240;
const RANK_ARM: u8 = 90; // countermeasures temporal-attack arms
const RANK_NET_UNIT: u8 = 85; // ablation relay/degree simulations
const RANK_PREP: u8 = 80; // propagation / fifty_one sim prep + finals
const RANK_GRID: u8 = 60; // fig7 grid simulation
const RANK_SPAN_UNIT: u8 = 55; // ablation grid-sim units
const RANK_CASCADE: u8 = 50;
const RANK_MODEL_ROW: u8 = 40; // table6 per-λ bisections
const RANK_MERGE: u8 = 30;
const RANK_SIMPLE: u8 = 20; // shared-input-bound artifact renders
const RANK_CHEAP: u8 = 10; // closed-form countermeasure cells

fn simple_rank(id: &str) -> u8 {
    match id {
        "fig7" => RANK_GRID,
        "cascade" => RANK_CASCADE,
        _ => RANK_SIMPLE,
    }
}

// Per-task-family logic versions, folded into every cache key. Bump a
// family's version whenever its task code changes behaviour without a
// config or dependency change — old store entries then miss instead of
// replaying stale results.
// LV_SHARED v2: the traced day crawl now seeds node→AS join records
// (`node_as`) into its stream, so v1 store entries would replay traces
// without them.
const LV_SHARED: u32 = 2;
const LV_SIMPLE: u32 = 1;
const LV_ABLATIONS: u32 = 1;
const LV_COUNTERMEASURES: u32 = 1;
const LV_TABLE6: u32 = 1;
const LV_SIM_CHAIN: u32 = 1;

/// Canonical config-slice bytes: fixed-width little-endian `u64` fields
/// (floats pass through [`canonical_f64_bits`] first). Each task family
/// encodes exactly the [`ReproConfig`] fields it reads — dependency
/// keys carry everything upstream.
fn cfg(parts: &[u64]) -> Vec<u8> {
    let mut out = Vec::with_capacity(parts.len() * 8);
    for p in parts {
        out.extend_from_slice(&p.to_le_bytes());
    }
    out
}

/// The `(scale, seed)` config slice of every task that builds its own
/// population.
fn scale_seed(config: &ReproConfig) -> Vec<u8> {
    cfg(&[canonical_f64_bits(config.scale), config.seed])
}

/// One task's scoped observation cell: everything the task records
/// lands here first, is captured into its cache envelope on a miss, and
/// is merged into the run's global registry/hub afterwards. Merging is
/// order-insensitive (counters add, gauges take maxima, stream keys are
/// disjoint), so scoping never changes the exported bytes.
#[derive(Default)]
struct TaskObs {
    reg: bp_obs::Registry,
    hub: TraceHub,
}

/// The observability view handed to a task closure: the task's *scoped*
/// registry/hub when the run records metrics/traces, `None` otherwise
/// (so task code takes the exact same branches as an unobserved run).
#[derive(Clone, Copy)]
struct ObsCtx<'o> {
    metrics: Option<&'o bp_obs::Registry>,
    trace: Option<&'o TraceHub>,
}

/// [`Dag`] construction wrapper that keeps the cache metadata and the
/// scoped observation cell of every task aligned with its index.
struct DagBuilder<'a> {
    dag: Dag<'a>,
    metas: Vec<CacheMeta>,
    cells: Vec<Arc<TaskObs>>,
    metrics_on: bool,
    trace_on: bool,
}

impl<'a> DagBuilder<'a> {
    fn new(metrics_on: bool, trace_on: bool) -> Self {
        DagBuilder {
            dag: Dag::new(),
            metas: Vec::new(),
            cells: Vec::new(),
            metrics_on,
            trace_on,
        }
    }

    fn push(
        &mut self,
        label: impl Into<String>,
        job: Option<usize>,
        rank: u8,
        deps: Vec<usize>,
        meta: CacheMeta,
        run: impl Fn(&TaskCtx, ObsCtx<'_>) -> TaskOutput + Send + Sync + 'a,
    ) -> usize {
        let cell = Arc::new(TaskObs::default());
        let scoped = Arc::clone(&cell);
        let (metrics_on, trace_on) = (self.metrics_on, self.trace_on);
        let idx = self.dag.push(label, job, rank, deps, move |ctx| {
            let obs = ObsCtx {
                metrics: if metrics_on { Some(&scoped.reg) } else { None },
                trace: if trace_on { Some(&scoped.hub) } else { None },
            };
            run(ctx, obs)
        });
        self.metas.push(meta);
        self.cells.push(cell);
        debug_assert_eq!(self.metas.len(), idx + 1);
        idx
    }
}

/// The compiled graph plus everything the cached executor needs:
/// per-task cache metadata and observation cells (both indexed by task),
/// the shared-build tasks as `(stage id, task index)` in the fixed
/// `static` / `day_crawl` / `general_crawl` order, and — per selected
/// job, in presentation order — the index of the task whose output is
/// that job's `Vec<Artifact>`.
struct DagParts<'a> {
    dag: Dag<'a>,
    metas: Vec<CacheMeta>,
    cells: Vec<Arc<TaskObs>>,
    shared_tasks: Vec<(&'static str, usize)>,
    artifact_tasks: Vec<usize>,
}

/// Compiles the selected jobs into the fine-grained task DAG.
fn build_dag<'a>(
    config: &'a ReproConfig,
    selected: &[&'static JobSpec],
    shared: &'a SharedInputs,
    needs: Needs,
    metrics_on: bool,
    trace_on: bool,
) -> DagParts<'a> {
    let mut b = DagBuilder::new(metrics_on, trace_on);

    // Shared inputs are volatile: live simulation state cannot be
    // persisted, but a crawl's metrics and the day trace *can* — a warm
    // run replays those effects without simulating. A crawl exports its
    // simulation's counters into the task's scoped registry (counter
    // keys are prefix-disjoint, so export order cannot affect the
    // snapshot), and a traced day crawl's flight recorder is lifted into
    // the task's hub before any job can see the input.
    let crawl_meta = |hours| {
        let slice = cfg(&[canonical_f64_bits(config.scale), config.seed, hours]);
        CacheMeta::volatile(LV_SHARED, slice, true)
    };
    let static_task = needs.static_env.then(|| {
        b.push(
            "static",
            None,
            RANK_STATIC,
            vec![],
            CacheMeta::volatile(LV_SHARED, scale_seed(config), false),
            move |_, _| {
                let env = Scenario::new().scale(config.scale).seed(config.seed);
                publish(&shared.static_env, env.build_static(), "static input");
                Box::new(()) as TaskOutput
            },
        )
    });
    // The day task runs whenever either crawl is needed: its simulation,
    // handed on as the task output, is the one the general crawl
    // continues (single consumer — it moves through a `Mutex`). The
    // tracer leaves the simulation at the end of the day, so the trace
    // covers the day crawl alone.
    let day_task = (needs.day || needs.general).then(|| {
        let meta = crawl_meta(config.day_hours);
        b.push("day_crawl", None, RANK_DAY, vec![], meta, move |_, obs| {
            let (crawl, mut lab) = day_crawl(config, obs.metrics, obs.trace.is_some());
            if let Some(reg) = obs.metrics {
                lab.sim.export_metrics(reg, "net.day");
            }
            if let Some(hub) = obs.trace {
                if let Some(tracer) = lab.sim.take_tracer() {
                    hub.set_day(tracer);
                }
            }
            publish(&shared.day, (crawl, lab.snapshot), "day crawl");
            Box::new(Mutex::new(lab.sim)) as TaskOutput
        })
    });
    let general_task = needs.general.then(|| {
        let day = day_task.expect("the day crawl is scheduled with the general crawl");
        let meta = crawl_meta(config.general_hours());
        b.push(
            "general_crawl",
            None,
            RANK_GENERAL,
            vec![day],
            meta,
            move |ctx, obs| {
                let mut sim = ctx
                    .dep::<Mutex<Simulation>>(0)
                    .lock()
                    .expect("the general crawl is the simulation's only user");
                let (day, snapshot) = shared.day();
                let crawl = general_crawl(config, day, &mut sim, snapshot, obs.metrics);
                if let Some(reg) = obs.metrics {
                    sim.export_metrics(reg, "net.general");
                }
                publish(&shared.general, crawl, "general crawl");
                Box::new(()) as TaskOutput
            },
        )
    });
    let shared_tasks = [
        ("static", static_task),
        ("day_crawl", day_task),
        ("general_crawl", general_task),
    ]
    .into_iter()
    .filter_map(|(id, idx)| Some((id, idx?)))
    .collect();
    let deps_for = |needs: Needs| -> Vec<usize> {
        let mut deps = Vec::new();
        if needs.static_env {
            deps.push(static_task.expect("static build scheduled"));
        }
        if needs.day {
            deps.push(day_task.expect("day crawl scheduled"));
        }
        if needs.general {
            deps.push(general_task.expect("general crawl scheduled"));
        }
        deps
    };

    let mut artifact_tasks = Vec::with_capacity(selected.len());
    for (j, job) in selected.iter().enumerate() {
        let idx = match job.build {
            Build::FanOut(push) => push(
                &mut b,
                FanOut {
                    job: j,
                    config,
                    shared,
                    shared_deps: deps_for(job.needs),
                },
            ),
            Build::Render(render) => {
                // Jobs that read shared inputs inherit scale/seed/hours
                // through their dependency keys; the self-contained
                // cascade encodes its config slice directly.
                let slice = if job.id == "cascade" {
                    scale_seed(config)
                } else {
                    Vec::new()
                };
                let meta = CacheMeta::payload::<Vec<Artifact>>(LV_SIMPLE, slice, job.id == "fig7");
                b.push(
                    job.id,
                    Some(j),
                    simple_rank(job.id),
                    deps_for(job.needs),
                    meta,
                    move |_, obs| {
                        let ctx = JobCtx {
                            config,
                            shared,
                            metrics: obs.metrics,
                            trace: obs.trace,
                        };
                        Box::new(render(&ctx)) as TaskOutput
                    },
                )
            }
        };
        artifact_tasks.push(idx);
    }
    DagParts {
        dag: b.dag,
        metas: b.metas,
        cells: b.cells,
        shared_tasks,
        artifact_tasks,
    }
}

/// `ablations` fan-out: one task per `(case, seed)` simulation of the
/// relay, out-degree and span-ratio sweeps, merged in case-major /
/// seed-minor order (a fixed accumulation order, floating point
/// included). Units are cached as volatile (their result types
/// have no canonical codec): a warm run replays the merge's artifact
/// payload and skips every unit.
fn push_ablations<'a>(b: &mut DagBuilder<'a>, fan: FanOut<'a>) -> usize {
    let (j, seed) = (fan.job, fan.config.seed);
    let seed_slice = cfg(&[seed]);
    let n_seeds = ablation::AVERAGING_SEEDS.len();
    let mut deps = Vec::new();
    for case in 0..ablation::RELAY_CASES.len() {
        for s in 0..n_seeds {
            deps.push(b.push(
                format!("ablations/relay[{case},s{s}]"),
                Some(j),
                RANK_NET_UNIT,
                vec![],
                CacheMeta::volatile(LV_ABLATIONS, seed_slice.clone(), false),
                move |_, _| Box::new(ablation::relay_unit(seed, case, s)) as TaskOutput,
            ));
        }
    }
    for degree in 0..ablation::OUT_DEGREES.len() {
        for s in 0..n_seeds {
            deps.push(b.push(
                format!("ablations/degree[{degree},s{s}]"),
                Some(j),
                RANK_NET_UNIT,
                vec![],
                CacheMeta::volatile(LV_ABLATIONS, seed_slice.clone(), false),
                move |_, _| Box::new(ablation::degree_unit(seed, degree, s)) as TaskOutput,
            ));
        }
    }
    for ratio in 0..ablation::SPAN_RATIOS.len() {
        for s in 0..n_seeds {
            deps.push(b.push(
                format!("ablations/span[{ratio},s{s}]"),
                Some(j),
                RANK_SPAN_UNIT,
                vec![],
                CacheMeta::volatile(LV_ABLATIONS, seed_slice.clone(), false),
                move |_, _| Box::new(ablation::span_unit(seed, ratio, s)) as TaskOutput,
            ));
        }
    }
    let relay_n = ablation::RELAY_CASES.len() * n_seeds;
    let degree_n = ablation::OUT_DEGREES.len() * n_seeds;
    let span_n = ablation::SPAN_RATIOS.len() * n_seeds;
    let meta = CacheMeta::payload::<Vec<Artifact>>(LV_ABLATIONS, Vec::new(), false);
    b.push(
        "ablations/merge",
        Some(j),
        RANK_MERGE,
        deps,
        meta,
        move |ctx, _| {
            let relay: Vec<ablation::NetUnit> = (0..relay_n).map(|k| *ctx.dep(k)).collect();
            let degree: Vec<ablation::NetUnit> =
                (relay_n..relay_n + degree_n).map(|k| *ctx.dep(k)).collect();
            let span: Vec<ablation::SpanUnit> = (relay_n + degree_n..relay_n + degree_n + span_n)
                .map(|k| ctx.dep::<ablation::SpanUnit>(k).clone())
                .collect();
            Box::new(vec![
                ablation::relay_mode_from_units(&relay),
                ablation::out_degree_from_units(&degree),
                ablation::span_ratio_from_units(&span),
            ]) as TaskOutput
        },
    )
}

/// `countermeasures` fan-out: the closed-form sweep cells, the stratum
/// and route-purging renders, and the two temporal-attack arms all run
/// as independent tasks; the merge renders in presentation order
/// (sweep, stratum, purging, BlockAware comparison).
fn push_countermeasures<'a>(b: &mut DagBuilder<'a>, fan: FanOut<'a>) -> usize {
    let FanOut {
        job: j,
        config,
        shared,
        shared_deps,
    } = fan;
    let mut deps = Vec::new();
    for &threshold in defense::BLOCKAWARE_SWEEP_THRESHOLDS.iter() {
        deps.push(b.push(
            format!("countermeasures/sweep[{threshold}]"),
            Some(j),
            RANK_CHEAP,
            vec![],
            CacheMeta::payload::<BlockAwareTradeoff>(LV_COUNTERMEASURES, Vec::new(), false),
            move |_, _| Box::new(defense::blockaware_sweep_row(threshold)) as TaskOutput,
        ));
    }
    deps.push(b.push(
        "countermeasures/stratum",
        Some(j),
        RANK_CHEAP,
        vec![],
        CacheMeta::payload::<Artifact>(LV_COUNTERMEASURES, Vec::new(), false),
        |_, _| Box::new(defense::stratum_diversification()) as TaskOutput,
    ));
    deps.push(b.push(
        "countermeasures/purging",
        Some(j),
        RANK_SIMPLE,
        shared_deps,
        CacheMeta::payload::<Artifact>(LV_COUNTERMEASURES, Vec::new(), false),
        move |_, _| Box::new(defense::route_purging(shared.static_env().0)) as TaskOutput,
    ));
    // A long enough window that (a) post-capture staleness alarms
    // fire — at 30 % hash the counterfeit inter-block gap averages
    // 2,000 s, well past the 600 s threshold — and (b) the honest
    // majority's hash advantage dominates short lucky streaks by the
    // attacker.
    let attack = TemporalAttackConfig {
        duration_secs: 12 * 600,
        max_targets: (200.0 * config.scale).max(30.0) as usize,
        ..TemporalAttackConfig::paper()
    };
    for (label, protected) in [
        ("countermeasures/attack[open]", false),
        ("countermeasures/attack[blockaware]", true),
    ] {
        let meta = CacheMeta::payload::<TemporalAttackReport>(
            LV_COUNTERMEASURES,
            scale_seed(config),
            false,
        );
        deps.push(b.push(label, Some(j), RANK_ARM, vec![], meta, move |_, _| {
            let mut lab = measurement_lab(config);
            lab.sim.run_for_secs(4 * 600);
            let cfg = if protected {
                defense::blockaware_protected_config(attack)
            } else {
                attack
            };
            Box::new(run_temporal_attack(&mut lab.sim, cfg)) as TaskOutput
        }));
    }
    let n_sweep = defense::BLOCKAWARE_SWEEP_THRESHOLDS.len();
    b.push(
        "countermeasures/merge",
        Some(j),
        RANK_MERGE,
        deps,
        CacheMeta::payload::<Vec<Artifact>>(LV_COUNTERMEASURES, Vec::new(), false),
        move |ctx, _| {
            let rows: Vec<BlockAwareTradeoff> = (0..n_sweep).map(|k| *ctx.dep(k)).collect();
            Box::new(vec![
                defense::blockaware_sweep_from_rows(&rows),
                ctx.dep::<Artifact>(n_sweep).clone(),
                ctx.dep::<Artifact>(n_sweep + 1).clone(),
                defense::blockaware_defense_from_reports(
                    ctx.dep::<TemporalAttackReport>(n_sweep + 2),
                    ctx.dep::<TemporalAttackReport>(n_sweep + 3),
                ),
            ]) as TaskOutput
        },
    )
}

/// One λ-row of Table VI plus its trace stream (when tracing).
type Table6Row = ((f64, Vec<Option<u64>>), Option<Tracer>);

/// `table6` fan-out: one bisection task per λ row; the merge renders the
/// grid and concatenates the per-row trace streams in λ order, which
/// gives the same model stream as one full-grid sweep (each row numbers
/// its records with grid-global cell ordinals).
fn push_table6<'a>(b: &mut DagBuilder<'a>, fan: FanOut<'a>) -> usize {
    let j = fan.job;
    let n = temporal::TABLE6_LAMBDAS.len();
    let mut deps = Vec::new();
    for li in 0..n {
        deps.push(b.push(
            format!("table6/row[{li}]"),
            Some(j),
            RANK_MODEL_ROW,
            vec![],
            CacheMeta::payload::<Table6Row>(LV_TABLE6, Vec::new(), true),
            move |_, obs| {
                let mut tracer = obs.trace.map(|_| Tracer::new());
                let out: Table6Row = (
                    temporal::table6_row(li, obs.metrics, tracer.as_mut()),
                    tracer,
                );
                Box::new(out) as TaskOutput
            },
        ));
    }
    let meta = CacheMeta::payload::<Vec<Artifact>>(LV_TABLE6, Vec::new(), true);
    b.push(
        "table6/merge",
        Some(j),
        RANK_MERGE,
        deps,
        meta,
        move |ctx, obs| {
            let mut grid = Vec::with_capacity(n);
            let mut merged = Tracer::new();
            for k in 0..n {
                let (row, tracer) = ctx.dep::<Table6Row>(k);
                grid.push(row.clone());
                if let Some(t) = tracer {
                    merged.append(t.clone());
                }
            }
            if let Some(hub) = obs.trace {
                hub.set_model(merged);
            }
            Box::new(vec![temporal::table6_from_rows(&grid)]) as TaskOutput
        },
    )
}

/// `propagation` chain: warm a measurement lab, then crawl it. Two
/// tasks so the warmup runs concurrently with unrelated work while the
/// measure step still sees the exact serial state (single consumer —
/// the lab moves through a `Mutex`).
fn push_propagation<'a>(b: &mut DagBuilder<'a>, fan: FanOut<'a>) -> usize {
    let (j, config) = (fan.job, fan.config);
    let prep_meta = CacheMeta::volatile(LV_SIM_CHAIN, scale_seed(config), false);
    let prep = b.push(
        "propagation/prep",
        Some(j),
        RANK_PREP,
        vec![],
        prep_meta,
        move |_, _| {
            let mut lab = measurement_lab(config);
            lab.sim.run_for_secs(2 * 600);
            Box::new(Mutex::new(lab)) as TaskOutput
        },
    );
    let meta = CacheMeta::payload::<Vec<Artifact>>(
        LV_SIM_CHAIN,
        cfg(&[config.day_hours.clamp(1, 4)]),
        false,
    );
    b.push(
        "propagation/measure",
        Some(j),
        RANK_PREP,
        vec![prep],
        meta,
        move |ctx, _| {
            let mut lab = ctx.dep::<Mutex<Lab>>(0).lock().unwrap();
            let lab = &mut *lab;
            Box::new(vec![temporal::propagation(
                &mut lab.sim,
                &lab.snapshot,
                config.day_hours.clamp(1, 4),
            )]) as TaskOutput
        },
    )
}

/// `fifty_one` chain: same prep/measure split as `propagation`.
fn push_fifty_one<'a>(b: &mut DagBuilder<'a>, fan: FanOut<'a>) -> usize {
    let (j, config) = (fan.job, fan.config);
    let prep_meta = CacheMeta::volatile(LV_SIM_CHAIN, scale_seed(config), false);
    let prep = b.push(
        "fifty_one/prep",
        Some(j),
        RANK_PREP,
        vec![],
        prep_meta,
        move |_, _| {
            let mut lab = measurement_lab(config);
            lab.sim.run_for_secs(2 * 600);
            Box::new(Mutex::new(lab)) as TaskOutput
        },
    );
    let meta = CacheMeta::payload::<Vec<Artifact>>(LV_SIM_CHAIN, Vec::new(), false);
    b.push(
        "fifty_one/measure",
        Some(j),
        RANK_PREP,
        vec![prep],
        meta,
        move |ctx, _| {
            let mut lab = ctx.dep::<Mutex<Lab>>(0).lock().unwrap();
            let lab = &mut *lab;
            Box::new(vec![combined::fifty_one(&mut lab.sim, &lab.census)]) as TaskOutput
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn needs_union_skips_unused_shared_inputs() {
        let config = ReproConfig {
            scale: 0.02,
            ..ReproConfig::quick()
        };
        let shared = SharedInputs::default();
        let needs = Needs {
            static_env: true,
            day: false,
            general: false,
        };
        let DagParts {
            dag, shared_tasks, ..
        } = build_dag(&config, &[], &shared, needs, false, false);
        dag.execute(1);
        assert!(shared.static_env.get().is_some());
        assert!(shared.day.get().is_none());
        assert!(shared.general.get().is_none());
        assert_eq!(shared_tasks.len(), 1);
        assert_eq!(shared_tasks[0].0, "static");
    }

    #[test]
    fn overlapped_run_matches_serial_run() {
        let config = ReproConfig {
            scale: 0.02,
            day_hours: 1,
            ..ReproConfig::quick()
        };
        // A mix that exercises every readiness class: no-input jobs,
        // static jobs, and both crawls.
        let ids = ["table1", "fig6_general", "fig6_day", "table6", "ablations"]
            .map(String::from)
            .to_vec();
        let (serial, serial_report) = run_pipeline(&config, &ids, 1, None, None, None);
        let (overlapped, overlapped_report) = run_pipeline(&config, &ids, 4, None, None, None);
        assert_eq!(serial.len(), overlapped.len());
        for (a, b) in serial.iter().zip(overlapped.iter()) {
            assert_eq!(a.id, b.id);
            assert_eq!(a.body, b.body, "body of {} differs when overlapped", a.id);
            assert_eq!(a.csv, b.csv, "csv of {} differs when overlapped", a.id);
        }
        // Both reports cover the same stages in the same order, and the
        // same task graph (labels included) regardless of worker count.
        let stage_ids = |r: &RunReport| -> Vec<String> {
            r.shared
                .iter()
                .chain(r.jobs.iter())
                .map(|s| s.id.clone())
                .collect()
        };
        assert_eq!(stage_ids(&serial_report), stage_ids(&overlapped_report));
        let task_labels =
            |r: &RunReport| -> Vec<String> { r.tasks.iter().map(|t| t.label.clone()).collect() };
        assert_eq!(task_labels(&serial_report), task_labels(&overlapped_report));
        assert_eq!(serial_report.tasks_spawned, overlapped_report.tasks_spawned);
        assert_eq!(serial_report.max_ready, overlapped_report.max_ready);
        // The fan-out jobs decompose: more tasks than stages.
        assert!(
            serial_report.tasks_spawned
                > (serial_report.jobs.len() + serial_report.shared.len()) as u64
        );
        assert!(overlapped_report.render().contains("critical path"));
    }

    #[test]
    fn report_counts_bytes_and_estimates_speedup() {
        let config = ReproConfig {
            scale: 0.02,
            ..ReproConfig::quick()
        };
        let ids = vec!["table1".to_string(), "table2".to_string()];
        let (artifacts, report) = run_pipeline(&config, &ids, 2, None, None, None);
        assert_eq!(artifacts.len(), 2);
        assert_eq!(report.jobs.len(), 2);
        assert!(report.jobs.iter().all(|j| j.body_bytes > 0));
        assert!(report.speedup() > 0.0);
        let csv = report.timings_csv();
        assert!(csv.starts_with("stage,kind,wall_ms"));
        // Header + shared static + 2 jobs + 3 task rows (one per shared
        // build and per single-task job).
        assert_eq!(csv.lines().count(), 7);
        assert!(report.render().contains("threads: 2"));
    }

    #[test]
    fn trace_hub_merges_in_rank_order_and_is_repeatable() {
        use bp_obs::TraceKind::{GridMine, Mine, ModelBisect};
        let stream = |kind, n| {
            let mut tracer = Tracer::new();
            for t in 0..n {
                tracer.record(kind, t, 0, 0, 0);
            }
            tracer
        };
        let kinds =
            |hub: &TraceHub| -> Vec<_> { hub.merged().records().iter().map(|r| r.kind).collect() };
        let hub = TraceHub::new();
        hub.set_model(stream(ModelBisect, 2));
        hub.set_day(stream(Mine, 3));
        hub.set_grid(stream(GridMine, 1));
        let merged = kinds(&hub);
        assert_eq!(
            merged,
            [Mine, Mine, Mine, GridMine, ModelBisect, ModelBisect]
        );
        // The hub keeps its streams, so merging again gives the same trace.
        assert_eq!(kinds(&hub), merged);
        // Re-depositing a key replaces its stream: the last deposit wins.
        hub.set_day(stream(Mine, 1));
        assert_eq!(kinds(&hub), [Mine, GridMine, ModelBisect, ModelBisect]);
    }
}
