//! Deterministic parallel artifact pipeline on a fine-grained task DAG.
//!
//! Every paper artifact is modelled as a *job* that reads at most one
//! shared [`Input`] (the static snapshot + census, the one-day crawl, or
//! the general crawl). Each run compiles the selected jobs into one
//! [`dag::Dag`](crate::dag): the static build and the day crawl are
//! independent root tasks that run concurrently, the general crawl
//! continues the day crawl's simulation, and each job's [`JOBS`] row
//! names its one build. A shared build returns its input as its task
//! output, and readers get it along their dependency edge — there is no
//! other channel. A render job is a single task whose dependency 0 is
//! the shared build it reads. A job fans out only into independent
//! simulations: closed-form work (Table VI, the BlockAware sweep) and
//! sequential chains (warm a lab, then measure it) stay inside one task,
//! where a split would buy no parallelism. The two fan-out jobs,
//! `ablations` and `countermeasures`, are compiled by their builders
//! into one task per independently-seeded inner simulation plus a pure
//! merge that folds unit results in a fixed order. No job has a second,
//! serial body. The whole graph executes on a single scoped worker
//! pool; results are reassembled in
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
    self, ArtifactStore, CacheSummary, Decision, Envelope, ObsEffects, TaskCacheStatus, Unit,
    UnitPlan,
};
use crate::dag::{Dag, DagRun, TaskCtx, TaskOutput, TaskTiming};
use crate::{day_crawl, general_crawl, measurement_lab, ReproConfig, DAY_PERIOD_SECS};
use bp_obs::Tracer;
use btcpart::attacks::temporal::{run_temporal_attack, TemporalAttackConfig, TemporalAttackReport};
use btcpart::crawler::CrawlResult;
use btcpart::experiments::codec::{canonical_f64_bits, encode_value};
use btcpart::experiments::{ablation, combined, defense, logical, spatial, temporal, Artifact};
use btcpart::mining::PoolCensus;
use btcpart::net::Simulation;
use btcpart::topology::Snapshot;
use btcpart::Scenario;
use std::collections::BTreeMap;
use std::num::NonZeroUsize;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// The day task's output: the one-day, 1-minute-sampled crawl (Figure
/// 6(b,c), Table V, Table VII, Figure 8), the snapshot its lab was
/// built from, and the lab's simulation where the crawl left it. One
/// measurement network backs both crawls: the general task continues
/// the simulation (single consumer — it moves through a `Mutex`); no
/// job reads it.
struct DayCrawl {
    crawl: CrawlResult,
    snapshot: Snapshot,
    sim: Mutex<Simulation>,
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
/// task slots in by picking a key.
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

/// The shared input a job reads. No job reads two, so a reader's input
/// is always its dependency 0.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Input {
    /// Reads no shared input.
    None,
    /// Static snapshot + census.
    Static,
    /// One-day crawl and its lab's snapshot.
    Day,
    /// General (long) crawl.
    General,
}

/// Everything a render job is allowed to see: the seeded configuration
/// and the output of the shared build its [`Input`] names. Jobs must
/// derive all randomness from these — that is what makes the fan-out
/// deterministic.
pub struct JobCtx<'a> {
    /// The reproduction parameters.
    pub config: &'a ReproConfig,
    /// Optional metrics registry (`repro --metrics`). Jobs that count
    /// internal work record into it; `None` costs nothing. Recording
    /// never changes artifact output — see the `bp-obs` crate docs.
    pub metrics: Option<&'a bp_obs::Registry>,
    /// Optional flight-recorder hub (`repro --trace`). Traced jobs
    /// deposit their event streams here; `None` records nothing.
    /// Recording never changes artifact output either.
    pub trace: Option<&'a TraceHub>,
    task: &'a TaskCtx<'a>,
}

impl JobCtx<'_> {
    /// The static snapshot and census ([`Input::Static`]).
    pub fn static_env(&self) -> (&Snapshot, &PoolCensus) {
        let (snapshot, census) = self.task.dep::<(Snapshot, PoolCensus)>(0);
        (snapshot, census)
    }

    /// The one-day crawl and its lab's snapshot ([`Input::Day`]).
    pub fn day(&self) -> (&CrawlResult, &Snapshot) {
        let day = self.task.dep::<DayCrawl>(0);
        (&day.crawl, &day.snapshot)
    }

    /// The general crawl ([`Input::General`]).
    pub fn general(&self) -> &CrawlResult {
        self.task.dep(0)
    }
}

/// What a fan-out builder gets besides the graph: the owning job's
/// index, the run's configuration, and the shared-build task its
/// [`Input`] resolves to (empty for [`Input::None`]).
struct FanOut<'a> {
    job: usize,
    config: &'a ReproConfig,
    input: Vec<usize>,
}

/// How [`run_pipeline`] compiles a job into the task DAG.
enum Build {
    /// One task that renders the job's artifacts from its [`JobCtx`].
    Render(fn(&JobCtx) -> Vec<Artifact>),
    /// Pushes the job's unit tasks plus a merge and returns the merge's
    /// task index; the merge's output is the job's artifacts.
    FanOut(for<'a> fn(&mut DagBuilder<'a>, FanOut<'a>) -> usize),
}

/// One artifact job: a stable id (matching [`ARTIFACT_IDS`](crate::ARTIFACT_IDS)), the
/// shared input it reads, and how it compiles into the task DAG —
/// every job has exactly one path. A job may emit more than one artifact
/// (`table8` also emits the CVE exposure table, `countermeasures` emits
/// four artifacts, `ablations` three).
pub struct JobSpec {
    /// Stable identifier, equal to the corresponding `ARTIFACT_IDS` entry.
    pub id: &'static str,
    /// The shared input the job reads.
    pub input: Input,
    build: Build,
}

fn job_table1(ctx: &JobCtx) -> Vec<Artifact> {
    vec![spatial::table1(ctx.static_env().0)]
}
fn job_table2(ctx: &JobCtx) -> Vec<Artifact> {
    vec![spatial::table2(ctx.static_env().0)]
}
fn job_table3(ctx: &JobCtx) -> Vec<Artifact> {
    vec![spatial::table3(ctx.static_env().0)]
}
fn job_table4(ctx: &JobCtx) -> Vec<Artifact> {
    let (snapshot, census) = ctx.static_env();
    vec![spatial::table4(snapshot, census)]
}
fn job_fig3(ctx: &JobCtx) -> Vec<Artifact> {
    vec![spatial::fig3(ctx.static_env().0)]
}
fn job_fig4(ctx: &JobCtx) -> Vec<Artifact> {
    vec![spatial::fig4(ctx.static_env().0)]
}
fn job_fig6_general(ctx: &JobCtx) -> Vec<Artifact> {
    vec![temporal::fig6(ctx.general(), "general", None)]
}
fn job_fig6_day(ctx: &JobCtx) -> Vec<Artifact> {
    vec![temporal::fig6(ctx.day().0, "day", None)]
}
fn job_fig6_minute(ctx: &JobCtx) -> Vec<Artifact> {
    // Figure 6(c) zooms into the consensus pruning between two
    // successive blocks: a ~30-minute window of the 1-minute samples.
    let crawl = ctx.day().0;
    let len = crawl.series.len();
    let window = len.saturating_sub(30)..len;
    vec![temporal::fig6(crawl, "minute", Some(window))]
}
fn job_table5(ctx: &JobCtx) -> Vec<Artifact> {
    vec![temporal::table5(ctx.day().0, DAY_PERIOD_SECS)]
}
fn job_fig7(ctx: &JobCtx) -> Vec<Artifact> {
    let mut tracer = ctx.trace.map(|_| Tracer::new());
    let artifact = temporal::fig7(ctx.metrics, tracer.as_mut());
    if let (Some(hub), Some(tracer)) = (ctx.trace, tracer) {
        hub.set_stream(STREAM_RANK_GRID, "grid", tracer);
    }
    vec![artifact]
}
fn job_table6(ctx: &JobCtx) -> Vec<Artifact> {
    let mut tracer = ctx.trace.map(|_| Tracer::new());
    let artifact = temporal::table6(ctx.metrics, tracer.as_mut());
    if let (Some(hub), Some(tracer)) = (ctx.trace, tracer) {
        hub.set_stream(STREAM_RANK_MODEL, "model", tracer);
    }
    vec![artifact]
}
fn job_table7(ctx: &JobCtx) -> Vec<Artifact> {
    let (crawl, snapshot) = ctx.day();
    vec![combined::table7(crawl, snapshot)]
}
fn job_fig8(ctx: &JobCtx) -> Vec<Artifact> {
    let (crawl, snapshot) = ctx.day();
    vec![combined::fig8(crawl, snapshot)]
}
fn job_table8(ctx: &JobCtx) -> Vec<Artifact> {
    let snapshot = ctx.static_env().0;
    vec![logical::table8(snapshot), logical::cve_exposure(snapshot)]
}
fn job_implications(ctx: &JobCtx) -> Vec<Artifact> {
    let (snapshot, census) = ctx.static_env();
    vec![combined::implications(snapshot, census)]
}
fn job_cascade(ctx: &JobCtx) -> Vec<Artifact> {
    let lab = measurement_lab(ctx.config);
    vec![combined::cascade(&lab.sim, &lab.snapshot)]
}
fn job_fifty_one(ctx: &JobCtx) -> Vec<Artifact> {
    let mut lab = measurement_lab(ctx.config);
    lab.sim.run_for_secs(2 * 600);
    vec![combined::fifty_one(&mut lab.sim, &lab.census)]
}
fn job_propagation(ctx: &JobCtx) -> Vec<Artifact> {
    let mut lab = measurement_lab(ctx.config);
    lab.sim.run_for_secs(2 * 600);
    let hours = ctx.config.day_hours.clamp(1, 4);
    vec![temporal::propagation(&mut lab.sim, &lab.snapshot, hours)]
}

/// A [`JOBS`] row compiled to one render task.
const fn render(id: &'static str, input: Input, f: fn(&JobCtx) -> Vec<Artifact>) -> JobSpec {
    JobSpec {
        id,
        input,
        build: Build::Render(f),
    }
}

/// A [`JOBS`] row compiled by its fan-out builder.
const fn fan_out(
    id: &'static str,
    input: Input,
    f: for<'a> fn(&mut DagBuilder<'a>, FanOut<'a>) -> usize,
) -> JobSpec {
    JobSpec {
        id,
        input,
        build: Build::FanOut(f),
    }
}

/// The full job table, in presentation order; [`ARTIFACT_IDS`](crate::ARTIFACT_IDS)
/// is its id column.
pub const JOBS: [JobSpec; 21] = [
    render("table1", Input::Static, job_table1),
    render("table2", Input::Static, job_table2),
    render("table3", Input::Static, job_table3),
    render("table4", Input::Static, job_table4),
    render("fig3", Input::Static, job_fig3),
    render("fig4", Input::Static, job_fig4),
    render("fig6_general", Input::General, job_fig6_general),
    render("fig6_day", Input::Day, job_fig6_day),
    render("fig6_minute", Input::Day, job_fig6_minute),
    render("table5", Input::Day, job_table5),
    render("table6", Input::None, job_table6),
    render("fig7", Input::None, job_fig7),
    render("table7", Input::Day, job_table7),
    render("fig8", Input::Day, job_fig8),
    render("table8", Input::Static, job_table8),
    render("implications", Input::Static, job_implications),
    render("cascade", Input::None, job_cascade),
    render("fifty_one", Input::None, job_fifty_one),
    render("propagation", Input::None, job_propagation),
    fan_out("countermeasures", Input::Static, push_countermeasures),
    fan_out("ablations", Input::None, push_ablations),
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
    /// one `task` row per DAG task (fan-out jobs show their inner tasks
    /// there). Task labels are CSV-quoted when they contain a comma
    /// (`ablations/relay[0,s0]`).
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
                bp_obs::csv_field(&task.label),
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
/// only on the shared input they read, and the multi-run
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
///   store with one entry per job and per shared build. A unit's key is
///   derived from its id, logic version, config slice and the key of
///   the shared build it reads; a job whose key resolves is *replayed*
///   — its stored artifacts go straight to the result and the stored
///   metric/trace effects of all its tasks are injected — instead of
///   run, and a shared build that no missing job reads is skipped the
///   same way. A warm run therefore produces byte-identical artifacts,
///   metrics and traces while doing none of the simulation work. The
///   store is *not* flushed here — callers flush after exporting so a
///   crashed run never commits a partial index.
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
    let workers = workers.max(1);

    // The graph is a pure function of (config, selection): the same
    // tasks and edges are built in the same order for any worker count,
    // which is what keeps the scheduler counters in `--metrics`
    // byte-identical across `--jobs N`.
    let DagParts {
        dag,
        units,
        cells,
        shared_tasks,
        artifact_tasks,
    } = build_dag(config, &selected, reg.is_some(), hub.is_some());

    // Cache units are the shared builds (shared build `i` is task `i`),
    // then the jobs in presentation order.
    let unit_of: Vec<usize> = (dag.tasks().iter().enumerate())
        .map(|(i, t)| t.job.map_or(i, |j| shared_tasks.len() + j))
        .collect();
    let mut plan: Option<Vec<UnitPlan>> = store
        .as_deref_mut()
        .map(|s| cache::plan_run(s, &units, reg.is_some(), hub.is_some()));
    let skip: Vec<bool> = match &plan {
        None => vec![false; dag.len()],
        Some(plan) => (unit_of.iter())
            .map(|&u| !matches!(plan[u].decision, Decision::Run))
            .collect(),
    };

    let worker_count = workers.min(dag.len().max(1));
    let DagRun {
        mut outputs,
        timings,
        stats,
    } = dag.execute_planned(worker_count, &skip);

    // Per unit: one that ran merges its scoped observations into the
    // run's registry/hub and, on a miss, is stored; a skipped one
    // injects its stored effects instead, so the merged result is
    // independent of what was cached. Merging is order-insensitive.
    let mut job_artifacts: Vec<Vec<Artifact>> = Vec::with_capacity(selected.len());
    for (u, cell) in cells.iter().enumerate() {
        if let Some(UnitPlan {
            decision: Decision::Replay { artifacts, effects },
            ..
        }) = plan.as_mut().map(|p| &mut p[u])
        {
            effects.replay(reg, hub);
            job_artifacts.extend(artifacts.take());
            continue;
        }
        if let Some(reg) = reg {
            reg.merge_snapshot(&cell.reg.snapshot());
        }
        if let Some(hub) = hub {
            for (rank, name, tracer) in cell.hub.streams() {
                hub.set_stream(rank, &name, tracer);
            }
        }
        let produced = u.checked_sub(shared_tasks.len()).map(|j| {
            let output = std::mem::replace(&mut outputs[artifact_tasks[j]], Box::new(()));
            *output
                .downcast::<Vec<Artifact>>()
                .unwrap_or_else(|_| panic!("task for job {} returns Vec<Artifact>", selected[j].id))
        });
        let missed = plan.as_ref().map(|p| &p[u]);
        if let (Some(s), Some(missed)) = (store.as_deref_mut(), missed) {
            if missed.status == TaskCacheStatus::Miss {
                let envelope = Envelope {
                    payload: produced.as_ref().map(encode_value),
                    effects: ObsEffects::capture(&cell.reg, &cell.hub),
                };
                s.insert(missed.key, envelope.encode());
            }
        }
        job_artifacts.extend(produced);
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

    assert_eq!(job_artifacts.len(), selected.len(), "one result per job");
    let mut artifacts = Vec::new();
    let mut job_timings = Vec::new();
    for ((job, wall), produced) in selected.iter().zip(job_walls).zip(job_artifacts) {
        job_timings.push(StageTiming::for_artifacts(job.id, wall, &produced));
        artifacts.extend(produced);
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

    let status = |i: usize| plan.as_ref().map(|p| p[unit_of[i]].status);
    let tasks: Vec<TaskRow> = timings
        .iter()
        .enumerate()
        .map(|(i, t)| TaskRow {
            label: t.label.clone(),
            job: t.job.map(|j| selected[j].id.to_string()),
            wall: t.wall,
            cache: status(i).map(TaskCacheStatus::as_str),
        })
        .collect();

    let cache_summary = plan.as_ref().map(|_| {
        let hits = (0..timings.len())
            .filter(|&i| status(i) == Some(TaskCacheStatus::Hit))
            .count() as u64;
        CacheSummary {
            hits,
            misses: timings.len() as u64 - hits,
            skipped: skip.iter().filter(|&&s| s).count() as u64,
            bytes_read: store.as_deref().map_or(0, |s| s.bytes_read()),
            bytes_written: store.as_deref().map_or(0, |s| s.bytes_written()),
        }
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

// Per-family logic versions, folded into every cache key. Bump a
// family's version whenever its code changes behaviour without a config
// or input change — old store entries then miss instead of replaying
// stale results.
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
/// (floats pass through [`canonical_f64_bits`] first). Each unit
/// encodes exactly the [`ReproConfig`] fields its tasks read — the key
/// of the shared build it reads carries everything upstream.
fn cfg(parts: &[u64]) -> Vec<u8> {
    let mut out = Vec::with_capacity(parts.len() * 8);
    for p in parts {
        out.extend_from_slice(&p.to_le_bytes());
    }
    out
}

/// The `(scale, seed)` config slice of every unit that builds its own
/// population.
fn scale_seed(config: &ReproConfig) -> Vec<u8> {
    cfg(&[canonical_f64_bits(config.scale), config.seed])
}

/// A job's cache unit: its family's logic version and the union of the
/// config fields its tasks read. Jobs that read a shared build inherit
/// scale/seed/hours through that build's key.
fn job_unit(job: &JobSpec, config: &ReproConfig, input: Option<usize>) -> Unit {
    let scale = canonical_f64_bits(config.scale);
    let (logic_version, config_bytes) = match job.id {
        "ablations" => (LV_ABLATIONS, cfg(&[config.seed])),
        "countermeasures" => (LV_COUNTERMEASURES, scale_seed(config)),
        "table6" => (LV_TABLE6, Vec::new()),
        "propagation" => (
            LV_SIM_CHAIN,
            cfg(&[scale, config.seed, config.day_hours.clamp(1, 4)]),
        ),
        "fifty_one" => (LV_SIM_CHAIN, scale_seed(config)),
        "cascade" => (LV_SIMPLE, scale_seed(config)),
        _ => (LV_SIMPLE, Vec::new()),
    };
    Unit {
        id: job.id,
        logic_version,
        config_bytes,
        input,
        job: true,
    }
}

/// One cache unit's scoped observation cell, shared by all of the
/// unit's tasks: everything they record lands here first, is captured
/// into the unit's cache envelope on a miss, and is merged into the
/// run's global registry/hub afterwards. Merging is order-insensitive
/// (counters add, gauges take maxima, stream keys are disjoint), so
/// concurrent tasks sharing a cell never change the exported bytes.
#[derive(Default)]
struct UnitObs {
    reg: bp_obs::Registry,
    hub: TraceHub,
}

/// The observability view handed to a task closure: its unit's *scoped*
/// registry/hub when the run records metrics/traces, `None` otherwise
/// (so task code takes the exact same branches as an unobserved run).
#[derive(Clone, Copy)]
struct ObsCtx<'o> {
    metrics: Option<&'o bp_obs::Registry>,
    trace: Option<&'o TraceHub>,
}

/// [`Dag`] construction wrapper that gives every task its cache unit's
/// scoped observation cell.
struct DagBuilder<'a> {
    dag: Dag<'a>,
    cells: Vec<Arc<UnitObs>>,
    metrics_on: bool,
    trace_on: bool,
}

impl<'a> DagBuilder<'a> {
    fn new(metrics_on: bool, trace_on: bool) -> Self {
        DagBuilder {
            dag: Dag::new(),
            cells: Vec::new(),
            metrics_on,
            trace_on,
        }
    }

    /// Adds a task. A shared build (`job` is `None`) is one task and a
    /// unit of its own; a job's tasks, pushed one after another, share
    /// the job's unit.
    fn push(
        &mut self,
        label: impl Into<String>,
        job: Option<usize>,
        deps: Vec<usize>,
        run: impl Fn(&TaskCtx, ObsCtx<'_>) -> TaskOutput + Send + Sync + 'a,
    ) -> usize {
        let joins_unit = job.is_some() && self.dag.tasks().last().is_some_and(|t| t.job == job);
        if !joins_unit {
            self.cells.push(Arc::default());
        }
        let scoped = Arc::clone(self.cells.last().expect("a unit is open"));
        let (metrics_on, trace_on) = (self.metrics_on, self.trace_on);
        self.dag.push(label, job, deps, move |ctx| {
            let obs = ObsCtx {
                metrics: if metrics_on { Some(&scoped.reg) } else { None },
                trace: if trace_on { Some(&scoped.hub) } else { None },
            };
            run(ctx, obs)
        })
    }
}

/// The compiled graph plus everything the cached executor needs: the
/// cache units and their observation cells (both indexed by unit: the
/// shared builds, then the selected jobs), the shared-build tasks as
/// `(stage id, task index)` in the fixed `static` / `day_crawl` /
/// `general_crawl` order, and — per selected job, in presentation
/// order — the index of the task whose output is that job's
/// `Vec<Artifact>`.
struct DagParts<'a> {
    dag: Dag<'a>,
    units: Vec<Unit>,
    cells: Vec<Arc<UnitObs>>,
    shared_tasks: Vec<(&'static str, usize)>,
    artifact_tasks: Vec<usize>,
}

/// Compiles the selected jobs into the fine-grained task DAG.
fn build_dag<'a>(
    config: &'a ReproConfig,
    selected: &[&'static JobSpec],
    metrics_on: bool,
    trace_on: bool,
) -> DagParts<'a> {
    let mut b = DagBuilder::new(metrics_on, trace_on);
    let reads = |input| selected.iter().any(|job| job.input == input);

    // Shared builds are effects-only units: live simulation state cannot
    // be persisted, but a crawl's metrics and the day trace *can* — a
    // warm run replays those effects without simulating. A crawl exports
    // its simulation's counters into the unit's scoped registry (counter
    // keys are prefix-disjoint, so export order cannot affect the
    // snapshot), and a traced day crawl's flight recorder is lifted into
    // the unit's hub before any job can see the input.
    let mut units = Vec::new();
    let mut shared_unit = |id, config_bytes, input| {
        units.push(Unit {
            id,
            logic_version: LV_SHARED,
            config_bytes,
            input,
            job: false,
        })
    };
    let crawl_slice = |hours| cfg(&[canonical_f64_bits(config.scale), config.seed, hours]);
    let static_task = reads(Input::Static).then(|| {
        shared_unit("static", scale_seed(config), None);
        b.push("static", None, vec![], move |_, _| {
            let env = Scenario::new().scale(config.scale).seed(config.seed);
            Box::new(env.build_static()) as TaskOutput
        })
    });
    // The day task runs whenever either crawl is read: its simulation
    // is the one the general crawl continues. The tracer leaves the
    // simulation at the end of the day, so the trace covers the day
    // crawl alone.
    let day_task = (reads(Input::Day) || reads(Input::General)).then(|| {
        shared_unit("day_crawl", crawl_slice(config.day_hours), None);
        b.push("day_crawl", None, vec![], move |_, obs| {
            let (crawl, mut lab) = day_crawl(config, obs.metrics, obs.trace.is_some());
            if let Some(reg) = obs.metrics {
                lab.sim.export_metrics(reg, "net.day");
            }
            if let Some(hub) = obs.trace {
                if let Some(tracer) = lab.sim.take_tracer() {
                    hub.set_stream(STREAM_RANK_DAY, "day", tracer);
                }
            }
            Box::new(DayCrawl {
                crawl,
                snapshot: lab.snapshot,
                sim: Mutex::new(lab.sim),
            }) as TaskOutput
        })
    });
    let general_task = reads(Input::General).then(|| {
        let day = day_task.expect("the day crawl is scheduled with the general crawl");
        shared_unit(
            "general_crawl",
            crawl_slice(config.general_hours()),
            Some(day),
        );
        b.push("general_crawl", None, vec![day], move |ctx, obs| {
            let day = ctx.dep::<DayCrawl>(0);
            let mut sim = day
                .sim
                .lock()
                .expect("the general crawl is the simulation's only user");
            let crawl = general_crawl(config, &day.crawl, &mut sim, &day.snapshot, obs.metrics);
            if let Some(reg) = obs.metrics {
                sim.export_metrics(reg, "net.general");
            }
            Box::new(crawl) as TaskOutput
        })
    });
    let shared_tasks = [
        ("static", static_task),
        ("day_crawl", day_task),
        ("general_crawl", general_task),
    ]
    .into_iter()
    .filter_map(|(id, idx)| Some((id, idx?)))
    .collect();
    // A shared build's task index is also its unit index.
    let input_task = |input| match input {
        Input::None => None,
        Input::Static => static_task,
        Input::Day => day_task,
        Input::General => general_task,
    };

    let mut artifact_tasks = Vec::with_capacity(selected.len());
    for (j, job) in selected.iter().enumerate() {
        let input = input_task(job.input);
        units.push(job_unit(job, config, input));
        let idx = match job.build {
            Build::FanOut(push) => push(
                &mut b,
                FanOut {
                    job: j,
                    config,
                    input: input.into_iter().collect(),
                },
            ),
            Build::Render(render) => b.push(
                job.id,
                Some(j),
                input.into_iter().collect(),
                move |task, obs| {
                    let ctx = JobCtx {
                        config,
                        metrics: obs.metrics,
                        trace: obs.trace,
                        task,
                    };
                    Box::new(render(&ctx)) as TaskOutput
                },
            ),
        };
        artifact_tasks.push(idx);
    }
    debug_assert_eq!(units.len(), b.cells.len(), "one cell per cache unit");
    DagParts {
        dag: b.dag,
        units,
        cells: b.cells,
        shared_tasks,
        artifact_tasks,
    }
}

/// `ablations` fan-out: one task per `(case, seed)` simulation of the
/// relay, out-degree and span-ratio sweeps, merged in case-major /
/// seed-minor order (a fixed accumulation order, floating point
/// included). The relay and out-degree sweeps run each distinct
/// configuration once ([`ablation::NetSweep`]); the merge maps every
/// cell to its simulation's units.
fn push_ablations<'a>(b: &mut DagBuilder<'a>, fan: FanOut<'a>) -> usize {
    let (j, seed) = (fan.job, fan.config.seed);
    let n_seeds = ablation::AVERAGING_SEEDS.len();
    let sweep = ablation::NetSweep::new();
    let mut deps = Vec::new();
    for cell in &sweep.cells {
        for s in 0..n_seeds {
            let config = cell.config.clone();
            deps.push(b.push(
                format!("ablations/{}[{},s{s}]", cell.sweep, cell.index),
                Some(j),
                vec![],
                move |_, _| Box::new(ablation::net_unit(seed, &config, s)) as TaskOutput,
            ));
        }
    }
    for ratio in 0..ablation::SPAN_RATIOS.len() {
        for s in 0..n_seeds {
            deps.push(b.push(
                format!("ablations/span[{ratio},s{s}]"),
                Some(j),
                vec![],
                move |_, _| Box::new(ablation::span_unit(seed, ratio, s)) as TaskOutput,
            ));
        }
    }
    let net_n = sweep.cells.len() * n_seeds;
    let span_n = ablation::SPAN_RATIOS.len() * n_seeds;
    b.push("ablations/merge", Some(j), deps, move |ctx, _| {
        let net: Vec<ablation::NetUnit> = (0..net_n).map(|k| *ctx.dep(k)).collect();
        let span: Vec<ablation::SpanUnit> = (net_n..net_n + span_n)
            .map(|k| ctx.dep::<ablation::SpanUnit>(k).clone())
            .collect();
        let [relay, degree] = sweep.render(&net);
        Box::new(vec![relay, degree, ablation::span_ratio_from_units(&span)]) as TaskOutput
    })
}

/// `countermeasures` fan-out: the two temporal-attack arms run as
/// independent simulations; the merge reads the static input as its
/// dependency 0 and renders in presentation order (sweep, stratum,
/// purging, BlockAware comparison), the first three in closed form.
fn push_countermeasures<'a>(b: &mut DagBuilder<'a>, fan: FanOut<'a>) -> usize {
    let FanOut {
        job: j,
        config,
        input,
    } = fan;
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
    let mut deps = input;
    for (label, protected) in [
        ("countermeasures/attack[open]", false),
        ("countermeasures/attack[blockaware]", true),
    ] {
        deps.push(b.push(label, Some(j), vec![], move |_, _| {
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
    b.push("countermeasures/merge", Some(j), deps, |ctx, _| {
        let (snapshot, _) = ctx.dep::<(Snapshot, PoolCensus)>(0);
        Box::new(vec![
            defense::blockaware_sweep(),
            defense::stratum_diversification(),
            defense::route_purging(snapshot),
            defense::blockaware_defense_from_reports(
                ctx.dep::<TemporalAttackReport>(1),
                ctx.dep::<TemporalAttackReport>(2),
            ),
        ]) as TaskOutput
    })
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
        let selected = selected_jobs(&["table1".to_string()]);
        let DagParts {
            dag,
            shared_tasks,
            artifact_tasks,
            ..
        } = build_dag(&config, &selected, false, false);
        // Only the static build is scheduled, and table1 reads it.
        assert_eq!(shared_tasks, [("static", 0)]);
        assert_eq!(artifact_tasks, [1]);
        assert_eq!(dag.tasks()[1].deps, [0]);
        let run = dag.execute(1);
        assert_eq!(run.outputs.len(), 2);
        assert!(run.outputs[0].is::<(Snapshot, PoolCensus)>());
        assert!(run.outputs[1].is::<Vec<Artifact>>());
    }

    #[test]
    fn shared_builds_precede_every_job_task() {
        // Ready tasks are claimed lowest index first, so building the
        // shared inputs first is what claims the day crawl (head of the
        // longest chain) first and the general crawl as soon as it is
        // ready.
        let config = ReproConfig::quick();
        let selected = selected_jobs(&["all".to_string()]);
        let DagParts {
            dag, shared_tasks, ..
        } = build_dag(&config, &selected, false, false);
        assert_eq!(
            shared_tasks,
            [("static", 0), ("day_crawl", 1), ("general_crawl", 2)]
        );
        assert!(dag.tasks()[3..].iter().all(|t| t.job.is_some()));
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
        let (artifacts, mut report) = run_pipeline(&config, &ids, 2, None, None, None);
        assert_eq!(artifacts.len(), 2);
        assert_eq!(report.jobs.len(), 2);
        assert!(report.jobs.iter().all(|j| j.body_bytes > 0));
        assert!(report.speedup() > 0.0);
        assert!(report.render().contains("threads: 2"));
        // A fan-out task label with a comma in it, as `ablations` has.
        report.tasks.push(TaskRow {
            label: "ablations/relay[0,s0]".to_string(),
            job: Some("ablations".to_string()),
            wall: Duration::from_micros(1500),
            cache: None,
        });
        let csv = report.timings_csv();
        assert!(csv.starts_with("stage,kind,wall_ms"));
        // Header + shared static + 2 jobs + 4 task rows (one per shared
        // build and per single-task job, plus the pushed one).
        let rows = btcpart::analysis::csv::parse(&csv).expect("timings.csv parses");
        assert_eq!(rows.len(), 8);
        assert!(rows.iter().all(|row| row.len() == 6), "{csv}");
        assert_eq!(
            rows[7],
            ["ablations/relay[0,s0]", "task", "1.500", "0", "0", "0"]
        );
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
        hub.set_stream(STREAM_RANK_MODEL, "model", stream(ModelBisect, 2));
        hub.set_stream(STREAM_RANK_DAY, "day", stream(Mine, 3));
        hub.set_stream(STREAM_RANK_GRID, "grid", stream(GridMine, 1));
        let merged = kinds(&hub);
        assert_eq!(
            merged,
            [Mine, Mine, Mine, GridMine, ModelBisect, ModelBisect]
        );
        // The hub keeps its streams, so merging again gives the same trace.
        assert_eq!(kinds(&hub), merged);
        // Re-depositing a key replaces its stream: the last deposit wins.
        hub.set_stream(STREAM_RANK_DAY, "day", stream(Mine, 1));
        assert_eq!(kinds(&hub), [Mine, GridMine, ModelBisect, ModelBisect]);
    }

    #[test]
    fn quick_cache_keys_are_pinned() {
        // A change that moves a unit's key silently invalidates every
        // existing store, so the quick run's 24 keys (metrics and trace
        // off) are pinned. Move them only together with a deliberate
        // `KEY_SCHEMA`, `LV_*` or crate-version bump.
        const PINNED: [(&str, &str); 24] = [
            ("static", "92b43670655d08f6964b622cebc72470"),
            ("day_crawl", "1c2143b96999130139a11ff0be6b278f"),
            ("general_crawl", "074de65cf81474c1b1b70b5eb4993590"),
            ("table1", "f58d089e0f8268c5e2e5eef41eae7e81"),
            ("table2", "5872ff2b4c639c31c0629f686d6a9514"),
            ("table3", "dfd5a52a3298891ca39269645951383b"),
            ("table4", "769c20c112cfcb0b36631111ee57b69e"),
            ("fig3", "59561a91aa4a221083c499cdd73e0f9f"),
            ("fig4", "df75de3343caa0df30597830101708da"),
            ("fig6_general", "320cf145f384dca5ff8946be1775f51c"),
            ("fig6_day", "680fd6d67ff095489955c71e5bf301ff"),
            ("fig6_minute", "7614ac85de169a69a0e09aee38727006"),
            ("table5", "4af683dd07527520a599defe0abf5c6b"),
            ("table6", "1d7247c7633c03c39898efcc277b4ded"),
            ("fig7", "00e436764be7d7c12c3decd8c4dbe23a"),
            ("table7", "9bde5e82e42cdb96a0ddc1c26663ec79"),
            ("fig8", "c0dfd84aeab395ba51b1cc066f6ba0a0"),
            ("table8", "d88f577c25a2810a4cc7643e6dab5302"),
            ("implications", "ed074a9637de04d5b7ebcb75613690f0"),
            ("cascade", "33dd687afd33efa6c8d74c2b1c401478"),
            ("fifty_one", "baf8c65a46957ef38b587f5c86172b25"),
            ("propagation", "b06eab55676e49d3bc7c77518e5bb47a"),
            ("countermeasures", "aef202ca1175f88ec45c07a4ebbbd6f6"),
            ("ablations", "61d45d1607c8f6e0b145012ed29d4cbe"),
        ];
        let selected = selected_jobs(&["all".to_string()]);
        let DagParts { units, .. } = build_dag(&ReproConfig::quick(), &selected, false, false);
        let dir = std::env::temp_dir().join(format!("bp-pipeline-keys-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut store = ArtifactStore::open(&dir).unwrap();
        let plan = cache::plan_run(&mut store, &units, false, false);
        let _ = std::fs::remove_dir_all(&dir);
        let keys: Vec<(&str, String)> = (units.iter().zip(&plan))
            .map(|(unit, p)| (unit.id, p.key.to_string()))
            .collect();
        let pinned: Vec<(&str, String)> = (PINNED.iter())
            .map(|&(id, key)| (id, key.to_string()))
            .collect();
        assert_eq!(keys, pinned);
    }
}
