//! The benchmark's workloads and the runner for one input of each.
//!
//! An input is one TPC-H database generated from a seed derived from the
//! master seed. The system's own seed stays at the CLI default, so every
//! input runs the same configuration against different data: BO search
//! times are chaotic in the system seed (a Table-1 Hard run took between
//! 1.6 s and 24 s over eight system seeds), so varying it would need
//! dozens of inputs per run before a median settles.

use crate::layers::{cpu_seconds, LlmMeter, MeteredLlm};
use crate::verify::{digest_file, without_elapsed};
use llm::{FaultyTransport, LanguageModel, ResilientLlm, SyntheticLlm};
use minidb::Database;
use sqlbarber::driver::DefaultLlm;
use sqlbarber::snapshot::CheckpointDir;
use sqlbarber::{
    AmplifyConfig, CheckpointConfig, CostType, GenerateError, GenerationReport, KillMode,
    KillPoint, KillSwitch, SqlBarber, SqlBarberConfig,
};
use sqlkit::TemplateSpec;
use std::cell::RefCell;
use std::hash::{DefaultHasher, Hasher};
use std::path::{Path, PathBuf};
use std::rc::Rc;
use std::time::Instant;
use workload::{CostIntervals, TargetDistribution};

/// Worker threads for the oracle, profiling and the surrogate forest.
pub const THREADS: usize = 2;
/// The system seed every input runs under (the CLI's `--seed` default).
const SYSTEM_SEED: u64 = 42;

/// Workload names, in the order `--workload` help lists them.
pub const NAMES: [&str; 4] = [
    "search_redset_medium",
    "amplify_card_300k",
    "amplify_exec_1200",
    "resume_redset_medium",
];

/// One benchmark workload: what to generate, on what data.
pub struct Workload {
    pub name: &'static str,
    /// TPC-H scale factor of each input's database.
    pub scale: f64,
    pub target: TargetDistribution,
    pub cost_type: CostType,
    pub specs: Vec<TemplateSpec>,
    /// Amplified queries requested and the amplify mini-batch size.
    pub amplify: Option<(u64, usize)>,
    /// Checkpoint every scheduler round, kill at mid-search, resume.
    pub kill_resume: bool,
    /// Amplified records re-costed per input.
    pub amplify_sample: u64,
}

impl Workload {
    pub fn by_name(name: &str) -> Option<Workload> {
        let redset_specs =
            || workload::redset::redset_template_specs(workload::redset::DEFAULT_SEED);
        let table1 = |name| {
            workload::benchmark_by_name(name)
                .expect("Table-1 benchmark")
                .target()
        };
        Some(match name {
            "search_redset_medium" => Workload {
                name: "search_redset_medium",
                scale: 0.01,
                target: table1("Redset_Cost_Medium"),
                cost_type: CostType::PlanCost,
                specs: redset_specs(),
                amplify: None,
                kill_resume: false,
                amplify_sample: 0,
            },
            "amplify_card_300k" => Workload {
                name: "amplify_card_300k",
                scale: 0.01,
                target: TargetDistribution::uniform(CostIntervals::paper_default(10), 300),
                cost_type: CostType::Cardinality,
                specs: redset_specs(),
                amplify: Some((300_000, 0)),
                kill_resume: false,
                amplify_sample: 400,
            },
            "amplify_exec_1200" => Workload {
                name: "amplify_exec_1200",
                scale: 0.002,
                target: TargetDistribution::uniform(CostIntervals::new(0.0, 300.0, 3), 60),
                cost_type: CostType::ActualCardinality,
                specs: vec![
                    TemplateSpec::parse_declarative(1, "tables=1 joins=0"),
                    TemplateSpec::parse_declarative(2, "tables=1 joins=0; use ORDER BY"),
                ],
                amplify: Some((1_200, 64)),
                kill_resume: false,
                amplify_sample: 200,
            },
            "resume_redset_medium" => Workload {
                name: "resume_redset_medium",
                scale: 0.01,
                target: table1("Redset_Cost_Medium"),
                cost_type: CostType::PlanCost,
                specs: redset_specs(),
                amplify: None,
                kill_resume: true,
                amplify_sample: 0,
            },
            _ => return None,
        })
    }

    /// Queries one input asks for: the target plus any amplification.
    pub fn requested(&self) -> u64 {
        self.target.total() as u64 + self.amplify.map_or(0, |(n, _)| n)
    }

    pub fn database(&self, seed: u64) -> Database {
        minidb::datagen::tpch::generate(minidb::datagen::tpch::TpchConfig {
            scale_factor: self.scale,
            seed,
        })
    }

    pub fn amplified_path(out: &Path) -> PathBuf {
        out.join("amplified.sql")
    }

    fn config(&self, out: &Path, checkpoint: bool) -> SqlBarberConfig {
        SqlBarberConfig {
            seed: SYSTEM_SEED,
            threads: THREADS,
            amplify: self.amplify.map(|(n, batch)| AmplifyConfig {
                n,
                batch,
                shards: 0,
                out: Some(Self::amplified_path(out)),
            }),
            checkpoint: checkpoint.then(|| CheckpointConfig {
                dir: out.join("checkpoint"),
                every: 1,
            }),
            ..Default::default()
        }
    }

    /// Run one input. `interrupt` applies the workload's kill/resume
    /// cycle (off for the uninterrupted reference run); `metered` routes
    /// the LLM through [`MeteredLlm`] via `SqlBarber::with_llm`.
    pub fn run(
        &self,
        db: &Database,
        out: &Path,
        interrupt: bool,
        metered: bool,
    ) -> Result<Job, String> {
        let kill_resume = interrupt && self.kill_resume;
        let config = self.config(out, kill_resume);
        let meter = Rc::new(RefCell::new(LlmMeter::default()));
        let mut job = if metered {
            let meter = Rc::clone(&meter);
            self.pipeline(db, config, kill_resume, move |db, config| {
                let llm = MeteredLlm::new(default_llm(&config), Rc::clone(&meter));
                SqlBarber::with_llm(db, config, llm)
            })?
        } else {
            self.pipeline(db, config, kill_resume, SqlBarber::<DefaultLlm>::new)?
        };
        job.llm = *meter.borrow();

        let start = Instant::now();
        let (sql, manifest) = (out.join("workload.sql"), out.join("workload.json"));
        job.report
            .write_sql(&sql)
            .map_err(|e| format!("{}: {e}", sql.display()))?;
        job.report
            .write_manifest(&manifest)
            .map_err(|e| format!("{}: {e}", manifest.display()))?;
        job.write_s = start.elapsed().as_secs_f64();

        let mut digest = DefaultHasher::new();
        digest_file(&mut digest, &sql)?;
        let manifest = std::fs::read_to_string(&manifest)
            .map_err(|e| format!("{}: {e}", manifest.display()))?;
        digest.write(without_elapsed(&manifest).as_bytes());
        if self.amplify.is_some() {
            digest_file(&mut digest, &Self::amplified_path(out))?;
        }
        job.digest = digest.finish();
        Ok(job)
    }

    /// Generate (or kill, reload and resume) through barbers built by
    /// `barber`, timing only the library calls.
    fn pipeline<'db, M: LanguageModel>(
        &self,
        db: &'db Database,
        config: SqlBarberConfig,
        kill_resume: bool,
        barber: impl Fn(&'db Database, SqlBarberConfig) -> SqlBarber<'db, M>,
    ) -> Result<Job, String> {
        let fail = |e: GenerateError| e.to_string();
        if !kill_resume {
            let mut barber = barber(db, config);
            let (start, cpu) = (Instant::now(), cpu_seconds());
            let report = barber
                .generate(&self.specs, &self.target, self.cost_type)
                .map_err(fail)?;
            let reported_s = start.elapsed().as_secs_f64();
            return Ok(Job::new(
                report,
                reported_s,
                cpu_seconds() - cpu,
                reported_s,
            ));
        }

        let dir = config
            .checkpoint
            .as_ref()
            .expect("checkpointed config")
            .dir
            .clone();
        if dir.exists() {
            std::fs::remove_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        }
        let kill = KillSwitch::new(KillPoint::MidSearch, KillMode::Unwind);
        let mut doomed = barber(db, config.clone()).with_kill_switch(kill);
        let (start, cpu) = (Instant::now(), cpu_seconds());
        match doomed.generate(&self.specs, &self.target, self.cost_type) {
            Err(GenerateError::Killed(_)) => {}
            Ok(_) => {
                return Err("the kill switch never fired: the search ended in one round".into())
            }
            Err(e) => return Err(fail(e)),
        }
        let killed_s = start.elapsed().as_secs_f64();

        let mut resumed = barber(db, config);
        let start = Instant::now();
        let snapshot = CheckpointDir::load_latest(&dir).map_err(|e| e.to_string())?;
        let load_s = start.elapsed().as_secs_f64();
        let report = resumed
            .resume_from(&snapshot, &self.target, self.cost_type)
            .map_err(fail)?;
        let resumed_s = start.elapsed().as_secs_f64();

        let generate_cpu_s = cpu_seconds() - cpu;
        let mut job = Job::new(
            report,
            killed_s + resumed_s,
            generate_cpu_s,
            resumed_s - load_s,
        );
        job.snapshot = snapshot_files(&dir)?;
        job.snapshot_load_s = load_s;
        Ok(job)
    }
}

/// The stack `SqlBarber::new` builds, rebuilt for wrapping: the same
/// layers under the same seeds, so a metered run produces the same bytes.
fn default_llm(config: &SqlBarberConfig) -> DefaultLlm {
    let model = SyntheticLlm::new(config.faults, config.seed ^ 0x5ba8_bebe);
    let transport = FaultyTransport::new(model, config.transport, config.seed ^ 0x7a17_5eed);
    ResilientLlm::new(transport, config.retry, config.seed ^ 0x0b0f_f5e7)
}

/// Generations written into `dir` (they are numbered from 0) and the size
/// of the newest one.
fn snapshot_files(dir: &Path) -> Result<(u64, u64), String> {
    let mut newest: Option<(u64, u64)> = None;
    for entry in std::fs::read_dir(dir).map_err(|e| format!("{}: {e}", dir.display()))? {
        let entry = entry.map_err(|e| e.to_string())?;
        let name = entry.file_name().to_string_lossy().into_owned();
        let Some(generation) = name
            .strip_prefix("snapshot-")
            .and_then(|rest| rest.strip_suffix(".bin"))
            .and_then(|n| n.parse::<u64>().ok())
        else {
            continue;
        };
        if newest.is_none_or(|(g, _)| generation > g) {
            let bytes = entry.metadata().map_err(|e| e.to_string())?.len();
            newest = Some((generation, bytes));
        }
    }
    let (generation, bytes) = newest.ok_or("no snapshot generation was written")?;
    Ok((generation + 1, bytes))
}

/// One input's run: its report, timings, digest and layer readings.
pub struct Job {
    pub report: GenerationReport,
    /// Wall time of the generate/resume calls.
    pub generate_s: f64,
    /// CPU time of the same calls.
    pub generate_cpu_s: f64,
    /// Wall time of the calls that returned `report` (the resume alone
    /// under kill/resume), the span its phase timings can cover.
    pub reported_s: f64,
    pub write_s: f64,
    pub digest: u64,
    pub llm: LlmMeter,
    /// Snapshot generations written and the newest one's size in bytes.
    pub snapshot: (u64, u64),
    pub snapshot_load_s: f64,
}

impl Job {
    fn new(report: GenerationReport, generate_s: f64, generate_cpu_s: f64, reported_s: f64) -> Job {
        Job {
            report,
            generate_s,
            generate_cpu_s,
            reported_s,
            write_s: 0.0,
            digest: 0,
            llm: LlmMeter::default(),
            snapshot: (0, 0),
            snapshot_load_s: 0.0,
        }
    }

    /// Queries delivered: accepted plus amplified.
    pub fn delivered(&self) -> u64 {
        self.report.queries.len() as u64 + self.report.amplify.as_ref().map_or(0, |a| a.emitted)
    }
}
