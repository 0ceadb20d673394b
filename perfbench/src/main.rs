//! SQLBarber-RS benchmark: end-to-end generation metrics per workload, and
//! per-layer attribution from a separate traced run.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Run from the repository root. Each input (a TPC-H database derived
//! from `--seed`) is generated, timed and verified; inputs follow each
//! other until `--seconds` of measurement have passed. Outputs go to
//! `perfbench/out/<workload>/`. The last line of standard output is one
//! JSON object: `correct`, `attempted`, `failed` and the metrics — the
//! end-to-end set with `--trace 0`, the per-layer set with `--trace 1`.
//! See `perfbench/README.md` for the workloads and the metric map.

// Timing is this benchmark's purpose, and its digests are compared only
// within one process, so the workspace's clock and hasher rules
// (clippy.toml, detlint R2) do not apply here.
#![allow(clippy::disallowed_methods, clippy::disallowed_types)]

mod layers;
mod verify;
mod workloads;

use layers::{ask_ms, cpu_seconds, derive, median, trim_heap, RssSampler};
use std::path::Path;
use std::process::ExitCode;
use std::time::Instant;
use verify::Verifier;
use workloads::{Job, Workload, NAMES, THREADS};

/// Inputs measured even when `--seconds` runs out sooner: setup time is
/// reported as a median over inputs.
const MIN_INPUTS: usize = 3;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag} expects {what}, got `{value}`");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse().map_err(|_| bad("an unsigned integer"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| bad("a number of seconds"))?;
                if !(s.is_finite() && s >= 0.0) {
                    return Err(bad("a non-negative number of seconds"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!(
                "perfbench: {e}\nusage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                NAMES.join("|")
            );
            return ExitCode::from(2);
        }
    };
    let Some(workload) = Workload::by_name(&args.workload) else {
        eprintln!(
            "perfbench: unknown workload `{}` (one of {})",
            args.workload,
            NAMES.join(", ")
        );
        return ExitCode::from(2);
    };
    let out = Path::new("perfbench").join("out").join(workload.name);
    let stale = if out.exists() {
        std::fs::remove_dir_all(&out)
    } else {
        Ok(())
    };
    let prepared = stale.and_then(|()| std::fs::create_dir_all(&out));
    if let Err(e) = prepared {
        eprintln!("perfbench: cannot prepare {}: {e}", out.display());
        return ExitCode::FAILURE;
    }
    match measure(&workload, &args, &out) {
        Ok(result) => {
            println!("{}", result.json());
            if result.correct {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Sums over the measured inputs of one run.
#[derive(Default)]
struct Totals {
    inputs: usize,
    setup_s: Vec<f64>,
    setup_cpu_s: Vec<f64>,
    peak_rss_mb: Vec<f64>,
    generate_s: f64,
    generate_cpu_s: f64,
    /// Untraced twin runs' generate CPU time (traced runs only).
    untraced_cpu_s: f64,
    reported_s: f64,
    delivered: u64,
    requested: u64,
    tokens: u64,
    w1: f64,
    phases: [f64; 5],
    write_s: f64,
    llm_calls: u64,
    llm_busy_s: f64,
    llm_retries: u64,
    llm_prompt_bytes: u64,
    probes: u64,
    physical: u64,
    cache_hits: u64,
    prepared_hits: u64,
    prepared_misses: u64,
    evictions: u64,
    evaluations: u64,
    accepted: u64,
    rounds: u64,
    tasks: u64,
    peak_tasks: u64,
    overadmissions: u64,
    amp_candidates: u64,
    amp_emitted: u64,
    amp_pairs: u64,
    amp_misses: u64,
    amp_s: f64,
    amp_bytes: u64,
    snap_generations: u64,
    snap_bytes: u64,
    snap_load_s: f64,
}

impl Totals {
    fn add(&mut self, job: &Job, amplified_bytes: u64) {
        let r = &job.report;
        self.inputs += 1;
        self.generate_s += job.generate_s;
        self.generate_cpu_s += job.generate_cpu_s;
        self.reported_s += job.reported_s;
        self.delivered += job.delivered();
        self.tokens += r.llm_usage.total_tokens();
        let amplify_w1 = r.amplify.as_ref().map_or(0.0, |a| a.wasserstein);
        self.w1 += r.final_distance.max(amplify_w1);
        let p = &r.phases;
        let phases = [
            p.template_generation,
            p.profiling,
            p.refinement,
            p.predicate_search,
            p.amplification,
        ];
        for (sum, phase) in self.phases.iter_mut().zip(phases) {
            *sum += phase.as_secs_f64();
        }
        self.write_s += job.write_s;
        self.llm_calls += job.llm.calls;
        self.llm_busy_s += job.llm.busy.as_secs_f64();
        self.llm_retries += r.resilience.retries;
        self.llm_prompt_bytes += job.llm.prompt_bytes;
        self.probes += r.oracle_probes;
        self.physical += r.oracle_physical_evals;
        self.cache_hits += r.oracle_cache_hits;
        self.prepared_hits += r.oracle_prepared_hits;
        self.prepared_misses += r.oracle_prepared_misses;
        self.evictions += r.oracle_evictions;
        self.evaluations += r.evaluations as u64;
        self.accepted += r.queries.len() as u64;
        self.rounds += r.scheduler_rounds;
        self.tasks += r.scheduler_tasks;
        self.peak_tasks += r.scheduler_peak_tasks;
        self.overadmissions += r.scheduler_overadmissions;
        if let Some(a) = &r.amplify {
            self.amp_candidates += a.candidates;
            self.amp_emitted += a.emitted;
            self.amp_pairs += a.pairs;
            self.amp_misses += a.oracle_misses;
            self.amp_s += p.amplification.as_secs_f64();
            self.amp_bytes += amplified_bytes;
        }
        self.snap_generations += job.snapshot.0;
        self.snap_bytes += job.snapshot.1;
        self.snap_load_s += job.snapshot_load_s;
    }

    /// Per-input mean of a sum.
    fn mean(&self, sum: f64) -> f64 {
        ratio(sum, self.inputs as f64)
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

struct RunResult {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Vec<(&'static str, f64, &'static str)>,
}

impl RunResult {
    fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                let value = if value.is_finite() { *value } else { 0.0 };
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// Run inputs until `--seconds` of measurement have passed, verifying
/// each. A determinism violation aborts the run with an error.
fn measure(w: &Workload, args: &Args, out: &Path) -> Result<RunResult, String> {
    let mut t = Totals::default();
    let mut verifier = Verifier::default();
    let (mut errored_inputs, mut errored_queries) = (0u64, 0u64);
    let rss = RssSampler::start();
    let mut clock = Instant::now();
    let mut i = 0;
    while i < MIN_INPUTS || clock.elapsed().as_secs_f64() < args.seconds {
        // Each input's memory peak starts from a trimmed heap.
        trim_heap();
        rss.take_peak_mb()?;
        // Stream element 2i seeds input i's database, 2i + 1 its sample.
        let db_seed = derive(args.seed, 2 * i as u64);
        let (start, cpu) = (Instant::now(), cpu_seconds());
        let db = w.database(db_seed);
        t.setup_cpu_s.push(cpu_seconds() - cpu);
        t.setup_s.push(start.elapsed().as_secs_f64());

        // Input 0 first runs once untimed and uninterrupted: it warms the
        // process, and its digest is what every repetition of the input
        // (the killed-and-resumed one included) must reproduce.
        let reference = if i == 0 {
            let digest = w.run(&db, out, false, false).map(|job| Some(job.digest));
            clock = Instant::now();
            digest
        } else {
            Ok(None)
        };

        let outcome = if args.trace {
            // Alternate which twin runs first so neither always runs warm.
            let (plain, metered) = if i % 2 == 0 {
                let plain = w.run(&db, out, true, false);
                (plain, w.run(&db, out, true, true))
            } else {
                let metered = w.run(&db, out, true, true);
                (w.run(&db, out, true, false), metered)
            };
            match (plain, metered) {
                (Ok(plain), Ok(metered)) => {
                    if plain.digest != metered.digest {
                        return Err(format!(
                            "determinism: input {i} traced digest {:016x} != untraced {:016x}",
                            metered.digest, plain.digest
                        ));
                    }
                    t.untraced_cpu_s += plain.generate_cpu_s;
                    Ok(metered)
                }
                (Err(e), _) | (_, Err(e)) => Err(e),
            }
        } else {
            w.run(&db, out, true, false)
        };
        let job = match outcome.and_then(|job| reference.map(|digest| (job, digest))) {
            Ok((job, Some(digest))) if job.digest != digest => {
                return Err(format!(
                    "determinism: input {i} digest {:016x} != reference run {digest:016x}",
                    job.digest
                ))
            }
            Ok((job, _)) => job,
            Err(e) => {
                eprintln!("perfbench: input {i} (db seed {db_seed}) failed: {e}");
                errored_inputs += 1;
                errored_queries += w.requested();
                t.requested += w.requested();
                i += 1;
                continue;
            }
        };

        verifier.check_report(&db, &job.report, &w.target, w.cost_type);
        let amplified = Workload::amplified_path(out);
        if let Some((n, _)) = w.amplify {
            let sample_seed = derive(args.seed, 2 * i as u64 + 1);
            verifier.check_amplified(
                &db,
                &amplified,
                n,
                &w.target,
                w.cost_type,
                w.amplify_sample,
                sample_seed,
            );
        }
        let amplified_bytes = std::fs::metadata(&amplified).map_or(0, |m| m.len());
        t.requested += w.requested();
        t.add(&job, amplified_bytes);
        t.peak_rss_mb.push(rss.take_peak_mb()?);
        eprintln!(
            "perfbench: {} input {i}: db seed {db_seed}, setup {:.3}s cpu, generate {:.3}s cpu \
             ({:.3}s wall), {} queries, peak rss {:.1} MiB, digest {:016x}",
            w.name,
            t.setup_cpu_s[i],
            job.generate_cpu_s,
            job.generate_s,
            job.delivered(),
            t.peak_rss_mb[t.peak_rss_mb.len() - 1],
            job.digest
        );
        i += 1;
    }

    let attempted = verifier.checked + errored_queries;
    let failed = verifier.failed + errored_queries;
    let correct = failed == 0 && errored_inputs == 0;
    let metrics = if args.trace {
        per_layer(&mut t, &mut verifier, attempted, failed, args.seed)
    } else {
        vec![
            ("setup_s", median(&mut t.setup_cpu_s), "s"),
            ("generate_cpu_s", t.mean(t.generate_cpu_s), "s"),
            (
                "queries_per_cpu_s",
                ratio(t.delivered as f64, t.generate_cpu_s),
                "1/s",
            ),
            (
                "fill_ratio",
                ratio(t.delivered as f64, t.requested as f64),
                "ratio",
            ),
            ("llm_tokens", t.mean(t.tokens as f64), "count"),
            ("peak_rss_mb", median(&mut t.peak_rss_mb), "MiB"),
        ]
    };
    Ok(RunResult {
        correct,
        attempted,
        failed,
        metrics,
    })
}

/// The traced run's per-layer metrics: means per input for counts and
/// times, pooled ratios, and medians for per-call latencies.
fn per_layer(
    t: &mut Totals,
    v: &mut Verifier,
    attempted: u64,
    failed: u64,
    seed: u64,
) -> Vec<(&'static str, f64, &'static str)> {
    let phases: f64 = t.phases.iter().sum();
    let history = ratio(t.evaluations as f64, t.tasks as f64).round() as usize;
    let setup_wall = median(&mut t.setup_s);
    let t = &*t;
    let m = |sum: f64| t.mean(sum);
    vec![
        ("template_gen.s", m(t.phases[0]), "s"),
        ("profiler.s", m(t.phases[1]), "s"),
        ("refine.s", m(t.phases[2]), "s"),
        ("bo_search.s", m(t.phases[3]), "s"),
        ("amplify.s", m(t.phases[4]), "s"),
        (
            "driver.phase_coverage",
            ratio(phases, t.reported_s),
            "ratio",
        ),
        ("bayesopt.ask_ms", ask_ms(history, THREADS, seed), "ms"),
        ("llm.busy_s", m(t.llm_busy_s), "s"),
        ("llm.calls", m(t.llm_calls as f64), "count"),
        ("llm.retries", m(t.llm_retries as f64), "count"),
        (
            "llm.prompt_kb",
            m(t.llm_prompt_bytes as f64) / 1024.0,
            "KiB",
        ),
        ("oracle.probes", m(t.probes as f64), "count"),
        ("oracle.physical_evals", m(t.physical as f64), "count"),
        (
            "oracle.cache_hit_ratio",
            ratio(t.cache_hits as f64, t.probes as f64),
            "ratio",
        ),
        (
            "oracle.prepared_hit_ratio",
            ratio(
                t.prepared_hits as f64,
                (t.prepared_hits + t.prepared_misses) as f64,
            ),
            "ratio",
        ),
        ("oracle.evictions", m(t.evictions as f64), "count"),
        ("bo_search.evaluations", m(t.evaluations as f64), "count"),
        (
            "bo_search.evals_per_query",
            ratio(t.evaluations as f64, t.accepted as f64),
            "ratio",
        ),
        ("scheduler.rounds", m(t.rounds as f64), "count"),
        ("scheduler.tasks", m(t.tasks as f64), "count"),
        ("scheduler.peak_tasks", m(t.peak_tasks as f64), "count"),
        (
            "scheduler.overadmit_ratio",
            ratio(t.overadmissions as f64, t.accepted as f64),
            "ratio",
        ),
        ("amplify.candidates", m(t.amp_candidates as f64), "count"),
        (
            "amplify.accept_ratio",
            ratio(t.amp_emitted as f64, t.amp_candidates as f64),
            "ratio",
        ),
        ("amplify.pairs", m(t.amp_pairs as f64), "count"),
        ("amplify.oracle_misses", m(t.amp_misses as f64), "count"),
        ("amplify.qps", ratio(t.amp_emitted as f64, t.amp_s), "1/s"),
        (
            "amplify.out_mb",
            m(t.amp_bytes as f64) / (1024.0 * 1024.0),
            "MiB",
        ),
        ("minidb.explain_us", median(&mut v.explain_us), "us"),
        ("minidb.execute_us", median(&mut v.execute_us), "us"),
        ("sqlkit.parse_us", median(&mut v.parse_us), "us"),
        ("report.write_s", m(t.write_s), "s"),
        (
            "snapshot.generations",
            m(t.snap_generations as f64),
            "count",
        ),
        ("snapshot.bytes", m(t.snap_bytes as f64), "bytes"),
        ("snapshot.load_s", m(t.snap_load_s), "s"),
        (
            "trace.overhead_ratio",
            ratio(t.generate_cpu_s, t.untraced_cpu_s) - 1.0,
            "ratio",
        ),
        ("wall.setup_s", setup_wall, "s"),
        ("wall.generate_s", m(t.generate_s), "s"),
        (
            "wall.queries_per_s",
            ratio(t.delivered as f64, t.generate_s),
            "1/s",
        ),
        (
            "wall.cpu_per_wall",
            ratio(t.generate_cpu_s, t.generate_s),
            "ratio",
        ),
        ("final_w1", m(t.w1), "cost"),
        (
            "verify_failed_ratio",
            ratio(failed as f64, attempted as f64),
            "ratio",
        ),
    ]
}
