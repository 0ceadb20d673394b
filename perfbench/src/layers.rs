//! Per-layer probes that sit outside the program: a forwarding language
//! model that meters the LLM layer, a surrogate replay that times one
//! Bayesian-optimization proposal, and process memory.

use bayesopt::{Dimension, Evaluation, Optimizer, Space};
use llm::{LanguageModel, LlmError, ModelState, ResilienceStats, TokenUsage};
use sqlbarber::bo_search::BoSearchConfig;
use std::cell::RefCell;
use std::rc::Rc;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// What the metered model saw: calls, prompt volume and time spent inside
/// the wrapped model.
#[derive(Debug, Clone, Copy, Default)]
pub struct LlmMeter {
    pub calls: u64,
    pub prompt_bytes: u64,
    pub busy: Duration,
}

/// Forwarding [`LanguageModel`] decorator. Every trait method goes to the
/// wrapped model unchanged, so a run through it produces the same bytes
/// as a run through the bare model; `complete` is additionally counted and
/// timed into a meter the caller keeps a handle to.
pub struct MeteredLlm<M> {
    inner: M,
    meter: Rc<RefCell<LlmMeter>>,
}

impl<M: LanguageModel> MeteredLlm<M> {
    pub fn new(inner: M, meter: Rc<RefCell<LlmMeter>>) -> Self {
        MeteredLlm { inner, meter }
    }
}

impl<M: LanguageModel> LanguageModel for MeteredLlm<M> {
    fn complete(&mut self, prompt: &str) -> Result<String, LlmError> {
        let start = Instant::now();
        let response = self.inner.complete(prompt);
        let mut meter = self.meter.borrow_mut();
        meter.busy += start.elapsed();
        meter.calls += 1;
        meter.prompt_bytes += prompt.len() as u64;
        response
    }

    fn usage(&self) -> TokenUsage {
        self.inner.usage()
    }

    fn model_name(&self) -> &str {
        self.inner.model_name()
    }

    fn resilience(&self) -> ResilienceStats {
        self.inner.resilience()
    }

    fn export_state(&self) -> Option<ModelState> {
        self.inner.export_state()
    }

    fn import_state(&mut self, state: &ModelState) -> Result<(), String> {
        self.inner.import_state(state)
    }
}

/// Placeholders per template assumed by the surrogate replay; the
/// generated templates carry one to four.
const REPLAY_DIMS: usize = 3;
/// Proposals timed per replay; the median is reported.
const REPLAY_ASKS: u64 = 21;

/// Median wall time, in milliseconds, of one `Optimizer::ask` — a forest
/// fit plus EI scoring of the candidate batch — warm-started with
/// `history` evaluations, under the search's own optimizer settings.
/// Returns 0 when the run launched no BO task (`history == 0`).
pub fn ask_ms(history: usize, threads: usize, seed: u64) -> f64 {
    if history == 0 {
        return 0.0;
    }
    let space = Space::new(vec![Dimension::Float { lo: 0.0, hi: 1.0 }; REPLAY_DIMS]);
    let mut state = seed;
    let evaluations: Vec<Evaluation> = (0..history)
        .map(|_| {
            let point: Vec<f64> = (0..REPLAY_DIMS).map(|_| unit(&mut state)).collect();
            // Distance of a smooth synthetic cost surface to a target band,
            // the shape of Algorithm 3's objective.
            let cost = point
                .iter()
                .enumerate()
                .map(|(d, x)| (d + 1) as f64 * x * x)
                .sum::<f64>();
            Evaluation {
                point,
                value: (cost - 1.5).abs(),
            }
        })
        .collect();
    let mut samples: Vec<f64> = (0..REPLAY_ASKS)
        .map(|rep| {
            let mut config = BoSearchConfig::default().bo;
            config.threads = threads;
            config.seed = seed.wrapping_add(rep);
            // Always take the surrogate path: the ε-greedy shortcut skips it.
            config.epsilon = 0.0;
            let mut optimizer = Optimizer::new(space.clone(), config);
            optimizer.warm_start(evaluations.iter().cloned());
            let start = Instant::now();
            let point = std::hint::black_box(optimizer.ask());
            let elapsed = start.elapsed();
            assert_eq!(
                point.len(),
                REPLAY_DIMS,
                "ask proposes a point in the space"
            );
            elapsed.as_secs_f64() * 1e3
        })
        .collect();
    median(&mut samples)
}

// The FFI declarations below use the 64-bit Linux layouts.
#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
compile_error!("perfbench reads process clocks and /proc/self on 64-bit Linux only");

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
    fn malloc_trim(pad: usize) -> i32;
}

/// Linux's `CLOCK_PROCESS_CPUTIME_ID`.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

/// CPU time this process has used so far, in seconds: all threads, exited
/// ones included. It leaves out time the threads spent descheduled, so it
/// varies less than wall time with host load, though host CPU steal still
/// shows in it (see README.md).
pub fn cpu_seconds() -> f64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, writable `struct timespec` (two 64-bit
    // fields on 64-bit Linux), the only memory clock_gettime writes.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "the process CPU-time clock exists on Linux");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// Hand freed heap memory back to the kernel (glibc `malloc_trim`), so
/// memory one input freed is not still resident during the next.
pub fn trim_heap() {
    // SAFETY: malloc_trim takes a padding size and has no preconditions.
    unsafe {
        malloc_trim(0);
    }
}

/// Interval between resident-set samples.
const RSS_PERIOD: Duration = Duration::from_millis(10);

/// Samples this process's resident set (`VmRSS`) on a background thread,
/// so each input gets its own peak: the kernel's high-water mark only
/// ever grows, and one rare input would otherwise set it for the run.
pub struct RssSampler {
    peak_kb: Arc<AtomicU64>,
    stop: Arc<AtomicBool>,
    thread: Option<JoinHandle<()>>,
}

impl RssSampler {
    pub fn start() -> RssSampler {
        let peak_kb = Arc::new(AtomicU64::new(0));
        let stop = Arc::new(AtomicBool::new(false));
        let thread = {
            let (peak_kb, stop) = (Arc::clone(&peak_kb), Arc::clone(&stop));
            std::thread::spawn(move || {
                // Relaxed: the readings are statistics that publish no data.
                while !stop.load(Ordering::Relaxed) {
                    if let Ok(kb) = status_kb("VmRSS:") {
                        peak_kb.fetch_max(kb, Ordering::Relaxed);
                    }
                    std::thread::sleep(RSS_PERIOD);
                }
            })
        };
        RssSampler {
            peak_kb,
            stop,
            thread: Some(thread),
        }
    }

    /// Highest resident set, in MiB, since the previous call (or start).
    pub fn take_peak_mb(&self) -> Result<f64, String> {
        let now = status_kb("VmRSS:")?;
        Ok(self.peak_kb.swap(0, Ordering::Relaxed).max(now) as f64 / 1024.0)
    }
}

impl Drop for RssSampler {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(thread) = self.thread.take() {
            // The sampler never panics on its own; a join error would
            // only repeat a panic already reported on stderr.
            let _ = thread.join();
        }
    }
}

/// A `kB` field of `/proc/self/status`.
fn status_kb(key: &str) -> Result<u64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|line| line.strip_prefix(key))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or_else(|| format!("no {key} line in /proc/self/status"))
}

const GOLDEN: u64 = 0x9e37_79b9_7f4a_7c15;

/// SplitMix64 step: the benchmark's only source of derived seeds and
/// sample indices.
pub fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(GOLDEN);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Element `k` of the SplitMix64 stream started at `seed`.
pub fn derive(seed: u64, k: u64) -> u64 {
    let mut state = seed.wrapping_add(k.wrapping_mul(GOLDEN));
    splitmix(&mut state)
}

fn unit(state: &mut u64) -> f64 {
    (splitmix(state) >> 11) as f64 / (1u64 << 53) as f64
}

/// Median of `values` (0 when empty); sorts in place.
pub fn median(values: &mut [f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_by(f64::total_cmp);
    let mid = values.len() / 2;
    if values.len() % 2 == 1 {
        values[mid]
    } else {
        (values[mid - 1] + values[mid]) / 2.0
    }
}
