//! How fast the host is right now, measured with code the benchmark owns.
//!
//! The reference host drifts: for minutes at a time every workload runs 15
//! to 45 % slower, CPU time per token rising by the same share. Fixed work
//! timed between repetitions slows down with it, so the run's time-based
//! metrics are scaled by how long that work took against a reference: they
//! read as if the host had run at its reference speed throughout. The
//! probe calls nothing from the repository's crates; a change to the
//! program cannot move it.

use std::hint::black_box;
use std::process::{Command, Stdio};
use std::time::Instant;

use crate::stats::median;

/// What one probe reads on the reference host when nothing disturbs it, ms.
/// A scale only: it cancels out of every comparison between two commits.
pub const REFERENCE_PROBE_MS: f64 = 16.0;

/// Independent multiply-add chains, enough of them to hide the latency of
/// the multiply-add units of one core: what the core sustains when nothing
/// waits for memory. 2 flops per lane per round.
pub const FMA_CHAINS: usize = 10;

fn fma_chains_portable(rounds: usize) -> f32 {
    let (a, b) = (black_box(0.999_f32), black_box(0.001_f32));
    let mut acc = [[1.0f32; 8]; FMA_CHAINS];
    for _ in 0..rounds {
        for chain in &mut acc {
            for x in chain.iter_mut() {
                *x = *x * a + b;
            }
        }
    }
    acc.iter().flatten().sum()
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
fn fma_chains_avx2(rounds: usize) -> f32 {
    use std::arch::x86_64::{_mm256_add_ps, _mm256_cvtss_f32, _mm256_fmadd_ps, _mm256_set1_ps};
    let a = _mm256_set1_ps(black_box(0.999));
    let b = _mm256_set1_ps(black_box(0.001));
    let mut acc = [_mm256_set1_ps(1.0); FMA_CHAINS];
    for _ in 0..rounds {
        for x in &mut acc {
            *x = _mm256_fmadd_ps(*x, a, b);
        }
    }
    let sum = acc.into_iter().reduce(|x, y| _mm256_add_ps(x, y));
    _mm256_cvtss_f32(sum.expect("FMA_CHAINS is positive"))
}

pub fn fma_probe(rounds: usize) -> f32 {
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("avx2") && std::arch::is_x86_feature_detected!("fma") {
        // SAFETY: the two features the function is compiled for were just
        // detected on this CPU.
        return unsafe { fma_chains_avx2(rounds) };
    }
    fma_chains_portable(rounds)
}

/// Sum of a buffer through 16 independent lanes, so the loop is limited by
/// memory and not by the latency of one add.
pub fn stream_sum(buf: &[f32]) -> f32 {
    let mut acc = [0.0f32; 16];
    for chunk in buf.chunks_exact(16) {
        for (a, x) in acc.iter_mut().zip(chunk) {
            *a += x;
        }
    }
    acc.iter().sum()
}

/// One probe, milliseconds: the geometric mean of three pieces of fixed
/// work, each run on two threads at once (the host has two cores):
/// multiply-add chains in registers, a sum over 32 MiB per thread (memory),
/// and the same sum over 16 KiB (first-level cache).
pub fn probe_ms() -> f64 {
    let on_two_threads = |work: fn()| -> f64 {
        let t = Instant::now();
        std::thread::scope(|s| {
            s.spawn(work);
            s.spawn(work);
        });
        t.elapsed().as_secs_f64() * 1e3
    };
    let fma = on_two_threads(|| {
        black_box(fma_probe(6_000_000));
    });
    let memory = on_two_threads(|| {
        let buf = vec![1.0f32; 8 << 20];
        for _ in 0..6 {
            black_box(stream_sum(black_box(&buf)));
        }
    });
    let cache = on_two_threads(|| {
        let buf = vec![1.0f32; 4 << 10];
        for _ in 0..60_000 {
            black_box(stream_sum(black_box(&buf)));
        }
    });
    (fma * memory * cache).cbrt()
}

/// The probes of one run, taken before the first set-up and after every
/// set-up and repetition.
#[derive(Debug, Default)]
pub struct HostSpeed {
    pub probes_ms: Vec<f64>,
}

impl HostSpeed {
    /// Run one probe in a process of its own (this program with
    /// `--host-probe`), so that its buffers stay out of this process's peak
    /// memory and its threads out of this process's CPU time. Where this
    /// program is not the benchmark's binary (its own unit tests), probe in
    /// this process.
    pub fn sample(&mut self) {
        let in_child = std::env::current_exe().ok().and_then(|exe| {
            let out = Command::new(exe)
                .arg("--host-probe")
                .stdin(Stdio::null())
                .stderr(Stdio::null())
                .output()
                .ok()?;
            String::from_utf8_lossy(&out.stdout).trim().parse().ok()
        });
        self.probes_ms.push(in_child.unwrap_or_else(probe_ms));
    }

    /// Median probe over the reference: above 1 when the host was slower
    /// than the reference. Times are divided by it, rates multiplied.
    pub fn factor(&self) -> f64 {
        median(&self.probes_ms) / REFERENCE_PROBE_MS
    }
}
