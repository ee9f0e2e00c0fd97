//! Machine-speed normalisation of measured time.
//!
//! The benchmark runs on a few cores of a shared host whose speed drifts
//! by as much as half, over seconds and over minutes, without the guest
//! seeing it as steal time: the same loop takes 3.5 ms for half a minute
//! and 5.4 ms for the next. Time measured on such a host moves with the
//! neighbours, not with the engine. So every timed piece of engine work is
//! bracketed by a short fixed calibration kernel (a hash build and probe,
//! the engine's own kind of work, written here so no engine change moves
//! it), and its wall time is scaled to a machine on which the kernel takes
//! [`REFERENCE_KERNEL_S`]: `work_s * (REFERENCE_KERNEL_S / kernel_s)^`
//! [`SENSITIVITY`], with `kernel_s` the mean of the calibrations just
//! before and just after. A faster engine still shows as proportionally
//! less reference time.

use std::hint::black_box;
use std::time::Instant;

/// Calibration kernel time that defines one reference second: about what
/// the kernel takes on an unloaded core of the 2-vCPU Xeon (Sapphire
/// Rapids) host the benchmark was tuned on.
pub const REFERENCE_KERNEL_S: f64 = 250e-6;

/// How much more the engine's time moves than the kernel's when the host
/// slows. Fitted on per-request logs of six runs of one binary and seed
/// per workload on the 2-vCPU host: with this kernel the spread (IQR over
/// median) of scaled throughput was lowest at 1.5 on `explore-medium`,
/// `batch-medium` and `explore-low-churn` alike (0.08, 0.04 and 0.05,
/// against 0.22, 0.37 and 0.25 unscaled). Other kernels timed in the same
/// runs tracked the engine worse: a build and probe over a 4 MiB table
/// (0.05–0.10, at exponent 1), a 16 MiB streaming sum (0.05–0.10), an
/// ALU-only loop (0.10–0.17) and a 64 MiB pointer chase (0.13–0.26), each
/// at its best exponent per workload.
const SENSITIVITY: f64 = 1.5;

/// Slots of the kernel's open-addressing table (256 KiB, cache-resident).
const SLOTS: usize = 1 << 15;
/// Keys inserted, then probed twice as many times (mostly misses).
const KEYS: usize = 10_000;

/// One calibration: build a hash table of random keys and probe it.
fn kernel(seed: u64) -> u64 {
    let mut table = vec![0u64; SLOTS];
    let mut x = seed | 1;
    let mut next = move || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x | 1
    };
    let slot = |k: u64| (k.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 49) as usize;
    for _ in 0..KEYS {
        let k = next();
        let mut s = slot(k);
        while table[s] != 0 {
            s = (s + 1) & (SLOTS - 1);
        }
        table[s] = k;
    }
    let mut hits = 0u64;
    for _ in 0..2 * KEYS {
        let k = next();
        let mut s = slot(k);
        while table[s] != 0 {
            if table[s] == k {
                hits += 1;
                break;
            }
            s = (s + 1) & (SLOTS - 1);
        }
    }
    black_box(&table);
    hits
}

/// Seconds one calibration kernel takes right now.
fn calibrate() -> f64 {
    let t0 = Instant::now();
    black_box(kernel(black_box(0x5EED)));
    t0.elapsed().as_secs_f64()
}

/// Minimum gap between two calibrations: work shorter than this shares
/// the calibration before it, so short requests are not swamped by it.
const CALIBRATE_EVERY_S: f64 = 0.01;

/// Times work on this thread in wall seconds and in reference seconds.
#[derive(Debug)]
pub struct SpeedClock {
    /// The latest calibration, which opens the next timed piece of work.
    last_kernel_s: f64,
    last_at: Instant,
    kernels_s: Vec<f64>,
}

/// What [`SpeedClock::time`] measured.
#[derive(Debug, Clone, Copy)]
pub struct Timed {
    pub wall_s: f64,
    /// Reference seconds per wall second while the work ran.
    pub scale: f64,
}

impl Timed {
    /// The work's time on the reference machine.
    pub fn ref_s(&self) -> f64 {
        self.wall_s * self.scale
    }
}

impl SpeedClock {
    pub fn new() -> SpeedClock {
        // The first call also faults the kernel's pages in.
        calibrate();
        let k = calibrate();
        SpeedClock {
            last_kernel_s: k,
            last_at: Instant::now(),
            kernels_s: vec![k],
        }
    }

    /// Run `work` and return its result and timing.
    pub fn time<R>(&mut self, work: impl FnOnce() -> R) -> (R, Timed) {
        let before = self.last_kernel_s;
        let t0 = Instant::now();
        let r = work();
        let wall_s = t0.elapsed().as_secs_f64();
        if self.last_at.elapsed().as_secs_f64() >= CALIBRATE_EVERY_S {
            self.last_kernel_s = calibrate();
            self.last_at = Instant::now();
            self.kernels_s.push(self.last_kernel_s);
        }
        let kernel_s = (before + self.last_kernel_s) / 2.0;
        let scale = (REFERENCE_KERNEL_S / kernel_s).powf(SENSITIVITY);
        (r, Timed { wall_s, scale })
    }

    /// Every calibration so far, in seconds.
    pub fn kernels_s(&self) -> &[f64] {
        &self.kernels_s
    }
}

/// CPU mask as glibc's affinity calls take it: 1024 CPUs.
type CpuMask = [u64; 16];

#[cfg(target_os = "linux")]
extern "C" {
    // glibc's wrappers; `pid` 0 is the calling thread.
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
}

#[cfg(target_os = "linux")]
fn set_affinity(mask: &CpuMask) -> bool {
    // SAFETY: `mask` is a readable buffer of the size passed.
    unsafe { sched_setaffinity(0, std::mem::size_of_val(mask), mask.as_ptr()) == 0 }
}

/// Pin this process (and every thread it starts from now on) to the last
/// CPU it may run on, and return that CPU. The calibration kernel runs on
/// the main thread; only when the engine and the server run on the same
/// CPU does the kernel see the speed they ran at. Returns `None` where the
/// affinity calls fail or do not exist.
pub fn pin_to_one_cpu() -> Option<usize> {
    #[cfg(target_os = "linux")]
    {
        let mut mask: CpuMask = [0; 16];
        // SAFETY: `mask` is a writable buffer of the size passed.
        if unsafe { sched_getaffinity(0, std::mem::size_of_val(&mask), mask.as_mut_ptr()) } != 0 {
            return None;
        }
        let cpu = (0..64 * mask.len())
            .rev()
            .find(|&c| mask[c / 64] >> (c % 64) & 1 == 1)?;
        let mut one: CpuMask = [0; 16];
        one[cpu / 64] = 1 << (cpu % 64);
        set_affinity(&one).then_some(cpu)
    }
    #[cfg(not(target_os = "linux"))]
    {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernel_is_deterministic_and_reference_time_scales_wall_time() {
        assert_eq!(kernel(7), kernel(7));
        let mut clock = SpeedClock::new();
        let (v, t) = clock.time(|| std::thread::sleep(std::time::Duration::from_millis(20)));
        assert_eq!(v, ());
        assert!(t.wall_s >= 0.02 && t.scale > 0.0);
        assert_eq!(t.ref_s(), t.wall_s * t.scale);
        assert_eq!(clock.kernels_s().len(), 2);
    }
}
