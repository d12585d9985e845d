//! Host-speed calibration.
//!
//! A shared VM runs the same code up to twice as slowly while its
//! neighbours are busy, for minutes at a time, so wall times taken minutes
//! apart differ by more than any change worth measuring. A fixed reference
//! task, timed just before and just after every round and every batch of
//! set-ups, measures how fast the host runs at that moment; each round and
//! set-up is divided by the slowdown against [`NOMINAL_S`] measured around
//! it (see [`nominal`]). The task is this crate's own code and never
//! changes with the repository, so a faster or slower repository still
//! moves the calibrated times one for one.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::process::{Command, Stdio};
use std::time::Instant;

/// Time the reference task takes on the host the benchmark's numbers were
/// recorded on (a 2-vCPU Xeon VM at 2.0 GHz) while it is quiet; calibrated
/// times are in seconds of that host.
pub const NOMINAL_S: f64 = 0.057;

/// `secs` of wall time in seconds of the nominal host: divided by the
/// host's slowdown, taken as the mean of the reference times measured just
/// `before` and just `after` it over [`NOMINAL_S`].
pub fn nominal(secs: f64, before: f64, after: f64) -> f64 {
    secs * NOMINAL_S / ((before + after) / 2.0)
}

/// Time the reference task in `copies` child processes at once (`exe
/// calibrate`, one per thread the workload uses, so every CPU it runs on is
/// sampled) and return their mean time. Children keep the task's memory
/// out of the measured process's heap and peak RSS.
///
/// # Errors
/// A child could not run or printed no time.
pub fn sample(exe: &str, copies: usize) -> Result<f64, String> {
    let copies = copies.max(1);
    let mut children = Vec::with_capacity(copies);
    let mut spawn_error = None;
    for _ in 0..copies {
        match Command::new(exe)
            .arg("calibrate")
            .stdout(Stdio::piped())
            .spawn()
        {
            Ok(child) => children.push(child),
            Err(e) => {
                spawn_error = Some(format!("spawn {exe} calibrate: {e}"));
                break;
            }
        }
    }
    // Every child that started is waited for, whatever went wrong.
    let times: Vec<Result<f64, String>> = children
        .into_iter()
        .map(|child| {
            let out = child
                .wait_with_output()
                .map_err(|e| format!("{exe} calibrate: {e}"))?;
            let text = String::from_utf8_lossy(&out.stdout);
            text.trim()
                .parse()
                .ok()
                .filter(|s: &f64| out.status.success() && s.is_finite() && *s > 0.0)
                .ok_or_else(|| format!("{exe} calibrate printed `{}`", text.trim()))
        })
        .collect();
    if let Some(e) = spawn_error {
        return Err(e);
    }
    Ok(times.into_iter().sum::<Result<f64, _>>()? / copies as f64)
}

/// Run the reference task once in this process and return its wall time
/// in seconds. It does, in roughly equal parts, what the simulator spends
/// its time on: a byte-code dispatch loop over 256 KB of data, and inserts
/// and removals in an ordered map of some 27 000 entries. The mix was
/// chosen by measurement on the recording host: with it, round times moved
/// about one for one with the task's time on all four workloads, while a
/// task that also did random read-modify-writes over 8 MB slowed twice as
/// much as the rounds under load and corrected too far. The data is
/// touched before the clock starts, so page faults stay out.
pub fn task() -> f64 {
    let code: Vec<u8> = (0..64u32).map(|i| ((i * 7 + 3) % 6) as u8).collect();
    let mut data = black_box(vec![1u64; 1 << 15]);
    let t0 = Instant::now();
    let dmask = data.len() - 1;
    let mut regs = [1u64; 4];
    let mut pc = 0usize;
    for _ in 0..15_000_000 {
        match code[pc] {
            0 => regs[0] = regs[0].wrapping_add(regs[1]),
            1 => regs[1] = regs[1].wrapping_mul(31).wrapping_add(regs[2]),
            2 => {
                let a = regs[0] as usize & dmask;
                data[a] = data[a].wrapping_add(regs[1]);
            }
            3 => regs[2] = data[regs[1] as usize & dmask],
            4 if regs[2] & 1 == 0 => pc = (pc + 3) % 64,
            _ => regs[3] ^= regs[0],
        }
        pc = (pc + 1) % 64;
    }
    let mut map = BTreeMap::new();
    let mut x = black_box(0x9e37_79b9_7f4a_7c15_u64);
    for i in 0..300_000u64 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let key = x % 40_000;
        if i % 3 == 0 {
            map.remove(&key);
        } else {
            *map.entry(key).or_insert(0u64) += i;
        }
    }
    black_box((regs, &data, map.len()));
    t0.elapsed().as_secs_f64()
}
