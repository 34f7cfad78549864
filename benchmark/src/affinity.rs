//! Pins the process to one CPU (noise rule 4).
//!
//! On the reference box — a 2-vCPU guest — waking a thread on the other
//! vCPU goes through the hypervisor and costs ~35 µs, and whether the
//! scheduler puts a client and the threads serving it on one vCPU or two
//! flips from run to run and within a run: the same loopback round trip
//! reads 17 µs or 120 µs, and every hand-off between threads with it. On
//! one CPU a hand-off is a context switch, the same every time. The
//! price: the benchmark measures the work the system does, not what a
//! second core would overlap.

// glibc's wrappers; `std` links glibc on this target already.
extern "C" {
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

/// Words of a CPU mask: room for 1024 CPUs, glibc's own `cpu_set_t`.
const MASK_WORDS: usize = 16;

/// Restricts this process (and every thread it starts later) to the
/// highest-numbered CPU it may run on — CPU 0 usually takes the
/// interrupts — and returns that CPU. Call before starting threads.
pub fn pin_to_one_cpu() -> Result<usize, String> {
    let mut mask = [0u64; MASK_WORDS];
    let bytes = std::mem::size_of_val(&mask);
    // SAFETY: `mask` is a live, writable buffer of exactly `bytes`
    // bytes; pid 0 names the calling thread.
    if unsafe { sched_getaffinity(0, bytes, mask.as_mut_ptr()) } != 0 {
        return Err(format!("sched_getaffinity: {}", std::io::Error::last_os_error()));
    }
    let (word, bits) = mask
        .iter()
        .enumerate()
        .rev()
        .find(|(_, w)| **w != 0)
        .ok_or("sched_getaffinity returned an empty CPU mask")?;
    let bit = 63 - bits.leading_zeros() as usize;
    let mut one = [0u64; MASK_WORDS];
    one[word] = 1 << bit;
    // SAFETY: `one` is a live buffer of exactly `bytes` bytes, only read.
    if unsafe { sched_setaffinity(0, bytes, one.as_ptr()) } != 0 {
        return Err(format!("sched_setaffinity: {}", std::io::Error::last_os_error()));
    }
    Ok(word * 64 + bit)
}
