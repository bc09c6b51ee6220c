//! What the harness fixes about its own process before the program
//! under test runs in it: one hardware thread and one malloc arena.
//!
//! The box this is sized for gives two virtual processors of a shared
//! host. Left to the scheduler, a two-rank run lands on one or on both
//! of them from one second to the next, and a wake-up that crosses from
//! one to the other costs a trip through the hypervisor: identical code
//! then reads 30 % apart from run to run (README.md, "Noise"). On one
//! hardware thread every thread of the program under test takes turns on
//! the same processor, wake-ups stay local, and what a run measures is
//! the processor work of an operation — the quantity the paper's cost
//! model is about — not where the threads happened to be placed.
//!
//! glibc gives threads malloc arenas of their own, up to eight per
//! processor, and never returns one arena's free memory to another.
//! `serve-fanin`'s server starts a thread per connection, sixty a
//! server life: its peak resident set read 44–56 MiB from run to run
//! depending on which arena each of them drew, against 24.4–25.0 MiB
//! with one arena. On one hardware thread the arenas buy nothing (two
//! threads are never inside malloc at once), so the process gets one.

/// `cpu_set_t`: 1024 bits.
type CpuSet = [u64; 16];

#[cfg(target_os = "linux")]
extern "C" {
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut CpuSet) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const CpuSet) -> i32;
}

/// Restrict the calling thread, and every thread it starts from now on,
/// to the highest-numbered processor it may run on (the lowest one takes
/// most device interrupts). Returns that processor; `None` where the
/// platform cannot pin, which leaves the run unpinned, not failed.
#[cfg(target_os = "linux")]
pub fn pin_to_one_cpu() -> Option<usize> {
    let mut allowed: CpuSet = [0; 16];
    // SAFETY: `allowed` is a valid, writable buffer of the size passed;
    // pid 0 is the calling thread.
    if unsafe { sched_getaffinity(0, std::mem::size_of::<CpuSet>(), &mut allowed) } != 0 {
        return None;
    }
    let word = allowed.iter().rposition(|&w| w != 0)?;
    let bit = 63 - allowed[word].leading_zeros() as usize;
    let mut one: CpuSet = [0; 16];
    one[word] = 1 << bit;
    // SAFETY: `one` is a valid buffer of the size passed.
    (unsafe { sched_setaffinity(0, std::mem::size_of::<CpuSet>(), &one) } == 0)
        .then_some(word * 64 + bit)
}

#[cfg(not(target_os = "linux"))]
pub fn pin_to_one_cpu() -> Option<usize> {
    None
}

/// `M_ARENA_MAX` of glibc's `mallopt`.
#[cfg(all(target_os = "linux", target_env = "gnu"))]
const M_ARENA_MAX: i32 = -8;

#[cfg(all(target_os = "linux", target_env = "gnu"))]
extern "C" {
    fn mallopt(param: i32, value: i32) -> i32;
}

/// Keep every allocation of this process in malloc's main arena. Call
/// before the first thread is started. False where the allocator has no
/// such setting, which leaves it as it is.
#[cfg(all(target_os = "linux", target_env = "gnu"))]
pub fn one_malloc_arena() -> bool {
    // SAFETY: `mallopt` takes two integers and only sets a limit that
    // malloc reads when it next creates an arena.
    unsafe { mallopt(M_ARENA_MAX, 1) == 1 }
}

#[cfg(not(all(target_os = "linux", target_env = "gnu")))]
pub fn one_malloc_arena() -> bool {
    false
}
