//! The workspace's one software-prefetch hint, kept in a file of its own so
//! that CI can hold every other source file to no `unsafe` at all.

/// Hint the CPU to start loading the cache line holding `p`. A prefetch
/// never faults, whatever the address; off x86-64 this is a no-op.
#[inline(always)]
pub(crate) fn prefetch<T>(p: *const T) {
    #[cfg(target_arch = "x86_64")]
    // SAFETY: `prefetcht0` only warms the cache: it reads no value, writes
    // nothing and cannot fault, so any pointer is sound to pass.
    unsafe {
        use std::arch::x86_64::{_mm_prefetch, _MM_HINT_T0};
        _mm_prefetch::<_MM_HINT_T0>(p.cast());
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = p;
}
