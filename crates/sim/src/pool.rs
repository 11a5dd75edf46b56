//! Scoped worker pool for the deterministic parallel tick engine.
//!
//! Two primitives, and the only place in the workspace that opens a thread
//! scope. [`run_partitioned`] fans a fixed list of independent work items
//! (partitions of the peer range) over `threads` scoped OS threads and
//! returns the results **in item order**, regardless of which worker
//! computed what or when it finished. Determinism never rests on
//! scheduling: workers claim items from a shared atomic counter (the only
//! synchronization besides the scope join), tag every result with its item
//! index, and the caller-visible output is re-assembled by tag.
//! [`run_chunked`] hands disjoint mutable chunks of one slice to one worker
//! each and returns their results in chunk order.
//!
//! The pool is spun up per parallel region rather than kept alive across
//! ticks: `std::thread::scope` lets workers borrow the tick's frozen state
//! directly (no `Arc`, no channels), and thread spawn cost is far below one
//! tick's work at the scales where parallelism is worth having. With
//! `threads <= 1`, or a single item, everything runs inline on the caller's
//! thread — byte-identical by construction, and the path every existing
//! serial test exercises.
//!
//! The `pool-audit` feature gates a stress suite sized for `cargo miri`
//! (exhaustively checked handoff, small iteration counts) so CI can audit
//! the claiming protocol under the interpreter when miri is available.

use std::sync::atomic::{AtomicUsize, Ordering};

/// Run `f(item)` for every `item in 0..items` across up to `threads` scoped
/// worker threads, returning the results in item order.
///
/// `f` must be safe to call concurrently from multiple threads (`Sync`); the
/// per-item work must be independent — nothing here orders side effects
/// *between* items, only the returned values.
pub fn run_partitioned<R, F>(threads: usize, items: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    if threads <= 1 || items <= 1 {
        return (0..items).map(f).collect();
    }
    let workers = threads.min(items);
    let next = AtomicUsize::new(0);
    let mut tagged: Vec<(usize, R)> = Vec::with_capacity(items);
    std::thread::scope(|scope| {
        let mut handles = Vec::with_capacity(workers);
        for _ in 0..workers {
            handles.push(scope.spawn(|| {
                let mut mine: Vec<(usize, R)> = Vec::new();
                loop {
                    let item = next.fetch_add(1, Ordering::Relaxed);
                    if item >= items {
                        break;
                    }
                    mine.push((item, f(item)));
                }
                mine
            }));
        }
        for h in handles {
            // A panicking worker propagates here, after the scope has joined
            // every sibling — no half-merged tick can escape.
            tagged.extend(h.join().expect("worker panicked"));
        }
    });
    debug_assert_eq!(tagged.len(), items);
    tagged.sort_unstable_by_key(|&(i, _)| i);
    tagged.into_iter().map(|(_, r)| r).collect()
}

/// Run `f(start, chunk)` over disjoint mutable chunks of `data`, split at
/// `bounds` (ascending, starting at 0 and ending at `data.len()` — the
/// layout [`ddp_topology::Partition::boundaries`] produces). Each chunk is
/// written by exactly one worker; the borrow checker enforces disjointness
/// through `split_at_mut`, so the result is identical to a serial sweep no
/// matter the interleaving. Returns each call's result in ascending chunk
/// order — a single result when the sweep runs serially over all of `data`.
pub fn run_chunked<T, R, F>(threads: usize, data: &mut [T], bounds: &[usize], f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(usize, &mut [T]) -> R + Sync,
{
    debug_assert!(bounds.first() == Some(&0) && bounds.last() == Some(&data.len()));
    if threads <= 1 || bounds.len() <= 2 {
        return vec![f(0, data)];
    }
    // Carve the slice into per-partition chunks up front; one scoped thread
    // per chunk (partition counts track the thread count, so this never
    // oversubscribes meaningfully, and each chunk is owned by one worker).
    let mut chunks: Vec<(usize, &mut [T])> = Vec::with_capacity(bounds.len() - 1);
    let mut rest = data;
    for w in bounds.windows(2) {
        let (head, tail) = rest.split_at_mut(w[1] - w[0]);
        chunks.push((w[0], head));
        rest = tail;
    }
    std::thread::scope(|scope| {
        let f = &f;
        let handles: Vec<_> =
            chunks.into_iter().map(|(start, chunk)| scope.spawn(move || f(start, chunk))).collect();
        handles.into_iter().map(|h| h.join().expect("worker panicked")).collect()
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_come_back_in_item_order() {
        for threads in [1, 2, 4, 8] {
            let out = run_partitioned(threads, 37, |i| i * i);
            assert_eq!(out, (0..37).map(|i| i * i).collect::<Vec<_>>(), "threads={threads}");
        }
    }

    #[test]
    fn every_item_claimed_exactly_once() {
        use std::sync::atomic::AtomicU32;
        let counters: Vec<AtomicU32> = (0..64).map(|_| AtomicU32::new(0)).collect();
        let out = run_partitioned(4, 64, |i| {
            counters[i].fetch_add(1, Ordering::Relaxed);
            i
        });
        assert_eq!(out.len(), 64);
        for (i, c) in counters.iter().enumerate() {
            assert_eq!(c.load(Ordering::Relaxed), 1, "item {i} ran a wrong number of times");
        }
    }

    #[test]
    fn zero_and_one_item_edge_cases() {
        assert_eq!(run_partitioned(4, 0, |i| i), Vec::<usize>::new());
        assert_eq!(run_partitioned(4, 1, |i| i + 10), vec![10]);
    }

    #[test]
    fn more_threads_than_items_is_fine() {
        let out = run_partitioned(16, 3, |i| i);
        assert_eq!(out, vec![0, 1, 2]);
    }

    #[test]
    fn chunked_writes_match_serial_sweep() {
        let n = 1000usize;
        let bounds = [0usize, 17, 17, 400, n];
        for threads in [1, 2, 4] {
            let mut parallel = vec![0u64; n];
            run_chunked(threads, &mut parallel, &bounds, |start, chunk| {
                for (k, v) in chunk.iter_mut().enumerate() {
                    *v = ((start + k) as u64).wrapping_mul(0x9e37_79b9);
                }
            });
            let serial: Vec<u64> = (0..n as u64).map(|i| i.wrapping_mul(0x9e37_79b9)).collect();
            assert_eq!(parallel, serial, "threads={threads}");
        }
    }

    #[test]
    fn chunked_results_come_back_in_chunk_order() {
        let mut data = vec![0u8; 30];
        let bounds = [0usize, 4, 4, 19, 30];
        assert_eq!(
            run_chunked(4, &mut data, &bounds, |start, c| (start, c.len())),
            [(0, 4), (4, 0), (4, 15), (19, 11)]
        );
        assert_eq!(run_chunked(1, &mut data, &bounds, |start, c| (start, c.len())), [(0, 30)]);
    }

    #[test]
    #[should_panic(expected = "worker panicked")]
    fn worker_panic_propagates() {
        run_partitioned(2, 8, |i| {
            if i == 5 {
                panic!("boom");
            }
            i
        });
    }
}

/// Miri-sized audit of the claiming handoff: many small regions, every
/// result checked for exactly-once, in-order reassembly. Run with
/// `cargo miri test -p ddp-sim --features pool-audit pool_audit` (or as a
/// plain stress test without miri).
#[cfg(all(test, feature = "pool-audit"))]
mod pool_audit {
    use super::*;

    #[test]
    fn handoff_is_exactly_once_under_repeated_small_regions() {
        for round in 0..8usize {
            let items = 1 + round % 5;
            let threads = 1 + round % 4;
            let out = run_partitioned(threads, items, |i| (round, i));
            assert_eq!(out, (0..items).map(|i| (round, i)).collect::<Vec<_>>());
        }
    }

    #[test]
    fn chunked_handoff_covers_every_slot() {
        let mut data = vec![0u8; 23];
        run_chunked(3, &mut data, &[0, 7, 11, 23], |_, chunk| {
            for v in chunk {
                *v += 1;
            }
        });
        assert!(data.iter().all(|&v| v == 1));
    }
}
