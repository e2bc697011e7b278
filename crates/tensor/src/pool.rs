//! Scoped compute pool shared by the blocked kernels and the execution
//! engines.
//!
//! The pool is deliberately *structural*, not a resident set of worker
//! threads: every parallel region is a [`std::thread::scope`] whose
//! threads borrow the caller's data directly, so no `'static` bounds or
//! channel plumbing leak into kernel signatures. Thread count comes from
//! the `JANUS_THREADS` environment variable (read once), defaulting to
//! the machine's available parallelism.
//!
//! Work is always split into *disjoint index ranges / slots*, never into
//! shared reductions: each output element is produced by exactly one
//! thread running exactly the code the single-threaded path runs, so
//! results are bitwise identical at any thread count.

use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};

static CONFIGURED: OnceLock<usize> = OnceLock::new();
static OVERRIDE: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// Set inside pool workers so nested parallel regions degrade to the
    /// serial path instead of oversubscribing (threads² spawns).
    static IN_POOL: Cell<bool> = const { Cell::new(false) };
}

/// Number of threads parallel regions may use right now.
///
/// Resolution order: inside a pool worker → 1 (no nesting); a process-wide
/// [`set_threads`] override, if any; else `JANUS_THREADS` (read once via
/// `OnceLock`); else [`std::thread::available_parallelism`].
pub fn threads() -> usize {
    if IN_POOL.with(|f| f.get()) {
        return 1;
    }
    let o = OVERRIDE.load(Ordering::Relaxed);
    if o > 0 {
        return o;
    }
    *CONFIGURED.get_or_init(|| {
        std::env::var("JANUS_THREADS")
            .ok()
            .and_then(|v| v.parse::<usize>().ok())
            .filter(|&n| n > 0)
            .unwrap_or_else(|| {
                std::thread::available_parallelism()
                    .map(|n| n.get())
                    .unwrap_or(1)
            })
    })
}

/// Process-wide thread-count override (`0` clears it), taking precedence
/// over `JANUS_THREADS`. Exists so tests and benches can sweep thread
/// counts without re-execing: the environment variable is latched on
/// first use and cannot be re-read.
pub fn set_threads(n: usize) {
    OVERRIDE.store(n, Ordering::Relaxed);
}

/// Run `n` independent tasks on the pool, returning their results in
/// task-index order (never completion order), so downstream folds are
/// deterministic at any thread count.
///
/// Tasks are claimed from an atomic counter, which load-balances uneven
/// task costs (expert batches vary in token count) across workers.
pub fn run_tasks<T, F>(n: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    run_tasks_bounded(usize::MAX, n, f)
}

/// [`run_tasks`] with an explicit worker ceiling: at most
/// `min(limit, threads(), n)` workers run concurrently. Callers that
/// schedule coarse-grained jobs (the lab's experiment tasks) use the limit
/// to honour a `--jobs N` budget without touching the process-wide
/// thread configuration.
///
/// An explicit finite `limit` is a *task-concurrency* budget, not a CPU
/// hint: it may exceed the configured pool width, because coarse jobs
/// can block on I/O or sleeps where extra in-flight tasks still help.
/// Only the unbounded form ([`run_tasks`]) clamps to [`threads`].
///
/// Workers run with the pool's nested-region guard set, so tasks that
/// themselves call into parallel kernels degrade to their serial path
/// instead of oversubscribing — and, by the pool's disjoint-work
/// invariant, produce bitwise-identical results doing so.
pub fn run_tasks_bounded<T, F>(limit: usize, n: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let budget = if limit == usize::MAX {
        threads()
    } else {
        limit.max(1)
    };
    let workers = budget.min(n);
    if workers <= 1 {
        return (0..n).map(f).collect();
    }
    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<T>>> = (0..n).map(|_| Mutex::new(None)).collect();
    std::thread::scope(|s| {
        for _ in 0..workers {
            s.spawn(|| {
                IN_POOL.with(|flag| flag.set(true));
                loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= n {
                        break;
                    }
                    let out = f(i);
                    *slots[i].lock().expect("task slot poisoned") = Some(out);
                }
            });
        }
    });
    slots
        .into_iter()
        .map(|m| {
            m.into_inner()
                .expect("task slot poisoned")
                .expect("task ran")
        })
        .collect()
}

/// Kernel row-tile height (must match the micro-kernels in `linalg` /
/// `simd`): blocks are sized in multiples of this so every block except
/// the last runs full-height tiles.
const MR: usize = 4;

/// Output bytes a worker's row block should stay within so the block's
/// A rows and output slab remain L2-resident while the kernel sweeps
/// its column tiles. Half a conservative 1 MB L2, leaving room for the
/// packed B panel and the other thread sharing the cache.
const L2_BLOCK_BYTES: usize = 512 * 1024;

/// Pick the row-block granularity for [`par_row_chunks`].
///
/// Two forces, both perf-only (granularity never changes any output
/// bit): blocks must be *small enough* that a block's working set fits
/// L2 and uneven per-row costs balance across workers (several blocks
/// per worker, claimed from an atomic counter), yet *big enough* that
/// per-block fixed costs — the kernels re-pack their B panels once per
/// block — stay amortized. We aim for ~4 blocks per worker, capped by
/// the L2 budget, floored at one `MR`-high tile, and rounded up to a
/// multiple of `MR`.
fn block_rows_for(rows: usize, row_len: usize, workers: usize) -> usize {
    let balance = rows.div_ceil(4 * workers);
    let l2 = (L2_BLOCK_BYTES / std::mem::size_of::<f32>() / row_len.max(1)).max(MR);
    balance.min(l2).next_multiple_of(MR)
}

/// Split the rows of `out` (a row-major buffer of `row_len`-wide rows)
/// into cache-sized row blocks (see [`block_rows_for`]) and run
/// `f(row_start, row_end, chunk)` on each; workers claim blocks from an
/// atomic counter so uneven block costs load-balance.
///
/// Row ranges are disjoint, so every output element is written by the
/// same code path the serial call uses — bitwise identical results at
/// any thread count and any block granularity.
pub fn par_row_chunks(
    out: &mut [f32],
    row_len: usize,
    f: impl Fn(usize, usize, &mut [f32]) + Sync,
) {
    let rows = out.len().checked_div(row_len).unwrap_or(0);
    if rows == 0 {
        return;
    }
    let workers = threads().min(rows);
    if workers <= 1 {
        f(0, rows, out);
        return;
    }
    let block_rows = block_rows_for(rows, row_len, workers);
    let blocks: Vec<Mutex<Option<&mut [f32]>>> = out
        .chunks_mut(block_rows * row_len)
        .map(|c| Mutex::new(Some(c)))
        .collect();
    let next = AtomicUsize::new(0);
    std::thread::scope(|s| {
        for _ in 0..workers {
            let (f, blocks, next) = (&f, &blocks, &next);
            s.spawn(move || {
                IN_POOL.with(|flag| flag.set(true));
                loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= blocks.len() {
                        break;
                    }
                    let chunk = blocks[i]
                        .lock()
                        .expect("block slot poisoned")
                        .take()
                        .expect("each block is claimed exactly once");
                    let r0 = i * block_rows;
                    f(r0, r0 + chunk.len() / row_len, chunk);
                }
            });
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tasks_return_in_index_order() {
        let out = run_tasks(64, |i| i * i);
        assert_eq!(out, (0..64).map(|i| i * i).collect::<Vec<_>>());
    }

    #[test]
    fn row_chunks_cover_every_row_exactly_once() {
        let rows = 37;
        let row_len = 5;
        let mut buf = vec![0.0f32; rows * row_len];
        par_row_chunks(&mut buf, row_len, |r0, r1, chunk| {
            assert_eq!(chunk.len(), (r1 - r0) * row_len);
            for (i, row) in chunk.chunks_mut(row_len).enumerate() {
                for v in row.iter_mut() {
                    *v += (r0 + i) as f32;
                }
            }
        });
        for (r, row) in buf.chunks(row_len).enumerate() {
            assert!(
                row.iter().all(|&v| v == r as f32),
                "row {r} written wrongly: {row:?}"
            );
        }
    }

    #[test]
    fn row_blocks_are_mr_aligned_and_l2_capped() {
        // Wide rows: the L2 budget dominates and the block still holds
        // at least one full MR tile.
        let b = block_rows_for(10_000, 64 * 1024, 4);
        assert_eq!(b, MR);
        // Narrow rows: ~4 blocks per worker, rounded up to MR.
        let b = block_rows_for(1024, 128, 4);
        assert_eq!(b % MR, 0);
        assert!((1024 / (4 * 4)..=1024 / (4 * 4) + MR).contains(&b));
    }

    #[test]
    fn many_blocks_cover_every_row_exactly_once() {
        // More rows than workers × block size, so the atomic claim loop
        // hands out several blocks per worker.
        set_threads(4);
        let rows = 103;
        let row_len = 3;
        let mut buf = vec![0.0f32; rows * row_len];
        par_row_chunks(&mut buf, row_len, |r0, r1, chunk| {
            assert_eq!(chunk.len(), (r1 - r0) * row_len);
            for (i, row) in chunk.chunks_mut(row_len).enumerate() {
                for v in row.iter_mut() {
                    *v += (r0 + i) as f32 + 1.0;
                }
            }
        });
        set_threads(0);
        for (r, row) in buf.chunks(row_len).enumerate() {
            assert!(
                row.iter().all(|&v| v == (r + 1) as f32),
                "row {r} written wrongly: {row:?}"
            );
        }
    }

    #[test]
    fn bounded_tasks_return_in_index_order() {
        set_threads(4);
        let out = run_tasks_bounded(2, 16, |i| i + 1);
        set_threads(0);
        assert_eq!(out, (1..=16).collect::<Vec<_>>());
        // A zero limit is clamped to one worker, not zero.
        assert_eq!(run_tasks_bounded(0, 3, |i| i), vec![0, 1, 2]);
    }

    #[test]
    fn empty_work_is_fine() {
        assert!(run_tasks(0, |i| i).is_empty());
        par_row_chunks(&mut [], 4, |_, _, _| panic!("no rows, no calls"));
    }

    #[test]
    fn nested_regions_serialize_instead_of_exploding() {
        let out = run_tasks(4, |_| {
            // Inside a worker the pool reports a single thread …
            assert_eq!(threads(), 1);
            // … and nested regions still produce correct results.
            run_tasks(3, |j| j).len()
        });
        assert_eq!(out, vec![3, 3, 3, 3]);
    }
}
