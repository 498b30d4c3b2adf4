//! Shared helpers for the primitive implementations.

use pbqp_dnn_tensor::pool::Arena;
use pbqp_dnn_tensor::Tensor;

/// Zero-padded read of logical element `(c, y, x)` where `y`/`x` are
/// *padded-space* coordinates minus `pad` (i.e. may be negative-as-wrapped).
/// Callers pass `iy = oh*stride + i` and the pad separately.
#[inline]
pub(crate) fn padded_at(input: &Tensor, c: usize, iy: isize, ix: isize) -> f32 {
    let (_, h, w) = input.dims();
    if iy < 0 || ix < 0 || iy >= h as isize || ix >= w as isize {
        0.0
    } else {
        input.at(c, iy as usize, ix as usize)
    }
}

/// Runs every job: the first on the calling thread, each other on its own
/// scoped thread. A single job runs inline, without spawning.
pub(crate) fn fan_out<F: FnOnce() + Send>(jobs: impl IntoIterator<Item = F>) {
    let mut jobs = jobs.into_iter();
    let Some(first) = jobs.next() else { return };
    let mut rest = jobs.peekable();
    if rest.peek().is_none() {
        return first();
    }
    std::thread::scope(|scope| {
        for job in rest {
            scope.spawn(job);
        }
        first();
    });
}

/// Splits `0..m` into at most `threads` contiguous chunks and runs `f` on
/// each chunk in its own scoped thread (serially when `threads <= 1`).
#[allow(dead_code)] // kept for primitives that parallelize over index ranges
pub(crate) fn par_ranges<F>(m: usize, threads: usize, f: F)
where
    F: Fn(std::ops::Range<usize>) + Sync,
{
    let threads = threads.max(1).min(m.max(1));
    if threads <= 1 || m == 0 {
        f(0..m);
        return;
    }
    let per = m.div_ceil(threads);
    std::thread::scope(|scope| {
        let f = &f;
        let mut start = 0;
        while start < m {
            let end = (start + per).min(m);
            scope.spawn(move || f(start..end));
            start = end;
        }
    });
}

/// Splits a mutable slice into `chunks` of `chunk_len` and runs `f(i, chunk)`
/// on each in parallel. Used to parallelize over output channels when the
/// output layout stores channels contiguously (planar layouts).
pub(crate) fn par_chunks_mut<F>(data: &mut [f32], chunk_len: usize, threads: usize, f: F)
where
    F: Fn(usize, &mut [f32]) + Sync,
{
    assert!(chunk_len > 0 && data.len().is_multiple_of(chunk_len));
    let threads = threads.max(1);
    if threads <= 1 {
        for (i, chunk) in data.chunks_mut(chunk_len).enumerate() {
            f(i, chunk);
        }
        return;
    }
    let n_chunks = data.len() / chunk_len;
    let per = n_chunks.div_ceil(threads);
    std::thread::scope(|scope| {
        let f = &f;
        for (t, slab) in data.chunks_mut(per * chunk_len).enumerate() {
            scope.spawn(move || {
                for (i, chunk) in slab.chunks_mut(chunk_len).enumerate() {
                    f(t * per + i, chunk);
                }
            });
        }
    });
}

/// [`par_chunks_mut`] for kernels that need per-worker scratch: `f(i,
/// chunk, scratch)` receives a zero-filled scratch slice of
/// `scratch_len` elements. Serially (`threads <= 1`) the scratch is
/// carved from `arena` — no allocation after warmup; in parallel each
/// spawned worker owns a fresh local buffer (spawning already allocates).
pub(crate) fn par_chunks_scratch<T, F>(
    data: &mut [f32],
    chunk_len: usize,
    threads: usize,
    scratch_len: usize,
    arena: &mut Arena<T>,
    f: F,
) where
    T: Copy + Default + Send,
    F: Fn(usize, &mut [f32], &mut [T]) + Sync,
{
    assert!(chunk_len > 0 && data.len().is_multiple_of(chunk_len));
    let threads = threads.max(1);
    if threads <= 1 {
        let mark = arena.mark();
        let [scratch] = arena.take([scratch_len]);
        for (i, chunk) in data.chunks_mut(chunk_len).enumerate() {
            scratch.fill(T::default());
            f(i, chunk, scratch);
        }
        arena.release(mark);
        return;
    }
    let n_chunks = data.len() / chunk_len;
    let per = n_chunks.div_ceil(threads);
    std::thread::scope(|scope| {
        let f = &f;
        for (t, slab) in data.chunks_mut(per * chunk_len).enumerate() {
            scope.spawn(move || {
                let mut scratch = vec![T::default(); scratch_len];
                for (i, chunk) in slab.chunks_mut(chunk_len).enumerate() {
                    scratch.fill(T::default());
                    f(t * per + i, chunk, &mut scratch);
                }
            });
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use pbqp_dnn_tensor::Layout;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn padded_at_zero_fills_outside() {
        let t = Tensor::from_fn(1, 2, 2, Layout::Chw, |_, h, w| (h * 2 + w + 1) as f32);
        assert_eq!(padded_at(&t, 0, -1, 0), 0.0);
        assert_eq!(padded_at(&t, 0, 0, -1), 0.0);
        assert_eq!(padded_at(&t, 0, 2, 0), 0.0);
        assert_eq!(padded_at(&t, 0, 1, 1), 4.0);
    }

    #[test]
    fn fan_out_runs_every_job_once() {
        for jobs in [0, 1, 3] {
            let count = AtomicUsize::new(0);
            fan_out((0..jobs).map(|i| {
                let count = &count;
                move || {
                    count.fetch_add(1 << i, Ordering::SeqCst);
                }
            }));
            assert_eq!(count.load(Ordering::SeqCst), (1 << jobs) - 1);
        }
    }

    #[test]
    fn par_ranges_covers_everything_once() {
        let count = AtomicUsize::new(0);
        par_ranges(17, 4, |r| {
            count.fetch_add(r.len(), Ordering::SeqCst);
        });
        assert_eq!(count.load(Ordering::SeqCst), 17);
        // Serial fallback.
        let count2 = AtomicUsize::new(0);
        par_ranges(3, 1, |r| {
            count2.fetch_add(r.len(), Ordering::SeqCst);
        });
        assert_eq!(count2.load(Ordering::SeqCst), 3);
    }

    #[test]
    fn par_chunks_scratch_zeroes_between_chunks() {
        for threads in [1, 3] {
            let mut arena: Arena<f32> = Arena::new();
            let mut data = vec![0.0f32; 9];
            par_chunks_scratch(&mut data, 3, threads, 2, &mut arena, |i, chunk, scratch| {
                assert!(scratch.iter().all(|&v| v == 0.0), "stale scratch at chunk {i}");
                scratch[0] = 1.0 + i as f32;
                for v in chunk {
                    *v = scratch[0];
                }
            });
            assert_eq!(data, [1., 1., 1., 2., 2., 2., 3., 3., 3.]);
            assert_eq!(arena.in_use(), 0, "serial scratch must be released");
        }
    }

    #[test]
    fn par_chunks_mut_writes_disjointly() {
        let mut data = vec![0.0f32; 12];
        par_chunks_mut(&mut data, 3, 3, |i, chunk| {
            for v in chunk {
                *v = i as f32;
            }
        });
        assert_eq!(data, [0., 0., 0., 1., 1., 1., 2., 2., 2., 3., 3., 3.]);
    }
}
