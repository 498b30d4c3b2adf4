//! Load generation: the closed loop (one client, next op when the last
//! one returned) and the open loop (seeded Poisson arrivals sent on
//! schedule whether or not the system keeps up).

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc;
use std::time::{Duration, Instant};

use pbqp_dnn::tensor::rng::SplitMix64;

use crate::stats::percentile_of;

/// What a finished loop hands to the metric code.
#[derive(Debug, Default)]
pub struct LoopResult {
    /// Latency of every succeeded op, in ms, in completion order.
    pub latencies_ms: Vec<f64>,
    /// The lane (model) each of those ops went to; empty when the loop has
    /// one lane.
    pub lanes: Vec<usize>,
    pub attempted: u64,
    pub failed: u64,
    /// The timed window, in seconds.
    pub window_s: f64,
    /// Succeeded ops per second of each block of consecutive ops (see
    /// [`blocks`]); the open loop has one block, the whole window.
    pub block_throughputs: Vec<f64>,
    /// The first few failure messages, for the human report.
    pub errors: Vec<String>,
}

impl LoopResult {
    pub fn fail(&mut self, message: String) {
        self.failed += 1;
        if self.errors.len() < 5 {
            self.errors.push(message);
        }
    }

    pub fn succeeded(&self) -> u64 {
        self.attempted - self.failed
    }

    pub fn lane_count(&self) -> usize {
        self.lanes.iter().max().map_or(1, |last| last + 1)
    }

    /// The run's `p` percentile of latency: the percentile of each block
    /// of consecutive ops, then the calm decile of the blocks (see
    /// [`calm_decile`]).
    pub fn percentile(&self, p: f64) -> f64 {
        let per_block: Vec<f64> =
            self.percentile_blocks(p).into_iter().map(|b| self.percentile_in(b, p)).collect();
        calm_decile(&per_block, false)
    }

    /// The blocks [`LoopResult::percentile`] is taken over: each keeps ten
    /// samples of every lane beyond the `p` percentile.
    pub fn percentile_blocks(&self, p: f64) -> Vec<std::ops::Range<usize>> {
        blocks(self.latencies_ms.len(), samples_for(p) * self.lane_count())
    }

    /// The `p` percentile of latency over the ops in `block`: taken per
    /// lane and averaged over the lanes.
    ///
    /// The open loop's four models take 0.8, 0.9, 0.9 and 1.8 ms at the
    /// median and get a quarter of the requests each, so the quartiles of
    /// the whole mix fall exactly between two models' modes, where the
    /// distribution is flat and a percentile jumps from one mode to the
    /// other on a small shift. Over ten 20 s runs the whole-mix p50 spread
    /// 4.4 % (interquartile over median), each model's own p50 1.4-2.1 %
    /// and their mean 1.5 %.
    pub fn percentile_in(&self, block: std::ops::Range<usize>, p: f64) -> f64 {
        let latencies = &self.latencies_ms[block.clone()];
        if self.lanes.is_empty() {
            return percentile_of(latencies, p);
        }
        let lanes = &self.lanes[block];
        let of_lane = |lane: usize| {
            let own: Vec<f64> =
                latencies.iter().zip(lanes).filter(|(_, l)| **l == lane).map(|(v, _)| *v).collect();
            percentile_of(&own, p)
        };
        (0..self.lane_count()).map(of_lane).sum::<f64>() / self.lane_count() as f64
    }
}

/// The most blocks a run's ops are cut into.
pub const MAX_BLOCKS: usize = 100;

/// How many samples a block needs for ten of them to lie beyond its `p`
/// percentile.
pub fn samples_for(p: f64) -> usize {
    // 1 - 0.8 is a hair under 0.2 in binary: without the nudge p80 would
    // ask for 51.
    (10.0 / (1.0 - p) - 1e-6).ceil() as usize
}

/// `total` ops cut into equal blocks of consecutive ops, at least
/// `min_len` each and at most [`MAX_BLOCKS`] of them; the last block takes
/// the remainder. One block when there are fewer than two `min_len`s.
pub fn blocks(total: usize, min_len: usize) -> Vec<std::ops::Range<usize>> {
    let count = (total / min_len.max(1)).clamp(1, MAX_BLOCKS);
    let len = total / count;
    (0..count).map(|b| b * len..if b + 1 == count { total } else { (b + 1) * len }).collect()
}

/// The value a run reports for a statistic taken block by block: the one
/// a tenth of the blocks are calmer than (the 10th percentile across
/// blocks; the 90th when `higher_is_calm`, as for throughput). With ten
/// blocks or fewer that is the calmest block.
///
/// Why not the whole run, or the median block: this is a shared virtual
/// machine, and what its neighbours do reaches a run in phases of
/// seconds to minutes in which everything is 1.1-1.6x slower. Interference
/// only ever adds time, so the calm end of a run is the code's own speed
/// and the rest is the host's. In a noisy hour, over ten 20 s runs on ten
/// seeds (interquartile range over median): `micro_zoo` p50 7.6 % whole
/// run, 7.5 % median of ten blocks, 1.6 % calm decile; its p90 20.6 / 24.0 /
/// 8.5 %; its throughput 11.2 / 12.9 / 5.0 %; `compile_ship` p50 21.8 / 18.2 /
/// 3.2 %, throughput 15.4 / 11.9 / 4.1 %. In a quiet hour all three agree to
/// a few percent. A change to the code moves every block, the calm ones
/// included.
pub fn calm_decile(per_block: &[f64], higher_is_calm: bool) -> f64 {
    const CALM: f64 = 0.10;
    if higher_is_calm {
        let negated: Vec<f64> = per_block.iter().map(|v| -v).collect();
        -percentile_of(&negated, CALM)
    } else {
        percentile_of(per_block, CALM)
    }
}

/// Runs `op(i)` back to back for `seconds` of timed window, then
/// `check(i)` on its result. Only `op` is timed: the harness's own output
/// check is excluded from the latency and from the window, so making the
/// check more thorough never reads as a slowdown of the system.
pub fn closed_loop(
    seconds: f64,
    mut op: impl FnMut(u64) -> Result<(), String>,
    mut check: impl FnMut(u64) -> Result<(), String>,
) -> LoopResult {
    // Room for every latency up front (untouched pages cost nothing): a
    // vector that grows mid-run puts a reallocation between two ops, and
    // where that block lands in the heap can change how the allocator
    // treats the system's own large buffers from then on.
    let mut result =
        LoopResult { latencies_ms: Vec::with_capacity(1 << 20), ..LoopResult::default() };
    let window = Duration::from_secs_f64(seconds);
    let mut busy = Duration::ZERO;
    let mut ops: Vec<(f64, bool)> = Vec::with_capacity(1 << 20);
    let mut i = 0u64;
    while busy < window {
        let start = Instant::now();
        let outcome = op(i);
        let took = start.elapsed();
        busy += took;
        result.attempted += 1;
        let ok = match outcome.and_then(|()| check(i)) {
            Ok(()) => true,
            Err(e) => {
                result.fail(format!("op {i}: {e}"));
                false
            }
        };
        ops.push((took.as_secs_f64(), ok));
        if ok {
            result.latencies_ms.push(took.as_secs_f64() * 1e3);
        }
        i += 1;
    }
    result.window_s = busy.as_secs_f64();
    result.block_throughputs = blocks(ops.len(), samples_for(0.5))
        .into_iter()
        .map(|block| {
            let ops = &ops[block];
            ops.iter().filter(|(_, ok)| *ok).count() as f64
                / ops.iter().map(|(s, _)| s).sum::<f64>()
        })
        .collect();
    result
}

/// One scheduled request of the open loop.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Arrival {
    /// When the request is due, in ns after the phase starts.
    pub due_ns: u64,
    /// Which lane (model) it goes to.
    pub lane: usize,
    /// Which of the lane's pooled inputs it carries.
    pub input: usize,
}

/// A Poisson arrival schedule at `rate_per_s` over `seconds`, conditioned
/// on its count: exactly `rate_per_s * seconds` arrivals at independent
/// uniform times (what a Poisson process looks like given how many
/// arrivals it had), so every seed offers the same load and only its
/// timing differs. Lanes and inputs are dealt from shuffled decks (each
/// deck holds every lane, or input, once and is reshuffled when it runs
/// out) for the same reason: with independent draws the share of the
/// slowest model moved a few percent from seed to seed and took the
/// latency percentiles with it. A pure function of its arguments — equal
/// seeds give equal schedules.
pub fn poisson_schedule(
    seed: u64,
    rate_per_s: f64,
    seconds: f64,
    lanes: usize,
    inputs: usize,
) -> Vec<Arrival> {
    let mut rng = SplitMix64::new(seed);
    let count = (rate_per_s * seconds).round() as usize;
    let horizon_ns = seconds * 1e9;
    // 53 uniform bits mapped into [0, 1).
    let mut due: Vec<u64> = (0..count)
        .map(|_| ((rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64 * horizon_ns) as u64)
        .collect();
    due.sort_unstable();
    let (mut lane_deck, mut input_deck) = (Vec::new(), Vec::new());
    due.into_iter()
        .map(|due_ns| Arrival {
            due_ns,
            lane: deal(&mut lane_deck, lanes, &mut rng),
            input: deal(&mut input_deck, inputs, &mut rng),
        })
        .collect()
}

/// Deals the next card of `deck`, refilling it with a fresh Fisher-Yates
/// shuffle of `0..size` when it is empty.
fn deal(deck: &mut Vec<usize>, size: usize, rng: &mut SplitMix64) -> usize {
    if deck.is_empty() {
        deck.extend(0..size);
        for i in (1..size).rev() {
            deck.swap(i, rng.usize(0, i + 1));
        }
    }
    deck.pop().expect("just refilled")
}

/// The system an open loop drives. `submit` runs on the generator thread
/// and must not wait for the result; `wait` runs on the lane's collector.
pub trait Target: Sync {
    type Pending: Send;
    /// What a completed request reports back besides success (the
    /// gateway hands over its own latency and batch-size accounting).
    type Done: Send;
    fn submit(&self, arrival: &Arrival) -> Result<Self::Pending, String>;
    fn wait(&self, arrival: &Arrival, pending: Self::Pending) -> Result<Self::Done, String>;
}

/// Which CPUs the calling thread (and every thread it spawns afterwards)
/// may run on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Cpus {
    All,
    /// CPU 0 only — where the load generator spins.
    Generator,
    /// Every CPU but 0 — where the system under test runs.
    System,
}

/// The host's CPUs (at most the 64 one mask word names). Counted once,
/// before any pinning: `available_parallelism` reads the very mask that
/// [`pin`] narrows.
fn cpu_count() -> usize {
    static CPUS: std::sync::OnceLock<usize> = std::sync::OnceLock::new();
    *CPUS.get_or_init(|| std::thread::available_parallelism().map_or(1, |n| n.get()).min(64))
}

/// Restricts the calling thread to `cpus`. Does nothing (and returns
/// false) on a single-CPU host or when the kernel refuses; the open loop
/// then runs unpinned, as it would anywhere `sched_setaffinity` is absent.
pub fn pin(cpus: Cpus) -> bool {
    extern "C" {
        fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
    }
    let n = cpu_count();
    if n < 2 {
        return false;
    }
    let all = if n == 64 { u64::MAX } else { (1u64 << n) - 1 };
    let mask = match cpus {
        Cpus::All => all,
        Cpus::Generator => 1,
        Cpus::System => all & !1,
    };
    // SAFETY: `sched_setaffinity(2)` reads `cpusetsize` bytes from `mask`,
    // which points at a live 8-byte integer; pid 0 names the calling
    // thread. The call changes scheduling only, never memory.
    unsafe { sched_setaffinity(0, std::mem::size_of::<u64>(), &mask) == 0 }
}

/// Spins on the calling thread until `awake` is cleared, in the kernel's
/// `SCHED_IDLE` class: it runs only while its CPU has nothing else to do
/// and any waking thread preempts it at once. Returns at once if the
/// kernel refuses the class (a spinner of normal priority would compete
/// with the system under test).
///
/// Why the open loop wants this: at 30 % load the gateway's worker and
/// timer threads sleep between requests, their CPU halts, and on this
/// virtual machine waking a halted CPU goes through the hypervisor — 0.1
/// to 1 ms, depending on what the physical host is doing. Measured in a
/// noisy hour, interleaved, four 10 s runs each: p50 1.13-1.26 ms without
/// the spinner, 1.04-1.07 ms with it; ten 20 s runs without it spread 26 %
/// (interquartile over median).
fn keep_cpu_awake(awake: &AtomicBool) {
    extern "C" {
        fn sched_setscheduler(pid: i32, policy: i32, param: *const i32) -> i32;
    }
    const SCHED_IDLE: i32 = 5;
    let priority = 0i32;
    // SAFETY: `sched_setscheduler(2)` reads one `struct sched_param` (a
    // single int) from `param`, which points at a live i32; pid 0 names
    // the calling thread. The call changes scheduling only, never memory.
    if unsafe { sched_setscheduler(0, SCHED_IDLE, &priority) } != 0 {
        return;
    }
    while awake.load(Ordering::Relaxed) {
        std::hint::spin_loop();
    }
}

/// One request's life, stamped in ns after the phase start.
#[derive(Debug)]
pub struct Served<D> {
    pub arrival: Arrival,
    /// When `submit` was called: `submit_start_ns - due_ns` is how late
    /// the generator ran.
    pub submit_start_ns: u64,
    pub submit_end_ns: u64,
    /// When `wait` returned.
    pub done_ns: u64,
    pub outcome: Result<D, String>,
}

impl<D> Served<D> {
    /// Open-loop latency: from the instant the request was *due*, so a
    /// stall that delays later submissions is charged to them.
    pub fn latency_ms(&self) -> f64 {
        self.done_ns.saturating_sub(self.arrival.due_ns) as f64 / 1e6
    }

    pub fn lateness_ms(&self) -> f64 {
        self.submit_start_ns.saturating_sub(self.arrival.due_ns) as f64 / 1e6
    }
}

/// Sends `schedule` on time from the calling thread — spinning, not
/// sleeping, between due times: a sleeping generator on this host wakes
/// 1–3 ms late at p99 and doubles the tail it is supposed to measure —
/// while one collector thread per lane stamps completions. Lanes complete
/// in order (one flush worker, FIFO queue per model), so a collector
/// waiting on its lane's oldest ticket never delays a stamp. The system's
/// CPUs are kept from halting meanwhile (see [`keep_cpu_awake`]). Returns
/// every request in schedule order, plus the phase's zero instant.
pub fn open_loop<T: Target>(
    target: &T,
    schedule: &[Arrival],
    lanes: usize,
) -> (Vec<Served<T::Done>>, Instant) {
    type Sent<P> = (usize, u64, u64, Result<P, String>);
    let start = Instant::now();
    let ns = move |at: Instant| at.saturating_duration_since(start).as_nanos() as u64;
    let mut served: Vec<Option<Served<T::Done>>> = schedule.iter().map(|_| None).collect();
    // The collectors belong to the system's side of the machine; the
    // generator gets CPU 0 to itself, so nothing it competes with can
    // make it late and it can slow nothing it measures.
    pin(Cpus::System);
    let awake = AtomicBool::new(true);
    std::thread::scope(|scope| {
        for _ in 1..cpu_count() {
            scope.spawn(|| keep_cpu_awake(&awake));
        }
        let (senders, collectors): (Vec<_>, Vec<_>) = (0..lanes)
            .map(|_| {
                let (tx, rx) = mpsc::channel::<Sent<T::Pending>>();
                let collector = scope.spawn(move || {
                    let mut done = Vec::new();
                    for (ix, submit_start_ns, submit_end_ns, pending) in rx {
                        let arrival = schedule[ix];
                        let outcome = pending.and_then(|p| target.wait(&arrival, p));
                        let done_ns = ns(Instant::now());
                        done.push((
                            ix,
                            Served { arrival, submit_start_ns, submit_end_ns, done_ns, outcome },
                        ));
                    }
                    done
                });
                (tx, collector)
            })
            .unzip();
        pin(Cpus::Generator);
        for (ix, arrival) in schedule.iter().enumerate() {
            let due = start + Duration::from_nanos(arrival.due_ns);
            while Instant::now() < due {
                std::thread::yield_now();
            }
            let submit_start = Instant::now();
            let pending = target.submit(arrival);
            let submit_end = Instant::now();
            senders[arrival.lane]
                .send((ix, ns(submit_start), ns(submit_end), pending))
                .expect("collector outlives the generator");
        }
        drop(senders);
        pin(Cpus::All);
        for collector in collectors {
            for (ix, s) in collector.join().expect("collector thread panicked") {
                served[ix] = Some(s);
            }
        }
        awake.store(false, Ordering::Relaxed);
    });
    (served.into_iter().map(|s| s.expect("every request was collected")).collect(), start)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn poisson_schedule_is_a_pure_function_of_its_seed() {
        let a = poisson_schedule(7, 600.0, 2.0, 4, 8);
        assert_eq!(a, poisson_schedule(7, 600.0, 2.0, 4, 8));
        assert_ne!(a, poisson_schedule(8, 600.0, 2.0, 4, 8));
        // Exactly rate x seconds arrivals, ordered, inside the horizon,
        // with exponential-looking gaps (mean 1/rate, many far from it).
        assert_eq!(a.len(), 1200);
        assert!(a.windows(2).all(|w| w[0].due_ns <= w[1].due_ns));
        assert!(a.last().unwrap().due_ns < 2_000_000_000);
        let gaps: Vec<u64> = a.windows(2).map(|w| w[1].due_ns - w[0].due_ns).collect();
        let short = gaps.iter().filter(|g| **g < 1_666_667).count() as f64 / gaps.len() as f64;
        assert!((0.55..0.72).contains(&short), "P(gap < mean) should be near 1 - 1/e: {short}");
        // Dealt from decks: every lane and input gets its share to within
        // one card, in an order that is not simply round-robin.
        let count = |f: &dyn Fn(&Arrival) -> bool| a.iter().filter(|x| f(x)).count();
        for lane in 0..4 {
            assert!(count(&|x| x.lane == lane).abs_diff(a.len() / 4) <= 1);
        }
        for input in 0..8 {
            assert!(count(&|x| x.input == input).abs_diff(a.len() / 8) <= 1);
        }
        assert!(a.chunks(4).any(|c| c.iter().map(|x| x.lane).ne(a[..4].iter().map(|x| x.lane))));
    }

    #[test]
    fn closed_loop_times_the_op_and_not_the_check() {
        let r = closed_loop(
            0.02,
            |_| {
                std::thread::sleep(Duration::from_millis(2));
                Ok(())
            },
            |i| {
                std::thread::sleep(Duration::from_millis(20));
                if i == 1 {
                    Err("wrong output".to_owned())
                } else {
                    Ok(())
                }
            },
        );
        assert!((2..=10).contains(&r.attempted), "{}", r.attempted);
        assert_eq!(r.failed, 1);
        assert_eq!(r.latencies_ms.len() as u64, r.succeeded());
        assert!(r.errors[0].contains("op 1: wrong output"));
        // The 20 ms check is in neither the latency nor the window.
        assert!(r.latencies_ms.iter().all(|&ms| (2.0..20.0).contains(&ms)), "{:?}", r.latencies_ms);
        assert!(r.window_s >= 0.02 && r.window_s < 0.04, "{}", r.window_s);
        // Too few ops to split: one block, and the failed op costs time
        // but counts for nothing.
        assert_eq!(r.block_throughputs.len(), 1);
        assert!((r.block_throughputs[0] - r.succeeded() as f64 / r.window_s).abs() < 1e-9);
    }

    #[test]
    fn blocks_are_equal_consecutive_and_bounded() {
        assert_eq!(blocks(9, 10), vec![0..9]);
        assert_eq!(blocks(25, 10), vec![0..12, 12..25]);
        assert_eq!(blocks(0, 10), vec![0..0]);
        let many = blocks(12_345, 20);
        assert_eq!(
            (many.len(), many[0].clone(), many[99].clone()),
            (MAX_BLOCKS, 0..123, 12_177..12_345)
        );
        assert_eq!((samples_for(0.5), samples_for(0.8), samples_for(0.9)), (20, 50, 100));
        // The calm decile: the 10th of 100 from the calm end, the calmest
        // of ten or fewer.
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!((calm_decile(&v, false), calm_decile(&v, true)), (10.0, 91.0));
        assert_eq!((calm_decile(&v[..4], false), calm_decile(&v[..4], true)), (1.0, 4.0));
        assert_eq!(calm_decile(&[], false), 0.0);
    }

    #[test]
    fn percentiles_are_taken_per_lane_and_averaged() {
        // Two lanes, 1 ms and 10 ms, alternating: the whole mix has no
        // median to speak of (anything from 1 to 10 splits it in half).
        let mut r = LoopResult::default();
        for i in 0..40 {
            r.latencies_ms.push(if i % 2 == 0 { 1.0 } else { 10.0 });
            r.lanes.push(i % 2);
        }
        assert_eq!(r.lane_count(), 2);
        assert_eq!(r.percentile(0.5), 5.5);
        assert_eq!(r.percentile_in(0..10, 0.9), 5.5);
        // One lane: the plain percentile.
        let single = LoopResult { latencies_ms: vec![3.0, 1.0, 2.0, 4.0], ..LoopResult::default() };
        assert_eq!((single.lane_count(), single.percentile(0.5)), (1, 2.0));
    }

    /// A target that stalls the generator once and completes instantly.
    struct Stalls {
        at: usize,
        stall: Duration,
    }

    impl Target for Stalls {
        type Pending = usize;
        type Done = ();
        fn submit(&self, arrival: &Arrival) -> Result<usize, String> {
            if arrival.input == self.at {
                std::thread::sleep(self.stall);
            }
            if arrival.input == self.at + 2 {
                return Err("refused".to_owned());
            }
            Ok(arrival.input)
        }
        fn wait(&self, _: &Arrival, _: usize) -> Result<(), String> {
            Ok(())
        }
    }

    #[test]
    fn open_loop_latency_runs_from_the_due_time_through_an_injected_stall() {
        // Ten requests 1 ms apart; submitting request 3 stalls 60 ms, so
        // requests 4.. are sent late through no fault of their own.
        let schedule: Vec<Arrival> = (0..10)
            .map(|i| Arrival { due_ns: (i as u64 + 1) * 1_000_000, lane: i % 2, input: i })
            .collect();
        let stall = Duration::from_millis(60);
        let (served, _) = open_loop(&Stalls { at: 3, stall }, &schedule, 2);
        assert_eq!(served.len(), 10);
        for (i, s) in served.iter().enumerate() {
            assert_eq!(s.arrival, schedule[i], "results come back in schedule order");
            assert!(s.submit_start_ns >= s.arrival.due_ns, "never sent early");
            assert_eq!(s.outcome.is_err(), i == 5);
        }
        // Request 4 was due 1 ms into the 60 ms stall: measured from its
        // send time it would look as quick as the requests before the
        // stall, measured from its due time it carries the ~59 ms it
        // actually waited.
        let late = &served[4];
        assert!(late.lateness_ms() > 50.0, "{}", late.lateness_ms());
        assert!(late.latency_ms() > 50.0, "{}", late.latency_ms());
        assert!(served[1].latency_ms() + 30.0 < late.latency_ms());
        assert!((late.done_ns - late.submit_start_ns) < 30_000_000);
        // The backlog drains: each later request waited ~1 ms less.
        assert!(served[9].latency_ms() < late.latency_ms());
    }
}
