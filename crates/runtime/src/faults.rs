//! Deterministic fault injection for the serving stack.
//!
//! Production serving has to assume kernels can misbehave — a bad SIMD
//! path on an untested host, a numerical edge case, a corrupted artifact
//! stream. This module provides *failpoints* (the `fail-rs` shape):
//! named sites compiled into the hot paths that are **zero-cost while
//! disarmed** — one relaxed atomic load, no lock, no allocation — and,
//! when armed, inject a configured fault with a deterministic trigger.
//! The chaos suite (`tests/chaos.rs`) uses them to prove the
//! fault-containment layer: a panicking kernel never takes the process
//! down, errors are typed, and the engine serves bit-identical results
//! on the next clean request.
//!
//! # Sites
//!
//! Every registered site is listed in [`SITES`]:
//!
//! | site | where it fires |
//! |---|---|
//! | [`KERNEL_DISPATCH`] | per-step conv/op kernel dispatch |
//! | [`QUANT_EDGE`] | quantize/dequantize edge-chain application |
//! | [`BUFFER_CHECKOUT`] | executor buffer-pool checkout (inside the pool lock) |
//! | [`SCHEDULE_COMPILE`] | `Schedule::compile` entry |
//! | [`ARTIFACT_READ`] | the compiled-artifact load path (facade) |
//! | [`GATEWAY_FLUSH`] | serving-gateway batch flush, before the fused batch executes |
//! | [`AUTOTUNE_RESOLVE`] | background re-optimization solve (autotune), before the PBQP re-solve runs |
//!
//! # Spec syntax
//!
//! A site is armed with a `trigger:action` spec:
//!
//! * triggers — `every` (every evaluation), `nth(N)` (exactly the N-th
//!   evaluation, 1-based, once), `prob(P,SEED)` (seeded splitmix64 coin
//!   with probability `P` per evaluation — deterministic per process);
//! * actions — `panic` / `panic(msg)` (panics at the site, exercising
//!   the containment layer), `error` / `error(msg)` (the site surfaces a
//!   typed injected error), `delay(ms)` (sleeps, then continues),
//!   `short-read(n)` (read-path sites drop the last `n` bytes; other
//!   sites treat it as a no-op).
//!
//! The `PBQP_DNN_FAILPOINTS` environment variable arms sites at process
//! startup (first evaluation), e.g.:
//!
//! ```text
//! PBQP_DNN_FAILPOINTS="kernel.dispatch=nth(3):panic(injected);artifact.read=every:short-read(16)"
//! ```
//!
//! # Example
//!
//! ```
//! use pbqp_dnn_runtime::faults;
//!
//! // Nothing armed: evaluation is a single atomic load and never fires.
//! assert!(faults::hit(faults::KERNEL_DISPATCH).is_none());
//!
//! // Arm the kernel-dispatch site to error on its 2nd evaluation.
//! faults::arm(faults::KERNEL_DISPATCH, "nth(2):error(injected fault)").unwrap();
//! assert!(faults::hit(faults::KERNEL_DISPATCH).is_none()); // call 1
//! match faults::hit(faults::KERNEL_DISPATCH) {
//!     Some(faults::Injected::Error(msg)) => assert_eq!(msg, "injected fault"),
//!     other => panic!("expected injected error, got {other:?}"),
//! }
//! assert!(faults::hit(faults::KERNEL_DISPATCH).is_none()); // nth fires once
//! faults::disarm_all();
//! ```

use std::collections::HashMap;
use std::fmt;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard, OnceLock};
use std::time::Duration;

/// Per-step conv/op kernel dispatch (the containment layer catches
/// panics here and surfaces `RuntimeError::KernelPanicked`).
pub const KERNEL_DISPATCH: &str = "kernel.dispatch";
/// Quantize/dequantize hops of edge legalization chains.
pub const QUANT_EDGE: &str = "edge.quant";
/// Executor buffer-pool checkout — evaluated while the pool lock is
/// held, so a `panic` action genuinely poisons the mutex and proves the
/// pool recovers.
pub const BUFFER_CHECKOUT: &str = "buffers.checkout";
/// `Schedule::compile` entry.
pub const SCHEDULE_COMPILE: &str = "schedule.compile";
/// The compiled-artifact load path (`CompiledModel::load` in the
/// facade) — the one site where `short-read(n)` truncates real bytes.
pub const ARTIFACT_READ: &str = "artifact.read";
/// The serving gateway's batch flush, evaluated on the worker thread
/// just before a coalesced batch executes — `delay(ms)` here models a
/// slow flush (the chaos suite proves it cannot starve other models or
/// breach backpressure bounds), `error`/`panic` model a flush that
/// fails after requests were admitted.
pub const GATEWAY_FLUSH: &str = "gateway.flush";
/// The autotuner's background re-solve, evaluated off the serving path
/// just before the PBQP re-optimization runs — `panic`/`error` here
/// model a solver blow-up on live-observed costs; the chaos suite proves
/// the failure is contained (serving continues on the old generation,
/// health reports it, the next trigger retries).
pub const AUTOTUNE_RESOLVE: &str = "autotune.resolve";

/// Every registered failpoint site, for exhaustive chaos sweeps.
pub const SITES: &[&str] = &[
    KERNEL_DISPATCH,
    QUANT_EDGE,
    BUFFER_CHECKOUT,
    SCHEDULE_COMPILE,
    ARTIFACT_READ,
    GATEWAY_FLUSH,
    AUTOTUNE_RESOLVE,
];

/// Sentinel: the env var has not been consulted yet.
const UNINIT: usize = usize::MAX;

/// Number of armed sites, or [`UNINIT`] before the first evaluation.
/// The disarmed fast path is exactly one relaxed load of this.
static ARMED: AtomicUsize = AtomicUsize::new(UNINIT);

/// What an armed site does when its trigger fires.
#[derive(Debug, Clone, PartialEq)]
pub enum Action {
    /// Panic at the site with this message (prefixed with the site name).
    Panic(String),
    /// Surface a typed injected error with this message.
    Error(String),
    /// Sleep this long at the site, then continue normally.
    Delay(Duration),
    /// Drop the last `n` bytes on read-path sites; a no-op elsewhere.
    ShortRead(usize),
}

/// When an armed site fires.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Trigger {
    /// Every evaluation.
    Every,
    /// Exactly the `n`-th evaluation (1-based), once.
    Nth(u64),
    /// A seeded splitmix64 coin per evaluation: deterministic for a
    /// given `(seed, evaluation index)` pair.
    Probability {
        /// Firing probability in `[0, 1]`.
        p: f64,
        /// The PRNG seed.
        seed: u64,
    },
}

/// What [`hit`] reports back to the site when a fault fires and control
/// returns (the `panic` action never returns, and `delay` is performed
/// inside [`hit`] itself).
#[derive(Debug, Clone, PartialEq)]
pub enum Injected {
    /// The site should surface a typed error with this message.
    Error(String),
    /// A read-path site should drop its last `n` bytes.
    ShortRead(usize),
}

/// A malformed failpoint spec.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpecError(String);

impl fmt::Display for SpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "bad failpoint spec: {}", self.0)
    }
}

impl std::error::Error for SpecError {}

struct Site {
    trigger: Trigger,
    action: Action,
    /// Evaluations so far (drives `nth` and the probability stream).
    calls: u64,
    /// Times the trigger has fired.
    fired: u64,
}

fn registry() -> MutexGuard<'static, HashMap<String, Site>> {
    static REGISTRY: OnceLock<Mutex<HashMap<String, Site>>> = OnceLock::new();
    let lock = REGISTRY.get_or_init(|| Mutex::new(HashMap::new()));
    // A panic injected at a site must never wedge the fault subsystem
    // itself: recover the map on poison (its state is always coherent —
    // every mutation is a single-field update).
    match lock.lock() {
        Ok(g) => g,
        Err(poisoned) => {
            lock.clear_poison();
            poisoned.into_inner()
        }
    }
}

/// Consults `PBQP_DNN_FAILPOINTS` exactly once per process. Malformed
/// entries are reported on stderr and skipped — an operator typo must
/// degrade to "no injection", never crash serving.
fn init_from_env() {
    let mut armed = 0;
    if let Ok(spec) = std::env::var("PBQP_DNN_FAILPOINTS") {
        match parse_spec_list(&spec) {
            Ok(entries) => {
                let mut map = registry();
                for (site, trigger, action) in entries {
                    map.insert(site, Site { trigger, action, calls: 0, fired: 0 });
                }
                armed = map.len();
            }
            Err(e) => eprintln!("pbqp-dnn: ignoring PBQP_DNN_FAILPOINTS: {e}"),
        }
    }
    // Publish only after the registry is populated. `compare_exchange`
    // keeps a concurrent `arm()` (which also counts the map) from being
    // overwritten by a stale zero.
    let _ = ARMED.compare_exchange(UNINIT, armed, Ordering::Release, Ordering::Relaxed);
}

fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e3779b97f4a7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d049bb133111eb);
    x ^ (x >> 31)
}

/// Evaluates the failpoint `site`.
///
/// Disarmed (the steady state), this is **one relaxed atomic load** —
/// no lock, no allocation, no branch beyond the zero check — which is
/// what lets the sites live inside the zero-allocation serving loop.
///
/// Armed, the site's deterministic trigger decides whether the action
/// fires: `panic` panics here (the containment layer around the site is
/// what's under test), `delay` sleeps here and returns `None`, while
/// `error` and `short-read` are returned as [`Injected`] for the site
/// to surface in its own typed vocabulary.
pub fn hit(site: &str) -> Option<Injected> {
    let armed = ARMED.load(Ordering::Relaxed);
    if armed == 0 {
        return None;
    }
    if armed == UNINIT {
        init_from_env();
        if ARMED.load(Ordering::Relaxed) == 0 {
            return None;
        }
    }
    let action = {
        let mut map = registry();
        let s = map.get_mut(site)?;
        s.calls += 1;
        let fires = match s.trigger {
            Trigger::Every => true,
            Trigger::Nth(n) => s.calls == n,
            Trigger::Probability { p, seed } => {
                let draw = splitmix64(seed ^ s.calls) as f64 / u64::MAX as f64;
                draw < p
            }
        };
        if !fires {
            return None;
        }
        s.fired += 1;
        s.action.clone()
    };
    match action {
        Action::Panic(msg) => panic!("failpoint `{site}`: {msg}"),
        Action::Error(msg) => Some(Injected::Error(msg)),
        Action::Delay(d) => {
            std::thread::sleep(d);
            None
        }
        Action::ShortRead(n) => Some(Injected::ShortRead(n)),
    }
}

/// Arms `site` with a `trigger:action` spec (see the [module docs](self)
/// for the grammar). Re-arming a site resets its evaluation counter.
///
/// # Errors
///
/// [`SpecError`] when the spec does not parse; the site is left as it
/// was.
pub fn arm(site: &str, spec: &str) -> Result<(), SpecError> {
    let (trigger, action) = parse_spec(spec)?;
    arm_with(site, trigger, action);
    Ok(())
}

/// Arms `site` with an already-constructed trigger and action.
pub fn arm_with(site: &str, trigger: Trigger, action: Action) {
    // Make sure a later lazy env init cannot clobber the count we are
    // about to publish.
    if ARMED.load(Ordering::Relaxed) == UNINIT {
        init_from_env();
    }
    let mut map = registry();
    map.insert(site.to_owned(), Site { trigger, action, calls: 0, fired: 0 });
    ARMED.store(map.len(), Ordering::Release);
}

/// Arms every `site=trigger:action` entry of a `;`-separated list — the
/// same grammar `PBQP_DNN_FAILPOINTS` uses.
///
/// # Errors
///
/// [`SpecError`] if any entry is malformed; no entry is armed.
pub fn arm_list(list: &str) -> Result<(), SpecError> {
    let entries = parse_spec_list(list)?;
    if ARMED.load(Ordering::Relaxed) == UNINIT {
        init_from_env();
    }
    let mut map = registry();
    for (site, trigger, action) in entries {
        map.insert(site, Site { trigger, action, calls: 0, fired: 0 });
    }
    ARMED.store(map.len(), Ordering::Release);
    Ok(())
}

/// Disarms `site`. Returns whether it was armed.
pub fn disarm(site: &str) -> bool {
    if ARMED.load(Ordering::Relaxed) == UNINIT {
        init_from_env();
    }
    let mut map = registry();
    let was = map.remove(site).is_some();
    ARMED.store(map.len(), Ordering::Release);
    was
}

/// Disarms every site (including env-armed ones), restoring the
/// zero-cost steady state.
pub fn disarm_all() {
    if ARMED.load(Ordering::Relaxed) == UNINIT {
        init_from_env();
    }
    let mut map = registry();
    map.clear();
    ARMED.store(0, Ordering::Release);
}

/// The armed sites with their evaluation/fire counters:
/// `(site, calls, fired)`.
pub fn armed() -> Vec<(String, u64, u64)> {
    if ARMED.load(Ordering::Relaxed) == UNINIT {
        init_from_env();
    }
    let map = registry();
    let mut v: Vec<_> = map.iter().map(|(k, s)| (k.clone(), s.calls, s.fired)).collect();
    v.sort();
    v
}

/// Extracts the human-readable message from a caught panic payload —
/// shared by every containment site (`&str` and `String` payloads cover
/// `panic!`; anything else is opaque).
pub fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_owned()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_owned()
    }
}

fn parse_spec_list(list: &str) -> Result<Vec<(String, Trigger, Action)>, SpecError> {
    let mut out = Vec::new();
    for entry in list.split(';') {
        let entry = entry.trim();
        if entry.is_empty() {
            continue;
        }
        let (site, spec) = entry
            .split_once('=')
            .ok_or_else(|| SpecError(format!("`{entry}` is not `site=trigger:action`")))?;
        let (trigger, action) = parse_spec(spec.trim())?;
        out.push((site.trim().to_owned(), trigger, action));
    }
    Ok(out)
}

fn parse_spec(spec: &str) -> Result<(Trigger, Action), SpecError> {
    let (trigger, action) = spec
        .split_once(':')
        .ok_or_else(|| SpecError(format!("`{spec}` is not `trigger:action`")))?;
    Ok((parse_trigger(trigger.trim())?, parse_action(action.trim())?))
}

/// Splits `name(args)` into `(name, Some(args))`, or `(name, None)`
/// without parentheses.
fn split_call(s: &str) -> Result<(&str, Option<&str>), SpecError> {
    match s.split_once('(') {
        None => Ok((s, None)),
        Some((name, rest)) => {
            let args = rest
                .strip_suffix(')')
                .ok_or_else(|| SpecError(format!("unbalanced parentheses in `{s}`")))?;
            Ok((name.trim(), Some(args.trim())))
        }
    }
}

fn parse_trigger(s: &str) -> Result<Trigger, SpecError> {
    let (name, args) = split_call(s)?;
    match (name, args) {
        ("every", None) => Ok(Trigger::Every),
        ("nth", Some(n)) => {
            let n: u64 =
                n.parse().map_err(|_| SpecError(format!("nth wants an integer, got `{n}`")))?;
            if n == 0 {
                return Err(SpecError("nth is 1-based; nth(0) never fires".into()));
            }
            Ok(Trigger::Nth(n))
        }
        ("prob", Some(args)) => {
            let (p, seed) = args
                .split_once(',')
                .ok_or_else(|| SpecError(format!("prob wants `p,seed`, got `{args}`")))?;
            let p: f64 = p
                .trim()
                .parse()
                .map_err(|_| SpecError(format!("prob wants a float probability, got `{p}`")))?;
            if !(0.0..=1.0).contains(&p) {
                return Err(SpecError(format!("probability {p} outside [0, 1]")));
            }
            let seed: u64 = seed
                .trim()
                .parse()
                .map_err(|_| SpecError(format!("prob wants an integer seed, got `{seed}`")))?;
            Ok(Trigger::Probability { p, seed })
        }
        _ => Err(SpecError(format!("unknown trigger `{s}` (want every | nth(N) | prob(P,SEED))"))),
    }
}

fn parse_action(s: &str) -> Result<Action, SpecError> {
    let (name, args) = split_call(s)?;
    match (name, args) {
        ("panic", msg) => Ok(Action::Panic(msg.unwrap_or("injected panic").to_owned())),
        ("error", msg) => Ok(Action::Error(msg.unwrap_or("injected error").to_owned())),
        ("delay", Some(ms)) => {
            let ms: u64 = ms
                .parse()
                .map_err(|_| SpecError(format!("delay wants milliseconds, got `{ms}`")))?;
            Ok(Action::Delay(Duration::from_millis(ms)))
        }
        ("short-read", Some(n)) => {
            let n: usize = n
                .parse()
                .map_err(|_| SpecError(format!("short-read wants a byte count, got `{n}`")))?;
            Ok(Action::ShortRead(n))
        }
        _ => Err(SpecError(format!(
            "unknown action `{s}` (want panic[(msg)] | error[(msg)] | delay(ms) | short-read(n))"
        ))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The registry is process-global; tests that arm sites serialize on
    /// this and clean up after themselves.
    fn guard() -> MutexGuard<'static, ()> {
        static LOCK: Mutex<()> = Mutex::new(());
        let g = match LOCK.lock() {
            Ok(g) => g,
            Err(p) => p.into_inner(),
        };
        disarm_all();
        g
    }

    #[test]
    fn disarmed_sites_never_fire() {
        let _g = guard();
        for site in SITES {
            assert!(hit(site).is_none());
        }
    }

    #[test]
    fn nth_trigger_fires_exactly_once() {
        let _g = guard();
        arm("test.nth", "nth(3):error(boom)").unwrap();
        assert!(hit("test.nth").is_none());
        assert!(hit("test.nth").is_none());
        assert_eq!(hit("test.nth"), Some(Injected::Error("boom".into())));
        for _ in 0..8 {
            assert!(hit("test.nth").is_none());
        }
        let counters = armed();
        assert_eq!(counters.len(), 1);
        assert_eq!((counters[0].1, counters[0].2), (11, 1));
        disarm_all();
    }

    #[test]
    fn every_trigger_fires_every_time_and_only_on_its_site() {
        let _g = guard();
        arm("test.every", "every:short-read(4)").unwrap();
        for _ in 0..3 {
            assert_eq!(hit("test.every"), Some(Injected::ShortRead(4)));
            assert!(hit("test.nth").is_none());
        }
        disarm_all();
    }

    #[test]
    fn probability_stream_is_deterministic_and_roughly_calibrated() {
        let _g = guard();
        let run = |seed: u64| -> Vec<bool> {
            arm_with(
                "test.prob",
                Trigger::Probability { p: 0.25, seed },
                Action::Error("p".into()),
            );
            let fired: Vec<bool> = (0..400).map(|_| hit("test.prob").is_some()).collect();
            disarm_all();
            fired
        };
        let a = run(7);
        let b = run(7);
        assert_eq!(a, b, "same seed, same stream");
        let c = run(8);
        assert_ne!(a, c, "different seed, different stream");
        let rate = a.iter().filter(|&&f| f).count() as f64 / a.len() as f64;
        assert!((0.15..0.35).contains(&rate), "rate {rate} far from 0.25");
    }

    #[test]
    fn panic_action_panics_at_the_site_and_disarm_restores_quiet() {
        let _g = guard();
        arm("test.panic", "every:panic(chaos)").unwrap();
        let err = std::panic::catch_unwind(|| hit("test.panic")).unwrap_err();
        assert!(panic_message(err).contains("chaos"));
        // The panic unwound while the registry lock was held by nobody —
        // but even if it had been, the registry recovers from poison.
        disarm("test.panic");
        assert!(hit("test.panic").is_none());
    }

    #[test]
    fn delay_action_sleeps_then_continues() {
        let _g = guard();
        arm("test.delay", "every:delay(5)").unwrap();
        let t = std::time::Instant::now();
        assert!(hit("test.delay").is_none());
        assert!(t.elapsed() >= Duration::from_millis(4));
        disarm_all();
    }

    #[test]
    fn spec_list_round_trips_the_env_grammar() {
        let _g = guard();
        arm_list(
            "kernel.dispatch=nth(2):panic(k); edge.quant=every:delay(1);\
             artifact.read=prob(0.5,9):short-read(16)",
        )
        .unwrap();
        assert_eq!(armed().len(), 3);
        disarm_all();
        assert!(armed().is_empty());
    }

    #[test]
    fn malformed_specs_are_typed_errors() {
        for bad in [
            "nope",
            "nth(0):panic",
            "nth(x):panic",
            "every:explode",
            "prob(1.5,1):error",
            "prob(0.5):error",
            "every:delay",
            "every:short-read(many)",
            "every:panic(unbalanced",
        ] {
            assert!(parse_spec(bad).is_err(), "`{bad}` should not parse");
        }
        assert!(parse_spec_list("site-without-equals").is_err());
        // Empty entries are tolerated (trailing semicolons).
        assert!(parse_spec_list("  ;; ").unwrap().is_empty());
    }
}
