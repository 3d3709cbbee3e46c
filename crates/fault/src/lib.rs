//! # kiss-fault
//!
//! Deterministic fault injection for the KISS serving stack.
//!
//! A **failpoint** is a named site in production code — a journal
//! append, a socket read, a queue admission — that asks this crate
//! whether a fault should fire *right now*. In normal operation the
//! answer is always "no" and the question costs one relaxed atomic
//! load. Under a chaos test or a `KISS_FAULT` profile, each site is
//! bound to a [`Policy`] that decides deterministically, from a fixed
//! seed and the site's own hit counter, when to inject an error, a
//! panic, a delay, or a truncated write.
//!
//! Determinism is the point: the chaos suite's invariant is that a
//! faulted run returns the *same verdicts* as a fault-free run for
//! every request it completes, and that only holds up to reproducible
//! fault schedules. Probabilistic policies therefore derive their coin
//! flips from `splitmix64(seed ^ site ^ hit_index)`, never from a
//! global RNG or the clock — the i-th hit of a given site under a
//! given seed always decides the same way, regardless of thread
//! interleaving elsewhere.
//!
//! ## Wiring a site
//!
//! ```
//! match kiss_fault::hit("serve.journal.append") {
//!     None => { /* normal path */ }
//!     Some(action) => { /* honour Error/Panic/Delay/Truncate */ }
//! }
//! ```
//!
//! Sites that cannot honour a particular action (a queue admission
//! cannot truncate anything) treat it as the nearest meaningful one
//! and document the mapping.
//!
//! ## Profiles
//!
//! A profile is a one-line spec, accepted programmatically
//! ([`configure`]) or from the `KISS_FAULT` environment variable
//! ([`configure_from_env`]):
//!
//! ```text
//! seed=42;serve.worker=panic*1;serve.journal.append=truncate(8)%25;serve.conn.read=error%5
//! ```
//!
//! `;`-separated clauses, each `site=action`. Actions:
//!
//! | spec | meaning |
//! |---|---|
//! | `error` / `panic` | fire on **every** hit |
//! | `error*N` | fire on the first `N` hits, then stop (`error*1` = error once) |
//! | `error%P` | fire on each hit with probability `P`% (seeded, deterministic) |
//! | `delay(MS)`, `delay(MS)*N`, `delay(MS)%P` | sleep `MS` milliseconds |
//! | `truncate(K)`, `truncate(K)*N`, `truncate(K)%P` | keep only `K` bytes of a write |
//! | `off` | unbind the site |
//!
//! `seed=N` seeds every probabilistic clause (default 0).
//!
//! ## Cost when disabled
//!
//! With no profile configured, [`hit`] is a single
//! `AtomicBool::load(Relaxed)` and an immediate `None`. Building with
//! the `force-off` feature removes even that: [`hit`] becomes a
//! constant `None` the optimizer erases along with the match on it.

#![warn(missing_docs)]

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Duration;

/// What one failpoint decision asks the site to do.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Action {
    /// Fail the operation with an injected error.
    Error,
    /// Panic (sites under `catch_unwind` turn this into a crash path).
    Panic,
    /// Sleep for the given duration, then proceed normally.
    Delay(Duration),
    /// Perform only the first `usize` bytes of a write (torn write).
    Truncate(usize),
}

impl Action {
    /// Stable lowercase name for events and logs.
    pub fn name(self) -> &'static str {
        match self {
            Action::Error => "error",
            Action::Panic => "panic",
            Action::Delay(_) => "delay",
            Action::Truncate(_) => "truncate",
        }
    }
}

/// When a bound site fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Trigger {
    /// Fire on every hit.
    Always,
    /// Fire on the first `n` hits, then never again.
    Times(u32),
    /// Fire on each hit with this probability, in percent (seeded,
    /// deterministic per hit index).
    Percent(u32),
}

/// One site's binding: what to do and when to do it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Policy {
    /// The action to inject.
    pub action: Action,
    /// When the action fires.
    pub trigger: Trigger,
}

#[derive(Debug, Default)]
struct Point {
    policy: Option<Policy>,
    /// Hits seen (whether or not they fired).
    hits: u64,
    /// Hits that actually injected a fault.
    fired: u64,
}

#[derive(Debug, Default)]
struct Registry {
    seed: u64,
    points: BTreeMap<String, Point>,
}

/// Fast-path flag: `false` means no site is bound and [`hit`] returns
/// immediately.
static ACTIVE: AtomicBool = AtomicBool::new(false);

fn registry() -> &'static Mutex<Registry> {
    static REGISTRY: OnceLock<Mutex<Registry>> = OnceLock::new();
    REGISTRY.get_or_init(Mutex::default)
}

/// SplitMix64: the standard avalanche step, good enough to turn
/// (seed, site, hit-index) into an unbiased coin.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

fn site_hash(name: &str) -> u64 {
    // FNV-1a; only used to decorrelate sites sharing one seed.
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in name.bytes() {
        h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Asks whether the failpoint `name` should inject a fault on this
/// hit. `None` is the normal path. Sites call this unconditionally;
/// the disabled fast path is one relaxed atomic load.
#[inline]
pub fn hit(name: &str) -> Option<Action> {
    #[cfg(feature = "force-off")]
    {
        let _ = name;
        None
    }
    #[cfg(not(feature = "force-off"))]
    {
        if !ACTIVE.load(Ordering::Relaxed) {
            return None;
        }
        hit_slow(name)
    }
}

#[cfg(not(feature = "force-off"))]
fn hit_slow(name: &str) -> Option<Action> {
    let mut reg = registry().lock().expect("fault registry lock");
    let seed = reg.seed;
    let point = reg.points.get_mut(name)?;
    let policy = point.policy?;
    let index = point.hits;
    point.hits += 1;
    let fires = match policy.trigger {
        Trigger::Always => true,
        Trigger::Times(n) => point.fired < u64::from(n),
        Trigger::Percent(p) => {
            let roll = splitmix64(seed ^ site_hash(name) ^ index) % 100;
            roll < u64::from(p.min(100))
        }
    };
    if !fires {
        return None;
    }
    point.fired += 1;
    Some(policy.action)
}

/// Whether any failpoint is currently bound.
pub fn is_active() -> bool {
    ACTIVE.load(Ordering::Relaxed)
}

/// Binds one site to a policy (replacing any previous binding).
pub fn set(name: &str, policy: Policy) {
    let mut reg = registry().lock().expect("fault registry lock");
    reg.points.entry(name.to_string()).or_default().policy = Some(policy);
    ACTIVE.store(true, Ordering::Relaxed);
}

/// Clears every binding and counter. The next [`hit`] is back on the
/// one-atomic-load fast path.
pub fn reset() {
    let mut reg = registry().lock().expect("fault registry lock");
    reg.points.clear();
    reg.seed = 0;
    ACTIVE.store(false, Ordering::Relaxed);
}

/// Replaces the whole configuration with `spec` (see the module docs
/// for the grammar). An empty spec is [`reset`].
pub fn configure(spec: &str) -> Result<(), String> {
    let parsed = parse_spec(spec)?;
    let mut reg = registry().lock().expect("fault registry lock");
    reg.points.clear();
    reg.seed = parsed.seed;
    let any = !parsed.bindings.is_empty();
    for (name, policy) in parsed.bindings {
        reg.points.insert(name, Point { policy: Some(policy), hits: 0, fired: 0 });
    }
    ACTIVE.store(any, Ordering::Relaxed);
    Ok(())
}

/// Configures from the `KISS_FAULT` environment variable. Returns the
/// spec when one was found and applied, `None` when the variable is
/// unset or empty.
pub fn configure_from_env() -> Result<Option<String>, String> {
    match std::env::var("KISS_FAULT") {
        Ok(spec) if !spec.trim().is_empty() => {
            configure(&spec).map_err(|e| format!("KISS_FAULT: {e}"))?;
            Ok(Some(spec))
        }
        _ => Ok(None),
    }
}

/// Per-site injection tallies: `(site, hits seen, faults fired)`,
/// sorted by site name. Sites bound but never hit report `(0, 0)`.
pub fn injections() -> Vec<(String, u64, u64)> {
    let reg = registry().lock().expect("fault registry lock");
    reg.points.iter().map(|(k, p)| (k.clone(), p.hits, p.fired)).collect()
}

/// Total faults fired across every site since the last [`configure`]
/// or [`reset`].
pub fn total_fired() -> u64 {
    let reg = registry().lock().expect("fault registry lock");
    reg.points.values().map(|p| p.fired).sum()
}

struct ParsedSpec {
    seed: u64,
    bindings: Vec<(String, Policy)>,
}

fn parse_spec(spec: &str) -> Result<ParsedSpec, String> {
    let mut parsed = ParsedSpec { seed: 0, bindings: Vec::new() };
    for clause in spec.split(';').map(str::trim).filter(|c| !c.is_empty()) {
        let (name, value) = clause
            .split_once('=')
            .ok_or_else(|| format!("clause `{clause}` is not `site=action`"))?;
        let (name, value) = (name.trim(), value.trim());
        if name.is_empty() {
            return Err(format!("clause `{clause}` has an empty site name"));
        }
        if name == "seed" {
            parsed.seed = value.parse().map_err(|_| format!("bad seed `{value}`"))?;
            continue;
        }
        if value == "off" {
            parsed.bindings.retain(|(n, _)| n != name);
            continue;
        }
        parsed.bindings.push((name.to_string(), parse_policy(value)?));
    }
    Ok(parsed)
}

fn parse_policy(value: &str) -> Result<Policy, String> {
    // Split the trigger suffix: `*N` (times) or `%P` (percent).
    let (base, trigger) = if let Some((b, n)) = value.rsplit_once('*') {
        let times = n.trim().parse().map_err(|_| format!("bad count in `{value}`"))?;
        (b.trim(), Trigger::Times(times))
    } else if let Some((b, p)) = value.rsplit_once('%') {
        let pct: u32 = p.trim().parse().map_err(|_| format!("bad percent in `{value}`"))?;
        if pct > 100 {
            return Err(format!("percent {pct} > 100 in `{value}`"));
        }
        (b.trim(), Trigger::Percent(pct))
    } else {
        (value, Trigger::Always)
    };
    let action = if base == "error" {
        Action::Error
    } else if base == "panic" {
        Action::Panic
    } else if let Some(arg) = arg_of(base, "delay") {
        Action::Delay(Duration::from_millis(
            arg?.parse().map_err(|_| format!("bad delay in `{value}`"))?,
        ))
    } else if let Some(arg) = arg_of(base, "truncate") {
        Action::Truncate(arg?.parse().map_err(|_| format!("bad truncate length in `{value}`"))?)
    } else {
        return Err(format!(
            "unknown action `{base}` (expected error, panic, delay(MS), truncate(K), or off)"
        ));
    };
    Ok(Policy { action, trigger })
}

/// For `delay(5)`-style specs: `Some(Ok("5"))` when `base` is
/// `head(...)`, `Some(Err)` when the parentheses are malformed, `None`
/// when `base` is some other action.
fn arg_of<'a>(base: &'a str, head: &str) -> Option<Result<&'a str, String>> {
    let rest = base.strip_prefix(head)?;
    let rest = rest.trim();
    if let Some(inner) = rest.strip_prefix('(').and_then(|r| r.strip_suffix(')')) {
        Some(Ok(inner.trim()))
    } else {
        Some(Err(format!("`{head}` needs a parenthesized argument, e.g. `{head}(5)`")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::MutexGuard;

    /// The registry is process-global, so tests serialize on their own
    /// lock and reset around each body.
    fn exclusive() -> MutexGuard<'static, ()> {
        static LOCK: Mutex<()> = Mutex::new(());
        let guard = LOCK.lock().unwrap_or_else(|e| e.into_inner());
        reset();
        guard
    }

    #[test]
    fn splitmix64_matches_known_vectors() {
        // Percent schedules replay only while these hold; kiss-obs's
        // public copy pins the same values.
        assert_eq!(splitmix64(0), 0xe220_a839_7b1d_cdaf);
        assert_eq!(splitmix64(1), 0x910a_2dec_8902_5cc1);
        assert_eq!(splitmix64(u64::MAX), 0xe4d9_7177_1b65_2c20);
    }

    #[test]
    fn disabled_fast_path_returns_none() {
        let _x = exclusive();
        assert!(!is_active());
        assert_eq!(hit("anything"), None);
    }

    #[test]
    fn error_times_fires_exactly_n_then_stops() {
        let _x = exclusive();
        configure("serve.read=error*2").unwrap();
        assert!(is_active());
        assert_eq!(hit("serve.read"), Some(Action::Error));
        assert_eq!(hit("serve.read"), Some(Action::Error));
        assert_eq!(hit("serve.read"), None);
        assert_eq!(hit("serve.read"), None);
        assert_eq!(hit("unbound.site"), None);
        assert_eq!(injections(), vec![("serve.read".to_string(), 4, 2)]);
        assert_eq!(total_fired(), 2);
    }

    #[test]
    fn always_fires_every_hit_and_delay_truncate_carry_arguments() {
        let _x = exclusive();
        configure("a=delay(25);b=truncate(8);c=panic").unwrap();
        for _ in 0..3 {
            assert_eq!(hit("a"), Some(Action::Delay(Duration::from_millis(25))));
        }
        assert_eq!(hit("b"), Some(Action::Truncate(8)));
        assert_eq!(hit("c"), Some(Action::Panic));
        assert_eq!(hit("c").unwrap().name(), "panic");
    }

    #[test]
    fn percent_policy_is_deterministic_under_a_fixed_seed() {
        let _x = exclusive();
        let run = |seed: u64| -> Vec<bool> {
            configure(&format!("seed={seed};site=error%40")).unwrap();
            (0..64).map(|_| hit("site").is_some()).collect()
        };
        let first = run(7);
        let again = run(7);
        assert_eq!(first, again, "same seed, same schedule");
        let fired = first.iter().filter(|b| **b).count();
        assert!(fired > 10 && fired < 45, "~40% of 64 hits, got {fired}");
        let other = run(8);
        assert_ne!(first, other, "different seed, different schedule");
    }

    #[test]
    fn sites_sharing_a_seed_decide_independently() {
        let _x = exclusive();
        configure("seed=3;a=error%50;b=error%50").unwrap();
        let a: Vec<bool> = (0..64).map(|_| hit("a").is_some()).collect();
        let b: Vec<bool> = (0..64).map(|_| hit("b").is_some()).collect();
        assert_ne!(a, b, "site hash decorrelates coin flips");
    }

    #[test]
    fn configure_replaces_and_reset_clears() {
        let _x = exclusive();
        configure("a=error").unwrap();
        assert_eq!(hit("a"), Some(Action::Error));
        configure("b=panic*1").unwrap();
        assert_eq!(hit("a"), None, "old bindings are gone");
        assert_eq!(hit("b"), Some(Action::Panic));
        reset();
        assert!(!is_active());
        assert_eq!(hit("b"), None);
        assert!(injections().is_empty());
    }

    #[test]
    fn off_clause_unbinds_and_empty_spec_deactivates() {
        let _x = exclusive();
        configure("a=error;a=off").unwrap();
        assert!(!is_active());
        configure("  ;; ").unwrap();
        assert!(!is_active());
    }

    #[test]
    fn malformed_specs_are_rejected_with_reasons() {
        let _x = exclusive();
        for (spec, needle) in [
            ("justaname", "not `site=action`"),
            ("=error", "empty site name"),
            ("a=explode", "unknown action"),
            ("a=error*x", "bad count"),
            ("a=error%x", "bad percent"),
            ("a=error%101", "> 100"),
            ("a=delay", "parenthesized argument"),
            ("a=delay(x)", "bad delay"),
            ("a=truncate(", "parenthesized argument"),
            ("seed=abc", "bad seed"),
        ] {
            let err = configure(spec).unwrap_err();
            assert!(err.contains(needle), "{spec} -> {err}");
        }
        // A failed configure never half-applies.
        assert!(!is_active());
    }

    #[test]
    fn env_configuration_round_trips() {
        let _x = exclusive();
        std::env::remove_var("KISS_FAULT");
        assert_eq!(configure_from_env().unwrap(), None);
        std::env::set_var("KISS_FAULT", "site=error*1");
        assert_eq!(configure_from_env().unwrap().as_deref(), Some("site=error*1"));
        assert_eq!(hit("site"), Some(Action::Error));
        std::env::set_var("KISS_FAULT", "not a spec");
        assert!(configure_from_env().unwrap_err().contains("KISS_FAULT"));
        std::env::remove_var("KISS_FAULT");
        reset();
    }
}
