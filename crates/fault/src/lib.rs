//! # re_fault — deterministic fault-injection failpoints
//!
//! A failpoint is a *named site* in production code (`"reduce.pass"`,
//! `"session.park"`, ...) that normally does nothing, but can be armed to
//! inject a failure: return an error, panic, or sleep. Sites are armed
//! either from the `RE_FAULT` environment variable or programmatically
//! with [`configure`]; when nothing is armed, [`fire`] is a single relaxed
//! atomic load.
//!
//! ## Syntax
//!
//! ```text
//! RE_FAULT=site=action[:prob@seed][,site=action[:prob@seed]]...
//! ```
//!
//! * `action` — `error`, `panic`, `sleep` (10 ms) or `sleep(MS)`;
//! * `prob` — firing probability in `[0, 1]`, default `1` (always);
//! * `seed` — u64 seed for the probability draw, default `0`.
//!
//! Examples: `RE_FAULT=bags.materialize=panic`,
//! `RE_FAULT=fetch.next=error:0.5@42,reduce.pass=sleep(50)`.
//!
//! ## Determinism
//!
//! Each site keeps a hit counter; whether hit *n* fires is a pure function
//! of `(seed, site name, n)` via a splitmix64-style mixer — so a run armed
//! with the same spec replays its injected faults exactly, regardless of
//! thread interleaving at *other* sites. (Hits at one site raced by many
//! threads are numbered by arrival order, which is the one source of
//! nondeterminism a probabilistic spec inherits; `prob = 1` specs are
//! fully deterministic.)
//!
//! The registry is process-global: tests that arm sites must serialise
//! with each other and [`clear`] when done.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, Once};
use std::time::Duration;

/// Environment variable holding the failpoint spec.
pub const ENV: &str = "RE_FAULT";

/// Default sleep for a bare `sleep` action, in milliseconds.
const DEFAULT_SLEEP_MS: u64 = 10;

/// The error an armed `error`-action failpoint injects.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultError {
    site: String,
}

impl FaultError {
    /// The site that injected this error.
    pub fn site(&self) -> &str {
        &self.site
    }
}

impl std::fmt::Display for FaultError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "injected fault at failpoint `{}`", self.site)
    }
}

impl std::error::Error for FaultError {}

/// What an armed site does when it fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultAction {
    /// Return `Err(FaultError)` from [`fire`].
    Error,
    /// Panic (exercises `catch_unwind` / poisoning paths).
    Panic,
    /// Sleep for the given number of milliseconds, then succeed.
    Sleep(u64),
}

struct Site {
    name: String,
    action: FaultAction,
    /// Firing probability in parts per million (1_000_000 = always).
    ppm: u32,
    seed: u64,
    hits: AtomicU64,
}

/// Fast-path switch: false ⇒ [`fire`] returns immediately.
static ENABLED: AtomicBool = AtomicBool::new(false);
/// Total faults injected (fired, not merely hit) since process start.
static INJECTED: AtomicU64 = AtomicU64::new(0);
static SITES: Mutex<Vec<Site>> = Mutex::new(Vec::new());
static ENV_INIT: Once = Once::new();

/// Lock the registry, recovering from poisoning: a panic *injected by* a
/// failpoint can unwind through this module's own lock, and the registry
/// (a plain `Vec` replaced atomically under the lock) is valid at every
/// intermediate state.
fn sites() -> std::sync::MutexGuard<'static, Vec<Site>> {
    SITES
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

fn init_from_env() {
    ENV_INIT.call_once(|| {
        if let Ok(spec) = std::env::var(ENV) {
            if !spec.trim().is_empty() {
                // An unparsable env spec is a configuration error; surface
                // it loudly rather than silently running without faults.
                if let Err(e) = configure(&spec) {
                    panic!("invalid {ENV} spec `{spec}`: {e}");
                }
            }
        }
    });
}

/// Arm the registry from a spec string (see module docs for the syntax),
/// replacing whatever was armed before. `configure("")` is [`clear`].
pub fn configure(spec: &str) -> Result<(), String> {
    // Make sure the env spec (if any) is consumed first so a later lazy
    // init cannot clobber an explicit programmatic configuration.
    ENV_INIT.call_once(|| {});
    let mut parsed = Vec::new();
    for part in spec.split(',') {
        let part = part.trim();
        if part.is_empty() {
            continue;
        }
        parsed.push(parse_site(part)?);
    }
    let enabled = !parsed.is_empty();
    *sites() = parsed;
    ENABLED.store(enabled, Ordering::SeqCst);
    Ok(())
}

/// Disarm every failpoint.
pub fn clear() {
    ENABLED.store(false, Ordering::SeqCst);
    sites().clear();
}

/// Whether any failpoint is armed (one relaxed load once the environment
/// spec has been read). Caches that would let a repeated request skip a
/// failpoint site use this to take the uncached path while faults are
/// being injected, so every armed site keeps firing on every request.
pub fn armed() -> bool {
    init_from_env();
    ENABLED.load(Ordering::Relaxed)
}

/// Total number of faults injected (errors returned, panics thrown,
/// sleeps slept) since process start. Monotone and process-global.
pub fn injected_total() -> u64 {
    INJECTED.load(Ordering::Relaxed)
}

/// The failpoint itself: call at a named site. Disarmed (the common case)
/// this is one relaxed atomic load. Armed, the site may inject its
/// configured fault: `Err(FaultError)`, a panic, or a sleep.
pub fn fire(site: &str) -> Result<(), FaultError> {
    init_from_env();
    if !ENABLED.load(Ordering::Relaxed) {
        return Ok(());
    }
    fire_armed(site)
}

#[cold]
fn fire_armed(site: &str) -> Result<(), FaultError> {
    let action = {
        let guard = sites();
        let Some(s) = guard.iter().find(|s| s.name == site) else {
            return Ok(());
        };
        let hit = s.hits.fetch_add(1, Ordering::Relaxed);
        if !should_fire(s.seed, &s.name, hit, s.ppm) {
            return Ok(());
        }
        s.action
        // Guard dropped here: never sleep or panic while holding the
        // registry lock.
    };
    INJECTED.fetch_add(1, Ordering::Relaxed);
    match action {
        FaultAction::Error => Err(FaultError {
            site: site.to_string(),
        }),
        FaultAction::Panic => panic!("injected panic at failpoint `{site}`"),
        FaultAction::Sleep(ms) => {
            std::thread::sleep(Duration::from_millis(ms));
            Ok(())
        }
    }
}

/// Pure firing decision for hit `n` of `site` under `seed` — the
/// determinism contract.
fn should_fire(seed: u64, site: &str, hit: u64, ppm: u32) -> bool {
    if ppm >= 1_000_000 {
        return true;
    }
    let draw = splitmix64(seed ^ splitmix64(fnv1a(site) ^ splitmix64(hit)));
    (draw % 1_000_000) < u64::from(ppm)
}

fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn fnv1a(s: &str) -> u64 {
    let mut h: u64 = 0xCBF2_9CE4_8422_2325;
    for b in s.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// Parse one `site=action[:prob@seed]` clause.
fn parse_site(part: &str) -> Result<Site, String> {
    let (name, rest) = part
        .split_once('=')
        .ok_or_else(|| format!("`{part}`: expected site=action"))?;
    let name = name.trim();
    if name.is_empty() {
        return Err(format!("`{part}`: empty site name"));
    }
    let (action_str, prob_seed) = match rest.split_once(':') {
        Some((a, ps)) => (a.trim(), Some(ps.trim())),
        None => (rest.trim(), None),
    };
    let action = parse_action(action_str)?;
    let (ppm, seed) = match prob_seed {
        None => (1_000_000, 0),
        Some(ps) => {
            let (prob_str, seed_str) = match ps.split_once('@') {
                Some((p, s)) => (p.trim(), Some(s.trim())),
                None => (ps, None),
            };
            let prob: f64 = prob_str
                .parse()
                .map_err(|_| format!("`{part}`: bad probability `{prob_str}`"))?;
            if !(0.0..=1.0).contains(&prob) {
                return Err(format!("`{part}`: probability must be in [0, 1]"));
            }
            let seed = match seed_str {
                None => 0,
                Some(s) => s
                    .parse::<u64>()
                    .map_err(|_| format!("`{part}`: bad seed `{s}`"))?,
            };
            ((prob * 1_000_000.0).round() as u32, seed)
        }
    };
    Ok(Site {
        name: name.to_string(),
        action,
        ppm,
        seed,
        hits: AtomicU64::new(0),
    })
}

fn parse_action(s: &str) -> Result<FaultAction, String> {
    match s {
        "error" => Ok(FaultAction::Error),
        "panic" => Ok(FaultAction::Panic),
        "sleep" => Ok(FaultAction::Sleep(DEFAULT_SLEEP_MS)),
        _ => {
            if let Some(ms) = s.strip_prefix("sleep(").and_then(|r| r.strip_suffix(')')) {
                let ms = ms
                    .trim()
                    .parse::<u64>()
                    .map_err(|_| format!("bad sleep duration `{ms}`"))?;
                Ok(FaultAction::Sleep(ms))
            } else {
                Err(format!(
                    "unknown action `{s}` (expected error, panic, sleep or sleep(MS))"
                ))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The registry is process-global; every test that arms it holds this.
    static TEST_LOCK: Mutex<()> = Mutex::new(());

    fn locked() -> std::sync::MutexGuard<'static, ()> {
        TEST_LOCK
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
    }

    #[test]
    fn disarmed_fire_is_ok() {
        let _g = locked();
        clear();
        assert_eq!(fire("nowhere"), Ok(()));
    }

    #[test]
    fn armed_tracks_configuration() {
        let _g = locked();
        clear();
        assert!(!armed());
        configure("some.site=sleep(0)").unwrap();
        assert!(armed());
        configure("").unwrap();
        assert!(!armed());
    }

    #[test]
    fn error_action_injects_at_the_named_site_only() {
        let _g = locked();
        configure("a.site=error").unwrap();
        let before = injected_total();
        assert_eq!(fire("other.site"), Ok(()));
        let err = fire("a.site").unwrap_err();
        assert_eq!(err.site(), "a.site");
        assert!(err.to_string().contains("a.site"));
        assert_eq!(injected_total(), before + 1);
        clear();
        assert_eq!(fire("a.site"), Ok(()));
    }

    #[test]
    fn panic_action_panics() {
        let _g = locked();
        configure("boom=panic").unwrap();
        let caught = std::panic::catch_unwind(|| fire("boom"));
        clear();
        assert!(caught.is_err());
    }

    #[test]
    fn sleep_action_sleeps_then_succeeds() {
        let _g = locked();
        configure("zzz=sleep(30)").unwrap();
        let t0 = std::time::Instant::now();
        assert_eq!(fire("zzz"), Ok(()));
        clear();
        assert!(t0.elapsed() >= Duration::from_millis(25));
    }

    #[test]
    fn probability_draws_replay_exactly_by_seed() {
        // Pure-function determinism: same (seed, site, hit) ⇒ same draw.
        let fired: Vec<bool> = (0..256)
            .map(|hit| should_fire(42, "x.y", hit, 500_000))
            .collect();
        let replay: Vec<bool> = (0..256)
            .map(|hit| should_fire(42, "x.y", hit, 500_000))
            .collect();
        assert_eq!(fired, replay);
        let hits = fired.iter().filter(|&&f| f).count();
        assert!(hits > 64 && hits < 192, "p=0.5 over 256 draws, got {hits}");
        // A different seed yields a different pattern.
        let other: Vec<bool> = (0..256)
            .map(|hit| should_fire(43, "x.y", hit, 500_000))
            .collect();
        assert_ne!(fired, other);
    }

    #[test]
    fn end_to_end_probabilistic_arming_replays() {
        let _g = locked();
        configure("p.site=error:0.5@7").unwrap();
        let run1: Vec<bool> = (0..64).map(|_| fire("p.site").is_err()).collect();
        configure("p.site=error:0.5@7").unwrap();
        let run2: Vec<bool> = (0..64).map(|_| fire("p.site").is_err()).collect();
        clear();
        assert_eq!(run1, run2, "same spec must replay the same faults");
        assert!(run1.iter().any(|&f| f) && !run1.iter().all(|&f| f));
    }

    #[test]
    fn spec_parsing_accepts_the_documented_grammar() {
        let _g = locked();
        configure("a=error,b=panic:0.25@9, c = sleep(120) ,d=sleep").unwrap();
        {
            let guard = sites();
            assert_eq!(guard.len(), 4);
            assert_eq!(guard[0].action, FaultAction::Error);
            assert_eq!(guard[1].ppm, 250_000);
            assert_eq!(guard[1].seed, 9);
            assert_eq!(guard[2].action, FaultAction::Sleep(120));
            assert_eq!(guard[3].action, FaultAction::Sleep(DEFAULT_SLEEP_MS));
        }
        clear();
    }

    #[test]
    fn bad_specs_are_rejected_with_reasons() {
        let _g = locked();
        for bad in [
            "no-equals",
            "s=explode",
            "s=error:2.0",
            "s=error:0.5@notanumber",
            "s=sleep(abc)",
            "=error",
        ] {
            let err = configure(bad).unwrap_err();
            assert!(!err.is_empty(), "`{bad}` must be rejected");
        }
        // A failed configure never leaves the registry half-armed.
        assert_eq!(fire("s"), Ok(()));
        clear();
    }
}
